"""Finite permutation dynamics: markers, tower functions, embeddings.

A finite system is a bijection of a finite point set, optionally carrying an
exact rational metric.  The builders here make valid systems, so the
constructor trusts its caller; a system file is validated once, in
``FiniteSystem.from_json`` (an embedding checks its metric's values only
after its size cap).  Marker search decides every system in one pass
over its cycles: a "found" subset is re-checked by an independent verifier,
which returns only its verdict, and a "none" verdict names the cycle shorter
than N that proves it.  The module also builds the backward first-entrance
function of a marker, distance-coordinate embeddings of finite metric
systems, orbit maps into the distance-one adjacent-step space and gap
subshifts, one periodic point per cycle whose equivariance the cycle walk
decides, clock extensions that divide time by n, and the exhaustive two-way
marker transfer check between a system and its clock extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from itertools import product as iter_product
from math import comb, lcm
from operator import itemgetter, sub
from typing import Sequence

from .shiftspace import (
    Periodic,
    SubshiftSpec,
    check_membership,
    gap_space,
    unit_step_space,
)
from .torus import (
    TorusSeq,
    _shown,
    frac_from_str,
)

# Largest marker count ``enumerate_markers`` lists or the marker transfer
# decides, checked before any marker is built: `markers transfer --system
# cycles:25 --n 1 --N 2`, whose 25-cycle has 167,760 2-markers, takes 0.43 s
# per process and 35 MB peak RSS (Python 3.11.7, 2-CPU x86-64 VM).  The
# transfer walks only each base cycle's own parts, but one cycle can hold
# them all: a 600-cycle has 2^600 - 1 1-markers.
MAX_MARKERS = 200_000
# Largest system an embedding takes, checked before its metric is built.  The
# metric has n^2 entries, the centers take up to n^2/2 tests and the images
# up to n^2 coordinates; the orbit map builds one periodic point per cycle:
# `embed --system cycles:n --metric random:1 --epsilon 1/10` takes 0.014 s in
# process at 200 points and 0.03 s at 300 (Python 3.11.7, 2-CPU x86-64 VM).
MAX_EMBED_POINTS = 200
# Largest clock extension, n*|X| points, a marker transfer builds, checked
# before ``time_division``: at 10,000 points `markers transfer --system
# cycles:10000 --n 1 --N 10000` takes 0.07 s in process, and with the cap
# raised to 30,000, `--n 3` takes 0.12 s (same VM); N adds no cost, as
# ``_part_ok`` reads one part's positions.
MAX_TRANSFER_POINTS = 10_000
# Largest system a marker search takes, checked before any point of a
# shorthand is built: `markers search --system cycles:1000000 --N 2` answers
# in 0.7 s per process, where cycles:20000000 ran out of memory (same VM).
MAX_SEARCH_POINTS = 1_000_000
# Largest common denominator of a metric's values, checked before any value is
# lifted to it: `embed` on 200 points at the cap takes 2.1 s in process, where 140
# points with a distinct prime above 1,000 per pair took 25 s (Python 3.11.7,
# 2-CPU x86-64 VM).
MAX_METRIC_DENOMINATOR = 2**64

# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class Metric:
    """An exact metric table on points 0 .. n-1, held as integer numerators
    over one denominator: the distance from i to j is ``nums[i][j] / den``.
    Stored unchecked, as a system is; ``_validate_metric`` checks the axioms."""

    nums: tuple[tuple[int, ...], ...]
    den: int

    @classmethod
    def of(cls, rows) -> "Metric":
        """A table of rationals over the lcm of their denominators, which is
        refused over ``MAX_METRIC_DENOMINATOR`` before any value is lifted."""
        den = 1
        for d in {d.denominator for row in rows for d in row}:
            den = lcm(den, d)
            if den > MAX_METRIC_DENOMINATOR:
                cap = MAX_METRIC_DENOMINATOR
                raise ValueError(f"the metric's values have a common denominator over the cap of {cap}")
        return cls(tuple(tuple(d.numerator * (den // d.denominator) for d in row) for row in rows), den)


@dataclass(frozen=True)
class FiniteSystem:
    """A permutation of named points, with an optional exact metric table,
    all stored unchecked."""

    points: tuple
    perm: tuple[int, ...]
    metric: Metric | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def from_cycle_lengths(cls, lengths: list[int]) -> "FiniteSystem":
        """Disjoint cycles of the given lengths; points named c<i>n<j>."""
        points = []
        perm = []
        offset = 0
        for ci, length in enumerate(lengths):
            if length < 1:
                raise ValueError("cycle lengths must be >= 1")
            points.extend(f"c{ci}n{j}" for j in range(length))
            perm.extend(offset + (j + 1) % length for j in range(length))
            offset += length
        return cls(tuple(points), tuple(perm))

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, computed once (see ``permutation_cycles``)."""
        return permutation_cycles(self.perm)

    def has_fixed_points(self) -> bool:
        return any(self.perm[i] == i for i in range(self.size))

    @classmethod
    def from_json(cls, data) -> "FiniteSystem":
        """A system with a bijective perm and, if it carries one, a metric of
        the right shape over a common denominator within the cap;
        ``_validate_metric`` checks the metric's values, for the one command
        that reads them."""
        if not isinstance(data, dict):
            raise ValueError("system JSON must be an object")
        for key in ("points", "perm"):
            if key not in data:
                raise ValueError(f"system JSON lacks the required key {key!r}")
        points, perm = data["points"], data["perm"]
        # type(), not isinstance(): JSON true and false are Python ints too
        if not (
            isinstance(points, list)
            and isinstance(perm, list)
            and all(type(i) is int for i in perm)
        ):
            raise ValueError(
                'system JSON needs a "points" list and a "perm" list of point indices'
            )
        metric = None if data.get("metric") is None else metric_from_json(data["metric"])
        if sorted(perm) != list(range(len(points))):
            raise ValueError("perm must be a bijection of the points")
        if metric is not None:
            _check_metric_shape(metric.nums, len(points))
        return cls(tuple(points), tuple(perm), metric)


def permutation_cycles(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a permutation of 0..n-1, ordered by their smallest
    index, each one starting there and following the permutation."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycle = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        out.append(tuple(cycle))
    return tuple(out)


def metric_from_json(rows) -> Metric:
    """A metric table from JSON: a list of rows of rationals such as "1/4",
    lifted by ``Metric.of``.  Each distinct string is parsed once per table."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("metric JSON must be a list of rows of rationals")
    parsed: dict[str, Fraction] = {}

    def parse(d) -> Fraction:
        if type(d) is str:  # not JSON true, which hashes like 1, nor a list
            if d not in parsed:
                parsed[d] = frac_from_str(d)
            return parsed[d]
        return frac_from_str(d)

    return Metric.of(tuple(tuple(map(parse, row)) for row in rows))


def _check_metric_shape(metric, n: int) -> None:
    if len(metric) != n or any(len(row) != n for row in metric):
        raise ValueError(f"metric table must be {n} by {n}: one row and column per point")


def _validate_metric(metric: Metric, n: int) -> None:
    """Refuse a table that is not a metric on n points, naming the first
    fault of a scan of i, then j, then k.  The values are compared as the
    table holds them, integer numerators over one common denominator, so the
    triangle inequality for (i, j) and every k is one max of row differences:
    a 200-point file is checked in 0.9 s per process, where a Fraction sum
    per triple took 25 s (Python 3.11.7, 2-CPU x86-64 VM)."""
    rows = metric.nums
    _check_metric_shape(rows, n)
    for i, row_i in enumerate(rows):
        if row_i[i] != 0:
            raise ValueError("metric diagonal must be zero")
        for j, row_j in enumerate(rows):
            d_ij = row_i[j]
            if d_ij != row_j[i]:
                raise ValueError("metric must be symmetric")
            if d_ij < 0:
                raise ValueError("metric must be nonnegative")
            if max(map(sub, row_i, row_j)) > d_ij:
                raise ValueError("metric violates the triangle inequality")


# ---------------------------------------------------------------------------
# Clock extension (1/n-time system)


def time_division(sys_: FiniteSystem, n: int) -> FiniteSystem:
    """The clock extension on points (x, k): step the clock, apply the map
    once per n steps.  Point (x, k) maps to index x*n + k; every cycle length
    is multiplied by exactly n."""
    if n < 1:
        raise ValueError("time division requires n >= 1")
    points = tuple(
        f"{sys_.points[i]}:{k}" for i in range(sys_.size) for k in range(n)
    )
    perm = []
    for i in range(sys_.size):
        for k in range(n):
            if k < n - 1:
                perm.append(i * n + k + 1)
            else:
                perm.append(sys_.perm[i] * n)
    return FiniteSystem(points, tuple(perm))


# ---------------------------------------------------------------------------
# Markers


@dataclass(frozen=True)
class MarkerCertificate:
    """Search outcome: verdict "found" (with subset) or "none" (with the short cycle)."""

    n_marker: int
    subset: tuple[int, ...] | None
    verdict: str
    transcript: tuple[dict, ...] = ()

    @property
    def found(self) -> bool:
        return self.verdict == "found"

    def to_json(self, sys_: FiniteSystem) -> dict:
        out: dict = {
            "N": self.n_marker,
            "verdict": self.verdict,
            "subset": list(self.subset) if self.subset is not None else None,
            "transcript": list(self.transcript),
        }
        if self.subset is not None:
            out["subset_points"] = [sys_.points[i] for i in self.subset]
        return out


def verify_marker(sys_: FiniteSystem, subset, n_marker: int) -> bool:
    """Independent end-to-end check of the two marker conditions.

    Condition one: no point of U returns to U in fewer than N steps; the
    check stops at the first n with a return.  Condition two: the full
    orbit of U covers every point.
    """
    chosen = frozenset(subset)
    if any(returning for _, returning in _early_returns(sys_, sorted(chosen), n_marker)):
        return False
    return all(chosen.intersection(cycle) for cycle in sys_.cycles)


def _early_returns(sys_: FiniteSystem, points, n_marker: int):
    """For n = 1 .. N-1, the points of ``points`` whose n-th image lies in
    ``points``, in the given order.  The images advance one step per n, so
    the walk costs N steps per point."""
    starts = list(points)
    inside = frozenset(starts)
    images = starts
    for n in range(1, n_marker):
        images = [sys_.perm[j] for j in images]
        yield n, [i for i, j in zip(starts, images) if j in inside]


def _part_ok(length: int, positions: Sequence[int], n_marker: int) -> bool:
    """Whether the increasing positions of one L-cycle lie N or more apart,
    the wrap from last to first included: the marker rule on one cycle,
    whose parts ``_cycle_position_subsets`` lists."""
    return length - positions[-1] + positions[0] >= n_marker and all(
        b - a >= n_marker for a, b in zip(positions, positions[1:])
    )


def _cycle_position_subsets(length: int, n_marker: int) -> list[tuple[int, ...]]:
    """Nonempty position subsets of a cycle with all circular gaps >= N.

    Positions are chosen in increasing order; consecutive chosen positions
    must differ by at least N and the wrap-around gap must be at least N.
    """
    results: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int):
        # the wrap gap, length - (pos - chosen[0]), only shrinks as pos grows
        for pos in range(start, min(length, chosen[0] + length - n_marker + 1)):
            chosen.append(pos)
            results.append(tuple(chosen))
            extend(chosen, pos + n_marker)
            chosen.pop()

    # one position's wrap gap is the whole cycle
    for first in range(length if length >= n_marker else 0):
        results.append((first,))
        extend([first], first + n_marker)
    return results


def _cycle_position_subset_counts(length: int, n_marker: int):
    """How many subsets of each size k = 1, 2, ... _cycle_position_subsets
    returns, without building them: an L-cycle has L*C(L - k(N-1) - 1, k - 1)/k
    subsets of size k whose circular gaps are all >= N."""
    for k in range(1, length // n_marker + 1):
        yield length * comb(length - k * (n_marker - 1) - 1, k - 1) // k


def check_search_size(size: int) -> None:
    """Refuse a marker search on ``size`` points over ``MAX_SEARCH_POINTS``."""
    if size > MAX_SEARCH_POINTS:
        raise ValueError(f"markers search takes at most {MAX_SEARCH_POINTS} points, got {_shown(size)}")


def marker_search(sys_: FiniteSystem, n_marker: int) -> MarkerCertificate:
    """Find an N-marker subset, or prove that none exists.

    The marker conditions never couple distinct cycles, and one point of an
    L-cycle first returns to itself after L steps.  So a marker exists
    exactly when every cycle has length >= N, and then the first point of
    each cycle is one.  A cycle shorter than N is the certificate for
    "none"; a returned subset is re-checked by the independent verifier.
    """
    if n_marker < 1:
        raise ValueError("marker length must be >= 1")
    cycles = sys_.cycles
    for cycle in cycles:
        if len(cycle) < n_marker:
            return MarkerCertificate(
                n_marker,
                None,
                "none",
                (
                    {
                        "condition": (
                            f"exhausted all subsets of the {len(cycle)}-cycle at "
                            f"{sys_.points[cycle[0]]}: none is nonempty with all "
                            f"return times >= {n_marker}"
                        ),
                        "violations": [],
                    },
                ),
            )
    subset = tuple(cycle[0] for cycle in cycles)
    if not verify_marker(sys_, subset, n_marker):
        raise AssertionError("marker search returned a subset its verifier rejects")
    # the verifier passed: no early return at any n = 1..N-1, and no point uncovered
    transcript = [{"condition": "the orbit of U covers every point", "violations": []}]
    if n_marker > 1:
        condition = f"U and its n-step preimage are disjoint, n=1..{n_marker - 1}"
        transcript.insert(0, {"condition": condition, "violations": []})
    return MarkerCertificate(n_marker, subset, "found", tuple(transcript))


def enumerate_markers(sys_: FiniteSystem, n_marker: int) -> list[frozenset[int]]:
    """All valid N-marker subsets (exhaustive; intended for desk-scale systems).

    The markers are counted before any is built, so a count over
    ``MAX_MARKERS`` is refused at once.
    """
    if not _count_markers(sys_, n_marker):
        return []
    cycles = sys_.cycles
    combos = iter_product(*(_cycle_position_subsets(len(cycle), n_marker) for cycle in cycles))
    return [frozenset(c[k] for c, part in zip(cycles, combo) for k in part) for combo in combos]


def _count_markers(sys_: FiniteSystem, n_marker: int) -> int:
    """How many N-markers the system has: a marker is one part per cycle,
    chosen independently, so a cycle shorter than N makes the count 0.  A
    count over ``MAX_MARKERS`` is refused as soon as the running count
    passes it, since every other cycle has at least one part."""
    if any(len(cycle) < n_marker for cycle in sys_.cycles):
        return 0
    total = 1
    for cycle in sys_.cycles:
        parts = 0
        for count in _cycle_position_subset_counts(len(cycle), n_marker):
            parts += count
            if total * parts > MAX_MARKERS:
                raise ValueError(
                    f"more than {MAX_MARKERS} markers to enumerate; tighten the marker "
                    f"length or shrink the system"
                )
        total *= parts
    return total


# ---------------------------------------------------------------------------
# Backward first-entrance function of a marker


@dataclass(frozen=True)
class RokhlinReport:
    phi: tuple[int, ...]
    exceptional: tuple[int, ...]
    increment_ok: bool
    separation_ok: bool
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.increment_ok and self.separation_ok


def rokhlin_function(sys_: FiniteSystem, subset, n_marker: int) -> RokhlinReport:
    """Backward first-entrance time of a verified N-marker.

    phi(x) counts steps back to the most recent visit of U; off the
    exceptional set E = preimage of U it increases by exactly one along the
    dynamics, and E has no return to itself in fewer than N steps.
    """
    if not verify_marker(sys_, subset, n_marker):
        raise ValueError("subset is not a valid marker")
    chosen = frozenset(subset)
    # every cycle meets U, so one forward pass from a point of U fixes phi
    phi = [0] * sys_.size
    for cycle in sys_.cycles:
        start = next(k for k, i in enumerate(cycle) if i in chosen)
        steps = 0
        for i in cycle[start:] + cycle[:start]:
            steps = 0 if i in chosen else steps + 1
            phi[i] = steps
    exceptional = tuple(sorted(i for i in range(sys_.size) if sys_.perm[i] in chosen))
    exc = frozenset(exceptional)
    increment = [
        {"kind": "increment", "point": i}
        for i in range(sys_.size)
        if i not in exc and phi[sys_.perm[i]] != phi[i] + 1
    ]
    separation = [
        {"kind": "separation", "point": i, "steps": n}
        for n, returning in _early_returns(sys_, exc, n_marker)
        for i in returning
    ]
    return RokhlinReport(
        phi=tuple(phi),
        exceptional=exceptional,
        increment_ok=not increment,
        separation_ok=not separation,
        failures=tuple(increment + separation),
    )


# ---------------------------------------------------------------------------
# Map into the distance-one adjacent-step space


@dataclass(frozen=True)
class UnitStepMapReport:
    sequences: tuple[Periodic, ...]
    membership_ok: bool
    equivariance_ok: bool

    @property
    def passed(self) -> bool:
        return self.membership_ok and self.equivariance_ok


def map_to_unit_step_space(sys_: FiniteSystem, n_marker: int = 2) -> UnitStepMapReport:
    """Send each point to the circle-reduced orbit of its first-entrance time.

    Needs a fixed-point-free system (an N-marker with N >= 2 must exist).
    Off the exceptional set the time increases by one, and one mod 2 is the
    antipode: one of any two adjacent steps of the output moves distance
    exactly 1, so every output sequence lies in the distance-one
    adjacent-step space.  The map intertwines the dynamics with the shift.
    """
    if n_marker < 2:
        raise ValueError("marker length must be >= 2")
    cert = marker_search(sys_, n_marker)
    if not cert.found:
        raise ValueError(
            "no marker of the requested length: the system has a cycle shorter "
            f"than {n_marker}"
        )
    images = TorusSeq((rokhlin_function(sys_, cert.subset, n_marker).phi,), 1)
    return UnitStepMapReport(*_orbit_map(sys_, images, unit_step_space()))


def _orbit_map(
    sys_: FiniteSystem, images: TorusSeq, space: SubshiftSpec | None
) -> tuple[tuple[Periodic, ...], bool, bool]:
    """The orbit map, for entry i of ``images`` the image of point i: one
    periodic point per cycle, in ``sys_.cycles`` order, the images read from
    the cycle's first point, so point k stands for the k-th shift; whether
    each lies in ``space`` (never when there is none), checked at every
    residue so its shifts share the verdict; and whether the map intertwines
    the dynamics with the shift, which holds when T steps every cycle's
    point k to point k + 1: entry n is then the image of T^n."""
    cycles = sys_.cycles
    orbits = tuple(Periodic(images.take(cycle)) for cycle in cycles)
    membership_ok = space is not None and all(
        check_membership(space, orbit).passed for orbit in orbits
    )
    equivariance_ok = all(
        sys_.perm[i] == j for cycle in cycles for i, j in zip(cycle, cycle[1:] + cycle[:1])
    )
    return orbits, membership_ok, equivariance_ok


# ---------------------------------------------------------------------------
# Distance-coordinate embeddings


@dataclass(frozen=True)
class EmbeddingReport:
    """Centers and the image of each point, ``coords[i]`` over ``den``: its
    distances to the centers, rescaled."""

    centers: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    den: int
    scale: Fraction
    epsilon: Fraction
    collision_ok: bool

    @property
    def n_coords(self) -> int:
        return len(self.centers)


def check_embed_size(size: int) -> None:
    """Refuse an embedding of ``size`` points over ``MAX_EMBED_POINTS``."""
    if size > MAX_EMBED_POINTS:
        raise ValueError(
            f"embed takes at most {MAX_EMBED_POINTS} points, got {_shown(size)}: "
            "its metric and pair checks grow with the square of the size"
        )


def epsilon_embedding(sys_: FiniteSystem, epsilon: Fraction) -> EmbeddingReport:
    """Map the points of a metric system into a torus power by distance coordinates.

    Centers are chosen greedily so every point is within epsilon/2 of one;
    the image of x lists its distances to the centers.  If the diameter
    exceeds 1/4 the metric (and epsilon with it) is rescaled first and the
    factor recorded.  The report checks exhaustively that no pair at
    distance >= epsilon shares an image.  The system's metric is trusted:
    input metrics are validated where they are read.

    The metric's integer numerators are used as they are, and a rescale
    only changes their denominator.  So the diameter, the center tests, the
    image coordinates and the pair tests are integer arithmetic; ``Fraction``
    appears only in the reported scale and epsilon.  A far pair collides
    exactly when its coordinates are equal, so only the pairs within a group
    of equal images are tested.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sys_.metric is None:
        raise ValueError("metric required")
    # the distance from i to j is nums[i][j] / den, before and after a rescale
    nums, den = sys_.metric.nums, sys_.metric.den
    diam = max(map(max, nums), default=0)
    scale = Fraction(1)
    if 4 * diam > den:
        scale = Fraction(den, 4 * diam)
        den = 4 * diam
    eps = epsilon * scale
    # d < eps/2 iff num <= near; d >= eps iff num >= far
    bound, eps_den = eps.numerator * den, eps.denominator
    near, far = (bound - 1) // (2 * eps_den), -(-bound // eps_den)
    centers: list[int] = []
    for i, row in enumerate(nums):
        if not any(map(near.__ge__, map(row.__getitem__, centers))):
            centers.append(i)
    if len(centers) > 1:
        coords = tuple(map(itemgetter(*centers), nums))
    else:  # itemgetter of one index gives the entry, not a 1-tuple
        coords = tuple((row[c],) for row in nums for c in centers)
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, image in enumerate(coords):
        groups.setdefault(image, []).append(i)
    collision_ok = not any(
        nums[i][j] >= far
        for group in groups.values()
        for i, j in combinations(group, 2)
    )
    return EmbeddingReport(
        centers=tuple(centers),
        coords=coords,
        den=den,
        scale=scale,
        epsilon=eps,
        collision_ok=collision_ok,
    )


@dataclass(frozen=True)
class UniversalEmbeddingReport:
    embedding: EmbeddingReport
    delta: Fraction
    sequences: tuple[Periodic, ...]
    membership_ok: bool
    equivariance_ok: bool


def embed_into_universal(sys_: FiniteSystem, epsilon: Fraction) -> UniversalEmbeddingReport:
    """Unroll a distance-coordinate embedding along orbits into the gap-1 space.

    Requires a fixed-point-free metric system and epsilon below the minimal
    displacement min d(x, Tx).  The realized threshold delta is the smallest
    image distance between a point and its successor; every output sequence
    satisfies the gap-1 constraint at threshold delta, exactly.  Every step
    reads the embedding's integer coordinates: an image coordinate lies in
    [0, den/4], so the circle distance of two images is their largest
    coordinate difference, and the orbits are integer columns.
    """
    if sys_.metric is None:
        raise ValueError("metric required")
    if sys_.has_fixed_points():
        raise ValueError("system must be fixed-point free")
    epsilon = Fraction(epsilon)
    nums, perm = sys_.metric.nums, sys_.perm
    min_move = min(nums[i][j] for i, j in enumerate(perm))
    if epsilon.numerator * sys_.metric.den >= min_move * epsilon.denominator:
        raise ValueError(
            "epsilon must be smaller than the minimal displacement min d(x, Tx)"
        )
    emb = epsilon_embedding(sys_, epsilon)
    coords = emb.coords
    steps = (max(map(abs, map(sub, coords[i], coords[j]))) for i, j in enumerate(perm))
    delta = Fraction(min(steps), emb.den)
    space = gap_space(emb.n_coords, 1, delta) if delta > 0 else None
    images = TorusSeq(tuple(zip(*coords)), emb.den)
    return UniversalEmbeddingReport(emb, delta, *_orbit_map(sys_, images, space))


# ---------------------------------------------------------------------------
# Marker transfer between a system and its clock extension


def check_transfer_size(size: int, n: int) -> None:
    """Refuse a 1/n-time extension of ``size`` points over ``MAX_TRANSFER_POINTS``."""
    if n * size > MAX_TRANSFER_POINTS:
        raise ValueError(
            f"the 1/{_shown(n)}-time extension of {_shown(size)} points has {_shown(n * size)} points, "
            f"over the cap of {MAX_TRANSFER_POINTS} on a marker transfer"
        )


def verify_marker_transfer(sys_: FiniteSystem, n: int, n_marker: int) -> tuple[dict, dict]:
    """Exhaustively verify both directions of the marker transfer, as the
    records ``(forward, backward)``.

    Forward: an N-marker of the base, placed at phase 0, is an nN-marker of
    the clock extension.  Backward: every nN-marker W of the extension
    projects through the union of its first n clock images to an
    (N-1)-marker of the phase-0 power subsystem (identified with the base).
    When no marker exists on one side, the other side must be empty too; that
    consistency is what is checked.  The backward check decides each distinct
    projection of one cycle's marker parts once, on its own base cycle, never
    building the markers' product, and refuses a marker count over
    ``MAX_MARKERS`` before any part is built.

    Those projections are exactly the base cycle's own N-parts, so the check
    walks those and never lists an extension part.  Extension cycle c is base
    cycle c of length L opened out to nL positions, and its position j
    projects to q = ceil(j/n) mod L, so block q holds the positions
    n(q-1)+1 .. nq, and block 0 holds position 0 and the last n - 1.
    Before the reduction mod L, the values ceil(j/n) of an nN-part's
    positions rise by at least N from each position to the next, as
    ceil(j'/n) - ceil(j/n) >= floor((j' - j)/n) and j' - j >= nN, and by at
    least N again around the wrap, from the last value to the first plus L.
    So they are values on a circle of length L that lie N or more apart all
    round: they stay distinct mod L, and the projection is an N-part.
    Conversely, an N-part Q is the projection of {nq : q in Q}:
    taking every position at the same offset in its block keeps every gap,
    the wrap included, at n times the gap of Q.  A failing Q is recorded
    with the first part, in the walk of the extension cycle's parts, that
    projects onto it: the greedy part, whose position for q is the first of
    block q (0 for q = 0) or the previous position plus nN, whichever is
    larger.  Each greedy position lies within its block, as q minus the
    previous q is at least N, and its offset in its block never grows along
    Q, so the wrap gap holds too.  Greedy parts are ordered as their Q are,
    so the records come in the order the extension walk would give them.
    """
    if n < 1 or n_marker < 1:
        raise ValueError("transfer requires n >= 1 and N >= 1")
    check_transfer_size(sys_.size, n)
    divided = time_division(sys_, n)
    base_cert = marker_search(sys_, n_marker)
    if base_cert.found:
        lifted = tuple(sorted(i * n for i in base_cert.subset))
        forward = {
            "ok": verify_marker(divided, lifted, n * n_marker),
            "detail": (
                f"lifted a base {n_marker}-marker of size {len(base_cert.subset)} to "
                f"phase 0 and verified it as a {n * n_marker}-marker of the extension"
            ),
        }
    else:
        divided_cert = marker_search(divided, n * n_marker)
        forward = {
            "ok": not divided_cert.found,
            "detail": (
                f"no base {n_marker}-marker exists; consistently, the extension has "
                f"no {n * n_marker}-marker either"
                if not divided_cert.found
                else "base has no marker but the extension does: transfer violated"
            ),
        }
    total = _count_markers(divided, n * n_marker)
    if total:
        # time_division puts base point x at x*n and cycles are ordered by
        # their smallest index, so extension cycle c is base cycle c opened
        # out: the first n clock images of its position j meet phase 0 once,
        # at position ceil(j/n) mod L of base cycle c
        threshold = max(n_marker - 1, 1)
        bad = [
            {
                "marker": sorted(cycle[j] for j in _first_lift(projected, n, n_marker)),
                "projected": sorted(base[k] for k in projected),
            }
            for base, cycle in zip(sys_.cycles, divided.cycles)
            for projected in _cycle_position_subsets(len(base), n_marker)
            if not _part_ok(len(base), projected, threshold)
        ]
        backward = {
            "ok": not bad,
            "detail": (
                f"all {total} {n * n_marker}-markers of the extension project "
                f"to ({threshold})-markers of the phase-0 power subsystem"
                if not bad
                else "some extension marker fails to project"
            ),
            "violations": bad,
        }
    else:
        backward = {
            "ok": not base_cert.found,
            "detail": (
                f"the extension has no {n * n_marker}-marker; consistently, the base "
                f"has no {n_marker}-marker either"
                if not base_cert.found
                else "extension has no marker but the base does: transfer violated"
            ),
        }
    return forward, backward


def _first_lift(projected: Sequence[int], n: int, n_marker: int) -> list[int]:
    """The first nN-part, in the walk of the extension cycle's parts, whose
    positions project onto the base N-part ``projected``: each position the
    first of its block, or nN past the previous one if that is later (see
    ``verify_marker_transfer``)."""
    positions: list[int] = []
    for q in projected:
        j = 0 if q == 0 else n * (q - 1) + 1
        positions.append(max(j, positions[-1] + n * n_marker) if positions else j)
    return positions


# ---------------------------------------------------------------------------
# Random metrics


# rng.randint(32, 64) is 32 plus the top 6 bits of one 32-bit word of the
# generator, the word redrawn while they are 33 or more: the top byte b of a
# word gives 32 + (b >> 2), and is redrawn when b >= 132
_METRIC_DRAW = bytes(32 + (b >> 2) for b in range(256))
_METRIC_REDRAWN = bytes(range(132, 256))


def random_metric(rng: random.Random, size: int) -> Metric:
    """A random exact metric with values in [1/8, 1/4] off the diagonal.

    Any symmetric table with a zero diagonal and off-diagonal values in
    [t, 2t] satisfies the triangle inequality: d(i, k) <= 2t <= d(i, j) +
    d(j, k) for distinct points, and the other cases have a zero term.  So
    the table needs no repair step and no check.  Each value is k/256 for
    one draw k = ``rng.randint(32, 64)``, pair by pair along the rows of the
    upper triangle.  The draws are read as ``randint`` reads them, one word
    of ``rng.getrandbits(32)`` per try, but in rounds: a round that still
    needs r values reads the next r words at once and keeps the top bytes
    that ``_METRIC_DRAW`` does not redraw.  Each value takes at least one
    word, so a round never reads past the word of the last value, and
    ``rng`` ends in the state the draws one by one leave it in.
    """
    drawn = bytearray()
    need = size * (size - 1) // 2
    while len(drawn) < need:
        words = need - len(drawn)
        tops = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        drawn += tops.translate(_METRIC_DRAW, _METRIC_REDRAWN)
    rows: list[tuple[int, ...]] = []
    start = 0
    for i in range(size):
        stop = start + size - 1 - i
        # entry j < i is entry i of row j, drawn as pair (j, i)
        rows.append((*(row[i] for row in rows), 0, *drawn[start:stop]))
        start = stop
    return Metric(tuple(rows), 256)
