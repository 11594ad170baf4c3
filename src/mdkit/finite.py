"""Finite permutation dynamics: markers, tower functions, embeddings.

A finite system is a bijection of a finite point set, optionally carrying an
exact rational metric.  The builders here make valid systems, so the
constructor trusts its caller; a system file is validated once, in
``FiniteSystem.from_json``.  Marker search decides every system in one pass
over its cycles: a "found" subset is re-checked by an independent verifier,
and a "none" verdict names the cycle shorter than N that proves it.  The
module also builds the backward first-entrance function of a marker, the
induced sequences in the distance-one adjacent-step space,
distance-preserving embeddings of finite metric systems into gap
subshifts, clock extensions that divide time by n, and the exhaustive
two-way marker transfer check between a system and its clock extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import product as iter_product
from math import comb, lcm
from typing import Sequence

from .shiftspace import (
    Periodic,
    SubshiftSpec,
    check_membership,
    gap_space,
    shift,
    unit_step_space,
)
from .torus import (
    TorusSeq,
    TorusVec,
    dist_at_least,
    frac_from_str,
    frac_to_str,
    max_circle_dist,
)

# Largest marker count ``enumerate_markers`` lists or the marker transfer
# decides, checked before any marker is built: listing the 167,760 2-markers
# of a 25-cycle takes 0.9 s and 150 MB peak RSS (Python 3.11.7, 2-CPU x86-64
# VM).  The transfer walks only each cycle's own subsets, but one cycle can
# hold them all: a 600-cycle has 2^600 - 1 1-markers.
MAX_MARKERS = 200_000

# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class FiniteSystem:
    """A permutation of named points, with an optional exact metric table,
    all tuples and stored unchecked."""

    points: tuple
    perm: tuple[int, ...]
    metric: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def from_cycle_lengths(
        cls, lengths: list[int], metric=None
    ) -> "FiniteSystem":
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
        return cls(tuple(points), tuple(perm), metric)

    def apply(self, i: int, power: int = 1) -> int:
        if power < 0:
            raise ValueError("power must be >= 0")
        for _ in range(power):
            i = self.perm[i]
        return i

    @cached_property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, computed once (see ``permutation_cycles``)."""
        return permutation_cycles(self.perm)

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self.cycles]

    def min_cycle_length(self) -> int:
        return min(self.cycle_lengths())

    def has_fixed_points(self) -> bool:
        return any(self.perm[i] == i for i in range(self.size))

    def dist(self, i: int, j: int) -> Fraction:
        if self.metric is None:
            raise ValueError("metric required")
        return self.metric[i][j]

    def to_json(self) -> dict:
        out: dict = {"points": list(self.points), "perm": list(self.perm)}
        if self.metric is not None:
            out["metric"] = [[frac_to_str(d) for d in row] for row in self.metric]
        return out

    @classmethod
    def from_json(cls, data, keep_metric: bool = True) -> "FiniteSystem":
        """A validated system.  With ``keep_metric`` false the caller supplies
        another metric, so the file's metric is only shape-checked, then
        dropped."""
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
        if metric is not None and not keep_metric:
            _check_metric_shape(metric, len(points))
            metric = None
        if metric is not None:
            _validate_metric(metric, len(points))
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


def metric_from_json(rows) -> tuple[tuple[Fraction, ...], ...]:
    """A metric table from JSON: a list of rows of rationals such as "1/4"."""
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("metric JSON must be a list of rows of rationals")
    return tuple(tuple(frac_from_str(d) for d in row) for row in rows)


def _check_metric_shape(metric, n: int) -> None:
    if len(metric) != n or any(len(row) != n for row in metric):
        raise ValueError(f"metric table must be {n} by {n}: one row and column per point")


def _validate_metric(metric, n: int) -> None:
    _check_metric_shape(metric, n)
    for i in range(n):
        if metric[i][i] != 0:
            raise ValueError("metric diagonal must be zero")
        for j in range(n):
            if metric[i][j] != metric[j][i]:
                raise ValueError("metric must be symmetric")
            if metric[i][j] < 0:
                raise ValueError("metric must be nonnegative")
            for k in range(n):
                if metric[i][k] > metric[i][j] + metric[j][k]:
                    raise ValueError("metric violates the triangle inequality")


def periodic_points(sys_: FiniteSystem, n: int) -> tuple[int, ...]:
    """Indices of points on cycles whose length divides n."""
    if n < 1:
        raise ValueError("period must be >= 1")
    out = []
    for cycle in sys_.cycles:
        if n % len(cycle) == 0:
            out.extend(cycle)
    return tuple(sorted(out))


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


def time_division_base_conjugacy(sys_: FiniteSystem, n: int) -> bool:
    """The phase-0 subsystem under the n-th power is conjugate to the base
    system via x -> (x, 0); checked structurally."""
    divided = time_division(sys_, n)
    for i in range(sys_.size):
        if divided.apply(i * n, n) != sys_.perm[i] * n:
            return False
    return True


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

    def to_json(self, sys_: FiniteSystem | None = None) -> dict:
        out: dict = {
            "N": self.n_marker,
            "verdict": self.verdict,
            "subset": list(self.subset) if self.subset is not None else None,
            "transcript": list(self.transcript),
        }
        if sys_ is not None and self.subset is not None:
            out["subset_points"] = [sys_.points[i] for i in self.subset]
        return out


def verify_marker(
    sys_: FiniteSystem, subset, n_marker: int
) -> tuple[bool, tuple[dict, ...]]:
    """Independent end-to-end check of the two marker conditions.

    Condition one: no point of U returns to U in fewer than N steps.
    Condition two: the full orbit of U covers every point.
    """
    chosen = frozenset(subset)
    transcript = []
    ok = True
    for n, violations in _early_returns(sys_, sorted(chosen), n_marker):
        transcript.append(
            {"condition": f"U and its n-step preimage are disjoint, n={n}", "violations": violations}
        )
        ok = ok and not violations
    uncovered = []
    for cycle in sys_.cycles:
        if not chosen.intersection(cycle):
            uncovered.extend(cycle)
    transcript.append(
        {"condition": "the orbit of U covers every point", "violations": sorted(uncovered)}
    )
    ok = ok and not uncovered
    return ok, tuple(transcript)


def _is_marker(sys_: FiniteSystem, subset, n_marker: int) -> bool:
    """The verdict of ``verify_marker`` alone, for callers that keep no
    transcript: no record is built, and the first violation ends the check."""
    chosen = frozenset(subset)
    perm = sys_.perm
    for i in chosen:
        for _ in range(1, n_marker):
            i = perm[i]
            if i in chosen:
                return False
    return all(not chosen.isdisjoint(cycle) for cycle in sys_.cycles)


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


def _count_cycle_position_subsets(length: int, n_marker: int) -> int:
    """How many subsets _cycle_position_subsets returns, without building them.

    An L-cycle has L*C(L - k(N-1) - 1, k - 1)/k subsets of size k whose
    circular gaps are all >= N.
    """
    total = 0
    for k in range(1, length // n_marker + 1):
        total += length * comb(length - k * (n_marker - 1) - 1, k - 1) // k
    return total


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
    ok, transcript = verify_marker(sys_, subset, n_marker)
    if not ok:
        raise AssertionError("marker search returned a subset its verifier rejects")
    return MarkerCertificate(n_marker, subset, "found", transcript)


def enumerate_markers(sys_: FiniteSystem, n_marker: int) -> list[frozenset[int]]:
    """All valid N-marker subsets (exhaustive; intended for desk-scale systems).

    The markers are counted before any is built, so a count over
    ``MAX_MARKERS`` is refused at once.
    """
    if not _count_markers(sys_, n_marker):
        return []
    per_cycle = [_cycle_parts(cycle, n_marker) for cycle in sys_.cycles]
    return [frozenset(i for part in combo for i in part) for combo in iter_product(*per_cycle)]


def _count_markers(sys_: FiniteSystem, n_marker: int) -> int:
    """How many N-markers the system has: a marker is one part per cycle,
    chosen independently.  A count over ``MAX_MARKERS`` is refused."""
    total = 1
    for cycle in sys_.cycles:
        total *= _count_cycle_position_subsets(len(cycle), n_marker)
    if total > MAX_MARKERS:
        raise ValueError(
            f"more than {MAX_MARKERS} markers to enumerate; tighten the marker "
            f"length or shrink the system"
        )
    return total


def _cycle_parts(cycle: tuple[int, ...], n_marker: int) -> list[tuple[int, ...]]:
    """The parts an N-marker can have in one cycle, as points of the cycle."""
    return [
        tuple(cycle[pos] for pos in positions)
        for positions in _cycle_position_subsets(len(cycle), n_marker)
    ]


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
    if not _is_marker(sys_, subset, n_marker):
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
    images = [TorusVec.of(t) for t in rokhlin_function(sys_, cert.subset, n_marker).phi]
    return UnitStepMapReport(*_orbit_map(sys_, images, unit_step_space()))


def _orbit_map(
    sys_: FiniteSystem, images: Sequence[TorusVec], space: SubshiftSpec | None
) -> tuple[tuple[Periodic, ...], bool, bool]:
    """Each point's orbit read through ``images``, one period long; whether
    every such sequence lies in ``space`` (never when there is none); and
    whether the map intertwines the dynamics with the shift.  Membership is
    checked on each cycle's first point alone: the others read shifts of
    that periodic point, which ``check_membership`` checks at every residue
    of the shift-invariant space, so they share its verdict.  Equivariance
    is still compared at every point."""
    unrolled: dict[int, Periodic] = {}
    bases = []
    for cycle in sys_.cycles:
        bases.append(Periodic(TorusSeq.of(images[j] for j in cycle)))
        for k, i in enumerate(cycle):
            unrolled[i] = shift(bases[-1], k)
    sequences = tuple(unrolled[i] for i in range(sys_.size))
    membership_ok = space is not None and all(
        check_membership(space, base).passed for base in bases
    )
    equivariance_ok = all(
        sequences[sys_.perm[i]] == shift(sequences[i], 1) for i in range(sys_.size)
    )
    return sequences, membership_ok, equivariance_ok


# ---------------------------------------------------------------------------
# Distance-coordinate embeddings


@dataclass(frozen=True)
class EmbeddingReport:
    centers: tuple[int, ...]
    images: tuple[TorusVec, ...]
    scale: Fraction
    epsilon: Fraction
    separation_gap: Fraction | None
    collision_ok: bool

    @property
    def n_coords(self) -> int:
        return len(self.centers)

    @property
    def passed(self) -> bool:
        return self.collision_ok and (
            self.separation_gap is None or self.separation_gap > 0
        )


def epsilon_embedding(sys_: FiniteSystem, epsilon: Fraction) -> EmbeddingReport:
    """Map the points of a metric system into a torus power by distance coordinates.

    Centers are chosen greedily so every point is within epsilon/2 of one;
    the image of x lists its distances to the centers.  If the diameter
    exceeds 1/4 the metric (and epsilon with it) is rescaled first and the
    factor recorded.  The report checks exhaustively that image collisions
    only happen below epsilon, and records the smallest image separation
    among pairs at distance >= epsilon.  The system's metric is trusted:
    input metrics are validated where they are read.

    The metric is lifted once to integer numerators over the lcm of its
    denominators, and a rescale only changes that denominator.  So the
    diameter, the center tests, the image coordinates and the pair tests
    are integer arithmetic; ``Fraction`` appears only in the reported scale,
    epsilon and separation gap.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if sys_.metric is None:
        raise ValueError("metric required")
    n, metric = sys_.size, sys_.metric
    den = lcm(*{d.denominator for row in metric for d in row})
    # the distance from i to j is nums[i][j] / den, before and after a rescale
    nums = [[d.numerator * (den // d.denominator) for d in row] for row in metric]
    diam = max(map(max, nums), default=0)
    scale = Fraction(1)
    if 4 * diam > den:
        scale = Fraction(den, 4 * diam)
        den = 4 * diam
    eps = epsilon * scale
    # d < eps/2 iff 2 * eps_den * num < bound; d >= eps iff eps_den * num >= bound
    bound, eps_den = eps.numerator * den, eps.denominator
    centers: list[int] = []
    for i in range(n):
        row = nums[i]
        if not any(2 * eps_den * row[c] < bound for c in centers):
            centers.append(i)
    images = tuple(TorusVec(tuple(row[c] for c in centers), den) for row in nums)
    collision_ok = True
    separation: Fraction | None = None
    for i in range(n):
        row = nums[i]
        for j in range(i + 1, n):
            if eps_den * row[j] >= bound:
                x, y = images[i], images[j]
                if x == y:
                    collision_ok = False
                # a Fraction is built only for a new smallest gap
                if separation is None or not dist_at_least(x, y, separation):
                    separation = max_circle_dist(x, y)
    return EmbeddingReport(
        centers=tuple(centers),
        images=images,
        scale=scale,
        epsilon=eps,
        separation_gap=separation,
        collision_ok=collision_ok,
    )


@dataclass(frozen=True)
class UniversalEmbeddingReport:
    embedding: EmbeddingReport
    delta: Fraction
    sequences: tuple[Periodic, ...]
    membership_ok: bool
    equivariance_ok: bool

    @property
    def n_coords(self) -> int:
        return self.embedding.n_coords

    @property
    def passed(self) -> bool:
        return (
            self.embedding.passed
            and self.delta > 0
            and self.membership_ok
            and self.equivariance_ok
        )


def embed_into_universal(sys_: FiniteSystem, epsilon: Fraction) -> UniversalEmbeddingReport:
    """Unroll a distance-coordinate embedding along orbits into the gap-1 space.

    Requires a fixed-point-free metric system and epsilon below the minimal
    displacement min d(x, Tx).  The realized threshold delta is the smallest
    image distance between a point and its successor; every output sequence
    satisfies the gap-1 constraint at threshold delta, exactly.
    """
    if sys_.metric is None:
        raise ValueError("metric required")
    if sys_.has_fixed_points():
        raise ValueError("system must be fixed-point free")
    epsilon = Fraction(epsilon)
    min_move = min(sys_.dist(i, sys_.perm[i]) for i in range(sys_.size))
    if epsilon >= min_move:
        raise ValueError(
            "epsilon must be smaller than the minimal displacement min d(x, Tx)"
        )
    emb = epsilon_embedding(sys_, epsilon)
    delta = min(
        max_circle_dist(emb.images[i], emb.images[sys_.perm[i]])
        for i in range(sys_.size)
    )
    space = gap_space(emb.n_coords, 1, delta) if delta > 0 else None
    return UniversalEmbeddingReport(emb, delta, *_orbit_map(sys_, emb.images, space))


# ---------------------------------------------------------------------------
# Marker transfer between a system and its clock extension


@dataclass(frozen=True)
class TransferReport:
    forward: dict
    backward: dict

    @property
    def passed(self) -> bool:
        return self.forward["ok"] and self.backward["ok"]


def verify_marker_transfer(sys_: FiniteSystem, n: int, n_marker: int) -> TransferReport:
    """Exhaustively verify both directions of the marker transfer.

    Forward: an N-marker of the base, placed at phase 0, is an nN-marker of
    the clock extension.  Backward: every nN-marker W of the extension
    projects through the union of its first n clock images to an
    (N-1)-marker of the phase-0 power subsystem (identified with the base).
    When no marker exists on one side, the other side must be empty too; that
    consistency is what is checked.  The backward check decides every
    extension marker one cycle at a time, never building their product, and
    refuses a marker count over ``MAX_MARKERS`` before any is built.
    """
    if n < 1 or n_marker < 1:
        raise ValueError("transfer requires n >= 1 and N >= 1")
    divided = time_division(sys_, n)
    base_cert = marker_search(sys_, n_marker)
    if base_cert.found:
        lifted = tuple(sorted(i * n for i in base_cert.subset))
        ok, transcript = verify_marker(divided, lifted, n * n_marker)
        forward = {
            "ok": ok,
            "detail": (
                f"lifted a base {n_marker}-marker of size {len(base_cert.subset)} to "
                f"phase 0 and verified it as a {n * n_marker}-marker of the extension"
            ),
            "transcript": list(transcript),
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
        # the first n clock images of point (x, k) meet phase 0 once: at x
        # itself when k = 0, else at the base image of x
        landing = [i // n if i % n == 0 else sys_.perm[i // n] for i in range(divided.size)]
        # landing maps divided cycle c into base cycle c, and the marker
        # conditions never couple distinct cycles, so a projection fails
        # exactly when the projection of one cycle's part fails.  Keep each
        # distinct per-cycle projection with the first part giving it, and
        # check it beside the first part of every other cycle.
        per_cycle = []
        for cycle in divided.cycles:
            parts: dict[tuple[int, ...], tuple[int, ...]] = {}
            for part in _cycle_parts(cycle, n * n_marker):
                parts.setdefault(tuple(sorted({landing[i] for i in part})), part)
            per_cycle.append(parts)
        firsts = [next(iter(parts.items())) for parts in per_cycle]
        bad = []
        for c, parts in enumerate(per_cycle):
            others = firsts[:c] + firsts[c + 1 :]
            others_projected = tuple(i for projected, _ in others for i in projected)
            others_marker = tuple(i for _, part in others for i in part)
            for projected, part in parts.items():
                base_subset = sorted(projected + others_projected)
                if not _is_marker(sys_, base_subset, max(n_marker - 1, 1)):
                    bad.append({"marker": sorted(part + others_marker), "projected": base_subset})
        backward = {
            "ok": not bad,
            "detail": (
                f"all {total} {n * n_marker}-markers of the extension project "
                f"to ({max(n_marker - 1, 1)})-markers of the phase-0 power subsystem"
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
    return TransferReport(forward=forward, backward=backward)


# ---------------------------------------------------------------------------
# Seeded random generators for test batteries


def random_system(
    rng: random.Random, max_points: int = 12, min_cycle: int = 1
) -> FiniteSystem:
    """A random disjoint union of cycles with at most max_points points."""
    total = rng.randint(min_cycle, max_points)
    lengths = []
    remaining = total
    while remaining >= min_cycle:
        length = rng.randint(min_cycle, remaining)
        lengths.append(length)
        remaining -= length
    return FiniteSystem.from_cycle_lengths(lengths)


@lru_cache(maxsize=8)
def _metric_values(denominator: int) -> tuple[Fraction, ...]:
    """The values ``random_metric`` draws from, k/(8*denominator) for k in
    [denominator, 2*denominator]."""
    return tuple(Fraction(k, 8 * denominator) for k in range(denominator, 2 * denominator + 1))


def random_metric(
    rng: random.Random, size: int, denominator: int = 32
) -> tuple[tuple[Fraction, ...], ...]:
    """A random exact metric with values in [1/8, 1/4] off the diagonal.

    Any symmetric table with a zero diagonal and off-diagonal values in
    [t, 2t] satisfies the triangle inequality: d(i, k) <= 2t <= d(i, j) +
    d(j, k) for distinct points, and the other cases have a zero term.  So
    the table needs no repair step and no check.  The denominator + 1
    possible values are built once per denominator and indexed by the draws.
    """
    values = _metric_values(denominator)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = values[rng.randint(denominator, 2 * denominator) - denominator]
            rows[i][j] = d
            rows[j][i] = d
    return tuple(tuple(row) for row in rows)
