"""Finite permutation dynamics: markers, tower functions, embeddings.

A finite system is a bijection of a finite point set, optionally carrying an
exact rational metric.  Marker search decides every system in one pass over
its cycles: a "found" subset is re-checked by an independent verifier, and a
"none" verdict names the cycle shorter than N that proves it.  The module
also builds the backward first-entrance function of a marker, the induced
sequences in the distance-one adjacent-step space, distance-preserving
embeddings of finite metric systems into gap subshifts, clock extensions
that divide time by n, and the exhaustive two-way marker transfer check
between a system and its clock extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from math import comb

from .shiftspace import (
    Periodic,
    check_membership,
    gap_space,
    shift,
    unit_step_space,
)
from .torus import TorusElem, TorusVec, frac_from_str, frac_to_str, max_circle_dist


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class FiniteSystem:
    """A permutation of named points, with an optional exact metric table."""

    points: tuple
    perm: tuple[int, ...]
    metric: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self) -> None:
        points = tuple(self.points)
        perm = tuple(self.perm)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "perm", perm)
        n = len(points)
        if sorted(perm) != list(range(n)):
            raise ValueError("perm must be a bijection of the points")
        if self.metric is not None:
            metric = tuple(tuple(Fraction(d) for d in row) for row in self.metric)
            object.__setattr__(self, "metric", metric)
            _validate_metric(metric)

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
        if power >= 0:
            for _ in range(power):
                i = self.perm[i]
            return i
        inv = self.inverse_perm()
        for _ in range(-power):
            i = inv[i]
        return i

    def inverse_perm(self) -> tuple[int, ...]:
        inv = [0] * self.size
        for i, j in enumerate(self.perm):
            inv[j] = i
        return tuple(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition; each cycle starts at its smallest index."""
        seen: set[int] = set()
        out = []
        for i in range(self.size):
            if i in seen:
                continue
            cycle = [i]
            seen.add(i)
            j = self.perm[i]
            while j != i:
                cycle.append(j)
                seen.add(j)
                j = self.perm[j]
            out.append(tuple(cycle))
        return out

    def cycle_lengths(self) -> list[int]:
        return [len(c) for c in self.cycles()]

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
    def from_json(cls, data: dict) -> "FiniteSystem":
        for key in ("points", "perm"):
            if key not in data:
                raise ValueError(f"system JSON lacks the required key {key!r}")
        metric = None
        if data.get("metric") is not None:
            metric = tuple(
                tuple(frac_from_str(d) for d in row) for row in data["metric"]
            )
        return cls(tuple(data["points"]), tuple(data["perm"]), metric)


def _validate_metric(metric) -> None:
    n = len(metric)
    for row in metric:
        if len(row) != n:
            raise ValueError("metric table must be square")
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
    for cycle in sys_.cycles():
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
    for n in range(1, n_marker):
        violations = sorted(i for i in chosen if sys_.apply(i, n) in chosen)
        transcript.append(
            {"condition": f"U and its n-step preimage are disjoint, n={n}", "violations": violations}
        )
        ok = ok and not violations
    uncovered = []
    for cycle in sys_.cycles():
        if not chosen.intersection(cycle):
            uncovered.extend(cycle)
    transcript.append(
        {"condition": "the orbit of U covers every point", "violations": sorted(uncovered)}
    )
    ok = ok and not uncovered
    return ok, tuple(transcript)


def _cycle_position_subsets(length: int, n_marker: int) -> list[tuple[int, ...]]:
    """Nonempty position subsets of a cycle with all circular gaps >= N.

    Positions are chosen in increasing order; consecutive chosen positions
    must differ by at least N and the wrap-around gap must be at least N.
    """
    results: list[tuple[int, ...]] = []

    def extend(chosen: list[int], next_pos: int):
        for pos in range(next_pos, length):
            if chosen and pos - chosen[-1] < n_marker:
                continue
            chosen.append(pos)
            # the wrap gap only shrinks as later positions are added
            if length - (chosen[-1] - chosen[0]) >= n_marker:
                results.append(tuple(chosen))
                extend(chosen, pos + 1)
            chosen.pop()

    extend([], 0)
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
    cycles = sys_.cycles()
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


def enumerate_markers(
    sys_: FiniteSystem, n_marker: int, cap: int = 200_000
) -> list[frozenset[int]]:
    """All valid N-marker subsets (exhaustive; intended for desk-scale systems).

    The markers are counted before any is built, so a count over the cap is
    refused at once.
    """
    cycles = sys_.cycles()
    total = 1
    for cycle in cycles:
        total *= _count_cycle_position_subsets(len(cycle), n_marker)
    if total == 0:
        return []
    if total > cap:
        raise ValueError(
            f"more than {cap} markers to enumerate; tighten the marker "
            f"length or shrink the system"
        )
    per_cycle = [
        [tuple(cycle[pos] for pos in s) for s in _cycle_position_subsets(len(cycle), n_marker)]
        for cycle in cycles
    ]
    return [frozenset(i for part in combo for i in part) for combo in iter_product(*per_cycle)]


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

    def to_json(self) -> dict:
        return {
            "phi": list(self.phi),
            "exceptional": list(self.exceptional),
            "increment_ok": self.increment_ok,
            "separation_ok": self.separation_ok,
            "failures": list(self.failures),
        }


def rokhlin_function(sys_: FiniteSystem, subset, n_marker: int) -> RokhlinReport:
    """Backward first-entrance time of a verified N-marker.

    phi(x) counts steps back to the most recent visit of U; off the
    exceptional set E = preimage of U it increases by exactly one along the
    dynamics, and E has no return to itself in fewer than N steps.
    """
    ok, _ = verify_marker(sys_, subset, n_marker)
    if not ok:
        raise ValueError("subset is not a valid marker")
    chosen = frozenset(subset)
    inv = sys_.inverse_perm()
    phi = []
    for i in range(sys_.size):
        steps = 0
        j = i
        while j not in chosen:
            j = inv[j]
            steps += 1
        phi.append(steps)
    exceptional = tuple(sorted(i for i in range(sys_.size) if sys_.perm[i] in chosen))
    failures: list[dict] = []
    for i in range(sys_.size):
        if i in exceptional:
            continue
        if phi[sys_.perm[i]] != phi[i] + 1:
            failures.append({"kind": "increment", "point": i})
    increment_ok = not any(f["kind"] == "increment" for f in failures)
    exc = frozenset(exceptional)
    for n in range(1, n_marker):
        for i in exc:
            if sys_.apply(i, n) in exc:
                failures.append({"kind": "separation", "point": i, "steps": n})
    separation_ok = not any(f["kind"] == "separation" for f in failures)
    return RokhlinReport(
        phi=tuple(phi),
        exceptional=exceptional,
        increment_ok=increment_ok,
        separation_ok=separation_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Map into the distance-one adjacent-step space


@dataclass(frozen=True)
class UnitStepMapReport:
    sequences: tuple[Periodic, ...]
    membership_ok: bool
    equivariance_ok: bool
    failures: tuple[dict, ...]

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
    rok = rokhlin_function(sys_, cert.subset, n_marker)
    space = unit_step_space()
    sequences = []
    failures: list[dict] = []
    for i in range(sys_.size):
        cycle_len = next(len(c) for c in sys_.cycles() if i in c)
        values = []
        j = i
        for _ in range(cycle_len):
            values.append(TorusVec((TorusElem(Fraction(rok.phi[j])),)))
            j = sys_.perm[j]
        sequences.append(Periodic(tuple(values)))
    for i, seq in enumerate(sequences):
        report = check_membership(space, seq)
        if not report.passed:
            failures.append({"kind": "membership", "point": i})
    for i in range(sys_.size):
        if sequences[sys_.perm[i]] != shift(sequences[i], 1):
            failures.append({"kind": "equivariance", "point": i})
    membership_ok = not any(f["kind"] == "membership" for f in failures)
    equivariance_ok = not any(f["kind"] == "equivariance" for f in failures)
    return UnitStepMapReport(
        sequences=tuple(sequences),
        membership_ok=membership_ok,
        equivariance_ok=equivariance_ok,
        failures=tuple(failures),
    )


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


def epsilon_embedding(
    points: tuple,
    metric: tuple[tuple[Fraction, ...], ...],
    epsilon: Fraction,
) -> EmbeddingReport:
    """Map a finite metric space into a torus power by distance coordinates.

    Centers are chosen greedily so every point is within epsilon/2 of one;
    the image of x lists its distances to the centers.  If the diameter
    exceeds 1/4 the metric (and epsilon with it) is rescaled first and the
    factor recorded.  The report checks exhaustively that image collisions
    only happen below epsilon, and records the smallest image separation
    among pairs at distance >= epsilon.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _validate_metric(metric)
    n = len(points)
    diam = max((metric[i][j] for i in range(n) for j in range(n)), default=Fraction(0))
    scale = Fraction(1)
    if diam > Fraction(1, 4):
        scale = Fraction(1, 4) / diam
    dist = [[metric[i][j] * scale for j in range(n)] for i in range(n)]
    eps = epsilon * scale
    centers: list[int] = []
    for i in range(n):
        if not any(dist[i][c] < eps / 2 for c in centers):
            centers.append(i)
    images = tuple(
        TorusVec(tuple(TorusElem(dist[i][c]) for c in centers)) for i in range(n)
    )
    collision_ok = True
    separation: Fraction | None = None
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] == images[j] and dist[i][j] >= eps:
                collision_ok = False
            if dist[i][j] >= eps:
                gap = max_circle_dist(images[i], images[j])
                separation = gap if separation is None else min(separation, gap)
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
    emb = epsilon_embedding(sys_.points, sys_.metric, epsilon)
    delta = min(
        max_circle_dist(emb.images[i], emb.images[sys_.perm[i]])
        for i in range(sys_.size)
    )
    sequences = []
    for i in range(sys_.size):
        cycle_len = next(len(c) for c in sys_.cycles() if i in c)
        values = []
        j = i
        for _ in range(cycle_len):
            values.append(emb.images[j])
            j = sys_.perm[j]
        sequences.append(Periodic(tuple(values)))
    space = gap_space(emb.n_coords, 1, delta) if delta > 0 else None
    membership_ok = space is not None and all(
        check_membership(space, seq).passed for seq in sequences
    )
    equivariance_ok = all(
        sequences[sys_.perm[i]] == shift(sequences[i], 1) for i in range(sys_.size)
    )
    return UniversalEmbeddingReport(
        embedding=emb,
        delta=delta,
        sequences=tuple(sequences),
        membership_ok=membership_ok,
        equivariance_ok=equivariance_ok,
    )


# ---------------------------------------------------------------------------
# Marker transfer between a system and its clock extension


@dataclass(frozen=True)
class TransferReport:
    n: int
    n_marker: int
    forward: dict
    backward: dict

    @property
    def passed(self) -> bool:
        return self.forward["ok"] and self.backward["ok"]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.n_marker,
            "passed": self.passed,
            "forward": self.forward,
            "backward": self.backward,
        }


def verify_marker_transfer(sys_: FiniteSystem, n: int, n_marker: int) -> TransferReport:
    """Exhaustively verify both directions of the marker transfer.

    Forward: an N-marker of the base, placed at phase 0, is an nN-marker of
    the clock extension.  Backward: every nN-marker W of the extension
    projects through the union of its first n clock images to an
    (N-1)-marker of the phase-0 power subsystem (identified with the base).
    When no marker exists on one side, the other side must be empty too; that
    consistency is what is checked.
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
    markers = enumerate_markers(divided, n * n_marker)
    if markers:
        bad = []
        for w in sorted(markers, key=sorted):
            pulled: set[int] = set()
            current = set(w)
            for _ in range(n):
                pulled.update(i for i in current if i % n == 0)
                current = {divided.perm[i] for i in current}
            base_subset = tuple(sorted(i // n for i in pulled))
            ok, _ = verify_marker(sys_, base_subset, max(n_marker - 1, 1))
            if not ok:
                bad.append({"marker": sorted(w), "projected": list(base_subset)})
        backward = {
            "ok": not bad,
            "detail": (
                f"all {len(markers)} {n * n_marker}-markers of the extension project "
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
    return TransferReport(n=n, n_marker=n_marker, forward=forward, backward=backward)


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


def random_metric(
    rng: random.Random, size: int, denominator: int = 32
) -> tuple[tuple[Fraction, ...], ...]:
    """A random exact metric with values in [1/8, 1/4] off the diagonal.

    Any symmetric table with off-diagonal values in [t, 2t] satisfies the
    triangle inequality, so this needs no repair step.
    """
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = Fraction(rng.randint(denominator, 2 * denominator), 8 * denominator)
            rows[i][j] = d
            rows[j][i] = d
    return tuple(tuple(row) for row in rows)
