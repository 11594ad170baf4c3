"""Finitely described points of torus-alphabet sequence spaces.

A sequence point is either a full periodic orbit (period plus one period of
values) or a finite window (start index plus consecutive values).  Either
holds its values as one :class:`~mdkit.torus.TorusSeq`, integer columns over
one denominator; shifts, dilations, unrolling, the gap and adjacent-step
membership checks and the samplers work on those columns, and a vector is
built only when a caller reads one (``value_at``, ``values``) or a binary
SFT reads its letters.  The samplers draw on the k/64 grid; their random
stream is defined as the ``randrange`` calls, in order, of drawing one
vector at a time with :func:`random_torus_vec`, so a seed gives the same
points whatever the representation.  :func:`~mdkit.torus.first_far`
reproduces those calls through ``getrandbits``, and the tests compare it,
generator end state included, with ``randrange`` oracles on every supported
Python.  Subshift
constraints are declarative: a minimum distance between entries a fixed gap
apart, a disjunction of distance conditions on the two adjacent steps, or a
binary subshift of finite type given by its forbidden words.  A membership
check reports the range of indices at which a constraint was checkable and
the indices at which it fails, and never conflates "nothing was checkable"
with "all checks passed".
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .torus import (
    TorusSeq,
    TorusVec,
    concat,
    first_far,
    gap_distances,
    gap_failures,
)

# ---------------------------------------------------------------------------
# Sequence points


@dataclass(frozen=True)
class Periodic:
    """A periodic point: ``seq`` is one full period, indexed mod period."""

    seq: TorusSeq

    def __post_init__(self) -> None:
        if not len(self.seq):
            raise ValueError("a periodic point needs period >= 1")

    @property
    def values(self) -> tuple[TorusVec, ...]:
        """One period as vectors, built on each read."""
        return tuple(self.seq)

    @property
    def period(self) -> int:
        return len(self.seq)

    @property
    def dim(self) -> int:
        return self.seq.dim

    def value_at(self, n: int) -> TorusVec:
        return self.seq[n % len(self.seq)]


@dataclass(frozen=True)
class Window:
    """A finite stretch of a sequence: entries at ``start .. start+len-1``."""

    start: int
    seq: TorusSeq

    def __post_init__(self) -> None:
        if not len(self.seq):
            raise ValueError("a window needs at least one value")

    @property
    def values(self) -> tuple[TorusVec, ...]:
        """The entries as vectors, built on each read."""
        return tuple(self.seq)

    @property
    def end(self) -> int:
        """Last defined index (inclusive)."""
        return self.start + len(self.seq) - 1

    @property
    def dim(self) -> int:
        return self.seq.dim

    def value_at(self, n: int) -> TorusVec:
        if not self.start <= n <= self.end:
            raise IndexError(f"index {n} outside window [{self.start}, {self.end}]")
        return self.seq[n - self.start]


SeqPoint = Union[Periodic, Window]


def shift(x: SeqPoint, k: int) -> SeqPoint:
    """The k-fold shift: the new value at n is the old value at n + k."""
    if isinstance(x, Periodic):
        p = x.period
        return Periodic(x.seq.take([(i + k) % p for i in range(p)]))
    return Window(x.start - k, x.seq)


def unroll(x: Periodic, lo: int, hi: int) -> Window:
    """Materialize a periodic point as a window on [lo, hi] (inclusive)."""
    if hi < lo:
        raise ValueError("unroll needs lo <= hi")
    p = x.period
    return Window(lo, x.seq.take([n % p for n in range(lo, hi + 1)]))


def power_map(j: int, x: Periodic) -> Periodic:
    """Index-dilation on periodic points: the new value at i is x at i*j."""
    if not isinstance(x, Periodic):
        raise ValueError("power map requires a periodic point")
    p = x.period
    return Periodic(x.seq.take([(i * j) % p for i in range(p)]))


def seq_to_json(x: SeqPoint) -> dict:
    if isinstance(x, Periodic):
        return {
            "kind": "periodic",
            "period": x.period,
            "values": [v.to_json() for v in x.values],
        }
    return {
        "kind": "window",
        "start": x.start,
        "values": [v.to_json() for v in x.values],
    }


# ---------------------------------------------------------------------------
# Subshift constraints


@dataclass(frozen=True)
class GapAtLeast:
    """Entries a fixed gap apart must be at distance >= threshold."""

    gap: int
    threshold: Fraction
    dim: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("alphabet dimension must be positive")
        if self.gap < 1:
            raise ValueError("gap must be >= 1")
        t = Fraction(self.threshold)
        if not 0 < t <= 1:
            raise ValueError("threshold must lie in (0, 1]")
        object.__setattr__(self, "threshold", t)


@dataclass(frozen=True)
class EitherOrAtLeast:
    """At each n, one of the two adjacent steps has distance >= threshold."""

    threshold: Fraction
    dim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", Fraction(self.threshold))


@dataclass(frozen=True)
class EitherOrEquals:
    """At each n, one of the two adjacent steps has distance exactly value."""

    value: Fraction
    dim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class BinarySFT:
    """Binary subshift of finite type: letters 0/1, forbidden equal-length words."""

    forbidden: frozenset[str]
    dim: int = 1

    def __post_init__(self) -> None:
        words = frozenset(self.forbidden)
        if not words:
            raise ValueError("at least one forbidden word is required")
        lengths = {len(w) for w in words}
        if len(lengths) != 1:
            raise ValueError("forbidden words must all have equal length")
        if min(lengths) < 2:
            raise ValueError("forbidden words must have length >= 2")
        for w in words:
            if set(w) - {"0", "1"}:
                raise ValueError(f"forbidden word {w!r} is not binary")
        object.__setattr__(self, "forbidden", words)

    @property
    def word_length(self) -> int:
        return len(next(iter(self.forbidden)))


SubshiftSpec = Union[GapAtLeast, EitherOrAtLeast, EitherOrEquals, BinarySFT]


def gap_space(dim: int, gap: int, threshold: Fraction) -> GapAtLeast:
    """The subshift demanding distance >= threshold between entries gap apart."""
    return GapAtLeast(gap=gap, threshold=Fraction(threshold), dim=dim)


def half_step_space() -> EitherOrAtLeast:
    """Adjacent-step space: one of the two neighbouring steps moves >= 1/2."""
    return EitherOrAtLeast(threshold=Fraction(1, 2), dim=1)


def unit_step_space() -> EitherOrEquals:
    """Adjacent-step space: one of the two neighbouring steps moves exactly 1."""
    return EitherOrEquals(value=Fraction(1), dim=1)


def no_triple_repeat_sft() -> BinarySFT:
    """The binary subshift forbidding 000 and 111."""
    return BinarySFT(forbidden=frozenset({"000", "111"}), dim=1)


# ---------------------------------------------------------------------------
# Membership


@dataclass(frozen=True)
class MembershipReport:
    """Where a constraint was checked and where it failed.

    ``records`` is the range of indices at which the constraint was
    checkable and ``failures`` the failing ones among them, in order.
    Verdict is "pass", "fail" or "vacuous" (no index was checkable).
    """

    verdict: str
    records: range
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _checkable_range(x: SeqPoint, lo_off: int, hi_off: int) -> range:
    """Indices n for which all of n+lo_off .. n+hi_off lie in the domain."""
    if isinstance(x, Periodic):
        return range(x.period)
    return range(x.start - lo_off, x.end - hi_off + 1)


def check_membership(spec: SubshiftSpec, x: SeqPoint) -> MembershipReport:
    """Check every spec constraint at every index where it is decidable.

    Periodic points are checked at all residues with index arithmetic mod the
    period; windows only at indices whose referenced entries are all defined.
    A window too short to check anything yields the distinct verdict
    "vacuous".
    """
    if spec.dim != x.dim:
        raise ValueError("alphabet dimension mismatch")
    cyclic = isinstance(x, Periodic)
    first = 0 if cyclic else x.start  # index of the first stored entry
    if isinstance(spec, GapAtLeast):
        checked = _checkable_range(x, 0, spec.gap)
        failures = [checked[k] for k in gap_failures(x.seq, spec.gap, spec.threshold, cyclic)]
    elif isinstance(spec, (EitherOrAtLeast, EitherOrEquals)):
        checked = _checkable_range(x, -1, 1)
        # steps[k] is the distance from entry k to entry k + 1, cyclically
        # for a periodic point, so steps[-1] closes the period
        steps, den = gap_distances(x.seq, 1, cyclic)
        if isinstance(spec, EitherOrAtLeast):
            bar, scale = spec.threshold.numerator * den, spec.threshold.denominator
            good = [d * scale >= bar for d in steps]
        else:
            bar, scale = spec.value.numerator * den, spec.value.denominator
            good = [d * scale == bar for d in steps]
        failures = [n for n in checked if not (good[n - 1 - first] or good[n - first])]
    else:
        checked = _checkable_range(x, 0, spec.word_length - 1)
        letters = {TorusVec.zero(x.dim): "0", TorusVec.of(*[1] * x.dim): "1"}
        letter = [letters.get(v, "?") for v in x.values]
        size, length = len(letter), spec.word_length
        failures = []
        for n in checked:
            word = "".join(letter[(n + j - first) % size] for j in range(length))
            if "?" in word or word in spec.forbidden:
                failures.append(n)
    if not checked:
        return MembershipReport("vacuous", checked, ())
    return MembershipReport("fail" if failures else "pass", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Random sampling (deterministic under an explicit rng)


GRID = 64  # coordinates are drawn from {k/GRID : 0 <= k < 2*GRID}
SLOT_TRIES = 10_000  # draws for one entry before a sampler gives up
MAX_DRAWS = 100_000  # draws for one periodic point before the sampler gives up


def random_torus_vec(rng: random.Random, dim: int) -> TorusVec:
    """A vector with coordinates uniform on the k/GRID grid."""
    return TorusVec(tuple(rng.randrange(2 * GRID) for _ in range(dim)), GRID)


def _draw_seq(
    rng: random.Random, dim: int, length: int, gap: int = 1, threshold: Fraction = Fraction(0),
    closed: bool = False,
) -> tuple[TorusSeq | None, int]:
    """Grid entries drawn in index order, each redrawn until it lies at distance
    >= threshold from the entry ``gap`` back; and the draws it took.

    With ``closed``, a walk whose last entry lies nearer than the threshold
    to its first comes back as None.  The stream is that of ``random_torus_vec``, one
    ``rng.randrange(2*GRID)`` per coordinate, which ``first_far`` reproduces
    through ``getrandbits``, generator end state included; threshold 0 keeps
    every draw, so the points match drawing vectors one by one.
    """
    found = first_far(rng, dim, length, gap, threshold, GRID, SLOT_TRIES, closed)
    if found is None:
        raise ValueError(f"sampling gave up after {SLOT_TRIES} draws of one entry")
    return found


def _grid_cycle_closes(dim: int, threshold: Fraction, length: int) -> bool:
    """Whether a gap cycle of ``length`` entries has an admissible grid point.

    Length 1 compares an entry with itself; for dim >= 2 the corners {0, 1}^dim
    are pairwise at distance 1.  For dim = 1 the steps of a closed walk move by
    a = ceil(threshold*GRID) to 2*GRID - a units and sum to a multiple of 2*GRID.
    """
    if length < 2 or dim >= 2:
        return length >= 2
    a, full = math.ceil(threshold * GRID), 2 * GRID
    return length * (full - a) // full * full >= length * a


def sample_periodic_gap_point(
    dim: int, gap: int, threshold: Fraction, period: int, rng: random.Random
) -> Periodic:
    """A uniform random period-``period`` grid point of the gap space.

    Residues i and i + gap (mod period) are tied, so they split into
    gcd(gap, period) cycles.  Each cycle is walked entry by entry as in
    ``sample_gap_window`` and redrawn only when its closing edge fails; every
    grid vector has equally many admissible successors, so the result is
    uniform.  Emptiness is decided on the grid before any draw.
    """
    t, cycles, length, what = _periodic_plan(dim, gap, threshold, period)
    walks = []
    drawn = 0
    for _ in range(cycles):
        while drawn < MAX_DRAWS:
            walk, tries = _draw_seq(rng, dim, length, 1, t, closed=True)
            drawn += tries
            if walk is not None:
                break
        else:
            raise ValueError(
                f"sampling gave up after {drawn} draws: a {what} exists on the "
                f"k/{GRID} grid, but none was drawn (undetermined)"
            )
        walks.append(walk)
    # step s of walk f sits at residue (f + s*gap) % period
    position = [0] * period
    for f in range(cycles):
        for s in range(length):
            position[(f + s * gap) % period] = f * length + s
    return Periodic(concat(*walks).take(position))


@functools.lru_cache
def _periodic_plan(dim: int, gap: int, threshold: Fraction, period: int) -> tuple[Fraction, int, int, str]:
    """What ``sample_periodic_gap_point`` decides before any draw: the
    threshold, the number and length of the cycles, and the point's
    description; raises when no such point exists on the grid.  Decided once
    per arguments, as a conjugacy diagram asks for every sample of one side
    with the same ones."""
    t = gap_space(dim, gap, threshold).threshold
    cycles = math.gcd(gap, period)
    length = period // cycles
    what = f"period-{period} point with distance >= {t} at gap {gap}"
    if not _grid_cycle_closes(dim, t, length):
        raise ValueError(f"no {what} exists on the k/{GRID} grid")
    return t, cycles, length, what


def sample_gap_window(
    dim: int, gap: int, threshold: Fraction, start: int, length: int, rng: random.Random
) -> Window:
    """Sample a window satisfying the gap constraint at every checkable index.

    The constraint couples only entries ``gap`` apart, so positions are drawn
    left to right, each against the entry one gap back.
    """
    spec = gap_space(dim, gap, threshold)
    return Window(start, _draw_seq(rng, dim, length, gap, spec.threshold)[0])


def random_window(dim: int, start: int, length: int, rng: random.Random) -> Window:
    """An unconstrained random window (no membership requirement)."""
    return Window(start, _draw_seq(rng, dim, length)[0])


# ---------------------------------------------------------------------------
# Conjugacy diagram between gap spaces at coprime gaps


# Coordinates a witness, a conjugacy diagram or an aperiodicity report may
# build, period * dim per point, checked before any draw: a period-99,991
# witness takes 1.9 s per process and prints 5.7 MB, 24 samples of period
# 2,003 from each conjugacy space take 2.5 s (Python 3.11.7, 2-CPU x86-64
# VM), and both grow linearly.
MAX_PERIODIC_COORDINATES = 100_000


def check_periodic_coordinates(holding: str, count: int) -> None:
    """Refuse periodic points of `count` coordinates over the cap; `holding` names them."""
    if count > MAX_PERIODIC_COORDINATES:
        cap = MAX_PERIODIC_COORDINATES
        raise ValueError(f"{holding} {count} coordinates, over the cap of {cap} on periodic points")


@dataclass(frozen=True)
class IdentityResult:
    name: str
    statement: str
    checked: int
    failures: tuple[int, ...] = ()  # indices of the samples where it fails

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ConjugacyReport:
    k: int
    identities: tuple[IdentityResult, ...]

    @property
    def passed(self) -> bool:
        return all(i.ok for i in self.identities)


def verify_conjugacy_diagram(
    dim: int,
    m: int,
    threshold: Fraction,
    p: int,
    samples: int,
    seed: int,
) -> ConjugacyReport:
    """Exactly verify the index-dilation conjugacy between period-p point sets.

    With k the inverse of m mod p, the dilation by m carries period-p points
    of the gap-m space to the gap-1 space, the dilation by k carries them
    back, the two dilations compose to the identity, and dilation by m
    intertwines the shift with its m-th power.  Every identity is checked by
    exact equality on seeded random samples from both spaces.
    """
    if p <= m:
        raise ValueError("diagram requires p > m")
    if math.gcd(m, p) != 1:
        raise ValueError(f"m must be coprime to p: gcd({m}, {p}) = {math.gcd(m, p)}")
    if samples < 1:
        raise ValueError("samples must be >= 1: zero samples would check nothing")
    check_periodic_coordinates(
        f"{samples} samples of period {p} in dimension {dim} from each space hold",
        2 * samples * p * dim,
    )
    k = pow(m % p, -1, p)
    rng = random.Random(seed)
    gap_m = gap_space(dim, m, threshold)
    gap_1 = gap_space(dim, 1, threshold)
    samples_m = [sample_periodic_gap_point(dim, m, threshold, p, rng) for _ in range(samples)]
    samples_1 = [sample_periodic_gap_point(dim, 1, threshold, p, rng) for _ in range(samples)]

    # one row per identity: name, statement, samples, predicate on a sample
    table = (
        ("dilation_m_lands_in_gap1",
         "dilation by m maps period-p points of the gap-m space into the gap-1 space",
         samples_m, lambda x: check_membership(gap_1, power_map(m, x)).passed),
        ("dilation_k_lands_in_gapm",
         "dilation by k maps period-p points of the gap-1 space into the gap-m space",
         samples_1, lambda z: check_membership(gap_m, power_map(k, z)).passed),
        ("dilation_k_then_m_is_identity",
         "composing the dilations by m and k is the identity on period-p points",
         samples_m, lambda x: power_map(k, power_map(m, x)) == x),
        ("dilation_m_then_k_is_identity",
         "composing the dilations by k and m is the identity on period-p points",
         samples_1, lambda z: power_map(m, power_map(k, z)) == z),
        ("shift_intertwines_dilation_m",
         "shift after dilation by m equals dilation by m after the m-th shift power",
         samples_m, lambda x: shift(power_map(m, x), 1) == power_map(m, shift(x, m))),
        ("shift_intertwines_dilation_k",
         "the m-th shift power after dilation by k equals dilation by k after the shift",
         samples_1, lambda z: shift(power_map(k, z), m) == power_map(k, shift(z, 1))),
    )
    identities = tuple(
        IdentityResult(name, statement, samples, tuple(i for i, x in enumerate(xs) if not ok(x)))
        for name, statement, xs, ok in table
    )
    return ConjugacyReport(k=k, identities=identities)


# ---------------------------------------------------------------------------
# Periodic point counting for binary SFTs


MAX_PERIOD = 20  # longest circular word counted: 2^20 words, 128 KB per bit column
MAX_WORD_LENGTH = 8  # longest forbidden word: 2^7 = 128 transfer states


def capped_sft(forbidden: frozenset[str] | set[str], n: int) -> BinarySFT:
    """The SFT of ``forbidden``, once length ``n`` and its words are within the caps.

    Both counting routes call this before they allocate anything, so a caller
    can also check a whole range of lengths up front by passing the largest.
    """
    sft = BinarySFT(frozenset(forbidden))
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > MAX_PERIOD:
        raise ValueError(
            f"period {n} is over the cap of {MAX_PERIOD} on periodic-point counts "
            f"(2^{MAX_PERIOD} circular words)"
        )
    if sft.word_length > MAX_WORD_LENGTH:
        raise ValueError(
            f"forbidden words of length {sft.word_length} are over the cap of "
            f"{MAX_WORD_LENGTH} letters on periodic-point counts "
            f"({1 << MAX_WORD_LENGTH - 1} transfer states)"
        )
    return sft


def count_periodic_sft(forbidden: frozenset[str] | set[str], n: int) -> int:
    """Number of circular binary words of length n avoiding the forbidden words.

    The count is trace(A^n) for the transfer matrix A on (L-1)-blocks, L the
    forbidden word length, for every n >= 1: a closed walk of n steps reads
    one period of a period-n point.  A is the de Bruijn graph less the
    forbidden edges, so each block has at most two predecessors, and A^n is
    reached by n sparse steps.  Raises ``ValueError`` above ``MAX_PERIOD`` or
    ``MAX_WORD_LENGTH`` (see ``capped_sft``).
    """
    sft = capped_sft(forbidden, n)
    k = sft.word_length - 1
    size = 1 << k
    # block v (first letter most significant) follows u = (v >> 1) | b << (k-1)
    # along the edge word (b << k) | v; a forbidden edge leaves from the
    # all-zero row ``size`` instead
    banned = {int(w, 2) for w in sft.forbidden}
    preds = [
        tuple(size if (b << k | v) in banned else (v >> 1) | b << (k - 1) for b in (0, 1))
        for v in range(size)
    ]
    # walks[v][s]: walks of the current length from block s to block v
    walks = [[int(s == v) for s in range(size)] for v in range(size + 1)]
    for _ in range(n):
        walks = [[a + b for a, b in zip(walks[u], walks[w])] for u, w in preds] + [walks[size]]
    return sum(walks[s][s] for s in range(size))


def count_periodic_sft_bruteforce(forbidden: frozenset[str] | set[str], n: int) -> int:
    """Independent oracle: check all 2^n circular words at every position.

    Word w gets bit w of a Python int, and its letter i is bit i of w.  So
    column i, the words whose letter i is 1, repeats 2^i zeros and 2^i ones.
    A forbidden word f sits at position i in exactly the AND over j of
    column (i+j) mod n, complemented where f_j is "0"; the count is 2^n less
    the words hit at any position.  It never uses the transfer matrix.
    Raises ``ValueError`` above ``MAX_PERIOD`` or ``MAX_WORD_LENGTH``.
    """
    sft = capped_sft(forbidden, n)
    words = 1 << n
    full = (1 << words) - 1
    ones = []
    for i in range(n):
        half = 1 << i
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < words:
            column |= column << width
            width *= 2
        ones.append(column)
    letter = {"1": ones, "0": [full ^ column for column in ones]}
    bad = 0
    for word in sft.forbidden:
        for i in range(n):
            hit = full
            for j, c in enumerate(word):
                hit &= letter[c][(i + j) % n]
            bad |= hit
    return words - bad.bit_count()


# ---------------------------------------------------------------------------
# Explicit periodic witnesses for gap spaces


def best_periodic_gap(p: int) -> Fraction:
    """The distance realized by the explicit period-p witness: 1 for p = 2, else 1 - 1/p."""
    return Fraction(1) if p == 2 else 1 - Fraction(1, p)


def periodic_witness(dim: int, gap: int, threshold: Fraction, p: int) -> Periodic:
    """An explicit period-p point of the gap space, built by a rotation orbit.

    The point is x_n = (2*n*c*g / p mod 2) on every coordinate, where
    c = floor(p/2) and g is the inverse of the gap mod p, so the gap must be
    coprime to p.  Its entries a gap apart differ by exactly 2c/p in every
    coordinate, so the realized distance is 1 for p = 2 and 1 - 1/p
    otherwise.
    """
    threshold = Fraction(threshold)
    if p < 1:
        raise ValueError("a periodic point needs period >= 1")
    check_periodic_coordinates(f"a period-{p} point in dimension {dim} holds", p * dim)
    if gap % p == 0:
        raise ValueError("no period-p points exist when p divides the gap")
    if math.gcd(gap, p) != 1:
        raise ValueError(
            f"the witness needs the gap m coprime to p: gcd({gap}, {p}) = {math.gcd(gap, p)}"
        )
    realized = best_periodic_gap(p)
    if realized < threshold:
        raise ValueError("witness construction insufficient for this threshold")
    c = p // 2
    g = pow(gap % p, -1, p)
    point = Periodic(TorusSeq((tuple(2 * n * c * g for n in range(p)),) * dim, p))
    report = check_membership(gap_space(dim, gap, threshold), point)
    if not report.passed:
        raise AssertionError("witness construction failed its own membership check")
    return point
