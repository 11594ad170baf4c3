"""Finitely described points of torus-alphabet sequence spaces.

A sequence point is either a full periodic orbit (period plus one period of
values) or a finite window (start index plus consecutive values).  Either
holds its values as one :class:`~mdkit.torus.TorusSeq`, integer columns over
one denominator; shifts, dilations, unrolling, the gap and adjacent-step
membership checks and the samplers work on those columns, and a vector is
built only when a caller reads ``values``.  A shift or
dilation of a periodic point is a cached index map i -> i*j + k mod p, one
``itemgetter`` per column; only a non-bijection, gcd(j, p) > 1, takes the
gcd pass.  The conjugacy diagram
checks s samples of period p at once, by the Chinese remainder theorem
(Z_s x Z_p is Z_sp for coprime s and p): entry i of sample b is entry n of
one period-sp point, n = b mod s and n = i mod p, gathered from the
samples' walks at once, so a dilation or shift of every sample is one
cached gather of that point's columns, and the gap constraint on every
sample one membership check of it, with the multiplier 1 mod s and the
shift or gap 0 mod s; a failing entry n belongs to sample n mod s.  The
samplers draw on the k/64 grid as random walks: the entries of a gap window
past its first gap,
and the steps of a periodic point's cycle, are the entry one gap back plus
an increment uniform on the far offsets, the law of redrawing each entry
until it is far enough.  Their random stream is that of
:func:`~mdkit.torus.first_far`, bytes of ``rng.randbytes``, and the tests
compare it, generator end state included, with a per-entry loop over the
same bytes on every supported Python.  Whether a gap space
has period-p points is decided by one rule, in ``periodic_witness``, which
gives a witness or the statement that none exists; the sampler asks it too.
Subshift constraints are declarative: a minimum distance between entries a
fixed gap apart, or a minimum distance for one of the two adjacent steps.
Membership decides these two, both by :func:`~mdkit.torus.gap_failures`.
Binary subshifts of finite type, given by their forbidden words, are
counted, not checked as points.  A membership check reports the range of
indices at which a constraint was checkable and the indices at which it
fails, and never conflates "nothing was checkable" with "all checks passed".
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, repeat
from operator import add, and_, getitem, itemgetter, mod, or_
from typing import NamedTuple, Union

from .torus import (
    TorusSeq,
    TorusVec,
    _seq,
    _shown,
    concat,
    first_far,
    frac_to_str,
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


SeqPoint = Union[Periodic, Window]


# 64 maps, enough for the four of each of 16 conjugacy diagrams, whose lifts
# depend on the sample count; each of at most MAX_PERIODIC_COORDINATES / 2
# indices, the period of a one-sample diagram at the cap, 2.0 MB each there
# (tracemalloc); a stacked run has at most MAX_STACKED_PERIOD
@functools.lru_cache(maxsize=64)
def _affine_map(p: int, j: int, k: int) -> tuple[itemgetter, bool]:
    """The gather of the entries at i*j + k mod p, for i = 0 .. p-1, from a
    period; and whether it is a bijection, gcd(j, p) = 1."""
    if p == 1:
        return itemgetter(slice(None)), True  # itemgetter of one index gives no tuple
    # i*j + k for i < p is one range, reduced mod p at C speed
    positions = map(mod, range(k, k + p * j, j), repeat(p)) if j else repeat(k, p)
    return itemgetter(*positions), math.gcd(j, p) == 1


def shift(x: SeqPoint, k: int) -> SeqPoint:
    """The k-fold shift: the new value at n is the old value at n + k."""
    if isinstance(x, Periodic):
        p = x.period
        return Periodic(x.seq._gather(*_affine_map(p, 1, k % p)))
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
    return Periodic(x.seq._gather(*_affine_map(p, j % p, 0)))


def seq_to_json(x: SeqPoint) -> dict:
    if isinstance(x, Periodic):
        return {"kind": "periodic", "period": x.period, "values": x.seq.to_json()}
    return {"kind": "window", "start": x.start, "values": x.seq.to_json()}


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


SubshiftSpec = Union[GapAtLeast, EitherOrAtLeast]


def gap_space(dim: int, gap: int, threshold: Fraction) -> GapAtLeast:
    """The subshift demanding distance >= threshold between entries gap apart;
    built and validated once per arguments, as every sample of a level reuses it."""
    return _gap_space(dim, gap, threshold.numerator, threshold.denominator)


@functools.lru_cache(maxsize=256)
def _gap_space(dim: int, gap: int, num: int, denom: int) -> GapAtLeast:
    """:func:`gap_space` at threshold ``num/denom``, keyed on integers so a
    call hashes no ``Fraction``."""
    return GapAtLeast(gap=gap, threshold=Fraction(num, denom), dim=dim)


def half_step_space() -> EitherOrAtLeast:
    """Adjacent-step space: one of the two neighbouring steps moves >= 1/2."""
    return EitherOrAtLeast(threshold=Fraction(1, 2), dim=1)


def unit_step_space() -> EitherOrAtLeast:
    """Adjacent-step space: one of the two neighbouring steps moves exactly 1.
    No distance exceeds the diameter 1, so that is a step of at least 1."""
    return EitherOrAtLeast(threshold=Fraction(1), dim=1)


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
    """Check the gap or adjacent-step constraint at every index where it is decidable.

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
    else:
        checked = _checkable_range(x, -1, 1)
        # near[k]: the step from entry k to entry k + 1 is short, cyclically
        # for a periodic point, so near[-1] closes the period
        near = [False] * (len(x.seq) if cyclic else len(x.seq) - 1)
        for k in gap_failures(x.seq, 1, spec.threshold, cyclic):
            near[k] = True
        failures = [n for n in checked if near[n - 1 - first] and near[n - first]]
    if not checked:
        return MembershipReport("vacuous", checked, ())
    return MembershipReport("fail" if failures else "pass", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Random sampling (deterministic under an explicit rng)


GRID = 64  # coordinates are drawn from {k/GRID : 0 <= k < 2*GRID}
# vectors read for one periodic point before the sampler gives up, rejected
# and unused ones included.  A round reads up to about 2.5 times the vectors a
# short walk keeps (see torus._draw_count), so this admits about as many walks
# as 100,000 vectors drawn one at a time did: at N = 1, distance 51/64 and
# period 5 it runs out in about 18 ms, where those took 75 ms (Python 3.11.7,
# 2-CPU x86-64 VM)
MAX_DRAWS = 250_000
# Past MAX_DRAWS, a point still draws until it has tested MIN_CLOSING_TESTS
# walks or read MAX_WALK_DRAWS vectors, so a long period gets the closing
# tests a short one gets.  A walk of 49,999 entries at N = 1 and distance 1/2
# reads about 99,400 vectors and closes about half the time: MAX_DRAWS alone
# admitted three such walks, and 6 of seeds 0-19 gave up on
# --p 49999 --m 2 --samples 1; now all 20 answer, in at most 43 ms.  Where
# 40 walks read fewer than MAX_DRAWS vectors, as at period 11, a
# point stops where it did.  The ceiling bounds a give-up, one side's point
# reading at most MAX_WALK_DRAWS and one more walk: the slowest measured,
# --p 16661 --m 2 --N 3 --delta 1 (733,000 vectors a walk), gives up in
# 0.38 s for both sides, where MAX_DRAWS alone gave up in 0.03 s (Python
# 3.11.7, 2-CPU x86-64 VM, in process).  What it does not fix: at N >= 2 and
# distance 63/64 or more only 1.6% (distance 1) to 4.6% (63/64) of far walks
# close, and 3% at N = 1 and 63/64, so such long periods still give up, as
# undetermined.
MIN_CLOSING_TESTS = 40
MAX_WALK_DRAWS = 6_000_000


def random_torus_vec(rng: random.Random, dim: int) -> TorusVec:
    """A vector with coordinates uniform on the k/GRID grid, one ``randrange``
    per coordinate.  The samplers do not draw through it: their stream is
    :func:`~mdkit.torus.first_far`'s."""
    return TorusVec(tuple(rng.randrange(2 * GRID) for _ in range(dim)), GRID)


def sample_periodic_gap_point(
    dim: int, gap: int, threshold: Fraction, period: int, rng: random.Random
) -> Periodic:
    """A uniform random period-``period`` grid point of the gap space.

    Residues i and i + gap (mod period) are tied, so they split into
    gcd(gap, period) cycles.  Each cycle is walked entry by entry as in
    ``sample_gap_window`` and redrawn only when its closing edge fails; every
    grid vector has equally many admissible successors, so the result is
    uniform.  Emptiness is decided before any draw, by the rule that
    decides ``periodic_witness``.  The walks are ``_periodic_walks``' for one
    point, gathered into residue order.
    """
    seq = concat(*_periodic_walks(dim, gap, threshold, period, 1, rng))
    return Periodic(seq._gather(_residue_positions(gap, period), True))


def _periodic_walks(
    dim: int, gap: int, threshold: Fraction, period: int, points: int, rng: random.Random
) -> list[TorusSeq]:
    """The cycle walks of ``points`` period-``period`` points of the gap space,
    as ``sample_periodic_gap_point`` draws them one point after another: each
    point's gcd(gap, period) walks in order, drawn within ``MAX_DRAWS`` vectors
    per point, or past them until the point has tested ``MIN_CLOSING_TESTS``
    walks or read ``MAX_WALK_DRAWS`` vectors.  The budget only says where a
    point stops: the stream up to there is the same."""
    t, cycles, length, what = _periodic_plan(dim, gap, threshold.numerator, threshold.denominator, period)
    walks = []
    for _ in range(points):
        drawn = tested = 0
        for _ in range(cycles):
            while drawn < MAX_DRAWS or (tested < MIN_CLOSING_TESTS and drawn < MAX_WALK_DRAWS):
                walk, tries = first_far(rng, dim, length, 1, t, GRID, closed=True)
                drawn += tries
                tested += 1
                if walk is not None:
                    break
            else:
                raise ValueError(
                    f"sampling gave up after {drawn} draws: a {what} exists on the "
                    f"k/{GRID} grid, but none was drawn (undetermined)"
                )
            walks.append(walk)
    return walks


# 32 tables of at most MAX_PERIODIC_COORDINATES positions, 4.0 MB each at that cap
@functools.lru_cache(maxsize=32)
def _residue_positions(gap: int, period: int) -> itemgetter:
    """The gather that puts the c = gcd(gap, period) walks of the sampler or the
    witness, one after another, in residue order (period >= 2): step s of walk f sits at
    r = (f + s*gap) % period, so f = r % c and s = (r // c) / (gap / c) mod period / c."""
    c = math.gcd(gap, period)
    length, inverse = period // c, pow(gap // c, -1, period // c)
    return itemgetter(*[r % c * length + r // c * inverse % length for r in range(period)])


# 64 plans, one per dimension, gap, threshold and period, where a
# `periodic-points` run uses 16; about 0.6 KB each at a threshold of small
# terms, 5.6 KB at one of 4,299-digit terms (tracemalloc)
@functools.lru_cache(maxsize=64)
def _periodic_plan(dim: int, gap: int, num: int, denom: int, period: int) -> tuple[Fraction, int, int, str]:
    """What ``sample_periodic_gap_point`` decides before any draw at threshold
    ``num/denom``: the threshold, the number and length of the cycles, and the
    point's description.  Decided once per arguments, keyed on integers so a
    sample hashes no ``Fraction``.  The rule at the threshold rounded up to
    the grid decides the grid exactly, as its distances are k/GRID."""
    t = _gap_space(dim, gap, num, denom).threshold
    cycles = math.gcd(gap, period)
    length = period // cycles
    shown = _shown(t)
    if shown == str(t):  # short: named as the statements name it, 1 as "1/1"
        shown = frac_to_str(t)
    what = f"period-{period} point with distance >= {shown} at gap {gap}"
    if not _cycle_closes(dim, Fraction(math.ceil(t * GRID), GRID), length):
        found = periodic_witness(dim, gap, t, period)
        if found.witness is None:
            raise ValueError(f"{found.statement}: no period-{period} point exists")
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
    return Window(start, first_far(rng, dim, length, gap, spec.threshold, GRID)[0])


def random_window(dim: int, start: int, length: int, rng: random.Random) -> Window:
    """An unconstrained random window (no membership requirement): every
    entry is head, drawn at once."""
    return Window(start, first_far(rng, dim, length, max(length, 1), Fraction(0), GRID)[0])


# ---------------------------------------------------------------------------
# Conjugacy diagram between gap spaces at coprime gaps


# Coordinates a witness, a conjugacy diagram or an aperiodicity report may
# build, period * dim per point, checked before any draw: a period-99,991
# witness takes 0.31 s per process and prints 5.7 MB, 24 samples of period
# 2,003 from each conjugacy space take 0.13 s, about 0.1 s of each the import
# (Python 3.11.7, 2-CPU x86-64 VM, medians, bytecode not cached; with it
# cached, 0.32 s and 0.10 s), and both grow linearly.
MAX_PERIODIC_COORDINATES = 100_000


def check_periodic_coordinates(count: int, holding: str, *numbers: int) -> None:
    """Refuse periodic points of ``count`` coordinates over the cap.  ``holding``
    names them, a ``str.format`` template whose fields are ``numbers``, each
    named by ``_shown``; it is formatted only for a refusal."""
    if count > MAX_PERIODIC_COORDINATES:
        holding, cap = holding.format(*map(_shown, numbers)), MAX_PERIODIC_COORDINATES
        raise ValueError(f"{holding} {_shown(count)} coordinates, over the cap of {cap} on periodic points")


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


# the six identities of the diagram, in report order: name and statement
_IDENTITIES = (
    ("dilation_m_lands_in_gap1",
     "dilation by m maps period-p points of the gap-m space into the gap-1 space"),
    ("dilation_k_lands_in_gapm",
     "dilation by k maps period-p points of the gap-1 space into the gap-m space"),
    ("dilation_k_then_m_is_identity",
     "composing the dilations by m and k is the identity on period-p points"),
    ("dilation_m_then_k_is_identity",
     "composing the dilations by k and m is the identity on period-p points"),
    ("shift_intertwines_dilation_m",
     "shift after dilation by m equals dilation by m after the m-th shift power"),
    ("shift_intertwines_dilation_k",
     "the m-th shift power after dilation by k equals dilation by k after the shift"),
)


# Longest stacked period a run of conjugacy samples is checked at, unless one
# sample is longer.  A run's four index maps and its two layouts take 0.3 to
# 0.7 us per position to build, and each sample it stacks saves 20 to 50 us
# of calls at periods up to 13 and 5 to 20 us at 101 and 127, so a stack of
# periods past about 60 loses on a cold cache what it gains (Python 3.11.7,
# 2-CPU x86-64 VM).
MAX_STACKED_PERIOD = 256


def _coprime_runs(samples: int, p: int) -> list[int]:
    """The lengths of consecutive runs of ``samples``, each the longest left that
    is coprime to p and stacks at most ``MAX_STACKED_PERIOD`` positions, or one
    sample; a run of one is coprime to p, so the lengths sum to ``samples``."""
    runs = []
    while samples:
        run = min(samples, max(1, MAX_STACKED_PERIOD // p))
        while math.gcd(run, p) > 1:
            run -= 1
        runs.append(run)
        samples -= run
    return runs


@functools.lru_cache(maxsize=64)
def _lifts(s: int, p: int, m: int) -> tuple[int, ...]:
    """The lifts to Z_sp, for s coprime to p, of the shift by 1 and the gap 1 and
    of the shift by m and the gap m, all 0 mod s, and of the dilations by m and
    by its inverse k mod p, both 1 mod s: n = b + s*((i - b)/s mod p) is b mod s and i mod p."""
    inverse, k = pow(s, -1, p), pow(m, -1, p)
    return tuple(b + s * ((i - b) * inverse % p) for b, i in ((0, 1), (0, m), (1, m), (1, k)))


# 32 tables, one per side of 16 run lengths: a stack of at most
# MAX_STACKED_PERIOD positions, 3 KB, or a single sample's residue table,
# which ``_residue_positions`` holds
@functools.lru_cache(maxsize=32)
def _stacked_positions(gap: int, s: int, p: int) -> itemgetter:
    """The gather from the walks of s period-p points of the gap-``gap`` space, one
    point after another, that puts entry i of point b, in residue order, at the n
    in [0, s*p) with n = b (mod s) and n = i (mod p), for coprime s and p; one point
    is gathered only into residue order."""
    order = _residue_positions(gap, p)
    if s == 1:
        return order
    # n % p runs through range(p) s times, (n % s)*p through the s block starts
    return itemgetter(*map(add, chain.from_iterable(repeat(order(range(p)), s)), cycle(range(0, s * p, p))))


def _unequal_positions(a: tuple[tuple[int, ...], ...], b: tuple[tuple[int, ...], ...]) -> list[int]:
    """The positions at which two tuples of equally long columns hold different entries."""
    if a == b:
        return []
    return [n for n, (u, v) in enumerate(zip(zip(*a), zip(*b))) if u != v]


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

    Each side's samples are checked together, as one point, by the Chinese
    remainder theorem: Z_s x Z_p is Z_sp when gcd(s, p) = 1.  Entry i of
    sample b sits at the position n of a period-sp point X with n = b mod s
    and n = i mod p.  Then dilating every sample by j is dilating X by the
    j' with j' = 1 mod s and j' = j mod p, since n*j' keeps n mod s and
    multiplies n mod p by j; shifting every sample by k is shifting X by
    the k' with k' = 0 mod s and k' = k mod p; and the gap-g constraint on
    every sample is the gap-g' constraint on X, with g' = 0 mod s and
    g' = g mod p, whose wrap mod sp is each sample's wrap mod p.  So each
    side's walks are drawn in one call and stacked by one cached gather,
    residue order and layout at once; each membership identity is one
    dilation and one membership check of X, and each equality identity
    compares X's columns, after the same cached gathers, by one tuple
    ``==``, listing positions only where it fails.  A failing position n
    belongs to sample n mod s.  The samples are checked
    in consecutive runs whose lengths are coprime to p (a run of one sample
    always is), which p need not be, and whose stacked periods stay within
    ``MAX_STACKED_PERIOD``; a single sample is the point itself, with
    j' = j, k' = k and g' = g.
    """
    if p <= m:
        raise ValueError("diagram requires p > m")
    if math.gcd(m, p) != 1:
        raise ValueError(
            f"the diagram needs m and p coprime: gcd({_shown(m)}, {_shown(p)}) = {_shown(math.gcd(m, p))}"
        )
    if samples < 1:
        raise ValueError("samples must be >= 1: zero samples would check nothing")
    # the dimension and gap before the cap and the inverse, which m < 1 breaks
    gap_space(dim, m, threshold)
    gap_space(dim, 1, threshold)
    check_periodic_coordinates(
        2 * samples * p * dim, "{} samples of period {} in dimension {} from each space hold", samples, p, dim
    )
    k = pow(m % p, -1, p)
    rng = random.Random(seed)
    # m and 1 are coprime to p, so each sample is one closed walk
    walks_m = _periodic_walks(dim, m, threshold, p, samples, rng)
    walks_1 = _periodic_walks(dim, 1, threshold, p, samples, rng)
    # per identity, the samples where it fails, in order
    failures: list[list[int]] = [[] for _ in _IDENTITIES]
    first = 0
    for s in _coprime_runs(samples, p):
        one, by_m, dilate_m, dilate_k = _lifts(s, p, m)
        x = Periodic(concat(*walks_m[:s])._gather(_stacked_positions(m, s, p), True))
        z = Periodic(concat(*walks_1[:s])._gather(_stacked_positions(1, s, p), True))
        del walks_m[:s], walks_1[:s]  # x and z hold their entries: free the walks
        y, w = power_map(dilate_m, x), power_map(dilate_k, z)
        # the same cached gathers, applied to the columns: every dilation is a
        # bijection of Z_sp, so each keeps the stacked denominator
        dilation_m, dilation_k, shift_1, shift_m = (
            _affine_map(s * p, j, i)[0] for j, i in ((dilate_m, 0), (dilate_k, 0), (1, one), (1, by_m))
        )
        xs, ys, zs, ws = x.seq.columns, y.seq.columns, z.seq.columns, w.seq.columns
        positions = (
            check_membership(gap_space(dim, one, threshold), y).failures,
            check_membership(gap_space(dim, by_m, threshold), w).failures,
            _unequal_positions(tuple(map(dilation_k, ys)), xs),
            _unequal_positions(tuple(map(dilation_m, ws)), zs),
            _unequal_positions(tuple(map(shift_1, ys)), tuple(map(dilation_m, map(shift_m, xs)))),
            _unequal_positions(tuple(map(shift_m, ws)), tuple(map(dilation_k, map(shift_1, zs)))),
        )
        for found, at in zip(failures, positions):
            if at:
                found += sorted({first + n % s for n in at})
        first += s
    identities = tuple(
        IdentityResult(name, statement, samples, tuple(found))
        for (name, statement), found in zip(_IDENTITIES, failures)
    )
    return ConjugacyReport(k=k, identities=identities)


# ---------------------------------------------------------------------------
# Periodic point counting for binary SFTs


MAX_PERIOD = 20  # longest circular word counted: 2^20 words, 128 KB per bit column
MAX_WORD_LENGTH = 8  # longest forbidden word: 2^7 = 128 transfer states


@dataclass(frozen=True)
class BinarySFT:
    """Binary subshift of finite type: letters 0/1, forbidden equal-length words."""

    forbidden: frozenset[str]

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
                raise ValueError(f"forbidden word {_shown(w)} is not binary")
        object.__setattr__(self, "forbidden", words)

    @property
    def word_length(self) -> int:
        return len(next(iter(self.forbidden)))


def capped_sft(forbidden: frozenset[str] | set[str], n_max: int) -> BinarySFT:
    """The SFT of ``forbidden``, once lengths 1..``n_max`` and its words are within the caps.

    Both counting routes call this once, before they allocate anything.
    """
    sft = BinarySFT(frozenset(forbidden))
    if n_max < 1:
        raise ValueError("length must be >= 1")
    if n_max > MAX_PERIOD:
        raise ValueError(
            f"period {_shown(n_max)} is over the cap of {MAX_PERIOD} on periodic-point counts "
            f"(2^{MAX_PERIOD} circular words)"
        )
    if sft.word_length > MAX_WORD_LENGTH:
        raise ValueError(
            f"forbidden words of length {sft.word_length} are over the cap of "
            f"{MAX_WORD_LENGTH} letters on periodic-point counts "
            f"({1 << MAX_WORD_LENGTH - 1} transfer states)"
        )
    return sft


def count_periodic_sft(forbidden: frozenset[str] | set[str], n_max: int) -> list[int]:
    """Numbers of circular binary words avoiding the forbidden words, of each length 1..n_max.

    The count at length n is trace(A^n) for the transfer matrix A on
    (L-1)-blocks, L the forbidden word length, for every n >= 1: a closed
    walk of n steps reads one period of a period-n point.  A is the de
    Bruijn graph less the forbidden edges, so each block has at most two
    predecessors, and one walk of n_max sparse steps passes every A^n.
    Raises ``ValueError`` above ``MAX_PERIOD`` or ``MAX_WORD_LENGTH`` (see
    ``capped_sft``).
    """
    sft = capped_sft(forbidden, n_max)
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
    counts = []
    diagonal = range(size)
    for _ in range(n_max):
        walks = [list(map(add, walks[u], walks[w])) for u, w in preds] + [walks[size]]
        counts.append(sum(map(getitem, walks, diagonal)))
    return counts


def count_periodic_sft_bruteforce(forbidden: frozenset[str] | set[str], n_max: int) -> list[int]:
    """Independent oracle: check all 2^n circular words of each length n = 1..n_max.

    Word w gets bit w of a Python int, and its letter i is bit i of w.  So
    column i, the words whose letter i is 1, repeats 2^i zeros and 2^i ones;
    each column is built once, over the 2^n_max words, and its first 2^n bits
    are column i at length n.  A forbidden word f sits at position i in
    exactly the AND over j of column (i+j) mod n, complemented where f_j is
    "0"; the count is 2^n less the words hit at any position.  Each length is
    still a full enumeration of its own words.  It never uses the transfer
    matrix.  Raises ``ValueError`` above ``MAX_PERIOD`` or ``MAX_WORD_LENGTH``.
    """
    forbidden = capped_sft(forbidden, n_max).forbidden
    ones = []
    for i in range(n_max):
        half = 1 << i
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << n_max:
            column |= column << width
            width *= 2
        ones.append(column)
    return [_count_circular_words(forbidden, ones, n) for n in range(1, n_max + 1)]


def _count_circular_words(forbidden: frozenset[str], ones: list[int], n: int) -> int:
    """The circular words of length n in which no word of ``forbidden`` sits,
    bit-sliced on the first 2^n bits of the letter columns ``ones``: letter j
    of a word at positions 0..n-1 reads columns j..j+n-1 mod n, one rotation of
    the column list, so each letter is one C-speed AND over all positions."""
    words = 1 << n
    full = (1 << words) - 1
    # the first 2^n bits of each column: at the longest length, the column itself
    columns = ones if n == len(ones) else [column & full for column in ones[:n]]
    letter = {"1": columns, "0": [full ^ column for column in columns]}
    bad = 0
    for word in forbidden:
        hits = None
        for j, c in enumerate(word):
            k = j % n
            rotation = letter[c][k:] + letter[c][:k]
            hits = rotation if hits is None else map(and_, hits, rotation)
        bad = functools.reduce(or_, hits, bad)
    return words - bad.bit_count()


# ---------------------------------------------------------------------------
# Period-p points of gap spaces: one rule decides them, a witness shows them


def _cycle_closes(dim: int, threshold: Fraction, length: int) -> bool:
    """Whether a gap cycle of ``length`` entries closes with every step at distance
    >= threshold: length 1 compares an entry with itself, and for dim >= 2 the
    corner walk of ``periodic_witness`` closes any longer cycle at distance 1.
    In one coordinate each step moves by a value in [t, 2 - t] and the steps sum
    to an even integer, so the largest t that closes is 1 at even length and
    1 - 1/length at odd length: decided on the threshold's numerator and
    denominator, num * length <= den * (length - 1)."""
    return length >= 2 and (
        dim >= 2 or length % 2 == 0 or threshold.numerator * length <= threshold.denominator * (length - 1)
    )


def periodic_set_empty(dim: int, gap: int, threshold: Fraction, p: int) -> bool:
    """The rule in its interval form, which checks its verdicts: a cycle of
    L = p/gcd(gap, p) entries closes in one coordinate exactly when an even
    integer lies in [L*threshold, L*(2 - threshold)], and in two or more when L >= 2.
    On integers, with threshold = num/den: floor(L*(2*den - num) / (2*den)) * 2*den
    is the largest even integer times den under the upper end, compared with L*num."""
    length = p // math.gcd(gap, p)
    num, twice = threshold.numerator, 2 * threshold.denominator
    return length * (twice - num) // twice * twice < length * num and (dim == 1 or length == 1)


class PeriodicVerdict(NamedTuple):
    """A period-p point and the least distance it keeps a gap apart, or none and the statement why."""

    witness: Periodic | None
    realized: Fraction | None
    statement: str | None


def periodic_witness(dim: int, gap: int, threshold: Fraction, p: int) -> PeriodicVerdict:
    """An explicit period-p point of the gap space, or the statement that none exists.

    The gap ties the residues mod p into gcd(gap, p) cycles of L = p/gcd(gap, p)
    entries, each walked alike once ``_cycle_closes`` has decided: by the
    rotation s -> 2*s*floor(L/2)/L on every coordinate, which keeps distance 1
    at even L and 1 - 1/L at odd L, or, for a threshold above that, by the
    corner walk, where coordinate 1 alternates 0 and 1 and coordinate 2 is 1
    at the first step only, which keeps 1.  A witness is returned before any
    statement text is formed; the statement, which names the threshold and the
    bounds on the steps, is built only when there is none.  Each caller checks
    the point once with ``check_membership``.
    """
    if p < 1:
        raise ValueError("a periodic point needs period >= 1")
    # the dimension before the cap, which p * dim passes for any dim <= 0
    t = gap_space(dim, gap, threshold).threshold
    cycles = math.gcd(gap, p)
    length = p // cycles
    if _cycle_closes(dim, t, length):
        check_periodic_coordinates(p * dim, "a period-{} point in dimension {} holds", p, dim)
        if _cycle_closes(1, t, length):  # the rotation closes in each coordinate
            realized = Fraction(length - 1, length) if length % 2 else Fraction(1)
            step, full = 2 * (length // 2), 2 * length
            column = tuple(map(mod, range(0, length * step, step), repeat(full)))
            walk = _seq((column,) * dim, length)
        else:
            realized = Fraction(1)
            corner = (tuple(s % 2 for s in range(length)), (1,) + (0,) * (length - 1))
            walk = _seq(corner + ((0,) * length,) * (dim - 2), 1, canonical=True)
        seq = concat(*[walk] * cycles)
        return PeriodicVerdict(Periodic(seq._gather(_residue_positions(gap, p), True)), realized, None)
    # a long threshold is named once, cut, and the bounds it gives in its terms
    shown = _shown(t)
    cut = shown != str(t)
    if length == 1:
        return PeriodicVerdict(None, None, (
            f"the gap {gap} is a multiple of {p}, so each entry of a period-{p} point lies "
            f"{gap} apart from itself, at distance 0, below the threshold {shown if cut else frac_to_str(t)}"
        ))
    if cut:
        steps = f"steps of t to 2 - t, t = {shown}, sum to no even integer"
    else:
        low, high, far = (frac_to_str(d) for d in (length * t, length * (2 - t), 2 - t))
        steps = (
            f"steps of {frac_to_str(t)} to {far} must sum to an even integer in [{low}, {high}]; "
            f"there is none"
        )
    return PeriodicVerdict(None, None, (
        f"the gap {gap} ties the residues mod {p} into cycles of {length}, whose {steps}"
    ))
