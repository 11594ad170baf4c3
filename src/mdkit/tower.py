"""Factor and section maps between the gap subshifts of the tower, and their checks.

Level m of the tower is the subshift with gap m! and a fixed distance
threshold.  Its ``LevelPlan`` holds all its index arithmetic: the factor map
to level m-1 sums m translates spaced (m-1)! apart, and its one-sided inverse
(the section) rebuilds a preimage from a head block of (m-1)*(m-1)! entries
and telescoping sums.  Index bookkeeping is done on integer intervals before
any value is touched, so failures surface as domain errors.  ``tower verify``
checks the section identity and range at one level with ``verify_section``,
one torus kernel that builds neither map; ``tower aperiodicity``
certifies period-p points up to a truncation depth.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from .complexes import is_prime
from .shiftspace import (
    Periodic,
    SeqPoint,
    Window,
    check_membership,
    check_periodic_coordinates,
    gap_space,
    periodic_set_empty,
    periodic_witness,
    random_window,
    seq_to_json,
)
from .torus import (
    TorusSeq,
    _shown,
    check_solved_sums,
    frac_to_str,
    solve_strided_sums,
    strided_sums,
)


class DomainError(ValueError):
    """An index-interval precondition failed before any evaluation."""


def level_gap(m: int) -> int:
    """Gap parameter of tower level m: the factorial m!."""
    if m < 1:
        raise ValueError("level must be >= 1")
    return math.factorial(m)


class LevelPlan(NamedTuple):
    """Level m: its gap m! is ``terms`` = m strides of (m-1)!; its factor map
    sums ``terms`` entries a stride apart, its section's head is terms-1 strides."""

    stride: int
    terms: int
    gap: int
    head: int

    @classmethod
    @functools.lru_cache(maxsize=64)
    def of(cls, m: int) -> LevelPlan:
        gap = level_gap(m)
        return cls(gap // m, m, gap, gap - gap // m)


# Coordinates one `tower verify` command may hold, samples * N * (window +
# section), checked before any draw: 98,400 take 0.11 s per process at level 7
# and N = 1 (`--window 0:7680 --samples 5`), about 0.1 s of it the import
# (Python 3.11.7, 2-CPU x86-64 VM). Every window covers the (m-1)! entries of
# the base block, so the last level it admits, ``MAX_VERIFY_LEVEL``, is the
# first whose gap m! is over it; a higher level is refused before its gap is formed.
MAX_VERIFY_ENTRIES = 100_000
MAX_VERIFY_LEVEL = next(m for m in range(1, MAX_VERIFY_ENTRIES) if level_gap(m) > MAX_VERIFY_ENTRIES)
# Largest prime bound of an aperiodicity report, checked before any prime is
# listed.  Each prime p above the depth lists a witness of p*N coordinates, their
# sum checked against ``MAX_PERIODIC_COORDINATES`` next: at depth 1 and N = 1,
# p_max 1,000 lists 76,127 and prints 4.1 MB in 0.25 s per process, about 0.1 s
# of it the import (same VM, medians, bytecode cached or not).
MAX_APERIODICITY_PRIME = 1000


# ---------------------------------------------------------------------------
# Anchors: the head block of a section


def zero_anchor(dim: int, m: int) -> TorusSeq:
    """The all-zero head block of the level-m section."""
    return TorusSeq.zero(dim, LevelPlan.of(m).head)


def random_anchor(dim: int, m: int, rng: random.Random) -> TorusSeq:
    """A random head block of the level-m section, drawn in index order."""
    return random_window(dim, 0, LevelPlan.of(m).head, rng).seq


# ---------------------------------------------------------------------------
# Factor maps


def factor_map(m: int, x: SeqPoint) -> SeqPoint:
    """Map level m to level m-1 by summing m translates spaced (m-1)! apart.

    Windows shrink by (m-1)*(m-1)! on the right; periodic points keep their
    period.  The distance between output entries (m-1)! apart equals the
    distance between input entries m! apart, so membership is carried along.
    Both kinds go through one sliding sum: a periodic point is its period
    extended cyclically, with the stride taken mod the period.
    """
    if m < 2:
        raise ValueError("factor map requires level >= 2")
    plan = LevelPlan.of(m)
    if isinstance(x, Periodic):
        p = x.period
        stride = plan.stride % p
        extended = x.seq.take([i % p for i in range(p + (plan.terms - 1) * stride)])
        return Periodic(strided_sums(extended, stride, plan.terms))
    if x.end - plan.head < x.start:
        raise DomainError("domain shrinks to empty")
    return Window(x.start, strided_sums(x.seq, plan.stride, plan.terms))


# ---------------------------------------------------------------------------
# Section maps


def section_domain(m: int, lo: int, hi: int) -> tuple[int, int]:
    """Output interval of the level-m section from an input window [lo, hi].

    The input must cover the base references: lo <= 0 and hi >= (m-1)! - 1.
    The maximal computable output interval is then [lo, hi + (m-1)*(m-1)!].
    """
    if m < 2:
        raise ValueError("section requires level >= 2")
    plan = LevelPlan.of(m)
    if hi < lo:
        raise DomainError("output domain empty")
    if lo > 0 or hi < plan.stride - 1:
        raise DomainError(
            f"section at level {_shown(m)} needs the input window to cover [0, {plan.stride - 1}] "
            f"and to start at or below 0 (got [{_shown(lo)}, {_shown(hi)}])"
        )
    return lo, hi + plan.head


def _section_plan(m: int, head: TorusSeq, x: Window) -> LevelPlan:
    """The level-m plan, once ``x`` is a window the section is defined on and
    ``head`` is a head block of the level's length and of its dimension."""
    if not isinstance(x, Window):
        raise TypeError(
            "section consumes windows only; unroll periodic points first "
            "(the section does not preserve periodicity)"
        )
    section_domain(m, x.start, x.end)
    plan = LevelPlan.of(m)
    if len(head) != plan.head:
        raise ValueError(f"the level-{m} section needs a head block of {plan.head} entries")
    if head.dim != x.dim:
        raise ValueError("alphabet dimension mismatch")
    return plan


def section_map(m: int, head: TorusSeq, x: Window) -> Window:
    """One-sided inverse of the level-m factor map, with a prescribed head block.

    On the initial block [0, (m-1)*(m-1)!-1] the output copies ``head``.
    Every later entry k is x at k - (m-1)*(m-1)! less the other m-1 terms of
    its factor sum, and every entry below 0 is x at k less the m-1 terms
    above it; past the base block [0, m!-1] both directions telescope, by
    differences of input entries one sub-gap apart.  Both directions are one
    ``solve_strided_sums``, on one packing of the window and head, built once.
    """
    plan = _section_plan(m, head, x)
    return Window(x.start, solve_strided_sums(head, x.seq, -x.start, plan.stride, plan.terms))


# ---------------------------------------------------------------------------
# Section verification: identity and range at once


class SectionReport(NamedTuple):
    """Window indices where factor(section) != window, checkable section
    indices per partition, and section indices failing the level's gap."""

    identity_failures: tuple[int, ...]
    partition_counts: dict[str, int]
    range_failures: tuple[int, ...]


def verify_section(m: int, head: TorusSeq, x: Window, threshold: Fraction) -> SectionReport:
    """Check the level-m section y of a valid level-(m-1) window x with head block ``head``.

    The identity factor(y) = x, exact on all of x, holds for every x and
    head block; the range check, y a valid level-m window, requires x to
    satisfy the gap-(m-1)! constraint.  Checkable section indices k are
    counted by where the pair (k, k+m!) sits: the base block (k in
    [0, m!-1]), the upper tail (k >= m!) and the lower tail (k < 0).  One
    kernel, ``check_solved_sums``, makes all three checks on one packing.
    """
    stride, terms, big, _ = _section_plan(m, head, x)
    if not 0 < threshold.numerator <= threshold.denominator:
        raise ValueError("threshold must lie in (0, 1]")
    length = len(x.seq)
    if length <= stride:
        raise ValueError(
            f"input window of {length} entries is too short to check anything: "
            f"the level-{m - 1} gap constraint needs more than {stride} entries"
        )
    mismatched, own, near = check_solved_sums(head, x.seq, -x.start, stride, terms, threshold)
    if own:
        raise ValueError("input window does not satisfy its own gap constraint")
    # the checkable k run from lo to stop - 1, as y is (m-1)*(m-1)! longer than x
    lo, stop = x.start, x.start + length - stride
    counts = {
        "base_block": max(min(stop, big) - max(lo, 0), 0),
        "upper_tail": max(stop - max(lo, big), 0),
        "lower_tail": max(min(stop, 0) - lo, 0),
    }
    return SectionReport(tuple(lo + k for k in mismatched), counts, tuple(lo + k for k in near))


def check_verify_size(m: int, lo: int, hi: int, samples: int, dim: int) -> LevelPlan:
    """The level-m plan for ``samples`` windows [lo, hi) and their sections in
    dimension ``dim``; a level over the cap is refused before its gap is formed."""
    if m > MAX_VERIFY_LEVEL:
        raise ValueError(
            f"level {_shown(m)} needs a window covering the {_shown(m - 1)}! entries of the base "
            f"block, over the cap of {MAX_VERIFY_ENTRIES} on tower verify"
        )
    out_lo, out_hi = section_domain(m, lo, hi - 1)
    coordinates = samples * (hi - lo + out_hi - out_lo + 1) * dim
    if coordinates > MAX_VERIFY_ENTRIES:
        raise ValueError(
            f"{_shown(samples)} samples of a {_shown(hi - lo)}-entry window and its "
            f"section in dimension {_shown(dim)} hold "
            f"{_shown(coordinates)} coordinates, over the cap of {MAX_VERIFY_ENTRIES} on tower verify"
        )
    return LevelPlan.of(m)


# ---------------------------------------------------------------------------
# Aperiodicity certificates at a truncation depth


def tower_aperiodicity_report(dim: int, delta: Fraction, m_max: int, p_max: int) -> tuple[dict, ...]:
    """Per-prime certificates about period-p points of the tower truncated at
    depth ``m_max``, in alphabet dimension ``dim`` at threshold ``delta``.

    Each prime p is decided at level min(p, m_max).  Within the depth, p
    divides the level-p gap p!, so the period-p point set of level p is empty
    and no period-p point survives to depth p; that decides the prime, no
    witness is built, and ``periodic_set_empty`` checks the verdict.  Above
    it, ``periodic_witness`` gives a witness at the top level, which shows the
    truncation cannot rule the period out (reported as undetermined at this
    depth), or the rule's statement that the top level has no period-p point
    either.  Only witnesses hold coordinates.
    """
    if dim < 1:
        raise ValueError("alphabet dimension must be positive")
    if not 0 < delta < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if m_max < 1:
        raise ValueError("truncation depth must be >= 1")
    if p_max < 2:
        raise ValueError("p_max must be >= 2")
    if p_max > MAX_APERIODICITY_PRIME:
        raise ValueError(
            f"p_max {_shown(p_max)} is over the cap of {MAX_APERIODICITY_PRIME} on "
            "aperiodicity certificates"
        )
    primes = [p for p in range(2, p_max + 1) if is_prime(p)]
    check_periodic_coordinates(
        sum(p for p in primes if p > m_max) * dim,
        "the witnesses of the primes above {} up to {} in dimension {} hold", m_max, p_max, dim,
    )
    shown = frac_to_str(delta)
    certificates: list[dict] = []
    for p in primes:
        level = min(p, m_max)
        gap = LevelPlan.of(level).gap
        record = {"prime": p, "level": level, "gap": gap}
        if level == p:
            # within the depth p divides p!, which decides the prime with no
            # witness built: the reason in the report's own words
            witness, reason = None, (
                f"{p} divides the level-{p} gap {gap}, so any period-{p} point has distance 0 "
                f"between entries {gap} apart, below the threshold {shown}"
            )
        else:
            found = periodic_witness(dim, gap, delta, p)
            witness, reason = found.witness, found.statement
        if witness is not None:
            realized = found.realized
            record.update(
                kind="witness",
                verified=check_membership(gap_space(dim, gap, delta), witness).passed,
                statement=f"a period-{p} point exists at level {level} with realized distance "
                f"{realized.numerator}/{realized.denominator}; aperiodicity for period {p} is "
                f"undetermined at depth {m_max}",
                witness=seq_to_json(witness),
            )
        else:
            record.update(
                kind="empty",
                verified=periodic_set_empty(dim, gap, delta, p),
                statement=f"{reason}: the period-{p} point set at level {level} is empty",
            )
        certificates.append(record)
    return tuple(certificates)
