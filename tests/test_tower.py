import itertools
import json
import math
import random
import warnings
from fractions import Fraction

import pytest

from mdkit import cli
from mdkit.shiftspace import (
    Periodic,
    Window,
    check_membership,
    gap_space,
    half_step_space,
    periodic_witness,
    random_window,
    sample_gap_window,
    sample_periodic_gap_point,
    unit_step_space,
)
from mdkit import torus, tower
from mdkit.torus import TorusSeq, TorusVec, max_circle_dist
from mdkit.tower import (
    MAX_VERIFY_ENTRIES,
    MAX_VERIFY_LEVEL,
    DomainError,
    LevelPlan,
    TowerSpec,
    factor_map,
    level_gap,
    random_anchor,
    section_domain,
    section_map,
    tower_aperiodicity_report,
    verify_section,
    zero_anchor,
)

from oracles import (
    factor_chain,
    factor_map_per_entry,
    gap_draws_per_entry,
    gap_failures_per_entry,
    lane_edge_seq,
    mixed_den_vec,
    section_map_per_entry,
    section_range_per_index,
    section_value_oracle,
    tower_components,
    unequal_entries,
    value_at,
)

HALF = Fraction(1, 2)


def seq_of(*values):
    return TorusSeq.of(TorusVec.of(Fraction(v)) for v in values)


def identity_failures(m, x, y):
    """The indices of x at which the level-m factor map of y differs from x,
    once the factor map is checked to cover exactly the domain of x."""
    back = factor_map(m, y)
    assert (back.start, back.end) == (x.start, x.end)
    return tuple(x.start + k for k in unequal_entries(back.seq, x.seq))


class TestLevelGap:
    def test_values(self):
        assert level_gap(1) == 1
        assert level_gap(3) == 6
        assert level_gap(5) == 120

    def test_recurrence(self):
        for m in range(2, 13):
            assert level_gap(m) == m * level_gap(m - 1)

    def test_error(self):
        with pytest.raises(ValueError):
            level_gap(0)

    def test_plan(self):
        for m in range(1, 10):
            plan = LevelPlan.of(m)
            assert (plan.stride, plan.terms) == (math.factorial(m - 1), m)
            assert plan.gap == plan.terms * plan.stride == level_gap(m)
            assert plan.head == (plan.terms - 1) * plan.stride
        for m in (0, -1):
            with pytest.raises(ValueError, match="level must be >= 1"):
                LevelPlan.of(m)

    def test_verify_level_cap_is_the_last_base_block_under_the_entry_cap(self):
        assert level_gap(MAX_VERIFY_LEVEL - 1) <= MAX_VERIFY_ENTRIES < level_gap(MAX_VERIFY_LEVEL)


class TestFactorMap:
    def test_periodic_example(self):
        x = Periodic(seq_of(0, Fraction(4, 3), Fraction(2, 3)))
        y = factor_map(2, x)
        assert y == Periodic(seq_of(Fraction(4, 3), 0, Fraction(2, 3)))
        assert check_membership(gap_space(1, 1, HALF), y).passed

    def test_zero_window_stays_zero(self):
        w = Window(0, TorusSeq.zero(2, 8))
        y = factor_map(2, w)
        assert all(v == TorusVec.zero(2) for v in y.values)
        assert (y.start, y.end) == (0, 6)

    def test_window_domain_shrink_and_error(self):
        w = Window(-1, seq_of(0, 1, 0, 1, 0, 1, 0))
        y = factor_map(3, w)  # shrink by 2 * 2! = 4
        assert (y.start, y.end) == (-1, 1)
        with pytest.raises(DomainError, match="domain shrinks to empty"):
            factor_map(3, Window(0, seq_of(0, 1, 0)))

    def test_telescoping_distance_identity(self):
        # distance between outputs one sub-gap apart equals distance between
        # inputs one full gap apart, exactly, at every checkable index
        rng = random.Random(23)
        for m in (2, 3):
            q = level_gap(m - 1)
            big = level_gap(m)
            x = random_window(2, -4, 4 + 3 * big, rng)
            y = factor_map(m, x)
            for k in range(y.start, y.end - q + 1):
                assert max_circle_dist(value_at(y, k), value_at(y, k + q)) == \
                    max_circle_dist(value_at(x, k), value_at(x, k + big))

    def test_membership_carried_to_next_level(self):
        rng = random.Random(31)
        x = sample_gap_window(1, level_gap(3), HALF, -2, 30, rng)
        y = factor_map(3, x)
        assert check_membership(gap_space(1, level_gap(2), HALF), y).passed


class TestFactorChain:
    def test_single_step(self):
        rng = random.Random(1)
        x = random_window(1, 0, 20, rng)
        assert factor_chain(3, 2, x) == factor_map(3, x)

    def test_unfolds_composition(self):
        rng = random.Random(2)
        x = random_window(1, 0, 20, rng)
        assert factor_chain(3, 1, x) == factor_map(2, factor_map(3, x))

    def test_associativity(self):
        rng = random.Random(3)
        x = random_window(2, -5, 80, rng)
        assert factor_chain(4, 1, x) == factor_chain(2, 1, factor_chain(4, 2, x))

    def test_witness_chains_to_gap_one(self):
        w = periodic_witness(1, level_gap(4), HALF, 7).witness
        down = factor_chain(4, 1, w)
        assert check_membership(gap_space(1, 1, HALF), down).passed


class TestSectionMap:
    def test_frozen_small_example(self):
        x = Window(0, seq_of(0, 1, 0, 1))
        y = section_map(2, zero_anchor(1, 2), x)
        assert (y.start, y.end) == (0, 4)
        assert [Fraction(v.nums[0], v.den) for v in y.values] == [0, 0, 1, 1, 0]

    def test_zero_input_zero_anchor(self):
        x = Window(0, TorusSeq.zero(1, 6))
        y = section_map(2, zero_anchor(1, 2), x)
        assert all(v == TorusVec.zero(1) for v in y.values)

    def test_matches_literal_case_formula(self):
        rng = random.Random(41)
        for m in (2, 3, 4):
            q = level_gap(m - 1)
            big = level_gap(m)
            for head in (zero_anchor(2, m), random_anchor(2, m, rng)):
                x = random_window(2, -big, 3 * big, rng)
                y = section_map(m, head, x)
                lo, hi = section_domain(m, x.start, x.end)
                assert (y.start, y.end) == (lo, hi)
                for k in range(lo, hi + 1):
                    assert value_at(y, k) == section_value_oracle(m, head, x, k)

    def test_domain_rule(self):
        assert section_domain(2, 0, 3) == (0, 4)
        assert section_domain(3, -4, 9) == (-4, 13)
        with pytest.raises(DomainError):
            section_domain(3, 1, 9)  # must start at or below 0
        with pytest.raises(DomainError):
            section_domain(3, 0, 0)  # must reach (m-1)! - 1

    def test_wrong_length_head_errors(self):
        x = Window(0, seq_of(0, 1, 0, 1, 0, 1))
        assert len(zero_anchor(1, 3)) == 4
        for size in (0, 1, 3, 5):
            with pytest.raises(ValueError, match="level-3 section needs a head block of 4 entries"):
                section_map(3, (TorusVec.of(0),) * size, x)

    def test_periodic_input_rejected(self):
        with pytest.raises(TypeError, match="unroll periodic points"):
            section_map(2, zero_anchor(1, 2), Periodic(seq_of(0, 1)))

    def test_anchor_dimension_mismatch(self):
        with pytest.raises(ValueError, match="alphabet dimension mismatch"):
            section_map(2, zero_anchor(2, 2), Window(0, seq_of(0, 1, 0, 1)))


class TestKernelsMatchPerEntry:
    """The whole-window kernels against the per-entry loops in ``oracles``,
    on entries over mixed denominators, so every lift to the lcm counts."""

    def test_factor_map_on_windows(self):
        rng = random.Random(601)
        for m in (2, 3, 4, 5):
            span = (m - 1) * level_gap(m - 1)
            for dim in (1, 2):
                for extra in (0, 1, 7, level_gap(m) + 3):
                    x = Window(rng.randrange(-9, 9), TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(span + 1 + extra)))
                    assert factor_map(m, x) == factor_map_per_entry(m, x)

    def test_factor_map_on_periodic_points(self):
        rng = random.Random(602)
        for m in (2, 3, 4, 5):
            for dim in (1, 2):
                for p in (1, 2, 3, 5, 6, 7, 13, 24, 31):
                    x = Periodic(TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(p)))
                    assert factor_map(m, x) == factor_map_per_entry(m, x)
                # period-p witnesses, over denominator p
                for p in (7, 11, 13):
                    x = periodic_witness(dim, level_gap(m), HALF, p).witness
                    assert factor_map(m, x) == factor_map_per_entry(m, x)

    def test_section_map(self):
        rng = random.Random(603)
        for m in (2, 3, 4, 5):
            q, big = level_gap(m - 1), level_gap(m)
            c = (m - 1) * q
            for dim in (1, 2):
                heads = (
                    zero_anchor(dim, m),
                    random_anchor(dim, m, rng),
                    TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(c)),
                )
                for lo in (0, -1, -q, -big - 3):
                    for hi in (q - 1, big, 2 * big + 1):
                        mixed = Window(lo, TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(hi - lo + 1)))
                        # a grid window (denominator 64) under a zero anchor (denominator 1)
                        grid = sample_gap_window(dim, q, HALF, lo, hi - lo + 1, rng)
                        for x in (mixed, grid):
                            for head in heads:
                                y = section_map(m, head, x)
                                assert y == section_map_per_entry(m, head, x)
                                assert identity_failures(m, x, y) == ()
                        y = section_map(m, heads[0], grid)
                        for k in range(y.start, y.end + 1, 5):
                            assert value_at(y, k) == section_value_oracle(m, heads[0], grid, k)

    def test_one_lift_section_at_levels_two_to_six(self):
        rng = random.Random(608)
        for m in (2, 3, 4, 5, 6):
            big = level_gap(m)
            for dim in (1, 2, 3):
                x = sample_gap_window(dim, level_gap(m - 1), HALF, -big, 3 * big, rng)
                for head in (zero_anchor(dim, m), random_anchor(dim, m, rng)):
                    assert section_map(m, head, x) == section_map_per_entry(m, head, x)

    def test_one_lift_section_over_two_denominators_and_edge_windows(self):
        # a head over 3 beside a window over 64, lifted once to 192; windows
        # with nothing below 0 and windows ending at (m-1)! - 1
        rng = random.Random(609)
        for m in (2, 3, 4, 5):
            q, big = level_gap(m - 1), level_gap(m)
            for dim in (1, 2):
                head = lane_edge_seq(rng, dim, (m - 1) * q, 3)
                for lo, hi in ((-big, 2 * big - 1), (0, 2 * big - 1), (-big - 1, q - 1), (0, q - 1)):
                    x = Window(lo, lane_edge_seq(rng, dim, hi - lo + 1, 64))
                    assert (head.den, x.seq.den) == (3, 64)
                    y = section_map(m, head, x)
                    assert y == section_map_per_entry(m, head, x)
                    assert (y.start, y.end) == section_domain(m, lo, hi)
                    assert identity_failures(m, x, y) == ()

    def test_gap_membership(self):
        rng = random.Random(604)
        third = Fraction(1, 3)
        seen = {Window: set(), Periodic: set()}
        for dim in (1, 2):
            for gap in (1, 2, 6, 24):
                spec = gap_space(dim, gap, third)
                points = [
                    Window(rng.randrange(-9, 9), TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(gap + 20))),
                    Window(rng.randrange(-9, 9), TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(gap))),
                    sample_gap_window(dim, gap, third, rng.randrange(-9, 9), gap + 20, rng),
                    Periodic(TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(6))),
                    Periodic(TorusSeq.of(mixed_den_vec(rng, dim) for _ in range(7))),
                    sample_periodic_gap_point(dim, gap, third, 7, rng),
                ]
                for x in points:
                    if isinstance(x, Periodic):
                        checkable = range(x.period)
                    else:
                        checkable = range(x.start, x.end - gap + 1)
                    failing = tuple(
                        n for n in checkable if max_circle_dist(value_at(x, n), value_at(x, n + gap)) < third
                    )
                    report = check_membership(spec, x)
                    assert report.records == checkable and report.failures == failing
                    assert report.verdict == ("vacuous" if not checkable else "fail" if failing else "pass")
                    seen[type(x)].add(report.verdict)
        assert seen == {Window: {"pass", "fail", "vacuous"}, Periodic: {"pass", "fail"}}

    def test_maps_and_gap_membership_across_lane_widths(self):
        # windows, sections and periodic points over denominators on both
        # sides of each lane-width switch of the packed kernels, with
        # numerators next to 0, den and 2*den
        rng = random.Random(607)
        for den in (64, 65, 2**14, 2**14 + 1, 2**30, 2**30 + 1, 2**61 + 1, 2**62 + 1):
            for m in (2, 3, 4):
                q, big = level_gap(m - 1), level_gap(m)
                dim = rng.choice((1, 2))
                x = Window(-big, lane_edge_seq(rng, dim, 3 * big, den))
                assert factor_map(m, x) == factor_map_per_entry(m, x)
                head = lane_edge_seq(rng, dim, (m - 1) * q, den)
                y = section_map(m, head, x)
                assert y == section_map_per_entry(m, head, x)
                assert identity_failures(m, x, y) == ()
                periodic = Periodic(lane_edge_seq(rng, dim, rng.randrange(1, 14), den))
                assert factor_map(m, periodic) == factor_map_per_entry(m, periodic)
                for point in (x, y, periodic):
                    if isinstance(point, Periodic):
                        checkable = range(point.period)
                    else:
                        checkable = range(point.start, point.end - big + 1)
                    for threshold in (Fraction(1, 3), Fraction(den - 1, den), Fraction(1)):
                        failing = tuple(
                            n for n in checkable
                            if max_circle_dist(value_at(point, n), value_at(point, n + big)) < threshold
                        )
                        assert check_membership(gap_space(dim, big, threshold), point).failures == failing

    def test_adjacent_step_and_word_membership(self):
        rng = random.Random(605)
        half, unit = half_step_space(), unit_step_space()

        def ok_at(spec, x, n):
            d_prev, d_next = (max_circle_dist(value_at(x, n + i), value_at(x, n + i + 1)) for i in (-1, 0))
            if spec == half:
                return d_prev >= half.threshold or d_next >= half.threshold
            return d_prev == 1 or d_next == 1

        seen = {}
        for _ in range(60):
            # entries 0 and 1 make both outcomes of each test common
            draw = [lambda: mixed_den_vec(rng, 1), lambda: TorusVec.of(rng.randrange(2))]
            values = TorusSeq.of(rng.choice(draw)() for _ in range(rng.randrange(1, 12)))
            for x in (Window(rng.randrange(-5, 5), values), Periodic(values)):
                for spec in (half, unit):
                    if isinstance(x, Periodic):
                        checkable = range(len(values))
                    else:
                        checkable = range(x.start + 1, x.start + len(values) - 1)
                    failing = tuple(n for n in checkable if not ok_at(spec, x, n))
                    report = check_membership(spec, x)
                    assert report.records == checkable and report.failures == failing
                    seen.setdefault((type(x), spec), set()).add(report.verdict)
        assert all({"pass", "fail"} <= verdicts for verdicts in seen.values()) and len(seen) == 4

    def test_partition_counts_match_a_per_index_loop(self):
        rng = random.Random(606)
        for m in (2, 3, 4):
            q, big = level_gap(m - 1), level_gap(m)
            # checkable section indices k in [lo, hi - q]: wholly below 0,
            # straddling 0 and big, from 0 up, and a single one
            for lo, hi in ((-3 * big, q - 1), (-big - 2, 2 * big + q + 3), (0, big + q + 1), (0, q)):
                x = sample_gap_window(1, q, HALF, lo, hi - lo + 1, rng)
                for head in (zero_anchor(1, m), random_anchor(1, m, rng)):
                    counts, failures = section_range_per_index(m, section_map(m, head, x), HALF)
                    report = verify_section(m, head, x, HALF)
                    assert list(report.partition_counts.items()) == list(counts.items())
                    assert report.range_failures == failures == ()
                    assert sum(counts.values()) == len(x.seq) - q


class TestVerifySection:
    """``verify_section``, one kernel, against the per-entry maps and range
    loop of ``oracles``."""

    def test_matches_the_per_entry_maps_and_range_loop(self):
        rng = random.Random(610)
        for m in (2, 3, 4, 5, 6):
            q, big = level_gap(m - 1), level_gap(m)
            # outputs below 0, in the base block and past it
            lo, hi = -q - 1, big + q + 1
            for dim in (1, 2, 3):
                for den in (1, 3, 64):
                    rows = gap_draws_per_entry(rng, dim, hi - lo + 1, q, HALF, den)[0]
                    x = Window(lo, TorusSeq.of(rows))
                    # heads over each denominator but the window's
                    heads = [zero_anchor(dim, m)] + [
                        lane_edge_seq(rng, dim, (m - 1) * q, d) for d in (3, 64) if d != den
                    ]
                    for head in heads:
                        y = section_map_per_entry(m, head, x)
                        back = factor_map_per_entry(m, y)
                        expected = tuple(k for k in range(lo, hi + 1) if value_at(back, k) != value_at(x, k))
                        counts, failures = section_range_per_index(m, y, HALF)
                        report = verify_section(m, head, x, HALF)
                        assert report.identity_failures == expected == ()
                        assert report.partition_counts == counts
                        assert report.range_failures == failures == ()
                        assert all(counts.values())

    def test_refusals_match_the_window_own_gap_test(self):
        # windows on the k/den grid that fail their own constraint at some
        # thresholds and not at others
        rng = random.Random(611)
        for m in (2, 3, 4):
            q = level_gap(m - 1)
            for den in (1, 3, 64):
                for threshold in (Fraction(1, 3), HALF, Fraction(1)):
                    x = Window(-q, lane_edge_seq(rng, 2, 3 * q + 1, den))
                    head = zero_anchor(2, m)
                    if gap_failures_per_entry(x.seq, q, threshold, False):
                        with pytest.raises(ValueError, match="^input window does not satisfy its own gap constraint$"):
                            verify_section(m, head, x, threshold)
                    else:
                        y = section_map_per_entry(m, head, x)
                        assert verify_section(m, head, x, threshold).range_failures == section_range_per_index(
                            m, y, threshold
                        )[1]

    def test_a_wrong_solved_lane_is_named_by_both_checks(self, monkeypatch):
        # the window x[i] = floor((i - lo) / q) * 33/64 keeps every pair a
        # sub-gap apart at +33/64, so does every pair of the section a gap
        # apart; adding 1/64 to entry j of the solved section moves the pair
        # (j, j + m!) to 32/64, below the threshold, and the pair (j - m!, j)
        # to 34/64, and changes the factor sums at j - t*(m-1)!
        threshold = Fraction(33, 64)
        solve = torus._solve_lanes
        for m in (2, 3, 4):
            q, big = level_gap(m - 1), level_gap(m)
            lo = -big
            x = Window(lo, TorusSeq([[(i // q) * 33 for i in range(3 * big)]], 64))
            head = random_anchor(1, m, random.Random(m))
            report = verify_section(m, head, x, threshold)
            assert report.identity_failures == report.range_failures == ()
            for j in (0, big - 1, big + 1, 2 * big - 1):  # lower tail, base block, upper tail
                def bumped(*args, j=j):
                    ys = solve(*args)
                    width, full = args[-2:]
                    bits = 8 * width
                    lane = ys[0] >> j * bits & (1 << bits) - 1
                    ys[0] += ((lane + 1) % full - lane) << j * bits
                    return ys

                monkeypatch.setattr(torus, "_solve_lanes", bumped)
                report = verify_section(m, head, x, threshold)
                monkeypatch.undo()
                at = lo + j
                assert report.range_failures == (at,)
                assert report.identity_failures == tuple(
                    k for k in (at - t * q for t in range(m - 1, -1, -1)) if x.start <= k <= x.end
                )

    def test_window_too_short_is_refused(self):
        for m in (2, 3, 4):
            q = level_gap(m - 1)
            x = Window(0, TorusSeq.zero(1, q))
            with pytest.raises(ValueError, match=(
                f"^input window of {q} entries is too short to check anything: "
                f"the level-{m - 1} gap constraint needs more than {q} entries$"
            )):
                verify_section(m, zero_anchor(1, m), x, HALF)

    def test_section_checks_come_first(self):
        x = Window(0, seq_of(0, 1, 0, 1))
        with pytest.raises(ValueError, match="level-2 section needs a head block of 1 entries"):
            verify_section(2, zero_anchor(1, 3), x, HALF)
        with pytest.raises(DomainError, match="section at level 3 needs"):
            verify_section(3, zero_anchor(1, 3), Window(1, seq_of(0, 1, 0, 1)), HALF)
        with pytest.raises(TypeError, match="unroll periodic points"):
            verify_section(2, zero_anchor(1, 2), Periodic(seq_of(0, 1)), HALF)
        for threshold in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
                verify_section(2, zero_anchor(1, 2), x, threshold)


class TestSectionIdentity:
    def test_small_example_full_overlap(self):
        x = Window(0, seq_of(0, 1, 0, 1))
        y = section_map(2, zero_anchor(1, 2), x)
        assert verify_section(2, zero_anchor(1, 2), x, HALF).identity_failures == ()
        back = factor_map(2, y)
        assert (back.start, back.end) == (0, 3)

    def test_random_anchor_and_windows(self):
        rng = random.Random(55)
        head = random_anchor(1, 2, rng)
        windows = [random_window(1, -2, 10, rng) for _ in range(101)]
        # identity_failures also checks that the factor map covers the whole window
        assert all(identity_failures(2, x, section_map(2, head, x)) == () for x in windows)

    def test_corrupted_entry_fails_at_its_indices(self):
        x = random_window(1, -2, 10, random.Random(57))
        y = section_map(2, zero_anchor(1, 2), x)
        k = 3  # at level 2 output j sums entries j and j + 1: entry k feeds outputs k - 1 and k
        values = list(y.values)
        values[k - y.start] = values[k - y.start] + TorusVec.of(Fraction(1, 4))
        corrupted = Window(y.start, TorusSeq.of(values))
        mismatches = [x.start + i for i in unequal_entries(factor_map(2, corrupted).seq, x.seq)]
        assert identity_failures(2, x, corrupted) == tuple(mismatches) == (k - 1, k)

    def test_corrupted_entry_is_named_below_zero_in_the_base_block_and_upper_tail(self):
        # output j of the level-m factor map sums entries j, j + q, ..,
        # j + (m-1)*q of y, so a corrupted entry k shows at exactly the
        # overlap indices k - t*q
        rng = random.Random(58)
        for m in (2, 3, 4):
            q, big = level_gap(m - 1), level_gap(m)
            x = random_window(2, -2 * big, 4 * big, rng)
            y = section_map(m, random_anchor(2, m, rng), x)
            for k in (-big - 1, -1, 0, big - 1, big, y.end):
                values = list(y.values)
                values[k - y.start] = values[k - y.start] + TorusVec.of(0, Fraction(1, 4))
                failures = identity_failures(m, x, Window(y.start, TorusSeq.of(values)))
                named = tuple(j for j in (k - t * q for t in range(m - 1, -1, -1)) if x.start <= j <= x.end)
                assert failures == named and named

    def test_level_four(self):
        rng = random.Random(56)
        windows = [random_window(1, 0, 3 * level_gap(4), rng) for _ in range(21)]
        zero = zero_anchor(1, 4)
        assert all(identity_failures(4, x, section_map(4, zero, x)) == () for x in windows)


class TestSectionRange:
    def test_valid_window_passes_next_gap(self):
        rng = random.Random(77)
        big = level_gap(3)
        x = sample_gap_window(1, level_gap(2), HALF, -big, 3 * big, rng)
        report = verify_section(3, zero_anchor(1, 3), x, HALF)
        assert report.range_failures == ()
        assert all(count > 0 for count in report.partition_counts.values())

    def test_random_anchor_also_passes(self):
        rng = random.Random(78)
        big = level_gap(2)
        x = sample_gap_window(2, level_gap(1), HALF, -big, 3 * big, rng)
        report = verify_section(2, random_anchor(2, 2, rng), x, HALF)
        assert report.range_failures == ()

    def test_invalid_input_rejected(self):
        x = Window(0, TorusSeq.zero(1, 12))
        with pytest.raises(ValueError, match="gap constraint"):
            verify_section(2, zero_anchor(1, 2), x, HALF)
        # one entry of a valid window moved onto the entry one gap back; the
        # check that passes the valid window refuses it
        rng = random.Random(79)
        for m in (2, 3, 4):
            q, big = level_gap(m - 1), level_gap(m)
            x = sample_gap_window(2, q, HALF, -big, 3 * big, rng)
            assert verify_section(m, zero_anchor(2, m), x, HALF).range_failures == ()
            values = list(x.values)
            values[big] = values[big - q]
            bad = Window(x.start, TorusSeq.of(values))
            with pytest.raises(ValueError, match="does not satisfy its own gap constraint"):
                verify_section(m, zero_anchor(2, m), bad, HALF)


class TestTowerElement:
    """Windows at several levels, built by ``oracles.tower_components``,
    agree under the factor maps."""

    def test_three_components_consistent(self):
        rng = random.Random(91)
        x = sample_gap_window(1, level_gap(2), HALF, 0, 13, rng)
        components = tower_components(2, x, 3)
        assert sorted(components) == [1, 2, 3]
        assert components[2] == x
        assert factor_map(3, components[3]) == components[2]

    def test_depth_one(self):
        x = Window(0, seq_of(0, 1))
        assert tower_components(1, x, 1) == {1: x}

    def test_zero_window_zero_anchors(self):
        x = Window(-6, TorusSeq.zero(1, 20))
        components = tower_components(3, x, 4)
        for level in range(1, 5):
            assert all(v == TorusVec.zero(1) for v in components[level].values)

    def test_domain_failure_names_level(self):
        # too short for the chain down to level 1: the level-2 factor map
        # of the single level-2 entry is empty
        with pytest.raises(DomainError, match="domain shrinks to empty"):
            tower_components(3, Window(0, seq_of(0, 1, 0, 1, 0)), 4)
        # chain fits but end = 3 < 3! - 1: the section to level 4 lacks its base block
        with pytest.raises(DomainError, match=r"section at level 4 needs the input window to cover \[0, 5\]"):
            tower_components(3, Window(-2, seq_of(0, 1, 0, 1, 0, 1)), 4)

    def test_random_anchors_still_consistent(self):
        rng = random.Random(92)
        heads = {3: random_anchor(1, 3, rng), 4: random_anchor(1, 4, rng)}
        x = sample_gap_window(1, level_gap(2), HALF, -2, 3 * level_gap(2) + 2, rng)
        components = tower_components(2, x, 4, heads)
        for level, head in heads.items():
            y = components[level]
            assert y.seq[-y.start : len(head) - y.start] == head
        for level in range(1, 4):
            assert factor_map(level + 1, components[level + 1]) == components[level]


class TestAperiodicity:
    def test_certificates(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=5)
        certificates = tower_aperiodicity_report(spec, 13)
        assert all(c["verified"] for c in certificates)
        by_prime = {c["prime"]: c for c in certificates}
        assert set(by_prime) == {2, 3, 5, 7, 11, 13}
        for p in (2, 3, 5):
            assert by_prime[p]["kind"] == "empty"
            assert by_prime[p]["level"] == p
            assert by_prime[p]["gap"] % p == 0
        for p in (7, 11, 13):
            assert by_prime[p]["kind"] == "witness"
            assert by_prime[p]["level"] == 5
            assert "undetermined" in by_prime[p]["statement"]

    def test_witness_gap_value(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=5)
        witness_cert = [c for c in tower_aperiodicity_report(spec, 7) if c["prime"] == 7][0]
        values = witness_cert["witness"]["values"]
        assert len(values) == 7
        assert "6/7" in witness_cert["statement"]

    def test_witness_statement_names_the_realized_distance(self):
        # the statement's distance is the smallest one between witness
        # entries a gap apart: 1 for the period-2 witness, not 1 - 1/2
        spec = TowerSpec(dim=2, delta=HALF, m_max=1)
        stated = {}
        for cert in tower_aperiodicity_report(spec, 13):
            values = [TorusVec.of(*map(Fraction, v)) for v in cert["witness"]["values"]]
            p, gap = len(values), cert["gap"]
            realized = min(max_circle_dist(values[k], values[(k + gap) % p]) for k in range(p))
            stated[p] = cert["statement"].split("realized distance ")[1].split(";")[0]
            assert Fraction(stated[p]) == realized
        assert stated[2] == "1/1" and stated[3] == "2/3"

    def test_each_prime_gets_its_own_verdict(self):
        # at depth 2 (gap 2) and 4/5, period 3 is empty in one coordinate,
        # where its witness once refused the whole report, and has the corner
        # witness in two
        for dim, kind_3 in ((1, "empty"), (2, "witness")):
            by_prime = {c["prime"]: c for c in tower_aperiodicity_report(TowerSpec(dim, Fraction(4, 5), 2), 13)}
            assert all(c["verified"] for c in by_prime.values())
            assert [by_prime[p]["kind"] for p in (2, 3, 5, 7, 11, 13)] == ["empty", kind_3] + ["witness"] * 4
            assert by_prime[3]["level"] == 2 and by_prime[3]["gap"] == 2
        assert by_prime[3]["statement"].startswith("a period-3 point exists at level 2 with realized distance 1/1")
        empty = tower_aperiodicity_report(TowerSpec(1, Fraction(4, 5), 2), 3)[1]
        assert empty["statement"].endswith("[12/5, 18/5]; there is none: the period-3 point set at level 2 is empty")

    def test_no_witness_is_built_within_the_depth(self, monkeypatch):
        # within the depth p divides the level-p gap p!, which decides the
        # prime: the witness finds none there, and the report asks it only
        # for the primes above the depth
        witness = tower.periodic_witness
        asked = []
        monkeypatch.setattr(tower, "periodic_witness", lambda *args: asked.append(args[3]) or witness(*args))
        deltas = (Fraction(1, 64), HALF, Fraction(2, 3), Fraction(4, 5), Fraction(63, 64))
        for dim, delta, m_max in itertools.product((1, 2, 3), deltas, range(1, 7)):
            for p in (2, 3, 5):
                if p <= m_max:
                    assert witness(dim, level_gap(p), delta, p).witness is None, (dim, delta, p)
            asked.clear()
            certificates = tower_aperiodicity_report(TowerSpec(dim, delta, m_max), 13)
            assert asked == [c["prime"] for c in certificates if c["prime"] > m_max], (dim, delta, m_max)
            assert all(c["verified"] for c in certificates)

    def test_emptiness_is_decided_before_any_coordinate(self):
        # p * N is over the cap for every prime, but each is empty within the depth
        certificates = tower_aperiodicity_report(TowerSpec(50_000, HALF, 5), 5)
        assert [(c["kind"], c["verified"]) for c in certificates] == [("empty", True)] * 3

    def test_p_max_validation(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=3)
        with pytest.raises(ValueError):
            tower_aperiodicity_report(spec, 1)
        with pytest.raises(ValueError, match="over the cap of 1000"):
            tower_aperiodicity_report(spec, 1001)


class TestTowerSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TowerSpec(dim=1, delta=Fraction(3, 2), m_max=2)
        with pytest.raises(ValueError):
            TowerSpec(dim=1, delta=HALF, m_max=0)
        for dim in (0, -1):
            with pytest.raises(ValueError, match="alphabet dimension must be positive"):
                TowerSpec(dim=dim, delta=HALF, m_max=2)


class TestLevelSeven:
    """Depth 7 runs in seconds and warns about nothing."""

    def run(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(list(argv))
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        lines = captured.err.splitlines()
        assert lines == [f"{c['name']}: {c['verdict']}" for c in report["checks"]] + [
            "summary: pass"
        ]
        return code, report

    def test_aperiodicity_certifies_prime_seven_empty(self, capsys):
        code, report = self.run(capsys, "tower", "aperiodicity", "--m-max", "7", "--p-max", "13")
        assert code == 0
        by_prime = {c["witness"]["prime"]: c["witness"] for c in report["checks"]}
        assert by_prime[7]["kind"] == "empty"
        assert by_prime[7]["level"] == 7 and by_prime[7]["gap"] == level_gap(7)
        for p in (11, 13):
            assert by_prime[p]["kind"] == "witness" and by_prime[p]["level"] == 7

    def test_verify_passes(self, capsys):
        code, report = self.run(
            capsys,
            "tower", "verify", "--m", "7", "--N", "2", "--window", "0:6000",
            "--samples", "2", "--anchors", "random", "--seed", "1",
        )
        assert code == 0
        assert report["summary"]["verdict"] == "pass"
