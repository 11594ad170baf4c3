import json
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
    no_triple_repeat_sft,
    periodic_witness,
    random_window,
    sample_gap_window,
    sample_periodic_gap_point,
    unit_step_space,
)
from mdkit.torus import TorusSeq, TorusVec, max_circle_dist
from mdkit.tower import (
    DomainError,
    TowerElementTrunc,
    TowerSpec,
    factor_chain,
    factor_map,
    level_gap,
    random_anchor,
    section_domain,
    section_map,
    tower_aperiodicity_report,
    tower_element,
    verify_section_identity,
    verify_section_range,
    windows_agree_on_overlap,
    zero_anchor,
)

from oracles import (
    factor_map_per_entry,
    lane_edge_seq,
    mixed_den_vec,
    section_map_per_entry,
    section_value_oracle,
)

HALF = Fraction(1, 2)


def seq_of(*values):
    return TorusSeq.of(TorusVec.of(Fraction(v)) for v in values)


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
                assert max_circle_dist(y.value_at(k), y.value_at(k + q)) == \
                    max_circle_dist(x.value_at(k), x.value_at(k + big))

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
        w = periodic_witness(1, level_gap(4), HALF, 7)
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
                    assert y.value_at(k) == section_value_oracle(m, head, x, k)

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
                    x = periodic_witness(dim, level_gap(m), HALF, p)
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
                                assert verify_section_identity(m, x, y).passed
                        y = section_map(m, heads[0], grid)
                        for k in range(y.start, y.end + 1, 5):
                            assert y.value_at(k) == section_value_oracle(m, heads[0], grid, k)

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
                        n for n in checkable if max_circle_dist(x.value_at(n), x.value_at(n + gap)) < third
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
        for den in (2**14, 2**14 + 1, 2**30, 2**30 + 1, 2**61 + 1, 2**62 + 1):
            for m in (2, 3, 4):
                q, big = level_gap(m - 1), level_gap(m)
                dim = rng.choice((1, 2))
                x = Window(-big, lane_edge_seq(rng, dim, 3 * big, den))
                assert factor_map(m, x) == factor_map_per_entry(m, x)
                head = lane_edge_seq(rng, dim, (m - 1) * q, den)
                y = section_map(m, head, x)
                assert y == section_map_per_entry(m, head, x)
                assert verify_section_identity(m, x, y).passed
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
                            if max_circle_dist(point.value_at(n), point.value_at(n + big)) < threshold
                        )
                        assert check_membership(gap_space(dim, big, threshold), point).failures == failing

    def test_adjacent_step_and_word_membership(self):
        rng = random.Random(605)
        letter = {TorusVec.of(0): "0", TorusVec.of(1): "1"}
        half, unit, sft = half_step_space(), unit_step_space(), no_triple_repeat_sft()

        def ok_at(spec, x, n):
            if spec == sft:
                word = "".join(letter.get(x.value_at(n + j), "?") for j in range(3))
                return "?" not in word and word not in sft.forbidden
            d_prev, d_next = (max_circle_dist(x.value_at(n + i), x.value_at(n + i + 1)) for i in (-1, 0))
            if spec == half:
                return d_prev >= half.threshold or d_next >= half.threshold
            return d_prev == unit.value or d_next == unit.value

        seen = {}
        for _ in range(60):
            # entries 0 and 1 make both outcomes of each test common
            draw = [lambda: mixed_den_vec(rng, 1), lambda: TorusVec.of(rng.randrange(2))]
            values = TorusSeq.of(rng.choice(draw)() for _ in range(rng.randrange(1, 12)))
            for x in (Window(rng.randrange(-5, 5), values), Periodic(values)):
                for spec in (half, unit, sft):
                    if isinstance(x, Periodic):
                        checkable = range(len(values))
                    else:
                        first = x.start if spec == sft else x.start + 1
                        checkable = range(first, first + len(values) - 2)
                    failing = tuple(n for n in checkable if not ok_at(spec, x, n))
                    report = check_membership(spec, x)
                    assert report.records == checkable and report.failures == failing
                    seen.setdefault((type(x), spec), set()).add(report.verdict)
        assert all({"pass", "fail"} <= verdicts for verdicts in seen.values()) and len(seen) == 6

    def test_partition_counts_match_a_per_index_loop(self):
        rng = random.Random(606)
        for m in (2, 3, 4):
            q, big = level_gap(m - 1), level_gap(m)
            x = sample_gap_window(1, q, HALF, -big, 3 * big, rng)
            # outputs wholly below 0, straddling 0 and big, wholly above big,
            # and too short to check anything
            for start, length in ((-3 * big, 2 * big), (-big - 2, 3 * big + 5), (big + 1, 2 * big), (-1, big)):
                for y in (
                    random_window(1, start, length, rng),
                    sample_gap_window(1, big, HALF, start, length, rng),
                ):
                    counts = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
                    failures = []
                    for k in range(y.start, y.end - big + 1):
                        if k < 0:
                            counts["lower_tail"] += 1
                        elif k < big:
                            counts["base_block"] += 1
                        else:
                            counts["upper_tail"] += 1
                        if max_circle_dist(y.value_at(k), y.value_at(k + big)) < HALF:
                            failures.append(k)
                    report = verify_section_range(m, x, y, HALF)
                    assert list(report.partition_counts.items()) == list(counts.items())
                    assert report.failures == tuple(failures)


class TestSectionIdentity:
    def test_small_example_full_overlap(self):
        x = Window(0, seq_of(0, 1, 0, 1))
        report = verify_section_identity(2, x, section_map(2, zero_anchor(1, 2), x))
        assert report.passed
        assert report.overlap == (0, 3)

    def test_random_anchor_and_windows(self):
        rng = random.Random(55)
        head = random_anchor(1, 2, rng)
        windows = [random_window(1, -2, 10, rng) for _ in range(101)]
        reports = [verify_section_identity(2, x, section_map(2, head, x)) for x in windows]
        assert all(r.passed and r.overlap == (x.start, x.end) for r, x in zip(reports, windows))

    def test_corrupted_entry_fails_at_its_indices(self):
        x = random_window(1, -2, 10, random.Random(57))
        y = section_map(2, zero_anchor(1, 2), x)
        k = 3  # at level 2 output j sums entries j and j + 1: entry k feeds outputs k - 1 and k
        values = list(y.values)
        values[k - y.start] = values[k - y.start] + TorusVec.of(Fraction(1, 4))
        corrupted = Window(y.start, TorusSeq.of(values))
        report = verify_section_identity(2, x, corrupted)
        _, mismatches = windows_agree_on_overlap(factor_map(2, corrupted), x)
        assert report.failures == tuple(mismatches) == (k - 1, k)
        assert not report.passed

    def test_level_four(self):
        rng = random.Random(56)
        windows = [random_window(1, 0, 3 * level_gap(4), rng) for _ in range(21)]
        zero = zero_anchor(1, 4)
        assert all(verify_section_identity(4, x, section_map(4, zero, x)).passed for x in windows)


class TestSectionRange:
    def test_valid_window_passes_next_gap(self):
        rng = random.Random(77)
        big = level_gap(3)
        x = sample_gap_window(1, level_gap(2), HALF, -big, 3 * big, rng)
        report = verify_section_range(3, x, section_map(3, zero_anchor(1, 3), x), HALF)
        assert report.passed
        assert all(count > 0 for count in report.partition_counts.values())

    def test_random_anchor_also_passes(self):
        rng = random.Random(78)
        big = level_gap(2)
        x = sample_gap_window(2, level_gap(1), HALF, -big, 3 * big, rng)
        report = verify_section_range(2, x, section_map(2, random_anchor(2, 2, rng), x), HALF)
        assert report.passed

    def test_invalid_input_rejected(self):
        x = Window(0, TorusSeq.zero(1, 12))
        with pytest.raises(ValueError, match="gap constraint"):
            verify_section_range(2, x, section_map(2, zero_anchor(1, 2), x), HALF)


class TestTowerElement:
    def test_three_components_consistent(self):
        rng = random.Random(91)
        spec = TowerSpec(dim=1, delta=HALF, m_max=3)
        x = sample_gap_window(1, level_gap(2), HALF, 0, 13, rng)
        element = tower_element(spec, 2, x)
        assert element.depth == 3
        assert element.component(2) == x
        back = factor_map(3, element.component(3))
        ok, _ = windows_agree_on_overlap(back, element.component(2))
        assert ok

    def test_depth_one(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=1)
        x = Window(0, seq_of(0, 1))
        element = tower_element(spec, 1, x)
        assert element.depth == 1 and element.component(1) == x

    def test_zero_window_zero_anchors(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=4)
        x = Window(-6, TorusSeq.zero(1, 20))
        element = tower_element(spec, 3, x)
        for level in range(1, 5):
            assert all(v == TorusVec.zero(1) for v in element.component(level).values)

    def test_domain_failure_names_level(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=4)
        # too short for the chain down to level 1
        with pytest.raises(DomainError, match="factor map to level 1"):
            tower_element(spec, 3, Window(0, seq_of(0, 1, 0, 1, 0)))
        # chain fits but end = 3 < 3! - 1: the section to level 4 lacks its base block
        with pytest.raises(DomainError, match="section to level 4"):
            tower_element(spec, 3, Window(-2, seq_of(0, 1, 0, 1, 0, 1)))

    def test_random_anchors_still_consistent(self):
        rng = random.Random(92)
        spec = TowerSpec(
            dim=1,
            delta=HALF,
            m_max=4,
            anchors={
                3: random_anchor(1, 3, rng),
                4: random_anchor(1, 4, rng),
            },
        )
        x = sample_gap_window(1, level_gap(2), HALF, -2, 3 * level_gap(2) + 2, rng)
        element = tower_element(spec, 2, x)
        for level in range(1, 4):
            ok, _ = windows_agree_on_overlap(
                factor_map(level + 1, element.component(level + 1)),
                element.component(level),
            )
            assert ok


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

    def test_p_max_validation(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=3)
        with pytest.raises(ValueError):
            tower_aperiodicity_report(spec, 1)
        with pytest.raises(ValueError, match="over the cap of 1000"):
            tower_aperiodicity_report(spec, 1001)


class TestTowerSpec:
    def test_element_components(self):
        spec = TowerSpec(dim=1, delta=HALF, m_max=2)
        x = Window(0, seq_of(0, 1, 0, 1))
        element = tower_element(spec, 2, x)
        assert element.depth == 2
        assert element.components[1] == x

    def test_anchor_for_a_missing_level_is_zero(self):
        rng = random.Random(93)
        head = random_anchor(2, 3, rng)
        spec = TowerSpec(dim=2, delta=HALF, m_max=4, anchors={3: head})
        assert spec.anchor_for(3) == head
        assert spec.anchor_for(4) == zero_anchor(2, 4)
        assert len(spec.anchor_for(4)) == 3 * level_gap(3)

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
