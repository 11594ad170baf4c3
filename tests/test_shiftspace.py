import collections
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from mdkit import shiftspace
from mdkit.shiftspace import (
    GapAtLeast,
    Periodic,
    Window,
    check_membership,
    count_periodic_sft,
    count_periodic_sft_bruteforce,
    gap_space,
    half_step_space,
    periodic_set_empty,
    periodic_witness,
    power_map,
    random_torus_vec,
    sample_gap_window,
    sample_periodic_gap_point,
    seq_to_json,
    shift,
    unit_step_space,
    unroll,
    verify_conjugacy_diagram,
)
from mdkit.torus import TorusSeq, frac_from_str, max_circle_dist
from mdkit.tower import random_anchor
from oracles import (
    best_periodic_gap,
    closed_grid_walk_lengths,
    closed_product_walk_lengths,
    conjugacy_failures_per_sample,
    count_circular_words_per_length,
    count_periodic_sft_strings,
    cycle_closes_by_fractions,
    gap_draws_per_entry,
    lane_edge_seq,
    mixed_den_vec,
    periodic_set_empty_by_fractions,
    power_map_per_entry,
    sample_gap_window_per_entry,
    sample_periodic_gap_point_per_entry,
    sample_periodic_gap_point_whole_period,
    seq,
    shift_per_entry,
    value_at,
    vec,
)


def seq_of(*values):
    return seq(vec(Fraction(v)) for v in values)


HALF = Fraction(1, 2)


def chi_square(observed, weights, samples):
    """Pearson's statistic of ``samples`` draws counted in ``observed``
    against cells with probability proportional to ``weights``."""
    total = sum(weights.values())
    return sum((observed[c] - samples * w / total) ** 2 / (samples * w / total) for c, w in weights.items())


def chi_square_bound(df):
    """The chi-square quantile at 0.999 on ``df`` degrees of freedom, by the
    Wilson-Hilferty cube (within 1% from 10 degrees of freedom on)."""
    z, a = 3.0902, 2 / (9 * df)
    return df * (1 - a + z * math.sqrt(a)) ** 3


class TestShift:
    def test_periodic_rotation(self):
        a, b, c = seq_of(0, Fraction(1, 3), 1)
        assert shift(Periodic(seq((a, b, c))), 1) == Periodic(seq((b, c, a)))

    def test_zero_shift_is_identity(self):
        x = Periodic(seq_of(0, 1))
        assert shift(x, 0) == x
        w = Window(2, seq_of(1, 0))
        assert shift(w, 0) == w

    def test_window_reindexes(self):
        w = Window(0, seq_of(Fraction(1, 4), Fraction(3, 4)))
        assert shift(w, 2) == Window(-2, w.seq)

    def test_shift_inverse(self):
        rng = random.Random(3)
        x = Periodic(seq(random_torus_vec(rng, 2) for _ in range(5)))
        w = Window(-3, seq(random_torus_vec(rng, 2) for _ in range(4)))
        for k in (-4, -1, 0, 2, 7):
            assert shift(shift(x, k), -k) == x
            assert shift(shift(w, k), -k) == w


class TestMembership:
    def test_gap_one_pass(self):
        x = Periodic(seq_of(0, 1))
        report = check_membership(gap_space(1, 1, HALF), x)
        assert report.verdict == "pass"
        assert report.records == range(2) and report.failures == ()
        assert all(max_circle_dist(value_at(x, n), value_at(x, n + 1)) == 1 for n in report.records)

    def test_gap_dividing_period_fails_everywhere(self):
        x = Periodic(seq_of(0, 1))
        report = check_membership(gap_space(1, 2, HALF), x)
        assert report.verdict == "fail"
        assert report.failures == tuple(report.records) == (0, 1)
        assert all(max_circle_dist(value_at(x, n), value_at(x, n + 2)) == 0 for n in report.records)

    def test_window_vacuous_distinct_from_pass(self):
        w = Window(0, seq_of(0, 1))
        report = check_membership(gap_space(1, 5, HALF), w)
        assert report.verdict == "vacuous"
        assert len(report.records) == 0 and report.failures == ()
        assert not report.passed

    def test_adjacent_step_window_too_short_is_vacuous(self):
        w = Window(0, seq_of(0, 1))
        assert check_membership(unit_step_space(), w).verdict == "vacuous"
        assert check_membership(half_step_space(), w).verdict == "vacuous"

    def test_window_checkable_indices(self):
        w = Window(-1, seq_of(0, 1, 0, 1))
        report = check_membership(gap_space(1, 2, HALF), w)
        assert list(report.records) == [-1, 0]

    def test_either_or_spaces(self):
        z = Periodic(seq_of(0, HALF))
        assert check_membership(half_step_space(), z).verdict == "pass"
        y = Periodic(seq_of(0, 1))
        assert check_membership(unit_step_space(), y).verdict == "pass"
        almost = Periodic(seq_of(0, Fraction(99, 100)))
        assert check_membership(unit_step_space(), almost).verdict == "fail"

    def test_adjacent_steps_match_the_per_entry_oracle_on_lane_edges(self):
        # the adjacent steps are decided on packed lanes: numerators at the
        # lane edges, over denominators on both sides of each lane-width
        # switch; the unit space is checked against the rule "a step of
        # exactly 1", the half space against "a step of at least 1/2"
        rng = random.Random(1207)
        rules = {half_step_space(): lambda d: d >= HALF, unit_step_space(): lambda d: d == 1}
        outcomes = set()
        # 64 and 65 last: the draws before them reach every outcome counted below
        for den in (2**14 - 1, 2**14, 2**14 + 1, 2**30 - 1, 2**30, 2**30 + 1, 2**62 - 1, 2**62, 2**62 + 1, 64, 65):
            for n in (*range(1, 9), 40):
                seq = lane_edge_seq(rng, 1, n, den)
                for x in (Periodic(seq), Window(rng.randrange(-3, 4), seq)):
                    checkable = range(n) if isinstance(x, Periodic) else range(x.start + 1, x.end)

                    def step(k):
                        return max_circle_dist(value_at(x, k), value_at(x, k + 1))

                    for spec, far in rules.items():
                        failing = tuple(k for k in checkable if not (far(step(k - 1)) or far(step(k))))
                        report = check_membership(spec, x)
                        assert report.records == checkable and report.failures == failing
                        verdict = "fail" if failing else "pass" if checkable else "vacuous"
                        assert report.verdict == verdict
                        outcomes.add((spec, type(x), verdict))
        assert len(outcomes) == 10  # pass and fail on both kinds, vacuous windows, per space

    def test_shift_invariance_of_verdict(self):
        rng = random.Random(11)
        specs = [gap_space(2, 2, HALF), half_step_space(), unit_step_space()]
        for spec in specs:
            x = Periodic(seq(random_torus_vec(rng, spec.dim) for _ in range(6)))
            base = check_membership(spec, x).verdict
            for k in range(1, 6):
                assert check_membership(spec, shift(x, k)).verdict == base

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="alphabet dimension mismatch"):
            check_membership(gap_space(2, 1, HALF), Periodic(seq_of(0, 1)))


class TestPowerMap:
    def test_identity(self):
        x = Periodic(seq_of(0, 1, Fraction(1, 3)))
        assert power_map(1, x) == x

    def test_explicit_permutation(self):
        v = seq_of(0, Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))
        y = power_map(2, Periodic(v))
        assert y.values == (v[0], v[2], v[4], v[1], v[3])

    def test_inverse_composition(self):
        rng = random.Random(5)
        for p in (3, 5, 7):
            x = Periodic(seq(random_torus_vec(rng, 1) for _ in range(p)))
            for j in range(1, p):
                k = pow(j, -1, p)
                assert power_map(k, power_map(j, x)) == x

    def test_bijection_on_period_p_points(self):
        # dilation by j permutes the residue indices when gcd(j, p) = 1
        p, j = 7, 3
        assert sorted((i * j) % p for i in range(p)) == list(range(p))

    def test_requires_periodic(self):
        with pytest.raises(ValueError, match="periodic"):
            power_map(2, Window(0, seq_of(0, 1)))

    def test_index_maps_match_the_per_entry_oracles(self):
        # every shift and dilation, a bijection of the residues or not, equals
        # the point rebuilt vector by vector, in value and in hash
        rng = random.Random(29)
        for p in range(1, 32):
            for dim in (1, 2, 3):
                x = Periodic(seq(mixed_den_vec(rng, dim) for _ in range(p)))
                coprime = next(j for j in itertools.count(rng.randint(1, 2 * p)) if math.gcd(j, p) == 1)
                shared = next((j for j in range(2, p) if math.gcd(j, p) > 1), p)
                for j in (0, -1, -coprime, coprime, shared, shared + p, rng.randint(-3 * p, 3 * p)):
                    expected = power_map_per_entry(j, x)
                    got = power_map(j, x)
                    assert got == expected and hash(got) == hash(expected), (p, dim, j)
                for k in (0, 1, -1, rng.randint(-3 * p, 3 * p)):
                    expected = shift_per_entry(x, k)
                    got = shift(x, k)
                    assert got == expected and hash(got) == hash(expected), (p, dim, k)

    def test_non_bijection_reduces_the_denominator(self):
        # dilation by 2 at period 2 keeps only the entry 1/2, over 2, not 4
        x = Periodic(seq_of(HALF, Fraction(1, 4)))
        y = power_map(2, x)
        assert y == Periodic(seq_of(HALF, HALF)) and y.seq.den == 2
        assert hash(y) == hash(Periodic(seq_of(HALF, HALF)))


class TestConjugacyDiagram:
    def test_small_diagram_passes(self):
        k, identities = verify_conjugacy_diagram(1, 2, HALF, 5, samples=10, seed=7)
        assert all(i.ok for i in identities)
        assert k == 3
        assert {i.name for i in identities} == {
            "dilation_m_lands_in_gap1",
            "dilation_k_lands_in_gapm",
            "dilation_k_then_m_is_identity",
            "dilation_m_then_k_is_identity",
            "shift_intertwines_dilation_m",
            "shift_intertwines_dilation_k",
        }

    def test_failures_are_sample_indices(self, monkeypatch):
        # with every sample a constant point, outside both spaces, the two
        # membership identities fail at every sample and the four exact
        # identities still hold
        drawn = []

        def constant(dim, gap, threshold, period, points, rng):
            drawn.append((gap, points))
            return [TorusSeq(((rng.randrange(128),) * period,) * dim, 64) for _ in range(points)]

        monkeypatch.setattr(shiftspace, "_periodic_walks", constant)
        _, identities = verify_conjugacy_diagram(1, 2, HALF, 5, samples=4, seed=7)
        # one draw call per side, the gap-m side first
        assert drawn == [(2, 4), (1, 4)]
        failures = {identity.name: identity.failures for identity in identities}
        assert failures.pop("dilation_m_lands_in_gap1") == (0, 1, 2, 3)
        assert failures.pop("dilation_k_lands_in_gapm") == (0, 1, 2, 3)
        assert list(failures.values()) == [(), (), (), ()]
        assert [identity.ok for identity in identities] == [False, False, True, True, True, True]

    def test_sampler_decides_once_per_side(self, monkeypatch):
        # each side's threshold and grid emptiness are decided once, not per sample
        decided = []
        closes = shiftspace._cycle_closes
        monkeypatch.setattr(shiftspace, "_cycle_closes", lambda *args: decided.append(args) or closes(*args))
        shiftspace._periodic_plan.cache_clear()
        _, identities = verify_conjugacy_diagram(2, 3, Fraction(3, 8), 7, samples=6, seed=4)
        assert all(i.ok for i in identities)
        assert decided == [(2, Fraction(3, 8), 7), (2, Fraction(3, 8), 7)]

    def test_degenerate_m_equals_one(self):
        k, identities = verify_conjugacy_diagram(1, 1, HALF, 5, samples=5, seed=1)
        assert all(i.ok for i in identities)
        assert k == 1

    def test_dim_two(self):
        _, identities = verify_conjugacy_diagram(2, 3, Fraction(1, 3), 7, samples=5, seed=2)
        assert all(i.ok for i in identities)

    def test_requires_p_above_m(self):
        with pytest.raises(ValueError, match="diagram requires p > m"):
            verify_conjugacy_diagram(1, 5, HALF, 5, samples=1, seed=0)


def loose_walks(dim, gap, threshold, period, points, rng):
    """``points`` walks of ``period`` entries with coordinates 0 or 1, in the gap space or not."""
    return [TorusSeq([[rng.randrange(2) for _ in range(period)] for _ in range(dim)], 1) for _ in range(points)]


class TestStackedDiagram:
    """The diagram checks each side's samples at once, as one CRT-stacked point
    per run; its failures must be the per-sample oracle's, sample by sample."""

    @staticmethod
    def failures(monkeypatch, walker, dim, m, p, samples, seed):
        drawn = []

        def walks(*args):
            drawn.append((args[1], walker(*args)))
            return list(drawn[-1][1])  # the diagram consumes the list it is given

        monkeypatch.setattr(shiftspace, "_periodic_walks", walks)
        k, identities = verify_conjugacy_diagram(dim, m, HALF, p, samples, seed)
        assert all(identity.checked == samples for identity in identities)
        assert [(gap, len(walks)) for gap, walks in drawn] == [(m, samples), (1, samples)]
        # step t of a walk at gap g sits at residue t*g mod p, so residue i
        # holds step i/g mod p
        points = [
            [Periodic(walk.take([i * pow(gap, -1, p) % p for i in range(p)])) for walk in walks]
            for gap, walks in drawn
        ]
        got = [identity.failures for identity in identities]
        assert got == conjugacy_failures_per_sample(*points, m, k, HALF), (dim, m, p, samples, seed)
        return got

    @pytest.mark.parametrize("p, m", [(5, 2), (7, 3), (4, 3), (9, 2), (6, 5), (13, 4)])
    def test_stacked_failures_equal_per_sample_failures(self, monkeypatch, p, m):
        mixed = 0
        walks = shiftspace._periodic_walks
        for dim in (1, 2, 3):
            for samples in sorted({1, 2, 3, p, 2 * p, 24}):
                seed = 100 * p + 10 * dim + samples
                seeded = self.failures(monkeypatch, walks, dim, m, p, samples, seed)
                assert seeded == [()] * 6
                loose = self.failures(monkeypatch, loose_walks, dim, m, p, samples, seed)
                mixed += any(0 < len(found) < samples for found in loose)
        # some runs hold both samples in the space and samples outside it
        assert mixed

    def test_runs_are_coprime_and_cover_the_samples(self):
        for p in (2, 3, 4, 6, 9, 12, 30, 97, 300):
            for samples in range(1, 50):
                runs = shiftspace._coprime_runs(samples, p)
                assert sum(runs) == samples
                assert all(math.gcd(run, p) == 1 for run in runs)
                assert all(run * p <= shiftspace.MAX_STACKED_PERIOD or run == 1 for run in runs)
        # p = 3 divides 24 samples: a run of 23 and a run of 1
        assert shiftspace._coprime_runs(24, 3) == [23, 1]

    def test_one_call_per_identity_and_side(self, monkeypatch):
        # 24 samples of period 5 stack into one period-120 point per side,
        # each side's walks drawn in one call: two membership checks of two
        # dilated points, and the four equalities on their columns
        calls = collections.Counter()
        for name in ("_periodic_walks", "sample_periodic_gap_point", "check_membership", "power_map", "shift"):
            original = getattr(shiftspace, name)
            monkeypatch.setattr(
                shiftspace, name, lambda *args, name=name, original=original: calls.update([name]) or original(*args)
            )
        assert shiftspace._coprime_runs(24, 5) == [24]
        assert all(i.ok for i in verify_conjugacy_diagram(2, 2, HALF, 5, samples=24, seed=3)[1])
        assert calls == {"_periodic_walks": 2, "check_membership": 2, "power_map": 2}

    def test_a_single_sample_is_the_point_itself(self, monkeypatch):
        # one sample is not stacked: its lifts are m, k, 1 and m themselves
        seen = []
        power = shiftspace.power_map
        monkeypatch.setattr(shiftspace, "power_map", lambda j, x: seen.append((j, x.period)) or power(j, x))
        k, identities = verify_conjugacy_diagram(1, 3, HALF, 7, samples=1, seed=2)
        assert all(i.ok for i in identities) and k == 5
        assert sorted(set(seen)) == [(3, 7), (5, 7)]


class TestSftCounts:
    def test_frozen_counts(self):
        forbidden = {"000", "111"}
        assert count_periodic_sft(forbidden, 4) == [0, 2, 6, 6]

    def test_transfer_equals_bruteforce(self):
        forbidden = {"000", "111"}
        assert count_periodic_sft(forbidden, 10) == count_periodic_sft_bruteforce(forbidden, 10)

    def test_other_alphabet_of_words(self):
        forbidden = {"00", "11"}
        assert count_periodic_sft(forbidden, 8) == count_periodic_sft_bruteforce(forbidden, 8)

    def test_unequal_word_lengths_error(self):
        with pytest.raises(ValueError, match="equal length"):
            count_periodic_sft({"000", "11"}, 3)

    def test_bitsliced_oracle_equals_string_enumeration(self):
        rng = random.Random(8)
        sets = []
        for length in range(2, 7):
            words = ["".join(w) for w in itertools.product("01", repeat=length)]
            sets += [{rng.choice(words)}, set(words)]
            sets += [set(rng.sample(words, rng.randint(1, len(words)))) for _ in range(4)]
        for forbidden in sets:
            expected = [count_periodic_sft_strings(forbidden, n) for n in range(1, 13)]
            assert count_periodic_sft_bruteforce(forbidden, 12) == expected, sorted(forbidden)

    def test_columns_built_once_match_the_per_length_build(self):
        # the letter columns are built at n_max and masked to each length's
        # 2^n words: the counts of a build for each length alone, up to the cap
        rng = random.Random(11)
        words = ["".join(w) for w in itertools.product("01", repeat=8)]
        n_max = shiftspace.MAX_PERIOD
        for forbidden in ({"00"}, {"000", "111"}, {"0110", "1011"}, set(rng.sample(words, 3))):
            expected = [count_circular_words_per_length(forbidden, n) for n in range(1, n_max + 1)]
            assert count_periodic_sft_bruteforce(forbidden, n_max) == expected, sorted(forbidden)

    def test_transfer_below_block_length(self):
        # n < L - 1: a period-n point is shorter than one transfer state
        rng = random.Random(9)
        for length in (4, 5, 6):
            words = ["".join(w) for w in itertools.product("01", repeat=length)]
            for forbidden in ({"0" * length}, {words[5]}, set(rng.sample(words, 5))):
                expected = [count_periodic_sft_strings(forbidden, n) for n in range(1, length - 1)]
                assert count_periodic_sft(forbidden, length - 2) == expected, sorted(forbidden)

    def test_one_walk_counts_every_length(self):
        # counting up to n_max gives the counts up to any smaller bound, by
        # both routes, so neither depends on where its walk or enumeration stops
        rng = random.Random(10)
        words = ["".join(w) for w in itertools.product("01", repeat=5)]
        for forbidden in ({"00"}, {"000", "111"}, set(rng.sample(words, 6))):
            for count in (count_periodic_sft, count_periodic_sft_bruteforce):
                full = count(forbidden, 12)
                assert len(full) == 12
                for n_max in (1, 2, 5, 11):
                    assert count(forbidden, n_max) == full[:n_max], (sorted(forbidden), n_max)

    def test_caps_checked_once_per_command(self, monkeypatch):
        # each route validates the word set and the bound once, not per length
        built = []
        capped = shiftspace.capped_sft
        monkeypatch.setattr(shiftspace, "capped_sft", lambda *args: built.append(args) or capped(*args))
        count_periodic_sft({"000", "111"}, 14)
        count_periodic_sft_bruteforce({"000", "111"}, 14)
        assert [n_max for _, n_max in built] == [14, 14]

    @pytest.mark.parametrize("count", [count_periodic_sft, count_periodic_sft_bruteforce])
    def test_caps_accept_the_boundary(self, count):
        assert shiftspace.MAX_PERIOD == 20 and shiftspace.MAX_WORD_LENGTH == 8
        assert count({"0" * 8}, 8)[-1] == 255
        assert count({"00"}, 20)[-1] == 15127  # the Lucas number L_20

    @pytest.mark.parametrize("count", [count_periodic_sft, count_periodic_sft_bruteforce])
    @pytest.mark.parametrize(
        "forbidden, n, named",
        [({"00"}, 21, "period 21 is over the cap of 20"), ({"0" * 9}, 1, "cap of 8 letters")],
        ids=["period-21", "nine-letter-word"],
    )
    def test_caps_refuse_before_allocating(self, count, forbidden, n, named):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=named):
                count(forbidden, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one bit column at n = 21 alone takes 256 KB
        assert peak < 64 * 1024


def realized_distance(x, gap):
    """The least distance between entries of a periodic point a gap apart."""
    return min(max_circle_dist(value_at(x, n), value_at(x, n + gap)) for n in range(x.period))


class TestPeriodicWitness:
    def test_explicit_small_witness(self):
        found = periodic_witness(1, 2, HALF, 3)
        assert [Fraction(v.nums[0], v.den) for v in found.witness.values] == [
            Fraction(0),
            Fraction(4, 3),
            Fraction(2, 3),
        ]
        assert found.realized == Fraction(2, 3) and found.statement is None

    def test_antipodal_two_cycle(self):
        found = periodic_witness(1, 1, HALF, 2)
        assert [Fraction(v.nums[0], v.den) for v in found.witness.values] == [Fraction(0), Fraction(1)]
        assert found.realized == 1

    def test_membership_and_constant_gap(self):
        w = periodic_witness(2, 3, HALF, 5).witness
        report = check_membership(gap_space(2, 3, HALF), w)
        assert report.passed
        assert all(max_circle_dist(value_at(w, n), value_at(w, n + 3)) == Fraction(4, 5) for n in report.records)

    def test_errors(self):
        # refusals of the arguments, each before the set is decided
        with pytest.raises(ValueError, match="period >= 1"):
            periodic_witness(1, 2, HALF, 0)
        with pytest.raises(ValueError, match="alphabet dimension must be positive"):
            periodic_witness(0, 5, HALF, 5)
        with pytest.raises(ValueError, match="gap must be >= 1"):
            periodic_witness(1, 0, HALF, 5)
        with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
            periodic_witness(1, 1, Fraction(3, 2), 3)
        with pytest.raises(ValueError, match="over the cap of 100000"):
            periodic_witness(1, 1, HALF, 100_001)

    def test_empty_sets_are_verdicts(self):
        # a gap that p divides, and an odd cycle above 1 - 1/L in one coordinate
        found = periodic_witness(1, 10, HALF, 5)
        assert found.witness is None and found.realized is None
        assert found.statement.startswith("the gap 10 is a multiple of 5")
        found = periodic_witness(1, 1, Fraction(9, 10), 3)
        assert found.witness is None
        assert "[27/10, 33/10]" in found.statement
        # an empty set is decided before the coordinate cap
        assert periodic_witness(50_000, 5, HALF, 5).witness is None

    def test_witnesses_the_old_refusals_missed(self):
        # an even cycle realizes 1: (0, 1, 0, 1) at 9/10
        found = periodic_witness(1, 1, Fraction(9, 10), 4)
        assert found.witness.seq.to_json() == [["0/1"], ["1/1"], ["0/1"], ["1/1"]]
        assert found.realized == 1
        # gaps sharing a factor with p: one walk on each of the gcd cycles
        for gap, p in ((2, 4), (3, 9), (4, 6)):
            found = periodic_witness(1, gap, HALF, p)
            assert found.witness.period == p
            assert check_membership(gap_space(1, gap, HALF), found.witness).passed
        # the corner walk keeps 1 in two coordinates, where one keeps 2/3
        found = periodic_witness(2, 2, Fraction(4, 5), 3)
        assert found.witness.seq.to_json() == [["0/1", "1/1"], ["0/1", "0/1"], ["1/1", "0/1"]]
        assert found.realized == 1

    def test_rule_matches_closed_walks(self):
        # on the 1/D grid with delta = a/D, a closed walk exists on the grid
        # exactly when one exists on the circle
        closing = {a: closed_grid_walk_lengths(a, 12, grid=12) for a in range(1, 13)}
        for a, lengths in closing.items():
            for length in range(1, 13):
                assert shiftspace._cycle_closes(1, Fraction(a, 12), length) == (length in lengths), (a, length)
        for a in range(1, 7):
            lengths = closed_product_walk_lengths(a, 7, grid=6)
            for length in range(1, 8):
                assert shiftspace._cycle_closes(2, Fraction(a, 6), length) == (length in lengths), (a, length)

    def test_integer_rules_match_their_fraction_forms(self):
        # the cycle rule and the interval form, decided on the threshold's
        # numerator and denominator, against their Fraction forms: on the 1/12
        # and 1/64 grids and at best(L) and best(L) +- 1/1000 for each odd L
        thresholds = {Fraction(a, den) for den in (12, 64) for a in range(1, den + 1)}
        for length in range(1, 14, 2):
            best = best_periodic_gap(length)
            thresholds |= {t for t in (best - Fraction(1, 1000), best, best + Fraction(1, 1000)) if 0 < t <= 1}
        for dim, threshold in itertools.product((1, 2, 3), sorted(thresholds)):
            for length in range(1, 14):
                closes = shiftspace._cycle_closes(dim, threshold, length)
                assert closes == cycle_closes_by_fractions(dim, threshold, length), (dim, threshold, length)
            for p in range(1, 14):
                for gap in range(1, 2 * p + 1):
                    empty = periodic_set_empty(dim, gap, threshold, p)
                    assert empty == periodic_set_empty_by_fractions(dim, gap, threshold, p), (dim, gap, threshold, p)

    def test_every_verdict_is_checked(self):
        # each witness is a point of the gap space and keeps the distance it
        # states; each empty verdict agrees with the rule's interval form
        empty = 0
        for p in range(1, 13):
            for gap in range(1, 2 * p + 1):
                for a in range(1, 13):
                    threshold = Fraction(a, 12)
                    for dim in (1, 2, 3):
                        found = periodic_witness(dim, gap, threshold, p)
                        assert (found.witness is None) == periodic_set_empty(dim, gap, threshold, p)
                        if found.witness is None:
                            empty += 1
                            continue
                        assert found.witness.period == p and found.witness.dim == dim
                        assert check_membership(gap_space(dim, gap, threshold), found.witness).passed
                        assert realized_distance(found.witness, gap) == found.realized >= threshold
        assert 0 < empty


class TestSampling:
    def test_periodic_sampling_deterministic_and_valid(self):
        a = sample_periodic_gap_point(1, 2, HALF, 5, random.Random(9))
        b = sample_periodic_gap_point(1, 2, HALF, 5, random.Random(9))
        assert a == b
        assert check_membership(gap_space(1, 2, HALF), a).passed

    def test_window_sampling_valid(self):
        rng = random.Random(17)
        w = sample_gap_window(2, 6, HALF, -6, 30, rng)
        assert w.start == -6 and len(w.values) == 30
        assert check_membership(gap_space(2, 6, HALF), w).passed

    def test_window_sampling_draws_are_pinned(self):
        w = sample_gap_window(1, 2, HALF, -1, 7, random.Random(5))
        assert w.seq.to_json() == [
            ["69/64"], ["31/16"], ["63/32"], ["21/16"], ["63/64"], ["5/16"], ["31/16"]
        ]

    def test_periodic_sampling_draws_are_pinned(self):
        # both seeds redraw some walks whose closing edge is too short: seed
        # 10 three walks of its one cycle, seed 4 two and one of its two
        x = sample_periodic_gap_point(1, 2, HALF, 7, random.Random(10))
        assert x.seq.to_json() == [
            ["3/32"], ["19/32"], ["43/32"], ["25/16"], ["37/64"], ["63/64"], ["37/32"]
        ]
        x = sample_periodic_gap_point(2, 2, HALF, 6, random.Random(4))
        assert x.seq.to_json() == [
            ["49/64", "17/32"], ["11/8", "25/32"], ["17/16", "95/64"],
            ["57/64", "117/64"], ["61/32", "5/32"], ["127/64", "7/32"],
        ]

    def test_samplers_draw_the_vector_by_vector_stream(self):
        rng = random.Random(2026)
        for _ in range(120):
            dim, gap = rng.choice((1, 2)), rng.randrange(1, 25)
            start, length = -rng.randrange(0, 30), rng.randrange(1, 80)
            threshold = rng.choice((Fraction(1, 4), HALF, Fraction(3, 4)))
            seed = rng.randrange(1 << 30)
            window = sample_gap_window(dim, gap, threshold, start, length, random.Random(seed))
            oracle = sample_gap_window_per_entry(dim, gap, threshold, start, length, random.Random(seed))
            assert window == oracle and window.values == oracle.values
            m = rng.randrange(2, 6)
            head = random_anchor(dim, m, random.Random(seed))
            replay = random.Random(seed)
            assert list(head) == gap_draws_per_entry(replay, dim, len(head), len(head), Fraction(0))[0]

    def test_periodic_sampler_draws_the_vector_by_vector_stream(self):
        rng = random.Random(2027)
        checked = 0
        for _ in range(150):
            dim, gap, period = rng.choice((1, 2)), rng.randrange(1, 25), rng.randrange(2, 14)
            threshold = rng.choice((Fraction(1, 4), HALF))
            seed = rng.randrange(1 << 30)
            if gap % period == 0:
                with pytest.raises(ValueError, match=r"is a multiple of \d+, .*: no period-\d+ point exists$"):
                    sample_periodic_gap_point(dim, gap, threshold, period, random.Random(seed))
                continue
            x = sample_periodic_gap_point(dim, gap, threshold, period, random.Random(seed))
            oracle = sample_periodic_gap_point_per_entry(dim, gap, threshold, period, random.Random(seed))
            assert x == oracle and x.values == oracle.values
            checked += 1
        assert checked > 100

    def test_samplers_leave_the_vector_by_vector_generator_state(self):
        # tower verify draws the anchor right after the window from one
        # generator, so a sampler that drew one word more or less would shift
        # every later point; the samplers here share one stream the same way
        rng = random.Random(2028)
        periodic = 0
        for _ in range(150):
            dim, gap = rng.choice((1, 2, 3)), rng.randrange(1, 25)
            start, length, m = -rng.randrange(0, 30), rng.randrange(1, 80), rng.randrange(2, 6)
            period = rng.randrange(2, 14)
            threshold = rng.choice((Fraction(1, 4), HALF))
            seed = rng.randrange(1 << 30)
            got, expected = random.Random(seed), random.Random(seed)
            sample_gap_window(dim, gap, threshold, start, length, got)
            sample_gap_window_per_entry(dim, gap, threshold, start, length, expected)
            assert got.getstate() == expected.getstate()
            head = random_anchor(dim, m, got)
            gap_draws_per_entry(expected, dim, len(head), len(head), Fraction(0))
            assert got.getstate() == expected.getstate()
            if gap % period:
                sample_periodic_gap_point(dim, gap, threshold, period, got)
                sample_periodic_gap_point_per_entry(dim, gap, threshold, period, expected)
                assert got.getstate() == expected.getstate()
                periodic += 1
        assert periodic > 100

    def test_grid_emptiness_rule_matches_closed_walks(self):
        for a in range(1, 65):
            closing = closed_grid_walk_lengths(a, 13)
            for length in range(1, 14):
                rule = shiftspace._cycle_closes(1, Fraction(a, 64), length)
                assert rule == (length in closing), (a, length)
        # off-grid thresholds round up to the next grid distance: 2/3 to 43/64
        # leaves period 3 on the circle but not on the grid
        def plan(dim, gap, threshold, period):
            # the plan is keyed on the threshold's numerator and denominator
            return shiftspace._periodic_plan(dim, gap, threshold.numerator, threshold.denominator, period)

        with pytest.raises(ValueError, match="^no period-3 point with distance >= 2/3 at gap 1 exists on the k/64 grid$"):
            plan(1, 1, Fraction(2, 3), 3)
        assert plan(1, 1, Fraction(41, 64) + Fraction(1, 1000), 3)[1:3] == (1, 3)
        assert plan(2, 1, Fraction(1), 3)[1:3] == (1, 3)
        with pytest.raises(ValueError, match="^the gap 1 is a multiple of 1, .*: no period-1 point exists$"):
            plan(2, 1, Fraction(1, 64), 1)

    @pytest.mark.parametrize(
        "dim, gap, threshold, period",
        [
            (1, 1, HALF, 2),
            (1, 2, HALF, 5),
            (2, 3, HALF, 5),
            (1, 1, Fraction(1, 3), 4),
            (1, 4, HALF, 6),
            (1, 3, HALF, 6),
            (2, 2, Fraction(1, 4), 6),
        ],
        ids=["N1-gap1-p2", "N1-gap2-p5", "N2-gap3-p5", "N1-gap1-p4-third", "N1-gap4-p6",
             "N1-gap3-p6", "N2-gap2-p6-quarter"],
    )
    def test_cycle_walk_and_whole_period_oracle_return_members(
        self, dim, gap, threshold, period
    ):
        spec = gap_space(dim, gap, threshold)
        for seed in range(5):
            for sampler in (sample_periodic_gap_point, sample_periodic_gap_point_whole_period):
                x = sampler(dim, gap, threshold, period, random.Random(seed))
                assert x.period == period
                assert check_membership(spec, x).passed, (sampler.__name__, seed)

    def test_first_increment_is_uniform_on_the_far_offsets(self):
        # the law of redrawing an entry until it is far from the one a gap
        # back: its difference is uniform on the far offsets D.  At N = 2 the
        # offsets are binned by 16 x 16 residues; a bin D misses stays empty
        for dim, threshold in itertools.product((1, 2), (Fraction(1, 4), HALF, Fraction(1))):
            bound = math.ceil(threshold * 64)
            cell = (lambda d: d[0]) if dim == 1 else (lambda d: (d[0] // 16, d[1] // 16))
            expected = collections.Counter(
                cell(d) for d in itertools.product(range(128), repeat=dim) if any(bound <= c <= 128 - bound for c in d)
            )
            rng = random.Random(4000 + dim)
            samples = 6000
            observed = collections.Counter()
            for _ in range(samples):
                w = sample_gap_window(dim, 24, threshold, 0, 25, rng).seq
                d = w[24] - w[0]
                observed[cell([k * (64 // d.den) for k in d.nums])] += 1
            assert set(observed) <= set(expected), (dim, threshold)
            if len(expected) > 1:  # N = 1 at distance 1: the antipode is the one far offset
                assert chi_square(observed, expected, samples) < chi_square_bound(len(expected) - 1), (dim, threshold)

    def test_period_3_walks_are_uniform_over_closed_walks(self):
        # every closed walk of three steps at distance >= 1/2 on the k/64
        # circle, counted by its first step: x0 is free, and the second step
        # must leave a far closing step
        far = range(32, 97)
        expected = collections.Counter(
            d1 for d1 in far for d2 in far if (-d1 - d2) % 128 in far
        )
        rng = random.Random(4003)
        samples = 20_000
        steps, starts = collections.Counter(), collections.Counter()
        for _ in range(samples):
            x = sample_periodic_gap_point(1, 1, HALF, 3, rng).seq
            step, start = x[1] - x[0], x[0]
            steps[step.nums[0] * (64 // step.den)] += 1
            starts[start.nums[0] * (64 // start.den) // 8] += 1
        assert set(steps) <= set(expected)
        assert chi_square(steps, expected, samples) < chi_square_bound(len(expected) - 1)
        assert chi_square(starts, collections.Counter(range(16)), samples) < chi_square_bound(15)

    def test_every_sample_is_a_member(self):
        # at N >= 2 a near vector is dropped only when all of its
        # coordinates are near; distance 1 is the narrowest far set
        rng = random.Random(4004)
        thresholds = (Fraction(1, 4), HALF, Fraction(41, 64), Fraction(1))
        for gap, dim, threshold in itertools.product((1, 2, 6, 24), (1, 2, 3), thresholds):
            spec = gap_space(dim, gap, threshold)
            for length in (1, gap, gap + 1, rng.randrange(1, 361), 360):
                w = sample_gap_window(dim, gap, threshold, -rng.randrange(30), length, rng)
                assert len(w.seq) == length
                assert check_membership(spec, w).verdict in ("pass", "vacuous"), (gap, dim, threshold, length)
            # at distance 1 and N >= 2 about one long walk in 64 closes: a
            # budget question, left to test_exhausted_budget_is_undetermined
            for period in range(2, 14 if threshold < 1 else 7):
                cycle = period // math.gcd(gap, period)
                if cycle == 1 or not shiftspace._cycle_closes(dim, Fraction(math.ceil(threshold * 64), 64), cycle):
                    continue  # no such point on the grid: decided, not sampled
                x = sample_periodic_gap_point(dim, gap, threshold, period, rng)
                assert check_membership(spec, x).passed, (gap, dim, threshold, period)

    def test_cycle_walk_samples_sparse_sets(self):
        for dim, gap, threshold, period in [
            (2, 1, Fraction(1), 3),
            (2, 2, Fraction(1), 5),
            (1, 1, Fraction(1), 4),
            (1, 4, HALF, 13),
            (1, 2, Fraction(2, 3), 5),
        ]:
            x = sample_periodic_gap_point(dim, gap, threshold, period, random.Random(3))
            assert check_membership(gap_space(dim, gap, threshold), x).passed

    def test_empty_grid_set_is_decided_before_drawing(self):
        # the refusal names the grid only where the gap space has such points
        for dim, gap, threshold, period, named in [
            (1, 2, Fraction(1), 3, r"^the gap 2 ties the residues mod 3 into cycles of 3, .*: no period-3 point exists$"),
            (1, 1, Fraction(2, 3), 3, r"^no period-3 point .* exists on the k/64 grid$"),
            (2, 5, HALF, 5, r"^the gap 5 is a multiple of 5, .*: no period-5 point exists$"),
        ]:
            with pytest.raises(ValueError, match=named):
                sample_periodic_gap_point(dim, gap, threshold, period, random.Random(0))

    def test_long_period_gets_its_closing_tests(self):
        # at the one-sample diagram's cap, 49,999 entries at N = 1, about half
        # the walks close, and MAX_DRAWS alone admits three: seeds 7, 8, 11,
        # 14, 17 and 18 gave up.  With MIN_CLOSING_TESTS walks every seed answers
        for seed in range(20):
            started = time.monotonic()
            assert all(i.ok for i in verify_conjugacy_diagram(1, 2, HALF, 49_999, 1, seed)[1]), seed
            assert time.monotonic() - started < 1, seed

    def test_exhausted_budget_is_undetermined(self, monkeypatch):
        # nonempty on the grid (5 steps of 51..77 units can sum to 256), but
        # about one walk in 50,000 closes
        monkeypatch.setattr(shiftspace, "MAX_DRAWS", 50)
        with pytest.raises(ValueError, match="undetermined"):
            sample_periodic_gap_point(1, 1, Fraction(51, 64), 5, random.Random(0))

    def test_nonpositive_dimension_is_refused_before_any_draw(self):
        class NoDraws(random.Random):
            def randbytes(self, n):
                raise AssertionError("drew an entry")

        for dim in (0, -1):
            with pytest.raises(ValueError, match="alphabet dimension must be positive"):
                sample_gap_window(dim, 2, HALF, 0, 6, NoDraws())
            with pytest.raises(ValueError, match="alphabet dimension must be positive"):
                sample_periodic_gap_point(dim, 2, HALF, 5, NoDraws())


class TestJson:
    def test_seq_round_trip(self):
        def values(data):
            return seq(vec(*map(frac_from_str, row)) for row in data["values"])

        x = Periodic(seq_of(0, Fraction(4, 3), Fraction(2, 3)))
        data = seq_to_json(x)
        assert data["kind"] == "periodic" and data["period"] == 3
        assert Periodic(values(data)) == x
        w = Window(-2, seq_of(1, 0, Fraction(1, 7)))
        data = seq_to_json(w)
        assert data["kind"] == "window" and data["start"] == -2
        assert Window(data["start"], values(data)) == w


def test_unroll_matches_values():
    x = Periodic(seq_of(0, 1, Fraction(1, 2)))
    w = unroll(x, -2, 4)
    assert w.start == -2
    for n in range(-2, 5):
        assert value_at(w, n) == value_at(x, n)
