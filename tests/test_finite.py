import random
import re
from fractions import Fraction

import pytest

from mdkit.finite import (
    FiniteSystem,
    embed_into_universal,
    enumerate_markers,
    epsilon_embedding,
    map_to_unit_step_space,
    marker_search,
    periodic_points,
    random_metric,
    random_system,
    rokhlin_function,
    time_division,
    time_division_base_conjugacy,
    verify_marker,
    verify_marker_transfer,
)
from mdkit.shiftspace import check_membership, gap_space, unit_step_space

from oracles import marker_exists_bruteforce, marker_exists_vectorized, uniform_metric

HALF = Fraction(1, 2)


def cycles(*lengths):
    return FiniteSystem.from_cycle_lengths(list(lengths))


class TestStructure:
    def test_cycle_decomposition(self):
        sys_ = cycles(3, 2)
        assert sys_.cycle_lengths() == [3, 2]
        assert sys_.min_cycle_length() == 2
        assert not sys_.has_fixed_points()
        assert cycles(1, 4).has_fixed_points()

    def test_perm_validation(self):
        with pytest.raises(ValueError, match="bijection"):
            FiniteSystem(("a", "b"), (0, 0))

    def test_metric_validation(self):
        bad = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
        with pytest.raises(ValueError, match="symmetric"):
            FiniteSystem(("a", "b"), (1, 0), bad)
        skewed = (
            (Fraction(0), Fraction(1), Fraction(10)),
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(10), Fraction(1), Fraction(0)),
        )
        with pytest.raises(ValueError, match="triangle"):
            FiniteSystem(("a", "b", "c"), (1, 2, 0), skewed)

    def test_json_round_trip(self):
        sys_ = FiniteSystem.from_cycle_lengths([2], metric=uniform_metric(2, Fraction(1, 4)))
        restored = FiniteSystem.from_json(sys_.to_json())
        assert restored == sys_


class TestPeriodicPoints:
    def test_full_cycle(self):
        assert periodic_points(cycles(5), 5) == (0, 1, 2, 3, 4)

    def test_no_divisor(self):
        assert periodic_points(cycles(5), 3) == ()

    def test_union_of_divisors(self):
        assert periodic_points(cycles(3, 2), 6) == (0, 1, 2, 3, 4)


class TestTimeDivision:
    def test_examples(self):
        assert sorted(time_division(cycles(3), 2).cycle_lengths()) == [6]
        assert sorted(time_division(cycles(2, 5), 3).cycle_lengths()) == [6, 15]

    def test_identity_for_n_one(self):
        sys_ = cycles(4)
        divided = time_division(sys_, 1)
        assert divided.cycle_lengths() == sys_.cycle_lengths()

    def test_composition_multiplies(self):
        sys_ = cycles(2, 3)
        twice = time_division(time_division(sys_, 2), 3)
        once = time_division(sys_, 6)
        assert sorted(twice.cycle_lengths()) == sorted(once.cycle_lengths())

    def test_base_conjugacy(self):
        for lengths in ([3], [2, 5], [4, 4]):
            for n in (1, 2, 3):
                assert time_division_base_conjugacy(
                    FiniteSystem.from_cycle_lengths(lengths), n
                )


class TestMarkerSearch:
    def test_five_cycle_found(self):
        cert = marker_search(cycles(5), 5)
        assert cert.found and len(cert.subset) == 1
        ok, _ = verify_marker(cycles(5), cert.subset, 5)
        assert ok

    def test_five_cycle_none_at_six(self):
        assert marker_search(cycles(5), 6).verdict == "none"

    def test_mixed_cycles(self):
        cert = marker_search(cycles(3, 7), 3)
        assert cert.found
        subset = set(cert.subset)
        assert subset & set(range(3)) and subset & set(range(3, 10))

    def test_matches_bruteforce_small(self):
        rng = random.Random(7)
        for _ in range(30):
            sys_ = random_system(rng, max_points=8)
            for n_marker in range(1, 7):
                verdict = marker_search(sys_, n_marker).found
                assert verdict == marker_exists_bruteforce(sys_, n_marker)
                assert verdict == (n_marker <= sys_.min_cycle_length())

    def test_vectorized_oracle_agrees_with_pure_python(self):
        rng = random.Random(8)
        for _ in range(20):
            sys_ = random_system(rng, max_points=7)
            for n_marker in range(1, 7):
                assert marker_exists_vectorized(sys_, n_marker) == \
                    marker_exists_bruteforce(sys_, n_marker)

    def test_uncapped_search_decides_by_shortest_cycle(self):
        rng = random.Random(25)
        for _ in range(40):
            total = rng.randint(25, 60)
            lengths = []
            while total > 0:
                lengths.append(min(total, rng.randint(1, 20)))
                total -= lengths[-1]
            sys_ = cycles(*lengths)
            shortest = sys_.min_cycle_length()
            for n_marker in (1, 2, shortest, shortest + 1, 25):
                cert = marker_search(sys_, n_marker)
                assert cert.found == (n_marker <= shortest)
                if cert.found:
                    assert verify_marker(sys_, cert.subset, n_marker)[0]
                    continue
                # "none" names a cycle of the system, by length and first point
                named = re.search(r"the (\d+)-cycle at (\w+):", cert.transcript[0]["condition"])
                start = sys_.points.index(named.group(2))
                cycle = next(c for c in sys_.cycles() if start in c)
                assert len(cycle) == int(named.group(1)) < n_marker

    def test_enumerate_markers(self):
        markers = enumerate_markers(cycles(5), 5)
        assert sorted(map(sorted, markers)) == [[0], [1], [2], [3], [4]]
        assert enumerate_markers(cycles(3), 4) == []
        # 15-cycle at length 6: 15 singletons plus pairs at gaps 6..9 (15*4/2)
        assert len(enumerate_markers(cycles(15), 6)) == 45

    def test_enumerate_markers_cap(self):
        # refused from the count alone: 2^40 - 1 markers are never built
        for sys_ in (cycles(20), cycles(40)):
            with pytest.raises(ValueError, match="tighten"):
                enumerate_markers(sys_, 1, cap=1000)
        # the count is exact: a cap equal to it is not exceeded
        for lengths, n_marker in [([15], 6), ([6, 6], 2), ([9], 3), ([5, 7], 1)]:
            sys_ = cycles(*lengths)
            count = len(enumerate_markers(sys_, n_marker))
            assert len(enumerate_markers(sys_, n_marker, cap=count)) == count
            with pytest.raises(ValueError, match="tighten"):
                enumerate_markers(sys_, n_marker, cap=count - 1)

    def test_certificate_json(self):
        sys_ = cycles(5)
        data = marker_search(sys_, 5).to_json(sys_)
        assert data["verdict"] == "found"
        assert data["subset_points"] == ["c0n0"]
        assert any("covers" in entry["condition"] for entry in data["transcript"])


class TestRokhlin:
    def test_five_cycle(self):
        report = rokhlin_function(cycles(5), (0,), 5)
        assert report.phi == (0, 1, 2, 3, 4)
        assert report.exceptional == (4,)
        assert report.passed

    def test_six_cycle_two_markers(self):
        report = rokhlin_function(cycles(6), (0, 3), 3)
        assert report.phi == (0, 1, 2, 0, 1, 2)
        assert report.exceptional == (2, 5)
        assert report.passed

    def test_two_cycle(self):
        report = rokhlin_function(cycles(2), (0,), 2)
        assert report.phi == (0, 1)
        assert report.exceptional == (1,)
        assert report.passed

    def test_invalid_marker_rejected(self):
        with pytest.raises(ValueError, match="not a valid marker"):
            rokhlin_function(cycles(5), (0, 1), 5)

    def test_random_systems(self):
        rng = random.Random(12)
        for _ in range(50):
            sys_ = random_system(rng, max_points=12, min_cycle=2)
            cert = marker_search(sys_, 2)
            report = rokhlin_function(sys_, cert.subset, 2)
            assert report.passed


class TestUnitStepMap:
    def test_five_cycle(self):
        report = map_to_unit_step_space(cycles(5))
        assert report.passed
        assert all(seq.period in (5,) for seq in report.sequences)

    def test_two_cycle_alternates(self):
        report = map_to_unit_step_space(cycles(2))
        assert report.passed
        values = [v.coords[0].value for v in report.sequences[0].values]
        assert values == [0, 1]

    def test_mixed_cycles(self):
        for sys_ in (cycles(3, 4), cycles(13, 13)):
            report = map_to_unit_step_space(sys_, 2)
            assert report.passed

    def test_fixed_point_rejected(self):
        with pytest.raises(ValueError, match="cycle shorter"):
            map_to_unit_step_space(cycles(1, 3))

    def test_two_hundred_random_systems(self):
        rng = random.Random(606)
        for _ in range(200):
            sys_ = random_system(rng, max_points=12, min_cycle=2)
            report = map_to_unit_step_space(sys_)
            assert report.membership_ok and report.equivariance_ok
            space = unit_step_space()
            assert all(check_membership(space, s).passed for s in report.sequences)


class TestEmbeddings:
    def test_three_equidistant_points(self):
        report = epsilon_embedding(
            ("a", "b", "c"), uniform_metric(3, Fraction(1, 4)), Fraction(1, 5)
        )
        assert report.n_coords == 3
        assert len(set(report.images)) == 3
        assert report.separation_gap == Fraction(1, 4)
        assert report.passed

    def test_single_point(self):
        report = epsilon_embedding(("a",), uniform_metric(1, Fraction(0)), Fraction(1, 5))
        assert report.n_coords == 1
        assert report.separation_gap is None
        assert report.passed

    def test_two_close_points(self):
        report = epsilon_embedding(
            ("a", "b"), uniform_metric(2, Fraction(1, 10)), Fraction(1, 5)
        )
        assert report.separation_gap is None
        assert report.passed

    def test_rescaling_recorded(self):
        report = epsilon_embedding(("a", "b"), uniform_metric(2, Fraction(1)), Fraction(1, 5))
        assert report.scale == Fraction(1, 4)
        assert report.passed

    def test_universal_two_cycle(self):
        sys_ = FiniteSystem.from_cycle_lengths([2], metric=uniform_metric(2, Fraction(1, 4)))
        report = embed_into_universal(sys_, Fraction(1, 5))
        assert report.delta > 0
        assert report.passed

    def test_universal_five_cycle(self):
        sys_ = FiniteSystem.from_cycle_lengths([5], metric=uniform_metric(5, Fraction(1, 4)))
        report = embed_into_universal(sys_, Fraction(1, 5))
        assert report.passed
        space = gap_space(report.n_coords, 1, report.delta)
        for seq in report.sequences:
            assert check_membership(space, seq).passed

    def test_fixed_point_error(self):
        sys_ = FiniteSystem.from_cycle_lengths([1, 2], metric=uniform_metric(3, Fraction(1, 4)))
        with pytest.raises(ValueError, match="fixed-point free"):
            embed_into_universal(sys_, Fraction(1, 5))

    def test_epsilon_too_large_error(self):
        sys_ = FiniteSystem.from_cycle_lengths([2], metric=uniform_metric(2, Fraction(1, 4)))
        with pytest.raises(ValueError, match="minimal displacement"):
            embed_into_universal(sys_, Fraction(1, 2))

    def test_epsilon_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            epsilon_embedding(("a",), uniform_metric(1, Fraction(0)), Fraction(0))


class TestMarkerTransfer:
    def test_forward_three_cycle(self):
        report = verify_marker_transfer(cycles(3), 2, 3)
        assert report.passed
        assert "6-marker" in report.forward["detail"]

    def test_backward_five_cycle(self):
        report = verify_marker_transfer(cycles(5), 3, 5)
        assert report.passed
        assert "15" in report.backward["detail"]

    def test_degenerate_n_one(self):
        report = verify_marker_transfer(cycles(2), 1, 2)
        assert report.passed

    def test_no_marker_consistency(self):
        report = verify_marker_transfer(cycles(3), 2, 5)
        assert report.passed
        assert "no base" in report.forward["detail"]

    def test_battery(self):
        for lengths in ([3], [5], [3, 5]):
            sys_ = FiniteSystem.from_cycle_lengths(lengths)
            for n in (2, 3):
                for n_marker in (2, 3, 5):
                    assert verify_marker_transfer(sys_, n, n_marker).passed


class TestRandomGenerators:
    def test_deterministic(self):
        a = random_system(random.Random(5), max_points=10)
        b = random_system(random.Random(5), max_points=10)
        assert a == b

    def test_min_cycle_respected(self):
        rng = random.Random(6)
        for _ in range(50):
            sys_ = random_system(rng, max_points=12, min_cycle=2)
            assert sys_.min_cycle_length() >= 2
            assert sys_.size <= 12

    def test_random_metric_valid(self):
        rng = random.Random(7)
        metric = random_metric(rng, 6)
        FiniteSystem.from_cycle_lengths([6], metric=metric)
        values = {metric[i][j] for i in range(6) for j in range(6) if i != j}
        assert all(Fraction(1, 8) <= v <= Fraction(1, 4) for v in values)
