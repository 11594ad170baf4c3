import itertools
import random
import re
from fractions import Fraction

import pytest

from mdkit import finite
from mdkit.finite import (
    FiniteSystem,
    embed_into_universal,
    enumerate_markers,
    epsilon_embedding,
    map_to_unit_step_space,
    marker_search,
    periodic_points,
    permutation_cycles,
    random_metric,
    random_system,
    rokhlin_function,
    time_division,
    time_division_base_conjugacy,
    verify_marker,
    verify_marker_transfer,
)
from mdkit.shiftspace import (
    MembershipReport,
    check_membership,
    gap_space,
    half_step_space,
    no_triple_repeat_sft,
    shift,
    unit_step_space,
)
from mdkit.torus import TorusVec

from oracles import (
    backward_transfer_by_enumeration,
    cycle_position_subsets_by_scan,
    early_returns_by_powers,
    epsilon_embedding_by_fractions,
    marker_exists_bruteforce,
    marker_exists_vectorized,
    metric_violations,
    perm_is_bijection,
    phi_by_backward_walk,
    projection_by_clock_walk,
    random_metric_per_entry,
    uniform_metric,
)

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

    def test_permutation_cycles(self):
        # seeded random permutations: the cycles partition the points, each
        # starts at its smallest index, follows the permutation, and the
        # cycles come in the order of their starts
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(0, 12)
            perm = rng.sample(range(n), n)
            found = permutation_cycles(perm)
            assert sorted(i for cycle in found for i in cycle) == list(range(n))
            assert [cycle[0] for cycle in found] == sorted(min(cycle) for cycle in found)
            for cycle in found:
                assert cycle[0] == min(cycle)
                assert [perm[i] for i in cycle] == list(cycle[1:] + cycle[:1])

    def test_apply_refuses_negative_power(self):
        assert cycles(3).apply(0, 2) == 2
        with pytest.raises(ValueError, match="power must be >= 0"):
            cycles(3).apply(0, -1)

    def test_perm_validation(self):
        with pytest.raises(ValueError, match="bijection"):
            FiniteSystem.from_json({"points": ["a", "b"], "perm": [0, 0]})

    def test_metric_validation(self):
        bad = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
        with pytest.raises(ValueError, match="symmetric"):
            finite._validate_metric(bad, 2)
        skewed = (
            (Fraction(0), Fraction(1), Fraction(10)),
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(10), Fraction(1), Fraction(0)),
        )
        with pytest.raises(ValueError, match="triangle"):
            finite._validate_metric(skewed, 3)

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
                cycle = next(c for c in sys_.cycles if start in c)
                assert len(cycle) == int(named.group(1)) < n_marker

    def test_verifier_returns_match_literal_powers(self):
        rng = random.Random(26)
        for _ in range(400):
            size = rng.randint(1, 14)
            perm = list(range(size))
            rng.shuffle(perm)
            sys_ = FiniteSystem(tuple(range(size)), tuple(perm))
            subset = rng.sample(range(size), rng.randint(1, size))
            n_marker = rng.randint(1, 2 * size + 1)
            _, transcript = verify_marker(sys_, subset, n_marker)
            returns = [entry["violations"] for entry in transcript[:-1]]
            assert returns == early_returns_by_powers(sys_, subset, n_marker)

    def test_verdict_only_check_matches_the_transcript(self):
        rng = random.Random(27)
        verdicts = []
        for _ in range(400):
            sys_ = random_system(rng, max_points=10)
            n_marker = rng.randint(1, sys_.size + 1)
            subsets = [rng.sample(range(sys_.size), rng.randint(1, sys_.size)) for _ in range(3)]
            if sys_.min_cycle_length() >= n_marker:
                subsets += [sorted(u) for u in rng.sample(enumerate_markers(sys_, n_marker), 1)]
            for subset in subsets:
                ok, _ = verify_marker(sys_, subset, n_marker)
                assert finite._is_marker(sys_, subset, n_marker) == ok, (sys_, subset, n_marker)
                verdicts.append(ok)
        # markers and non-markers both occur, and rokhlin_function refuses the latter
        assert 100 < sum(verdicts) < len(verdicts) - 100
        with pytest.raises(ValueError, match="not a valid marker"):
            rokhlin_function(cycles(5), (0, 2), 3)

    def test_enumerate_markers(self):
        markers = enumerate_markers(cycles(5), 5)
        assert sorted(map(sorted, markers)) == [[0], [1], [2], [3], [4]]
        assert enumerate_markers(cycles(3), 4) == []
        # 15-cycle at length 6: 15 singletons plus pairs at gaps 6..9 (15*4/2)
        assert len(enumerate_markers(cycles(15), 6)) == 45

    def test_enumerate_markers_cap(self, monkeypatch):
        cases = [(cycles(15), 6), (cycles(6, 6), 2), (cycles(9), 3), (cycles(5, 7), 1)]
        counts = [len(enumerate_markers(sys_, n_marker)) for sys_, n_marker in cases]
        # refused from the count alone: 2^40 - 1 markers are never built
        monkeypatch.setattr(finite, "MAX_MARKERS", 1000)
        for sys_ in (cycles(20), cycles(40)):
            with pytest.raises(ValueError, match="tighten"):
                enumerate_markers(sys_, 1)
        # the count is exact: a cap equal to it is not exceeded
        for (sys_, n_marker), count in zip(cases, counts):
            monkeypatch.setattr(finite, "MAX_MARKERS", count)
            assert len(enumerate_markers(sys_, n_marker)) == count
            monkeypatch.setattr(finite, "MAX_MARKERS", count - 1)
            with pytest.raises(ValueError, match="tighten"):
                enumerate_markers(sys_, n_marker)

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

    def test_phi_matches_backward_walk(self):
        # every marker of seeded random systems, against the walk back
        # through the inverse permutation
        rng = random.Random(58)
        checked = 0
        for _ in range(30):
            sys_ = random_system(rng, max_points=8)
            for n_marker in (1, 2, 3):
                for marker in enumerate_markers(sys_, n_marker):
                    report = rokhlin_function(sys_, marker, n_marker)
                    assert report.phi == phi_by_backward_walk(sys_, marker)
                    checked += 1
        assert checked > 500


class TestUnitStepMap:
    def test_five_cycle(self):
        report = map_to_unit_step_space(cycles(5))
        assert report.passed
        assert all(seq.period in (5,) for seq in report.sequences)

    def test_two_cycle_alternates(self):
        report = map_to_unit_step_space(cycles(2))
        assert report.passed
        values = [Fraction(v.nums[0], v.den) for v in report.sequences[0].values]
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


def metric_points(size: int, value: Fraction) -> FiniteSystem:
    """``size`` fixed points, pairwise at distance ``value``."""
    return FiniteSystem(tuple(range(size)), tuple(range(size)), uniform_metric(size, value))


class TestEmbeddings:
    def test_three_equidistant_points(self):
        report = epsilon_embedding(metric_points(3, Fraction(1, 4)), Fraction(1, 5))
        assert report.n_coords == 3
        assert len(set(report.images)) == 3
        assert report.separation_gap == Fraction(1, 4)
        assert report.passed

    def test_single_point(self):
        report = epsilon_embedding(metric_points(1, Fraction(0)), Fraction(1, 5))
        assert report.n_coords == 1
        assert report.separation_gap is None
        assert report.passed

    def test_two_close_points(self):
        report = epsilon_embedding(metric_points(2, Fraction(1, 10)), Fraction(1, 5))
        assert report.separation_gap is None
        assert report.passed

    def test_rescaling_recorded(self):
        report = epsilon_embedding(metric_points(2, Fraction(1)), Fraction(1, 5))
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
            epsilon_embedding(metric_points(1, Fraction(0)), Fraction(0))

    def test_metric_required(self):
        with pytest.raises(ValueError, match="metric required"):
            epsilon_embedding(FiniteSystem.from_cycle_lengths([2]), Fraction(1, 5))

    def test_integer_table_matches_fraction_oracle(self):
        at_half = at_epsilon = rescaled = 0
        for sys_, epsilon in embedding_cases():
            report = epsilon_embedding(sys_, epsilon)
            expected = epsilon_embedding_by_fractions(sys_, epsilon)
            for field in ("centers", "images", "scale", "epsilon", "separation_gap", "collision_ok"):
                assert getattr(report, field) == getattr(expected, field), (field, epsilon)
            assert all(type(getattr(report, f)) is Fraction for f in ("scale", "epsilon"))
            rescaled += report.scale != 1
            # a point exactly epsilon/2 from a center, and a pair exactly
            # epsilon apart (a rescale scales both sides)
            metric = sys_.metric
            at_half += any(2 * metric[i][c] == epsilon for i in range(sys_.size) for c in report.centers)
            at_epsilon += any(d == epsilon for row in metric for d in row)
        assert at_half > 10 and at_epsilon > 10 and rescaled > 10


def mixed_metric_json(rng: random.Random, size: int, low: Fraction) -> dict:
    """A system file on ``size`` points whose metric has entries in
    [low, 2*low] over denominators mixed per entry: a metric, as any table
    with off-diagonal values in [t, 2t] is."""
    rows = [["0"] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            q = rng.choice((1, 2, 3, 7, 64))
            d = low * (1 + Fraction(rng.randint(0, q), q))
            rows[i][j] = rows[j][i] = f"{d.numerator}/{d.denominator}"
    return {"points": [f"x{i}" for i in range(size)], "perm": list(range(size)), "metric": rows}


def embedding_cases():
    """Metric systems as the CLI builds them: ``random:`` and ``uniform:``
    tables (values 0 to 3) on 2-40 points, and system files on 2-16 points
    whose tables mix denominators, with diameters above and below 1/4.
    Each comes with epsilons that include a distance and twice a distance,
    so both threshold tests meet equality."""
    rng = random.Random(2024)
    systems = []
    for seed in range(8):
        base = cycles(rng.randint(2, 40))
        metric = random_metric(random.Random(seed), base.size)
        systems.append(FiniteSystem(base.points, base.perm, metric))
    for value in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(3)):
        base = cycles(rng.randint(2, 40))
        systems.append(FiniteSystem(base.points, base.perm, uniform_metric(base.size, value)))
    for low in (Fraction(1, 16), Fraction(1, 9), Fraction(1, 5), Fraction(1, 3), Fraction(2)):
        for _ in range(2):
            systems.append(FiniteSystem.from_json(mixed_metric_json(rng, rng.randint(2, 16), low)))
    for sys_ in systems:
        distances = sorted({d for row in sys_.metric for d in row if d})
        picked = rng.sample(distances, min(2, len(distances)))
        epsilons = {Fraction(rng.randint(1, 64), 64)} | set(picked) | {2 * d for d in picked}
        for epsilon in sorted(epsilons):
            yield sys_, epsilon


# both pipelines unroll their images along orbits through one orbit map
ORBIT_PIPELINES = {
    "unit-step": lambda: map_to_unit_step_space(cycles(3, 5)),
    "universal": lambda: embed_into_universal(
        FiniteSystem.from_cycle_lengths([3, 5], metric=uniform_metric(8, Fraction(1, 4))),
        Fraction(1, 5),
    ),
}


class TestOrbitMap:
    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_failed_membership_is_reported(self, pipeline, monkeypatch):
        monkeypatch.setattr(finite, "check_membership", lambda space, x: MembershipReport("fail", range(1), (0,)))
        report = ORBIT_PIPELINES[pipeline]()
        assert not report.membership_ok and report.equivariance_ok and not report.passed

    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_failed_equivariance_is_reported(self, pipeline, monkeypatch):
        # a shift off by one step: the orbit sequences are still rotations
        # of one another, but no longer intertwine the dynamics
        monkeypatch.setattr(finite, "shift", lambda x, k: shift(x, k + 1))
        report = ORBIT_PIPELINES[pipeline]()
        assert report.membership_ok and not report.equivariance_ok and not report.passed

    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_sequences_follow_the_orbits(self, pipeline):
        report = ORBIT_PIPELINES[pipeline]()
        assert report.passed
        assert [s.period for s in report.sequences] == [3] * 3 + [5] * 5
        # entry n of point i's sequence is entry 0 of the sequence of its n-th image
        perm = cycles(3, 5).perm
        for i, seq in enumerate(report.sequences):
            j = i
            for n in range(seq.period):
                assert seq.value_at(n) == report.sequences[j].value_at(0)
                j = perm[j]

    def test_membership_per_cycle_matches_per_point(self):
        # random images of random fixed-point-free systems in step, gap and
        # word spaces: the verdict from each cycle's first point equals the
        # verdict over every point, and in many systems one cycle fails
        # beside one that passes
        rng = random.Random(2203)
        spaces = [
            unit_step_space(),
            half_step_space(),
            no_triple_repeat_sft(),
            gap_space(1, 1, Fraction(1, 4)),
            gap_space(1, 2, Fraction(1, 4)),
        ]
        verdicts, mixed = [], 0
        for _ in range(300):
            sys_ = random_system(rng, max_points=12, min_cycle=2)
            den = rng.choice((1, 2, 4))
            images = [TorusVec((rng.randrange(2 * den),), den) for _ in range(sys_.size)]
            space = rng.choice(spaces)
            sequences, membership_ok, _ = finite._orbit_map(sys_, images, space)
            per_point = [check_membership(space, seq).passed for seq in sequences]
            assert membership_ok == all(per_point), (sys_.perm, images, space)
            verdicts.append(membership_ok)
            mixed += {all(per_point[i] for i in c) for c in sys_.cycles} == {True, False}
        assert 20 < sum(verdicts) < len(verdicts) - 20
        assert mixed > 20


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

    def test_one_violation_record_per_projection(self, monkeypatch):
        # reject every base 4-marker: the 15 extension 15-markers of a 5-cycle
        # at n = 3 are single points, and they project to the 5 base points
        is_marker = finite._is_marker
        monkeypatch.setattr(finite, "_is_marker", lambda s, u, n: False if n == 4 else is_marker(s, u, n))
        report = verify_marker_transfer(cycles(5), 3, 5)
        assert not report.passed
        violations = report.backward["violations"]
        assert [v["projected"] for v in violations] == [[0], [1], [2], [3], [4]]
        # each names the first marker, in the cycle's walk, with that projection
        assert [v["marker"] for v in violations] == [[0], [1], [4], [7], [10]]

    def test_projections_match_the_clock_walk(self, monkeypatch):
        # with every base check failing, each cycle's records run through
        # the projections its marker parts can have, once each, and every
        # record is an extension marker with its clock-walk projection
        is_marker = finite._is_marker
        for lengths in ([5], [3, 4], [2, 2, 3]):
            base = FiniteSystem.from_cycle_lengths(lengths)
            for n in (1, 2, 3):
                for n_marker in (2, 3):
                    monkeypatch.setattr(
                        finite,
                        "_is_marker",
                        lambda s, u, k: False if s is base and k == n_marker - 1 else is_marker(s, u, k),
                    )
                    report = verify_marker_transfer(base, n, n_marker)
                    divided = time_division(base, n)
                    markers = {frozenset(w) for w in enumerate_markers(divided, n * n_marker)}
                    got = report.backward.get("violations", [])
                    for v in got:
                        assert frozenset(v["marker"]) in markers
                        assert projection_by_clock_walk(divided, v["marker"], n) == v["projected"]
                    walked = [set(projection_by_clock_walk(divided, w, n)) for w in markers]
                    start = 0
                    for cycle in base.cycles:
                        expected = {tuple(sorted(p.intersection(cycle))) for p in walked}
                        records = got[start : start + len(expected)]
                        within = [tuple(i for i in v["projected"] if i in cycle) for v in records]
                        assert sorted(within) == sorted(expected)
                        start += len(expected)
                    assert start == len(got)

    @staticmethod
    def seeded_transfers():
        """Seeded (base, n, N): cycles of length 2-8, at most 12 points."""
        rng = random.Random(19)
        for _ in range(40):
            lengths = [rng.randint(2, 8)]
            while sum(lengths) < 10 and rng.random() < 0.6:
                lengths.append(rng.randint(2, min(8, 12 - sum(lengths))))
            yield FiniteSystem.from_cycle_lengths(lengths), rng.randint(1, 3), rng.randint(1, 5)

    def test_backward_matches_the_enumeration_oracle(self, monkeypatch):
        # two base verifiers: the real one, which every projection passes,
        # and one failing exactly the subsets that hold a point with its
        # image, a rule that, like the real one, splits over cycles; the
        # oracle asks verify_marker, the transfer its verdict-only check
        monkeypatch.setattr(finite, "MAX_MARKERS", 5000)
        verify, is_marker = finite.verify_marker, finite._is_marker
        verdicts = []
        for base, n, n_marker in self.seeded_transfers():
            pair = (0, base.perm[0])
            for fake in (False, True):
                def rejects(s, u):
                    return fake and s is base and set(pair) <= set(u)

                monkeypatch.setattr(
                    finite, "verify_marker", lambda s, u, k: (False, ()) if rejects(s, u) else verify(s, u, k)
                )
                monkeypatch.setattr(
                    finite, "_is_marker", lambda s, u, k: not rejects(s, u) and is_marker(s, u, k)
                )
                try:
                    expected_ok, count, failing = backward_transfer_by_enumeration(base, n, n_marker)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        verify_marker_transfer(base, n, n_marker)
                    verdicts.append("refused")
                    continue
                backward = verify_marker_transfer(base, n, n_marker).backward
                assert backward["ok"] == expected_ok, (base, n, n_marker, fake)
                if count:
                    if expected_ok:
                        assert backward["detail"].startswith(f"all {count} ")
                    assert {tuple(v["projected"]) for v in backward["violations"]} <= set(failing)
                else:
                    assert "violations" not in backward
                verdicts.append((bool(count), expected_ok))
        # refusals, empty extensions, passes and failures all occur
        assert {"refused", (False, True), (True, True), (True, False)} <= set(verdicts)

    def test_violations_are_real_markers(self, monkeypatch):
        monkeypatch.setattr(finite, "MAX_MARKERS", 5000)
        verify, is_marker = finite.verify_marker, finite._is_marker
        checked = 0
        for base, n, n_marker in self.seeded_transfers():
            monkeypatch.setattr(
                finite, "_is_marker", lambda s, u, k: False if s is base and k == n_marker - 1 else is_marker(s, u, k)
            )
            try:
                report = verify_marker_transfer(base, n, n_marker)
            except ValueError:
                continue
            divided = time_division(base, n)
            for v in report.backward.get("violations", []):
                assert verify(divided, v["marker"], n * n_marker)[0], (base, n, n_marker, v)
                assert projection_by_clock_walk(divided, v["marker"], n) == v["projected"]
                checked += 1
        assert checked > 200

    def test_battery(self):
        for lengths in ([3], [5], [3, 5]):
            sys_ = FiniteSystem.from_cycle_lengths(lengths)
            for n in (2, 3):
                for n_marker in (2, 3, 5):
                    assert verify_marker_transfer(sys_, n, n_marker).passed


    def test_cycle_position_subsets_match_the_scan(self):
        # every N <= L for L <= 12; for longer cycles the pairs with at most
        # 5,000 subsets (N = 1 alone gives 2^L - 1 of them)
        pairs = 0
        for length in range(1, 31):
            for n_marker in range(1, length + 1):
                if finite._count_cycle_position_subsets(length, n_marker) > 5_000:
                    continue
                subsets = finite._cycle_position_subsets(length, n_marker)
                assert subsets == cycle_position_subsets_by_scan(length, n_marker)
                assert len(subsets) == finite._count_cycle_position_subsets(length, n_marker)
                pairs += 1
        assert pairs == 422
        assert finite._cycle_position_subsets(3, 4) == []

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
        # a random table is trusted at run time, so sizes 1-16 are held to
        # the metric axioms over many seeds
        for size in range(1, 17):
            for seed in range(20):
                metric = random_metric(random.Random(seed), size)
                assert metric_violations(metric, size) == [], (size, seed)
                values = {metric[i][j] for i in range(size) for j in range(size) if i != j}
                assert all(Fraction(1, 8) <= v <= Fraction(1, 4) for v in values)

    def test_random_metric_matches_per_entry_draws(self):
        # the value table is indexed by the same draws, so the table and the
        # state the stream is left in are those of one Fraction per draw
        for size in range(41):
            for seed in range(4):
                for denominator in (1, 7, 32):
                    ours, oracle = random.Random(seed), random.Random(seed)
                    got = random_metric(ours, size, denominator)
                    assert got == random_metric_per_entry(oracle, size, denominator)
                    assert ours.getstate() == oracle.getstate(), (size, seed, denominator)

    def test_system_builders_make_bijections(self):
        # cycle and clock systems are trusted at run time
        rng = random.Random(11)
        for _ in range(100):
            base = FiniteSystem.from_cycle_lengths(
                [rng.randint(1, 7) for _ in range(rng.randint(1, 4))]
            )
            assert perm_is_bijection(base), base
            for n in (1, 2, 3):
                assert perm_is_bijection(time_division(base, n)), (base, n)
            assert perm_is_bijection(random_system(rng)), base

    def test_system_file_validated_as_read(self):
        # from_json refuses exactly the perms that are not bijections, and
        # exactly the metrics that break an axiom
        rng = random.Random(12)
        verdicts = []
        for _ in range(200):
            size = rng.randint(1, 5)
            if rng.random() < 0.7:
                perm = rng.sample(range(size), size)
            else:
                perm = [rng.randrange(size) for _ in range(size)]
            data = {"points": list(range(size)), "perm": perm}
            if rng.random() < 0.6:
                # symmetric with a zero diagonal, so only the triangle
                # inequality can fail, unless one entry is then overwritten
                rows = [[0] * size for _ in range(size)]
                for i, j in itertools.combinations(range(size), 2):
                    rows[i][j] = rows[j][i] = rng.randint(1, 3)
                if rng.random() < 0.3:
                    rows[rng.randrange(size)][rng.randrange(size)] = rng.randint(-1, 3)
                data["metric"] = [[f"{d}/4" for d in row] for row in rows]
            unchecked = FiniteSystem(
                tuple(data["points"]),
                tuple(perm),
                finite.metric_from_json(data["metric"]) if "metric" in data else None,
            )
            valid = perm_is_bijection(unchecked) and (
                unchecked.metric is None or not metric_violations(unchecked.metric, size)
            )
            verdicts.append(valid)
            if valid:
                assert FiniteSystem.from_json(data) == unchecked
            else:
                with pytest.raises(ValueError):
                    FiniteSystem.from_json(data)
        assert 20 < sum(verdicts) < len(verdicts) - 20
