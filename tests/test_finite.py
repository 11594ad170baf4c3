import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from mdkit import finite
from mdkit.finite import (
    FiniteSystem,
    Metric,
    embed_into_universal,
    enumerate_markers,
    epsilon_embedding,
    map_to_unit_step_space,
    marker_search,
    permutation_cycles,
    random_metric,
    rokhlin_function,
    time_division,
    verify_marker,
    verify_marker_transfer,
)
from mdkit.shiftspace import (
    MembershipReport,
    check_membership,
    gap_space,
    half_step_space,
    unit_step_space,
)
from mdkit.torus import TorusSeq, TorusVec, frac_from_str, max_circle_dist

from oracles import (
    apply,
    backward_transfer_by_enumeration,
    cycle_position_subsets_by_scan,
    early_returns_by_powers,
    embed_into_universal_by_fractions,
    embedding_images,
    epsilon_embedding_by_fractions,
    first_metric_fault,
    marker_exists_bruteforce,
    marker_exists_vectorized,
    metric_dist,
    metric_violations,
    orbit_map_per_point,
    perm_is_bijection,
    phi_by_backward_walk,
    projection_by_clock_walk,
    random_metric_per_entry,
    random_system,
    uniform_metric,
    value_at,
)

HALF = Fraction(1, 2)


def cycles(*lengths):
    return FiniteSystem.from_cycle_lengths(list(lengths))


def quarter_apart(*lengths):
    """Cycles of the given lengths, every two distinct points 1/4 apart."""
    base = cycles(*lengths)
    return FiniteSystem(base.points, base.perm, Metric.of(uniform_metric(base.size, Fraction(1, 4))))


class TestStructure:
    def test_cycle_decomposition(self):
        sys_ = cycles(3, 2)
        assert list(map(len, sys_.cycles)) == [3, 2]
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
        assert apply(cycles(3), 0, 2) == 2
        with pytest.raises(ValueError, match="power must be >= 0"):
            apply(cycles(3), 0, -1)

    def test_perm_validation(self):
        with pytest.raises(ValueError, match="bijection"):
            FiniteSystem.from_json({"points": ["a", "b"], "perm": [0, 0]})

    def test_metric_validation(self):
        bad = ((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0)))
        with pytest.raises(ValueError, match="symmetric"):
            finite._validate_metric(Metric.of(bad), 2)
        skewed = (
            (Fraction(0), Fraction(1), Fraction(10)),
            (Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(10), Fraction(1), Fraction(0)),
        )
        with pytest.raises(ValueError, match="triangle"):
            finite._validate_metric(Metric.of(skewed), 3)

    def test_metric_file_parses_as_each_entry_alone(self, monkeypatch):
        # repeated strings share one parse, and the first bad entry raises
        # what parsing it alone raises
        rows = [["0", "1/4", " 1/4"], ["1/4", "0", "2/8"], [" 1/4", "2/8", "0"]]
        parsed = []
        monkeypatch.setattr(finite, "frac_from_str", lambda d: parsed.append(d) or frac_from_str(d))
        assert finite.metric_from_json(rows).fractions() == tuple(tuple(map(frac_from_str, row)) for row in rows)
        assert sorted(parsed) == [" 1/4", "0", "1/4", "2/8"]
        for bad in (True, [1], "1/0", "x"):
            with pytest.raises(ValueError) as expected:
                frac_from_str(bad)
            with pytest.raises(ValueError) as got:
                finite.metric_from_json([[0, 1], [1, bad], [bad, "1/0"]])
            assert str(got.value) == str(expected.value)

    def test_metric_faults_match_the_fraction_scan(self):
        # integer numerators over one denominator give the message of a scan
        # of every triple in Fractions, the first fault in scan order
        rng = random.Random(13)
        messages = set()
        for _ in range(400):
            size = rng.randint(1, 6)
            rows = [[Fraction(0)] * size for _ in range(size)]
            for i, j in itertools.combinations(range(size), 2):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6)))
            for _ in range(rng.choice((0, 0, 1, 2))):
                # one entry, or a pair kept symmetric, overwritten
                i, j = rng.randrange(size), rng.randrange(size)
                rows[i][j] = Fraction(rng.randint(-2, 6), rng.choice((1, 3, 5)))
                if rng.random() < 0.5:
                    rows[j][i] = rows[i][j]
            metric = tuple(map(tuple, rows))
            expected = first_metric_fault(metric, size)
            messages.add(expected)
            try:
                finite._validate_metric(Metric.of(metric), size)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == expected, metric
        assert len(messages) == 5

    def test_json_round_trip(self):
        sys_ = quarter_apart(2)
        restored = FiniteSystem.from_json(sys_.to_json())
        assert restored == sys_


class TestTimeDivision:
    def test_examples(self):
        assert sorted(map(len, time_division(cycles(3), 2).cycles)) == [6]
        assert sorted(map(len, time_division(cycles(2, 5), 3).cycles)) == [6, 15]

    def test_identity_for_n_one(self):
        sys_ = cycles(4)
        divided = time_division(sys_, 1)
        assert list(map(len, divided.cycles)) == list(map(len, sys_.cycles))

    def test_composition_multiplies(self):
        sys_ = cycles(2, 3)
        twice = time_division(time_division(sys_, 2), 3)
        once = time_division(sys_, 6)
        assert sorted(map(len, twice.cycles)) == sorted(map(len, once.cycles))

    def test_base_conjugacy(self):
        # the phase-0 points under the n-th power step like the base: x -> (x, 0)
        for lengths in ([3], [2, 5], [4, 4]):
            for n in (1, 2, 3):
                base = FiniteSystem.from_cycle_lengths(lengths)
                divided = time_division(base, n)
                assert all(apply(divided, i * n, n) == base.perm[i] * n for i in range(base.size))


class TestMarkerSearch:
    def test_five_cycle_found(self):
        cert = marker_search(cycles(5), 5)
        assert cert.found and len(cert.subset) == 1
        assert verify_marker(cycles(5), cert.subset, 5) is True

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
                assert verdict == (n_marker <= min(map(len, sys_.cycles)))

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
            shortest = min(map(len, sys_.cycles))
            for n_marker in (1, 2, shortest, shortest + 1, 25):
                cert = marker_search(sys_, n_marker)
                assert cert.found == (n_marker <= shortest)
                if cert.found:
                    assert verify_marker(sys_, cert.subset, n_marker) is True
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
            returns = [sorted(i) for _, i in finite._early_returns(sys_, sorted(set(subset)), n_marker)]
            assert returns == early_returns_by_powers(sys_, subset, n_marker)

    def test_verifier_stops_at_the_first_early_return(self):
        # point 0 returns to (0, 1) in one step: the verdict is read after
        # one step per point, where a walk to n = N - 1 takes 99,999
        class CountingPerm(tuple):
            reads = 0

            def __getitem__(self, index):
                CountingPerm.reads += 1
                return super().__getitem__(index)

        sys_ = cycles(100_000)
        counted = FiniteSystem(sys_.points, CountingPerm(sys_.perm))
        assert verify_marker(counted, (0, 1), 100_000) is False
        assert CountingPerm.reads == 2

    def test_verifier_verdict_matches_the_part_rule(self):
        rng = random.Random(27)
        verdicts = []
        for _ in range(400):
            sys_ = random_system(rng, max_points=10)
            n_marker = rng.randint(1, sys_.size + 1)
            subsets = [rng.sample(range(sys_.size), rng.randint(1, sys_.size)) for _ in range(3)]
            if min(map(len, sys_.cycles)) >= n_marker:
                subsets += [sorted(u) for u in rng.sample(enumerate_markers(sys_, n_marker), 1)]
            for subset in subsets:
                ok = verify_marker(sys_, subset, n_marker)
                # the marker rule split over cycles: U's positions in each
                # one form a nonempty part the one-cycle rule accepts
                chosen = set(subset)
                parts = [(len(c), [k for k, i in enumerate(c) if i in chosen]) for c in sys_.cycles]
                ruled = all(part and finite._part_ok(length, part, n_marker) for length, part in parts)
                assert ruled == ok, (sys_, subset, n_marker)
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

    def test_marker_count_stops_at_the_cap(self, monkeypatch):
        # the 10,000-point extension of a 5,000-cycle passes the cap at its
        # pairs: the sizes above them are never counted
        calls = []
        monkeypatch.setattr(finite, "comb", lambda n, k: calls.append(k) or math.comb(n, k))
        with pytest.raises(ValueError, match="tighten"):
            verify_marker_transfer(cycles(5000), 2, 2)
        assert calls == [0, 1]
        # a cycle shorter than N makes the count 0 before any is counted
        calls.clear()
        assert enumerate_markers(cycles(5000, 3), 4) == []
        assert calls == []

    def test_certificate_json(self):
        sys_ = cycles(5)
        data = marker_search(sys_, 5).to_json(sys_)
        assert data["verdict"] == "found"
        assert data["subset_points"] == ["c0n0"]
        assert any("covers" in entry["condition"] for entry in data["transcript"])

    def test_found_transcript_holds_one_record_per_condition(self):
        # once the verifier passes, its N - 1 per-n records are all empty;
        # a 100,000-marker keeps two records, not 100,000
        for n_marker in (1, 2, 5, 100_000):
            sys_ = cycles(n_marker, n_marker + 1)
            cert = marker_search(sys_, n_marker)
            conditions = ["the orbit of U covers every point"]
            if n_marker > 1:
                conditions.insert(0, f"U and its n-step preimage are disjoint, n=1..{n_marker - 1}")
            assert [record["condition"] for record in cert.transcript] == conditions
            assert not any(record["violations"] for record in cert.transcript)


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
    return FiniteSystem(tuple(range(size)), tuple(range(size)), Metric.of(uniform_metric(size, value)))


class TestEmbeddings:
    def test_three_equidistant_points(self):
        report = epsilon_embedding(metric_points(3, Fraction(1, 4)), Fraction(1, 5))
        assert report.n_coords == 3
        images = embedding_images(report)
        assert len(set(images)) == 3
        assert min(itertools.starmap(max_circle_dist, itertools.combinations(images, 2))) == Fraction(1, 4)
        assert report.collision_ok

    def test_single_point(self):
        report = epsilon_embedding(metric_points(1, Fraction(0)), Fraction(1, 5))
        assert report.n_coords == 1
        assert report.collision_ok

    def test_two_close_points(self):
        # 1/10 is not below epsilon/2, so each point is a center
        report = epsilon_embedding(metric_points(2, Fraction(1, 10)), Fraction(1, 5))
        assert len(set(embedding_images(report))) == 2
        assert report.collision_ok

    def test_rescaling_recorded(self):
        report = epsilon_embedding(metric_points(2, Fraction(1)), Fraction(1, 5))
        assert report.scale == Fraction(1, 4)
        assert len(set(embedding_images(report))) == 2
        assert report.collision_ok

    def test_far_pair_with_one_image_is_a_collision(self):
        # a table that is no metric (1/4 > 1/20 + 1/20): points 1 and 2 both
        # lie 1/20 from the one center, 0, so they share an image, and lie
        # 1/4 apart.  The embedding trusts its table and reports the collision
        table = tuple(
            tuple(Fraction(d) for d in row)
            for row in (("0", "1/20", "1/20"), ("1/20", "0", "1/4"), ("1/20", "1/4", "0"))
        )
        sys_ = FiniteSystem((0, 1, 2), (0, 1, 2), Metric.of(table))
        report = epsilon_embedding(sys_, Fraction(1, 5))
        images = embedding_images(report)
        assert report.centers == (0,) and images[1] == images[2]
        assert not report.collision_ok
        # the same pair below epsilon is no collision
        assert epsilon_embedding(sys_, Fraction(3, 10)).collision_ok

    def test_universal_two_cycle(self):
        sys_ = quarter_apart(2)
        report = embed_into_universal(sys_, Fraction(1, 5))
        assert report.delta > 0
        assert report.passed

    def test_universal_five_cycle(self):
        sys_ = quarter_apart(5)
        report = embed_into_universal(sys_, Fraction(1, 5))
        assert report.passed
        space = gap_space(report.n_coords, 1, report.delta)
        for seq in report.sequences:
            assert check_membership(space, seq).passed

    def test_fixed_point_error(self):
        sys_ = quarter_apart(1, 2)
        with pytest.raises(ValueError, match="fixed-point free"):
            embed_into_universal(sys_, Fraction(1, 5))

    def test_epsilon_too_large_error(self):
        sys_ = quarter_apart(2)
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
            for field in ("centers", "scale", "epsilon", "collision_ok"):
                assert getattr(report, field) == getattr(expected, field), (field, epsilon)
            assert embedding_images(report) == expected.images, epsilon
            assert all(type(getattr(report, f)) is Fraction for f in ("scale", "epsilon"))
            rescaled += report.scale != 1
            # a point exactly epsilon/2 from a center, and a pair exactly
            # epsilon apart (a rescale scales both sides)
            metric = sys_.metric.fractions()
            at_half += any(2 * metric[i][c] == epsilon for i in range(sys_.size) for c in report.centers)
            at_epsilon += any(d == epsilon for row in metric for d in row)
        assert at_half > 10 and at_epsilon > 10 and rescaled > 10

    def test_universal_embedding_matches_fraction_oracle(self):
        # delta, membership and equivariance against the Fraction pipeline,
        # and the embedding's size, scale and collisions against the Fraction
        # embedding, on the embedding cases made fixed-point free and on
        # random systems up to the point cap
        compared = refused = 0
        for sys_, epsilon in universal_cases():
            if epsilon >= min(metric_dist(sys_, i, j) for i, j in enumerate(sys_.perm)):
                with pytest.raises(ValueError, match="minimal displacement"):
                    embed_into_universal(sys_, epsilon)
                refused += 1
                continue
            report = embed_into_universal(sys_, epsilon)
            expected = embed_into_universal_by_fractions(sys_, epsilon)
            for field in ("delta", "membership_ok", "equivariance_ok"):
                assert getattr(report, field) == getattr(expected, field), (field, epsilon)
            for field in ("n_coords", "scale", "collision_ok"):
                assert getattr(report.embedding, field) == getattr(expected.embedding, field), (field, epsilon)
            assert type(report.delta) is Fraction
            compared += 1
        assert (compared, refused) == (71, 96)


def universal_cases():
    """``embedding_cases`` with each system's points put on one cycle where
    it has a fixed point, then random fixed-point-free systems of 2 to 40
    points and one of ``MAX_EMBED_POINTS``, each with a random metric, at
    epsilon 1/10 and at half their least displacement."""
    for sys_, epsilon in embedding_cases():
        if sys_.has_fixed_points():
            n = sys_.size
            sys_ = FiniteSystem(sys_.points, tuple((i + 1) % n for i in range(n)), sys_.metric)
        yield sys_, epsilon
    rng = random.Random(4049)
    bases = [random_system(rng, max_points=40, min_cycle=2) for _ in range(30)]
    bases.append(cycles(100, 60, 40))  # MAX_EMBED_POINTS points
    for base in bases:
        sys_ = FiniteSystem(base.points, base.perm, random_metric(rng, base.size))
        least = min(metric_dist(sys_, i, j) for i, j in enumerate(sys_.perm))
        for epsilon in (Fraction(1, 10), least / 2):
            yield sys_, epsilon


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
        systems.append(FiniteSystem(base.points, base.perm, Metric.of(uniform_metric(base.size, value))))
    for low in (Fraction(1, 16), Fraction(1, 9), Fraction(1, 5), Fraction(1, 3), Fraction(2)):
        for _ in range(2):
            systems.append(FiniteSystem.from_json(mixed_metric_json(rng, rng.randint(2, 16), low)))
    for sys_ in systems:
        distances = sorted({d for row in sys_.metric.fractions() for d in row if d})
        picked = rng.sample(distances, min(2, len(distances)))
        epsilons = {Fraction(rng.randint(1, 64), 64)} | set(picked) | {2 * d for d in picked}
        for epsilon in sorted(epsilons):
            yield sys_, epsilon


def cycles_walked_backwards(perm):
    """``permutation_cycles`` with each cycle walked from its first point
    backwards, against the permutation on every cycle of three or more."""
    return tuple(c[:1] + c[:0:-1] for c in permutation_cycles(perm))


# both pipelines read their images along orbits through one orbit map
ORBIT_PIPELINES = {
    "unit-step": lambda: map_to_unit_step_space(cycles(3, 5)),
    "universal": lambda: embed_into_universal(quarter_apart(3, 5), Fraction(1, 5)),
}


class TestOrbitMap:
    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_failed_membership_is_reported(self, pipeline, monkeypatch):
        monkeypatch.setattr(finite, "check_membership", lambda space, x: MembershipReport("fail", range(1), (0,)))
        report = ORBIT_PIPELINES[pipeline]()
        assert not report.membership_ok and report.equivariance_ok and not report.passed

    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_failed_equivariance_is_reported(self, pipeline, monkeypatch):
        # cycles walked with their tails reversed: the orbit points still
        # read every image of their cycle, but not in the order T visits them
        monkeypatch.setattr(finite, "permutation_cycles", cycles_walked_backwards)
        report = ORBIT_PIPELINES[pipeline]()
        assert report.membership_ok and not report.equivariance_ok and not report.passed

    @pytest.mark.parametrize("pipeline", sorted(ORBIT_PIPELINES))
    def test_sequences_follow_the_orbits(self, pipeline):
        # entry n of cycle c's point is the image of T^n(c[0])
        report = ORBIT_PIPELINES[pipeline]()
        assert report.passed
        sys_ = cycles(3, 5)
        if pipeline == "unit-step":
            phi = rokhlin_function(sys_, marker_search(sys_, 2).subset, 2).phi
            images = [TorusVec.of(t) for t in phi]
        else:
            images = embedding_images(report.embedding)
        assert [s.period for s in report.sequences] == [3, 5]
        for cycle, seq in zip(sys_.cycles, report.sequences):
            assert [value_at(seq, n) for n in range(seq.period)] == [
                images[apply(sys_, cycle[0], n)] for n in range(seq.period)
            ]

    def test_membership_per_cycle_matches_per_point(self, monkeypatch):
        # random images of random fixed-point-free systems in step and gap
        # spaces, every other one with its cycles walked backwards:
        # membership checked on each cycle's point equals the verdict over
        # every point's sequence, and the cycle walk passes exactly where the
        # walk is T's and the per-point shift comparison passes.  In many
        # systems one cycle fails beside one that passes
        rng = random.Random(2203)
        spaces = [
            unit_step_space(),
            half_step_space(),
            gap_space(1, 1, Fraction(1, 4)),
            gap_space(1, 2, Fraction(1, 4)),
        ]
        verdicts, mixed, misordered = [], 0, 0
        for index in range(300):
            with monkeypatch.context() as patch:
                if index % 2:
                    patch.setattr(finite, "permutation_cycles", cycles_walked_backwards)
                sys_ = random_system(rng, max_points=12, min_cycle=2)
                walked = sys_.cycles
            den = rng.choice((1, 2, 4))
            images = [TorusVec((rng.randrange(2 * den),), den) for _ in range(sys_.size)]
            space = rng.choice(spaces)
            _, membership_ok, equivariance_ok = finite._orbit_map(sys_, TorusSeq.of(images, dim=1), space)
            sequences, oracle_membership, oracle_equivariance = orbit_map_per_point(sys_, images, space)
            assert membership_ok == oracle_membership, (sys_.perm, images, space)
            true_walk = walked == permutation_cycles(sys_.perm)
            assert equivariance_ok == (true_walk and oracle_equivariance), (walked, images)
            misordered += not oracle_equivariance
            verdicts.append(membership_ok)
            per_point = [check_membership(space, seq).passed for seq in sequences]
            mixed += {all(per_point[i] for i in c) for c in walked} == {True, False}
        assert 20 < sum(verdicts) < len(verdicts) - 20
        assert mixed > 20
        assert misordered > 50


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
        # reject every base part at N = 4: the 15 extension 15-markers of a
        # 5-cycle at n = 3 are single points, and they project to the 5 base
        # points
        part_ok = finite._part_ok
        monkeypatch.setattr(finite, "_part_ok", lambda length, u, k: False if k == 4 else part_ok(length, u, k))
        report = verify_marker_transfer(cycles(5), 3, 5)
        assert not report.passed
        violations = report.backward["violations"]
        assert [v["projected"] for v in violations] == [[0], [1], [2], [3], [4]]
        # each names the first marker, in the cycle's walk, with that projection
        assert [v["marker"] for v in violations] == [[0], [1], [4], [7], [10]]

    def test_projections_match_the_clock_walk(self, monkeypatch):
        # with every base part failing, each cycle's records run through
        # the projections its marker parts can have, once each, and every
        # record is one cycle's part of an extension marker with its
        # clock-walk projection
        part_ok = finite._part_ok
        for lengths in ([5], [3, 4], [2, 2, 3]):
            base = FiniteSystem.from_cycle_lengths(lengths)
            for n in (1, 2, 3):
                for n_marker in (2, 3):
                    monkeypatch.setattr(
                        finite,
                        "_part_ok",
                        lambda length, u, k: False if k == n_marker - 1 else part_ok(length, u, k),
                    )
                    report = verify_marker_transfer(base, n, n_marker)
                    divided = time_division(base, n)
                    markers = {frozenset(w) for w in enumerate_markers(divided, n * n_marker)}
                    parts = {w.intersection(cycle) for w in markers for cycle in divided.cycles}
                    got = report.backward.get("violations", [])
                    for v in got:
                        assert frozenset(v["marker"]) in parts
                        assert projection_by_clock_walk(divided, v["marker"], n) == v["projected"]
                    walked = [set(projection_by_clock_walk(divided, w, n)) for w in markers]
                    start = 0
                    for cycle in base.cycles:
                        expected = {tuple(sorted(p.intersection(cycle))) for p in walked}
                        records = got[start : start + len(expected)]
                        assert sorted(tuple(v["projected"]) for v in records) == sorted(expected)
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
        # two base rules: the real one, which every projection passes, and
        # one also failing the subsets that hold the first point of a cycle
        # with its image, a rule that, like the real one, splits over
        # cycles; the oracle asks verify_marker, the transfer its part rule
        monkeypatch.setattr(finite, "MAX_MARKERS", 5000)
        verify, part_ok = finite.verify_marker, finite._part_ok
        verdicts = []
        for base, n, n_marker in self.seeded_transfers():
            pairs = [{cycle[0], cycle[1 % len(cycle)]} for cycle in base.cycles]
            for fake in (False, True):
                def rejects(s, u):
                    return fake and s is base and any(pair <= set(u) for pair in pairs)

                monkeypatch.setattr(
                    finite, "verify_marker", lambda s, u, k: False if rejects(s, u) else verify(s, u, k)
                )
                monkeypatch.setattr(
                    finite,
                    "_part_ok",
                    lambda length, u, k: not (fake and {0, 1 % length} <= set(u)) and part_ok(length, u, k),
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
                    # each record is one cycle's share of a failing projection,
                    # and every failing projection has a recorded share
                    def shares(projected):
                        return {tuple(i for i in projected if i in cycle) for cycle in base.cycles}

                    recorded = {tuple(v["projected"]) for v in backward["violations"]}
                    assert all(shares(f) & recorded for f in failing)
                    assert recorded <= set().union(*map(shares, failing))
                else:
                    assert "violations" not in backward
                verdicts.append((bool(count), expected_ok))
        # refusals, empty extensions, passes and failures all occur
        assert {"refused", (False, True), (True, True), (True, False)} <= set(verdicts)

    def test_violations_are_real_markers(self, monkeypatch):
        monkeypatch.setattr(finite, "MAX_MARKERS", 5000)
        verify, part_ok = finite.verify_marker, finite._part_ok
        checked = 0
        for base, n, n_marker in self.seeded_transfers():
            monkeypatch.setattr(
                finite, "_part_ok", lambda length, u, k: False if k == n_marker - 1 else part_ok(length, u, k)
            )
            try:
                report = verify_marker_transfer(base, n, n_marker)
            except ValueError:
                continue
            divided = time_division(base, n)
            for v in report.backward.get("violations", []):
                # a record is one cycle's part: with the first point of every
                # other cycle it is an extension marker
                others = [cycle[0] for cycle in divided.cycles if not set(cycle) & set(v["marker"])]
                assert len(others) == len(divided.cycles) - 1
                assert verify(divided, v["marker"] + others, n * n_marker), (base, n, n_marker, v)
                assert projection_by_clock_walk(divided, v["marker"], n) == v["projected"]
                checked += 1
        assert checked > 200

    @staticmethod
    def lemma_cases():
        """(L, n, N) for L <= 12, n <= 4 and N <= 5 whose extension cycle
        has at most 20,000 nN-parts."""
        for length in range(1, 13):
            for n in range(1, 5):
                for n_marker in range(1, 6):
                    if sum(finite._cycle_position_subset_counts(n * length, n * n_marker)) <= 20_000:
                        yield length, n, n_marker

    def test_projections_are_the_base_parts(self):
        # the lemma the backward walk rests on: the distinct clock-walk
        # projections of an extension cycle's nN-parts are the base cycle's
        # N-parts.  On one cycle a point is its position in the walk
        cases = 0
        for length, n, n_marker in self.lemma_cases():
            divided = time_division(cycles(length), n)
            assert divided.cycles == (tuple(range(n * length)),)
            projected = {
                tuple(projection_by_clock_walk(divided, part, n))
                for part in finite._cycle_position_subsets(n * length, n * n_marker)
            }
            assert projected == set(finite._cycle_position_subsets(length, n_marker)), (length, n, n_marker)
            cases += 1
        assert cases == 228

    def test_records_name_the_first_marker_of_each_projection(self, monkeypatch):
        # with every projection failing, the records are the oracle's failing
        # projections, in its order, each with the first marker in sorted
        # order that projects onto it: the greedy part
        monkeypatch.setattr(finite, "MAX_MARKERS", 20_000)
        compared = 0
        for length, n, n_marker in self.lemma_cases():
            base = cycles(length)
            with monkeypatch.context() as patch:
                patch.setattr(finite, "verify_marker", lambda s, u, k: False)
                _, count, failing = backward_transfer_by_enumeration(base, n, n_marker)
            with monkeypatch.context() as patch:
                patch.setattr(finite, "_part_ok", lambda length, u, k: False)
                backward = verify_marker_transfer(base, n, n_marker).backward
            expected = [{"marker": w, "projected": list(q)} for q, w in failing.items()]
            assert backward.get("violations", []) == expected, (length, n, n_marker)
            compared += bool(count)
        assert compared == 188

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
                counts = list(finite._cycle_position_subset_counts(length, n_marker))
                if sum(counts) > 5_000:
                    continue
                subsets = finite._cycle_position_subsets(length, n_marker)
                assert subsets == cycle_position_subsets_by_scan(length, n_marker)
                assert [sum(len(s) == k for s in subsets) for k in range(1, len(counts) + 1)] == counts
                pairs += 1
        assert pairs == 422
        assert finite._cycle_position_subsets(3, 4) == []

    def test_part_rule_matches_the_scan(self):
        # every nonempty position subset of every cycle up to length 10, at
        # every N up to one past the length: the rule accepts exactly the
        # parts the scan lists
        for length in range(1, 11):
            subsets = [
                tuple(pos for pos in range(length) if mask >> pos & 1) for mask in range(1, 1 << length)
            ]
            for n_marker in range(1, length + 2):
                accepted = set(cycle_position_subsets_by_scan(length, n_marker))
                for positions in subsets:
                    assert finite._part_ok(length, positions, n_marker) == (positions in accepted)


class TestRandomGenerators:
    def test_deterministic(self):
        a = random_system(random.Random(5), max_points=10)
        b = random_system(random.Random(5), max_points=10)
        assert a == b

    def test_min_cycle_respected(self):
        rng = random.Random(6)
        for _ in range(50):
            sys_ = random_system(rng, max_points=12, min_cycle=2)
            assert min(map(len, sys_.cycles)) >= 2
            assert sys_.size <= 12

    def test_random_metric_valid(self):
        # a random table is trusted at run time, so sizes 1-16 are held to
        # the metric axioms over many seeds
        for size in range(1, 17):
            for seed in range(20):
                metric = random_metric(random.Random(seed), size).fractions()
                assert metric_violations(metric, size) == [], (size, seed)
                values = {metric[i][j] for i in range(size) for j in range(size) if i != j}
                assert all(Fraction(1, 8) <= v <= Fraction(1, 4) for v in values)

    def test_random_metric_matches_per_entry_draws(self):
        # the value table is indexed by the same draws, so the table and the
        # state the stream is left in are those of one Fraction per draw
        for size in range(41):
            for seed in range(4):
                ours, oracle = random.Random(seed), random.Random(seed)
                assert random_metric(ours, size).fractions() == random_metric_per_entry(oracle, size)
                assert ours.getstate() == oracle.getstate(), (size, seed)
        # and 50 seeds at larger sizes, the embedding cap among them
        for seed in range(50):
            size = random.Random(seed).randint(41, 100) if seed else finite.MAX_EMBED_POINTS
            ours, oracle = random.Random(seed), random.Random(seed)
            assert random_metric(ours, size).fractions() == random_metric_per_entry(oracle, size)
            assert ours.getstate() == oracle.getstate(), (size, seed)

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
        # _validate_metric exactly the metrics that break an axiom
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
            bijective = perm_is_bijection(unchecked)
            valid = bijective and (
                unchecked.metric is None or not metric_violations(unchecked.metric.fractions(), size)
            )
            verdicts.append(valid)
            if not bijective:
                with pytest.raises(ValueError):
                    FiniteSystem.from_json(data)
                continue
            # a metric of the right shape is read unchecked
            assert FiniteSystem.from_json(data) == unchecked
            if valid:
                if unchecked.metric is not None:
                    finite._validate_metric(unchecked.metric, size)
            else:
                with pytest.raises(ValueError):
                    finite._validate_metric(unchecked.metric, size)
        assert 20 < sum(verdicts) < len(verdicts) - 20
