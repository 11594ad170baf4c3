"""Acceptance suite: one test per criterion, exact rational assertions.

Each test prints a single PASS/FAIL line naming its criterion; tolerances are
zero (exact equality) unless the criterion itself states a runtime budget.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from mdkit import cli
from mdkit.complexes import build_en_zp, check_free_action, coindex_bounds, reduced_homology_groups
from mdkit.finite import (
    FiniteSystem,
    embed_into_universal,
    map_to_unit_step_space,
    marker_search,
    random_metric,
    verify_marker_transfer,
)
from mdkit.meandim import (
    Cover,
    cover_D,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    select_time_division,
)
from mdkit.shiftspace import (
    check_membership,
    count_periodic_sft,
    count_periodic_sft_bruteforce,
    gap_space,
    sample_gap_window,
    verify_conjugacy_diagram,
)
from mdkit.tower import (
    factor_map,
    level_gap,
    random_anchor,
    section_map,
    tower_aperiodicity_report,
    verify_section,
    zero_anchor,
)

from oracles import cover_D_bruteforce, cover_join, metric_dist, random_system, unequal_entries

HALF = Fraction(1, 2)


def conclude(number: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {status}")
    assert not failures, f"criterion {number} ({label}): {failures[:5]}"


@pytest.fixture(scope="module")
def section_battery():
    """Shared data for criteria 1 and 2: 100 seeded windows per (level, dim),
    each pushed through the section with a zero and a random head block, and
    each checked by ``verify_section``, which must agree with the maps."""
    started = time.monotonic()
    results = {}
    rng = random.Random(20260810)
    for m in (2, 3, 4, 5):
        gap_in = level_gap(m - 1)
        gap_out = level_gap(m)
        for dim in (1, 2):
            identity_failures = []
            range_failures = []
            partitions = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
            for idx in range(100):
                window = sample_gap_window(
                    dim, gap_in, HALF, -gap_out, 3 * gap_out, rng
                )
                for kind, head in (
                    ("zero", zero_anchor(dim, m)),
                    ("random", random_anchor(dim, m, rng)),
                ):
                    out = section_map(m, head, window)
                    back = factor_map(m, out)
                    same_domain = (back.start, back.end) == (window.start, window.end)
                    bad = (
                        tuple(window.start + k for k in unequal_entries(back.seq, window.seq))
                        if same_domain else None
                    )
                    if not same_domain or bad:
                        identity_failures.append((m, dim, idx, kind, bad[:3] if bad else bad))
                    membership = check_membership(gap_space(dim, gap_out, HALF), out)
                    if not membership.passed:
                        range_failures.append((m, dim, idx, kind))
                    counts = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
                    for index in membership.records:
                        if index < 0:
                            counts["lower_tail"] += 1
                        elif index < gap_out:
                            counts["base_block"] += 1
                        else:
                            counts["upper_tail"] += 1
                    for name, count in counts.items():
                        partitions[name] += count
                    # the one-kernel check against the maps' composition
                    report = verify_section(m, head, window, HALF)
                    if report.identity_failures != bad:
                        identity_failures.append((m, dim, idx, kind, "verify_section", report.identity_failures))
                    if report.range_failures != membership.failures or report.partition_counts != counts:
                        range_failures.append((m, dim, idx, kind, "verify_section", report.range_failures))
            results[(m, dim)] = {
                "identity_failures": identity_failures,
                "range_failures": range_failures,
                "partitions": partitions,
            }
    results["elapsed"] = time.monotonic() - started
    return results


def test_criterion_01_section_identity(section_battery):
    failures = []
    for key, data in section_battery.items():
        if key == "elapsed":
            continue
        failures.extend(data["identity_failures"])
    if section_battery["elapsed"] >= 60:
        failures.append(("runtime budget exceeded", section_battery["elapsed"]))
    conclude(1, "section-identity", failures)


def test_criterion_02_section_range(section_battery):
    failures = []
    for key, data in section_battery.items():
        if key == "elapsed":
            continue
        m, dim = key
        failures.extend(data["range_failures"])
        for name, count in data["partitions"].items():
            if count == 0:
                failures.append((m, dim, f"partition {name} never exercised"))
    conclude(2, "section-range", failures)


def test_criterion_03_conjugacy_diagram():
    failures = []
    for p, m in [(5, 2), (5, 3), (7, 2), (7, 3), (11, 4)]:
        for dim in (1, 2):
            _, identities = verify_conjugacy_diagram(
                dim, m, HALF, p, samples=20, seed=1000 * p + 10 * m + dim
            )
            for identity in identities:
                if not identity.ok:
                    failures.append((p, m, dim, identity.name))
    conclude(3, "conjugacy-diagram", failures)


def test_criterion_04_sft_counts():
    failures = []
    forbidden = {"000", "111"}
    counts, brutes = count_periodic_sft(forbidden, 14), count_periodic_sft_bruteforce(forbidden, 14)
    for n, (count, brute) in enumerate(zip(counts, brutes), 1):
        if count != brute:
            failures.append((n, count, brute))
        if n == 1 and count != 0:
            failures.append((n, "expected zero"))
        if n >= 2 and count <= 0:
            failures.append((n, "expected positive"))
    conclude(4, "sft-counts", failures)


def test_criterion_05_tower_aperiodicity():
    failures = []
    by_prime = {c["prime"]: c for c in tower_aperiodicity_report(1, HALF, 5, 13)}
    for p in (2, 3, 5):
        cert = by_prime.get(p)
        if cert is None or cert["kind"] != "empty" or cert["level"] != p or not cert["verified"]:
            failures.append((p, "missing or unverified emptiness certificate"))
    for p in (7, 11, 13):
        cert = by_prime.get(p)
        if cert is None or cert["kind"] != "witness" or cert["level"] != 5 or not cert["verified"]:
            failures.append((p, "missing or unverified period witness"))
    conclude(5, "tower-aperiodicity", failures)


def test_criterion_06_standard_complex_battery():
    started = time.monotonic()
    failures = []
    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        complex_ = build_en_zp(p, n)
        if not check_free_action(complex_):
            failures.append((p, n, "action not free"))
        if complex_.dimension() != n:
            failures.append((p, n, "wrong dimension"))
        for deg, group in enumerate(reduced_homology_groups(complex_)[:n]):
            if not group.is_trivial():
                failures.append((p, n, f"homology nonzero in degree {deg}"))
    for p in (2, 3):
        for n in (0, 1, 2):
            bound = coindex_bounds(build_en_zp(p, n), 2)
            if (bound.lower, bound.upper) != (n, n):
                failures.append((p, n, "coindex interval", bound.lower, bound.upper))
    elapsed = time.monotonic() - started
    assert elapsed < 120
    conclude(6, "standard-complex-battery", failures)


def test_criterion_07_marker_oracle_equivalence():
    from oracles import marker_exists_vectorized

    failures = []
    rng = random.Random(777)
    for index in range(200):
        sys_ = random_system(rng, max_points=12)
        min_cycle = min(map(len, sys_.cycles))
        for n_marker in range(1, 9):
            verdict = marker_search(sys_, n_marker).found
            oracle = marker_exists_vectorized(sys_, n_marker)
            if verdict != oracle:
                failures.append((index, n_marker, "oracle disagrees"))
            if verdict != (n_marker <= min_cycle):
                failures.append((index, n_marker, "min-cycle characterization"))
    conclude(7, "marker-oracle-equivalence", failures)


def test_criterion_08_marker_transfer():
    failures = []
    for lengths in ([3], [5], [3, 5]):
        sys_ = FiniteSystem.from_cycle_lengths(lengths)
        for n in (2, 3):
            for n_marker in (2, 3, 5):
                forward, backward = verify_marker_transfer(sys_, n, n_marker)
                if not (forward["ok"] and backward["ok"]):
                    failures.append((lengths, n, n_marker))
    conclude(8, "marker-transfer", failures)


def test_criterion_09_unit_step_pipeline():
    failures = []
    rng = random.Random(555)
    for index in range(100):
        sys_ = random_system(rng, max_points=12, min_cycle=2)
        report = map_to_unit_step_space(sys_)
        if not report.membership_ok:
            failures.append((index, "membership"))
        if not report.equivariance_ok:
            failures.append((index, "equivariance"))
    conclude(9, "unit-step-pipeline", failures)


def test_criterion_10_embedding_pipeline():
    failures = []
    rng = random.Random(321)
    for index in range(50):
        base = random_system(rng, max_points=12, min_cycle=2)
        sys_ = FiniteSystem(base.points, base.perm, random_metric(rng, base.size))
        min_move = min(metric_dist(sys_, i, sys_.perm[i]) for i in range(sys_.size))
        report = embed_into_universal(sys_, min_move / 2)
        if report.delta <= 0:
            failures.append((index, "delta not positive"))
        if not report.embedding.collision_ok:
            failures.append((index, "collision above epsilon"))
        if not report.membership_ok:
            failures.append((index, "membership"))
        if not report.equivariance_ok:
            failures.append((index, "equivariance"))
    conclude(10, "embedding-pipeline", failures)


def test_criterion_11_cover_calculus():
    failures = []
    interval = interval_lattice()
    two_star = Cover((frozenset({"v0", "e"}), frozenset({"v1", "e"})))
    if cover_D(interval, two_star) != 1:
        failures.append("two-star D is not 1")

    # every cover over the interval model, exact against brute force
    opens = sorted((o for o in interval.opens if o), key=lambda s: sorted(s))
    covers = []
    for mask in range(1, 1 << len(opens)):
        members = tuple(opens[i] for i in range(len(opens)) if mask >> i & 1)
        if frozenset().union(*members) == interval.ground:
            covers.append(Cover(members))
    for cover in covers:
        if cover_D(interval, cover) != cover_D_bruteforce(interval, cover):
            failures.append(("interval brute mismatch", cover.members))

    # monotonicity and subadditivity on all enumerated interval instances
    for finer in covers:
        for coarser in covers:
            if all(any(m <= c for c in coarser.members) for m in finer.members):
                if cover_D(interval, finer) < cover_D(interval, coarser):
                    failures.append(("monotonicity", finer.members, coarser.members))
    for a in covers:
        for b in covers:
            joined = cover_join(a, b)
            if cover_D(interval, joined) > cover_D(interval, a) + cover_D(interval, b):
                failures.append(("subadditivity", a.members, b.members))
    for cover in covers:
        if cover_D(interval, cover) > cover_ord(cover):
            failures.append(("D above ord", cover.members))

    # the face lattice of the standard 4-cycle complex, star cover
    lattice = face_lattice(build_en_zp(2, 1))
    vertices = sorted({c[0] for c in lattice.atoms if len(c) == 1})
    stars = Cover(
        tuple(frozenset(c for c in lattice.atoms if v in c) for v in vertices)
    )
    exact = cover_D(lattice, stars)
    brute = cover_D_bruteforce(lattice, stars)
    if exact != brute:
        failures.append(("four-cycle brute mismatch", exact, brute))
    joined = cover_join(stars, stars)
    if cover_D(lattice, joined) > 2 * exact:
        failures.append("four-cycle subadditivity")
    conclude(11, "cover-calculus", failures)


def test_criterion_12_headline_arithmetic(capsys):
    failures = []
    for width in range(1, 101):
        for n in range(1, 101):
            bound = headline_pipeline(width, n)
            if bound.lower != 0 or bound.upper != Fraction(width, n):
                failures.append((width, n, str(bound.lower), str(bound.upper)))
    for num in range(1, 21):
        for den in range(1, 21):
            eta = Fraction(num, den)
            for width in (1, 3, 10):
                n = select_time_division(width, eta)
                if not Fraction(width, n) < eta:
                    failures.append(("selection", width, str(eta), n))
                if n > 1 and Fraction(width, n - 1) < eta:
                    failures.append(("selection not minimal", width, str(eta), n))
    code = cli.main(["mdim", "pipeline", "--N", "7", "--eta", "2/9"])
    out = capsys.readouterr().out
    report = json.loads(out)
    record = [c for c in report["checks"] if c["name"] == "eta-selection"][0]
    if code != 0 or record["verdict"] != "pass":
        failures.append(("cli eta selection", code))
    if Fraction(7, record["witness"]["n"]) >= Fraction(2, 9):
        failures.append(("cli bound not below eta", record["witness"]))
    conclude(12, "headline-arithmetic", failures)
