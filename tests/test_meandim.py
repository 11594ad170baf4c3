from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdkit.complexes import build_en_zp
from mdkit.meandim import (
    Cover,
    MdimBound,
    OpenLattice,
    SearchCapExceeded,
    ambient_shift_bound,
    cover_D,
    cover_D_bruteforce,
    cover_join,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    inverse_limit_bound,
    power_bound,
    select_time_division,
    subsystem_bound,
    time_division_bound,
    validate_cover,
)

V0E = frozenset({"v0", "e"})
V1E = frozenset({"v1", "e"})
E = frozenset({"e"})


def interval_cover(*members):
    return Cover(tuple(members))


def discrete_lattice():
    atoms = ("a", "b")
    opens = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]
    return OpenLattice(atoms, frozenset(opens))


def all_covers(lattice):
    opens = sorted((o for o in lattice.opens if o), key=lambda s: sorted(s))
    for r in range(1, len(opens) + 1):
        for members in combinations(opens, r):
            if frozenset().union(*members) == lattice.ground:
                yield Cover(members)


class TestLattices:
    def test_interval_model(self):
        lat = interval_lattice()
        assert len(lat.opens) == 5
        assert E in lat.opens

    def test_closure_validation(self):
        with pytest.raises(ValueError, match="union"):
            OpenLattice(
                ("a", "b", "c"),
                frozenset(
                    [
                        frozenset(),
                        frozenset({"a"}),
                        frozenset({"b"}),
                        frozenset({"a", "b", "c"}),
                    ]
                ),
            )
        with pytest.raises(ValueError, match="ground"):
            OpenLattice(("a",), frozenset([frozenset()]))

    def test_face_lattice_of_four_cycle(self):
        lat = face_lattice(build_en_zp(2, 1))
        assert len(lat.atoms) == 8
        assert len(lat.opens) == 47


class TestOrd:
    def test_partition_is_zero(self):
        lat = discrete_lattice()
        cover = Cover((frozenset({"a"}), frozenset({"b"})))
        validate_cover(lat, cover)
        assert cover_ord(cover) == 0

    def test_double_ground_is_one(self):
        lat = interval_lattice()
        cover = interval_cover(lat.ground, lat.ground)
        assert cover_ord(cover) == 1

    def test_two_star_cover(self):
        assert cover_ord(interval_cover(V0E, V1E)) == 1


class TestJoin:
    def test_join_with_trivial_cover(self):
        lat = interval_lattice()
        cover = interval_cover(V0E, V1E)
        joined = cover_join(cover, Cover((lat.ground,)))
        assert set(joined.members) == {V0E, V1E}

    def test_idempotent_on_partitions(self):
        partition = Cover((frozenset({"a"}), frozenset({"b"})))
        joined = cover_join(partition, partition)
        assert set(joined.members) == set(partition.members)

    def test_two_star_self_join(self):
        joined = cover_join(interval_cover(V0E, V1E), interval_cover(V0E, V1E))
        assert set(joined.members) == {V0E, V1E, E}
        assert cover_ord(joined) == 2

    def test_lattice_mismatch(self):
        a = Cover((interval_lattice().ground,), interval_lattice())
        b = Cover((discrete_lattice().ground,), discrete_lattice())
        with pytest.raises(ValueError, match="lattice mismatch"):
            cover_join(a, b)

    def test_lattice_carrying_cover_validates(self):
        with pytest.raises(ValueError, match="not an open"):
            Cover((frozenset({"v0"}),), interval_lattice())


class TestCoverD:
    def test_two_star_is_one(self):
        lat = interval_lattice()
        cover = interval_cover(V0E, V1E)
        assert cover_D(lat, cover) == 1
        assert cover_D_bruteforce(lat, cover) == 1

    def test_trivial_cover_is_zero(self):
        # the cover itself refines itself with overlap count one
        lat = interval_lattice()
        cover = interval_cover(lat.ground)
        assert cover_D(lat, cover) == 0
        assert cover_D_bruteforce(lat, cover) == 0

    def test_partition_refinement_gives_zero(self):
        lat = discrete_lattice()
        assert cover_D(lat, Cover((lat.ground,))) == 0

    def test_exact_matches_bruteforce_interval(self):
        lat = interval_lattice()
        for cover in all_covers(lat):
            assert cover_D(lat, cover) == cover_D_bruteforce(lat, cover)

    def test_star_cover_of_four_cycle(self):
        lat = face_lattice(build_en_zp(2, 1))
        vertices = sorted({c[0] for c in lat.atoms if len(c) == 1})
        stars = tuple(frozenset(c for c in lat.atoms if v in c) for v in vertices)
        cover = Cover(stars)
        assert cover_D(lat, cover) == 1
        assert cover_D_bruteforce(lat, cover) == 1

    def test_monotone_under_refinement(self):
        lat = interval_lattice()
        covers = list(all_covers(lat))
        for finer in covers:
            for coarser in covers:
                refines = all(
                    any(m <= c for c in coarser.members) for m in finer.members
                )
                if refines:
                    assert cover_D(lat, finer) >= cover_D(lat, coarser)

    def test_subadditive_under_join(self):
        lat = interval_lattice()
        covers = list(all_covers(lat))
        for a in covers:
            for b in covers:
                assert cover_D(lat, cover_join(a, b)) <= cover_D(lat, a) + cover_D(lat, b)

    def test_at_most_ord(self):
        lat = interval_lattice()
        for cover in all_covers(lat):
            assert cover_D(lat, cover) <= cover_ord(cover)

    def test_cap_and_bound_mode(self):
        lat = face_lattice(build_en_zp(2, 1))
        vertices = sorted({c[0] for c in lat.atoms if len(c) == 1})
        stars = tuple(frozenset(c for c in lat.atoms if v in c) for v in vertices)
        cover = Cover(stars)
        with pytest.raises(SearchCapExceeded, match="bound mode"):
            cover_D(lat, cover, cap=3)
        lower, upper = cover_D(lat, cover, cap=3, mode="bound")
        assert lower == 0 and upper >= 1

    def test_non_member_rejected(self):
        lat = interval_lattice()
        with pytest.raises(ValueError, match="not an open"):
            validate_cover(lat, Cover((frozenset({"v0"}), V1E)))


class TestBoundRules:
    def test_time_division_example(self):
        bound = time_division_bound(4, ambient_shift_bound(3))
        assert (bound.lower, bound.upper) == (0, Fraction(3, 4))

    def test_inverse_limit_example(self):
        bound = inverse_limit_bound([ambient_shift_bound(3)] * 3)
        assert (bound.lower, bound.upper) == (0, 3)

    def test_power_identity(self):
        base = MdimBound(Fraction(1, 2), Fraction(2))
        assert power_bound(1, base) == MdimBound(
            Fraction(1, 2), Fraction(2), power_bound(1, base).provenance
        )
        doubled = power_bound(2, base)
        assert (doubled.lower, doubled.upper) == (1, 4)

    def test_subsystem(self):
        bound = subsystem_bound(MdimBound(Fraction(1), Fraction(2)))
        assert (bound.lower, bound.upper) == (0, 2)

    def test_unbounded_propagates(self):
        top = MdimBound(Fraction(0), None)
        assert inverse_limit_bound([top, ambient_shift_bound(1)]).upper is None
        assert time_division_bound(3, top).upper is None

    def test_interval_never_inverts(self):
        bound = ambient_shift_bound(4)
        for step in range(1, 10):
            bound = time_division_bound(step, power_bound(step, bound))
            assert bound.upper is None or bound.lower <= bound.upper

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MdimBound(Fraction(-1), Fraction(1))
        with pytest.raises(ValueError, match="inverted"):
            MdimBound(Fraction(2), Fraction(1))

    def test_provenance_chain_grows(self):
        bound = headline_pipeline(3, 5, 4)
        rules = [rec["rule"] for rec in bound.provenance]
        assert rules.count("ambient-shift") == 5
        assert rules[-2:] == ["inverse-limit", "time-division"]


class TestSelection:
    @given(st.integers(1, 50), st.fractions(min_value=Fraction(1, 100), max_value=5))
    def test_select_time_division(self, width, eta):
        n = select_time_division(width, eta)
        assert Fraction(width, n) < eta
        if n > 1:
            assert Fraction(width, n - 1) >= eta

    def test_pipeline_shape(self):
        bound = headline_pipeline(3, 5, 4)
        assert (bound.lower, bound.upper) == (0, Fraction(3, 4))
