from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdkit import meandim
from mdkit.complexes import build_en_zp
from mdkit.meandim import (
    Cover,
    MdimBound,
    OpenLattice,
    SearchCapExceeded,
    ambient_shift_bound,
    cover_D,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    inverse_limit_bound,
    select_time_division,
    star_cover,
    time_division_bound,
    validate_cover,
)

from oracles import cover_D_bruteforce, cover_join, vertex_star_cover

V0E = frozenset({"v0", "e"})
V1E = frozenset({"v1", "e"})
E = frozenset({"e"})


def interval_cover(*members):
    return Cover(tuple(members))


def discrete_lattice():
    return OpenLattice(("a", "b"), {"a": set(), "b": set()})


def powerset_up_sets(atoms, below):
    """Every subset S of atoms with b in S whenever a in S and below(a, b)."""
    return {
        frozenset(s)
        for r in range(len(atoms) + 1)
        for s in combinations(atoms, r)
        if all(b in s for a in s for b in atoms if below(a, b))
    }


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

    def test_coface_validation(self):
        with pytest.raises(ValueError, match="unknown atom"):
            OpenLattice(("a", "b"), {"a": {"c"}, "b": set()})
        with pytest.raises(ValueError, match="one entry per atom"):
            OpenLattice(("a", "b"), {"a": {"b"}})
        with pytest.raises(ValueError, match="one entry per atom"):
            OpenLattice(("a",), {"a": set(), "b": set()})

    def test_opens_are_the_up_sets(self):
        interval_below = {("v0", "e"), ("v1", "e")}
        cases = [
            (interval_lattice(), lambda a, b: (a, b) in interval_below, 5),
            (discrete_lattice(), lambda a, b: False, 4),
        ]
        for p in (2, 3):
            lat = face_lattice(build_en_zp(p, 1))
            cases.append((lat, lambda a, b: set(a) < set(b), {2: 47, 3: 1193}[p]))
        for lat, below, count in cases:
            assert lat.opens == powerset_up_sets(lat.atoms, below)
            assert len(lat.opens) == count
            assert all(lat.is_open(o) for o in lat.opens)

    def test_is_open_refuses_unknown_atoms(self):
        lat = interval_lattice()
        assert not lat.is_open(frozenset({"e", "x"}))

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

    def test_star_cover_of_the_interval(self):
        assert star_cover(interval_lattice()).members == (V0E, V1E)

    @pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3, 5) for n in (0, 1, 2)])
    def test_star_cover_is_the_vertex_stars(self, p, n):
        lat = face_lattice(build_en_zp(p, n))
        assert star_cover(lat).members == vertex_star_cover(lat)

    def test_star_cover_of_four_cycle(self):
        lat = face_lattice(build_en_zp(2, 1))
        cover = star_cover(lat)
        assert cover_D(lat, cover) == 1
        assert cover_D_bruteforce(lat, cover) == 1

    @pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3) for n in (0, 1, 2)])
    def test_star_cover_D_is_dimension(self, p, n):
        # a refining open containing the vertex cell v is an up-set inside
        # some star(w), so it holds star(v) and w = v; every star is needed,
        # and a top simplex lies in dim K + 1 of them
        complex_ = build_en_zp(p, n)
        lat = face_lattice(complex_)
        cover = star_cover(lat)
        assert cover_D(lat, cover) == complex_.dimension() == n
        if n == 0 or (p, n) == (2, 1):
            assert cover_D_bruteforce(lat, cover) == n

    @pytest.mark.parametrize("model", [None, (2, 1), (2, 2), (3, 1), (3, 2), (7, 1)])
    def test_sort_orders_match_one_repr_per_atom_per_set(self, monkeypatch, model):
        # cover_D searches its candidates in sorted order; the orders of the
        # candidates and the members are those of the key that took each
        # atom's repr again for every set (en-zp(7, 1) has vertex indices
        # past 9, where repr order is not tuple order)
        def repr_key(s):
            return (len(s), sorted(repr(a) for a in s))

        sorts = []

        def checked(sets, atoms):
            # checked before the search runs in the order it returns
            sets = list(sets)
            result = sorted_sets(sets, atoms)
            assert result == sorted(sets, key=repr_key)
            sorts.append(result)
            return result

        sorted_sets = meandim._sorted_sets
        monkeypatch.setattr(meandim, "_sorted_sets", checked)
        lat = interval_lattice() if model is None else face_lattice(build_en_zp(*model))
        cover = star_cover(lat)
        cover_D(lat, cover)
        assert len(sorts) == 2

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
        with pytest.raises(SearchCapExceeded, match="raise the cap"):
            cover_D(lat, star_cover(lat), cap=3)
        # a fan, e above four vertices, covered by the four stars {v, e}: the
        # 12 opens listed inside the members fit a cap of 12, the search not
        atoms = ("e", "v0", "v1", "v2", "v3")
        lat = OpenLattice(atoms, {"e": set(), **{v: {"e"} for v in atoms[1:]}})
        cover = Cover(tuple(frozenset({v, "e"}) for v in atoms[1:]))
        with pytest.raises(SearchCapExceeded, match="candidate enumeration exceeded 11 nodes"):
            cover_D(lat, cover, cap=11)
        with pytest.raises(SearchCapExceeded, match="feasibility search exceeded 12 nodes"):
            cover_D(lat, cover, cap=12)
        assert cover_D(lat, cover) == cover_D_bruteforce(lat, cover) == 3
        # the trivial cover of the discrete lattice holds exactly its 4 subsets
        lat = discrete_lattice()
        assert cover_D(lat, Cover((lat.ground,)), cap=4) == 0
        with pytest.raises(SearchCapExceeded, match="candidate enumeration exceeded 3 nodes"):
            cover_D(lat, Cover((lat.ground,)), cap=3)

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

    def test_unbounded_propagates(self):
        # every chain starts at the finite ambient bound, and each rule keeps
        # its upper end finite: the largest level end, divided by the clock
        top = MdimBound(Fraction(0), Fraction(5))
        assert inverse_limit_bound([top, ambient_shift_bound(1)]).upper == 5
        assert time_division_bound(3, top).upper == Fraction(5, 3)
        assert time_division_bound(3, top).to_json()["upper"] == "5/3"

    def test_interval_never_inverts(self):
        starts = (ambient_shift_bound(4), MdimBound(Fraction(1, 2), Fraction(4)), MdimBound(Fraction(1), Fraction(1)))
        for bound in starts:
            for step in range(1, 10):
                bound = time_division_bound(step, bound)
                assert bound.lower <= bound.upper

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            MdimBound(Fraction(-1), Fraction(1))
        with pytest.raises(ValueError, match="inverted"):
            MdimBound(Fraction(2), Fraction(1))

    def test_provenance_chain_grows(self):
        # one ambient record names every level
        bound = headline_pipeline(3, 4)
        rules = [rec["rule"] for rec in bound.provenance]
        assert rules == ["ambient-shift", "inverse-limit", "time-division"]
        assert bound.provenance[0]["statement"].startswith("at each level, ")


class TestSelection:
    @given(st.integers(1, 50), st.fractions(min_value=Fraction(1, 100), max_value=5))
    def test_select_time_division(self, width, eta):
        n = select_time_division(width, eta)
        assert Fraction(width, n) < eta
        if n > 1:
            assert Fraction(width, n - 1) >= eta

    def test_pipeline_shape(self):
        bound = headline_pipeline(3, 4)
        assert (bound.lower, bound.upper) == (0, Fraction(3, 4))
