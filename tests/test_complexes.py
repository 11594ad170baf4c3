import hashlib
import itertools
import json
import random

import pytest

from mdkit import cli, complexes
from mdkit.complexes import (
    MAX_SIMPLICES,
    CoindexBound,
    FreeZpComplex,
    HomologyGroup,
    build_en_zp,
    check_free_action,
    coindex_bounds,
    coindex_finite,
    coindex_join,
    coindex_map,
    coindex_power,
    equivariant_map_search,
    homology_euler_consistent,
    join_complexes,
    reduced_homology_groups,
    smith_normal_form_diagonal,
    verify_equivariant_simplicial,
)
from mdkit.complexes import _closure, _coboundary_columns, _invariant_factors, _is_standard, _validate_complex
from mdkit.finite import permutation_cycles

from oracles import (
    coboundary_columns_by_combinations,
    coindex_bounds_per_level,
    complex_file,
    complex_violations,
    en_zp_face_table_by_product,
    free_action_by_all_powers,
    invariant_factors_by_minors,
    map_search_testing_every_simplex,
    maximal_by_subsets,
    order_divides_by_all_powers,
    reduced_homology_dense,
)


def from_maximal_faces(p, vertices, maximal, action) -> FreeZpComplex:
    """A complex file that lists only maximal faces, each by vertex names,
    with the action as a map of names, read as ``complex coindex`` reads it:
    closed downward and validated.  A file lists only the vertices of its
    faces, so a vertex no face holds is left out; the faces here are closed
    under the action, and so are the vertices they hold."""
    held = {v for face in maximal for v in face}
    vertices = [v for v in vertices if v in held]
    index = {v: i for i, v in enumerate(vertices)}
    return FreeZpComplex.from_json(
        {
            "p": p,
            "vertices": vertices,
            "simplices": [[index[v] for v in face] for face in maximal],
            "action": [index[action[v]] for v in vertices],
        }
    )


class TestBuildStandardComplex:
    def test_two_points_swapped(self):
        k = build_en_zp(2, 0)
        assert len(k.vertices) == 2
        assert k.face_table == (((0,), (1,)),)
        assert k.action == (1, 0)
        assert check_free_action(k)

    def test_four_cycle(self):
        k = build_en_zp(2, 1)
        assert len(k.vertices) == 4
        assert len(k.face_table[1]) == 4
        assert k.dimension() == 1
        assert k.euler_characteristic() == 0
        groups = reduced_homology_groups(k)
        assert groups[0].is_trivial()
        assert groups[1].rank == 1

    def test_complete_bipartite_three(self):
        k = build_en_zp(3, 1)
        assert len(k.vertices) == 6
        assert len(k.face_table[1]) == 9
        assert reduced_homology_groups(k) == [HomologyGroup(0), HomologyGroup(rank=4)]
        assert k.euler_characteristic() == 6 - 9

    def test_equals_closure_of_maximal_faces(self):
        # every maximal face picks one a in Z_p per level; a complex file of
        # them is closed by enumerating every subset
        for p, n in [(2, 0), (2, 3), (3, 2), (5, 2), (3, 3), (7, 1)]:
            vertices = [(a, level) for level in range(n + 1) for a in range(p)]
            maximal = [
                [(a, level) for level, a in enumerate(choice)]
                for choice in itertools.product(range(p), repeat=n + 1)
            ]
            action = {(a, level): ((a + 1) % p, level) for a, level in vertices}
            assert build_en_zp(p, n) == from_maximal_faces(p, vertices, maximal, action)

    def test_face_table_matches_the_product_oracle(self):
        # every standard complex under the cap, up to en-zp(2, 8)
        for p in (2, 3, 5, 7):
            n = 0
            while (p + 1) ** (n + 1) - 1 <= MAX_SIMPLICES:
                assert build_en_zp(p, n).face_table == en_zp_face_table_by_product(p, n), (p, n)
                n += 1

    def test_battery_dimensions_and_freeness(self):
        for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 3), (2, 6), (7, 2)]:
            k = build_en_zp(p, n)
            assert k.dimension() == n
            assert check_free_action(k)
            assert all(group.is_trivial() for group in reduced_homology_groups(k)[:n])

    def test_battery_top_homology_rank(self):
        # an (n+1)-fold join of p discrete points has top reduced homology of
        # rank (p-1)^(n+1) and no torsion
        for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 3), (2, 6), (7, 2)]:
            top = reduced_homology_groups(build_en_zp(p, n))[n]
            assert top.rank == (p - 1) ** (n + 1)
            assert top.torsion == ()


def assert_join_is_next_level(p, a, b):
    """E_a * E_b is E_{a+b+1} index for index: the same simplices and action,
    with vertex (s, (x, l)) of the join named (x, l + s(a+1)) in E_{a+b+1}."""
    j = join_complexes(build_en_zp(p, a), build_en_zp(p, b))
    k = build_en_zp(p, a + b + 1)
    assert j.p == k.p
    assert j.face_table == k.face_table
    assert j.action == k.action
    assert [(x, level + s * (a + 1)) for s, (x, level) in j.vertices] == list(k.vertices)


class TestJoin:
    def test_join_of_orbits_is_next_level(self):
        for p in (2, 3, 5):
            assert_join_is_next_level(p, 0, 0)

    def test_join_with_empty_is_identity(self):
        k = build_en_zp(3, 1)
        assert join_complexes(k, FreeZpComplex(3, (), (), ())) is k
        assert join_complexes(FreeZpComplex(3, (), (), ()), k) is k

    def test_join_two_sphere(self):
        j = join_complexes(build_en_zp(2, 1), build_en_zp(2, 0))
        assert j.dimension() == 2
        assert check_free_action(j)
        assert reduced_homology_groups(j) == [HomologyGroup(0), HomologyGroup(0), HomologyGroup(1)]
        assert_join_is_next_level(2, 1, 0)

    def test_join_next_level_battery(self):
        for p in (2, 3, 5):
            for a, b in [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]:
                assert_join_is_next_level(p, a, b)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError, match="prime mismatch"):
            join_complexes(build_en_zp(2, 0), build_en_zp(3, 0))


class TestFreeAction:
    def test_standard_complexes_free(self):
        for p, n in [(2, 0), (2, 1), (3, 1), (5, 1), (3, 2)]:
            assert check_free_action(build_en_zp(p, n))

    def test_fixed_vertex_not_free(self):
        k = FreeZpComplex(2, ("v",), (((0,),),), (0,))
        assert not check_free_action(k)

    def test_identity_action_not_free(self):
        k = FreeZpComplex(3, ("a", "b", "c"), (((0,), (1,), (2,)),), (0, 1, 2))
        assert not check_free_action(k)

    def test_setwise_invariant_edge_not_free(self):
        # the action swaps the two endpoints of an edge: free on vertices but
        # the edge is fixed setwise
        k = FreeZpComplex(2, ("a", "b"), (((0,), (1,)), ((0, 1),)), (1, 0))
        assert not check_free_action(k)

    def test_non_simplicial_action_rejected(self):
        k = FreeZpComplex(
            2, ("a", "b", "c", "d"), (((0,), (1,), (2,), (3,)), ((0, 1),)), (2, 3, 0, 1)
        )
        with pytest.raises(ValueError, match="not simplicial"):
            _validate_complex(k)

    def test_generator_alone_decides_freeness(self):
        # random complexes closed under a random action of order p, with some
        # vertices fixed and some faces setwise invariant, so both verdicts occur
        rng = random.Random(818)
        verdicts = []
        for p in (2, 3, 5):
            for _ in range(80):
                n = rng.randint(1, 3 * p)
                order = rng.sample(range(n), n)
                action = {v: v for v in range(n)}
                for o in range(rng.randint(0, n // p)):
                    cycle = order[o * p : (o + 1) * p]
                    action.update(zip(cycle, cycle[1:] + cycle[:1]))
                maximal = []
                for _ in range(rng.randint(1, 4)):
                    face = rng.sample(range(n), rng.randint(1, min(n, p + 1)))
                    for _ in range(p):
                        maximal.append(face)
                        face = [action[v] for v in face]
                k = from_maximal_faces(p, range(n), maximal, action)
                assert complex_violations(k) == [], (p, action, maximal)
                verdicts.append(check_free_action(k))
                assert verdicts[-1] == free_action_by_all_powers(k), (p, action, maximal)
        assert 20 < sum(verdicts) < len(verdicts) - 20

    def test_unused_fixed_vertex_keeps_the_action_free(self):
        # a vertex that no simplex uses is an orbit of its own, fixed by the
        # action, but not a simplex: free by the definition and by the orbits.
        # A complex file may not list one, so the complex is built unchecked
        e = build_en_zp(3, 1)
        k = FreeZpComplex(3, (*e.vertices, "unused"), e.face_table, (*e.action, 6))
        assert (len(k.vertices), k.action[-1]) == (7, 6)
        assert free_action_by_all_powers(k)
        assert check_free_action(k)

    def test_orbit_only_inside_larger_simplices_not_free(self):
        # the orbit {0, 1, 2} is listed only as a face of three tetrahedra,
        # each fixed by no power; the closure holds the orbit itself
        data = {
            "p": 3,
            "vertices": list(range(6)),
            "simplices": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
            "action": [1, 2, 0, 4, 5, 3],
        }
        k = FreeZpComplex.from_json(data)
        assert not free_action_by_all_powers(k)
        assert not check_free_action(k)

    def test_order_from_cycle_lengths_matches_all_powers(self):
        # random permutations of cycles of length 1, p or 2..6, so orders that
        # divide p and orders that do not both occur
        rng = random.Random(4207)
        verdicts = []
        for p in (2, 3, 5):
            for _ in range(60):
                lengths = [rng.choice((1, p, rng.randint(2, 6))) for _ in range(rng.randint(1, 4))]
                n = sum(lengths)
                order = rng.sample(range(n), n)
                action = [0] * n
                start = 0
                for length in lengths:
                    cycle = order[start : start + length]
                    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                        action[v] = w
                    start += length
                vertices = (tuple((v,) for v in range(n)),)
                verdicts.append(order_divides_by_all_powers(action, p))
                complex_ = FreeZpComplex(p, tuple(range(n)), vertices, tuple(action))
                if verdicts[-1]:
                    _validate_complex(complex_)
                else:
                    with pytest.raises(ValueError, match="action must have order dividing p"):
                        _validate_complex(complex_)
        assert 20 < sum(verdicts) < len(verdicts) - 20


class TestHomology:
    def test_contractible_and_discrete(self):
        # a single point: reduced homology trivial in every degree (degrees
        # above the dimension, past the end of the list, are 0)
        point = FreeZpComplex(2, ("a",), (((0,),),), (0,))
        assert reduced_homology_groups(point) == [HomologyGroup(0)]
        # two points: reduced degree-0 rank is 1
        pair = build_en_zp(2, 0)
        assert reduced_homology_groups(pair) == [HomologyGroup(1)]

    def test_snf_small_examples(self):
        assert smith_normal_form_diagonal([[2]]) == [2]
        assert smith_normal_form_diagonal([[1, 0], [0, 2]]) == [1, 2]
        assert smith_normal_form_diagonal([[6, 4], [4, 8]]) == [2, 16]
        assert smith_normal_form_diagonal([[0, 0], [0, 0]]) == []

    def test_snf_against_determinantal_divisors(self):
        rng = random.Random(13)
        for _ in range(60):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 4)
            matrix = [
                [rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)
            ]
            expected = invariant_factors_by_minors(matrix)
            got = smith_normal_form_diagonal(matrix)
            assert got == expected

    def test_snf_against_sympy_on_larger_matrices(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(29)
        for _ in range(25):
            rows = rng.randint(2, 6)
            cols = rng.randint(2, 6)
            matrix = [
                [rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)
            ]
            reference = smith_normal_form(sympy.Matrix(matrix))
            expected = [
                abs(reference[i, i])
                for i in range(min(rows, cols))
                if reference[i, i] != 0
            ]
            assert smith_normal_form_diagonal(matrix) == expected

    def test_snf_divisibility_chain(self):
        rng = random.Random(14)
        for _ in range(40):
            matrix = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            diag = smith_normal_form_diagonal(matrix)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0

    def test_euler_consistency_battery(self):
        for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
            k = build_en_zp(p, n)
            assert homology_euler_consistent(k, reduced_homology_groups(k))
        j = join_complexes(build_en_zp(2, 1), build_en_zp(2, 0))
        assert homology_euler_consistent(j, reduced_homology_groups(j))


def _columns(matrix: list[list[int]], cols: int) -> list[dict[int, int]]:
    return [{i: row[j] for i, row in enumerate(matrix) if row[j]} for j in range(cols)]


def _random_matrix(rng: random.Random, rows: int, cols: int, entries) -> list[list[int]]:
    matrix = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
    # a zero row and a zero column now and then
    if rows and rng.random() < 0.3:
        matrix[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in matrix:
            row[j] = 0
    return matrix


# the 6-vertex real projective plane, with the identity action for p = 2
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


# every standard complex whose dense oracle takes at most about 0.1 s
EN_ZP_HOMOLOGY = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]


def projective_plane() -> FreeZpComplex:
    return from_maximal_faces(2, range(1, 7), RP2_TRIANGLES, {v: v for v in range(1, 7)})


def homology_battery() -> list[FreeZpComplex]:
    """The projective plane (Z/2 torsion) and 60 seeded closures of random
    maximal faces, with the identity action."""
    rng = random.Random(61)
    battery = [projective_plane()]
    for _ in range(60):
        n = rng.randint(3, 8)
        maximal = [rng.sample(range(n), rng.randint(1, min(n, 4))) for _ in range(rng.randint(1, 6))]
        battery.append(from_maximal_faces(2, range(n), maximal, {v: v for v in range(n)}))
    return battery


def _record_fallbacks(monkeypatch) -> list[tuple]:
    """Patch ``_unit_pivot_factors`` to record the arguments of each call."""
    calls = []
    unit_pivot_factors = complexes._unit_pivot_factors

    def recording(*args):
        calls.append(args)
        return unit_pivot_factors(*args)

    monkeypatch.setattr(complexes, "_unit_pivot_factors", recording)
    return calls


class TestSparseHomology:
    def test_invariant_factors_match_dense_snf(self, monkeypatch):
        rng = random.Random(41)
        fallbacks = _record_fallbacks(monkeypatch)
        calls = 0
        # with units, sparse; without any unit, so the residual is everything
        for entries in ([0, 0, 0, 1, -1, 2, -3], [0, 2, -2, 3, 4, -6]):
            for _ in range(150):
                rows, cols = rng.randint(0, 7), rng.randint(0, 7)
                matrix = _random_matrix(rng, rows, cols, entries)
                expected = smith_normal_form_diagonal(matrix)
                assert _invariant_factors(_columns(matrix, cols), []) == expected, matrix
                # a matrix and its transpose have the same invariant factors
                transpose = [list(col) for col in zip(*matrix)]
                assert _invariant_factors(_columns(transpose, rows), []) == expected, matrix
                calls += 2
        # both routes ran: the lowest-row reduction and the unit-pivot fallback
        assert 0 < len(fallbacks) < calls

    def test_invariant_factors_empty_and_zero(self):
        assert _invariant_factors([], []) == []
        assert _invariant_factors([{}, {}], []) == []
        assert _invariant_factors([{3: 2}, {}], []) == [2]
        assert _invariant_factors([{0: -1, 1: 1}, {0: 1, 1: 1}], []) == [1, 2]

    def test_invariant_factors_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(43)
        for entries in ([0, 0, 1, -1, 2, 5], [0, 2, -4, 6, 9]):
            for _ in range(20):
                rows, cols = rng.randint(2, 6), rng.randint(2, 6)
                matrix = _random_matrix(rng, rows, cols, entries)
                reference = smith_normal_form(sympy.Matrix(matrix))
                expected = [
                    abs(reference[i, i])
                    for i in range(min(rows, cols))
                    if reference[i, i] != 0
                ]
                assert _invariant_factors(_columns(matrix, cols), []) == expected, matrix

    def test_torsion_projective_plane(self):
        rp2 = projective_plane()
        assert rp2.euler_characteristic() == 1
        expected = [HomologyGroup(0), HomologyGroup(0, (2,)), HomologyGroup(0)]
        assert [reduced_homology_dense(rp2, k) for k in range(3)] == expected
        assert reduced_homology_groups(rp2) == expected
        assert homology_euler_consistent(rp2, expected)

    def test_groups_match_single_degrees(self):
        point = FreeZpComplex(2, ("a",), (((0,),),), (0,))
        complexes = [FreeZpComplex(3, (), (), ()), point, build_en_zp(2, 0)] + [
            build_en_zp(p, n) for p, n in [(2, 2), (3, 2), (5, 1)]
        ] + [join_complexes(build_en_zp(2, 1), build_en_zp(2, 0))]
        for k in complexes:
            groups = reduced_homology_groups(k)
            assert len(groups) == k.dimension() + 1
            assert groups == [reduced_homology_dense(k, d) for d in range(len(groups))]
            assert reduced_homology_dense(k, len(groups)).is_trivial()

    def test_pivot_rows_distinct_and_unimodular(self):
        rng = random.Random(47)
        for entries in ([0, 0, 0, 1, -1, 2, -3], [0, 1, 2, -2, 3, 4, -6]):
            for _ in range(150):
                rows, cols = rng.randint(0, 7), rng.randint(0, 7)
                matrix = _random_matrix(rng, rows, cols, entries)
                pivot_rows = []
                factors = _invariant_factors(_columns(matrix, cols), pivot_rows)
                assert factors == smith_normal_form_diagonal(matrix), matrix
                assert len(set(pivot_rows)) == len(pivot_rows) <= factors.count(1)
                # the columns reach every unit vector on the pivot rows: what
                # clearing the next boundary's columns R rests on
                on_rows = [matrix[r] for r in pivot_rows]
                assert smith_normal_form_diagonal(on_rows) == [1] * len(pivot_rows), matrix

    def test_boundary_pivot_rows_count_the_unit_factors(self):
        # no residual of these coboundary matrices has a factor 1, so the
        # pivot rows number exactly the 1s
        for k in homology_battery():
            faces = [((),), *k.face_table]
            for lower, upper in zip(faces, faces[1:]):
                pivot_rows = []
                factors = _invariant_factors(_coboundary_columns(lower, upper), pivot_rows)
                assert len(set(pivot_rows)) == len(pivot_rows) == factors.count(1)

    def test_cleared_coboundaries_leave_out_the_dropped_columns(self):
        # the columns the degree below pivoted on are never built: the rest
        # are the full build's, so the factors and pivot rows are unchanged
        dropped_any = False
        for k in (*homology_battery(), build_en_zp(2, 4), build_en_zp(3, 3)):
            faces = [((),), *k.face_table]
            cleared = []
            for lower, upper in zip(faces, faces[1:]):
                dropped = set(cleared)
                full = _coboundary_columns(lower, upper)
                columns = _coboundary_columns(lower, upper, dropped)
                assert columns == [c for j, c in enumerate(full) if j not in dropped]
                dropped_any |= bool(dropped)
                cleared = []
                _invariant_factors(columns, cleared)
        assert dropped_any

    def test_coboundary_columns_match_the_combinations_walk(self):
        # the same {row: sign} in every column, with and without the columns
        # the degree below pivoted on; the rows' order is not compared
        standard = [build_en_zp(p, n) for p, n in EN_ZP_HOMOLOGY + [(3, 3), (2, 5)]]
        dropped_any = False
        for k in (*standard, *homology_battery()):
            faces = [((),), *k.face_table]
            cleared = []
            for lower, upper in zip(faces, faces[1:]):
                dropped = set(cleared)
                for leave_out in (set(), dropped):
                    got = _coboundary_columns(lower, upper, leave_out)
                    assert got == coboundary_columns_by_combinations(lower, upper, leave_out)
                dropped_any |= bool(dropped)
                cleared = []
                _invariant_factors(_coboundary_columns(lower, upper, dropped), cleared)
        assert dropped_any

    def test_fallback_only_for_the_projective_plane(self, monkeypatch):
        # every lowest entry of a standard complex's cleared coboundaries is
        # a unit; the projective plane's Z/2 needs the unit-pivot route
        fallbacks = _record_fallbacks(monkeypatch)
        for p, n in EN_ZP_HOMOLOGY:
            reduced_homology_groups(build_en_zp(p, n))
            assert fallbacks == [], (p, n)
        reduced_homology_groups(projective_plane())
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("p, n", EN_ZP_HOMOLOGY)
    def test_standard_complexes_match_dense_oracle(self, p, n):
        k = build_en_zp(p, n)
        assert reduced_homology_groups(k) == [reduced_homology_dense(k, d) for d in range(n + 1)]
        assert reduced_homology_dense(k, n + 1).is_trivial()

    def test_random_complexes_match_dense_oracle(self):
        torsion = 0
        for k in homology_battery():
            groups = reduced_homology_groups(k)
            assert groups == [reduced_homology_dense(k, d) for d in range(k.dimension() + 1)]
            torsion += any(g.torsion for g in groups)
        assert torsion == 1

    def test_size_cap_refuses_before_building(self):
        # en-zp(2, 8), 3^9 - 1 = 19,682 simplices, is the largest built
        assert 3**9 - 1 <= MAX_SIMPLICES < 3**10 - 1
        with pytest.raises(ValueError, match=r"14\^6 - 1 = 7529535 simplices"):
            build_en_zp(13, 5)
        with pytest.raises(ValueError, match=r"3\^10 - 1 = 59048 simplices"):
            build_en_zp(2, 9)
        # far over the cap: the count is named without being formed
        with pytest.raises(ValueError, match=r"3\^1000000001 - 1 simplices"):
            build_en_zp(2, 10**9)


def three_disjoint_edges() -> FreeZpComplex:
    """Z_3 permuting three disjoint edges: level 0 maps in, level 1 does not."""
    return from_maximal_faces(
        3,
        [(a, level) for a in range(3) for level in range(2)],
        [[(a, 0), (a, 1)] for a in range(3)],
        {(a, level): ((a + 1) % 3, level) for a in range(3) for level in range(2)},
    )


def random_free_complexes(seed: int, count: int) -> list[FreeZpComplex]:
    """Unions of the orbits of a few random top and next-to-top simplices of
    a standard complex, free as its subcomplexes, with the vertices
    relabelled at random: the orbits are no longer the levels, and a
    simplex's highest orbit need not hold its largest vertex."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, {2: 4, 3: 3, 5: 2}[p])
        base = build_en_zp(p, n)
        relabel = list(range(len(base.vertices)))
        rng.shuffle(relabel)
        candidates = base.face_table[-1] + base.face_table[-2]
        maximal = []
        for s in rng.sample(candidates, rng.randint(1, 6)):
            for _ in range(p):
                maximal.append([relabel[v] for v in s])
                s = [base.action[v] for v in s]
        action = {relabel[v]: relabel[w] for v, w in enumerate(base.action)}
        out.append(from_maximal_faces(p, range(len(relabel)), maximal, action))
    return out


class TestMapSearch:
    def test_orbit_map_always_found(self):
        for p, n in [(2, 1), (3, 1), (5, 1)]:
            target = build_en_zp(p, n)
            found = equivariant_map_search(build_en_zp(p, 0), target)
            assert found is not None
            assert verify_equivariant_simplicial(found, build_en_zp(p, 0), target)

    def test_identity_like_map_found(self):
        k = build_en_zp(2, 1)
        found = equivariant_map_search(k, k)
        assert found is not None
        assert verify_equivariant_simplicial(found, k, k)

    def test_no_map_down_a_level(self):
        assert equivariant_map_search(build_en_zp(2, 1), build_en_zp(2, 0)) is None
        assert equivariant_map_search(build_en_zp(5, 1), build_en_zp(5, 0)) is None

    def test_prime_mismatch(self):
        with pytest.raises(ValueError, match="prime mismatch"):
            equivariant_map_search(build_en_zp(2, 0), build_en_zp(3, 0))

    def test_map_collapsing_a_simplex_found(self):
        # two swapped disjoint edges map onto a swapped pair of points only
        # by sending each edge to one vertex, a simplex as a vertex set
        source = from_maximal_faces(
            2, "abcd", ["ab", "cd"], {"a": "c", "b": "d", "c": "a", "d": "b"}
        )
        target = build_en_zp(2, 0)
        found = equivariant_map_search(source, target)
        assert found is not None and found[0] == found[1]
        assert verify_equivariant_simplicial(found, source, target)

    # nodes tried from E_k Z_p, k = 0..3, into every E_n Z_p with n >= k, as
    # recorded from the product-and-sort builder and the set-comprehension
    # image test; the count does not depend on n
    STANDARD_NODES = {2: (1, 4, 9, 16), 3: (1, 5, 12, 22), 5: (1, 7, 18, 34)}

    @pytest.mark.parametrize("p", sorted(STANDARD_NODES))
    def test_standard_searches_pinned(self, p):
        for n in range(4):
            target = build_en_zp(p, n)
            for k in range(n + 1):
                work = {}
                found = equivariant_map_search(build_en_zp(p, k), target, work)
                nodes = self.STANDARD_NODES[p]
                assert work == {"completed": list(nodes[: k + 1]), "nodes": nodes[k]}, (k, n)
                # the inclusion of E_k Z_p as the first k + 1 levels
                assert found == {v: v for v in range(p * (k + 1))}, (k, n)

    def test_node_count_and_cap(self, monkeypatch):
        source, target = build_en_zp(2, 4), build_en_zp(2, 3)
        work = {}
        assert equivariant_map_search(source, target, work) is None
        assert work == {"completed": [1, 4, 9, 16], "nodes": 5064}
        # a cap of exactly the nodes needed still decides; one fewer does not
        monkeypatch.setattr(complexes, "MAX_SEARCH_NODES", 5064)
        assert equivariant_map_search(source, target) is None
        monkeypatch.setattr(complexes, "MAX_SEARCH_NODES", 5063)
        with pytest.raises(
            ValueError, match=r"^undetermined: .* level-4 source spent its cap of 5063 nodes"
        ):
            equivariant_map_search(source, target)

    def test_real_cap_is_spent_undetermined(self):
        # from E_8 Z_2 into E_7 Z_2 no map exists, and the search spends its
        # whole cap of MAX_SEARCH_NODES before it can say so
        spent = rf"^undetermined: .* spent its cap of {complexes.MAX_SEARCH_NODES} nodes"
        with pytest.raises(ValueError, match=spent):
            equivariant_map_search(build_en_zp(2, 8), build_en_zp(2, 7))

    def test_completed_prefixes_are_the_level_searches(self):
        # the orbits of E_3 Z_p are its levels: the search first completes
        # level k where the search from E_k Z_p returns
        for p, nodes in self.STANDARD_NODES.items():
            work = {}
            equivariant_map_search(build_en_zp(p, 3), build_en_zp(p, 3), work)
            assert work == {"completed": list(nodes), "nodes": nodes[3]}

    def test_maximal_simplices_by_subsets(self):
        for k in (build_en_zp(2, 3), build_en_zp(3, 2), *random_free_complexes(5, 20)):
            orbits = permutation_cycles(k.action)
            orbit_of = {v: oi for oi, orbit in enumerate(orbits) for v in orbit}
            simplices = list(itertools.chain.from_iterable(k.face_table))
            groups = [simplices] + [
                [s for s in simplices if max(orbit_of[v] for v in s) == oi]
                for oi in range(len(orbits))
            ]
            for group in groups:
                assert complexes._maximal_simplices(group) == maximal_by_subsets(group)

    def test_nodes_and_maps_match_testing_every_simplex(self):
        # testing only each orbit's maximal simplices prunes exactly where
        # testing every simplex does
        battery = random_free_complexes(11, 24)
        battery += [build_en_zp(p, n) for p, n in [(2, 0), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]]
        pairs = exhausted = 0
        for source in battery:
            for target in battery:
                if source.p != target.p:
                    continue
                expected, nodes = map_search_testing_every_simplex(source, target)
                if nodes > 20_000:
                    continue
                work = {}
                assert equivariant_map_search(source, target, work) == expected
                assert work["nodes"] == nodes
                pairs += 1
                exhausted += expected is None
        assert pairs > 200 and 0 < exhausted < pairs

    def test_fixed_source_vertex_needs_a_fixed_image(self):
        # an unused vertex may be fixed in a free complex; an equivariant map
        # sends it to a fixed vertex, and with none there is no map
        e1 = build_en_zp(2, 1)
        with_fixed = FreeZpComplex(2, e1.vertices + ("x",), e1.face_table, e1.action + (4,))
        assert check_free_action(with_fixed)
        work = {}
        assert equivariant_map_search(with_fixed, e1, work) is None
        assert map_search_testing_every_simplex(with_fixed, e1) == (None, work["nodes"])
        found = equivariant_map_search(with_fixed, with_fixed)
        assert found is not None and found[4] == 4
        assert verify_equivariant_simplicial(found, with_fixed, with_fixed)


# every standard complex E_n Z_p for p in {2, 3, 5} and n <= 3, searched to
# every depth up to n + 2
STANDARD_COINDEX = [(p, n, n_max) for p in (2, 3, 5) for n in range(4) for n_max in range(n + 3)]


def _outcome(bounds, k, n_max):
    try:
        return bounds(k, n_max)
    except ValueError as exc:
        return str(exc)


class TestCoindexBounds:
    def test_one_search_matches_a_search_per_level(self):
        for p, n, n_max in STANDARD_COINDEX:
            k = build_en_zp(p, n)
            assert coindex_bounds(k, n_max) == coindex_bounds_per_level(k, n_max), (p, n, n_max)
        for k in (three_disjoint_edges(), *random_free_complexes(3, 30)):
            for n_max in range(k.dimension() + 3):
                assert coindex_bounds(k, n_max) == coindex_bounds_per_level(k, n_max)

    def test_spent_cap_names_the_level_a_search_per_level_would(self, monkeypatch):
        # a cap of each level's count decides as before, and one fewer fails
        # with the same message, naming that level
        cases = [(build_en_zp(p, n), n_max) for p, n, n_max in STANDARD_COINDEX]
        cases += [(three_disjoint_edges(), 3)]
        counts = [
            {rec["nodes"] for rec in coindex_bounds_per_level(k, n_max).provenance
             if "nodes" in rec}
            for k, n_max in cases
        ]
        raised = 0
        for (k, n_max), nodes in zip(cases, counts):
            for cap in sorted(nodes | {c - 1 for c in nodes}):
                monkeypatch.setattr(complexes, "MAX_SEARCH_NODES", cap)
                expected = _outcome(coindex_bounds_per_level, k, n_max)
                got = _outcome(coindex_bounds, k, n_max)
                assert got == expected, (k.p, k.dimension(), n_max, cap)
                raised += isinstance(expected, str)
        assert raised > 50

    def test_the_checked_map_restricts_to_every_level(self, monkeypatch):
        searches = []
        search = complexes.equivariant_map_search

        def recording(source, target, work=None):
            found = search(source, target, work)
            searches.append((source, found))
            return found

        monkeypatch.setattr(complexes, "equivariant_map_search", recording)
        join = join_complexes(build_en_zp(2, 1), build_en_zp(2, 1))
        targets = [build_en_zp(2, 3), build_en_zp(3, 2), join]
        for k in (*targets, *random_free_complexes(17, 20)):
            searches.clear()
            bound = coindex_bounds(k, k.dimension())
            assert len(searches) == 1 + (bound.lower < k.dimension())
            found = next(found for source, found in searches if found is not None)
            for level in range(bound.lower + 1):
                restricted = {v: found[v] for v in range(k.p * (level + 1))}
                assert verify_equivariant_simplicial(restricted, build_en_zp(k.p, level), k)

    def test_exhausted_level_searches_the_level_below_again(self, monkeypatch):
        searches = []
        search = complexes.equivariant_map_search

        def recording(source, target, work=None):
            found = search(source, target, work)
            searches.append((source.dimension(), found is not None))
            return found

        monkeypatch.setattr(complexes, "equivariant_map_search", recording)
        coindex_bounds(three_disjoint_edges(), 3)
        assert searches == [(1, False), (0, True)]

    def test_a_standard_complex_is_its_own_source(self, monkeypatch):
        # `complex coindex` on en-zp:p=2,n=3 builds E_3 Z_2 once when it is
        # searched to its own level, and E_2 Z_2 besides when searched to 2
        built = []
        build = complexes.build_en_zp

        def counting(p, n):
            built.append((p, n))
            return build(p, n)

        monkeypatch.setattr(complexes, "build_en_zp", counting)
        monkeypatch.setattr(cli, "build_en_zp", counting)
        for n_max, searched in ((3, []), (4, []), (2, [(2, 2)])):
            built.clear()
            assert cli.main(["complex", "coindex", "--complex", "en-zp:p=2,n=3", "--n-max", str(n_max)]) == 0
            assert built == [(2, 3), *searched]

    def test_standard_complexes_are_told_from_lookalikes(self):
        e1, e2 = build_en_zp(2, 1), build_en_zp(2, 2)
        assert _is_standard(e1) and _is_standard(e2)
        assert _is_standard(FreeZpComplex.from_json(complex_file(e2)))
        # the vertices and action of E_n Z_2, and one fact the check reads changed
        lookalikes = [
            # a top simplex fewer
            FreeZpComplex(2, e2.vertices, _closure(e2.face_table[-1][1:]), e2.action),
            # all top simplices and an edge within level 0
            FreeZpComplex(2, e2.vertices, _closure([*e2.face_table[-1], (0, 1)]), e2.action),
            # as many top simplices and simplices, two of them within a level
            FreeZpComplex(2, e1.vertices, _closure([(0, 1), (0, 2), (1, 3), (2, 3)]), e1.action),
        ]
        assert not any(map(_is_standard, lookalikes))

    def test_empty_convention(self):
        bound = coindex_bounds(FreeZpComplex(5, (), (), ()), 2)
        assert (bound.lower, bound.upper) == (-1, -1)
        # a file that lists vertices and no simplex is refused by its first
        # vertex in no simplex; it would read as a -1-dimensional complex
        with pytest.raises(ValueError, match="^vertex 0 lies in no simplex"):
            FreeZpComplex.from_json({"p": 2, "vertices": [0, 1], "simplices": [], "action": [1, 0]})
        with pytest.raises(ValueError, match="^vertex 2 lies in no simplex"):
            FreeZpComplex.from_json({"p": 2, "vertices": [0, 1, 2, 3], "simplices": [[0, 1]], "action": [1, 0, 3, 2]})
        # with no vertex at all there is none to refuse
        bound = coindex_bounds(FreeZpComplex.from_json({"p": 2, "vertices": [], "simplices": [], "action": []}), 2)
        assert (bound.lower, bound.upper) == (-1, -1)

    def test_standard_complexes_exact(self):
        for p in (2, 3):
            for n in (0, 1, 2):
                bound = coindex_bounds(build_en_zp(p, n), 2)
                assert (bound.lower, bound.upper) == (n, n)

    def test_free_orbit_set(self):
        k = build_en_zp(5, 0)
        bound = coindex_bounds(k, 2)
        assert (bound.lower, bound.upper) == (0, 0)
        assert any(
            rec["rule"] == "level theorem" and rec["level"] == 1 for rec in bound.provenance
        )
        assert any(rec["rule"] == "dimension cap" for rec in bound.provenance)

    @pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (5, 1)])
    @pytest.mark.parametrize("above", [-1, 0, 2])
    def test_searches_stop_at_the_dimension(self, p, n, above):
        n_max = n + above
        bound = coindex_bounds(build_en_zp(p, n), n_max)
        assert (bound.lower, bound.upper) == (min(n_max, n), n)
        searches = [
            rec
            for rec in bound.provenance
            if rec["rule"] in ("vertex-map witness", "search exhausted")
        ]
        assert [rec["level"] for rec in searches] == list(range(min(n_max, n) + 1))
        assert all(rec["nodes"] >= 1 for rec in searches)
        theorem = [rec["level"] for rec in bound.provenance if rec["rule"] == "level theorem"]
        assert theorem == ([n + 1] if n_max > n else [])
        assert [rec["rule"] for rec in bound.provenance][-1] == "dimension cap"

    def test_exhausted_search_at_the_dimension_cites_no_theorem(self):
        # Z_3 permutes three disjoint edges; the connected E_1 Z_3 has no
        # vertex map into them, so the search fails at the dimension itself
        bound = coindex_bounds(three_disjoint_edges(), 3)
        assert (bound.lower, bound.upper) == (0, 1)
        assert [(rec["rule"], rec.get("level")) for rec in bound.provenance] == [
            ("vertex-map witness", 0),
            ("search exhausted", 1),
            ("dimension cap", None),
        ]

    def test_requires_free_action(self):
        k = FreeZpComplex(3, ("a", "b", "c"), (((0,), (1,), (2,)),), (0, 1, 2))
        with pytest.raises(ValueError, match="coindex defined only for free actions"):
            coindex_bounds(k, 1)


class TestBoundCombinators:
    def test_join_rule(self):
        a = CoindexBound(3, 0, 0)
        b = CoindexBound(3, 0, 0)
        out = coindex_join(a, b)
        assert out.lower == 1 and out.upper is None

    def test_join_with_dim_cap(self):
        out = coindex_join(CoindexBound(2, 1, 1), CoindexBound(2, 0, 0), dim_cap=2)
        assert (out.lower, out.upper) == (2, 2)

    def test_map_rule(self):
        out = coindex_map(CoindexBound(5, 2, None))
        assert out.lower == 2 and out.upper is None
        merged = coindex_map(CoindexBound(5, 2, None), CoindexBound(5, 0, 4))
        assert (merged.lower, merged.upper) == (2, 4)

    def test_power_rule(self):
        b = CoindexBound(5, 1, 3)
        out = coindex_power(b, 3)
        assert (out.lower, out.upper) == (1, 3)
        with pytest.raises(ValueError, match="coprime"):
            coindex_power(b, 10)

    def test_finite_nonempty_rule(self):
        out = coindex_finite(7)
        assert (out.lower, out.upper) == (0, 0)
        with pytest.raises(ValueError, match="prime"):
            coindex_finite(4)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError, match="prime mismatch"):
            coindex_join(CoindexBound(2, 0, 0), CoindexBound(3, 0, 0))
        with pytest.raises(ValueError, match="prime mismatch"):
            coindex_map(CoindexBound(2, 0, None), CoindexBound(3, 0, 0))

    def test_bump_chain_mirrors_universal_argument(self):
        # coindex of the target grows past any given free system's bound:
        # join with a finite free orbit set, then map into the universal space
        start = CoindexBound(5, 2, None)
        finite = coindex_finite(5)
        joined = coindex_join(start, finite)
        universal = coindex_map(joined)
        assert universal.lower == 3
        assert universal.lower == start.lower + 1


class TestBuilderOutputs:
    # builders are trusted at run time: the oracle holds their outputs to
    # every condition a complex read from a file must meet

    def test_standard_complexes_valid(self):
        for p in (2, 3, 5, 7):
            assert complex_violations(FreeZpComplex(p, (), (), ())) == [], p
            for n in range(4):
                assert complex_violations(build_en_zp(p, n)) == [], (p, n)

    def test_joins_valid(self):
        # pairs of standard complexes whose join is at most 3-dimensional
        for p in (2, 3, 5, 7):
            for a, b in [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]:
                joined = join_complexes(build_en_zp(p, a), build_en_zp(p, b))
                assert complex_violations(joined) == [], (p, a, b)

    def test_complex_file_validated_as_read(self):
        # from_json refuses exactly the files whose closed complex breaks a
        # condition, with p prime or not, actions of every kind, and faces
        # naming vertices outside the list
        rng = random.Random(1616)
        verdicts = []
        for _ in range(300):
            p = rng.choice((2, 3, 4, 5))
            n = rng.randint(1, 6)
            if rng.random() < 0.3:
                action = [(v + 1) % n for v in range(n)]
            else:
                action = rng.sample(range(n), n)
            if rng.random() < 0.1:
                action[rng.randrange(n)] = rng.randrange(n + 1)
            faces = [
                rng.sample(range(-1 if rng.random() < 0.05 else 0, n), rng.randint(1, min(n, 3)))
                for _ in range(rng.randint(1, 4))
            ]
            data = {"p": p, "vertices": list(range(n)), "simplices": faces, "action": action}
            closure = {
                tuple(sorted(sub))
                for face in faces
                for size in range(1, len(face) + 1)
                for sub in itertools.combinations(face, size)
            }
            table = tuple(
                tuple(sorted(s for s in closure if len(s) == size))
                for size in range(1, max(map(len, closure)) + 1)
            )
            unchecked = FreeZpComplex(p, tuple(range(n)), table, tuple(action))
            verdicts.append(not complex_violations(unchecked))
            if verdicts[-1]:
                assert FreeZpComplex.from_json(data) == unchecked
            else:
                with pytest.raises(ValueError):
                    FreeZpComplex.from_json(data)
        assert 20 < sum(verdicts) < len(verdicts) - 20


class TestJsonAndInvariants:
    def test_complex_round_trip(self):
        for p, n in [(2, 0), (3, 1), (2, 3), (5, 2)]:
            k = build_en_zp(p, n)
            assert FreeZpComplex.from_json(complex_file(k)) == k
        j = join_complexes(build_en_zp(3, 0), build_en_zp(3, 1))
        assert FreeZpComplex.from_json(complex_file(j)) == j

    def test_from_json_closes_maximal_faces(self):
        data = {
            "p": 2,
            "vertices": ["a", "b", "c", "d"],
            "simplices": [[0, 1], [2, 3]],
            "action": [2, 3, 0, 1],
        }
        k = FreeZpComplex.from_json(data)
        assert (0,) in k.face_table[0]

    def test_face_table_lists_each_dimension_sorted(self):
        join = join_complexes(build_en_zp(2, 1), build_en_zp(2, 0))
        for k in [FreeZpComplex(2, (), (), ()), projective_plane(), build_en_zp(3, 2), join]:
            table = k.face_table
            assert table is k.face_table
            assert len(table) == k.dimension() + 1
            simplices = list(itertools.chain.from_iterable(k.face_table))
            assert table == tuple(
                tuple(sorted(tuple(sorted(s)) for s in simplices if len(s) == d + 1))
                for d in range(len(table))
            )
            assert k.euler_characteristic() == sum((-1) ** (len(s) - 1) for s in simplices)

    def test_to_json_pinned(self):
        # SHA-256 of each complex's JSON as written when complexes were held
        # as frozensets of frozensets and sorted into this order on output
        closure = {
            "p": 3,
            "vertices": list(range(6)),
            "simplices": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]],
            "action": [1, 2, 0, 4, 5, 3],
        }
        cases = [
            (build_en_zp(2, 0), "7c22cecba62cdfca07a847e72ad5cc051e54e8fa4b1b06c68484eb5d3db979f7"),
            (build_en_zp(2, 3), "eb78cb48359fb77036aeb700bd1f24dfcf043abdb2a85168cfae31d17c483750"),
            (build_en_zp(3, 2), "19908fe1f3f9e255793a5019efc50dfc7fbc89503aa6bf630752926b0afdaf71"),
            (build_en_zp(5, 1), "56ea9c2210078f55b4bacf107bbef09ed7a9a38aa4973e6795c892d37366198a"),
            (build_en_zp(7, 1), "8d0fbdabd37b9420302959de3d6f0a77f1eed387ef22b30a51a992f15b0716b9"),
            (build_en_zp(2, 6), "5ad1abe7919b0e7285cc81ad6d7f8b45fc2bbff7a60785f50137234621db669d"),
            (
                join_complexes(build_en_zp(2, 1), build_en_zp(2, 0)),
                "8d83d4d00e43cca0359fa6ede3245b45fae90db0ec54790772d7e301bda3cb36",
            ),
            (
                join_complexes(build_en_zp(3, 0), build_en_zp(3, 1)),
                "575802f1603794ce54fc95e07e50c2c5305b80c8082020ac34abd0cb56afc85a",
            ),
            (
                FreeZpComplex.from_json(closure),
                "6e1ea63cb215839b7c35590bffb23392a096ebf8d6dad3bb81186d46090d1d1e",
            ),
        ]
        for k, digest in cases:
            assert hashlib.sha256(json.dumps(complex_file(k)).encode()).hexdigest() == digest

    def test_coindex_bound_json(self):
        bound = CoindexBound(3, 1, None, ({"rule": "x", "statement": "y"},))
        data = bound.to_json()
        assert data["upper"] == "inf"
        assert data["provenance"][0]["rule"] == "x"

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="inverted"):
            CoindexBound(3, 2, 1)
