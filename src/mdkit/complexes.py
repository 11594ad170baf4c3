"""Finite free prime-order simplicial complexes: joins, homology, coindex.

A complex is its face table (every dimension's simplices as sorted vertex
tuples, in sorted order) and a vertex permutation of order dividing p that
maps simplices to simplices.  The builders emit the table, so the
constructor trusts its caller: ``build_en_zp`` extends each sorted simplex
by the vertices of the levels above its last, which leaves every dimension
sorted as built.  A complex file is closed under the simplex cap and
validated once, in ``FreeZpComplex.from_json``.  Homology and the Euler
characteristic read the table as it is; validation, the map search
and its checker test membership in one set of its tuples.  Freeness (no
power of the action fixing a simplex setwise) is checked, never assumed:
``check_free_action`` guards every search and every coindex bound, and
decides it from the action's orbits alone, each looked up in the sorted
table by binary search.
Homology is integral and read through the coboundaries, the transposed
boundaries: sparse columns reduced at their lowest rows from degree 0 up,
each coboundary without the columns the one below pivoted on.  A lowest
entry that is not a unit sends that coboundary to the elimination of +-1
pivots, whose residual without unit entries goes to a dense Smith normal
form.  It serves as the computable necessary condition for connectivity.
Coindex is never "computed": sound lower bounds come from explicit
equivariant vertex maps found by backtracking search, the upper bound is
the dimension, and every bound carries the rule chain that produced it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, groupby, repeat
from math import gcd
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .finite import permutation_cycles
from .torus import _shown

Face = tuple[int, ...]  # a simplex: its vertex indices, increasing


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Complexes


@dataclass(frozen=True)
class FreeZpComplex:
    """A finite simplicial complex with a vertex-level Z_p action.

    ``vertices`` are arbitrary hashable names; ``face_table[d]`` is the sorted
    tuple of the d-simplices, each a sorted tuple of vertex indices, closed
    downward; ``action`` maps vertex index to vertex index and must be a
    simplicial automorphism with action^p = id.  All are stored unchecked.
    """

    p: int
    vertices: tuple
    face_table: tuple[tuple[Face, ...], ...]
    action: tuple[int, ...]

    # -- structure ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.vertices

    def dimension(self) -> int:
        return len(self.face_table) - 1

    @cached_property
    def faces(self) -> frozenset[Face]:
        """Every simplex, for membership tests of sorted vertex tuples."""
        return frozenset(chain.from_iterable(self.face_table))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(faces) for d, faces in enumerate(self.face_table))

    @classmethod
    def from_json(cls, data) -> "FreeZpComplex":
        """A complex file's complex, validated; the file may list only the
        maximal faces, and the closure is computed."""
        if not isinstance(data, dict):
            raise ValueError("complex JSON must be an object")
        for key in ("p", "vertices", "simplices", "action"):
            if key not in data:
                raise ValueError(f"complex JSON lacks the required key {key!r}")
        faces, action = data["simplices"], data["action"]
        if not (
            type(data["p"]) is int
            and isinstance(data["vertices"], list)
            and isinstance(faces, list)
            and all(map(_is_index_list, faces))
            and _is_index_list(action)
        ):
            raise ValueError(
                'complex JSON needs an integer "p", a "vertices" list, a "simplices" '
                'list of vertex index lists and an "action" vertex index list'
            )
        vertices = tuple(_name_from_json(v) for v in data["vertices"])
        complex_ = cls(data["p"], vertices, _closure(faces), tuple(action))
        _validate_complex(complex_)
        return complex_


def _validate_complex(complex_: FreeZpComplex) -> None:
    """The checks a complex file must pass; ``_closure`` leaves its table
    closed downward.  A p over ``MAX_SIMPLICES`` is refused before the
    primality test: a free complex with a simplex has p vertices or more."""
    p, table, action = complex_.p, complex_.face_table, complex_.action
    if p > MAX_SIMPLICES:
        raise ValueError(f"p = {_shown(p)} is over the cap of {MAX_SIMPLICES} simplices")
    if not is_prime(p):
        raise ValueError("p must be prime")
    n = len(complex_.vertices)
    if sorted(action) != list(range(n)):
        raise ValueError("action must be a permutation of the vertices")
    # the table is closed, so its first and last vertex bound every simplex's
    if table and (table[0][0][0] < 0 or table[0][-1][0] >= n):
        raise ValueError("simplex references an unknown vertex")
    # the closed table's 0-simplices are the vertices some simplex holds
    if len(table[0] if table else ()) < n:
        vertex = next(v for v in range(n) if (v,) not in complex_.faces)
        raise ValueError(f"vertex {vertex} lies in no simplex: list it as a 0-simplex or drop it")
    # the order of a permutation is the lcm of its cycle lengths
    if any(p % len(orbit) for orbit in permutation_cycles(action)):
        raise ValueError("action must have order dividing p")
    faces = complex_.faces
    if any(tuple(sorted(action[v] for v in s)) not in faces for s in faces):
        raise ValueError("action is not simplicial")


def _is_index_list(value) -> bool:
    # type(), not isinstance(): JSON true and false are Python ints too
    return isinstance(value, list) and all(type(v) is int for v in value)


def _closure(faces: Iterable[Iterable[int]]) -> tuple[tuple[Face, ...], ...]:
    """The face table of every nonempty subset of every face, built downward
    without descending below a face already held, and refused once it
    passes ``MAX_SIMPLICES``: a face of many vertices costs the cap, not
    its 2^size subsets."""
    closed: set[Face] = set()
    todo = [tuple(sorted(set(face))) for face in faces]
    while todo and len(closed) <= MAX_SIMPLICES:
        s = todo.pop()
        if s and s not in closed:
            closed.add(s)
            todo.extend(s[:i] + s[i + 1 :] for i in range(len(s)))
    if len(closed) > MAX_SIMPLICES:
        raise ValueError(f"the closure passes the cap of {MAX_SIMPLICES} simplices")
    return _face_table(closed)


def _face_table(simplices: Iterable[Face]) -> tuple[tuple[Face, ...], ...]:
    """Distinct sorted vertex tuples, closed downward, grouped by size."""
    by_size: dict[int, list[Face]] = {}
    for s in simplices:
        by_size.setdefault(len(s), []).append(s)
    return tuple(tuple(sorted(by_size[size])) for size in range(1, len(by_size) + 1))


def _name_from_json(name):
    if isinstance(name, list):
        return tuple(_name_from_json(x) for x in name)
    return name


def check_free_action(complex_: FreeZpComplex) -> bool:
    """True iff no nontrivial power of the action fixes any simplex setwise.

    For a prime-order simplicial action a setwise-invariant simplex would fix
    its barycenter, so this is exactly freeness of the realized action.  It
    is decided from the orbits, one membership test each.  Let p be prime,
    the action's order divide p and the complex be downward closed (the
    builders and ``from_json`` guarantee all three).  The powers fixing a
    simplex form a subgroup of Z_p, trivial or everything, so a simplex
    fixed by some nontrivial power is fixed by the generator.  Then it is a
    union of orbits, so it has a whole orbit as a face, and that orbit is a
    simplex fixed setwise.  So the action is free exactly when no orbit,
    taken as a vertex set, is a simplex: one binary search of the sorted
    table's entry of the orbit's size, and none for an orbit longer than
    every simplex.
    """
    table = complex_.face_table
    for orbit in permutation_cycles(complex_.action):
        if len(orbit) <= len(table):  # a longer orbit is no simplex
            key = tuple(sorted(orbit))
            faces = table[len(orbit) - 1]
            at = bisect_left(faces, key)
            if at < len(faces) and faces[at] == key:
                return False
    return True


# Most simplices of a standard complex or a complex file, checked before it
# is built: the largest standard complex built, en-zp(2, 8), has 19,682.
MAX_SIMPLICES = 20_000

# Most nodes (candidate orbit images) one equivariant map search tries.  A
# node costs 10-30 us as the source grows, from E_5 Z_2 to E_8 Z_2 searched
# into the level below, so a spent cap takes 0.5-1.5 s (Python 3.11.7, 2-CPU
# x86-64 VM); no coindex command of the benchmark tries more than 16.
MAX_SEARCH_NODES = 50_000


def build_en_zp(p: int, n: int) -> FreeZpComplex:
    """The standard n-dimensional free complex: (n+1)-fold join of free orbits.

    Vertices are (a, level) for a in Z_p and level in 0..n; simplices are the
    nonempty vertex sets with at most one vertex per level; the action adds 1
    to the first coordinate.  The result is n-dimensional and free.  Its
    (p+1)^(n+1) - 1 simplices are counted first and refused above
    ``MAX_SIMPLICES``.
    """
    if p >= 2 and n >= 0:
        # the count is at least p and at least 2^(n+1) - 1, so a large p or n
        # is over the cap without forming a number that may be huge
        small = p <= MAX_SIMPLICES and n < MAX_SIMPLICES.bit_length()
        count = (p + 1) ** (n + 1) - 1 if small else None
        if count is None or count > MAX_SIMPLICES:
            shown = f"{_shown(p + 1)}^{_shown(n + 1)} - 1" + (f" = {count}" if count else "")
            raise ValueError(
                f"en-zp:p={_shown(p)},n={_shown(n)} would have {shown} simplices, over the cap of "
                f"{MAX_SIMPLICES} that is checked before building"
            )
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 0:
        raise ValueError("n must be >= 0")
    vertices, action = _standard_vertices(p, n)
    # vertex (a, level) has index level * p + a.  Each size-(k+1) simplex is
    # a size-k simplex s extended by one vertex of a higher level, one of
    # tails[s[-1] // p + 1]; a sorted prefix followed by a larger last vertex
    # is lexicographic order, so extending a sorted table leaves it sorted
    singles = tuple((v,) for v in range(len(vertices)))
    tails = [singles[level * p :] for level in range(n + 2)]
    table = [singles]
    while len(table) <= n:
        table.append(tuple(s + t for s in table[-1] for t in tails[s[-1] // p + 1]))
    return FreeZpComplex(p, vertices, tuple(table), action)


def _standard_vertices(p: int, n: int) -> tuple[tuple, tuple[int, ...]]:
    """The vertices (a, level) of E_n Z_p, in index order, and its action."""
    vertices = tuple((a, level) for level in range(n + 1) for a in range(p))
    return vertices, tuple(level * p + (a + 1) % p for (a, level) in vertices)


def _is_standard(complex_: FreeZpComplex) -> bool:
    """Whether ``complex_`` is ``build_en_zp(p, n)``, n its dimension.

    Its vertices and action are those of E_n Z_p, and its top simplices are
    all p^(n+1) that hold one vertex per level.  Closed downward, it then
    holds every simplex of E_n Z_p, and with (p+1)^(n+1) - 1 simplices in
    all, no other; its table is sorted, so it is the table built.
    """
    p, table = complex_.p, complex_.face_table
    n = len(table) - 1
    return (
        len(complex_.vertices) == (n + 1) * p
        and (complex_.vertices, complex_.action) == _standard_vertices(p, n)
        and len(table[-1]) == p ** (n + 1)
        and sum(map(len, table)) == (p + 1) ** (n + 1) - 1
        and all(
            level * p <= min(column) and max(column) < (level + 1) * p
            for level, column in enumerate(zip(*table[-1]))
        )
    )


def join_complexes(k: FreeZpComplex, l: FreeZpComplex) -> FreeZpComplex:
    """Simplicial join: simplices are unions of one simplex (or nothing) per side.

    Joining with the empty complex returns the other factor unchanged.  The
    action is diagonal; the join of free complexes is free and its dimension
    is dim K + dim L + 1.
    """
    if k.p != l.p:
        raise ValueError("prime mismatch")
    if k.is_empty():
        return l
    if l.is_empty():
        return k
    vertices = tuple((0, v) for v in k.vertices) + tuple((1, w) for w in l.vertices)
    off = len(k.vertices)
    # k's vertices precede l's shifted ones, so each union is sorted
    l_shifted = [tuple(v + off for v in sl) for sl in chain(((),), *l.face_table)]
    simplices = (sk + sl for sk in chain(((),), *k.face_table) for sl in l_shifted)
    action = k.action + tuple(off + w for w in l.action)
    return FreeZpComplex(k.p, vertices, _face_table(s for s in simplices if s), action)


# ---------------------------------------------------------------------------
# Integral homology via Smith normal form


def smith_normal_form_diagonal(matrix: list[list[int]]) -> list[int]:
    """Invariant factors (positive, each dividing the next) of an integer matrix."""
    mat = [row[:] for row in matrix]
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(mat[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]
        while True:
            changed = False
            for i in range(t + 1, rows):
                if mat[i][t]:
                    factor = mat[i][t] // mat[t][t]
                    for j in range(t, cols):
                        mat[i][j] -= factor * mat[t][j]
                    if mat[i][t]:
                        mat[t], mat[i] = mat[i], mat[t]
                    changed = True
            for j in range(t + 1, cols):
                if mat[t][j]:
                    factor = mat[t][j] // mat[t][t]
                    for i in range(t, rows):
                        mat[i][j] -= factor * mat[i][t]
                    if mat[t][j]:
                        for row in mat:
                            row[t], row[j] = row[j], row[t]
                    changed = True
            if not changed:
                break
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if mat[i][j] % mat[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, cols):
                mat[t][j] += mat[offender][j]
            continue
        diag.append(abs(mat[t][t]))
        t += 1
    return diag


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus torsion coefficients."""

    rank: int
    torsion: tuple[int, ...] = ()

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _coboundary_columns(
    lower: Sequence[Face], upper: Sequence[Face], dropped: Collection[int] = ()
) -> list[dict[int, int]]:
    """Coboundary from cochains on ``lower`` to cochains on ``upper``, the
    transpose of the boundary: one sparse ``{row: +-1}`` column per simplex
    of ``lower`` whose index is not in ``dropped``, with a row for each
    simplex of ``upper`` that has it as a facet; a dropped column gets no
    entry.  The facets are formed one dropped position at a time, all of
    ``upper`` at once from its vertex columns, and the facet without
    position j has the sign (-1)^j.  So a column lists its rows ascending
    within each position, not overall."""
    columns: list[dict[int, int]] = [{} for _ in range(len(lower) - len(dropped))]
    index = dict(zip((s for j, s in enumerate(lower) if j not in dropped), columns))
    vertex_columns = list(zip(*upper))
    for drop in range(len(vertex_columns)):
        kept = vertex_columns[:drop] + vertex_columns[drop + 1 :]
        # the vertices' only facet is the empty simplex
        facets = zip(*kept) if kept else repeat((), len(upper))
        sign = -1 if drop % 2 else 1
        for row, column in enumerate(map(index.get, facets)):
            if column is not None:
                column[row] = sign
    return columns


def _invariant_factors(columns: list[dict[int, int]], pivot_rows: list[int]) -> list[int]:
    """Smith normal form diagonal of a sparse integer matrix given by columns.

    One lowest-row reduction: each column in turn, while its lowest (largest)
    row is owned by an earlier pivot column, has that column's multiple
    subtracted, which clears the entry and lowers the row.  A column left
    with a new lowest row whose entry is +-1 becomes the pivot column of that
    row; a column reduced to 0 is dropped.  The subtractions are unimodular
    column operations, and the nonzero reduced columns are triangular with
    unit diagonal on their pivot rows, so they span a direct summand and
    every invariant factor is 1: the result is [1] * pivots.  If some
    column's new lowest entry is not a unit, the original columns go to
    ``_unit_pivot_factors`` instead, the only route to a factor above 1.
    The pivot rows are appended to ``pivot_rows`` in the order they were
    taken.
    """
    owners: dict[int, dict[int, int]] = {}
    for col in columns:
        low = max(col, default=-1)
        if low in owners:
            col = dict(col)  # the originals stay intact for the fallback
            while low in owners:
                pivot = owners[low]
                factor = col[low] * pivot[low]  # pivot[low] is its own inverse
                for i, v in pivot.items():
                    entry = col.get(i, 0) - factor * v
                    if entry:
                        col[i] = entry
                    else:
                        del col[i]
                low = max(col, default=-1)
        if low < 0:
            continue
        if col[low] not in (1, -1):
            return _unit_pivot_factors(columns, pivot_rows)
        owners[low] = col
    pivot_rows.extend(owners)
    return [1] * len(owners)


def _unit_pivot_factors(columns: list[dict[int, int]], pivot_rows: list[int]) -> list[int]:
    """Smith normal form diagonal by unit-pivot elimination, the fallback of
    ``_invariant_factors`` when a lowest entry is not a unit.

    Each pass walks the columns in order and pivots on a +-1 entry whose row
    has the fewest entries: subtracting multiples of the pivot column clears
    the pivot row, and the pivot row and column are dropped.  Up to
    unimodular row and column operations this splits the matrix into the
    direct sum of [1] and the remaining M'.  Passes
    repeat while a pivot was found; what remains has no unit entry and goes
    to the dense ``smith_normal_form_diagonal``.  Since 1 divides every
    invariant factor, the result is [1] * pivots + the residual's diagonal.
    The pivot rows are appended to ``pivot_rows`` in the order they were
    taken.
    """
    cols = [dict(c) for c in columns]
    rows: dict[int, set[int]] = {}
    for j, col in enumerate(cols):
        for i in col:
            rows.setdefault(i, set()).add(j)
    pivots = 0
    found = True
    while found:
        found = False
        for c, pivot_col in enumerate(cols):
            units = [i for i, v in pivot_col.items() if v in (1, -1)]
            if not units:
                continue
            r = min(units, key=lambda i: len(rows[i]))
            u = pivot_col.pop(r)
            for j in rows.pop(r) - {c}:
                col = cols[j]
                factor = col.pop(r) * u
                for i, v in pivot_col.items():
                    entry = col.get(i, 0) - factor * v
                    if entry:
                        col[i] = entry
                        rows[i].add(j)
                    elif i in col:
                        del col[i]
                        rows[i].discard(j)
            for i in pivot_col:
                rows[i].discard(c)
            pivot_col.clear()
            pivots += 1
            pivot_rows.append(r)
            found = True
    rest_rows = sorted(i for i, js in rows.items() if js)
    rest_cols = [col for col in cols if col]
    if not rest_cols:
        return [1] * pivots
    residual = [[col.get(i, 0) for col in rest_cols] for i in rest_rows]
    return [1] * pivots + smith_normal_form_diagonal(residual)


def reduced_homology_groups(complex_: FreeZpComplex) -> list[HomologyGroup]:
    """Reduced integral homology in degrees 0..dim, from the face table.

    Degree -1 holds the empty simplex alone, so the boundary of the vertices
    is the augmentation.  H~_k has rank n_k - rank d_k - rank d_{k+1}, and its
    torsion is the invariant factors of d_{k+1} above 1.  Higher degrees are 0.

    A matrix and its transpose have the same invariant factors, so each d_k
    is read through its coboundary delta_k = d_k^T, from cochains on the
    (k-1)-simplices to cochains on the k-simplices.  The coboundaries are
    reduced from degree 0 up, and each one without the columns whose
    indices the one below pivoted on (clearing).  This is exact over Z.  Say
    the reduction of delta_k pivots on the rows R = {r_1, ..., r_T} of C^k
    with the columns c_1, ..., c_T.  Each c_t is a coboundary and +-1 at
    r_t, and on the rows R the c_t are triangular with unit diagonal: a
    lowest-row pivot column is 0 below its pivot row, and an eliminated one
    is 0 at the rows taken before it.  So the c_t and the unit cochains e_j
    for j outside R form a Z-basis of C^k.  delta_{k+1} vanishes on every
    c_t, so in that basis delta_{k+1} is 0 beside delta_{k+1} without the
    columns R, and the two have the same nonzero invariant factors: the same
    rank and the same torsion.
    """
    faces = [((),), *complex_.face_table]
    factors: list[list[int]] = []
    cleared: list[int] = []
    for lower, upper in zip(faces, faces[1:]):
        columns = _coboundary_columns(lower, upper, set(cleared))
        cleared = []
        factors.append(_invariant_factors(columns, cleared))
    factors.append([])
    return [
        HomologyGroup(
            rank=len(faces[k + 1]) - len(factors[k]) - len(factors[k + 1]),
            torsion=tuple(t for t in factors[k + 1] if t > 1),
        )
        for k in range(len(faces) - 1)
    ]


def homology_euler_consistent(
    complex_: FreeZpComplex, groups: Sequence[HomologyGroup]
) -> bool:
    """Alternating sum of the reduced homology ranks ``groups`` (degrees
    0..dim) must reproduce Euler - 1."""
    if complex_.is_empty():
        return True
    alternating = sum((-1) ** k * group.rank for k, group in enumerate(groups))
    return complex_.euler_characteristic() == 1 + alternating


# ---------------------------------------------------------------------------
# Equivariant vertex-map search


def verify_equivariant_simplicial(
    mapping: Mapping[int, int], source: FreeZpComplex, target: FreeZpComplex
) -> bool:
    """Independent checker: totality, equivariance and simpliciality."""
    if source.p != target.p:
        return False
    if set(mapping) != set(range(len(source.vertices))):
        return False
    for v in range(len(source.vertices)):
        if mapping[source.action[v]] != target.action[mapping[v]]:
            return False
    tables = _size_tables(chain.from_iterable(source.face_table))
    return _images_are_faces(tables, mapping.__getitem__, target.faces)


def equivariant_map_search(
    source: FreeZpComplex, target: FreeZpComplex, work: dict | None = None
) -> dict[int, int] | None:
    """Backtracking search for an equivariant simplicial vertex map.

    One image is chosen per source vertex orbit, in the order of
    ``permutation_cycles``, and propagated along the actions; a partial
    assignment is pruned as soon as some fully-assigned source simplex has
    a non-simplex image.  Exhausting the space proves no equivariant
    simplicial VERTEX map exists at this triangulation; it does not bound
    continuous maps, so callers must treat failure as inconclusive.

    A node is one candidate image tried for a source orbit.  The simplices
    whose highest orbit is orbit i are the ones a node of orbit i decides.
    The target is closed downward, so only those that are a facet of no
    other such simplex are tested: each of the others is a face of one of
    them.  Of those, only the ones that hold the orbit's first vertex are
    tested: the others are g^k s for one of them s, the map sends g^k s to
    h^k of the image of s, where g and h are the two actions, and the
    target's faces are closed under h.

    The search first completes the orbits 0..i exactly where a search from
    their subcomplex alone would return: the two walk the same tree up to
    there.  When ``work`` is given, ``work["nodes"]`` is set to the number
    of nodes tried, and ``work["completed"]`` to the list of the node counts
    at which the orbits 0..i were first all assigned, for i = 0, 1, ... in
    turn.  A search that would try more than ``MAX_SEARCH_NODES`` raises
    ``ValueError`` naming the dimension of the orbits 0..i, where i is the
    first orbit not yet completed (the level of the search that would have
    spent the cap, for a standard source): the answer is undetermined, never
    "exhausted".
    """
    if source.p != target.p:
        raise ValueError("prime mismatch")
    if not check_free_action(source):
        raise ValueError("search requires a free source action")
    if work is None:
        work = {}
    completed: list[int] = []
    work["completed"] = completed
    work["nodes"] = 0
    if source.is_empty():
        return {}
    if target.is_empty():
        return None
    orbits = permutation_cycles(source.action)
    orbit_of = [0] * len(source.vertices)
    for oi, orbit in enumerate(orbits):
        for v in orbit:
            orbit_of[v] = oi
    # simplices grouped by the highest orbit index they touch, in table order
    by_last_orbit: list[list[Face]] = [[] for _ in orbits]
    for s in chain.from_iterable(source.face_table):
        by_last_orbit[max(map(orbit_of.__getitem__, s))].append(s)
    # the tests of each orbit: its maximal simplices that hold its first
    # vertex, as vertex columns
    tests = [
        _size_tables(s for s in _maximal_simplices(group) if orbit[0] in s)
        for orbit, group in zip(orbits, by_last_orbit)
    ]
    faces = target.faces

    # the images of an orbit walk the target's action from the one chosen:
    # walks[w][k] is action^k(w), for k = 0..p
    steps = [range(len(target.vertices))]
    for _ in range(source.p):
        steps.append(tuple(map(target.action.__getitem__, steps[-1])))
    walks = list(zip(*steps))
    images: dict[int, int] = {}  # entries of unassigned orbits are stale
    image_of = images.__getitem__

    def assign_orbit(oi: int) -> bool:
        if oi > len(completed):
            completed.append(work["nodes"])
        if oi == len(orbits):
            return True
        orbit = orbits[oi]
        for walk in walks:
            work["nodes"] += 1
            if work["nodes"] > MAX_SEARCH_NODES:
                searched = chain.from_iterable(by_last_orbit[: len(completed) + 1])
                raise ValueError(
                    f"undetermined: the equivariant map search from a level-"
                    f"{max(map(len, searched), default=0) - 1} source spent its cap of "
                    f"{MAX_SEARCH_NODES} nodes (complexes.MAX_SEARCH_NODES)"
                )
            if walk[len(orbit)] != walk[0]:
                continue  # a fixed source vertex needs a fixed image
            images.update(zip(orbit, walk))
            if _images_are_faces(tests[oi], image_of, faces) and assign_orbit(oi + 1):
                return True
        return False

    try:
        found = assign_orbit(0)
    finally:
        # the function holds itself in its closure: break that cycle, so the
        # search's tables are freed now and not at a later garbage collection
        del assign_orbit
    if found:
        result = dict(images)
        if not verify_equivariant_simplicial(result, source, target):
            raise AssertionError("search returned a map its checker rejects")
        return result
    return None


def _size_tables(simplices: Iterable[Face]) -> list[tuple]:
    """Simplices listed by size as vertex columns, one table per size, the
    largest first, since a simplex fails whenever one of its faces does."""
    return [tuple(zip(*run)) for _, run in groupby(simplices, len)][::-1]


def _images_are_faces(
    tables: Sequence[tuple], image_of: Callable[[int], int], faces: Collection[Face]
) -> bool:
    """Whether every simplex of the tables has its image vertex set in
    ``faces`` (a simplex may map onto a smaller one); the images are formed
    and tested at C speed, in the tables' order, up to the first that
    fails."""
    for columns in tables:
        images = zip(*map(map, repeat(image_of), columns))
        if not all(map(faces.__contains__, map(tuple, map(sorted, map(set, images))))):
            return False
    return True


def _maximal_simplices(group: Sequence[Face]) -> list[Face]:
    """The simplices of a group in table order that are a facet of none of
    the others, in that order."""
    covered: set[Face] = set()
    for size, simplices in groupby(group, len):
        if size > 1:
            vertex_columns = list(zip(*simplices))
            for drop in range(size):
                covered.update(zip(*vertex_columns[:drop], *vertex_columns[drop + 1 :]))
    return list(filterfalse(covered.__contains__, group))


# ---------------------------------------------------------------------------
# Coindex bounds


@dataclass(frozen=True)
class CoindexBound:
    """An interval [lower, upper] for a coindex, with its derivation chain."""

    p: int
    lower: int
    upper: int | None
    provenance: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if self.lower < -1:
            raise ValueError("lower bound below the empty-space convention -1")
        if self.upper is not None and self.lower > self.upper:
            raise ValueError("bound interval inverted")
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "lower": self.lower,
            "upper": self.upper if self.upper is not None else "inf",
            "provenance": list(self.provenance),
        }


def coindex_bounds(complex_: FreeZpComplex, search_depth: int) -> CoindexBound:
    """Sound coindex interval for a free complex.

    The lower bound is the largest n <= search_depth for which an explicit
    equivariant vertex map from the standard n-dimensional free complex was
    found; the upper bound is the dimension.  Levels above the dimension are
    decided without a search: one record cites the level theorem for the
    first of them.  A failed search never tightens the upper bound (sources
    are not subdivided) and is recorded as unresolved in the provenance.
    Each search record carries the nodes its search tried.

    One search serves every level.  Orbit i of E_d Z_p, d = min(search_depth,
    dim), is level i, and its simplices on the levels 0..n are those of
    E_n Z_p, so the search from E_d Z_p first completes level n exactly where
    a search from E_n Z_p would return, and a level it never completes is
    exhausted at the count that search would end on.  A found map is checked
    in full, and its restriction to the levels 0..n is a map from E_n Z_p.
    When a level is exhausted, a map from the level below is searched for
    again, from its own standard complex, and checked.
    """
    if complex_.is_empty():
        return CoindexBound(
            complex_.p,
            -1,
            -1,
            ({"rule": "empty-space convention", "statement": "coindex of the empty space is -1"},),
        )
    if not check_free_action(complex_):
        raise ValueError("coindex defined only for free actions")
    dim = complex_.dimension()
    depth = min(search_depth, dim)
    work: dict = {}
    # a standard complex searched to its own level is its own source
    own = depth == dim and _is_standard(complex_)
    found = equivariant_map_search(complex_ if own else build_en_zp(complex_.p, depth), complex_, work) is not None
    completed = work["completed"]
    lower = len(completed) - 1
    if not found and lower >= 0:
        if equivariant_map_search(build_en_zp(complex_.p, lower), complex_) is None:
            raise AssertionError(f"no map from level {lower}, which the search completed")
    provenance: list[dict] = [
        {
            "rule": "vertex-map witness",
            "level": n,
            "nodes": nodes,
            "statement": (
                f"an explicit equivariant simplicial map from the standard "
                f"level-{n} free complex exists, so coindex >= {n}"
            ),
        }
        for n, nodes in enumerate(completed)
    ]
    if not found:
        provenance.append(
            {
                "rule": "search exhausted",
                "level": lower + 1,
                "nodes": work["nodes"],
                "statement": (
                    f"no equivariant simplicial vertex map from the standard "
                    f"level-{lower + 1} free complex at this triangulation; inconclusive "
                    f"without subdivision, upper bound unchanged"
                ),
            }
        )
    elif search_depth > dim:
        provenance.append(
            {
                "rule": "level theorem",
                "level": dim + 1,
                "statement": (
                    f"no equivariant map from the standard level-{dim + 1} free "
                    f"complex exists: composed with this complex's map into the "
                    f"standard level-{dim} free complex it would raise the level "
                    f"(Dold's theorem), so no level above {dim} is searched"
                ),
            }
        )
    provenance.append(
        {
            "rule": "dimension cap",
            "statement": (
                f"a free {dim}-dimensional complex maps equivariantly into the "
                f"standard level-{dim} free complex, and equivariant maps between "
                f"standard free complexes cannot raise the level, so coindex <= {dim}"
            ),
        }
    )
    return CoindexBound(complex_.p, lower, dim, tuple(provenance))


# ---------------------------------------------------------------------------
# Coindex rules
#
# Each rule takes the bounds it combines, checks that they share one prime,
# and returns the combined interval with the inputs' provenance followed by
# one record for the rule.


def _ruled(
    inputs: Sequence[CoindexBound], lower: int, upper: int | None, record: dict
) -> CoindexBound:
    p = inputs[0].p
    if any(b.p != p for b in inputs):
        raise ValueError("prime mismatch")
    chain = tuple(rec for b in inputs for rec in b.provenance)
    return CoindexBound(p, lower, upper, chain + (record,))


def coindex_join(
    a: CoindexBound, b: CoindexBound, dim_cap: int | None = None
) -> CoindexBound:
    """The join of two free spaces: lower = l1 + l2 + 1; the upper end is
    unbounded unless a dimension cap is supplied."""
    return _ruled(
        (a, b),
        a.lower + b.lower + 1,
        dim_cap,
        {
            "rule": "join",
            "statement": (
                "the coindex of a join is at least the sum of the coindexes plus one"
            ),
            "inputs": [a.lower, b.lower],
        },
    )


def coindex_map(source: CoindexBound, target: CoindexBound | None = None) -> CoindexBound:
    """An equivariant map pushes the source's lower bound onto the target,
    merged with a prior bound for the target when one is given."""
    inputs = (source,) if target is None else (source, target)
    return _ruled(
        inputs,
        max(b.lower for b in inputs),
        None if target is None else target.upper,
        {
            "rule": "map",
            "statement": (
                "an equivariant continuous map cannot decrease coindex, so "
                "the target inherits the source's lower bound"
            ),
        },
    )


def coindex_power(bound: CoindexBound, exponent: int) -> CoindexBound:
    """Replacing the action T by T^exponent, exponent coprime to p, keeps the bound."""
    if gcd(exponent, bound.p) != 1:
        raise ValueError("power rule requires an exponent coprime to p")
    return _ruled(
        (bound,),
        bound.lower,
        bound.upper,
        {
            "rule": "power",
            "statement": (
                f"replacing the action by its power {exponent} (coprime to "
                f"{bound.p}) preserves coindex"
            ),
        },
    )


def coindex_finite(p: int) -> CoindexBound:
    """A nonempty finite free orbit set has coindex exactly 0."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    return CoindexBound(
        p,
        0,
        0,
        (
            {
                "rule": "finite-nonempty",
                "statement": (
                    "a nonempty finite free orbit set admits an orbit map from "
                    "the standard level-0 complex and has dimension 0, so its "
                    "coindex is exactly 0"
                ),
            },
        ),
    )
