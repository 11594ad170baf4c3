"""Independent oracles used by the test suite.

These deliberately re-derive expected values by the most direct route
available (literal definitions, full enumeration, determinantal divisors) so
that the library code is checked against something it does not share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

import numpy as np

from mdkit import finite
from mdkit.complexes import HomologyGroup, smith_normal_form_diagonal
from mdkit.finite import FiniteSystem, enumerate_markers, time_division
from mdkit.shiftspace import Periodic, Window, check_membership, gap_space, random_torus_vec
from mdkit.torus import TorusSeq, TorusVec, dist_at_least, max_circle_dist, vec_sum
from mdkit.tower import DomainError, level_gap, section_domain


# ---------------------------------------------------------------------------
# Markers: brute force over all subsets


def marker_exists_bruteforce(sys_: FiniteSystem, n_marker: int) -> bool:
    """Pure-Python sweep of every nonempty subset against the two conditions."""
    n = sys_.size
    cycles = [set(c) for c in sys_.cycles]
    for mask in range(1, 1 << n):
        chosen = {i for i in range(n) if mask >> i & 1}
        if any(not chosen & c for c in cycles):
            continue
        ok = True
        for step in range(1, n_marker):
            if any(sys_.apply(i, step) in chosen for i in chosen):
                ok = False
                break
        if ok:
            return True
    return False


def marker_exists_vectorized(sys_: FiniteSystem, n_marker: int) -> bool:
    """Same all-subsets sweep, with the subset axis vectorized as bitmasks."""
    n = sys_.size
    masks = np.arange(1, 1 << n, dtype=np.int64)
    valid = np.ones(len(masks), dtype=bool)
    for cycle in sys_.cycles:
        cycle_mask = np.int64(sum(1 << i for i in cycle))
        valid &= (masks & cycle_mask) != 0
    for step in range(1, n_marker):
        image = np.zeros(len(masks), dtype=np.int64)
        for i in range(n):
            target = sys_.apply(i, step)
            image |= ((masks >> np.int64(i)) & 1) << np.int64(target)
        valid &= (masks & image) == 0
    return bool(valid.any())


def early_returns_by_powers(sys_: FiniteSystem, subset, n_marker: int) -> list[list[int]]:
    """For n = 1 .. N-1, the sorted points of the subset whose n-th power
    image lies in the subset, each image taken by n steps from scratch."""
    chosen = set(subset)
    return [sorted(i for i in chosen if sys_.apply(i, n) in chosen) for n in range(1, n_marker)]


def cycle_position_subsets_by_scan(length: int, n_marker: int) -> list[tuple[int, ...]]:
    """The position subsets of a cycle with all circular gaps >= N, in
    depth-first order: every later position is scanned and those within N
    of the last chosen one are skipped one by one."""
    results: list[tuple[int, ...]] = []

    def extend(chosen: list[int], next_pos: int):
        for pos in range(next_pos, length):
            if chosen and pos - chosen[-1] < n_marker:
                continue
            chosen.append(pos)
            if length - (chosen[-1] - chosen[0]) >= n_marker:
                results.append(tuple(chosen))
                extend(chosen, pos + 1)
            chosen.pop()

    extend([], 0)
    return results


def phi_by_backward_walk(sys_: FiniteSystem, subset) -> tuple[int, ...]:
    """The backward first-entrance time of a marker by its definition: walk
    each point back through the inverse permutation until it meets U."""
    inverse = [0] * sys_.size
    for i, j in enumerate(sys_.perm):
        inverse[j] = i
    chosen = set(subset)
    phi = []
    for i in range(sys_.size):
        steps = 0
        while i not in chosen:
            i = inverse[i]
            steps += 1
        phi.append(steps)
    return tuple(phi)


def projection_by_clock_walk(divided: FiniteSystem, marker, n: int) -> list[int]:
    """The base points that the first n clock images of a marker of the
    1/n-time extension visit at phase 0, walked one step at a time."""
    pulled: set[int] = set()
    current = set(marker)
    for _ in range(n):
        pulled.update(i for i in current if i % n == 0)
        current = {divided.perm[i] for i in current}
    return sorted(i // n for i in pulled)


def backward_transfer_by_enumeration(base: FiniteSystem, n: int, n_marker: int):
    """The backward marker transfer decided over the full list of markers of
    the 1/n-time extension: each marker is projected by the clock walk, and
    each distinct projection is checked once with ``finite.verify_marker``.

    Returns the verdict, the marker count, and each failing projection with
    the first marker, in sorted order, that projects to it.  With no
    extension marker the verdict is that the base has no N-marker either.
    """
    divided = time_division(base, n)
    markers = sorted(map(sorted, enumerate_markers(divided, n * n_marker)))
    if not markers:
        return not marker_exists_bruteforce(base, n_marker), 0, {}
    verdicts: dict[tuple[int, ...], bool] = {}
    failing: dict[tuple[int, ...], list[int]] = {}
    for w in markers:
        projected = tuple(projection_by_clock_walk(divided, w, n))
        if projected not in verdicts:
            verdicts[projected] = finite.verify_marker(base, projected, max(n_marker - 1, 1))[0]
            if not verdicts[projected]:
                failing[projected] = w
    return not failing, len(markers), failing


# ---------------------------------------------------------------------------
# Periodic gap points: whole-period rejection and closed grid walks


def sample_periodic_gap_point_whole_period(dim, gap, threshold, period, rng):
    """Redraw the whole period until it passes the gap constraint."""
    spec = gap_space(dim, gap, threshold)
    for _ in range(500_000):
        cand = Periodic(TorusSeq.of(random_torus_vec(rng, dim) for _ in range(period)))
        if check_membership(spec, cand).passed:
            return cand
    raise RuntimeError(f"no period-{period} point drawn in 500,000 tries")


def gap_draws_per_entry(rng, dim, length, gap, threshold, tries=None, draw=random_torus_vec):
    """Entries drawn one vector at a time with ``draw(rng, dim)``: entries
    0 .. gap-1 as drawn, each later one redrawn until ``dist_at_least`` its
    entry gap back, at most ``tries`` times (None: no limit).  Returns the
    vectors and the number of draws, or None when an entry runs out."""
    values, drawn = [], 0
    for k in range(length):
        for _ in range(1 if k < gap else tries or 1 << 62):
            v = draw(rng, dim)
            drawn += 1
            if k < gap or dist_at_least(v, values[k - gap], threshold):
                values.append(v)
                break
        else:
            return None
    return values, drawn


def sample_gap_window_per_entry(dim, gap, threshold, start, length, rng):
    """The gap-window sampler vector by vector: one ``random_torus_vec`` per
    draw, each entry kept once it is far enough from the entry one gap back."""
    return Window(start, TorusSeq.of(gap_draws_per_entry(rng, dim, length, gap, threshold)[0]))


def sample_periodic_gap_point_per_entry(dim, gap, threshold, period, rng):
    """The cycle-walk sampler vector by vector: each of the gcd(gap, period)
    cycles is walked one ``random_torus_vec`` at a time and redrawn whole
    until its closing edge is far enough; step s of cycle f sits at residue
    (f + s*gap) mod period."""
    cycles = gcd(gap, period)
    length = period // cycles
    values = {}
    for first in range(cycles):
        while True:
            walk, _ = gap_draws_per_entry(rng, dim, length, 1, threshold)
            if dist_at_least(walk[-1], walk[0], threshold):
                break
        for step, v in enumerate(walk):
            values[(first + step * gap) % period] = v
    return Periodic(TorusSeq.of(values[i] for i in range(period)))


def closed_grid_walk_lengths(a: int, max_length: int, grid: int = 64) -> set[int]:
    """Lengths L <= max_length at which L steps of circular size >= a on the
    cycle Z/(2*grid) can return to 0, by a sweep of the reachable residues
    (bit r of ``reach`` set when residue r is reachable)."""
    full = 2 * grid
    mask = (1 << full) - 1
    steps = [s for s in range(full) if min(s, full - s) >= a]
    lengths = set()
    reach = 1
    for length in range(1, max_length + 1):
        moved = 0
        for s in steps:
            moved |= ((reach << s) | (reach >> (full - s))) & mask
        reach = moved
        if reach & 1:
            lengths.add(length)
    return lengths


# ---------------------------------------------------------------------------
# Binary SFT periodic counts: one string per circular word


def count_periodic_sft_strings(forbidden: set[str], n: int) -> int:
    """Count the circular binary words of length n that read no forbidden
    word at any position, building each window as a string."""
    length = len(next(iter(forbidden)))
    count = 0
    for value in range(1 << n):
        word = format(value, f"0{n}b")
        if all(
            "".join(word[(i + j) % n] for j in range(length)) not in forbidden
            for i in range(n)
        ):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Sequence kernels: one integer step per entry


def _lifted_columns(seq, den):
    scale = den // seq.den
    return [[k * scale for k in column] for column in seq.columns]


def strided_sums_per_entry(seq, stride, terms):
    """The strided sums slid entry by entry: after the first ``stride`` sums,
    F[k] = F[k - stride] - seq[k - stride] + seq[k + (terms-1)*stride]."""
    span = (terms - 1) * stride
    count = len(seq) - span
    full = 2 * seq.den
    head = count if stride == 0 else min(stride, count)
    out_columns = []
    for column in seq.columns:
        out = [sum(column[k + t * stride] for t in range(terms)) % full for k in range(head)]
        for k in range(head, count):
            out.append((out[k - stride] - column[k - stride] + column[k + span]) % full)
        out_columns.append(out)
    return TorusSeq(out_columns, seq.den)


def solve_strided_sums_per_entry(head, sums, stride, terms):
    """The continuation of ``head`` entry by entry: the first ``stride``
    entries are their sums less the head terms, every later one telescopes,
    y[c + j] = y[j - stride] + sums[j] - sums[j - stride]."""
    c = (terms - 1) * stride
    den = lcm(head.den, sums.den)
    full = 2 * den
    count = len(sums)
    out_columns = []
    for y, s in zip(_lifted_columns(head, den), _lifted_columns(sums, den)):
        for j in range(min(stride, count)):
            y.append((s[j] - sum(y[j : j + c : stride])) % full)
        for j in range(stride, count):
            y.append((y[j - stride] + s[j] - s[j - stride]) % full)
        out_columns.append(y[c:])
    return TorusSeq(out_columns, den)


def gap_failures_per_entry(seq, gap, threshold, cyclic):
    """The positions k whose entry gap on, cyclically when ``cyclic``, lies
    nearer than ``threshold``, by one ``max_circle_dist`` per pair."""
    n = len(seq)
    count = n if cyclic else n - gap
    return [k for k in range(count) if max_circle_dist(seq[k], seq[(k + gap) % n]) < threshold]


def lane_edge_seq(rng, dim, length, den):
    """A sequence over ``den`` itself whose numerators sit at or next to 0,
    den and 2*den half the time, where lane arithmetic would carry or
    borrow; one numerator 1 keeps ``den`` in lowest terms."""
    edges = (0, 1, den - 1, den, den + 1, 2 * den - 2, 2 * den - 1)
    columns = [
        [rng.choice(edges) % (2 * den) if rng.random() < 0.5 else rng.randrange(2 * den) for _ in range(length)]
        for _ in range(dim)
    ]
    if length:
        columns[0][rng.randrange(length)] = 1
    return TorusSeq(columns, den)


# ---------------------------------------------------------------------------
# Factor and section maps: one vector operation per term of each entry


def factor_map_per_entry(m, x):
    """The level-m factor map summed entry by entry: m vector additions each."""
    if m < 2:
        raise ValueError("factor map requires level >= 2")
    q = level_gap(m - 1)
    span = (m - 1) * q
    if isinstance(x, Periodic):
        p = x.period
        return Periodic(
            TorusSeq.of(
                vec_sum(x.values[(i + t * q) % p] for t in range(m))
                for i in range(p)
            )
        )
    new_end = x.end - span
    if new_end < x.start:
        raise DomainError("domain shrinks to empty")
    return Window(
        x.start,
        TorusSeq.of(
            vec_sum(x.value_at(k + t * q) for t in range(m))
            for k in range(x.start, new_end + 1)
        ),
    )


def section_map_per_entry(m, head, x):
    """The level-m section built entry by entry: the head block on the
    initial block, head sums on the rest of the base block, then one
    telescoping step per entry upward and downward."""
    if any(v.dim != x.dim for v in head):
        raise ValueError("alphabet dimension mismatch")
    q = level_gap(m - 1)
    big = level_gap(m)
    c = (m - 1) * q
    out_lo, out_hi = section_domain(m, x.start, x.end)
    values: dict[int, TorusVec] = {}
    for k in range(0, c):
        values[k] = head[k]
    for k in range(c, big):
        acc = x.value_at(k - c)
        for i in range(1, m):
            acc = acc - head[k - i * q]
        values[k] = acc
    for k in range(big, out_hi + 1):
        values[k] = values[k - big] + (x.value_at(k - big + q) - x.value_at(k - big))
    for k in range(-1, out_lo - 1, -1):
        values[k] = values[k + big] + (x.value_at(k) - x.value_at(k + q))
    return Window(out_lo, TorusSeq.of(values[k] for k in range(out_lo, out_hi + 1)))


# ---------------------------------------------------------------------------
# Section map: the literal piecewise formula


def section_value_oracle(m, head, x, k):
    """Evaluate the level-m section at index k by the raw case sums."""
    q = level_gap(m - 1)
    big = level_gap(m)
    c = (m - 1) * q
    if 0 <= k <= c - 1:
        return head[k]
    if c <= k <= big - 1:
        acc = x.value_at(k - c)
        for i in range(1, m):
            acc = acc - head[k - i * q]
        return acc
    n, j = divmod(k, big)
    base = section_value_oracle(m, head, x, j)
    if n > 0:
        acc = base
        for i in range(0, n):
            acc = acc + (x.value_at(i * big + q + j) - x.value_at(i * big + j))
        return acc
    acc = base
    for i in range(n, 0):
        acc = acc + (x.value_at(i * big + j) - x.value_at(i * big + q + j))
    return acc


# ---------------------------------------------------------------------------
# Smith normal form: determinantal divisors


def invariant_factors_by_minors(matrix: list[list[int]]) -> list[int]:
    """Invariant factors from gcds of k-by-k minors (feasible for tiny sizes)."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        divisor = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                divisor = gcd(divisor, _det([[matrix[i][j] for j in csel] for i in rsel]))
        if divisor == 0:
            break
        factors.append(divisor // previous)
        previous = divisor
    return factors


def _det(matrix: list[list[int]]) -> int:
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = 0
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


# ---------------------------------------------------------------------------
# Exact metrics and permutations: tables and the axioms by definition


def uniform_metric(size: int, value: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(0) if i == j else Fraction(value) for j in range(size))
        for i in range(size)
    )


def random_metric_per_entry(rng, size: int, denominator: int = 32):
    """``finite.random_metric`` with one ``Fraction`` built per draw."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = Fraction(rng.randint(denominator, 2 * denominator), 8 * denominator)
            rows[i][j] = d
            rows[j][i] = d
    return tuple(tuple(row) for row in rows)


def metric_violations(metric, size: int) -> list[str]:
    """The metric axioms a table of exact distances breaks, each tested on
    every point, pair or triple: the table is square with ``size`` rows of
    ``Fraction`` entries, zero on the diagonal, symmetric, nonnegative, and
    d(i, k) <= d(i, j) + d(j, k)."""
    if not (
        isinstance(metric, tuple)
        and len(metric) == size
        and all(isinstance(row, tuple) and len(row) == size for row in metric)
        and all(isinstance(d, Fraction) for row in metric for d in row)
    ):
        return ["shape"]
    points = range(size)
    checks = {
        "zero diagonal": all(metric[i][i] == 0 for i in points),
        "symmetric": all(metric[i][j] == metric[j][i] for i in points for j in points),
        "nonnegative": all(d >= 0 for row in metric for d in row),
        "triangle inequality": all(
            metric[i][k] <= metric[i][j] + metric[j][k]
            for i in points
            for j in points
            for k in points
        ),
    }
    return [name for name, ok in checks.items() if not ok]


def epsilon_embedding_by_fractions(sys_: FiniteSystem, epsilon) -> finite.EmbeddingReport:
    """``finite.epsilon_embedding`` computed on a table of ``Fraction``
    distances: rescale, center choice, images and the pair tests each by
    rational arithmetic, with ``max_circle_dist`` for every far pair."""
    epsilon = Fraction(epsilon)
    n, metric = sys_.size, sys_.metric
    diam = max((metric[i][j] for i in range(n) for j in range(n)), default=Fraction(0))
    scale = Fraction(1)
    if diam > Fraction(1, 4):
        scale = Fraction(1, 4) / diam
    dist = [[metric[i][j] * scale for j in range(n)] for i in range(n)]
    eps = epsilon * scale
    centers: list[int] = []
    for i in range(n):
        if not any(dist[i][c] < eps / 2 for c in centers):
            centers.append(i)
    images = tuple(TorusVec.of(*(dist[i][c] for c in centers)) for i in range(n))
    collision_ok = True
    separation = None
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] == images[j] and dist[i][j] >= eps:
                collision_ok = False
            if dist[i][j] >= eps:
                gap = max_circle_dist(images[i], images[j])
                separation = gap if separation is None else min(separation, gap)
    return finite.EmbeddingReport(
        centers=tuple(centers),
        images=images,
        scale=scale,
        epsilon=eps,
        separation_gap=separation,
        collision_ok=collision_ok,
    )


def perm_is_bijection(sys_: FiniteSystem) -> bool:
    """A system's points and perm are tuples, and every point is the image
    of exactly one point."""
    return (
        isinstance(sys_.points, tuple)
        and isinstance(sys_.perm, tuple)
        and sorted(sys_.perm) == list(range(len(sys_.points)))
    )


def mixed_den_vec(rng, dim, dens=(1, 2, 3, 64)):
    """A random vector over a denominator drawn from ``dens``, so that
    sequences of them mix denominators and every lift to the lcm counts."""
    den = rng.choice(dens)
    return TorusVec(tuple(rng.randrange(2 * den) for _ in range(dim)), den)


# ---------------------------------------------------------------------------
# Free complexes: freeness by every power, homology by dense matrices


def free_action_by_all_powers(complex_) -> bool:
    """Freeness by its definition: no power 1..p-1 of the action fixes a
    simplex setwise."""
    for power in range(1, complex_.p):
        for s in map(frozenset, chain.from_iterable(complex_.face_table)):
            image = s
            for _ in range(power):
                image = frozenset(complex_.action[v] for v in image)
            if image == s:
                return False
    return True


def order_divides_by_all_powers(perm, p: int) -> bool:
    """Order dividing p by its definition: p applications of the permutation
    return every point to itself."""
    current = list(range(len(perm)))
    for _ in range(p):
        current = [perm[v] for v in current]
    return current == list(range(len(perm)))


def complex_violations(complex_) -> list[str]:
    """Every condition a complex must meet, each tested by its definition;
    the names of those it breaks.  Builders are trusted at run time, so
    the tests hold their outputs to this.

    The face table must hold in entry d strictly increasing (d+1)-tuples,
    strictly increasing from one to the next (so sorted and without
    duplicates), end on a nonempty entry, and hold every facet of an entry
    d simplex in entry d - 1."""
    p, vertices, table, action = (
        complex_.p, complex_.vertices, complex_.face_table, complex_.action
    )
    n = len(vertices)
    simplices = [s for entry in table for s in entry]
    as_sets = {frozenset(s) for s in simplices}
    checks = {
        "types": (
            isinstance(vertices, tuple)
            and isinstance(action, tuple)
            and isinstance(table, tuple)
            and all(isinstance(entry, tuple) for entry in table)
            and all(type(s) is tuple and all(type(v) is int for v in s) for s in simplices)
        ),
        "p prime": p >= 2 and all(p % d for d in range(2, p)),
        "action a permutation": sorted(action) == list(range(n)),
        "entry d holds increasing (d+1)-tuples": all(
            len(s) == d + 1 and all(a < b for a, b in zip(s, s[1:]))
            for d, entry in enumerate(table)
            for s in entry
        ),
        "entries sorted without duplicates": all(
            all(a < b for a, b in zip(entry, entry[1:])) for entry in table
        ),
        "no empty trailing entry": not table or bool(table[-1]),
        "vertices known": all(v in range(n) for s in simplices for v in s),
        "downward closed": all(
            tuple(u for u in s if u != v) in below
            for below, entry in zip(map(set, table), table[1:])
            for s in entry
            for v in s
        ),
    }
    if checks["action a permutation"]:
        checks["order divides p"] = order_divides_by_all_powers(action, p)
    if checks["vertices known"]:
        checks["action simplicial"] = all(
            frozenset(action[v] for v in s) in as_sets for s in simplices
        )
    return [name for name, ok in checks.items() if not ok]


def reduced_homology_dense(complex_, k):
    """H~_k from the dense boundary matrices of d_k and d_{k+1}, each reduced
    by the dense Smith normal form; 0 above the dimension.  The faces are
    regrouped by size and sorted here, not taken from the table's entries."""

    def faces(d):
        if d == -1:
            return [()]
        simplices = chain.from_iterable(complex_.face_table)
        return sorted(tuple(sorted(s)) for s in simplices if len(s) == d + 1)

    def factors(d):  # invariant factors of the boundary C_d -> C_{d-1}
        rows, cols = faces(d - 1), faces(d)
        if not rows or not cols:
            return []
        index = {s: i for i, s in enumerate(rows)}
        matrix = [[0] * len(cols) for _ in rows]
        for j, s in enumerate(cols):
            for drop in range(len(s)):
                matrix[index[s[:drop] + s[drop + 1 :]]][j] = -1 if drop % 2 else 1
        return smith_normal_form_diagonal(matrix)

    up = factors(k + 1)
    return HomologyGroup(
        rank=len(faces(k)) - len(factors(k)) - len(up),
        torsion=tuple(t for t in up if t > 1),
    )


# ---------------------------------------------------------------------------
# Covers: vertex stars of a face lattice


def vertex_star_cover(lattice) -> tuple[frozenset, ...]:
    """The open star of each vertex of a face lattice, in vertex order: every
    cell (a sorted vertex tuple) that contains the vertex."""
    vertices = sorted({c[0] for c in lattice.atoms if len(c) == 1})
    return tuple(frozenset(c for c in lattice.atoms if v in c) for v in vertices)
