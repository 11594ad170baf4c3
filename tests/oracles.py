"""Independent oracles used by the test suite.

These deliberately re-derive expected values by the most direct route
available (literal definitions, full enumeration, determinantal divisors) so
that the library code is checked against something it does not share.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, gcd, isqrt, lcm
from types import SimpleNamespace

import numpy as np

from mdkit import complexes, finite
from mdkit.complexes import CoindexBound, HomologyGroup, build_en_zp, smith_normal_form_diagonal
from mdkit.finite import FiniteSystem, enumerate_markers, time_division
from mdkit.shiftspace import Periodic, Window, check_membership, gap_space, random_torus_vec
from mdkit.meandim import Cover, cover_ord, validate_cover
from mdkit.torus import TorusSeq, TorusVec, max_circle_dist
from mdkit.tower import DomainError, factor_map, section_map


# ---------------------------------------------------------------------------
# Vectors and sequences from rationals


def vec(*values) -> TorusVec:
    """The vector with the given rational coordinates, reduced mod 2."""
    fracs = [Fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return TorusVec(tuple(f.numerator * (den // f.denominator) for f in fracs), den)


def seq(vectors, dim=None) -> TorusSeq:
    """The sequence of ``vectors``, lifted once to their common denominator.

    ``dim`` is needed only for an empty sequence; when given it must agree
    with every vector.
    """
    vectors = tuple(vectors)
    dims = {len(v.nums) for v in vectors}
    if dim is not None:
        dims.add(dim)
    if not dims:
        raise ValueError("an empty sequence needs its dimension")
    if len(dims) > 1:
        raise ValueError("alphabet dimension mismatch")
    (dim,) = dims
    den = lcm(*{v.den for v in vectors})
    rows = [tuple(k * (den // v.den) for k in v.nums) for v in vectors]
    return TorusSeq(tuple(zip(*rows)) if rows else ((),) * dim, den)


# ---------------------------------------------------------------------------
# Systems: powers by repeated steps, and seeded random systems


def apply(sys_: FiniteSystem, i: int, power: int = 1) -> int:
    """The image of point i under the power-th iterate, one step at a time."""
    if power < 0:
        raise ValueError("power must be >= 0")
    for _ in range(power):
        i = sys_.perm[i]
    return i


def random_system(rng, max_points: int = 12, min_cycle: int = 1) -> FiniteSystem:
    """A random disjoint union of cycles with at most max_points points."""
    total = rng.randint(min_cycle, max_points)
    lengths = []
    remaining = total
    while remaining >= min_cycle:
        length = rng.randint(min_cycle, remaining)
        lengths.append(length)
        remaining -= length
    return FiniteSystem.from_cycle_lengths(lengths)


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
            if any(apply(sys_, i, step) in chosen for i in chosen):
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
            target = apply(sys_, i, step)
            image |= ((masks >> np.int64(i)) & 1) << np.int64(target)
        valid &= (masks & image) == 0
    return bool(valid.any())


def early_returns_by_powers(sys_: FiniteSystem, subset, n_marker: int) -> list[list[int]]:
    """For n = 1 .. N-1, the sorted points of the subset whose n-th power
    image lies in the subset, each image taken by n steps from scratch."""
    chosen = set(subset)
    return [sorted(i for i in chosen if apply(sys_, i, n) in chosen) for n in range(1, n_marker)]


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
            verdicts[projected] = finite.verify_marker(base, projected, max(n_marker - 1, 1))
            if not verdicts[projected]:
                failing[projected] = w
    return not failing, len(markers), failing


# ---------------------------------------------------------------------------
# Periodic gap points: whole-period rejection and closed grid walks


def sample_periodic_gap_point_whole_period(dim, gap, threshold, period, rng):
    """Redraw the whole period until it passes the gap constraint."""
    spec = gap_space(dim, gap, threshold)
    for _ in range(500_000):
        cand = Periodic(seq(random_torus_vec(rng, dim) for _ in range(period)))
        if check_membership(spec, cand).passed:
            return cand
    raise RuntimeError(f"no period-{period} point drawn in 500,000 tries")


def gap_draws_per_entry(rng, dim, length, gap, threshold, den=64):
    """The draw stream of ``torus.first_far`` replayed one entry at a time.

    Each vector is ``dim`` bytes of ``rng.randbytes``, each taken mod
    2*den.  The first min(gap, length) vectors are entries 0 .. gap-1; the
    increments follow in rounds, a round that still needs r of them reading
    ceil((r*S + 3*isqrt(r*s*S) + 2*s) / (S - s)) vectors (none for r = 0),
    where S = 2**64 and s = floor(S * (near share of a coordinate)**dim),
    and keeping those at ``max_circle_dist`` >= threshold from zero.  The
    head and the first round are one read.  Entry k is entry k - gap plus
    the next kept increment, coordinate by coordinate mod 2*den.  Returns
    the vectors and the number of vectors read."""
    full = 2 * den
    zero = TorusVec((0,) * dim, den)
    near = sum(1 for k in range(full) if max_circle_dist(TorusVec((k,), den), TorusVec((0,), den)) < threshold)
    one = 1 << 64
    share = one * near**dim // full**dim

    def round_size(need):
        return -(-(need * one + 3 * isqrt(need * share * one) + 2 * share) // (one - share)) if need else 0

    head = min(gap, length)
    count = round_size(length - head)
    data = rng.randbytes((head + count) * dim)
    vectors = [tuple(b % full for b in data[i * dim : (i + 1) * dim]) for i in range(head + count)]
    rows, drawn = vectors[:head], head + count
    increments = []
    while True:
        for d in vectors[head:]:
            if max_circle_dist(TorusVec(d, den), zero) >= threshold:
                increments.append(d)
        if len(rows) + len(increments) >= length:
            break
        count = round_size(length - len(rows) - len(increments))
        drawn += count
        data = rng.randbytes(count * dim)
        vectors, head = [tuple(b % full for b in data[i * dim : (i + 1) * dim]) for i in range(count)], 0
    for k in range(len(rows), length):
        rows.append(tuple((u + d) % full for u, d in zip(rows[k - gap], increments[k - gap])))
    return [TorusVec(row, den) for row in rows], drawn


def sample_gap_window_per_entry(dim, gap, threshold, start, length, rng):
    """The gap-window sampler entry by entry: each entry past the first gap is
    the entry one gap back plus the next far increment of the stream."""
    return Window(start, seq(gap_draws_per_entry(rng, dim, length, gap, threshold)[0]))


def sample_periodic_gap_point_per_entry(dim, gap, threshold, period, rng):
    """The cycle-walk sampler entry by entry: each of the gcd(gap, period)
    cycles is walked one far increment at a time and redrawn whole
    until its closing edge is far enough; step s of cycle f sits at residue
    (f + s*gap) mod period."""
    cycles = gcd(gap, period)
    length = period // cycles
    values = {}
    for first in range(cycles):
        while True:
            walk, _ = gap_draws_per_entry(rng, dim, length, 1, threshold)
            if max_circle_dist(walk[-1], walk[0]) >= threshold:
                break
        for step, v in enumerate(walk):
            values[(first + step * gap) % period] = v
    return Periodic(seq(values[i] for i in range(period)))


def value_at(x, n: int) -> TorusVec:
    """Entry n of a sequence point as a vector: of a periodic point indexed
    mod its period, of a window only inside it."""
    if isinstance(x, Periodic):
        return x.seq[n % x.period]
    if not x.start <= n <= x.end:
        raise IndexError(f"index {n} outside window [{x.start}, {x.end}]")
    return x.seq[n - x.start]


def shift_per_entry(x, k):
    """The k-fold shift of a periodic point, vector by vector: the value at n
    is x at n + k."""
    return Periodic(seq((value_at(x, n + k) for n in range(x.period)), x.dim))


def power_map_per_entry(j, x):
    """The dilation by j of a periodic point, vector by vector: the value at n
    is x at n*j."""
    return Periodic(seq((value_at(x, n * j) for n in range(x.period)), x.dim))


def conjugacy_failures_per_sample(samples_m, samples_1, m, k, threshold):
    """Per identity of the conjugacy diagram, in report order, the indices of
    the samples where it fails: each sample checked on its own, through the
    per-entry maps and one ``max_circle_dist`` per pair."""

    def far(x, gap):
        return not gap_failures_per_entry(x.seq, gap, threshold, True)

    dilate, step = power_map_per_entry, shift_per_entry
    checks = (
        (samples_m, lambda x: far(dilate(m, x), 1)),
        (samples_1, lambda z: far(dilate(k, z), m)),
        (samples_m, lambda x: dilate(k, dilate(m, x)) == x),
        (samples_1, lambda z: dilate(m, dilate(k, z)) == z),
        (samples_m, lambda x: step(dilate(m, x), 1) == dilate(m, step(x, m))),
        (samples_1, lambda z: step(dilate(k, z), m) == dilate(k, step(z, 1))),
    )
    return [tuple(b for b, x in enumerate(samples) if not holds(x)) for samples, holds in checks]


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


def closed_product_walk_lengths(a: int, max_length: int, grid: int, dim: int = 2) -> set[int]:
    """Lengths L <= max_length at which L steps on (Z/(2*grid))^dim, each of
    circular size >= a in some coordinate, can return to 0, by a sweep of the
    reachable states (tuples of residues)."""
    full = 2 * grid
    steps = [s for s in product(range(full), repeat=dim) if max(min(k, full - k) for k in s) >= a]
    lengths = set()
    reach = {(0,) * dim}
    for length in range(1, max_length + 1):
        reach = {tuple((x + k) % full for x, k in zip(state, s)) for state in reach for s in steps}
        if (0,) * dim in reach:
            lengths.add(length)
    return lengths


# ---------------------------------------------------------------------------
# Period-p rules of gap spaces, on Fractions


def best_periodic_gap(length: int) -> Fraction:
    """The largest distance d one coordinate keeps along a closed cycle of
    ``length`` steps: each step moves by a value in [d, 2 - d], and the steps
    sum to an even integer, so d = 1 for even length and 1 - 1/length for odd."""
    return Fraction(1) if length % 2 == 0 else 1 - Fraction(1, length)


def cycle_closes_by_fractions(dim: int, threshold: Fraction, length: int) -> bool:
    """Whether a gap cycle of ``length`` entries closes at distance >= threshold,
    by comparing the threshold with ``best_periodic_gap`` as a Fraction."""
    return length >= 2 and (dim >= 2 or threshold <= best_periodic_gap(length))


def periodic_set_empty_by_fractions(dim: int, gap: int, threshold: Fraction, p: int) -> bool:
    """Whether no even integer lies in [L*threshold, L*(2 - threshold)], for
    L = p/gcd(gap, p), where one coordinate decides (dim 1 or L = 1): the
    interval form with Fraction bounds."""
    length = p // gcd(gap, p)
    return length * (2 - threshold) // 2 * 2 < length * threshold and (dim == 1 or length == 1)


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


def count_circular_words_per_length(forbidden: set[str], n: int) -> int:
    """The circular words of length n in which no forbidden word sits,
    bit-sliced on letter columns built for this length alone: column i
    repeats 2^i zeros and 2^i ones over the 2^n words."""
    words = 1 << n
    full = (1 << words) - 1
    ones = []
    for i in range(n):
        half = 1 << i
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < words:
            column |= column << width
            width *= 2
        ones.append(column)
    letter = {"1": ones, "0": [full ^ column for column in ones]}
    bad = 0
    for word in forbidden:
        for i in range(n):
            hit = full
            for j, c in enumerate(word):
                hit &= letter[c][(i + j) % n]
            bad |= hit
    return words - bad.bit_count()


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


def unequal_entries(a, b):
    """The positions at which two sequences of one length hold different
    vectors, compared vector by vector where the sequences differ."""
    if len(a) != len(b):
        raise ValueError("sequence length mismatch")
    if a == b:
        return []
    return [k for k, (u, v) in enumerate(zip(a, b)) if u != v]


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


def vec_sum(vectors) -> TorusVec:
    """Group sum of one or more alphabet vectors, one addition at a time."""
    it = iter(vectors)
    try:
        total = next(it)
    except StopIteration:
        raise ValueError("vec_sum requires at least one vector") from None
    for v in it:
        total = total + v
    return total


def factor_map_per_entry(m, x):
    """The level-m factor map summed entry by entry: m vector additions each."""
    if m < 2:
        raise ValueError("factor map requires level >= 2")
    q = factorial(m - 1)
    span = (m - 1) * q
    if isinstance(x, Periodic):
        p = x.period
        return Periodic(
            seq(
                vec_sum(x.values[(i + t * q) % p] for t in range(m))
                for i in range(p)
            )
        )
    new_end = x.end - span
    if new_end < x.start:
        raise DomainError("domain shrinks to empty")
    return Window(
        x.start,
        seq(
            vec_sum(value_at(x, k + t * q) for t in range(m))
            for k in range(x.start, new_end + 1)
        ),
    )


def section_map_per_entry(m, head, x):
    """The level-m section built entry by entry: the head block on the
    initial block, head sums on the rest of the base block, then one
    telescoping step per entry upward and downward."""
    if any(len(v.nums) != x.dim for v in head):
        raise ValueError("alphabet dimension mismatch")
    q = factorial(m - 1)
    big = factorial(m)
    c = (m - 1) * q
    if x.start > 0 or x.end < q - 1:
        raise DomainError("the input window must cover the base references [0, (m-1)! - 1]")
    out_lo, out_hi = x.start, x.end + c
    values: dict[int, TorusVec] = {}
    for k in range(0, c):
        values[k] = head[k]
    for k in range(c, big):
        acc = value_at(x, k - c)
        for i in range(1, m):
            acc = acc - head[k - i * q]
        values[k] = acc
    for k in range(big, out_hi + 1):
        values[k] = values[k - big] + (value_at(x, k - big + q) - value_at(x, k - big))
    for k in range(-1, out_lo - 1, -1):
        values[k] = values[k + big] + (value_at(x, k) - value_at(x, k + q))
    return Window(out_lo, seq(values[k] for k in range(out_lo, out_hi + 1)))


# ---------------------------------------------------------------------------
# Chains of maps across levels


def factor_chain(m, n, x):
    """The factor maps from level m down to level n, composed."""
    for level in range(m, n, -1):
        x = factor_map(level, x)
    return x


def tower_components(m, x, m_max, heads=None):
    """Windows at levels 1..m_max around the level-m window x, keyed by level:
    factor maps below m, sections above it with heads[level] or a zero head."""
    components = {m: x}
    for level in range(m, 1, -1):
        components[level - 1] = factor_map(level, components[level])
    for level in range(m + 1, m_max + 1):
        zero = TorusSeq.zero(x.dim, (level - 1) * factorial(level - 1))
        components[level] = section_map(level, (heads or {}).get(level, zero), components[level - 1])
    return components


# ---------------------------------------------------------------------------
# Section map: the literal piecewise formula


def section_value_oracle(m, head, x, k):
    """Evaluate the level-m section at index k by the raw case sums."""
    q = factorial(m - 1)
    big = factorial(m)
    c = (m - 1) * q
    if 0 <= k <= c - 1:
        return head[k]
    if c <= k <= big - 1:
        acc = value_at(x, k - c)
        for i in range(1, m):
            acc = acc - head[k - i * q]
        return acc
    n, j = divmod(k, big)
    base = section_value_oracle(m, head, x, j)
    if n > 0:
        acc = base
        for i in range(0, n):
            acc = acc + (value_at(x, i * big + q + j) - value_at(x, i * big + j))
        return acc
    acc = base
    for i in range(n, 0):
        acc = acc + (value_at(x, i * big + j) - value_at(x, i * big + q + j))
    return acc


def section_range_per_index(m, y, threshold):
    """The range check of a level-m section y, one index k at a time: the
    indices k whose pair (k, k + m!) lies in y, counted by the partition
    that k falls in, and those whose pair is closer than the threshold."""
    big = factorial(m)
    counts = {"base_block": 0, "upper_tail": 0, "lower_tail": 0}
    failures = []
    for k in range(y.start, y.end - big + 1):
        if k < 0:
            counts["lower_tail"] += 1
        elif k < big:
            counts["base_block"] += 1
        else:
            counts["upper_tail"] += 1
        if max_circle_dist(value_at(y, k), value_at(y, k + big)) < threshold:
            failures.append(k)
    return counts, tuple(failures)


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


def metric_dist(sys_: FiniteSystem, i: int, j: int) -> Fraction:
    """The metric entry from point i to point j of a system, as a ``Fraction``."""
    return Fraction(sys_.metric.nums[i][j], sys_.metric.den)


def metric_fractions(metric) -> tuple[tuple[Fraction, ...], ...]:
    """A ``finite.Metric``'s table as ``Fraction`` values."""
    return tuple(tuple(Fraction(k, metric.den) for k in row) for row in metric.nums)


def uniform_metric(size: int, value: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(0) if i == j else Fraction(value) for j in range(size))
        for i in range(size)
    )


def random_metric_per_entry(rng, size: int):
    """``finite.random_metric`` with one ``Fraction`` built per draw."""
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = Fraction(rng.randint(32, 64), 256)
            rows[i][j] = d
            rows[j][i] = d
    return tuple(tuple(row) for row in rows)


def first_metric_fault(metric, size: int) -> str | None:
    """The message ``finite._validate_metric`` gives a square table, by a
    scan of i, then j, then k with one ``Fraction`` sum per triple."""
    for i in range(size):
        if metric[i][i] != 0:
            return "metric diagonal must be zero"
        for j in range(size):
            if metric[i][j] != metric[j][i]:
                return "metric must be symmetric"
            if metric[i][j] < 0:
                return "metric must be nonnegative"
            for k in range(size):
                if metric[i][k] > metric[i][j] + metric[j][k]:
                    return "metric violates the triangle inequality"
    return None


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


def embedding_images(report) -> tuple[TorusVec, ...]:
    """The image of each point of an ``EmbeddingReport`` as a vector."""
    return tuple(TorusVec(row, report.den) for row in report.coords)


def epsilon_embedding_by_fractions(sys_: FiniteSystem, epsilon) -> SimpleNamespace:
    """``finite.epsilon_embedding`` computed on a table of ``Fraction``
    distances: rescale, center choice, images and the pair tests each by
    rational arithmetic, a far pair colliding when ``max_circle_dist`` puts
    its images at distance 0.  The fields are the report's that a caller
    reads: centers, n_coords, images, scale, epsilon and collision_ok."""
    epsilon = Fraction(epsilon)
    n, metric = sys_.size, metric_fractions(sys_.metric)
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
    images = tuple(vec(*(dist[i][c] for c in centers)) for i in range(n))
    collision_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] >= eps and max_circle_dist(images[i], images[j]) == 0:
                collision_ok = False
    return SimpleNamespace(
        centers=tuple(centers),
        n_coords=len(centers),
        images=images,
        scale=scale,
        epsilon=eps,
        collision_ok=collision_ok,
    )


def embed_into_universal_by_fractions(sys_: FiniteSystem, epsilon) -> SimpleNamespace:
    """``finite.embed_into_universal`` on ``Fraction`` distances, for a
    fixed-point-free system and epsilon below its least displacement: the
    embedding of ``epsilon_embedding_by_fractions``, delta as the least
    ``max_circle_dist`` from a point's image to its successor's, and
    membership and equivariance over every point's sequence by
    ``orbit_map_per_point``."""
    emb = epsilon_embedding_by_fractions(sys_, epsilon)
    delta = min(max_circle_dist(emb.images[i], emb.images[sys_.perm[i]]) for i in range(sys_.size))
    space = gap_space(emb.n_coords, 1, delta) if delta > 0 else None
    _, membership_ok, equivariance_ok = orbit_map_per_point(sys_, emb.images, space)
    return SimpleNamespace(
        embedding=emb, delta=delta, membership_ok=membership_ok, equivariance_ok=equivariance_ok
    )


def orbit_map_per_point(sys_: FiniteSystem, images, space):
    """``finite._orbit_map`` unrolled at every point: point k of a cycle gets
    the k-th shift of the images read along the cycle, every point's
    sequence is checked against ``space``, and equivariance compares the
    sequence of each point's image with the shift of its own."""
    sequences = {}
    for cycle in sys_.cycles:
        base = Periodic(seq(images[j] for j in cycle))
        for k, i in enumerate(cycle):
            sequences[i] = shift_per_entry(base, k)
    sequences = [sequences[i] for i in range(sys_.size)]
    membership_ok = space is not None and all(check_membership(space, s).passed for s in sequences)
    equivariance_ok = all(
        sequences[sys_.perm[i]] == shift_per_entry(sequences[i], 1) for i in range(sys_.size)
    )
    return sequences, membership_ok, equivariance_ok


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
# Free complexes: files, freeness by every power, homology by dense matrices


def complex_file(complex_) -> dict:
    """A complex file that lists every simplex of ``complex_``, as JSON values."""
    simplices = list(chain.from_iterable(complex_.face_table))
    data = {"p": complex_.p, "vertices": complex_.vertices, "simplices": simplices, "action": complex_.action}
    return json.loads(json.dumps(data))


def en_zp_face_table_by_product(p: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The face table of the standard complex E_n Z_p by its definition: one
    choice per level, absent or one of the level's p vertices (vertex
    (a, level) has index level * p + a), each nonempty choice a simplex,
    grouped by size and each size sorted."""
    choices = [[None] + list(range(level * p, (level + 1) * p)) for level in range(n + 1)]
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for choice in product(*choices):
        simplex = tuple(v for v in choice if v is not None)
        if simplex:
            by_size.setdefault(len(simplex), []).append(simplex)
    return tuple(tuple(sorted(by_size[size])) for size in range(1, n + 2))


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
        "every vertex in a simplex": {v for s in simplices for v in s} >= set(range(n)),
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


def coboundary_columns_by_combinations(lower, upper, dropped=()):
    """The coboundary walked one simplex of ``upper`` at a time: its facets
    by ``combinations``, which drops the last vertex first, each entered in
    the column of the facet, if that is a simplex of ``lower`` not dropped."""
    columns = [{} for _ in range(len(lower) - len(dropped))]
    index = dict(zip((s for j, s in enumerate(lower) if j not in dropped), columns))
    size = len(upper[0]) if upper else 1
    signs = [-1 if drop % 2 else 1 for drop in range(size - 1, -1, -1)]
    for i, s in enumerate(upper):
        for facet, sign in zip(combinations(s, size - 1), signs):
            column = index.get(facet)
            if column is not None:
                column[i] = sign
    return columns


def maximal_by_subsets(group):
    """The simplices of a group that are a proper subset of none of its
    others, by comparing every pair."""
    sets = [frozenset(s) for s in group]
    return [s for s, a in zip(group, sets) if not any(a < b for b in sets)]


def map_search_testing_every_simplex(source, target):
    """Backtracking over the source orbits, every image of an orbit tried in
    target vertex order and every simplex whose highest orbit is the one
    just assigned tested at each candidate: the map found (or None) and
    the candidates tried, with no cap."""
    orbits = finite.permutation_cycles(source.action)
    orbit_of = {v: oi for oi, orbit in enumerate(orbits) for v in orbit}
    by_last_orbit = [[] for _ in orbits]
    for s in chain.from_iterable(source.face_table):
        by_last_orbit[max(orbit_of[v] for v in s)].append(s)
    faces = set(chain.from_iterable(target.face_table))
    assignment = {}
    nodes = 0

    def assign(oi):
        nonlocal nodes
        if oi == len(orbits):
            return True
        for w in range(len(target.vertices)):
            nodes += 1
            trial, vertex, image = {}, orbits[oi][0], w
            for _ in orbits[oi]:
                trial[vertex] = image
                vertex, image = source.action[vertex], target.action[image]
            if image != w:  # the orbit's images do not close up
                continue
            assignment.update(trial)
            if all(tuple(sorted({assignment[v] for v in s})) in faces for s in by_last_orbit[oi]):
                if assign(oi + 1):
                    return True
            for v in trial:
                del assignment[v]
        return False

    found = dict(assignment) if assign(0) else None
    return found, nodes


def coindex_bounds_per_level(complex_, search_depth):
    """``coindex_bounds`` with one search per level: E_n Z_p is built and
    searched into the complex for n = 0, 1, ... up to the depth and the
    dimension, until a search finds no map."""
    if complex_.is_empty():
        return CoindexBound(
            complex_.p,
            -1,
            -1,
            ({"rule": "empty-space convention", "statement": "coindex of the empty space is -1"},),
        )
    if not complexes.check_free_action(complex_):
        raise ValueError("coindex defined only for free actions")
    dim = complex_.dimension()
    provenance = []
    lower = -1
    for n in range(0, min(search_depth, dim) + 1):
        work = {}
        found = complexes.equivariant_map_search(build_en_zp(complex_.p, n), complex_, work) is not None
        if found:
            lower = n
            provenance.append(
                {
                    "rule": "vertex-map witness",
                    "level": n,
                    "nodes": work["nodes"],
                    "statement": (
                        f"an explicit equivariant simplicial map from the standard "
                        f"level-{n} free complex exists, so coindex >= {n}"
                    ),
                }
            )
        else:
            provenance.append(
                {
                    "rule": "search exhausted",
                    "level": n,
                    "nodes": work["nodes"],
                    "statement": (
                        f"no equivariant simplicial vertex map from the standard "
                        f"level-{n} free complex at this triangulation; inconclusive "
                        f"without subdivision, upper bound unchanged"
                    ),
                }
            )
            break
    else:
        if search_depth > dim:
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
# Covers: joins, refinement by every subset of opens, vertex stars


def _repr_key(s: frozenset):
    return (len(s), sorted(map(repr, s)))


def cover_join(a: Cover, b: Cover) -> Cover:
    """All nonempty pairwise intersections, deduplicated, by size and then
    by their atoms' reprs."""
    members = {u & v for u in a.members for v in b.members if u & v}
    return Cover(tuple(sorted(members, key=_repr_key)))


def cover_D_bruteforce(lattice, cover: Cover) -> int:
    """The least order of a cover refining ``cover``, over every subset of
    the nonempty opens inside some member."""
    validate_cover(lattice, cover)
    candidates = sorted(
        (o for o in lattice.opens if o and any(o <= m for m in cover.members)), key=_repr_key
    )
    best: int | None = None
    for mask in range(1, 1 << len(candidates)):
        chosen = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
        if frozenset().union(*chosen) != lattice.ground:
            continue
        order = cover_ord(Cover(tuple(chosen)))
        best = order if best is None else min(best, order)
        if best == 0:
            return 0
    if best is None:
        raise AssertionError("no refining cover found; input cover invalid?")
    return best


def vertex_star_cover(lattice) -> tuple[frozenset, ...]:
    """The open star of each vertex of a face lattice, in vertex order: every
    cell (a sorted vertex tuple) that contains the vertex."""
    vertices = sorted({c[0] for c in lattice.atoms if len(c) == 1})
    return tuple(frozenset(c for c in lattice.atoms if v in c) for v in vertices)
