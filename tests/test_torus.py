import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdkit import torus
from mdkit.shiftspace import Window, random_torus_vec
from mdkit.torus import (
    TorusSeq,
    TorusVec,
    concat,
    dist_at_least,
    first_far,
    frac_from_str,
    frac_to_str,
    gap_distances,
    gap_failures,
    max_circle_dist,
    solve_strided_sums,
    strided_sums,
    vec_sum,
)

from oracles import (
    gap_draws_per_entry,
    gap_failures_per_entry,
    lane_edge_seq,
    mixed_den_vec,
    solve_strided_sums_per_entry,
    strided_sums_per_entry,
)

rationals = st.fractions(max_denominator=10**6)


def value(v):
    """The one coordinate of a 1-dim vector, as its representative in [0, 2)."""
    return Fraction(v.nums[0], v.den)


def test_reduce_examples():
    assert value(TorusVec.of(0)) == 0
    assert value(TorusVec.of(Fraction(8, 3))) == Fraction(2, 3)
    assert value(TorusVec.of(Fraction(-1, 2))) == Fraction(3, 2)


@given(rationals)
def test_reduce_canonical_range(q):
    r = value(TorusVec.of(q))
    assert 0 <= r < 2
    assert (q - r) % 2 == 0


@given(rationals)
def test_reduce_is_2_periodic(q):
    base = TorusVec.of(q)
    for k in range(-3, 4):
        assert TorusVec.of(q + 2 * k) == base


@given(rationals, rationals)
def test_group_add_then_subtract(x, y):
    a, b = TorusVec.of(x), TorusVec.of(y)
    assert (a + b) - b == a
    assert a + (-a) == TorusVec.of(0)


def test_circle_dist_examples():
    x = TorusVec.of(Fraction(7, 5))
    assert max_circle_dist(x, x) == 0
    assert max_circle_dist(TorusVec.of(0), TorusVec.of(1)) == 1
    assert max_circle_dist(TorusVec.of(Fraction(1, 3)), TorusVec.of(Fraction(5, 3))) == Fraction(2, 3)


def test_circle_dist_translation_invariance_1000_triples():
    rng = random.Random(20260810)
    for _ in range(1000):
        x, y, z = (
            TorusVec.of(Fraction(rng.randrange(-400, 400), rng.randrange(1, 64)))
            for _ in range(3)
        )
        assert max_circle_dist(x + z, y + z) == max_circle_dist(x, y)


def test_circle_dist_triangle_inequality_1000_triples():
    rng = random.Random(9157)
    for _ in range(1000):
        x, y, z = (
            TorusVec.of(Fraction(rng.randrange(-400, 400), rng.randrange(1, 64)))
            for _ in range(3)
        )
        assert max_circle_dist(x, z) <= max_circle_dist(x, y) + max_circle_dist(y, z)


@given(rationals, rationals)
def test_circle_dist_symmetric_and_bounded(x, y):
    a, b = TorusVec.of(x), TorusVec.of(y)
    d = max_circle_dist(a, b)
    assert d == max_circle_dist(b, a)
    assert 0 <= d <= 1


def test_max_dist_examples():
    v = TorusVec.of(Fraction(1, 7), Fraction(3, 2))
    assert max_circle_dist(v, v) == 0
    assert max_circle_dist(TorusVec.of(0, 0), TorusVec.of(1, Fraction(1, 2))) == 1
    assert max_circle_dist(TorusVec.of(Fraction(1, 3), 0), TorusVec.of(Fraction(5, 3), 0)) == Fraction(2, 3)


def test_max_dist_attains_one_on_antipodal_coordinate():
    rng = random.Random(4)
    for _ in range(200):
        coords = [Fraction(rng.randrange(128), 64) for _ in range(3)]
        x = TorusVec.of(*coords)
        flipped = TorusVec.of(*(c + 1 for c in coords))
        assert max_circle_dist(x, flipped) == 1


@given(rationals, rationals, rationals)
def test_max_dist_translation_invariance(x, y, z):
    a = TorusVec.of(x, y)
    b = TorusVec.of(y, x)
    c = TorusVec.of(z, z)
    assert max_circle_dist(a + c, b + c) == max_circle_dist(a, b)


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError, match="alphabet dimension mismatch"):
        max_circle_dist(TorusVec.of(0), TorusVec.of(0, 0))
    with pytest.raises(ValueError, match="alphabet dimension mismatch"):
        TorusVec.of(0) + TorusVec.of(0, 0)


def test_vec_sum_and_zero():
    vs = [TorusVec.of(Fraction(1, 2), 1), TorusVec.of(Fraction(3, 2), 1), TorusVec.zero(2)]
    assert vec_sum(vs) == TorusVec.of(0, 0)
    with pytest.raises(ValueError):
        vec_sum([])


def test_rational_serialization_round_trip():
    values = [Fraction(0), Fraction(2, 3), Fraction(-7, 4), Fraction(5)]
    for v in values:
        text = frac_to_str(v)
        num, den = text.split("/")
        assert int(den) > 0
        assert frac_from_str(text) == v
    assert frac_from_str("3") == 3


def test_torus_json_round_trip():
    elem = TorusVec.of(Fraction(-1, 3))
    assert TorusVec.of(*map(frac_from_str, elem.to_json())) == elem
    vec = TorusVec.of(Fraction(1, 3), Fraction(9, 5))
    assert TorusVec.of(*map(frac_from_str, vec.to_json())) == vec


# ---------------------------------------------------------------------------
# Integer representation of TorusVec against a plain Fraction mod-2 oracle


def mod2(q):
    return q - 2 * (q // 2)


def oracle_dist(xs, ys):
    return max(min(mod2(a - b), 2 - mod2(a - b)) for a, b in zip(xs, ys))


def as_fractions(v):
    return [Fraction(k, v.den) for k in v.nums]


dens = st.integers(min_value=1, max_value=360)


@st.composite
def vec_pairs(draw):
    """Two vectors of one dimension, each over its own denominator."""
    dim = draw(st.integers(min_value=1, max_value=3))
    nums = st.lists(st.integers(-5000, 5000), min_size=dim, max_size=dim)
    return (draw(nums), draw(dens)), (draw(nums), draw(dens))


@given(vec_pairs())
def test_integer_ops_match_fraction_oracle(pair):
    (xn, xd), (yn, yd) = pair
    x, y = TorusVec(tuple(xn), xd), TorusVec(tuple(yn), yd)
    xs = [mod2(Fraction(k, xd)) for k in xn]
    ys = [mod2(Fraction(k, yd)) for k in yn]
    assert as_fractions(x) == xs and as_fractions(y) == ys
    assert as_fractions(x + y) == [mod2(a + b) for a, b in zip(xs, ys)]
    assert as_fractions(x - y) == [mod2(a - b) for a, b in zip(xs, ys)]
    assert as_fractions(-x) == [mod2(-a) for a in xs]
    assert max_circle_dist(x, y) == oracle_dist(xs, ys)


@given(vec_pairs())
def test_integer_form_is_canonical(pair):
    (xn, xd), _ = pair
    x = TorusVec(tuple(xn), xd)
    assert all(0 <= k < 2 * x.den for k in x.nums)
    assert math.gcd(x.den, *x.nums) == 1
    scaled = TorusVec(tuple(7 * k for k in xn), 7 * xd)
    assert scaled == x and hash(scaled) == hash(x)
    assert TorusVec.of(*(Fraction(k, xd) for k in xn)) == x


def test_integer_ops_seeded_mixed_denominators():
    rng = random.Random(20261018)
    for _ in range(2000):
        dim = rng.randint(1, 4)
        x = TorusVec(tuple(rng.randrange(-300, 300) for _ in range(dim)), rng.choice([1, 2, 3, 8, 12, 64, 90]))
        y = TorusVec(tuple(rng.randrange(-300, 300) for _ in range(dim)), rng.choice([1, 5, 6, 32, 45, 64]))
        xs, ys = as_fractions(x), as_fractions(y)
        total = x + y
        assert math.lcm(x.den, y.den) % total.den == 0
        assert as_fractions(total) == [mod2(a + b) for a, b in zip(xs, ys)]
        assert as_fractions(x - y) == [mod2(a - b) for a, b in zip(xs, ys)]
        assert (x - y) + y == x and x + (-x) == TorusVec.zero(dim)
        assert max_circle_dist(x, y) == oracle_dist(xs, ys)


def test_equal_values_built_differently_are_equal_and_hash_equal():
    half = TorusVec((32,), 64)
    one = half + half
    assert one == TorusVec.of(1) == TorusVec((1,)) == TorusVec((3,)) == TorusVec((-1,))
    assert one.nums == (1,) and one.den == 1
    assert hash(one) == hash(TorusVec.of(1))
    assert len({one, TorusVec.of(1), TorusVec((384,), 128)}) == 1
    mixed = TorusVec.of(Fraction(1, 3), Fraction(1, 4)) + TorusVec.of(Fraction(2, 3), Fraction(3, 4))
    assert mixed == TorusVec.of(1, 1) == TorusVec((1, 1))
    assert hash(mixed) == hash(TorusVec((1, 1)))
    read = TorusVec.of(*map(frac_from_str, ["0/1", "2/4"]))
    assert TorusVec((0, 6), 12) == TorusVec.of(0, Fraction(1, 2)) == read


def test_to_json_writes_reduced_fractions():
    assert TorusVec((0, 64, 32, 96, 127), 64).to_json() == ["0/1", "1/1", "1/2", "3/2", "127/64"]
    assert TorusVec.of(Fraction(-1, 3), 5, Fraction(8, 6)).to_json() == ["5/3", "1/1", "4/3"]
    rng = random.Random(7)
    for _ in range(500):
        v = TorusVec(tuple(rng.randrange(-500, 500) for _ in range(3)), rng.randrange(1, 100))
        for text, k in zip(v.to_json(), v.nums):
            p, q = (int(part) for part in text.split("/"))
            assert q > 0 and math.gcd(p, q) == 1 and Fraction(p, q) == Fraction(k, v.den)


@given(vec_pairs(), st.fractions(min_value=0, max_value=1, max_denominator=500))
def test_integer_threshold_test_matches_fraction_comparison(pair, t):
    (xn, xd), (yn, yd) = pair
    x, y = TorusVec(tuple(xn), xd), TorusVec(tuple(yn), yd)
    assert dist_at_least(x, y, t) == (max_circle_dist(x, y) >= t)


def test_integer_threshold_test_seeded_thresholds():
    rng = random.Random(31)
    for _ in range(2000):
        x = TorusVec((rng.randrange(128), rng.randrange(128)), 64)
        y = TorusVec((rng.randrange(128), rng.randrange(128)), rng.choice([64, 32, 3]))
        t = Fraction(rng.randrange(0, 129), rng.choice([64, 128, 7]))
        assert dist_at_least(x, y, t) == (max_circle_dist(x, y) >= t)


def test_rational_numerators_are_refused():
    with pytest.raises(TypeError, match=r"TorusVec\.of"):
        TorusVec((Fraction(1, 2),))
    with pytest.raises(TypeError, match=r"TorusVec\.of"):
        TorusVec((1, Fraction(1, 3)), 3)
    assert TorusVec.of(Fraction(1, 2)) == TorusVec((1,), 2)


# ---------------------------------------------------------------------------
# Sequences: integer columns over one denominator


def test_sequence_round_trips_its_vectors():
    rng = random.Random(905)
    for _ in range(300):
        dim = rng.choice((1, 2, 3))
        values = [mixed_den_vec(rng, dim) for _ in range(rng.randrange(0, 12))]
        seq = TorusSeq.of(values, dim)
        assert len(seq) == len(values) and seq.dim == dim
        assert list(seq) == values
        assert [seq[k] for k in range(-len(values), len(values))] == values + values
        assert list(seq[2:7:2]) == values[2:7:2] and list(seq[::-1]) == values[::-1]
        order = [rng.randrange(len(values)) for _ in range(5)] if values else []
        assert list(seq.take(order)) == [values[i] for i in order]
        split = rng.randrange(len(values) + 1)
        assert concat(seq[:split], seq[split:]) == seq


def test_sequence_form_is_canonical():
    rng = random.Random(906)
    for _ in range(300):
        dim = rng.choice((1, 2))
        values = [mixed_den_vec(rng, dim) for _ in range(rng.randrange(1, 10))]
        seq = TorusSeq.of(values)
        assert all(0 <= k < 2 * seq.den for column in seq.columns for k in column)
        assert math.gcd(seq.den, *(k for column in seq.columns for k in column)) == 1
        assert seq.den == math.lcm(*(v.den for v in values))


def test_equal_sequences_built_differently_are_equal_and_hash_equal():
    half, one = TorusVec.of(Fraction(1, 2)), TorusVec.of(1)
    built = [
        TorusSeq.of([half, one, TorusVec.zero(1)]),
        TorusSeq(((64, 128, 0),), 128),
        TorusSeq(((1, 6, 4),), 2),
        TorusSeq.of([TorusVec((32,), 64), half + half, one + one]),
        strided_sums(TorusSeq.of([TorusVec.of(Fraction(1, 6)), TorusVec.of(Fraction(1, 3)),
                                  TorusVec.of(Fraction(2, 3)), TorusVec.of(Fraction(4, 3))]), 1, 2),
        concat(TorusSeq.of([half]), TorusSeq.of([one]), TorusSeq.zero(1, 1)),
    ]
    assert all(seq == built[0] and hash(seq) == hash(built[0]) for seq in built)
    assert built[0].den == 2 and len(set(built)) == 1
    windows = [Window(-3, seq) for seq in built]
    assert all(w == windows[0] and hash(w) == hash(windows[0]) for w in windows)
    assert Window(-2, built[0]) != windows[0]
    assert TorusSeq.of([half, one]) != built[0] and TorusSeq.zero(1, 3) != TorusSeq.zero(2, 3)


def test_sequence_constructor_checks_its_input():
    with pytest.raises(ValueError, match="alphabet dimension mismatch"):
        TorusSeq.of([TorusVec.zero(1), TorusVec.zero(2)])
    with pytest.raises(ValueError, match="alphabet dimension mismatch"):
        TorusSeq.of([TorusVec.zero(1)], 2)
    with pytest.raises(ValueError, match="needs its dimension"):
        TorusSeq.of([])
    with pytest.raises(ValueError, match="same length"):
        TorusSeq(((0, 1), (0,)), 2)
    with pytest.raises(ValueError, match="dimension must be positive"):
        TorusSeq((), 2)
    with pytest.raises(TypeError, match=r"TorusSeq\.of"):
        TorusSeq(((Fraction(1, 2),),))
    assert TorusSeq(((-1, 5),), 2) == TorusSeq.of([TorusVec.of(Fraction(3, 2)), TorusVec.of(Fraction(1, 2))])


# ---------------------------------------------------------------------------
# Sequence kernels against one vector operation per term


def test_strided_sums_match_vec_sums():
    rng = random.Random(909)
    for _ in range(300):
        dim = rng.choice((1, 2))
        stride, terms = rng.randrange(0, 7), rng.randrange(1, 6)
        values = [mixed_den_vec(rng, dim) for _ in range((terms - 1) * stride + rng.randrange(1, 30))]
        count = len(values) - (terms - 1) * stride
        expected = [vec_sum(values[k + t * stride] for t in range(terms)) for k in range(count)]
        assert strided_sums(TorusSeq.of(values), stride, terms) == TorusSeq.of(expected)


def test_strided_sums_refuse_short_input():
    with pytest.raises(ValueError, match="more values than their span"):
        strided_sums(TorusSeq.zero(1, 4), 2, 3)
    with pytest.raises(ValueError, match="stride >= 0 and terms >= 1"):
        strided_sums(TorusSeq.zero(1, 4), 1, 0)


def test_solve_strided_sums_inverts_strided_sums():
    rng = random.Random(910)
    for _ in range(300):
        dim = rng.choice((1, 2))
        stride, terms = rng.randrange(1, 7), rng.randrange(1, 6)
        head = [mixed_den_vec(rng, dim) for _ in range((terms - 1) * stride)]
        sums = [mixed_den_vec(rng, dim) for _ in range(rng.randrange(0, 40))]
        tail = solve_strided_sums(TorusSeq.of(head, dim), TorusSeq.of(sums, dim), stride, terms)
        assert len(tail) == len(sums) and tail.dim == dim
        if sums:
            whole = concat(TorusSeq.of(head, dim), tail)
            assert strided_sums(whole, stride, terms) == TorusSeq.of(sums)
        # entry by entry: each new entry is its sum less the other terms
        y = list(head)
        for j, s in enumerate(sums):
            acc = s
            for t in range(terms - 1):
                acc = acc - y[j + t * stride]
            y.append(acc)
        assert list(tail) == y[len(head):]


def test_solve_strided_sums_needs_a_full_head():
    with pytest.raises(ValueError, match="head of 4 entries"):
        solve_strided_sums(TorusSeq.zero(1, 3), TorusSeq.zero(1, 1), 2, 3)
    with pytest.raises(ValueError, match="alphabet dimension mismatch"):
        solve_strided_sums(TorusSeq.zero(1, 4), TorusSeq.zero(2, 1), 2, 3)


def test_gap_distances_match_max_circle_dist():
    rng = random.Random(911)
    for _ in range(300):
        dim = rng.choice((1, 2, 5))
        values = [mixed_den_vec(rng, dim) for _ in range(rng.randrange(1, 25))]
        gap = rng.randrange(1, 30)
        n = len(values)
        for cyclic in (False, True):
            nums, den = gap_distances(TorusSeq.of(values), gap, cyclic)
            pairs = range(n) if cyclic else range(n - gap)
            expected = [max_circle_dist(values[k], values[(k + gap) % n]) for k in pairs]
            assert [Fraction(d, den) for d in nums] == expected


# Denominators on both sides of every lane-width switch: 16-bit lanes hold
# numerators over den up to 2**14, 32-bit up to 2**30, 64-bit up to 2**62 and
# 128-bit lanes the rest.  A kernel whose intermediate values outgrow a lane
# near a switch fails here only.
LANE_DENS = (1, 2, 3, 64, 2**14 - 1, 2**14, 2**14 + 1, 2**30 - 1, 2**30, 2**30 + 1,
             2**61 + 1, 2**62, 2**62 + 1, 3**60)


def test_lane_widths_switch_at_the_tested_denominators():
    edges = (2**14, 2**14 + 1, 2**30, 2**30 + 1, 2**62, 2**62 + 1)
    assert [torus._lane_bytes(den) for den in edges] == [2, 4, 4, 8, 8, 16]


def test_packed_strided_sums_match_the_per_entry_loop():
    rng = random.Random(914)
    for den in LANE_DENS:
        # every lane at its largest value, summed six times
        top = TorusSeq(((2 * den - 1,) * 40,), den)
        assert strided_sums(top, 3, 6) == strided_sums_per_entry(top, 3, 6)
        for stride in (0, 1, 2, 5):
            for terms in (1, 2, 3, 6):
                dim = rng.choice((1, 2))
                seq = lane_edge_seq(rng, dim, (terms - 1) * stride + rng.randrange(1, 30), den)
                assert seq.den == den
                assert strided_sums(seq, stride, terms) == strided_sums_per_entry(seq, stride, terms)


def test_packed_solve_matches_the_per_entry_loop():
    rng = random.Random(915)
    for den in LANE_DENS:
        for stride in (1, 2, 5):
            for terms in (1, 2, 3, 6):
                dim = rng.choice((1, 2))
                c = (terms - 1) * stride
                head = lane_edge_seq(rng, dim, c, den) if rng.random() < 0.7 else TorusSeq.zero(dim, c)
                for length in (0, 1, stride, c + stride + 1, rng.randrange(1, 40)):
                    # sums over another denominator lift both to the lcm
                    sums = lane_edge_seq(rng, dim, length, rng.choice((den, den, 1, 3)))
                    tail = solve_strided_sums(head, sums, stride, terms)
                    assert tail == solve_strided_sums_per_entry(head, sums, stride, terms)
                    if length:
                        assert strided_sums(concat(head, tail), stride, terms) == sums
                    else:
                        assert len(tail) == 0 and tail.dim == dim


def test_packed_gap_failures_match_the_per_entry_loop():
    rng = random.Random(916)
    outcomes = set()
    for den in LANE_DENS:
        thresholds = (
            Fraction(0), Fraction(1, 3), Fraction(1), Fraction(3, 2),
            Fraction(rng.randrange(den + 2), den), Fraction(rng.randrange(1, 2 * den + 3), 2 * den + 1),
        )
        for n in (*range(1, 14), 40):
            dim = rng.choice((1, 2, 3))
            seq = lane_edge_seq(rng, dim, n, den)
            for gap in sorted({1, 2, max(n - 1, 1), n, n + 3, 2 * n + 1}):
                for cyclic, t in itertools.product((False, True), thresholds):
                    got = gap_failures(seq, gap, t, cyclic)
                    expected = gap_failures_per_entry(seq, gap, t, cyclic)
                    assert got == expected
                    count = n if cyclic else n - gap
                    if count > 0:
                        outcomes.add("none" if not got else "all" if len(got) == count else "some")
    assert outcomes == {"none", "some", "all"}
    with pytest.raises(ValueError, match="gap must be >= 1"):
        gap_failures(TorusSeq.zero(1, 3), 0, Fraction(1, 2), True)


def grid_draw(den):
    """A vector draw on the k/den grid, one ``randrange`` call per coordinate."""
    return lambda rng, dim: TorusVec(tuple(rng.randrange(2 * den) for _ in range(dim)), den)


def test_first_far_matches_dist_at_least():
    rng = random.Random(912)
    for _ in range(400):
        dim = rng.choice((1, 2))
        den = rng.choice((1, 2, 3, 16, 64))
        t = Fraction(rng.randrange(0, 65), 64)
        length, gap, tries = rng.randrange(1, 30), rng.randrange(1, 8), rng.choice((1, 2, 5, 10_000))
        seed = rng.randrange(1 << 30)
        got = first_far(random.Random(seed), dim, length, gap, t, den, tries)
        expected = gap_draws_per_entry(random.Random(seed), dim, length, gap, t, tries, grid_draw(den))
        if expected is None:
            assert got is None
        else:
            values, drawn = expected
            assert got == (TorusSeq.of(values), drawn)


def test_first_far_leaves_the_randrange_generator_state():
    # the draw stream is randrange's; a kernel drawing one word more or less
    # leaves the outputs right and the next sampler's input wrong.  A closed
    # walk whose last entry is near its first is refused with its draws
    rng = random.Random(913)
    gave_up = opened = 0
    for _ in range(600):
        dim = rng.choice((1, 2, 3))
        den = rng.choice((1, 2, 3, 16, 64))
        t = Fraction(rng.randrange(0, 65), 64)
        length, gap, tries = rng.randrange(1, 30), rng.randrange(1, 8), rng.choice((1, 2, 5, 10_000))
        closed = rng.random() < 0.5
        seed = rng.randrange(1 << 30)
        got, expected = random.Random(seed), random.Random(seed)
        found = first_far(got, dim, length, gap, t, den, tries, closed)
        oracle = gap_draws_per_entry(expected, dim, length, gap, t, tries, grid_draw(den))
        assert got.getstate() == expected.getstate()
        if oracle is None:
            assert found is None
            gave_up += 1
            continue
        values, drawn = oracle
        if closed and not dist_at_least(values[-1], values[0], t):
            assert found == (None, drawn)
            opened += 1
        else:
            assert found == (TorusSeq.of(values), drawn)
    assert gave_up > 50 and opened > 50


def test_first_far_keeps_every_draw_at_threshold_zero():
    for dim, length in ((1, 1), (2, 17), (3, 40)):
        seq, drawn = first_far(random.Random(dim), dim, length, 1, Fraction(0), 64, 1)
        rng = random.Random(dim)
        assert drawn == length
        assert list(seq) == [random_torus_vec(rng, dim) for _ in range(length)]
