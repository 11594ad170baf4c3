"""Exact arithmetic and metric geometry on the circle R/2Z and its powers.

A point of the N-fold power of the circle is a :class:`TorusVec`: its
coordinates are integers over one shared denominator, ``nums[i]/den`` with
``nums[i]`` in [0, 2*den), and its group operations are integer arithmetic
mod ``2*den``.  A dimension-1 vector is a point of the circle itself.  The
circle metric is ``min(d, 2 - d)`` where ``d`` is the representative of the
difference, so the diameter is exactly 1 and the metric is invariant under
translation; the metric on vectors is the coordinatewise max.  Vectors form
the alphabet of the sequence spaces in :mod:`mdkit.shiftspace`.

A finite sequence of vectors is a :class:`TorusSeq`: one shared
denominator and one column of numerators per coordinate, in lowest terms
like a vector, so equal sequences compare and hash equal.  Windows and
periodic points hold one, and the sequence kernels take and return one
(:func:`strided_sums`, :func:`solve_strided_sums`, :func:`gap_failures`,
:func:`gap_distances`, :func:`first_far`, :func:`concat`,
:func:`unequal_entries`): each works on plain integers mod ``2*den``, lifts
to a common denominator at most once and only when the denominators
differ, and builds no vector.  A vector is built from a sequence only where
one is read: by indexing or iterating it.

The column kernels :func:`strided_sums`, :func:`solve_strided_sums` and
:func:`gap_failures` work on packed lanes (SIMD within a register): a
column is packed once into one integer, entry k in lane k of W bits, a few
big-integer adds, shifts and masks act on every lane at once, and the
result is unpacked once.  W is 16, 32 or 64, or a multiple of 64 past
that: the smallest that holds ``4*den - 1``, so ``2*den <= G = 2**(W-1)``,
the lane's guard bit.  Every lane value a kernel forms, a sum or difference
of two residues mod ``2*den`` lifted by at most ``G``, stays below
``2**W``, so no lane carries into or borrows from the next and the lanes
hold exactly the integers a loop over the entries would.  A lane v in
[0, 4*den) is reduced mod ``2*den`` by the guard bit: ``v + G - 2*den``
sets it exactly when ``v >= 2*den``, and ``2*den`` is subtracted from those
lanes; a compare ``v >= c`` is the guard bit of ``v + G - c``.  The
per-entry loops are the references in ``tests/oracles.py``.

Only this module reads the integer encoding: other modules build vectors
with :meth:`TorusVec.of` (or from integers, ``TorusVec(nums, den)``),
sequences with :meth:`TorusSeq.of`, ``TorusSeq(columns, den)`` or a kernel,
measure vectors with :func:`max_circle_dist` and test thresholds with
:func:`dist_at_least`.  ``Fraction`` appears only at the edges:
construction from rationals, JSON and :func:`max_circle_dist`.  Everything
is exact: no floats, no tolerances.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Sequence


def frac_to_str(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` with q > 0 and gcd(|p|, q) = 1."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(text: str) -> Fraction:
    """Parse ``"p/q"``; a bare integer string is accepted as ``p/1``."""
    try:
        return Fraction(str(text).strip())
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has denominator zero") from None


@dataclass(frozen=True, slots=True)
class TorusVec:
    """An element of the N-fold power of the circle (the sequence alphabet).

    Coordinate i is ``nums[i]/den`` mod 2, with integer ``nums`` and ``den``;
    build a vector from rationals with :meth:`TorusVec.of`.  The stored form
    is canonical: every ``nums[i]`` lies in [0, 2*den) and
    gcd(den, *nums) = 1, so ``==`` and ``hash`` agree with equality of
    values.  The group operations act coordinatewise and require equal
    dimension; operands with different denominators are lifted to the lcm.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self) -> None:
        nums, den = tuple(self.nums), self.den
        if not nums:
            raise ValueError("alphabet dimension must be positive")
        if not isinstance(den, int) or den < 1:
            raise ValueError("denominator must be a positive integer")
        if not all(isinstance(k, int) for k in nums):
            raise TypeError("TorusVec takes integers; build from rationals with TorusVec.of")
        full = 2 * den
        _canonical(self, tuple(k % full for k in nums), den)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @classmethod
    def of(cls, *values: Fraction | int) -> "TorusVec":
        """The vector with the given rational coordinates, reduced mod 2."""
        fracs = [Fraction(v) for v in values]
        den = math.lcm(*(f.denominator for f in fracs))
        return cls(tuple(f.numerator * (den // f.denominator) for f in fracs), den)

    @classmethod
    def zero(cls, dim: int) -> "TorusVec":
        return cls((0,) * dim)

    def __add__(self, other: "TorusVec") -> "TorusVec":
        a, b, den = _lift(self, other)
        full = 2 * den
        return _vec(tuple((x + y) % full for x, y in zip(a, b)), den)

    def __sub__(self, other: "TorusVec") -> "TorusVec":
        a, b, den = _lift(self, other)
        full = 2 * den
        return _vec(tuple((x - y) % full for x, y in zip(a, b)), den)

    def __neg__(self) -> "TorusVec":
        full = 2 * self.den
        return _vec(tuple(-k % full for k in self.nums), self.den)

    def __repr__(self) -> str:
        inner = ", ".join(str(Fraction(k, self.den)) for k in self.nums)
        return f"TorusVec({inner})"

    def to_json(self) -> list[str]:
        return [frac_to_str(Fraction(k, self.den)) for k in self.nums]


def _canonical(vec: TorusVec, nums: tuple[int, ...], den: int) -> None:
    """Store ``nums/den`` (entries already in [0, 2*den)) in lowest terms."""
    g = math.gcd(den, *nums)
    if g > 1:
        nums = tuple(k // g for k in nums)
        den //= g
    object.__setattr__(vec, "nums", nums)
    object.__setattr__(vec, "den", den)


def _vec(nums: tuple[int, ...], den: int) -> TorusVec:
    """A vector from reduced-range integers, skipping the type checks."""
    vec = object.__new__(TorusVec)
    _canonical(vec, nums, den)
    return vec


def _lift(x: TorusVec, y: TorusVec) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The numerators of x and y over their common denominator, and that denominator."""
    if len(x.nums) != len(y.nums):
        raise ValueError("alphabet dimension mismatch")
    a, b = x.den, y.den
    if a == b:
        return x.nums, y.nums, a
    den = math.lcm(a, b)
    sa, sb = den // a, den // b
    return tuple(k * sa for k in x.nums), tuple(k * sb for k in y.nums), den


def _max_dist_pair(x: TorusVec, y: TorusVec) -> tuple[int, int]:
    """The alphabet metric as ``(num, den)``, value ``num/den`` (not in lowest terms)."""
    a, b, den = _lift(x, y)
    full = 2 * den
    best = 0
    for u, v in zip(a, b):
        d = (u - v) % full
        if d > den:
            d = full - d
        if d > best:
            best = d
    return best, den


def max_circle_dist(x: TorusVec, y: TorusVec) -> Fraction:
    """Alphabet metric: the max of coordinatewise circle distances; in [0, 1]."""
    return Fraction(*_max_dist_pair(x, y))


def dist_at_least(x: TorusVec, y: TorusVec, threshold: Fraction) -> bool:
    """Whether ``max_circle_dist(x, y) >= threshold``, decided in integers."""
    num, den = _max_dist_pair(x, y)
    return num * threshold.denominator >= threshold.numerator * den


def vec_sum(vectors: Iterable[TorusVec]) -> TorusVec:
    """Group sum of one or more alphabet vectors."""
    it = iter(vectors)
    try:
        total = next(it)
    except StopIteration:
        raise ValueError("vec_sum requires at least one vector") from None
    for v in it:
        total = total + v
    return total


# ---------------------------------------------------------------------------
# Sequences: one integer column per coordinate over one shared denominator


@dataclass(frozen=True, slots=True)
class TorusSeq:
    """A finite sequence of alphabet vectors, held as integer columns.

    Entry k has coordinate i equal to ``columns[i][k]/den`` mod 2; every
    column has the sequence's length and there is one column per coordinate,
    so a sequence of length 0 still has its dimension.  The stored form is
    canonical as a :class:`TorusVec`'s is: every numerator lies in
    [0, 2*den) and den shares no factor with all of them, so ``==`` and
    ``hash`` agree with equality of the sequences of values.  Build one from
    vectors with :meth:`TorusSeq.of`.  Indexing gives a vector, slicing a
    sequence; only indexing and iteration build vectors.
    """

    columns: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        columns, den = tuple(tuple(column) for column in self.columns), self.den
        if not columns:
            raise ValueError("alphabet dimension must be positive")
        if not isinstance(den, int) or den < 1:
            raise ValueError("denominator must be a positive integer")
        if len({len(column) for column in columns}) > 1:
            raise ValueError("every column of a sequence needs the same length")
        if not all(isinstance(k, int) for column in columns for k in column):
            raise TypeError("TorusSeq takes integers; build from vectors with TorusSeq.of")
        full = 2 * den
        _canonical_seq(self, tuple(tuple(k % full for k in column) for column in columns), den)

    @classmethod
    def of(cls, vectors: Iterable[TorusVec], dim: int | None = None) -> "TorusSeq":
        """The sequence of ``vectors``, lifted once to their common denominator.

        ``dim`` is needed only for an empty sequence; when given it must
        agree with every vector.
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
        den = math.lcm(*{v.den for v in vectors})
        rows = [v.nums if v.den == den else tuple(k * (den // v.den) for k in v.nums) for v in vectors]
        return _seq(tuple(zip(*rows)) if rows else ((),) * dim, den)

    @classmethod
    def zero(cls, dim: int, length: int) -> "TorusSeq":
        """``length`` zero vectors of dimension ``dim``."""
        return _seq(((0,) * length,) * dim, 1)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _seq(tuple(column[index] for column in self.columns), self.den)
        return _vec(tuple(column[index] for column in self.columns), self.den)

    def __iter__(self):
        den = self.den
        return (_vec(nums, den) for nums in zip(*self.columns))

    def take(self, indices: Sequence[int]) -> "TorusSeq":
        """The entries at ``indices``, in that order."""
        if not indices:
            return self[:0]
        rows = list(zip(*self.columns))
        return _seq(zip(*[rows[i] for i in indices]), self.den)

    def __repr__(self) -> str:
        return f"TorusSeq({list(self)})"


def _canonical_seq(seq: TorusSeq, columns: tuple[tuple[int, ...], ...], den: int) -> None:
    """Store ``columns/den`` (entries already in [0, 2*den)) in lowest terms."""
    g = den
    for column in columns:
        if g == 1:
            break
        g = math.gcd(g, *column)
    if g > 1:
        columns = tuple(tuple(k // g for k in column) for column in columns)
        den //= g
    object.__setattr__(seq, "columns", columns)
    object.__setattr__(seq, "den", den)


def _seq(columns: Iterable[tuple[int, ...]], den: int) -> TorusSeq:
    """A sequence from reduced-range integer columns, skipping the type checks."""
    seq = object.__new__(TorusSeq)
    _canonical_seq(seq, tuple(columns), den)
    return seq


def _columns(seq: TorusSeq, den: int) -> tuple[Sequence[int], ...]:
    """The columns of ``seq`` as numerators over ``den``, a multiple of its denominator."""
    if seq.den == den:
        return seq.columns
    scale = den // seq.den
    return tuple([k * scale for k in column] for column in seq.columns)


def _common_dim(*seqs: TorusSeq) -> int:
    """The dimension shared by all of ``seqs``."""
    if len({seq.dim for seq in seqs}) > 1:
        raise ValueError("alphabet dimension mismatch")
    return seqs[0].dim


def concat(*seqs: TorusSeq) -> TorusSeq:
    """The sequences one after another, lifted once to their common denominator."""
    dim = _common_dim(*seqs)
    den = math.lcm(*(seq.den for seq in seqs))
    lifted = [_columns(seq, den) for seq in seqs]
    return _seq((tuple(chain.from_iterable(cols[i] for cols in lifted)) for i in range(dim)), den)


def unequal_entries(a: TorusSeq, b: TorusSeq) -> list[int]:
    """The positions at which two sequences of one length hold different vectors."""
    if len(a) != len(b):
        raise ValueError("sequence length mismatch")
    _common_dim(a, b)
    if a == b:
        return []
    den = math.lcm(a.den, b.den)
    rows_a, rows_b = zip(*_columns(a, den)), zip(*_columns(b, den))
    return [k for k, (u, v) in enumerate(zip(rows_a, rows_b)) if u != v]


# ---------------------------------------------------------------------------
# Packed lanes: a column as one integer, entry k in bits [k*W, (k+1)*W)

_FORMATS = {2: "H", 4: "I", 8: "Q"}


def _lane_bytes(den: int) -> int:
    """The lane width, in bytes, for numerators over ``den``.

    A lane of W bits holds 4*den - 1, so 2*den <= 2**(W-1): every value a
    kernel forms, at most two residues mod 2*den plus the guard offset
    2**(W-1) - 2*den, stays below 2**W and never carries into the next lane.
    """
    bits = (4 * den - 1).bit_length()
    if bits <= 16:
        return 2
    if bits <= 32:
        return 4
    return 8 * -(-bits // 64)


@functools.lru_cache(maxsize=256)
def _layout(count: int, width: int) -> tuple[struct.Struct | None, int]:
    """The struct of ``count`` lanes of ``width`` bytes, and the integer whose lanes each hold 1.

    Times c, that integer holds c in every lane.  A denominator above 2**62
    needs lanes wider than any struct format; they pack through
    ``int.to_bytes`` and the struct is None.
    """
    fmt = _FORMATS.get(width)
    packer = None if fmt is None else struct.Struct(f"<{count}{fmt}")
    return packer, int.from_bytes((1).to_bytes(width, "little") * count, "little")


def _pack(column: Sequence[int], width: int) -> int:
    """The entries of ``column`` as the lanes of one integer, entry 0 lowest."""
    packer = _layout(len(column), width)[0]
    if packer is None:
        return int.from_bytes(b"".join(k.to_bytes(width, "little") for k in column), "little")
    return int.from_bytes(packer.pack(*column), "little")


def _unpack(lanes: int, count: int, width: int) -> tuple[int, ...]:
    """The first ``count`` lanes of ``lanes`` as a column."""
    data = lanes.to_bytes(count * width, "little")
    packer = _layout(count, width)[0]
    if packer is None:
        return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))
    return packer.unpack(data)


def strided_sums(seq: TorusSeq, stride: int, terms: int) -> TorusSeq:
    """The sums ``seq[k] + seq[k + stride] + ... + seq[k + (terms-1)*stride]``.

    There is one sum for each k whose terms all lie in ``seq``.  Each
    column is packed into lanes once (see :func:`_lane_bytes`) and every
    sum is formed at once: ``terms - 1`` times the column shifted one more
    stride is added lane by lane and the lanes are reduced mod ``2*den``.
    """
    if stride < 0 or terms < 1:
        raise ValueError("strided sums need stride >= 0 and terms >= 1")
    count = len(seq) - (terms - 1) * stride
    if count < 1:
        raise ValueError("strided sums need more values than their span")
    den = seq.den
    full = 2 * den
    width = _lane_bytes(den)
    bits = 8 * width
    top = bits - 1
    ones = _layout(count, width)[1]
    lift = ((1 << top) - full) * ones
    mask = (1 << count * bits) - 1
    out_columns = []
    for column in seq.columns:
        x = _pack(column, width)
        total = x & mask
        for t in range(1, terms):
            total += (x >> t * stride * bits) & mask
            # a lane at least 2*den sets its guard bit once lifted: subtract 2*den there
            total -= (((total + lift) >> top) & ones) * full
        out_columns.append(_unpack(total, count, width))
    return _seq(out_columns, den)


def solve_strided_sums(head: TorusSeq, sums: TorusSeq, stride: int, terms: int) -> TorusSeq:
    """The continuation of ``head`` whose strided sums are ``sums``.

    Returns ``tail`` such that ``y = concat(head, tail)`` has
    ``strided_sums(y, stride, terms) == sums``, given the first
    ``(terms-1)*stride`` entries of y as ``head``: entry ``c + j`` of y, with
    ``c = len(head)``, is ``sums[j]`` less the other ``terms - 1`` terms of
    its sum.  After the first ``stride`` entries the sums telescope,
    ``y[c + j] = y[j - stride] + sums[j] - sums[j - stride]``: entry i of y
    is entry ``i - terms*stride`` plus a difference of sums.  So y is the
    running sum, ``terms*stride`` lanes apart, of the head, the first
    ``stride`` entries and those differences, formed by doubling the lag.
    The tail has one entry per sum.
    """
    if stride < 1 or terms < 1:
        raise ValueError("solving strided sums needs stride >= 1 and terms >= 1")
    c = (terms - 1) * stride
    if len(head) != c:
        raise ValueError(f"solving strided sums needs a head of {c} entries")
    _common_dim(head, sums)
    den = math.lcm(head.den, sums.den)
    full = 2 * den
    count = len(sums)
    length = c + count
    width = _lane_bytes(den)
    bits = 8 * width
    top = bits - 1
    ones = _layout(length, width)[1]
    lift = ((1 << top) - full) * ones
    fulls = full * ones
    mask = (1 << length * bits) - 1
    first_mask = (1 << min(stride, count) * bits) - 1
    lag = terms * stride
    out_columns = []
    for head_column, sums_column in zip(_columns(head, den), _columns(sums, den)):
        given = _pack((*head_column, *sums_column), width)  # the head, then the sums
        # what each sum less its new entry is: head terms for the first
        # `stride` sums, the sum one stride back after them
        known = 0
        for t in range(terms - 1):
            known += (given >> t * stride * bits) & first_mask
            known -= (((known + lift) >> top) & ones) * full
        known = ((given >> c * bits) << stride * bits | known) << c * bits & mask
        y = given + fulls - known
        y -= (((y + lift) >> top) & ones) * full
        span = lag
        while span < length:
            y += (y << span * bits) & mask
            y -= (((y + lift) >> top) & ones) * full
            span *= 2
        out_columns.append(_unpack(y >> c * bits, count, width))
    return _seq(out_columns, den)


def gap_failures(seq: TorusSeq, gap: int, threshold: Fraction, cyclic: bool) -> list[int]:
    """The positions k at which entry ``k + gap`` lies nearer than ``threshold`` to entry k.

    Every k that has a partner is tested, or every k with the index taken
    mod ``len(seq)`` when ``cyclic``; the positions come in increasing
    order.  Per coordinate, the differences of the packed column and its
    shift are reduced mod ``2*den`` lane by lane and a lane is far when its
    difference d has ``bound <= d <= 2*den - bound``, two guard-bit
    compares; a position fails when no coordinate is far.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    n = len(seq)
    count = n if cyclic else n - gap
    den = seq.den
    # distance d/den >= threshold iff d >= bound, in integers; no distance
    # exceeds den, so a larger bound is taken as den + 1, inside the lane
    bound = min(-(-threshold.numerator * den // threshold.denominator), den + 1)
    if count < 1 or bound <= 0:
        return []
    full = 2 * den
    width = _lane_bytes(den)
    bits = 8 * width
    top = bits - 1
    guard = 1 << top
    ones = _layout(count, width)[1]
    guards = ones << top
    lift = (guard - full) * ones
    fulls = full * ones
    low = (guard - bound) * ones  # lifts a lane d >= bound to its guard bit
    high = (guard - full + bound - 1) * ones  # lifts a lane d > 2*den - bound to it
    mask = (1 << count * bits) - 1
    shift = (gap % n if cyclic else gap) * bits
    far = 0
    for column in seq.columns:
        x = _pack(column, width)
        if cyclic:
            partner = x >> shift | (x << n * bits - shift) & mask
        else:
            partner = x >> shift
            x &= mask
        d = x + fulls - partner
        d -= (((d + lift) >> top) & ones) * full
        far |= (d + low) & ~(d + high)
    near = guards & ~far
    if not near:
        return []
    return list(compress(range(count), (near >> top).to_bytes(count * width, "little")[::width]))


def gap_distances(seq: TorusSeq, gap: int, cyclic: bool) -> tuple[list[int], int]:
    """Alphabet distances between entries ``gap`` apart, as numerators over one denominator.

    Returns ``(nums, den)``: ``nums[k]/den`` is the distance from entry k
    to entry ``k + gap``, for every k that has a partner, or for every k
    with the index taken mod ``len(seq)`` when ``cyclic``.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    n = len(seq)
    count = n if cyclic else n - gap
    if count < 1:
        return [], 1
    den = seq.den
    full = 2 * den
    dim = seq.dim
    # one flat pass over all coordinates, entry by entry, fast for short
    # high-dim inputs too
    flat = list(chain.from_iterable(zip(*seq.columns)))
    offset = (gap % n if cyclic else gap) * dim
    partner = flat[offset:] + flat[:offset] if cyclic else flat[offset:]
    dists = [full - d if (d := (u - v) % full) > den else d for u, v in zip(flat, partner)]
    if dim == 1:
        return dists, den
    return list(map(max, *(dists[i::dim] for i in range(dim)))), den


def first_far(
    rng: random.Random, dim: int, length: int, gap: int, threshold: Fraction, den: int, tries: int,
    closed: bool = False,
) -> tuple[TorusSeq | None, int] | None:
    """A random sequence on the k/den grid whose entries ``gap`` apart are far apart.

    Entries are drawn in index order, each as the ``dim`` values of
    ``rng.randrange(2*den)``.  Entries 0 .. gap-1 are kept as drawn; every
    later entry is the first of at most ``tries`` draws at distance
    >= threshold from the entry ``gap`` back, tested in integers.  Returns
    the sequence and the number of draws made, or None when some entry
    finds no far draw within its tries.  Threshold 0 keeps every draw.
    ``closed`` also tests the last entry against the first; a walk that
    fails returns ``(None, drawn)``.

    The stream is ``randrange``'s, reproduced by the rule CPython 3.10-3.13
    uses for ``randrange(n)``: ``getrandbits(n.bit_length())``, drawn again
    while >= n.  Every coordinate of a draw is drawn, far or not, as
    ``test_first_far_leaves_the_randrange_generator_state`` checks.
    """
    full = 2 * den
    # circular distance >= bound iff the difference lies in [bound, full - bound]
    bound = -(-threshold.numerator * den // threshold.denominator)
    high = full - bound
    bits, getrandbits = full.bit_length(), rng.getrandbits
    origin, once, attempts = (0,) * dim, range(1, 2), range(1, tries + 1)
    rows = []
    drawn = 0
    for k in range(length):
        # an entry with no partner gap back keeps its one draw: every
        # difference lies in [0, full]
        prev, lo, hi, limit = (origin, 0, full, once) if k < gap else (rows[k - gap], bound, high, attempts)
        for tried in limit:
            row = []
            far = False
            for v in prev:
                u = getrandbits(bits)
                while u >= full:
                    u = getrandbits(bits)
                row.append(u)
                if not far and lo <= (u - v) % full <= hi:
                    far = True
            if far:
                break
        else:
            return None
        rows.append(row)
        drawn += tried
    if closed and not any(bound <= (u - v) % full <= high for u, v in zip(rows[-1], rows[0])):
        return None, drawn
    return _seq(zip(*rows) if rows else ((),) * dim, den), drawn
