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
:func:`first_far`, :func:`concat`): each works
on plain integers mod ``2*den``, lifts to a common denominator at most
once and only when the denominators differ, and builds no vector.  A
vector is built from a sequence only where one is read: by indexing or
iterating it.  JSON is written from the columns too:
:meth:`TorusSeq.to_json` formats each distinct numerator once, as
:meth:`TorusVec.to_json` would, and builds no vector.  :func:`gap_failures`
decides every distance test of a membership check, the gap constraints and
the adjacent steps alike.

The column kernels :func:`strided_sums`, :func:`solve_strided_sums` (both
directions from a given block, at once), :func:`gap_failures` and the tower
check's :func:`check_solved_sums` work on packed lanes (SIMD within a
register): a column is packed once into one integer, entry k in lane k of W
bits, a few big-integer adds, shifts and masks act on every lane at once,
and a result is unpacked once.  Each lane formula is one private helper the
kernels share.  W is
8, 16, 32 or 64, or a multiple of 64 past that: the smallest that holds
``4*den - 1``, so ``2*den <= G = 2**(W-1)``, the lane's guard bit.  Every
lane value a kernel forms, a sum or difference of two residues mod
``2*den`` lifted by at most ``G``, stays below ``2**W``, so no lane
carries into or borrows from the next and the lanes hold exactly the
integers a loop over the entries would.  A lane v in [0, 4*den) is
reduced mod ``2*den`` by the guard bit: ``v + G - 2*den`` sets it exactly
when ``v >= 2*den``, and ``2*den`` is subtracted from those lanes; a
compare ``v >= c`` is the guard bit of ``v + G - c``.  :func:`first_far`,
the samplers' kernel, draws a sequence as a random walk with far increments:
its stream is ``rng.randbytes``, one byte per coordinate, near increments
are dropped by ``bytes.translate`` and the walk is summed on 8-bit lanes.
The per-entry loops are the references in ``tests/oracles.py``.

This module reads the integer encoding, and outside it only two functions
of :mod:`mdkit.shiftspace` do: ``periodic_witness`` builds its walks'
columns through ``_seq``, and ``verify_conjugacy_diagram`` gathers and
compares the points' ``.columns``.  Other code builds vectors from
integers, ``TorusVec(nums, den)``, sequences with ``TorusSeq(columns, den)``,
:meth:`TorusSeq.zero` or a kernel, and measures vectors with
:func:`max_circle_dist`.  ``Fraction`` appears only at the edges: a
sequence's JSON and :func:`max_circle_dist`.
Everything is exact: no floats, no tolerances.
"""

from __future__ import annotations

import functools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from numbers import Rational
from operator import itemgetter
from typing import Iterable, Sequence


def frac_to_str(value: Fraction | int) -> str:
    """Serialize a rational as ``"p/q"`` with q > 0 and gcd(|p|, q) = 1."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _shown(text) -> str:
    """``text`` as an error line names it: its repr, or a rational its ``str``,
    or past 40 characters its first 20 and its length.  An integer past 20
    digits is named by its first 10 characters and its digit count, and one
    past Python's 4,300-digit limit by the power of two its size reaches."""
    if isinstance(text, int):
        try:
            value = str(text)
        except ValueError:  # str() refuses an integer over 4,300 digits
            power = f"2^{text.bit_length() - 1}"
            return f"at least {power}" if text > 0 else f"at most -{power}"
        digits = len(value.lstrip("-"))
        return value if digits <= 20 else f"{value[:10]}... ({digits} digits)"
    value = str(text)
    if len(value) > 40:
        return f"{value[:20]!r}... ({len(value)} characters)"
    return value if isinstance(text, Rational) else repr(text)


def frac_from_str(text: str) -> Fraction:
    """Parse ``"p/q"``; a bare integer string is accepted as ``p/1``, and a
    decimal as its exact value.  Exponent form is refused before ``Fraction``
    sees it, since ``Fraction`` expands the exponent: ``1e-10000000`` takes
    8-11 s to become a 33-million-bit integer (Python 3.11.7, 2-CPU x86-64 VM).
    A refusal names the text, cut short when long."""
    value = str(text).strip()
    if "e" in value.lower():
        raise ValueError(f"rational {_shown(text)} is refused: exponent form is not read; write it as p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"rational {_shown(text)} has denominator zero") from None
    except ValueError:  # also an integer over Python's digit limit
        raise ValueError(f"rational {_shown(text)} is not read as p/q, an integer or a decimal") from None


@dataclass(frozen=True, slots=True)
class TorusVec:
    """An element of the N-fold power of the circle (the sequence alphabet).

    Coordinate i is ``nums[i]/den`` mod 2, with integer ``nums`` and ``den``.
    The stored form is canonical: every ``nums[i]`` lies in [0, 2*den) and
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
            raise TypeError("TorusVec takes integer numerators over an integer denominator")
        full = 2 * den
        _canonical(self, tuple(k % full for k in nums), den)

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


def max_circle_dist(x: TorusVec, y: TorusVec) -> Fraction:
    """Alphabet metric: the max of coordinatewise circle distances; in [0, 1]."""
    a, b, den = _lift(x, y)
    full = 2 * den
    best = 0
    for u, v in zip(a, b):
        d = (u - v) % full
        if d > den:
            d = full - d
        if d > best:
            best = d
    return Fraction(best, den)


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
    ``hash`` agree with equality of the sequences of values.  Indexing
    gives a vector, slicing a sequence; only indexing and iteration build
    vectors.
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
            raise TypeError("TorusSeq takes integer columns over an integer denominator")
        full = 2 * den
        _canonical_seq(self, tuple(tuple(k % full for k in column) for column in columns), den)

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
        """The entries at ``indices``, in that order: one gather per column."""
        if len(indices) < 2:  # itemgetter of one index returns the entry, not a 1-tuple
            return _seq((tuple(column[i] for i in indices) for column in self.columns), self.den)
        return self._gather(itemgetter(*indices), False)

    def _gather(self, getter: itemgetter, bijection: bool) -> "TorusSeq":
        """Each column read through ``getter``, which gives a tuple of entries.
        A ``bijection`` gives every entry once, which keeps their gcd with
        ``den`` and so the canonical form: the gcd pass is skipped."""
        return _seq(map(getter, self.columns), self.den, bijection)

    def to_json(self) -> list[list[str]]:
        """Each entry as its coordinates' texts, "p/q" in lowest terms as
        :func:`frac_to_str` writes them, read from the columns: each distinct
        numerator is formatted once."""
        den = self.den
        text = {}
        for k in set().union(*self.columns):
            g = math.gcd(k, den)
            text[k] = f"{k // g}/{den // g}"
        return [list(row) for row in zip(*(map(text.__getitem__, column) for column in self.columns))]


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


def _seq(columns: Iterable[tuple[int, ...]], den: int, canonical: bool = False) -> TorusSeq:
    """A sequence from reduced-range integer columns, skipping the type checks;
    ``canonical`` columns, known to be in lowest terms, skip the gcd pass too."""
    seq = object.__new__(TorusSeq)
    if canonical:
        object.__setattr__(seq, "columns", tuple(columns))
        object.__setattr__(seq, "den", den)
    else:
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
    """The sequences one after another, lifted once to their common denominator;
    one sequence is itself."""
    if len(seqs) == 1:
        return seqs[0]
    dim = _common_dim(*seqs)
    den = math.lcm(*(seq.den for seq in seqs))
    lifted = [_columns(seq, den) for seq in seqs]
    # canonical with no gcd pass: part b is canonical over d_b (1 if empty or all
    # zero), so lifted to L = lcm(d_b) the gcd of L and every entry is
    # gcd_b(L/d_b) = 1, as each prime power of L divides some d_b whole
    columns = (tuple(chain.from_iterable(cols[i] for cols in lifted)) for i in range(dim))
    return _seq(columns, den, canonical=True)


# ---------------------------------------------------------------------------
# Packed lanes: a column as one integer, entry k in bits [k*W, (k+1)*W)

_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _lane_bytes(den: int) -> int:
    """The lane width, in bytes, for numerators over ``den``.

    A lane of W bits holds 4*den - 1, so 2*den <= 2**(W-1): every value a
    kernel forms, at most two residues mod 2*den plus the guard offset
    2**(W-1) - 2*den, stays below 2**W and never carries into the next lane.
    So a denominator up to 64, every grid window's, gets one byte, up to
    2**14 two, up to 2**30 four and up to 2**62 eight.
    """
    bits = (4 * den - 1).bit_length()
    if bits <= 8:
        return 1
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


def _packed(seq: TorusSeq, den: int, width: int) -> list[int]:
    """Each column of ``seq``, over ``den``, packed into lanes of ``width`` bytes."""
    return [_pack(column, width) for column in _columns(seq, den)]


def _unpack(lanes: int, count: int, width: int) -> tuple[int, ...]:
    """The first ``count`` lanes of ``lanes`` as a column."""
    data = lanes.to_bytes(count * width, "little")
    packer = _layout(count, width)[0]
    if packer is None:
        return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))
    return packer.unpack(data)


def _lanes(count: int, width: int, full: int) -> tuple[int, int, int, int, int]:
    """For ``count`` lanes of ``width`` bytes holding residues mod ``full``:
    the bits of a lane, its guard bit's position, and the integers with 1,
    with ``2**top - full`` (the reduce lift) and with all bits in every lane."""
    bits = 8 * width
    ones = _layout(count, width)[1]
    return bits, bits - 1, ones, ((1 << bits - 1) - full) * ones, (1 << count * bits) - 1


def _strided_lanes(xs: list[int], count: int, stride: int, terms: int, width: int, full: int) -> list[int]:
    """Lanes 0 .. count-1 of the strided sums of each packed column, reduced
    mod ``full``: ``terms - 1`` times the column shifted one more stride is
    added lane by lane."""
    bits, top, ones, lift, mask = _lanes(count, width, full)
    out = []
    for x in xs:
        total = x & mask
        for t in range(1, terms):
            total += (x >> t * stride * bits) & mask
            # a lane at least full sets its guard bit once lifted: subtract full there
            total -= (((total + lift) >> top) & ones) * full
        out.append(total)
    return out


def _solve_lanes(
    xs: list[int], heads: list[int], below: int, count: int, stride: int, terms: int, width: int, full: int
) -> list[int]:
    """The packed y of each column: its ``count`` packed sums and packed head
    solved as :func:`solve_strided_sums` says, ``count + (terms-1)*stride`` lanes."""
    c = (terms - 1) * stride
    length = count + c
    bits, top, ones, lift, mask = _lanes(length, width, full)
    step = stride * bits
    _, _, ones_h, lift_h, _ = _lanes(stride, width, full)  # the head terms are summed on one stride of lanes
    start, stop = below * bits, (below + c) * bits  # the head's lanes
    out = []
    for x, head in zip(xs, heads):
        given = x & (1 << start) - 1 | head << start | x >> start << stop
        # the head terms of the sums within a stride of the head, either side
        h = 0
        for t in range(terms - 1):
            h += (head >> t * step) & ((1 << step) - 1)
            h -= (((h + lift_h) >> top) & ones_h) * full
        # each sum less its own entry of y: those head terms, or the sum a
        # stride nearer the head
        up = (given >> stop << step | h) << stop & mask
        down = (given & (1 << start) - 1 | h << start) >> step
        y = given + full * ones - (up | down)
        y -= (((y + lift) >> top) & ones) * full
        span = terms * stride * bits
        while span < max(length * bits - start, stop):
            y += (y >> start << start + span) & mask | (y & (1 << stop) - 1) >> span
            y -= (((y + lift) >> top) & ones) * full
            span *= 2
        out.append(y)
    return out


def _near_lanes(tests: Iterable[list], count: int, threshold: Fraction, width: int, den: int) -> list[int]:
    """Per test, the guard bits of the lanes 0 .. count-1 at which none of its
    pairs ``(x, partner)`` of packed columns is far: their difference d,
    reduced mod ``2*den``, has ``bound <= d <= 2*den - bound``, two guard-bit compares."""
    # distance d/den >= threshold iff d >= bound, in integers; no distance
    # exceeds den, so a larger bound is taken as den + 1, inside the lane
    bound = min(-(-threshold.numerator * den // threshold.denominator), den + 1)
    if count < 1 or bound <= 0:
        return [0 for _ in tests]
    full = 2 * den
    bits, top, ones, lift, mask = _lanes(count, width, full)
    fulls = full * ones
    low = lift + (full - bound) * ones  # lifts a lane d >= bound to its guard bit
    high = lift + (bound - 1) * ones  # lifts a lane d > 2*den - bound to it
    out = []
    for pairs in tests:
        far = 0
        for x, partner in pairs:
            d = (x & mask) + fulls - (partner & mask)
            d -= (((d + lift) >> top) & ones) * full
            far |= (d + low) & ~(d + high)
        out.append(ones << top & ~far)
    return out


def _flagged(lanes: int, count: int, width: int) -> list[int]:
    """The lanes 0 .. count-1 whose guard bit is set in ``lanes``, in increasing order."""
    if not lanes:
        return []
    return list(compress(range(count), (lanes >> 8 * width - 1).to_bytes(count * width, "little")[::width]))


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
    width = _lane_bytes(den)
    sums = _strided_lanes(_packed(seq, den, width), count, stride, terms, width, 2 * den)
    return _seq([_unpack(x, count, width) for x in sums], den)


def _solve_shape(head: TorusSeq, sums: TorusSeq, below: int, stride: int, terms: int) -> int:
    """The common denominator of ``head`` and ``sums``, once they are checked
    to be a head and sums that :func:`solve_strided_sums` solves."""
    if stride < 1 or terms < 1:
        raise ValueError("solving strided sums needs stride >= 1 and terms >= 1")
    c = (terms - 1) * stride
    if len(head) != c:
        raise ValueError(f"solving strided sums needs a head of {c} entries")
    if not 0 <= below <= len(sums):
        raise ValueError("the head must sit within the sums")
    _common_dim(head, sums)
    return math.lcm(head.den, sums.den)


def solve_strided_sums(head: TorusSeq, sums: TorusSeq, below: int, stride: int, terms: int) -> TorusSeq:
    """The sequence y with strided sums ``sums`` that holds ``head`` from entry ``below`` on.

    ``head`` is ``c = (terms-1)*stride`` entries and y is ``c`` entries
    longer than ``sums``: ``strided_sums(y, stride, terms) == sums``.  Past
    the head, entry ``below + c + j`` of y is ``sums[below + j]`` less the
    earlier terms of its sum; before the head, entry i is ``sums[i]`` less
    the later ones.  More than a stride from the head the sums telescope:
    y[i] is y[i -/+ terms*stride] plus a difference of two sums a stride
    apart.  So each side of y is a running sum, ``terms*stride`` lanes
    apart, formed by doubling the lag.  Both running sums act on one
    packing of the sums with the head in their midst, in the same steps:
    they meet only on the head's lanes, to which neither adds.
    """
    den = _solve_shape(head, sums, below, stride, terms)
    width = _lane_bytes(den)
    count = len(sums)
    xs, heads = _packed(sums, den, width), _packed(head, den, width)
    ys = _solve_lanes(xs, heads, below, count, stride, terms, width, 2 * den)
    return _seq([_unpack(y, count + len(head), width) for y in ys], den)


def check_solved_sums(
    head: TorusSeq, sums: TorusSeq, below: int, stride: int, terms: int, threshold: Fraction,
) -> tuple[list[int], list[int], list[int]]:
    """The y of :func:`solve_strided_sums`, checked on the lanes it is solved on.

    Returns, in increasing order, the k at which ``strided_sums(y, stride,
    terms)`` differs from ``sums[k]``, then the :func:`gap_failures` of the
    sums at gap ``stride`` and of y at gap ``terms*stride``.  Each column of
    the sums and the head is packed once; y is solved, summed back and
    compared with the packed sums, one integer compare per column, and both
    gap tests run on those lanes.  Only a failing position is unpacked.
    """
    den = _solve_shape(head, sums, below, stride, terms)
    width = _lane_bytes(den)
    full, bits, count = 2 * den, 8 * width, len(sums)
    xs = _packed(sums, den, width)
    ys = _solve_lanes(xs, _packed(head, den, width), below, count, stride, terms, width, full)
    unequal = 0
    for x, back in zip(xs, _strided_lanes(ys, count, stride, terms, width, full)):
        unequal |= x ^ back
    # both gap tests have count - stride positions, as y is (terms-1)*stride longer
    checked, shift = count - stride, stride * bits
    tests = [(x, x >> shift) for x in xs], [(y, y >> terms * shift) for y in ys]
    own, near = _near_lanes(tests, checked, threshold, width, den)
    mismatched = [k for k, lane in enumerate(_unpack(unequal, count, width)) if lane] if unequal else []
    return mismatched, _flagged(own, checked, width), _flagged(near, checked, width)


def gap_failures(seq: TorusSeq, gap: int, threshold: Fraction, cyclic: bool) -> list[int]:
    """The positions k at which entry ``k + gap`` lies nearer than ``threshold`` to entry k.

    Every k that has a partner is tested, or every k with the index taken
    mod ``len(seq)`` when ``cyclic``; the positions come in increasing
    order.  Per coordinate, the packed column is tested against its shift
    by ``gap`` lanes, or its rotation when ``cyclic``: a position fails
    when no coordinate is far.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    n = len(seq)
    count = n if cyclic else n - gap
    if count < 1:
        return []
    den = seq.den
    width = _lane_bytes(den)
    bits = 8 * width
    shift = (gap % n if cyclic else gap) * bits
    # the partner of a cyclic column is its rotation: the column twice over, shifted
    xs = _packed(seq, den, width)
    pairs = [(x, (x << n * bits | x) >> shift if cyclic else x >> shift) for x in xs]
    return _flagged(_near_lanes((pairs,), count, threshold, width, den)[0], count, width)


def _draw_count(need: int, share: int) -> int:
    """The vectors a round reads for ``need`` far ones, where ``share`` is
    the share of near vectors in 64-bit fixed point, so a vector is far with
    probability p = 1 - share/2**64: need/p and three standard deviations
    more, plus 2(1-p)/p, so small needs at small p take few rounds."""
    if not need:
        return 0
    one = 1 << 64
    return -(-(need * one + 3 * math.isqrt(need * share * one) + 2 * share) // (one - share))


@functools.lru_cache(maxsize=256)
def _plan(den: int, num: int, denom: int, dim: int, length: int, gap: int) -> tuple:
    """What :func:`first_far` decides before it reads, at threshold ``num/denom``.

    The bound in grid units: a residue mod ``2*den`` is far when it lies in
    [bound, 2*den - bound].  A byte is read as its residue, its low bits:
    the first table maps a byte to its residue, the second lists the bytes
    whose residue is near and the third maps a byte to 1 when near, else 0.
    Then the share of near vectors, floor((near/(2*den))**dim * 2**64),
    exact up to 64 bits of vector (dim 9 at den 64) and 0 only once below
    2**-64; the head's length; and the vectors of the first read.  Decided
    once per arguments, as a sampler draws many windows or walks of one
    shape.
    """
    if den & (den - 1) or not 1 <= den <= 64:
        raise ValueError("first_far draws on the k/den grid for den a power of two up to 64")
    if dim < 1:
        raise ValueError("alphabet dimension must be positive")
    if gap < 1:
        raise ValueError("gap must be >= 1")
    full = 2 * den
    bound = max(-(-num * den // denom), 0)
    if bound > den:
        raise ValueError(f"no offset on the k/{den} grid lies at distance >= {Fraction(num, denom)}")
    residue = bytes(b & (full - 1) for b in range(256))
    near_flags = bytes(not bound <= r <= full - bound for r in residue)
    share = (sum(near_flags[:full]) ** dim << 64) >> den.bit_length() * dim  # full is 2**den.bit_length()
    head = min(gap, length)
    return (
        bound, residue, bytes(compress(range(256), near_flags)), near_flags, share,
        head, head + _draw_count(length - head, share),
    )


def first_far(
    rng: random.Random, dim: int, length: int, gap: int, threshold: Fraction, den: int, closed: bool = False,
) -> tuple[TorusSeq | None, int]:
    """A random sequence on the k/den grid whose entries ``gap`` apart are far apart.

    Entries 0 .. gap-1 are uniform on the grid, and each later entry k is
    entry k - gap plus an increment uniform on the far offsets D, the
    vectors with some coordinate at circle distance >= threshold from 0.
    That is the law of redrawing entry k until it lies far from entry
    k - gap, as the test reads only their difference.  Returns the sequence
    and the number of vectors read from the stream, rejected ones included.
    ``closed`` also tests the last entry against the first; a walk that
    fails returns ``(None, read)``.  ``den`` is a power of two up to 64.

    The stream is ``rng.randbytes``, one byte per coordinate read as its
    residue mod ``2*den``, entry by entry in coordinate order.  The first
    ``min(gap, length)`` vectors are the head.  The increments come in
    rounds: a round that still needs r of them reads :func:`_draw_count`
    vectors and keeps the far ones, in order, until r are kept.  The head
    and the first round are one read.  A near vector is dropped at C speed:
    at dimension 1 by ``bytes.translate``'s delete, past it by setting every
    byte of a vector with no far coordinate to 0xff in one big integer and
    deleting those bytes.  Each entry is then the head entry below it plus
    the increments on its way down, a strided running sum, formed at once
    on bytes as 8-bit lanes by doubling the lag (Hillis-Steele): two
    residues below 128 add below 256, so no lane carries into the next, and
    a mask reduces them mod ``2*den``.  ``tests/oracles.py`` replays the
    stream one entry at a time.
    """
    bound, residue, near_bytes, near_flags, share, head, count = _plan(
        den, threshold.numerator, threshold.denominator, dim, length, gap
    )
    full = 2 * den
    n = length * dim
    # the first read opens with the head, whose ``keep`` bytes are kept as drawn
    drawn, keep = count, head * dim
    entries = bytearray()
    while True:
        raw = rng.randbytes(count * dim)
        if dim == 1:
            entries += raw[:keep].translate(residue)
            entries += raw[keep:].translate(residue, near_bytes)
        else:
            # AND the near flags over each vector's bytes, into its first
            # byte: a lane holding the AND over ``span`` bytes ANDed with the
            # lane ``step <= span`` up holds it over ``span + step``
            near = int.from_bytes(raw.translate(near_flags), "little") >> 8 * keep << 8 * keep
            span = 1
            while span < dim:
                step = span if 2 * span <= dim else dim - span
                near &= near >> 8 * step
                span += step
            # 0xff on every byte of a vector whose first byte holds 1 here
            dropped = (near & _layout(count, dim)[1]) * ((1 << 8 * dim) - 1)
            kept = int.from_bytes(raw.translate(residue), "little") | dropped
            entries += kept.to_bytes(count * dim, "little").translate(None, b"\xff")
        if len(entries) >= n:
            break
        count = _draw_count((n - len(entries)) // dim, share)
        drawn += count
        keep = 0
    del entries[n:]
    if closed:
        # the last entry is its head entry plus every increment on its way down
        last, step = (length - 1) % gap * dim, gap * dim
        for i in range(dim):
            if bound <= (sum(entries[last + i :: step]) - entries[i]) % full <= full - bound:
                break
        else:
            return None, drawn
    y = int.from_bytes(entries, "little")
    ones = _layout(n, 1)[1]
    lanes = ones * (full - 1)
    lag = gap * dim * 8
    while lag < n * 8:
        y = (y + (y << lag)) & lanes
        lag *= 2
    data = y.to_bytes(n, "little")
    columns = []
    for i in range(dim):
        columns.append(tuple(data[i::dim]))
    # den is a power of two: an odd entry, or den 1, leaves it in lowest terms
    return _seq(columns, den, den == 1 or y & ones != 0), drawn
