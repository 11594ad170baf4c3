"""Exact arithmetic and metric geometry on the circle R/2Z and its powers.

A point of the N-fold power of the circle is a :class:`TorusVec`: its
coordinates are integers over one shared denominator, ``nums[i]/den`` with
``nums[i]`` in [0, 2*den), and its group operations are integer arithmetic
mod ``2*den``.  A dimension-1 vector is a point of the circle itself.  The
circle metric is ``min(d, 2 - d)`` where ``d`` is the representative of the
difference, so the diameter is exactly 1 and the metric is invariant under
translation; the metric on vectors is the coordinatewise max.  Vectors form
the alphabet of the sequence spaces in :mod:`mdkit.shiftspace`.

The integer encoding stays inside this module: other modules build vectors
with :meth:`TorusVec.of`, measure them with :func:`max_circle_dist` and test
thresholds with :func:`dist_at_least`.  ``Fraction`` appears only at the
edges: construction from rationals, JSON and :func:`max_circle_dist`.
Everything is exact: no floats, no tolerances.

Whole sequences have kernels of their own (:func:`strided_sums`,
:func:`solve_strided_sums`, :func:`gap_distances`, :func:`first_far`): each
lifts its vectors to one common denominator once, works on plain integers
mod ``2*den`` one coordinate at a time, and builds each output vector once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
# Sequence kernels


def _lift_rows(values: Sequence[TorusVec], den: int) -> list[tuple[int, ...]]:
    """The numerators of each of ``values`` over ``den``, a multiple of every denominator."""
    return [v.nums if v.den == den else tuple(k * (den // v.den) for k in v.nums) for v in values]


def _lift_columns(values: Sequence[TorusVec], den: int) -> list[list[int]]:
    """The coordinate columns of ``values`` as numerators over ``den``.

    ``den`` must be a multiple of every denominator; an empty sequence has
    no columns.
    """
    return [list(column) for column in zip(*_lift_rows(values, den))]


def _common_den(*sequences: Sequence[TorusVec]) -> int:
    """The lcm of all denominators, after checking that all dimensions agree."""
    shapes = {(len(v.nums), v.den) for seq in sequences for v in seq}
    if len({dim for dim, _ in shapes}) > 1:
        raise ValueError("alphabet dimension mismatch")
    return math.lcm(*{den for _, den in shapes})


def _build(columns: list[list[int]], den: int) -> tuple[TorusVec, ...]:
    """One canonical vector per row of the reduced-range ``columns``."""
    return tuple(_vec(nums, den) for nums in zip(*columns))


def strided_sums(values: Sequence[TorusVec], stride: int, terms: int) -> tuple[TorusVec, ...]:
    """The sums ``values[k] + values[k + stride] + ... + values[k + (terms-1)*stride]``.

    There is one sum for each k whose terms all lie in ``values``.  After
    the first ``stride`` sums each one slides from the sum one stride back,
    ``F[k] = F[k - stride] - values[k - stride] + values[k + (terms-1)*stride]``,
    so a sum costs O(1) whatever ``terms`` is.
    """
    if stride < 0 or terms < 1:
        raise ValueError("strided sums need stride >= 0 and terms >= 1")
    span = (terms - 1) * stride
    count = len(values) - span
    if count < 1:
        raise ValueError("strided sums need more values than their span")
    den = _common_den(values)
    full = 2 * den
    head = count if stride == 0 else min(stride, count)
    out_columns = []
    for column in _lift_columns(values, den):
        out = [sum(column[k + t * stride] for t in range(terms)) % full for k in range(head)]
        for k in range(head, count):
            out.append((out[k - stride] - column[k - stride] + column[k + span]) % full)
        out_columns.append(out)
    return _build(out_columns, den)


def solve_strided_sums(
    head: Sequence[TorusVec], sums: Sequence[TorusVec], stride: int, terms: int
) -> tuple[TorusVec, ...]:
    """The continuation of ``head`` whose strided sums are ``sums``.

    Returns ``tail`` such that ``y = head + tail`` has
    ``strided_sums(y, stride, terms) == sums``, given the first
    ``(terms-1)*stride`` entries of y as ``head``: entry ``c + j`` of y, with
    ``c = len(head)``, is ``sums[j]`` less the other ``terms - 1`` terms of
    its sum.  After the first ``stride`` entries the sums telescope,
    ``y[c + j] = y[j - stride] + sums[j] - sums[j - stride]``.  The tail has
    one entry per sum.
    """
    if stride < 1 or terms < 1:
        raise ValueError("solving strided sums needs stride >= 1 and terms >= 1")
    c = (terms - 1) * stride
    if len(head) != c:
        raise ValueError(f"solving strided sums needs a head of {c} entries")
    if not sums:
        return ()
    den = _common_den(head, sums)
    full = 2 * den
    count = len(sums)
    first = min(stride, count)
    head_columns = _lift_columns(head, den) or [[] for _ in sums[0].nums]
    out_columns = []
    for y, s in zip(head_columns, _lift_columns(sums, den)):
        for j in range(first):
            y.append((s[j] - sum(y[j : j + c : stride])) % full)
        for j in range(first, count):
            y.append((y[j - stride] + s[j] - s[j - stride]) % full)
        out_columns.append(y[c:])
    return _build(out_columns, den)


def gap_distances(
    values: Sequence[TorusVec], gap: int, cyclic: bool
) -> tuple[list[int], int]:
    """Alphabet distances between entries ``gap`` apart, as numerators over one denominator.

    Returns ``(nums, den)``: ``nums[k]/den`` is the distance from
    ``values[k]`` to ``values[k + gap]``, for every k that has a partner,
    or for every k with the index taken mod ``len(values)`` when ``cyclic``.
    """
    if gap < 1:
        raise ValueError("gap must be >= 1")
    count = len(values) if cyclic else len(values) - gap
    if count < 1:
        return [], 1
    den = _common_den(values)
    full = 2 * den
    dim = len(values[0].nums)
    # one flat pass over all coordinates, fast for short high-dim inputs too
    flat = [k for row in _lift_rows(values, den) for k in row]
    offset = (gap % count if cyclic else gap) * dim
    partner = flat[offset:] + flat[:offset] if cyclic else flat[offset:]
    dists = [(u - v) % full for u, v in zip(flat, partner)]
    dists = [full - d if d > den else d for d in dists]
    if dim == 1:
        return dists, den
    return list(map(max, *(dists[i::dim] for i in range(dim)))), den


def first_far(
    candidates: Iterable[Sequence[int]], prev: TorusVec, threshold: Fraction, den: int
) -> tuple[TorusVec, int] | None:
    """The first candidate at distance >= threshold from ``prev``, and its 1-based position.

    Candidates are numerator sequences over ``den``, each entry in [0, 2*den).
    ``prev`` is lifted to ``den`` once and each candidate is tested in
    integers; only the accepted one is built as a vector.  ``den`` must be a
    multiple of ``prev``'s denominator.  Returns None when no candidate is
    far enough.
    """
    if den % prev.den:
        raise ValueError(f"denominator {den} is not a multiple of {prev.den}")
    (lifted,) = _lift_rows([prev], den)
    full = 2 * den
    # circular distance >= bound iff the difference lies in [bound, full - bound]
    bound = -(-threshold.numerator * den // threshold.denominator)
    high = full - bound
    for tries, nums in enumerate(candidates, 1):
        if len(nums) != len(lifted):
            raise ValueError("alphabet dimension mismatch")
        for u, v in zip(nums, lifted):
            if bound <= (u - v) % full <= high:
                return _vec(tuple(nums), den), tries
    return None
