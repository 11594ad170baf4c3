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
    return Fraction(str(text).strip())


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

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "TorusVec":
        return cls.of(*(frac_from_str(c) for c in data))


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
