"""Exact arithmetic and metric geometry on the circle R/2Z and its powers.

Points of the circle are stored as canonical representatives in [0, 2).  The
metric is ``min(d, 2 - d)`` where ``d`` is the representative of the
difference, so the diameter is exactly 1 and the metric is invariant under
translation.  Tuples of circle points form the alphabet of the sequence
spaces in :mod:`mdkit.shiftspace`; their metric is the coordinatewise max.

A :class:`TorusVec` holds its coordinates as integers over one shared
denominator, ``nums[i]/den`` with ``nums[i]`` in [0, 2*den), and its group
operations and distance are integer arithmetic mod ``2*den``.  ``Fraction``
appears only at the edges: the scalar :class:`TorusElem`, construction from
rationals, JSON, and :func:`max_circle_dist`.  Everything is exact: no
floats, no tolerances.
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


def reduce_mod2(value: Fraction | int) -> Fraction:
    """The unique representative of ``value`` modulo 2 lying in [0, 2)."""
    f = Fraction(value)
    return f - 2 * math.floor(f / 2)


@dataclass(frozen=True)
class TorusElem:
    """A point of R/2Z, held as its canonical representative in [0, 2)."""

    value: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", reduce_mod2(self.value))

    def __add__(self, other: "TorusElem") -> "TorusElem":
        return TorusElem(self.value + other.value)

    def __sub__(self, other: "TorusElem") -> "TorusElem":
        return TorusElem(self.value - other.value)

    def __neg__(self) -> "TorusElem":
        return TorusElem(-self.value)

    def __repr__(self) -> str:
        return f"TorusElem({self.value!s})"

    def to_json(self) -> str:
        return frac_to_str(self.value)

    @classmethod
    def from_json(cls, text: str) -> "TorusElem":
        return cls(frac_from_str(text))


def torus_reduce(value: Fraction | int) -> TorusElem:
    """Canonicalize any rational into its circle representative in [0, 2)."""
    return TorusElem(Fraction(value))


def circle_dist(x: TorusElem, y: TorusElem) -> Fraction:
    """Circle metric: ``min(d, 2 - d)`` for ``d = (x - y) mod 2``; in [0, 1]."""
    d = reduce_mod2(x.value - y.value)
    return min(d, 2 - d)


@dataclass(frozen=True, slots=True)
class TorusVec:
    """An element of the N-fold power of the circle (the sequence alphabet).

    Coordinate i is ``nums[i]/den`` mod 2.  The stored form is canonical:
    every ``nums[i]`` lies in [0, 2*den) and gcd(den, *nums) = 1, so ``==``
    and ``hash`` agree with equality of values.  ``nums`` may also be given
    as rationals (``Fraction``, ``int`` or :class:`TorusElem`), which are
    lifted to their common denominator.  The group operations act
    coordinatewise and require equal dimension; operands with different
    denominators are lifted to the lcm.
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
            values = [Fraction(k.value if isinstance(k, TorusElem) else k) / den for k in nums]
            den = math.lcm(*(f.denominator for f in values))
            nums = tuple(f.numerator * (den // f.denominator) for f in values)
        full = 2 * den
        _canonical(self, tuple(k % full for k in nums), den)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def coords(self) -> tuple[TorusElem, ...]:
        """Read-only view of the coordinates as scalar circle points."""
        return tuple(TorusElem(Fraction(k, self.den)) for k in self.nums)

    @classmethod
    def of(cls, *values: Fraction | int | TorusElem) -> "TorusVec":
        return cls(values)

    @classmethod
    def zero(cls, dim: int) -> "TorusVec":
        return cls((0,) * dim)

    @classmethod
    def constant(cls, value: Fraction | int, dim: int) -> "TorusVec":
        return cls((Fraction(value),) * dim)

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
        return cls(tuple(frac_from_str(c) for c in data))


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


def max_dist_pair(x: TorusVec, y: TorusVec) -> tuple[int, int]:
    """The alphabet metric as ``(num, den)``, value ``num/den`` (not in lowest terms).

    A threshold ``a/b`` is met exactly when ``num * b >= a * den``.
    """
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
    return Fraction(*max_dist_pair(x, y))


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
