"""Cover combinatorics on finite open lattices and a bound calculus.

On a finite lattice of open sets, the order of a cover is its maximal
overlap count minus one, and the refinement dimension of a cover is the
exact minimum order over all covers refining it, found by feasibility search
with a node cap.  Mean dimension itself is never computed for infinite
systems: it is only bracketed by exact rational interval rules (ambient
bound for subshifts of the full torus shift, subsystems, powers, inverse
limits, clock extensions), each application appended to a provenance chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .torus import frac_to_str


class SearchCapExceeded(RuntimeError):
    """The feasibility search hit its node cap before finishing."""


# ---------------------------------------------------------------------------
# Lattices and covers


@dataclass(frozen=True)
class OpenLattice:
    """A finite ground set with a family of opens closed under union and
    intersection, containing the empty set and the ground set."""

    atoms: tuple
    opens: frozenset[frozenset]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        opens = frozenset(frozenset(o) for o in self.opens)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "opens", opens)
        ground = frozenset(atoms)
        if frozenset() not in opens or ground not in opens:
            raise ValueError("opens must contain the empty set and the ground set")
        for o in opens:
            if not o <= ground:
                raise ValueError("open set contains an unknown atom")
        members = sorted(opens, key=_set_key)
        for a, b in combinations(members, 2):
            if a | b not in opens:
                raise ValueError("opens are not closed under union")
            if a & b not in opens:
                raise ValueError("opens are not closed under intersection")

    @property
    def ground(self) -> frozenset:
        return frozenset(self.atoms)

    def to_json(self) -> dict:
        return {
            "atoms": [_atom_to_json(a) for a in self.atoms],
            "opens": [sorted(_atom_to_json(a) for a in o) for o in sorted(self.opens, key=_set_key)],
        }


def _atom_to_json(atom):
    if isinstance(atom, tuple):
        return list(atom)
    return atom


def _set_key(s: frozenset):
    return (len(s), sorted(repr(a) for a in s))


def interval_lattice() -> OpenLattice:
    """The three-cell model of a segment: two vertices and the edge between.

    Opens are the up-sets of the face order: {}, {e}, {v0,e}, {v1,e}, all.
    """
    atoms = ("v0", "e", "v1")
    opens = [
        frozenset(),
        frozenset({"e"}),
        frozenset({"v0", "e"}),
        frozenset({"v1", "e"}),
        frozenset(atoms),
    ]
    return OpenLattice(atoms, frozenset(opens))


def face_lattice(complex_) -> OpenLattice:
    """The up-set topology on the cells of a finite simplicial complex.

    Atoms are the simplices (as sorted vertex tuples); a set of cells is open
    iff it contains every coface of each of its members.
    """
    cells = sorted((tuple(sorted(s)) for s in complex_.simplices), key=lambda c: (-len(c), c))
    cofaces = {
        c: [d for d in cells if set(c) < set(d)]
        for c in cells
    }
    opens: list[frozenset] = []

    def extend(idx: int, current: set):
        if idx == len(cells):
            opens.append(frozenset(current))
            return
        cell = cells[idx]
        extend(idx + 1, current)
        if all(cf in current for cf in cofaces[cell]):
            current.add(cell)
            extend(idx + 1, current)
            current.remove(cell)

    extend(0, set())
    return OpenLattice(tuple(sorted(cells)), frozenset(opens))


@dataclass(frozen=True)
class Cover:
    """A list of opens whose union is the ground set; duplicates allowed.

    The lattice reference is optional; when present, membership of every
    member is validated and joins across different lattices are rejected.
    """

    members: tuple[frozenset, ...]
    lattice: OpenLattice | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "members", tuple(frozenset(m) for m in self.members)
        )
        if self.lattice is not None:
            validate_cover(self.lattice, self)


def validate_cover(lattice: OpenLattice, cover: Cover) -> None:
    for m in cover.members:
        if m not in lattice.opens:
            raise ValueError("cover member is not an open of this lattice")
    union = frozenset().union(*cover.members) if cover.members else frozenset()
    if union != lattice.ground:
        raise ValueError("cover members do not cover the ground set")


def cover_ord(cover: Cover) -> int:
    """Maximal number of members containing a single atom, minus one."""
    atoms = frozenset().union(*cover.members)
    return max(sum(1 for m in cover.members if a in m) for a in atoms) - 1


def cover_join(a: Cover, b: Cover) -> Cover:
    """All nonempty pairwise intersections, deduplicated, in canonical order."""
    if a.lattice is not None and b.lattice is not None and a.lattice != b.lattice:
        raise ValueError("lattice mismatch")
    members = {
        u & v
        for u in a.members
        for v in b.members
        if u & v
    }
    return Cover(tuple(sorted(members, key=_set_key)), a.lattice or b.lattice)


def cover_D(
    lattice: OpenLattice,
    cover: Cover,
    cap: int = 1 << 16,
    mode: str = "exact",
) -> int | tuple[int, int]:
    """Minimum order over all covers refining the given one, by lattice opens.

    Exact mode runs a feasibility search for each target order t = 0, 1, ...:
    branch on the first uncovered atom, try each admissible open containing
    it, prune as soon as any atom is hit more than t+1 times.  Exceeding the
    node cap raises; bound mode instead returns the interval
    (0, best order found so far), whose upper end is always realized by the
    deduplicated input cover itself.
    """
    if mode not in ("exact", "bound"):
        raise ValueError("mode must be 'exact' or 'bound'")
    validate_cover(lattice, cover)
    candidates = sorted(
        {
            o
            for o in lattice.opens
            if o and any(o <= m for m in cover.members)
        },
        key=_set_key,
    )
    atoms = list(lattice.atoms)
    dedup = Cover(tuple(sorted(set(cover.members), key=_set_key)))
    fallback = cover_ord(dedup)
    nodes = 0

    def feasible(t: int) -> bool:
        nonlocal nodes
        counts = {a: 0 for a in atoms}

        def search() -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise SearchCapExceeded(
                    f"feasibility search exceeded {cap} nodes; use bound mode, "
                    f"which reports a best-found upper bound and trivial lower bound"
                )
            target = next((a for a in atoms if counts[a] == 0), None)
            if target is None:
                return True
            for o in candidates:
                if target not in o:
                    continue
                if any(counts[a] + 1 > t + 1 for a in o):
                    continue
                for a in o:
                    counts[a] += 1
                if search():
                    return True
                for a in o:
                    counts[a] -= 1
            return False

        return search()

    try:
        for t in range(0, fallback + 1):
            if feasible(t):
                return t if mode == "exact" else (t, t)
        raise AssertionError("the deduplicated cover itself must be feasible")
    except SearchCapExceeded:
        if mode == "exact":
            raise
        return (0, fallback)


def cover_D_bruteforce(lattice: OpenLattice, cover: Cover) -> int:
    """Oracle: enumerate every subset of admissible opens and take the best order."""
    validate_cover(lattice, cover)
    candidates = sorted(
        {o for o in lattice.opens if o and any(o <= m for m in cover.members)},
        key=_set_key,
    )
    ground = lattice.ground
    best: int | None = None
    for size_mask in range(1, 1 << len(candidates)):
        chosen = [candidates[i] for i in range(len(candidates)) if size_mask >> i & 1]
        if frozenset().union(*chosen) != ground:
            continue
        order = cover_ord(Cover(tuple(chosen)))
        best = order if best is None else min(best, order)
        if best == 0:
            return 0
    if best is None:
        raise AssertionError("no refining cover found; input cover invalid?")
    return best


# ---------------------------------------------------------------------------
# Mean-dimension interval calculus


@dataclass(frozen=True)
class MdimBound:
    """An exact rational interval [lower, upper] with its derivation chain.

    ``upper = None`` means unbounded above.
    """

    lower: Fraction
    upper: Fraction | None
    provenance: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        lower = Fraction(self.lower)
        upper = None if self.upper is None else Fraction(self.upper)
        if lower < 0:
            raise ValueError("mean dimension is nonnegative")
        if upper is not None and lower > upper:
            raise ValueError("bound interval inverted")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def to_json(self) -> dict:
        return {
            "lower": frac_to_str(self.lower),
            "upper": frac_to_str(self.upper) if self.upper is not None else "inf",
            "provenance": list(self.provenance),
        }


def ambient_shift_bound(width: int) -> MdimBound:
    """Subshifts of the full shift on width-dimensional torus alphabets lie in [0, width]."""
    if width < 1:
        raise ValueError("alphabet dimension must be >= 1")
    return MdimBound(
        Fraction(0),
        Fraction(width),
        (
            {
                "rule": "ambient-shift",
                "statement": (
                    f"a subshift of the full shift on a {width}-dimensional torus "
                    f"alphabet has mean dimension at most {width}"
                ),
            },
        ),
    )


def subsystem_bound(bound: MdimBound) -> MdimBound:
    return MdimBound(
        Fraction(0),
        bound.upper,
        bound.provenance
        + (
            {
                "rule": "subsystem",
                "statement": "a closed invariant subsystem has mean dimension at most the ambient one",
            },
        ),
    )


def power_bound(n: int, bound: MdimBound) -> MdimBound:
    if n < 1:
        raise ValueError("power must be >= 1")
    return MdimBound(
        bound.lower * n,
        None if bound.upper is None else bound.upper * n,
        bound.provenance
        + (
            {
                "rule": "power",
                "statement": f"the {n}-th power map multiplies mean dimension by {n}",
            },
        ),
    )


def inverse_limit_bound(bounds: Sequence[MdimBound]) -> MdimBound:
    if not bounds:
        raise ValueError("inverse limit needs at least one level bound")
    uppers = [b.upper for b in bounds]
    upper = None if any(u is None for u in uppers) else max(uppers)
    chain = tuple(rec for b in bounds for rec in b.provenance)
    return MdimBound(
        Fraction(0),
        upper,
        chain
        + (
            {
                "rule": "inverse-limit",
                "statement": (
                    "the mean dimension of an inverse limit is at most the supremum "
                    "of the level mean dimensions"
                ),
            },
        ),
    )


def time_division_bound(n: int, bound: MdimBound) -> MdimBound:
    if n < 1:
        raise ValueError("time division requires n >= 1")
    return MdimBound(
        bound.lower / n,
        None if bound.upper is None else bound.upper / n,
        bound.provenance
        + (
            {
                "rule": "time-division",
                "statement": f"the 1/{n}-time clock extension divides mean dimension by {n}",
            },
        ),
    )


def headline_pipeline(width: int, levels: int, n: int) -> MdimBound:
    """Ambient bound at every tower level, inverse limit, then time division."""
    level_bounds = [ambient_shift_bound(width) for _ in range(max(levels, 1))]
    return time_division_bound(n, inverse_limit_bound(level_bounds))


def select_time_division(width: int, eta: Fraction) -> int:
    """The smallest n with width/n strictly below eta."""
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = Fraction(width) / eta
    candidate = int(n) + 1
    assert Fraction(width, candidate) < eta
    return candidate
