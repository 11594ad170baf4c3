"""Cover combinatorics on finite open lattices and a bound calculus.

A finite lattice of open sets is the up-set topology of a finite poset,
given by its cells and their cofaces.  The order of a cover is its maximal
overlap count minus one, and the refinement dimension of a cover is the
exact minimum order over all covers refining it, found by feasibility search
with a node cap.  Mean dimension itself is never computed for infinite
systems: it is only bracketed by exact rational interval rules (ambient
bound for subshifts of the full torus shift, inverse limits, clock
extensions), each application appended to a provenance chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

from .torus import frac_to_str


# Default node cap of ``cover_D`` and of ``mdim D --cap``: each candidate open
# listed and each feasibility-search node counts one.
MAX_COVER_NODES = 1 << 16


class SearchCapExceeded(RuntimeError):
    """``cover_D`` hit its node cap before finishing."""


# ---------------------------------------------------------------------------
# Lattices and covers


@dataclass(frozen=True)
class OpenLattice:
    """The up-set (Alexandrov) topology of a finite poset.

    ``cofaces[a]`` is the set of atoms strictly above ``a``.  A set of atoms
    is open iff it contains every coface of each of its members, so the empty
    set and the ground set are open and opens are closed under union and
    intersection by construction.
    """

    atoms: tuple
    cofaces: Mapping

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        cofaces = {a: frozenset(c) for a, c in self.cofaces.items()}
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "cofaces", cofaces)
        if cofaces.keys() != set(atoms):
            raise ValueError("cofaces must have exactly one entry per atom")
        ground = frozenset(atoms)
        if any(not c <= ground for c in cofaces.values()):
            raise ValueError("a coface set names an unknown atom")

    @property
    def ground(self) -> frozenset:
        return frozenset(self.atoms)

    def is_open(self, s: frozenset) -> bool:
        return s <= self.ground and all(self.cofaces[a] <= s for a in s)

    def up_sets(self, within: frozenset):
        """Yield every open contained in ``within``, the empty set included.

        A depth-first walk decides each cell after all of its cofaces (fewer
        cofaces first): first without the cell, then with it if its cofaces
        are already in.  ``taken`` holds the decisions made so far.
        """
        cells = sorted((a for a in self.atoms if a in within), key=lambda a: len(self.cofaces[a]))
        current: set = set()
        taken: list[bool] = []
        while True:
            taken += [False] * (len(cells) - len(taken))
            yield frozenset(current)
            while taken and (taken[-1] or not self.cofaces[cells[len(taken) - 1]] <= current):
                if taken.pop():
                    current.remove(cells[len(taken)])
            if not taken:
                return
            taken[-1] = True
            current.add(cells[len(taken) - 1])

    @cached_property
    def opens(self) -> frozenset[frozenset]:
        """Every open, enumerated on demand; ``cover_D`` never needs it."""
        return frozenset(self.up_sets(self.ground))


def _sorted_sets(sets: Iterable[frozenset], atoms: Iterable) -> list[frozenset]:
    """``sets`` in canonical order: by size, then by their atoms' reprs,
    sorted.  ``atoms`` holds every atom of every set, and each atom's repr
    is computed once."""
    names = {a: repr(a) for a in atoms}
    return sorted(sets, key=lambda s: (len(s), sorted(map(names.__getitem__, s))))


def interval_lattice() -> OpenLattice:
    """The face poset of one edge: vertices v0 and v1 below the edge e.

    Opens are the up-sets: {}, {e}, {v0,e}, {v1,e}, all.
    """
    return OpenLattice(("v0", "e", "v1"), {"v0": {"e"}, "e": set(), "v1": {"e"}})


def face_lattice(complex_) -> OpenLattice:
    """The up-set topology on the cells of a finite simplicial complex.

    Atoms are the face table's simplices in lexicographic order, which sets
    ``cover_D``'s branching; the cofaces of a cell are the simplices that
    strictly contain it.
    """
    cells = sorted(chain.from_iterable(complex_.face_table))
    cofaces: dict[tuple, set] = {c: set() for c in cells}
    for d in cells:
        for size in range(1, len(d)):
            for c in combinations(d, size):
                cofaces[c].add(d)
    return OpenLattice(tuple(cells), cofaces)


@dataclass(frozen=True)
class Cover:
    """A list of opens whose union is the ground set; duplicates allowed."""

    members: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "members", tuple(frozenset(m) for m in self.members)
        )


def star_cover(lattice: OpenLattice) -> Cover:
    """The open stars of the minimal cells: each atom that is no atom's coface,
    in atom order, together with its cofaces."""
    above = frozenset().union(*lattice.cofaces.values())
    return Cover(tuple(lattice.cofaces[a] | {a} for a in lattice.atoms if a not in above))


def validate_cover(lattice: OpenLattice, cover: Cover) -> None:
    for m in cover.members:
        if not lattice.is_open(m):
            raise ValueError("cover member is not an open of this lattice")
    union = frozenset().union(*cover.members) if cover.members else frozenset()
    if union != lattice.ground:
        raise ValueError("cover members do not cover the ground set")


def cover_ord(cover: Cover) -> int:
    """Maximal number of members containing a single atom, minus one."""
    atoms = frozenset().union(*cover.members)
    return max(sum(1 for m in cover.members if a in m) for a in atoms) - 1


def _cap_exceeded(what: str, cap: int) -> SearchCapExceeded:
    return SearchCapExceeded(
        f"{what} exceeded {cap} nodes; raise the cap (--cap on mdim D) to search further"
    )


def cover_D(lattice: OpenLattice, cover: Cover, cap: int = MAX_COVER_NODES) -> int:
    """Minimum order over all covers refining the given one, by lattice opens.

    The candidates are the nonempty opens inside some cover member.  Each
    open listed inside each distinct member counts against ``cap``, and
    passing it raises.  A feasibility search then runs for each target order
    t = 0, 1, ...: branch on the first uncovered atom, try each candidate
    containing it, prune as soon as any atom is hit more than t+1 times.
    More than ``cap`` search nodes raises as well.
    """
    validate_cover(lattice, cover)
    members = set(cover.members)
    # every set of maximal atoms is open: a member with k of them holds >= 2^k opens
    if sum(2 ** sum(not lattice.cofaces[a] for a in m) for m in members) > cap:
        raise _cap_exceeded("candidate enumeration", cap)
    found: set[frozenset] = set()
    listed = 0
    for member in members:
        for o in lattice.up_sets(member):
            listed += 1
            if listed > cap:
                raise _cap_exceeded("candidate enumeration", cap)
            found.add(o)
    candidates = _sorted_sets(found - {frozenset()}, lattice.atoms)
    atoms = list(lattice.atoms)
    dedup = Cover(tuple(_sorted_sets(members, lattice.atoms)))
    nodes = 0

    def feasible(t: int) -> bool:
        counts = {a: 0 for a in atoms}

        def search() -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise _cap_exceeded("feasibility search", cap)
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

    for t in range(0, cover_ord(dedup) + 1):
        if feasible(t):
            return t
    raise AssertionError("the deduplicated cover itself must be feasible")


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


def _ruled(
    inputs: Sequence[MdimBound], lower: Fraction, upper: Fraction | None, rule: str, statement: str
) -> MdimBound:
    """The interval [lower, upper] with the inputs' provenance and one record for the rule."""
    chain = tuple(rec for b in inputs for rec in b.provenance)
    return MdimBound(lower, upper, chain + ({"rule": rule, "statement": statement},))


def ambient_shift_bound(width: int) -> MdimBound:
    """Subshifts of the full shift on width-dimensional torus alphabets lie in [0, width]."""
    if width < 1:
        raise ValueError("alphabet dimension must be >= 1")
    statement = (
        f"a subshift of the full shift on a {width}-dimensional torus "
        f"alphabet has mean dimension at most {width}"
    )
    return _ruled((), Fraction(0), Fraction(width), "ambient-shift", statement)


def inverse_limit_bound(bounds: Sequence[MdimBound]) -> MdimBound:
    if not bounds:
        raise ValueError("inverse limit needs at least one level bound")
    uppers = [b.upper for b in bounds]
    upper = None if any(u is None for u in uppers) else max(uppers)
    statement = (
        "the mean dimension of an inverse limit is at most the supremum "
        "of the level mean dimensions"
    )
    return _ruled(bounds, Fraction(0), upper, "inverse-limit", statement)


def time_division_bound(n: int, bound: MdimBound) -> MdimBound:
    if n < 1:
        raise ValueError("time division requires n >= 1")
    upper = None if bound.upper is None else bound.upper / n
    statement = f"the 1/{n}-time clock extension divides mean dimension by {n}"
    return _ruled((bound,), bound.lower / n, upper, "time-division", statement)


def headline_pipeline(width: int, n: int) -> MdimBound:
    """Ambient bound at every tower level, inverse limit, then time division.

    Every level has the same ambient bound, so one record stands for every
    level, however many the tower has: the provenance holds three records.
    """
    ambient = ambient_shift_bound(width)
    (record,) = ambient.provenance
    statement = f"at each level, {record['statement']}"
    level = MdimBound(ambient.lower, ambient.upper, ({**record, "statement": statement},))
    return time_division_bound(n, inverse_limit_bound([level]))


def select_time_division(width: int, eta: Fraction) -> int:
    """The smallest n with width/n strictly below eta."""
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = ambient_shift_bound(width).upper / eta
    candidate = int(n) + 1
    assert Fraction(width, candidate) < eta
    return candidate
