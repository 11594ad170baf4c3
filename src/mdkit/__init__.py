"""mdkit: exact-rational toolkit for torus-alphabet subshifts and their towers.

Modules cover circle arithmetic on one point type, the integer-encoded
:class:`~mdkit.torus.TorusVec` and its sequences as integer columns,
:class:`~mdkit.torus.TorusSeq` (:mod:`mdkit.torus`), sequence spaces and
membership checks (:mod:`mdkit.shiftspace`), the gap-m!
factor/section tower (:mod:`mdkit.tower`), free prime-order simplicial
complexes with coindex bounds (:mod:`mdkit.complexes`), finite permutation
dynamics with marker search (:mod:`mdkit.finite`), and a mean-dimension
bound calculus (:mod:`mdkit.meandim`).  Everything computes with exact
rationals; identities are asserted with equality, never tolerances.  The
package root re-exports nothing: import from the modules, as in ``from
mdkit.torus import TorusVec``; :mod:`mdkit.cli` is the command line.
"""

__version__ = "0.1.0"
