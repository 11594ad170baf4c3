"""mdkit: exact-rational toolkit for torus-alphabet subshifts and their towers.

Modules cover circle arithmetic on one point type, the integer-encoded
:class:`~mdkit.torus.TorusVec` and its sequences as integer columns,
:class:`~mdkit.torus.TorusSeq` (:mod:`mdkit.torus`), sequence spaces and
membership checks (:mod:`mdkit.shiftspace`), the factorial-gap
factor/section tower (:mod:`mdkit.tower`), free prime-order simplicial
complexes with coindex bounds (:mod:`mdkit.complexes`), finite permutation
dynamics with marker search (:mod:`mdkit.finite`), and a mean-dimension
bound calculus (:mod:`mdkit.meandim`).  Everything computes with exact
rationals; identities are asserted with equality, never tolerances.
"""

__version__ = "0.1.0"

from .torus import (  # noqa: F401
    TorusSeq,
    TorusVec,
    max_circle_dist,
)
from .shiftspace import (  # noqa: F401
    BinarySFT,
    EitherOrAtLeast,
    EitherOrEquals,
    GapAtLeast,
    Periodic,
    Window,
    check_membership,
    count_periodic_sft,
    gap_space,
    half_step_space,
    periodic_witness,
    power_map,
    shift,
    unit_step_space,
    verify_conjugacy_diagram,
)
from .tower import (  # noqa: F401
    TowerElementTrunc,
    TowerSpec,
    factor_chain,
    factor_map,
    level_gap,
    random_anchor,
    section_domain,
    section_map,
    tower_aperiodicity_report,
    tower_element,
    verify_section_identity,
    verify_section_range,
    zero_anchor,
)
from .complexes import (  # noqa: F401
    CoindexBound,
    FreeZpComplex,
    build_en_zp,
    check_free_action,
    coindex_bounds,
    coindex_finite,
    coindex_join,
    coindex_map,
    coindex_power,
    equivariant_map_search,
    join_complexes,
    reduced_homology_groups,
)
from .finite import (  # noqa: F401
    FiniteSystem,
    MarkerCertificate,
    embed_into_universal,
    epsilon_embedding,
    map_to_unit_step_space,
    marker_search,
    rokhlin_function,
    time_division,
    verify_marker,
    verify_marker_transfer,
)
from .meandim import (  # noqa: F401
    Cover,
    MdimBound,
    OpenLattice,
    cover_D,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    select_time_division,
    star_cover,
)
