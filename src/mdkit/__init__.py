"""mdkit: exact-rational toolkit for torus-alphabet subshifts and their towers.

Modules cover circle arithmetic (:mod:`mdkit.torus`), sequence spaces and
membership checks (:mod:`mdkit.shiftspace`), the factorial-gap
factor/section tower (:mod:`mdkit.tower`), free prime-order simplicial
complexes with coindex bounds (:mod:`mdkit.complexes`), finite permutation
dynamics with marker search (:mod:`mdkit.finite`), and a mean-dimension
bound calculus (:mod:`mdkit.meandim`).  Everything computes with exact
rationals; identities are asserted with equality, never tolerances.  All
values are immutable, so any of the verification batteries can be sharded
across workers without coordination.
"""

__version__ = "0.1.0"

from .torus import (  # noqa: F401
    TorusElem,
    TorusVec,
    circle_dist,
    max_circle_dist,
    torus_reduce,
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
    AnchorTable,
    TowerElementTrunc,
    TowerSpec,
    factor_chain,
    factor_map,
    level_gap,
    section_domain,
    section_map,
    tower_aperiodicity_report,
    tower_element,
    verify_section_identity,
    verify_section_range,
)
from .complexes import (  # noqa: F401
    CoindexBound,
    FreeZpComplex,
    bound_combine,
    build_en_zp,
    check_free_action,
    coindex_bounds,
    equivariant_map_search,
    join_complexes,
    reduced_homology,
)
from .finite import (  # noqa: F401
    FiniteSystem,
    MarkerCertificate,
    embed_into_universal,
    epsilon_embedding,
    map_to_unit_step_space,
    marker_search,
    periodic_points,
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
    cover_join,
    cover_ord,
    face_lattice,
    headline_pipeline,
    interval_lattice,
    select_time_division,
)
