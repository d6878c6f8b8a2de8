"""Self-conjugate simultaneous core partitions.

Diagonal-hook-set encodings, the two-parameter abacus, the bijection
onto constrained free rational Motzkin paths, exact counting formulas,
and independent brute-force verification.
"""

from .abacus import (
    AbacusState,
    abacus_function,
    abacus_spec,
    beads_from_function,
    boundary_row,
    label,
    place_beads,
    render_abacus,
    state_md,
    validate_core_function,
)
from .bijection import corner_statistics, phi, phi_context, phi_inverse
from .errors import (
    BeadStructureError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidPathError,
    NotACoreError,
    ScoreLabError,
    UnplaceableHookError,
    UnsupportedParametersError,
)
from .formulas import (
    CountResult,
    binom,
    check_shift_equivalence,
    count_corners_p2,
    count_corners_p3,
    count_sc_d1,
    count_sc_p2,
    count_sc_p3,
    count_sc_pair,
    count_sym_motzkin,
    count_via_paths,
    multinom,
)
from .mdcore import (
    conjugate,
    corners,
    hook_lengths,
    is_core,
    md_is_core,
    md_is_simultaneous_core,
    md_to_partition,
    partition_to_md,
    validate_md,
)
from .motzkin import (
    PathConstraintSet,
    constraints_for,
    count_paths_dp,
    enumerate_paths,
    flat_count,
    last_step,
    path_type,
    satisfies,
)
from .oracle import (
    VerifyReport,
    default_md_bound,
    enumerate_by_partition_scan,
    enumerate_md_sets,
    pair_core_size_bound,
    verify_instance,
)
from .progression import Progression

__version__ = "0.1.0"
