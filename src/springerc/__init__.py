"""Exact top Borel-Moore homology dimensions of type-C partial Springer fibers."""

from .exact import ExactMatrix, bareiss_rank
from .geometry import (
    ComponentGeometry,
    HtopReport,
    OrbitInfo,
    component_geometry,
    component_nonempty,
    flag_dim,
    htop_report,
    orbit_dim,
    orbit_info,
    richardson,
    top_degree,
)
from .hyperoctahedral import (
    CharacterTable,
    SignedCycleType,
    SignedPermutation,
    character_table,
    character_value,
    class_representative,
    class_size,
    coset_permutation_character,
    cycle_type,
    decompose_character,
    generators,
    group_order,
    irr_dim,
    iter_group,
    multiply,
    subgroup_index,
    sym_group_character,
)
from .limits import DEFAULT_MAX_CELLS, CostBoundExceeded
from .partitions import (
    Bipartition,
    Partition,
    SymComposition,
    dominance_leq,
    enumerate_bipartitions,
    enumerate_partitions,
    enumerate_sym_compositions,
    enumerate_type_c,
    gl_dim,
    hook_lengths,
    is_type_c,
    kostka,
    num_standard_tableaux,
    type_c_collapse,
)
from .springer import (
    interleave_bipartition,
    orbit_fiber,
    springer_image,
    springer_orbit,
)
from .tensor import (
    FlagMatrix,
    GradedDecomposition,
    change_of_basis,
    enumerate_flag_matrices,
    flag_tensor_index,
    g_action_matrix,
    graded_multiplicity,
    involution_fixed_generators,
    isotypic_projector,
    projector_rank,
    schur_weyl_decompose,
    single_factor_change_of_basis,
    tensor_basis,
    tensor_grading,
    w_action_matrix,
    w_action_monomial,
)

__version__ = "0.1.0"
