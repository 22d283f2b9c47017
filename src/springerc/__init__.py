"""Exact top Borel-Moore homology dimensions of type-C partial Springer fibers.

The public names below resolve on first use (PEP 562), so ``import
springerc`` loads no submodule and each CLI command pays only for the
engine it runs.
"""

import importlib

_EXPORTS = {
    "exact": ("ExactMatrix", "bareiss_rank"),
    "geometry": (
        "ComponentGeometry",
        "FlagMatrix",
        "HtopReport",
        "OrbitInfo",
        "component_geometry",
        "component_nonempty",
        "enumerate_flag_matrices",
        "flag_dim",
        "htop_report",
        "iter_flag_matrices",
        "orbit_dim",
        "orbit_info",
        "richardson",
        "tensor_grading",
        "top_degree",
    ),
    "hyperoctahedral": (
        "CharacterTable",
        "SignedCycleType",
        "SignedPermutation",
        "character_table",
        "character_value",
        "class_representative",
        "class_size",
        "coset_permutation_character",
        "cycle_type",
        "decompose_character",
        "generators",
        "group_order",
        "iter_group",
        "multiply",
        "subgroup_index",
        "sym_group_character",
    ),
    "limits": ("DEFAULT_MAX_CELLS", "CostBoundExceeded"),
    "partitions": (
        "Bipartition",
        "GradedDecomposition",
        "Partition",
        "SymComposition",
        "dominance_leq",
        "enumerate_bipartitions",
        "enumerate_partitions",
        "enumerate_sym_compositions",
        "enumerate_type_c",
        "gl_dim",
        "graded_multiplicity",
        "hook_lengths",
        "irr_dim",
        "is_type_c",
        "kostka",
        "num_standard_tableaux",
        "type_c_collapse",
    ),
    "springer": (
        "interleave_bipartition",
        "orbit_fiber",
        "springer_image",
        "springer_orbit",
    ),
    "tensor": (
        "change_of_basis",
        "g_action_matrix",
        "involution_fixed_generators",
        "isotypic_projector",
        "projector_rank",
        "schur_weyl_decompose",
        "single_factor_change_of_basis",
        "tensor_basis",
        "w_action_matrix",
        "w_action_monomial",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
