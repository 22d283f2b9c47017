"""Exact top Borel-Moore homology dimensions of type-C partial Springer fibers.

The public names below resolve on first use (PEP 562), so ``import
springerc`` loads no submodule and each CLI command pays only for the
engine it runs.
"""

import importlib

_EXPORTS = {
    "geometry": (
        "HtopReport",
        "component_nonempty",
        "flag_dim",
        "htop_table",
        "iter_flag_matrices",
        "orbit_dim",
        "richardson",
        "top_degree",
    ),
    "hyperoctahedral": (
        "CharacterTable",
        "SignedPermutation",
        "character_table",
        "character_value",
        "class_representative",
        "class_size",
        "coset_permutation_character",
        "cycle_type",
        "decompose_character",
        "group_order",
        "iter_group",
        "sym_group_character",
    ),
    "limits": ("CostBoundExceeded",),
    "partitions": (
        "Bipartition",
        "Partition",
        "SymComposition",
        "dominance_leq",
        "enumerate_bipartitions",
        "enumerate_partitions",
        "enumerate_sym_compositions",
        "enumerate_type_c",
        "gl_dim",
        "graded_multiplicities",
        "hook_lengths",
        "irr_dim",
        "is_type_c",
        "kostka",
        "num_standard_tableaux",
        "type_c_collapse",
    ),
    "springer": (
        "interleave_bipartition",
        "springer_image",
        "springer_orbit",
    ),
    "tensor": (
        "projector_rank",
        "schur_weyl_decompose",
        "tensor_basis",
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
