"""Projection, indexed-projection and matrix-substitution reducibilities,
with every concrete construction between the named families."""

from .base import (
    AbpReduction,
    IProjMap,
    ProjMap,
    Verdict,
    apply_abp_reduction,
    apply_to_instance,
    compose_abp,
    iproj_to_abp,
    proj_to_iproj,
    verify_reduction,
)
from .completeness import dyck_completeness_reduction, pal_vsk_reduction
from .dyck import (
    check_vbp_trivial,
    dk_encode_word,
    dk_to_d2_reduction,
    dyck_depth_reduction,
    pal_to_d2_reduction,
    palsq_to_d2_reduction,
    vbp_trivial_reduction,
)
from .serialize import format_reduction, parse_reduction
from .vnp import (
    SplitVerdict,
    hierarchy_iproj,
    per_to_idstar_reduction,
    per_to_perstar_chi_reduction,
    set_multilinear_rank1_split,
    transfer,
)

__all__ = [
    "AbpReduction",
    "IProjMap",
    "ProjMap",
    "Verdict",
    "SplitVerdict",
    "apply_abp_reduction",
    "apply_to_instance",
    "compose_abp",
    "iproj_to_abp",
    "proj_to_iproj",
    "verify_reduction",
    "dyck_completeness_reduction",
    "pal_vsk_reduction",
    "check_vbp_trivial",
    "dk_encode_word",
    "dk_to_d2_reduction",
    "dyck_depth_reduction",
    "pal_to_d2_reduction",
    "palsq_to_d2_reduction",
    "vbp_trivial_reduction",
    "format_reduction",
    "parse_reduction",
    "hierarchy_iproj",
    "per_to_idstar_reduction",
    "per_to_perstar_chi_reduction",
    "set_multilinear_rank1_split",
    "transfer",
]
