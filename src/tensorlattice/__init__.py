"""Exact computations in tensor products of finite-dimensional vector lattices.

The package works over coordinatewise-ordered rational vector spaces and
keeps every answer exact: hull membership and gauges are decided by an
in-repo rational simplex, projective tensor seminorms come back as certified
intervals with re-verifiable witnesses on both sides, and the property suites
replay the algebraic laws the constructions rely on.
"""

from __future__ import annotations

from .elements import (
    INFINITE,
    DimensionMismatch,
    LatticeElement,
    LatticeHom,
    RieszSeminorm,
    SeminormFamily,
    UnsupportedSeminormKind,
    disjointify,
    polyhedral_gauge,
    riesz_decompose,
    weighted_l1,
    weighted_order_unit,
)
from .hulls import GeneratedSet, gauge, hull_law_check, member
from .projective import (
    Budget,
    Decomposition,
    DualCertificate,
    SeminormCertificate,
    cross_property_check,
    dual_lower_bound,
    gauge_equivalence_check,
    hausdorff_check,
    seminorm_certify,
    seminorm_closed_form,
)
from .tensor import (
    Membership,
    TensorElement,
    TensorNbhd,
    base_axiom_check,
    dominating_rank_one,
    nbhd_member,
    rank_one,
    rank_one_sup_recover,
)
from .universal import (
    InducedHom,
    LatticeBimorphism,
    continuity_certificate,
    hom_property_report,
    induce_hom,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Budget",
    "Decomposition",
    "DimensionMismatch",
    "DualCertificate",
    "GeneratedSet",
    "InducedHom",
    "LatticeBimorphism",
    "LatticeElement",
    "LatticeHom",
    "Membership",
    "RieszSeminorm",
    "SeminormCertificate",
    "SeminormFamily",
    "TensorElement",
    "TensorNbhd",
    "UnsupportedSeminormKind",
    "base_axiom_check",
    "continuity_certificate",
    "cross_property_check",
    "disjointify",
    "dominating_rank_one",
    "dual_lower_bound",
    "gauge",
    "gauge_equivalence_check",
    "hausdorff_check",
    "hom_property_report",
    "hull_law_check",
    "induce_hom",
    "member",
    "nbhd_member",
    "polyhedral_gauge",
    "rank_one",
    "rank_one_sup_recover",
    "riesz_decompose",
    "seminorm_certify",
    "seminorm_closed_form",
    "weighted_l1",
    "weighted_order_unit",
]
