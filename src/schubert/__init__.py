"""Exact Schubert calculus on Grassmannians.

Chow rings with their Schubert bases, characteristic classes,
Hirzebruch-Riemann-Roch, and the numerical classification of rank-two Fano
bundles on the Grassmannian of lines in P^4.  All arithmetic is exact
rational; no floating point anywhere.
"""

from .partitions import (
    Box,
    Partition,
    complement,
    enumerate_partitions,
    lr_coefficient,
    partition,
)
from .chow import ChowClass, GrassmannRing, dual_partition
from .charclass import (
    ChernVector,
    PowerSumVector,
    RankTwoData,
    line_bundle,
    rank_two_chern,
    tangent_bundle,
    tautological_quotient,
    tautological_subbundle,
    todd_log_coefficients,
)
from .hrr import EulerPolynomial, chi_p3, euler_characteristic, euler_polynomial
from .classify import (
    BundleType,
    CandidateRecord,
    ClassificationReport,
    G14,
    ReplayMismatch,
    SectionConstraints,
    SplittingType,
    Verdict,
    ample_twist,
    enumerate_candidates,
    fano_splitting_types,
    griffiths_filter,
    positivity_filter,
    replay_proof,
    restriction_to_p3,
    schur_filter,
    schwarzenberger_filter,
    section_constraints,
    split_detect,
    split_fano_bundles,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BundleType",
    "CandidateRecord",
    "ChernVector",
    "ChowClass",
    "ClassificationReport",
    "EulerPolynomial",
    "G14",
    "GrassmannRing",
    "Partition",
    "PowerSumVector",
    "RankTwoData",
    "ReplayMismatch",
    "SectionConstraints",
    "SplittingType",
    "Verdict",
    "ample_twist",
    "chi_p3",
    "complement",
    "dual_partition",
    "enumerate_candidates",
    "enumerate_partitions",
    "euler_characteristic",
    "euler_polynomial",
    "fano_splitting_types",
    "griffiths_filter",
    "line_bundle",
    "lr_coefficient",
    "partition",
    "positivity_filter",
    "rank_two_chern",
    "replay_proof",
    "restriction_to_p3",
    "schur_filter",
    "schwarzenberger_filter",
    "section_constraints",
    "split_detect",
    "split_fano_bundles",
    "tangent_bundle",
    "tautological_quotient",
    "tautological_subbundle",
    "todd_log_coefficients",
]
