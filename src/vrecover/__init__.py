"""Exact sparse recovery from products of Vandermonde matrices.

Phase-aware measurements y = V(z)^T V(theta) g determine (theta, g) exactly
from m >= 2s well-chosen samples; squared-modulus measurements determine the
support, the coefficient magnitudes, and a small explicit candidate set that
one extra measurement disambiguates. This package implements both pipelines
on top of exact polynomial root finding, plus brute-force oracles and a
reproducible experiment harness.
"""

from .config import Tolerances, load_tolerances
from .cpoly import (
    forward_polys,
    laurent_conj,
    laurent_from_products,
    laurent_sqrt,
    pair_conjugate_reciprocal,
    poly_roots,
)
from .errors import (
    InvalidInputError,
    ModelMismatchError,
    RecoveryFailureError,
    VRecoverError,
)
from .oracle import (
    brute_force_cs,
    brute_force_phaseless_candidates,
    forward_phase,
    forward_phaseless,
)
from .recover_phase import PhaseInstance, PhaseResult, recover_r1, recover_r2
from .recover_phaseless import (
    BRANCH_DEGENERATE,
    BRANCH_DUAL,
    BRANCH_HARMONIC,
    PhaselessInstance,
    PhaselessResult,
    disambiguate,
    dual_transform,
    enumerate_candidates_harmonic,
    magnitudes_general,
    magnitudes_harmonic,
    recover_general,
    recover_r3,
    recover_r5,
    recover_support_harmonic,
    split_and_enumerate_general,
)
from .structmat import (
    SampleSet,
    build_A,
    build_B,
    build_G,
    build_Gtilde,
    measurement_matrix,
    null_space,
    pinv_solve,
    shifted_harmonics,
    vandermonde,
)

__version__ = "0.1.0"
