"""Closed-form pluricomplex Green and Moebius values on complex
ellipsoids with poles along coordinate hyperplanes, plus the extremal
certificates and numeric verification harness around them."""

from .core import (
    BatchResult,
    Ellipsoid,
    EvalResult,
    ball_value,
    ball_value_batch,
    evaluate,
    evaluate_batch,
    membership,
    polydisc_value,
    weighted_am_gm,
)
from .certificates import (
    GreenCertificate,
    MobiusCertificate,
    MonomialWitness,
    PoleProfileParams,
    PolydiscEmbedding,
    green_certificate,
    mobius_certificate,
    monomial_witness,
    polydisc_embedding,
)
from .errors import (
    DomainError,
    HypothesisNotMet,
    InfeasibleCertificate,
    InputError,
    InvariantViolation,
)
from .gap import (
    FamilySearchResult,
    ObstructionWindow,
    barrier,
    barrier_minus_one,
    barrier_prime,
    candidate_family_search,
    concavity_window,
    exclusion_demo,
    find_chord_point,
    pole_slope_diagnostics,
    pole_slope_quadratic,
    random_polynomials,
    shifted_pole_certificate,
    stationary_pole,
)
from .oracle import (
    OptimizerConfig,
    VerificationReport,
    continuity_scan,
    fd_gradient,
    golden_max,
    maximize_profile,
    polydisc_ladder,
    polydisc_limit_reports,
    sample_interior,
    sample_interior_moduli,
    transition_segments,
)
from .verify import (
    VerifyConfig,
    suite_ball,
    suite_continuity,
    suite_green,
    suite_mobius,
    suite_polydisc,
    suite_shifted_pole,
    suite_soundness,
    verify_bundle,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BatchResult", "Ellipsoid", "EvalResult", "ball_value", "ball_value_batch",
    "evaluate", "evaluate_batch", "membership", "polydisc_value", "weighted_am_gm",
    "GreenCertificate", "MobiusCertificate", "MonomialWitness",
    "PoleProfileParams", "PolydiscEmbedding", "green_certificate",
    "mobius_certificate", "monomial_witness", "polydisc_embedding",
    "DomainError", "HypothesisNotMet", "InfeasibleCertificate", "InputError",
    "InvariantViolation",
    "FamilySearchResult", "ObstructionWindow", "barrier", "barrier_minus_one",
    "barrier_prime", "candidate_family_search", "concavity_window",
    "exclusion_demo", "find_chord_point", "pole_slope_diagnostics",
    "pole_slope_quadratic", "random_polynomials", "shifted_pole_certificate",
    "stationary_pole",
    "OptimizerConfig", "VerificationReport", "continuity_scan", "fd_gradient",
    "golden_max", "maximize_profile", "polydisc_ladder",
    "polydisc_limit_reports", "sample_interior", "sample_interior_moduli",
    "transition_segments",
    "VerifyConfig", "suite_ball", "suite_continuity", "suite_green",
    "suite_mobius", "suite_polydisc", "suite_shifted_pole", "suite_soundness",
    "verify_bundle", "verify_certificate",
    "__version__",
]
