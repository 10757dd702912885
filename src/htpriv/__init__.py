"""Finite-alphabet toolkit for distributed hypothesis testing under privacy
constraints: trade-off region evaluation, finite-blocklength coding scheme
simulation, and exact small-n privacy audits."""

from .probcore import (
    Channel,
    JointPmf,
    Pmf,
    SequenceSample,
    binary_entropy,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    inv_binary_entropy,
    kl_divergence,
    mutual_information,
    star,
    total_variation,
)
from .regions import (
    CouplingProblem,
    FrontierConfig,
    HypothesisPair,
    TradeoffPoint,
    example1_closed_form,
    exponent_e1,
    exponent_e2,
    kappa_star,
    taci_frontier,
    taci_point,
    theorem1_point,
    theorem2_point,
    zero_rate_exponent,
    zero_rate_privacy,
)
from .schemes import (
    Codebook,
    MessageLaw,
    Scheme,
    SchemeConfig,
    TrialStats,
    build_codebook,
    likelihood_encode,
    make_scheme,
    min_entropy_decode,
    run_trials,
)
from .adversary import (
    PrivacyReport,
    SchemeModel,
    counterexample_curve,
    exact_causal_distortion,
    exact_equivocation,
    exact_errors,
    mc_privacy_estimate,
    scheme_model_for,
)

__version__ = "0.1.0"
