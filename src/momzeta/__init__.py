"""Moment zeta functions of distributions on [0,1] and their applications.

The package computes Z(s) = sum_k m_k^s for moment sequences m_k, evaluates
alternating binomial sums of such zeta values without cancellation, checks
them against closed-form growth laws, plays the covering game whose expected
duration those sums express, and measures the sum-integral defect behind the
Riemann-case error term.  See the README for the CLI.
"""

from .binom_sums import (
    AsymptoticPrediction,
    alt_sum_naive,
    alt_sum_stable,
    gamma_integral_identity_check,
    predict,
    riemann_zeta_source,
    scaled_riemann_zeta_source,
    uniform_zeta_source,
)
from .dist_core import (
    BetaEdge,
    EdgeDistribution,
    MomentSequence,
    PowerLawForm,
    PowerMoments,
    TabulatedDensity,
    Uniform,
    load_tabulated_csv,
    moment_sequence,
    riemann_sequence,
)
from .errors import (
    Divergence,
    DomainError,
    InvalidTail,
    MomentZetaError,
    PrecisionExhausted,
    QuadratureFailure,
    TailUnavailable,
    TooManySets,
)
from .euler_maclaurin import DefectResult, defect_direct, defect_dnform
from .game_sim import (
    GameParams,
    SimulationReport,
    expected_rounds,
    paper_T_inclusion_exclusion,
    paper_T_series,
    run_trials,
    win_prob_by,
    zeta_expectation_mc,
)
from .moment_zeta import SumResult, convergence_abscissa, moment_zeta

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "BetaEdge",
    "DefectResult",
    "Divergence",
    "DomainError",
    "EdgeDistribution",
    "GameParams",
    "InvalidTail",
    "MomentSequence",
    "MomentZetaError",
    "PowerLawForm",
    "PowerMoments",
    "PrecisionExhausted",
    "QuadratureFailure",
    "SimulationReport",
    "SumResult",
    "TabulatedDensity",
    "TailUnavailable",
    "TooManySets",
    "Uniform",
    "alt_sum_naive",
    "alt_sum_stable",
    "convergence_abscissa",
    "defect_direct",
    "defect_dnform",
    "expected_rounds",
    "gamma_integral_identity_check",
    "load_tabulated_csv",
    "moment_sequence",
    "moment_zeta",
    "paper_T_inclusion_exclusion",
    "paper_T_series",
    "predict",
    "riemann_sequence",
    "riemann_zeta_source",
    "run_trials",
    "scaled_riemann_zeta_source",
    "uniform_zeta_source",
    "win_prob_by",
    "zeta_expectation_mc",
    "__version__",
]
