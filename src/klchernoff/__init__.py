"""Chernoff-type tail bounds for the multinomial relative-entropy statistic.

Computes upper bounds on P(n * D(phat || p) > t) via a degree-n polynomial
bound on the statistic's moment generating function, inverts them into
critical values and simplex confidence bounds, and cross-checks every
analytic piece against exact enumeration and Monte Carlo at small scale.
"""

from .bounds import (
    ALL_METHODS,
    BOUND_METHODS,
    BoundResult,
    TailQuery,
    agrawal_limit_bound,
    asymp_gamma_tail,
    chernoff_corrected,
    chernoff_exact,
    chernoff_uncorrected,
    evaluate_bound,
    lambda_one_bound,
    mardia_bound,
    mardia_factor,
    meaningful_threshold,
    types_bound,
)
from .data import FrequencyTable, ProbVector, butterfly_fixture_path, butterfly_table
from .gkn import (
    ExperimentShape,
    GknEvaluator,
    build_evaluator,
    eval_g2n_gamma_form,
    eval_gkn,
    eval_gkn_deriv,
    eval_gkn_limit,
    log_eval_gkn,
    log_eval_gkn_grid,
    recurrence_residual,
)
from .inversion import (
    CoordinateCI,
    CriticalValueQuery,
    binary_kl,
    coord_upper_bound,
    critical_value,
    unseen_upper_bound,
)
from .oracle import (
    MCTailResult,
    Outcome,
    enumerate_outcomes,
    gkn_from_definition,
    kl_divergence,
    mc_tail,
    mgf_exact,
    n_outcomes,
    tail_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "BOUND_METHODS",
    "BoundResult",
    "CoordinateCI",
    "CriticalValueQuery",
    "ExperimentShape",
    "FrequencyTable",
    "GknEvaluator",
    "MCTailResult",
    "Outcome",
    "ProbVector",
    "TailQuery",
    "agrawal_limit_bound",
    "asymp_gamma_tail",
    "binary_kl",
    "build_evaluator",
    "butterfly_fixture_path",
    "butterfly_table",
    "chernoff_corrected",
    "chernoff_exact",
    "chernoff_uncorrected",
    "coord_upper_bound",
    "critical_value",
    "enumerate_outcomes",
    "eval_g2n_gamma_form",
    "eval_gkn",
    "eval_gkn_deriv",
    "eval_gkn_limit",
    "evaluate_bound",
    "gkn_from_definition",
    "kl_divergence",
    "lambda_one_bound",
    "log_eval_gkn",
    "log_eval_gkn_grid",
    "mardia_bound",
    "mardia_factor",
    "mc_tail",
    "meaningful_threshold",
    "mgf_exact",
    "n_outcomes",
    "recurrence_residual",
    "tail_exact",
    "types_bound",
    "unseen_upper_bound",
]
