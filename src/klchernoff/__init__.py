"""Chernoff-type tail bounds for the multinomial relative-entropy statistic.

Computes upper bounds on P(n * D(phat || p) > t) via a degree-n polynomial
bound on the statistic's moment generating function, inverts them into
critical values and simplex confidence bounds, and cross-checks every
analytic piece against exact enumeration and Monte Carlo at small scale.

Importing the package loads none of its submodules.  Each public name is
resolved on first use from the submodule that defines it (PEP 562), so a
CLI command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("bounds", "data", "gkn", "inversion", "oracle", "special")

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "ALL_METHODS",
            "BOUND_METHODS",
            "BoundResult",
            "CriticalValueQuery",
            "TailQuery",
            "agrawal_limit_bound",
            "asymp_gamma_tail",
            "chernoff_corrected",
            "chernoff_exact",
            "chernoff_exact_many",
            "chernoff_uncorrected",
            "critical_value",
            "evaluate_bound",
            "lambda_one_bound",
            "mardia_bound",
            "mardia_factor",
            "meaningful_threshold",
            "types_bound",
        ),
        "bounds",
    ),
    **dict.fromkeys(("FrequencyTable", "ProbVector", "butterfly_fixture_path", "butterfly_table"), "data"),
    **dict.fromkeys(
        (
            "ExperimentShape",
            "GknEvaluator",
            "build_evaluator",
            "eval_g2n_gamma_form",
            "eval_gkn",
            "eval_gkn_deriv",
            "eval_gkn_limit",
            "log_eval_gkn",
            "log_eval_gkn_grid",
            "recurrence_residual",
        ),
        "gkn",
    ),
    **dict.fromkeys(("CoordinateCI", "binary_kl", "coord_upper_bound", "unseen_upper_bound"), "inversion"),
    **dict.fromkeys(
        (
            "MCTailResult",
            "Outcome",
            "enumerate_outcomes",
            "gkn_from_definition",
            "kl_divergence",
            "mc_tail",
            "mgf_exact",
            "n_outcomes",
            "tail_exact",
        ),
        "oracle",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
