"""Replicability analysis for a primary and a follow-up study.

A finding counts as replicated only when it is non-null in both studies.
This package tests families of such "no replicability" null hypotheses
with two-stage procedures that control the FWER or the FDR across the
whole pipeline, including the data-driven choice of which hypotheses to
follow up, plus dependence-robust variants, replicability adjusted
p-values, and a seeded Monte-Carlo engine for power and error studies.

The package logs through ``logging.getLogger("replicability")`` and is
silent unless the application configures that logger.
"""

import importlib
import logging
import os

# each public name by the module that defines it; a name loads its module
# on first use, so importing the package loads neither a module nor numpy
_HOMES = {
    "adjust": "AdjustedRow AdjustedTable build_adjusted_table",
    "data": "DiscoveryReport HypothesisRecord StudyPairData ValidationIssue validate_dataset",
    "dataio": "parse_pvalue_csv parse_scenario_file write_pvalue_csv",
    "datasets": "load_crohns_disease load_hippocampal_volume",
    "errors": "ApplicabilityError DataError ParameterError ReplicabilityError",
    "numeric": "chisq_survival_even_df harmonic solve_oracle_qprime solve_q1_tilde_thresholded "
    "std_normal_cdf std_normal_quantile",
    "params": "Dependence FwerMethod",
    "procedures": "Procedure fdr_symmetric fdr_two_stage fdr_two_stage_rscan "
    "fisher_combined_pvalues fwer_two_stage",
    "selection": "SelectionRule bh_reject probe_validity select",
    "sim": "SimEstimate SimScenario analytic_power_bonf_max analytic_power_two_stage "
    "generate_rep run_scenario sweep truth_block_sizes",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "AdjustedRow",
    "AdjustedTable",
    "ApplicabilityError",
    "DataError",
    "Dependence",
    "DiscoveryReport",
    "FwerMethod",
    "HypothesisRecord",
    "ParameterError",
    "Procedure",
    "ReplicabilityError",
    "SelectionRule",
    "SimEstimate",
    "SimScenario",
    "StudyPairData",
    "ValidationIssue",
    "analytic_power_bonf_max",
    "analytic_power_two_stage",
    "bh_reject",
    "build_adjusted_table",
    "chisq_survival_even_df",
    "fdr_symmetric",
    "fdr_two_stage",
    "fdr_two_stage_rscan",
    "fisher_combined_pvalues",
    "fwer_two_stage",
    "generate_rep",
    "harmonic",
    "load_crohns_disease",
    "load_hippocampal_volume",
    "parse_pvalue_csv",
    "parse_scenario_file",
    "probe_validity",
    "run_scenario",
    "select",
    "solve_oracle_qprime",
    "solve_q1_tilde_thresholded",
    "std_normal_cdf",
    "std_normal_quantile",
    "sweep",
    "truth_block_sizes",
    "validate_dataset",
    "write_pvalue_csv",
]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def _main() -> int:
    """The command line, as the ``replicability`` script and ``python -m
    replicability.cli`` run it. Nothing in the package calls BLAS, so it
    asks numpy's OpenBLAS, before numpy loads, for one thread instead of
    idle workers that spin; a caller's own setting wins. A library import
    leaves the environment alone."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main

    return main()
