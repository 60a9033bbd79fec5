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

import logging

from .adjust import AdjustedRow, AdjustedTable, build_adjusted_table
from .data import (
    DiscoveryReport,
    HypothesisRecord,
    StudyPairData,
    ValidationIssue,
    validate_dataset,
)
from .dataio import parse_pvalue_csv, parse_scenario_file, write_pvalue_csv
from .datasets import load_crohns_disease, load_hippocampal_volume
from .errors import ApplicabilityError, DataError, ParameterError, ReplicabilityError
from .numeric import (
    chisq_survival_even_df,
    harmonic,
    solve_oracle_qprime,
    solve_q1_tilde_thresholded,
    std_normal_cdf,
    std_normal_quantile,
)
from .procedures import (
    Dependence,
    FwerMethod,
    Procedure,
    fdr_symmetric,
    fdr_two_stage,
    fdr_two_stage_rscan,
    fisher_combined_pvalues,
    fwer_two_stage,
)
from .selection import SelectionRule, bh_reject, probe_validity, select
from .sim import (
    SimEstimate,
    SimScenario,
    analytic_power_bonf_max,
    analytic_power_two_stage,
    generate_rep,
    run_scenario,
    sweep,
    truth_block_sizes,
)

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
