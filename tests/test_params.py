"""The one count check, ``params.check_count``, and every count it guards:
a bool is an ``Integral`` and a float may hold an integer, and neither is
a count."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import make_data
from replicability.errors import ParameterError
from replicability.numeric import solve_q1_tilde_thresholded
from replicability.params import check_count
from replicability.procedures import Procedure
from replicability.selection import SelectionRule, probe_validity
from replicability.sim import (
    SimScenario,
    analytic_power_bonf_max,
    analytic_power_two_stage,
    generate_rep,
    run_scenario,
)

SCENARIO = SimScenario(
    m=20, f00=0.9, f01=0.0, f10=0.0, f11=0.1, mu1=3.0, mu2=3.0,
    sigma1=1.0, sigma2=1.0, reps=2, seed=1,
)
DATA = make_data([0.01, 0.2, 0.5], [0.02, 0.3, None])
TOP = SelectionRule("top_k", k=1)

# call site: (field the message names, the call on a given count)
CALLS = {
    "SelectionRule.k": ("k", lambda v: SelectionRule("top_k", k=v)),
    "probe_validity.grid_size": ("grid_size", lambda v: probe_validity(TOP, DATA, grid_size=v)),
    "probe_validity.seed": ("seed", lambda v: probe_validity(TOP, DATA, seed=v)),
    "generate_rep.rep_index": ("rep_index", lambda v: generate_rep(SCENARIO, v)),
    "run_scenario.workers": ("workers", lambda v: run_scenario(SCENARIO, workers=v)),
    "SimScenario.m": ("m", lambda v: replace(SCENARIO, m=v)),
    "SimScenario.reps": ("reps", lambda v: replace(SCENARIO, reps=v)),
    "SimScenario.seed": ("seed", lambda v: replace(SCENARIO, seed=v)),
    "analytic_power_bonf_max.m": ("m", lambda v: analytic_power_bonf_max(3.0, 3.0, v, 0.05)),
    "analytic_power_two_stage.m": (
        "m", lambda v: analytic_power_two_stage(3.0, 3.0, v, 0.025, 0.05)
    ),
    "solve_q1_tilde_thresholded.m": ("m", lambda v: solve_q1_tilde_thresholded(0.04, v, 1e-5)),
    "Procedure.primary": ("primary", lambda v: Procedure(kind="naive_bh_bh", q=0.05, primary=v)),
}
# every call site, given a bool and a float equal to a count it accepts
COUNTS = [(site, value) for site in CALLS for value in (True, 2.0)]


@pytest.mark.parametrize("site, value", COUNTS, ids=[f"{s}={v!r}" for s, v in COUNTS])
def test_bool_and_float_counts_refused(site, value):
    name, call = CALLS[site]
    with pytest.raises(ParameterError, match=rf"\b{name}\b"):
        call(value)


@pytest.mark.parametrize("site", CALLS)
def test_integer_counts_accepted(site):
    CALLS[site][1](np.int64(2))  # a numpy integer is a count
    CALLS[site][1](2)


@pytest.mark.parametrize("value, minimum, message", [
    (-1, 0, "n must be a non-negative integer, got -1"),
    (1, 2, "n must be an integer of at least 2, got 1"),
    (False, 0, "n must be a non-negative integer, got False"),
    (1.0, 1, "n must be an integer of at least 1, got 1.0"),
    ("3", 1, "n must be an integer of at least 1, got '3'"),
    (None, 0, "n must be a non-negative integer, got None"),
])
def test_check_count_names_the_field(value, minimum, message):
    with pytest.raises(ParameterError) as err:
        check_count("n", value, minimum)
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: SelectionRule("top_k", k=0), "k must be an integer of at least 1, got 0"),
    (lambda: run_scenario(SCENARIO, workers=0), "workers must be an integer of at least 1, got 0"),
    (lambda: replace(SCENARIO, m=0), "m must be an integer of at least 1, got 0"),
    (lambda: replace(SCENARIO, reps=0), "reps must be an integer of at least 1, got 0"),
    (lambda: Procedure(kind="naive_bh_bh", primary=3), "primary study must be 1 or 2, got 3"),
    (
        lambda: probe_validity(TOP, DATA, grid_size=1),
        "grid_size must be an integer of at least 2, got 1",
    ),
    (lambda: generate_rep(SCENARIO, -1), "rep_index must be a non-negative integer, got -1"),
])
def test_out_of_range_counts_keep_their_messages(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert str(err.value) == message
