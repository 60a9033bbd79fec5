"""Each procedure reads only its own parameters. ``procedures._KINDS``
is the one table of them; ``Procedure``, scenario files and
``analyze`` refuse every other parameter, and the README documents the
same table."""

import contextlib
import io
import re
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

from replicability import dataio, procedures
from replicability.cli import main
from replicability.errors import ParameterError
from replicability.procedures import Dependence, FwerMethod, Procedure
from replicability.selection import SelectionRule

README = Path(__file__).resolve().parent.parent / "README.md"
READS = {kind: reads for kind, (reads, _, _) in procedures._KINDS.items()}
HIPPO = str(resources.files("replicability.fixtures") / "hippocampal_volume.csv")

SCENARIO = """\
m = 50
f00 = 0.8
f01 = 0.05
f10 = 0.05
f11 = 0.1
mu1 = 2.5
mu2 = 2.5
sigma1 = 0.5
sigma2 = 0.5
reps = 5
"""

# field: a value other than its default, its scenario key, and that value in a file
FIELD_INPUT = {
    "q1": (0.02, "q1", "0.02"),
    "w1": (0.5, "w1", "0.5"),
    "mode": (Dependence.ARBITRARY_PRIMARY_ITEM2, "dependence", "item2"),
    "t": (0.001, "t", "0.001"),
    "fwer_method": (FwerMethod.HOLM, "method", "holm"),
    "primary": (2, "primary", "2"),
    "selection": (SelectionRule("top_k", k=5), "selection", "top:5"),
}
UNREAD = [
    (kind, f.name)
    for kind in READS
    for f in fields(Procedure)
    if f.name not in ("kind", *READS[kind])
]


def _levels(kind: str) -> dict:
    return {"q1": 0.025} if "q1" in READS[kind] else {}


def _cli(argv, tmp_path, scenario=None):
    """The exit code and stderr of one CLI call; ``{scenario}`` in ``argv``
    is a file holding ``scenario``, ``{out}`` an output directory."""
    path = tmp_path / "s.txt"
    if scenario is not None:
        path.write_text(scenario)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([a.format(scenario=path, out=tmp_path / "o") for a in argv])
    return code, err.getvalue()


def _library(kind, field):
    def run(tmp_path):
        try:
            Procedure(kind=kind, **_levels(kind), **{field: FIELD_INPUT[field][0]})
        except ParameterError as exc:  # the class the CLI exits 1 with
            return 1, str(exc)
        return 0, ""
    return run, 1, [f"procedure {kind!r} does not read {field}"]


def _scenario_file(kind, lines: str, needles):
    text = SCENARIO + f"procedure = {kind}\n" + lines
    return (
        lambda tmp_path: _cli(["simulate", "--scenario", "{scenario}"], tmp_path, text),
        2, ["{scenario}", *needles],
    )


def _unread_key(kind, field):
    _, key, value = FIELD_INPUT[field]
    levels = "".join(f"{name} = {v}\n" for name, v in _levels(kind).items())
    return _scenario_file(kind, f"{levels}{key} = {value}\n", [f"does not read {key}"])


def _analyze(*flags):
    argv = ["analyze", "--input", HIPPO, "--out", "{out}", *flags]
    return lambda tmp_path: _cli(argv, tmp_path)


CASES = {
    **{f"library-{kind}-{field}": _library(kind, field) for kind, field in UNREAD},
    **{f"file-{kind}-{field}": _unread_key(kind, field) for kind, field in UNREAD},
    "file-oracle-alpha1": _scenario_file("oracle", "alpha1 = 0.02\n", ["does not read alpha1"]),
    "analyze-fdr-method": (
        _analyze("--q1", "0.025", "--q", "0.05", "--method", "holm"), 1, ["--method"],
    ),
    "analyze-fwer-dependence": (
        _analyze("--mode", "fwer", "--alpha1", "0.025", "--alpha", "0.05",
                 "--dependence", "item1"), 1, ["--dependence"],
    ),
    # t is read by the thresholded dependence mode only
    "analyze-fdr-t": (
        _analyze("--q1", "0.025", "--q", "0.05", "--t", "0.001"),
        1, ["independent does not read t"],
    ),
    "file-fdr-t": _scenario_file(
        "fdr", "q1 = 0.025\ndependence = item1\nt = 0.001\n",
        ["arbitrary_primary_item1 does not read t"],
    ),
    "analyze-fwer-t": (
        _analyze("--mode", "fwer", "--alpha1", "0.025", "--alpha", "0.05", "--t", "0.001"),
        1, ["--t"],
    ),
    **{
        f"analyze-{mode}-q1-alpha1": (
            _analyze("--mode", mode, "--q1", "0.025", "--alpha1", "0.025", "--q", "0.05"),
            1, ["--alpha1 and --q1"],
        )
        for mode in ("fdr", "fwer")
    },
    "analyze-fdr-q-alpha": (
        _analyze("--q1", "0.025", "--q", "0.05", "--alpha", "0.05"), 1, ["--alpha and --q"],
    ),
    "file-fdr-q1-alpha1": _scenario_file(
        "fdr", "q1 = 0.025\nalpha1 = 0.025\n", ["alpha1 and q1"],
    ),
    "file-fwer-q-alpha": _scenario_file(
        "fwer", "alpha1 = 0.025\nq = 0.05\nalpha = 0.05\n", ["alpha and q"],
    ),
    "file-fdr-w1-sweep": _scenario_file(
        "fdr", "q1 = 0.025\nsweep_axis = w1\nsweep_grid = 1, 0.5\n", ["does not read w1"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_unread_or_doubled_parameter_refused(case, tmp_path):
    run, code, needles = CASES[case]
    got, message = run(tmp_path)
    assert got == code
    for needle in needles:
        assert needle.format(scenario=tmp_path / "s.txt") in message


def test_every_kind_has_one_table_entry():
    """Each kind's one entry in ``procedures._KINDS`` holds the fields it
    reads, its library procedure and its row kernel: a kind without all
    three could be built but never run."""
    names = {f.name for f in fields(Procedure)} - {"kind"}
    for kind, (reads, run, kernel) in procedures._KINDS.items():
        assert set(reads) <= names and callable(run) and callable(kernel), kind


@pytest.mark.parametrize("selection", ["bh", ("bh", 0.02), None])
def test_selection_must_be_a_rule(selection):
    """A selection given as anything but a :class:`SelectionRule` is refused
    when the procedure is built, not when it first runs."""
    with pytest.raises(ParameterError, match="selection must be a SelectionRule"):
        Procedure(kind="fdr", q1=0.02, selection=selection)


def test_oracle_needs_its_fractions():
    oracle = Procedure(kind="oracle", q=0.05, selection=SelectionRule("followup"))
    data = dataio.parse_pvalue_csv(HIPPO)
    with pytest.raises(ParameterError, match="fractions"):
        oracle.run(data)
    assert oracle.run(data, (0.9, 0.05)).procedure.startswith("oracle[")


def test_selection_that_needs_a_dataset_runs_only_in_the_library():
    fdr = Procedure(q1=0.025, selection=SelectionRule("followup"))
    assert fdr.run(dataio.parse_pvalue_csv(HIPPO)).procedure.startswith("fdr_two_stage")
    with pytest.raises(
        ParameterError, match="^followup selection is not made from primary p-values alone"
    ):
        fdr.kernel(100)


def test_read_parameters_run(tmp_path):
    """Every field a kind reads is accepted, from a file too."""
    for kind, reads in READS.items():
        lines = "".join(
            f"{FIELD_INPUT[name][1]} = {FIELD_INPUT[name][2]}\n" for name in reads if name != "q"
        )
        path = tmp_path / f"{kind}.txt"
        path.write_text(SCENARIO + f"procedure = {kind}\n" + lines)
        assert dataio.parse_scenario_file(path).scenario.procedure.kind == kind


def _readme_key_table() -> list[list[str]]:
    """The cells of each row of the README's scenario-key table."""
    text = README.read_text(encoding="utf-8")
    start = text.index("| key | default | read by | meaning |")
    rows = []
    for line in text[start:].splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_scenario_keys_match_the_tables():
    """The README lists every scenario key once, and says which procedures
    read each one, as ``procedures._KINDS`` does."""
    everyone = set(READS)
    listed = []
    for keys, _, read_by, _ in _readme_key_table():
        row_keys = re.findall(r"`([^`]+)`", keys)
        listed += row_keys
        kinds = everyone if read_by == "all" else {k.strip() for k in read_by.split(",")}
        for key in row_keys:
            name = dataio._SCENARIO_KEYS.get(key, (None,))[0]
            if name in dataio._PROCEDURE_FIELDS - {"kind"}:
                assert kinds == {k for k, reads in READS.items() if name in reads}, key
            else:
                assert kinds == everyone, key
    assert sorted(listed) == sorted([*dataio._SCENARIO_KEYS, "sweep_axis", "sweep_grid"])
