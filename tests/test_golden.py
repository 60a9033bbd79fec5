"""Byte-for-byte regression of the files the package writes.

Each case runs one CLI call (or one writer) into an empty directory and
compares every file it leaves there, plus what it printed, with the
expected files under ``tests/golden/<case>/``. The expected files were
written from a known-good tree; regenerate them with
``PYTHONPATH=src python tests/test_golden.py`` only when an output format
changes on purpose, and review the diff.
"""

import contextlib
import io
import sys
from importlib import resources
from pathlib import Path

import pytest

from replicability.cli import main
from replicability.data import HypothesisRecord, StudyPairData
from replicability.dataio import parse_pvalue_csv, write_pvalue_csv

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = resources.files("replicability.fixtures")
CROHNS = str(FIXTURES / "crohns_disease.csv")
HIPPO = str(FIXTURES / "hippocampal_volume.csv")

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
procedure = fdr
q1 = 0.025
q = 0.05
reps = 20
seed = 7
sweep_axis = c
sweep_grid = 0.2, 0.5
"""


# one repetition and no replicable signal: the absent columns are empty
SCENARIO_NULL = SCENARIO.replace("f00 = 0.8", "f00 = 0.9").replace("f11 = 0.1", "f11 = 0.0")
SCENARIO_NULL = SCENARIO_NULL.replace("reps = 20", "reps = 1")


def _cli(*argv: str, scenario_text: str = SCENARIO):
    """A case running the CLI; ``{out}`` is the output directory and
    ``{scenario}`` a scenario file outside it."""

    def run(out: Path) -> None:
        scenario = out.parent / "scenario.txt"
        scenario.write_text(scenario_text, encoding="utf-8")
        args = [a.format(out=out, scenario=scenario) for a in argv]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(args) == 0
        if printed.getvalue():
            (out / "stdout.txt").write_text(printed.getvalue(), encoding="utf-8")

    return run


def _pvalue_roundtrip(out: Path) -> None:
    write_pvalue_csv(parse_pvalue_csv(CROHNS), out / "crohns.csv")


def _pvalue_partial(out: Path) -> None:
    records = [
        HypothesisRecord("a", 5.2e-8, 0.7),
        HypothesisRecord("b", 1.0),
        HypothesisRecord("c", 0.0, 5e-324),
        HypothesisRecord("d", 3.141592653589793e-12),
    ]
    write_pvalue_csv(StudyPairData(records, 2_500_000, 17), out / "partial.csv")


def _simulate(**keys: str):
    """A ``simulate`` case on SCENARIO without its sweep, with ``keys`` set."""
    lines = dict(line.split(" = ", 1) for line in SCENARIO.splitlines())
    del lines["sweep_axis"], lines["sweep_grid"]
    lines.update(keys)
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    return _cli("simulate", "--scenario", "{scenario}", "--out", "{out}/sim.csv", scenario_text=text)


_ORACLE = ("calibrate-oracle", "--f00", "0.999", "--f01", "0.00036", "--q", "0.05")

CASES = {
    "adjust_crohns_item1": _cli(
        "adjust", "--input", CROHNS, "--c", "0.8", "--dependence", "item1",
        "--out", "{out}/adjusted.csv",
    ),
    "adjust_crohns_item2": _cli(
        "adjust", "--input", CROHNS, "--c", "0.8", "--dependence", "item2",
        "--t", "5e-5", "--q", "0.05", "--out", "{out}/adjusted.csv",
    ),
    "adjust_crohns_both": _cli(
        "adjust", "--input", CROHNS, "--c", "0.8", "--dependence", "both",
        "--out", "{out}/adjusted.csv",
    ),
    "adjust_crohns_full_precision": _cli(
        "adjust", "--input", CROHNS, "--c", "0.8", "--dependence", "item1",
        "--full-precision", "--out", "{out}/adjusted.csv",
    ),
    "adjust_hippo_bonferroni": _cli(
        "adjust", "--input", HIPPO, "--c", "0.2", "--flavor", "bonferroni",
        "--out", "{out}/adjusted.csv",
    ),
    "analyze_crohns_fdr_item2": _cli(
        "analyze", "--input", CROHNS, "--q1", "0.04", "--q", "0.05",
        "--dependence", "item2", "--t", "5e-5", "--out", "{out}",
    ),
    "analyze_hippo_fwer_holm": _cli(
        "analyze", "--input", HIPPO, "--mode", "fwer", "--alpha1", "0.025",
        "--alpha", "0.05", "--method", "holm", "--out", "{out}",
    ),
    "oracle_crohns_w1_1": _cli(*_ORACLE, "--w1", "1", "--input", CROHNS, "--out", "{out}"),
    "simulate_sweep_c": _cli("simulate", "--scenario", "{scenario}", "--out", "{out}/sim.csv"),
    "simulate_null_one_rep": _cli(
        "simulate", "--scenario", "{scenario}", "--out", "{out}/sim.csv",
        scenario_text=SCENARIO_NULL,
    ),
    # 200 reps at m = 1000 span several chunks of repetitions
    "simulate_symmetric_both": _simulate(
        m="1000", procedure="fdr_symmetric", w1="0.5", dependence="both", reps="200",
    ),
    "simulate_oracle_half": _simulate(
        procedure="oracle", w1="0.5", mu1="1.5", mu2="1.5", reps="200",
    ),
    "simulate_fdr_item2_threshold": _simulate(
        dependence="item2", t="0.001", selection="threshold:0.001", reps="200",
    ),
    "simulate_fwer_holm_top": _simulate(
        procedure="fwer", method="holm", selection="top:5", reps="200",
    ),
    "simulate_sweep_w1": _simulate(
        procedure="fdr_symmetric", mu1="2", mu2="2", sweep_axis="w1",
        sweep_grid="0, 0.25, 0.5, 1", reps="100",
    ),
    "power_grid_c": _cli(
        "power", "--mu11", "3", "--mu21", "3", "--m", "1000", "--alpha", "0.05",
        "--grid-c", "0.1:0.9:5", "--out", "{out}/power.csv",
    ),
    "pvalue_csv_crohns": _pvalue_roundtrip,
    "pvalue_csv_partial": _pvalue_partial,
}


def _outputs(case: str, root: Path) -> dict[str, bytes]:
    out = root / case / "out"
    out.mkdir(parents=True)
    CASES[case](out)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}
    assert _outputs(case, tmp_path) == expected


def test_oracle_half_weight_on_partial_family_is_data_error(tmp_path):
    """Both directions need every row of the family, which Crohn's lacks."""
    args = [*_ORACLE, "--w1", "0.5", "--input", CROHNS, "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(args) == 2


def test_oracle_reversed_direction_on_partial_family_is_data_error(tmp_path):
    """At w1 = 0 study two is primary, and its family is the whole listing,
    which Crohn's gives only in part (36 rows of a declared m = 635547)."""
    args = [*_ORACLE, "--w1", "0", "--input", CROHNS, "--out", str(tmp_path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(args) == 2
    assert "reversed direction requires the full family" in err.getvalue()
    assert not any(tmp_path.iterdir())


def regenerate() -> None:
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            target = GOLDEN / case
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, content in _outputs(case, Path(tmp)).items():
                (target / name).write_bytes(content)
            print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
