import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import replicability
from conftest import BAD_PVALUE_FILES
from replicability import sim
from replicability.cli import main

HIPPO = resources.files("replicability.fixtures") / "hippocampal_volume.csv"
CROHNS = resources.files("replicability.fixtures") / "crohns_disease.csv"

SCENARIO = """\
m = 400
f00 = 0.9
f01 = 0.025
f10 = 0.025
f11 = 0.05
mu1 = 2.5
mu2 = 2.5
sigma1 = 0.5
sigma2 = 0.5
procedure = fdr
q1 = 0.025
q = 0.05
selection = bh
reps = 60
seed = 42
"""


@pytest.fixture
def crohns_csv(tmp_path):
    dst = tmp_path / "crohns.csv"
    shutil.copy(str(CROHNS), dst)
    return dst


@pytest.fixture
def hippo_csv(tmp_path):
    dst = tmp_path / "hippo.csv"
    shutil.copy(str(HIPPO), dst)
    return dst


def read_rejected(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,p1,p2,z,adjusted_p,rejected"
    return [row.split(",")[0] for row in lines[1:] if row.endswith(",1")]


class TestAnalyze:
    def test_fdr_crohns_all_36(self, crohns_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(crohns_csv), "--mode", "fdr",
            "--q1", "0.04", "--q", "0.05", "--out", str(out),
        ])
        assert code == 0
        assert len(read_rejected(out / "discoveries.csv")) == 36
        summary = (out / "summary.txt").read_text()
        assert "r2: 36" in summary
        assert "r1: 126" in summary
        assert "upper-bound" in summary

    def test_fdr_crohns_item2(self, crohns_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(crohns_csv), "--q1", "0.04", "--q", "0.05",
            "--dependence", "item2", "--t", "5e-5", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert len(read_rejected(out / "discoveries.csv")) == 23

    def test_fwer_hippocampal(self, hippo_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(hippo_csv), "--mode", "fwer",
            "--alpha1", "0.025", "--alpha", "0.05", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert read_rejected(out / "discoveries.csv") == ["MSRB3"]

    def test_quiet_prints_nothing(self, hippo_csv, tmp_path, capsys):
        main([
            "analyze", "--input", str(hippo_csv), "--mode", "fwer",
            "--alpha1", "0.025", "--alpha", "0.05",
            "--out", str(tmp_path / "o"), "--quiet",
        ])
        assert capsys.readouterr().out == ""

    def test_outputs_end_with_newline(self, hippo_csv, tmp_path):
        out = tmp_path / "out"
        main([
            "analyze", "--input", str(hippo_csv), "--mode", "fwer",
            "--alpha1", "0.025", "--alpha", "0.05", "--out", str(out), "--quiet",
        ])
        assert (out / "discoveries.csv").read_bytes().endswith(b"\n")
        assert (out / "summary.txt").read_bytes().endswith(b"\n")


    @pytest.mark.parametrize("mode, levels, spec, same_as", [
        ("fdr", ["--q1", "0.04", "--q", "0.05"], "bh", "bh:0.04"),
        ("fdr", ["--q1", "0.04", "--q", "0.05"], "bonferroni", "bonferroni:0.04"),
        # under fwer a level-less bh is the single-test threshold alpha1/m
        ("fwer", ["--alpha1", "0.025", "--alpha", "0.05"], "bh", "bonferroni:0.025"),
    ])
    def test_levelless_selection_runs_at_primary_level(
        self, crohns_csv, tmp_path, mode, levels, spec, same_as
    ):
        outputs = []
        for selection in (spec, same_as):
            out = tmp_path / selection.replace(":", "_")
            assert main([
                "analyze", "--input", str(crohns_csv), "--mode", mode, *levels,
                "--selection", selection, "--out", str(out), "--quiet",
            ]) == 0
            outputs.append((out / "discoveries.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["analyze"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_levels_are_usage(self, hippo_csv, capsys):
        code = main([
            "analyze", "--input", str(hippo_csv), "--q1", "0.05", "--q", "0.05",
        ])
        assert code == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,p1,p2\nrs1,zzz,0.1\n")
        code = main(["analyze", "--input", str(bad), "--q1", "0.01", "--q", "0.05"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_applicability_error_is_3(self, crohns_csv, tmp_path, capsys):
        # t above the thresholded-mode applicability bound
        code = main([
            "analyze", "--input", str(crohns_csv), "--q1", "0.04", "--q", "0.05",
            "--dependence", "item2", "--t", "0.04",
            "--out", str(tmp_path / "o"), "--quiet",
        ])
        assert code == 3
        assert "applicability" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_PVALUE_FILES))
    def test_bad_pvalues_are_data_errors(self, tmp_path, capsys, case):
        text, line, field = BAD_PVALUE_FILES[case]
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main([
            "analyze", "--input", str(bad), "--q1", "0.01", "--q", "0.05",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}:" in err and field in err

    def test_nan_is_not_absence(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "# m=2\nid,p1,p2\na,0.001,0.002\nb,nan,0.01\nc,0.0001,nan\n"
            "c,1.5,-0.3\nd,inf,\n"
        )
        code = main([
            "analyze", "--input", str(bad), "--q1", "0.01", "--q", "0.05",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        # the first fault in the file: p1 on line 4, before the nan p2 on line 5
        assert f"{bad}:4: record 1 ('b'): p1 out of range: nan" in capsys.readouterr().err
        bad.write_text("id,p1,p2\na,0.001,0.002\nc,0.0001,nan\nd,zzz,\n")
        assert main(["analyze", "--input", str(bad), "--q1", "0.01", "--q", "0.05"]) == 2
        assert f"{bad}:3: record 1 ('c'): p2 out of range: nan" in capsys.readouterr().err

    def test_io_error_is_4(self, capsys):
        code = main(["analyze", "--input", "/nonexistent/x.csv", "--q1", "0.01", "--q", "0.05"])
        assert code == 4


class TestAdjust:
    def test_table_output(self, crohns_csv, tmp_path):
        out = tmp_path / "adjusted.csv"
        code = main([
            "adjust", "--input", str(crohns_csv), "--c", "0.8",
            "--flavor", "fdr", "--dependence", "item1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,p1,p2,z,adjusted_p,adjusted_p_modified"
        assert lines[1].startswith("chr1:67417979,")
        # default table precision is 4 significant digits
        assert "3.19e-34" in lines[1]

    def test_full_precision_flag(self, hippo_csv, tmp_path):
        out = tmp_path / "adjusted.csv"
        main([
            "adjust", "--input", str(hippo_csv), "--c", "0.2",
            "--flavor", "bonferroni", "--out", str(out), "--full-precision",
        ])
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[0] == "MSRB3"
        # round-trip form: parsing the field recovers the exact double
        assert float(row[4]) == 2.5e6 * 5.5e-9 / 0.2


class TestSimulate:
    def test_deterministic_across_workers(self, tmp_path):
        scen = tmp_path / "s.txt"
        chunk = sim._CHUNK_VALUES // 400
        reps = 3 * chunk + chunk // 2
        assert -(-reps // chunk) == 4  # four chunks at m = 400, the last one short
        scen.write_text(SCENARIO.replace("reps = 60", f"reps = {reps}"))
        outputs = []
        for workers in ("1", "2", "8"):
            out = tmp_path / f"w{workers}.csv"
            assert main([
                "simulate", "--scenario", str(scen), "--out", str(out), "--workers", workers,
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        header = outputs[0].decode().splitlines()[0]
        assert header == "point,avg_fdp,fdp_se,avg_power,power_se,avg_rejections"

    def test_item2_violation_is_data_error_as_in_analyze(self, tmp_path, capsys):
        # bh selection admits primary p-values above t = 1e-6, which the
        # thresholded dependence mode forbids; analyze refuses the same
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO + "dependence = item2\nt = 1e-6\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "at most t=1e-06" in capsys.readouterr().err

    def test_unknown_key_is_data_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO + "wат = 1\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2

    def test_workers_below_one_is_usage_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO)
        assert main(["simulate", "--scenario", str(scen), "--workers", "-3"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO.replace("seed = 42", "seed = -1"))
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_oracle_w1_off_grid_is_data_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO.replace("procedure = fdr", "procedure = oracle") + "w1 = 0.3\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "w1" in err

    @pytest.mark.parametrize("spec", ["followup", "bh:1.5", "top:0"])
    def test_selection_not_runnable_is_data_error(self, tmp_path, capsys, spec):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO.replace("selection = bh", f"selection = {spec}"))
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "selection" in capsys.readouterr().err

    def test_sweep_rows(self, tmp_path):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO + "sweep_axis = mu\nsweep_grid = 2.0, 3.0\n")
        out = tmp_path / "sweep.csv"
        assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("2.0,")


class TestPower:
    def test_pi1_null(self, capsys):
        assert main([
            "power", "--mu11", "0", "--mu21", "0", "--m", "100", "--alpha", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "pi1 = 2.5e-07" in out

    def test_pi2_single(self, capsys):
        assert main([
            "power", "--mu11", "3", "--mu21", "3", "--m", "1",
            "--alpha1", "0.025", "--alpha", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "pi2 = " in out

    def test_grid_mode(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main([
            "power", "--mu11", "4.5", "--mu21", "4.5", "--m", "100",
            "--alpha", "0.05", "--grid-c", "0.2:0.8:7", "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "c,power"
        assert len(lines) == 8


class TestCalibrateOracle:
    def test_prints_level(self, capsys):
        assert main([
            "calibrate-oracle", "--f00", "0.999", "--f01", "0.00036",
            "--q", "0.05", "--w1", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "q_prime = 0.047709" in out

    def test_half_weight(self, capsys):
        main([
            "calibrate-oracle", "--f00", "0.999", "--f01", "0.00036",
            "--q", "0.05", "--w1", "0.5",
        ])
        assert "q_prime = 0.0487932" in capsys.readouterr().out

    def test_degenerate(self, capsys):
        main(["calibrate-oracle", "--f00", "0", "--f01", "0", "--q", "0.05"])
        assert "q_prime = 0.05" in capsys.readouterr().out

    def test_with_input_runs_procedure(self, crohns_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main([
            "calibrate-oracle", "--f00", "0.999", "--f01", "0.00036",
            "--q", "0.05", "--w1", "1", "--input", str(crohns_csv),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "discoveries.csv").exists()


class TestProbeSelection:
    def test_clean_rule(self, crohns_csv, capsys):
        code = main([
            "probe-selection", "--input", str(crohns_csv),
            "--selection", "threshold:5e-5", "--grid-size", "8",
        ])
        assert code == 0
        assert "counterexamples=0" in capsys.readouterr().out


def test_cli_loads_no_scipy(tmp_path, crohns_csv):
    """scipy is a test oracle only: the CLI's import and its analyze,
    simulate and power commands run in a fresh process without it."""
    scen = tmp_path / "s.txt"
    scen.write_text(SCENARIO.replace("reps = 60", "reps = 3"))
    calls = [
        ["analyze", "--input", str(crohns_csv), "--mode", "fdr", "--q1", "0.04",
         "--q", "0.05", "--out", str(tmp_path / "analyze")],
        ["simulate", "--scenario", str(scen), "--out", str(tmp_path / "sim.csv")],
        ["power", "--mu11", "3", "--mu21", "3", "--m", "1000", "--alpha1", "0.025",
         "--alpha", "0.05"],
    ]
    script = f"""
import sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
from replicability.cli import main
assert not scipy_modules(), ("import", scipy_modules())
for argv in {calls!r}:
    assert main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules())
"""
    src = str(Path(replicability.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
