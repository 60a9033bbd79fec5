import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import replicability
from conftest import BAD_PVALUE_FILES
from replicability import dataio, selection, sim
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
POWER = ["power", "--mu11", "3", "--mu21", "3", "--m", "1000", "--alpha1", "0.025",
         "--alpha", "0.05"]


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


class TestByteOrderMark:
    """Excel's "CSV UTF-8" starts a file with the bytes EF BB BF."""

    @pytest.mark.parametrize("fixture", [HIPPO, CROHNS])
    def test_analyze_reads_a_bom_copy_as_the_original(self, tmp_path, fixture):
        outputs = []
        for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / name / "in.csv"
            path.parent.mkdir()
            path.write_bytes(head + fixture.read_bytes())
            out = path.parent / "out"
            assert main([
                "analyze", "--input", str(path), "--q1", "0.04", "--q", "0.05",
                "--out", str(out), "--quiet",
            ]) == 0
            outputs.append([(out / f).read_bytes() for f in ("discoveries.csv", "summary.txt")])
        assert outputs[0] == outputs[1]

    def test_simulate_reads_a_bom_scenario_as_the_original(self, tmp_path, capsys):
        printed = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            path = tmp_path / f"{name}.txt"
            path.write_text(SCENARIO, encoding=encoding)
            assert main(["simulate", "--scenario", str(path)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1] and printed[0].startswith("point,")


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["analyze"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_levels_are_usage(self, hippo_csv, capsys):
        code = main([
            "analyze", "--input", str(hippo_csv), "--q1", "0.05", "--q", "0.05",
        ])
        assert code == 1

    def test_q1_without_q_is_usage(self, hippo_csv, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["analyze", "--input", str(hippo_csv), "--q1", "0.04", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "usage error: fdr mode needs --q1 (or --alpha1) and --q (or --alpha)\n"
        )

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

    @pytest.mark.parametrize("flags, message", [
        (["--q1", "abc", "--q", "0.05"], "cannot parse --q1 value 'abc'"),
        (["--q1", "0.04", "--q", "0.05", "--dependence", "item2", "--t", "x"],
         "cannot parse --t value 'x'"),
        (["--mode", "fwer", "--alpha1", "0.01", "--alpha", "0.05", "--method", "foo"],
         "'foo' is not a valid FwerMethod; expected one of bonferroni, holm"),
    ], ids=["q1", "t", "method"])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, flags, message):
        # parsed as the scenario key of the same name, before the input is read
        missing = tmp_path / "missing.csv"
        assert main(["analyze", "--input", str(missing), *flags]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--mode", "fwer", "--q1", "0.01", "--q", "0.05", "--out", "o"],
        ["adjust", "--c", "0.5", "--out", "a.csv"],
        ["calibrate-oracle", "--f00", "0.9", "--f01", "0.01", "--q", "0.05", "--out", "o"],
        ["probe-selection", "--selection", "top:1"],
    ], ids=["analyze_fwer", "adjust", "calibrate_oracle", "probe_selection"])
    def test_empty_family_is_data_error_naming_file(self, tmp_path, capsys, monkeypatch, argv):
        # a header and no rows or # m=: every reading command refuses it, as
        # test_bad_pvalues_are_data_errors shows for analyze in fdr mode
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "empty.csv"
        bad.write_text("id,p1,p2\n")
        assert main([*argv[:1], "--input", str(bad), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{bad}:1: family" in err

    @pytest.mark.parametrize("directive", [
        "# m=2.5e6", "# m = 2,500,000", "# M=2500000", "# m=2_500_000", "# r1=1e3",
        "# m=2500000 # screened",
    ])
    @pytest.mark.parametrize("line", [1, 4], ids=["before_header", "after_rows"])
    def test_malformed_directive_is_data_error(self, tmp_path, capsys, directive, line):
        # read as a comment, the directive would leave m = 2, the rows listed
        lines = ["id,p1,p2", "a,1e-8,0.001", "b,0.02,0.01"]
        lines.insert(line - 1, directive)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(bad), "--q1", "0.025", "--q", "0.05", "--out", str(out),
        ])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "" and not out.exists()
        assert err.startswith(f"data error: {bad}:{line}: malformed directive {directive!r}")

    @pytest.mark.parametrize("first, repeat", [
        ("# m=2500000", "# m=2"), ("# m=2500000", "# m=2500000"), ("# r1=2", "#r1 = 2"),
    ], ids=["m", "m_same_value", "r1"])
    def test_repeated_directive_is_data_error(self, tmp_path, capsys, first, repeat):
        # read last, "# m=2" would run the rows at m = 2: 2 rejections at 0.025, not 1 at 1e-08
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{first}\nid,p1,p2\na,1e-8,0.001\nb,0.02,0.01\n{repeat}\n")
        out = tmp_path / "o"
        code = main([
            "analyze", "--input", str(bad), "--q1", "0.025", "--q", "0.05", "--out", str(out),
        ])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "" and not out.exists()
        name = first[2:].split("=")[0]
        message = f"repeated directive {repeat!r}; {name} is declared on line 1"
        assert err == f"data error: {bad}:5: {message}\n"

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

    @pytest.mark.parametrize("argv", [
        pytest.param(["adjust", "--input", "{bad}", "--c", "1.5"], id="adjust_c_bad_row"),
        pytest.param(
            ["adjust", "--input", "{missing}", "--c", "1.5", "--dependence", "sideways"],
            id="adjust_dependence_missing_file",
        ),
        pytest.param(
            ["adjust", "--input", "{bad}", "--c", "0.5", "--dependence", "item2", "--q", "0.05"],
            id="adjust_item2_without_t_bad_row",
        ),
        pytest.param(
            ["probe-selection", "--input", "{bad}", "--selection", "bh"], id="probe_levelless_bh",
        ),
        pytest.param(
            ["probe-selection", "--input", "{missing}", "--selection", "top:2", "--grid-size", "1"],
            id="probe_grid_size_missing_file",
        ),
    ])
    def test_flag_refused_before_the_input_is_read(self, tmp_path, capsys, argv):
        # a bad row (exit 2) or a missing file (exit 4) would hide the flag error
        bad = tmp_path / "bad.csv"
        bad.write_text("id,p1,p2\nrs1,zzz,0.1\n")
        paths = {"bad": bad, "missing": tmp_path / "missing.csv"}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        pytest.param(
            ["analyze", "--input", "{missing}", "--q1", "0.05", "--q", "0.01"], id="analyze"
        ),
        pytest.param(["adjust", "--input", "{missing}", "--c", "1.5"], id="adjust"),
        pytest.param(["simulate", "--scenario", "{missing}", "--workers", "0"], id="simulate"),
        pytest.param(
            ["power", "--mu11", "2", "--mu21", "2", "--m", "10", "--alpha", "0.05",
             "--grid-c", "0:1:0", "--out", "{missing}/power.csv"],
            id="power",
        ),
        pytest.param(
            ["calibrate-oracle", "--input", "{missing}", "--f00", "0.9", "--f01", "0.01",
             "--q", "0.05", "--w1", "0.3"],
            id="calibrate_oracle",
        ),
        pytest.param(
            ["probe-selection", "--input", "{missing}", "--selection", "top:0"],
            id="probe_selection",
        ),
    ])
    def test_every_command_refuses_a_flag_before_its_file(self, tmp_path, capsys, argv):
        # each of the six commands: the missing file (exit 4) would hide the flag error
        missing = tmp_path / "missing"
        assert main([arg.format(missing=missing) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not missing.exists()

    def test_io_error_is_4(self, capsys):
        code = main(["analyze", "--input", "/nonexistent/x.csv", "--q1", "0.01", "--q", "0.05"])
        assert code == 4

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["analyze", "--q", "1.5"], 1, id="q_above_one"),
        pytest.param(["analyze", "--selection", "bh:1.5"], 1, id="selection_level"),
        pytest.param(["analyze", "--dependence", "sideways"], 1, id="dependence"),
        pytest.param(["adjust", "--c", "1.5"], 1, id="adjust_c"),
        pytest.param(
            ["adjust", "--dependence", "item2", "--q", "0.05"], 1, id="adjust_item2_without_t"
        ),
        pytest.param(
            ["adjust", "--dependence", "item2", "--t", "1.5", "--q", "0.05"], 1, id="adjust_t"
        ),
        pytest.param(["power", "--m", "0"], 1, id="power_m"),
        pytest.param(["power", "--mu21", "nan"], 1, id="power_mu21_nan"),
        pytest.param(["power", "--mu11", "inf", "--grid-c", "0.1:0.9:3"], 1, id="power_grid_inf"),
        pytest.param(["power", "--grid-c", "0.1:0.9:0"], 1, id="power_empty_grid"),
        pytest.param(["power", "--grid-c", "a:b:c"], 1, id="power_grid_not_numbers"),
        pytest.param(["probe-selection", "--grid-size", "1"], 1, id="probe_grid_size"),
        pytest.param(["calibrate-oracle", "--w1", "0.3"], 1, id="oracle_w1"),
        # a bare ValueError is no parameter check: a bug, with its traceback
        pytest.param(["analyze"], 5, id="bug"),
    ])
    def test_exit_code_names_the_error_class(
        self, hippo_csv, tmp_path, capsys, monkeypatch, argv, code
    ):
        command, *flags = argv
        defaults = {
            "analyze": ["--input", hippo_csv, "--q1", "0.025", "--q", "0.05", "--out", tmp_path],
            "adjust": ["--input", hippo_csv, "--c", "0.5", "--out", tmp_path / "a.csv"],
            "power": ["--mu11", "3", "--mu21", "3", "--m", "100", "--alpha", "0.05"],
            "probe-selection": ["--input", hippo_csv, "--selection", "top:2"],
            "calibrate-oracle": ["--f00", "0.9", "--f01", "0.01", "--q", "0.05"],
        }[command]
        if code == 5:
            def bug(path):
                raise ValueError("not a parameter check")
            monkeypatch.setattr(dataio, "parse_pvalue_csv", bug)
        # a later flag wins over the default given before it
        assert main([command, *map(str, defaults), *flags]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("usage error:") and "Traceback" not in err
        else:
            assert "Traceback" in err and "not a parameter check" in err


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

    @pytest.mark.parametrize("flags, named", [
        (["--dependence", "item1", "--t", "0.3", "--q", "0.5"], "t"),
        (["--flavor", "bonferroni", "--q", "0.5"], "q"),
    ])
    def test_t_and_q_refused_outside_item2(self, crohns_csv, tmp_path, capsys, flags, named):
        out = tmp_path / "adjusted.csv"
        code = main(["adjust", "--input", str(crohns_csv), "--c", "0.8", *flags, "--out", str(out)])
        assert code == 1 and not out.exists()
        assert f"does not read {named};" in capsys.readouterr().err

    def test_t_outside_unit_interval_refused_as_in_analyze(
        self, crohns_csv, tmp_path, capsys
    ):
        # the range is checked before the mode: item1 reads no t, but 1.5 is no t at all
        errors = []
        for command in (["adjust", "--c", "0.8", "--dependence", "item1"],
                        ["analyze", "--q1", "0.02", "--q", "0.05"]):
            out = tmp_path / command[0]
            code = main([*command, "--t", "1.5", "--input", str(crohns_csv), "--out", str(out)])
            assert code == 1 and not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors == ["usage error: t must lie in (0, 1), got 1.5\n"] * 2

    def test_item2_followed_up_p1_above_t_is_data_error_as_in_analyze(
        self, hippo_csv, tmp_path, capsys
    ):
        errors = []
        for command in (["adjust", "--c", "0.5"], ["analyze", "--q1", "0.025"]):
            out = tmp_path / command[0]
            code = main([
                *command, "--q", "0.05", "--dependence", "item2", "--t", "1e-9",
                "--input", str(hippo_csv), "--out", str(out),
            ])
            assert code == 2 and not out.exists()
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "requires every selected primary p-value to be at most t=1e-09" in errors[0]


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

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_refused_before_the_scenario_is_read(self, tmp_path, capsys, workers):
        scen = tmp_path / "s.txt"
        scen.write_text("not a key and a value\n")  # a data error (exit 2) if it were read
        assert main(["simulate", "--scenario", str(scen), "--workers", workers]) == 1
        message = f"--workers must be an integer of at least 1, got {workers}"
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO.replace("seed = 42", "seed = -1"))
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_oracle_w1_off_grid_is_data_error(self, tmp_path, capsys):
        scen = tmp_path / "s.txt"
        oracle = SCENARIO.replace("procedure = fdr\nq1 = 0.025", "procedure = oracle")
        scen.write_text(oracle + "w1 = 0.3\n")
        assert main(["simulate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "w1 must be one of" in err

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("q1 = 0.025", "q1 = 0.05"),
        lambda text: text.replace("procedure = fdr", "procedure = fdr_symmetric") + "w1 = 1.5\n",
        lambda text: text + "dependence = item2\n",
        lambda text: text + "dependence = item2\nt = 1.5\n",
        # the oracle's calibrated levels (q', 2q') = (0.6, 1.2) are no level pair
        lambda text: text.replace(
            "f00 = 0.9\nf01 = 0.025\nf10 = 0.025", "f00 = 0\nf01 = 0\nf10 = 0.95"
        ).replace("procedure = fdr\nq1 = 0.025\nq = 0.05", "procedure = oracle\nq = 0.6"),
        lambda text: text.replace("procedure = fdr\nq1 = 0.025", "procedure = naive_bh_bh").replace(
            "selection = bh\n", ""
        ) + "primary = 3\n",
        lambda text: text.replace("procedure = fdr", "procedure = fwer") + "method = hollm\n",
        # refused: the procedure reads neither
        lambda text: text.replace(
            "procedure = fdr\nq1 = 0.025", "procedure = partial_conjunction"
        ) + "w1 = 7\ndependence = item2\n",
        lambda text: text.replace("sigma1 = 0.5\nsigma2 = 0.5", "sigma = 1\nzeta = 0.5\nN = 0"),
        lambda text: text.replace("f00 = 0.9", "f00 = nan"),
        lambda text: text.replace("mu2 = 2.5", "mu2 = nan"),
        lambda text: text.replace("mu1 = 2.5", "mu1 = -inf"),
        lambda text: text.replace("sigma2 = 0.5", "sigma2 = inf"),
        lambda text: text.replace("sigma1 = 0.5\nsigma2 = 0.5", "sigma = inf\nzeta = 0.5\nN = 9"),
        lambda text: text.replace("sigma1 = 0.5\nsigma2 = 0.5", "sigma = 1\nzeta = nan\nN = 9"),
        lambda text: text.replace("sigma1 = 0.5\nsigma2 = 0.5", "sigma = 1\nzeta = 0.5\nN = inf"),
        # one whole sd form and a key of the other, which would be ignored
        lambda text: text + "zeta = 0.5\nsweep_axis = zeta\nsweep_grid = 0.2,0.5,0.8\n",
        lambda text: text.replace("sigma2 = 0.5", "sigma = 1\nzeta = 0.5\nN = 100"),
        lambda text: text.replace("m = 400", "m = four hundred"),
        lambda text: text.replace("m = 400\n", ""),
        lambda text: text + "reps 60\n",
        lambda text: text + "sweep_grid = 2.0, 3.0\n",
        lambda text: text + "sweep_axis = mu\n",
        lambda text: text + "sweep_axis = mu\nsweep_grid = 0.2, x\n",
        lambda text: text + "sweep_axis = mu\nsweep_grid = ,\n",
        lambda text: text + "sweep_axis = mu\nsweep_grid = 0.2,,0.5\n",
        lambda text: text + "q = 0.2\n",
        lambda text: text + "dependence = independent\nt = 0.001\n",
        lambda text: text.replace("procedure = fdr", "procedure = bogus"),
    ], ids=[
        "q1_not_below_q", "w1", "item2_without_t", "t_above_one", "oracle_levels", "primary",
        "fwer_method",
        "unread_w1_and_t", "n_total_zero", "f00_nan", "mu2_nan", "mu1_minus_inf", "sigma2_inf",
        "sigma_inf", "zeta_nan", "n_total_inf", "direct_sd_and_zeta", "sigma1_and_split_sd",
        "m_not_a_number", "m_missing", "line_without_equals",
        "grid_without_axis", "axis_without_grid", "grid_not_a_number", "grid_empty",
        "grid_empty_field", "repeated_key", "t_under_independent", "unknown_procedure",
    ])
    def test_refused_scenario_value_is_data_error_naming_file(self, tmp_path, capsys, edit):
        scen = tmp_path / "s.txt"
        scen.write_text(edit(SCENARIO))
        assert edit(SCENARIO) != SCENARIO
        assert main(["simulate", "--scenario", str(scen)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(scen) in err

    @pytest.mark.parametrize("extra, line, message", [
        ("q = 0.2\n", 16, "repeated key 'q'"),
        ("sweep_axis = mu\nsweep_grid = 0.2,,5\n", 17, "cannot parse sweep_grid value '0.2,,5'"),
        ("sweep_axis = mu\nsweep_grid = 0.2,\n", 17, "cannot parse sweep_grid value '0.2,'"),
    ], ids=["repeated_key", "grid_inner_empty_field", "grid_trailing_comma"])
    def test_repeated_key_or_empty_grid_field_names_its_line(
        self, tmp_path, capsys, extra, line, message
    ):
        scen = tmp_path / "s.txt"
        scen.write_text(SCENARIO + extra)
        assert main(["simulate", "--scenario", str(scen)]) == 2
        assert capsys.readouterr().err == f"data error: {scen}:{line}: {message}\n"

    def test_analyze_item2_without_t_is_usage_error(self, hippo_csv, tmp_path, capsys):
        # a missing flag, not a value read from a file
        assert main([
            "analyze", "--input", str(hippo_csv), "--q1", "0.025",
            "--q", "0.05", "--dependence", "item2", "--out", str(tmp_path / "o"),
        ]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

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


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_output_without_out_goes_to_stdout(tmp_path, capsys, command):
    scen = tmp_path / "s.txt"
    sweep = "sweep_axis = mu\nsweep_grid = 2, 3\n"
    scen.write_text(SCENARIO.replace("reps = 60", "reps = 5") + sweep)
    argv = {
        "simulate": ["simulate", "--scenario", str(scen)],
        "power": ["power", "--mu11", "4.5", "--mu21", "4.5", "--m", "100", "--alpha", "0.05",
                  "--grid-c", "0.2:0.8:4"],
    }[command]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


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


    @pytest.mark.parametrize("flags, needle", [
        (["--alpha1", "0.025", "--grid-c", "0.2:0.8:7"], "--alpha1 is not read with --grid-c"),
        (["--out", "{out}"], "--out is read only with --grid-c"),
    ], ids=["alpha1_with_grid", "out_without_grid"])
    def test_unread_flag_refused(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "power.csv"
        code = main([
            "power", "--mu11", "4.5", "--mu21", "4.5", "--m", "100", "--alpha", "0.05",
            *(flag.format(out=out) for flag in flags),
        ])
        stdout, err = capsys.readouterr()
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith(f"usage error: {needle}")


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

    @pytest.mark.parametrize("flag", [["--selection", "bh:0.01"], ["--out", "o"], ["--quiet"]])
    def test_run_flags_refused_without_input(self, capsys, flag):
        code = main(["calibrate-oracle", "--f00", "0.9", "--f01", "0.05", "--q", "0.05", *flag])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"usage error: {flag[0]} is read only with --input")

    @pytest.mark.parametrize("f00, f01", [("0.9", "0.9"), ("1", "0.5")])
    def test_fractions_above_one_refused(self, capsys, f00, f01):
        code = main(["calibrate-oracle", "--f00", f00, "--f01", f01, "--q", "0.05"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("usage error: fractions must lie in [0, 1] with f00 + f01 <= 1")

    @pytest.mark.parametrize("f00, f01", [("0.9", "0.1"), ("0.7", "0.3")])
    def test_fractions_summing_to_one_run(self, capsys, f00, f01):
        assert main(["calibrate-oracle", "--f00", f00, "--f01", f01, "--q", "0.05"]) == 0
        assert "q_prime = " in capsys.readouterr().out

    def test_degenerate(self, capsys):
        main(["calibrate-oracle", "--f00", "0", "--f01", "0", "--q", "0.05"])
        assert "q_prime = 0.05" in capsys.readouterr().out

    @pytest.mark.parametrize("with_input", [False, True], ids=["alone", "with_input"])
    def test_level_pair_refused_before_printing(self, crohns_csv, tmp_path, capsys, with_input):
        # (q', 2q') = (0.6, 1.2) is no level pair: nothing is printed for it
        flags = ["--input", str(crohns_csv), "--out", str(tmp_path / "o")] if with_input else []
        code = main(["calibrate-oracle", "--f00", "0", "--f01", "0", "--q", "0.6", *flags])
        out, err = capsys.readouterr()
        assert code == 1 and out == "" and not (tmp_path / "o").exists()
        assert err.startswith("usage error: levels need 0 < q1 < q < 1, got q1=0.6, q=1.2")

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

    def test_counterexamples_listed(self, tmp_path, capsys, monkeypatch, median_rule):
        # an invalid rule: the first ten of its counterexamples, one a line
        monkeypatch.setattr(dataio, "parse_rule_spec", lambda spec: median_rule)
        csv = tmp_path / "p.csv"
        p1 = [round(0.03 * i, 2) for i in range(1, 31)]
        csv.write_text("id,p1,p2\n" + "".join(f"h{i},{p},0.5\n" for i, p in enumerate(p1)))
        code = main(["probe-selection", "--input", str(csv), "--selection", "median2x"])
        report = selection.probe_validity(median_rule, dataio.parse_pvalue_csv(csv), 16, 0)
        assert code == 0 and len(report.counterexamples) > 10
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"rule=median2x probed={report.probed} counterexamples={len(report.counterexamples)}"
        )
        assert lines[1:] == [
            f"  {ce.perturbed_id} -> p1={ce.replacement_p1:g} changes the selection "
            f"({len(ce.selection_before)} -> {len(ce.selection_after)} ids)"
            for ce in report.counterexamples[:10]
        ]


def test_cli_loads_no_scipy(tmp_path, crohns_csv):
    """scipy is a test oracle only: the CLI's import and its analyze,
    simulate and power commands run in a fresh process without it."""
    scen = tmp_path / "s.txt"
    scen.write_text(SCENARIO.replace("reps = 60", "reps = 3"))
    calls = [
        ["analyze", "--input", str(crohns_csv), "--mode", "fdr", "--q1", "0.04",
         "--q", "0.05", "--out", str(tmp_path / "analyze")],
        ["simulate", "--scenario", str(scen), "--out", str(tmp_path / "sim.csv")],
        POWER,
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
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr


def _python(*args: str, path: tuple = (), **env: str) -> subprocess.CompletedProcess:
    """Python with ``args`` in a fresh process that imports this checkout's
    package, with ``path`` first on its path; the child has no
    OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    src = str(Path(replicability.__file__).parents[1])
    paths = [*path, src, os.environ.get("PYTHONPATH")]
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env = dict(base, PYTHONPATH=os.pathsep.join(filter(None, paths)), **env)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _script_entry() -> tuple[str, str]:
    """The module and function of pyproject.toml's ``replicability`` script."""
    text = (Path(replicability.__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^replicability = "([\w.]+):(\w+)"$', text, re.M).groups()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller-2"])
@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_command_line_entries_ask_for_one_blas_thread(tmp_path, entry, caller):
    """Both command-line entries set OPENBLAS_NUM_THREADS=1 before numpy
    loads, so the process ends with no BLAS worker thread beside its own;
    a caller's value is kept. The console script runs as pip's wrapper
    does. A sitecustomize hook reports the child's state at exit."""
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, os, sys\n"
        "atexit.register(lambda: print('at exit:', os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                              len(os.listdir('/proc/self/task')), file=sys.stderr))\n"
    )
    module, func = _script_entry()
    args = {
        "python -m": ["-m", "replicability.cli", *POWER],
        "console script": ["-c", f"import sys; from {module} import {func}; sys.exit({func}())",
                           *POWER],
    }[entry]
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    done = _python(*args, path=(str(tmp_path),), **env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("pi1 = ")
    value, threads = done.stderr.rsplit("at exit:", 1)[1].split()
    assert value == (caller or "1")
    if caller is None:
        assert threads == "1"


def test_library_imports_leave_the_environment_alone():
    """Importing the package loads no submodule and no numpy; importing the
    CLI module loads numpy; neither, nor a star import, sets a variable."""
    script = """
import os, sys
before = dict(os.environ)
import replicability
loaded = [n for n in sys.modules if n.startswith("replicability.") or n.split(".")[0] == "numpy"]
assert loaded == [], loaded
assert dict(os.environ) == before
import replicability.cli
assert "numpy" in sys.modules
assert dict(os.environ) == before
from replicability import *
assert dict(os.environ) == before
"""
    done = _python("-c", script)
    assert done.returncode == 0, done.stderr
