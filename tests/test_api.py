import argparse
import ast
import contextlib
import importlib.util
import io
import pydoc
import re
from pathlib import Path

import numpy as np
import pytest

import replicability
from replicability import procedures

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [replicability], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    # a deleted name cannot stay in __all__, where `import *` would fail on it
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_lazy_names_map_to_the_modules_that_define_them():
    # the package loads a public name's module on first use, from its map;
    # each exported name is mapped, to a module that defines it
    homes = replicability._HOME
    assert sorted(homes) == sorted(replicability.__all__)
    defined = {}
    for module in set(homes.values()):
        path = REPO / "src" / "replicability" / f"{module}.py"
        defined[module] = {
            node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
    assert [name for name, module in homes.items() if name not in defined[module]] == []


def test_public_names_are_listed_only_by_the_package():
    # _HOMES in __init__ is the one list of public names; a module's own
    # __all__ would be a second list that drifts from it
    owners = []
    for path in sorted((REPO / "src" / "replicability").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                owners.append(path.name)
    assert owners == ["__init__.py"]


def test_every_public_name_has_its_own_docstring():
    # help() shows each public name by its own docstring, not an inherited
    # one or a dataclass's generated signature
    missing = []
    for name, module in replicability._HOME.items():
        path = REPO / "src" / "replicability" / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        node = next(n for n in tree.body if getattr(n, "name", None) == name)
        if not ast.get_docstring(node):
            missing.append(name)
    assert missing == []


def test_dir_and_help_show_the_public_names():
    assert set(replicability.__all__) <= set(dir(replicability))
    assert {"__version__", "_main"} <= set(dir(replicability))
    text = pydoc.render_doc(replicability, renderer=pydoc.plaintext)
    shown = set(re.findall(r"^    (?:class )?(\w+)(?: = |\(|$)", text, re.M))
    assert sorted(set(replicability.__all__) - shown) == []
    assert replicability.fdr_two_stage.__doc__.splitlines()[0] in text


def test_blas_thread_count_is_set_in_one_module():
    # only the command-line entry in the package __init__ names the variable
    files = sorted((REPO / "src").rglob("*.py"))
    owners = [p.name for p in files if "OPENBLAS_NUM_THREADS" in p.read_text(encoding="utf-8")]
    assert len(files) > 6 and owners == ["__init__.py"]


def test_benchmark_trace_hooks_exist(monkeypatch):
    # `benchmark/run.py --trace 1` patches each target through
    # owner.__dict__[attr] and reads len(data.records) and len(table.rows);
    # only the benchmark's own slow self-test runs that path
    monkeypatch.chdir(REPO)  # run.py finds src/ from the working directory
    monkeypatch.syspath_prepend(str(REPO / "benchmark"))  # it imports its siblings by name
    spec = importlib.util.spec_from_file_location("benchmark_run", REPO / "benchmark" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    pkg = run.import_package()
    targets = run._targets(pkg)
    assert [(owner, attr) for owner, attr, *_ in targets if attr not in owner.__dict__] == []
    data = replicability.load_hippocampal_volume()
    assert len(data.records) == 5
    assert len(pkg.adjust.build_adjusted_table(data, 0.5).rows) == 5
    # the probes call these; ROADMAP item 3 deletes them with the tracer
    rule = replicability.SelectionRule
    assert rule.bh_at_level(0.01) == rule("bh", level=0.01)
    assert rule.followed_up() == rule("followup")
    p1 = data.p1_array()
    assert p1.flags.writeable and not np.shares_memory(p1, data.p1)
    assert np.array_equal(p1, data.p1)
    full = replicability.StudyPairData(["a", "b", "c"], [1e-4, 0.3, 2e-4], [2e-4, 1e-4, 0.9])
    runs = [
        procedures.fdr_symmetric(full, rule("bh", level=0.0125), 0.5, 0.025, 0.05, **reverse)
        for reverse in ({}, {"rule_reverse": rule("bh", level=0.0125)})
    ]
    assert runs[0].rejected_ids == runs[1].rejected_ids == ("a",)


def test_probe_only_names_have_no_caller_in_src_or_demos():
    # only the benchmark's traced probes may call these, so that ROADMAP
    # item 3 can delete them with the tracer; their definitions do not count
    banned = {"records", "rows", "p1_array", "bh_at_level", "followed_up"}
    files = [*sorted((REPO / "src").rglob("*.py")), *sorted((REPO / "demos").glob("*.py"))]
    calls = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in banned:
                calls.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.keyword) and node.arg == "rule_reverse":
                calls.append(f"{path.name}:{node.value.lineno} rule_reverse=")
    # tests spell these two rules SelectionRule(...) too, but in the test
    # that the benchmark's probes find them
    hooks = test_benchmark_trace_hooks_exist.__name__
    for path in sorted((REPO / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree.body = [node for node in tree.body if getattr(node, "name", None) != hooks]
        calls += [f"{path.name}:{node.lineno} .{node.attr}" for node in ast.walk(tree)
                  if getattr(node, "attr", None) in {"bh_at_level", "followed_up"}]
    assert len(files) > 6 and calls == []


def _src_calls(name: str) -> list[tuple[str, ast.Call]]:
    """Each call in ``src/`` of a function or method called ``name``, with the
    module.function (or module.Class.method) it is made in."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (getattr(func, "id", None),
                                                        getattr(func, "attr", None)):
                sites.append((scope, child))
            visit(child, scope)

    for path in sorted((REPO / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_inputs_are_opened_once_each_with_one_decoding():
    # each input file is read in one pass, which also numbers the lines its
    # refusals name, so a pipe reads like a file; both inputs decode alike,
    # so an undecodable byte meets the reader's own refusals
    sites = []
    for scope, call in _src_calls("open"):
        keys = {k.arg: ast.literal_eval(k.value) for k in call.keywords}
        if [ast.literal_eval(arg) for arg in call.args[1:2]] in ([], ["r"]):
            sites.append((scope, keys.get("encoding"), keys.get("errors")))
    assert sorted(sites) == [
        ("dataio.parse_pvalue_csv", "utf-8-sig", "surrogateescape"),
        ("dataio.parse_scenario_file", "utf-8-sig", "surrogateescape"),
    ]
    dataio = ast.parse((REPO / "src" / "replicability" / "dataio.py").read_text(encoding="utf-8"))
    assert "_row_line" not in {getattr(node, "name", None) for node in dataio.body}


def test_counts_are_checked_only_by_check_count():
    # every count goes through params.check_count; the two other Integral
    # checks are a declared override's type (its range is the dataset
    # check's) and a choice of study, 1 or 2, which is no count
    allowed = {
        "params.check_count", "data.StudyPairData.__init__", "procedures.Procedure.__post_init__",
    }
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance":
                names = [getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(child)]
                if "Integral" in names:
                    sites.add(scope)
            visit(child, scope)

    for path in sorted((REPO / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == allowed


def test_dependence_divisors_have_one_owner():
    # H_m, H_R1 and the thresholded level reach the stage levels and the
    # adjusted table only through procedures._level_divisors
    owners = {"harmonic", "solve_q1_tilde_thresholded"}
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.alias) and child.name in owners:
                sites.add(f"{scope} imports {child.name}")
            elif getattr(child, "id", getattr(child, "attr", None)) in owners:
                sites.add(scope)
            visit(child, scope)

    for module in ("procedures", "adjust"):
        path = REPO / "src" / "replicability" / f"{module}.py"
        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    assert sites == {
        "procedures imports harmonic", "procedures imports solve_q1_tilde_thresholded",
        "procedures._level_divisors",
    }


def test_reports_are_built_only_by_report():
    # procedures._report owns a run's rejected rows, realized thresholds,
    # scores and upper-bound flag; every other run derives from its report
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "DiscoveryReport":
                    sites.add(scope)
            visit(child, scope)

    for path in sorted((REPO / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == {"procedures._report"}


def test_adjusted_columns_are_finished_only_by_report():
    # procedures._report alone puts a scored row's adjusted value on the
    # side of the run's level that its rejection says, one nextafter away
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if getattr(child, "id", getattr(child, "attr", None)) == "nextafter":
                sites.add(scope)
            visit(child, scope)

    path = REPO / "src" / "replicability" / "procedures.py"
    visit(ast.parse(path.read_text(encoding="utf-8")), "procedures")
    assert sites == {"procedures._report"}


def test_analyze_flags_are_parsed_only_as_scenario_keys():
    # dataio._read_keys parses every procedure flag of analyze; argparse
    # only collects the text
    from replicability.cli import build_parser
    from replicability.dataio import _SCENARIO_KEYS

    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag[2:]: action for action in commands.choices["analyze"]._actions
        for flag in action.option_strings if flag.startswith("--")
    }
    keys = flags.keys() - {"input", "mode", "out", "quiet", "help"}
    assert keys and keys <= _SCENARIO_KEYS.keys()
    assert [key for key in keys if (flags[key].type, flags[key].choices) != (None, None)] == []


def test_readme_quickstart_prints_what_it_says():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", readme, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    lines = printed.getvalue().splitlines()
    assert lines == ["36", "23", "record 1 ('rs2') p1 out of range: 1.3"]
    # each print's comment starts with what it prints
    comments = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert [c.startswith(out) for c, out in zip(comments, lines, strict=True)] == [True] * 3


def _feature_names(readme: str) -> list[str]:
    """The callables that the README's bold feature bullets name: each code
    span of the list in parentheses right after the bold title, up to the
    first text that is not one, cut at its argument list."""
    names = []
    for spans in re.findall(r"^- \*\*[^*\n]+\*\*[^(\n]*\(((?:`[^`]+`(?:, )?)+)", readme, re.M):
        names += [span.split("(", 1)[0] for span in re.findall(r"`([^`]+)`", spans)]
    return names


def test_readme_feature_bullets_name_live_callables():
    """A feature bullet cannot name a deleted function."""
    names = _feature_names((REPO / "README.md").read_text(encoding="utf-8"))
    assert {"fdr_two_stage", "procedures.Procedure", "solve_oracle_qprime"} <= set(names)

    def resolves(name: str) -> bool:
        owner = replicability
        for part in name.split("."):
            owner = getattr(owner, part, None)
        return callable(owner)

    assert [name for name in names if not resolves(name)] == []


def test_every_table_leaves_through_write_csv():
    # dataio.write_csv streams every table out in blocks: no other code
    # formats a whole table into one string or opens a file to write
    defined = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            defined.add(getattr(node, "name", None))
            defined.add(getattr(node, "attr", None))
    assert {"csv_text", "_emit"}.isdisjoint(defined) and "write_csv" in defined
    opened = [(scope, [ast.literal_eval(arg) for arg in call.args[1:2]])
              for scope, call in _src_calls("open")]
    assert [site for site in opened if site[1] not in ([], ["r"])] == [("dataio.write_csv", ["w"])]
    written = [(scope, ast.unparse(call.func.value)) for scope, call in _src_calls("write_text")]
    assert written == [("cli._write_report", "out / 'summary.txt'")]
    assert _src_calls("write_bytes") == []
