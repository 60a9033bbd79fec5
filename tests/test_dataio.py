import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import BAD_PVALUE_FILES, make_data
from csv_oracle import parse_pvalue_csv_lines
from replicability import dataio
from replicability.data import ID, StudyPairData, validate_dataset
from replicability.dataio import (
    fmt,
    parse_dependence,
    parse_pvalue_csv,
    parse_rule_spec,
    parse_scenario_file,
    write_discoveries_csv,
    write_pvalue_csv,
)
from replicability.errors import DataError, ParameterError
from replicability.procedures import Dependence, Procedure, fdr_two_stage
from replicability.selection import SelectionRule
from replicability.sim import SimScenario, generate_rep


def test_parse_basic(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,p1,p2\nrs1,0.001,0.02\nrs2,0.5,\n")
    data = parse_pvalue_csv(path)
    assert data.m == 2
    assert data.p2[0] == 0.02
    assert np.isnan(data.p2[1])  # NaN marks an absent follow-up value


def test_parse_directives(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("# m=635547\n# r1=126\nid,p1,p2\nrs1,1e-9,0.001\n")
    data = parse_pvalue_csv(path)
    assert data.m_declared == 635547
    assert data.r1_declared == 126


def test_parse_scientific_and_decimal(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,p1,p2\na,5.2e-8,0.7\nb,0.0007,1E-4\n")
    data = parse_pvalue_csv(path)
    assert data.p1[0] == 5.2e-8
    assert data.p2[1] == 1e-4


def test_header_only_is_refused_as_empty_family(tmp_path):
    # no rows and no declared m: a family no procedure can run on
    path = tmp_path / "in.csv"
    path.write_text("# a comment\nid,p1,p2\n")
    with pytest.raises(DataError) as err:
        parse_pvalue_csv(path)
    assert str(err.value) == f"{path}:2: family: no rows listed and no m declared"
    path.write_text("# m=5\nid,p1,p2\n")  # a declared family may list no rows
    assert len(parse_pvalue_csv(path).ids) == 0


def test_read_keeps_one_copy_of_each_column(tmp_path):
    # a genome-wide screen with a small follow-up: while the dataset is built
    # and validated, the reader's own columns are gone and the repeated-id
    # check holds 8 bytes per row, so the traced peak stays near what is kept;
    # what is kept is 16 bytes of inline id and 2 x 8 of p-values per row
    rng = np.random.default_rng(11)
    n = 200_000
    p1 = rng.random(n)
    p2 = np.where(rng.random(n) < 0.01, rng.random(n), np.nan)
    path = tmp_path / "in.csv"
    write_pvalue_csv(StudyPairData([f"rs{i:06d}" for i in range(n)], p1, p2), path)
    tracemalloc.start()
    try:
        data = parse_pvalue_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.r1_listed == np.count_nonzero(~np.isnan(p2))
    assert peak <= 1.75 * kept, f"peak {peak / kept:.2f}x what the dataset keeps"
    assert kept <= 40 * n, f"{kept / n:.1f} bytes held per row"
    ids = data.ids
    assert ids.dtype == ID and ids.flags.owndata and not ids.flags.writeable


@pytest.mark.parametrize("rows", [1, 3, dataio._COLUMN_ROWS])
def test_parsed_columns_are_kept_read_only_and_exact(tmp_path, rows):
    # the dataset keeps the reader's columns, cut to the row count
    path = tmp_path / "in.csv"
    path.write_text("id,p1,p2\n" + "".join(f"r{i},0.{i + 1},\n" for i in range(5)) + "x,0.5,0.25\n")
    with (
        mock.patch.object(dataio, "_BLOCK_CHARS", 12),
        mock.patch.object(dataio, "_COLUMN_ROWS", rows),
    ):
        data = parse_pvalue_csv(path)
    for column in (data.p1, data.p2):
        assert column.flags.owndata and not column.flags.writeable
        assert column.shape == (len(data.ids),) == (6,)
    assert data.p1.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.5] and data.p2[5] == 0.25


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,p1,p2\nok,0.1,0.2\nbad,xyz,0.2\n")
    with pytest.raises(DataError) as err:
        parse_pvalue_csv(path)
    assert ":3:" in str(err.value)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("id,pval1,pval2\na,0.1,0.2\n")
    with pytest.raises(DataError):
        parse_pvalue_csv(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        parse_pvalue_csv(path)


def test_round_trip_bit_exact(tmp_path):
    data = make_data(
        [5.2e-8, 1.0, 0.0, 3.141592653589793e-12],
        [0.7, None, 5e-324, 1e-300],
        m_declared=2_500_000,
        r1_declared=17,
    )
    path = tmp_path / "out.csv"
    write_pvalue_csv(data, path)
    back = parse_pvalue_csv(path)
    assert back == data
    # and a second pass writes identical bytes
    path2 = tmp_path / "out2.csv"
    write_pvalue_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_fmt_round_trips_any_probability(p):
    assert float(fmt(p)) == p


def test_fmt_table_precision():
    assert fmt(0.068751234, full=False) == "0.06875"
    assert fmt(None) == ""


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_infinity=False) | st.none(), max_size=20),
    full=st.booleans(),
)
def test_csv_column_writes_what_fmt_writes(values, full):
    """A float column is formatted whole; each field must be fmt's, with
    None and NaN both absent."""
    ids = [f"r{i}" for i in range(len(values))]
    text = dataio.csv_text("id,x", [ids, np.array(values, dtype=float)], full)
    expected = [f"{rid},{fmt(v, full)}" for rid, v in zip(ids, values)]
    assert text == "\n".join(["id,x", *expected]) + "\n"


def test_trailing_newline(tmp_path):
    path = tmp_path / "out.csv"
    write_pvalue_csv(make_data([0.5], [0.5]), path)
    assert path.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("rid", ["a,b", "#x", "a\nb", "a\rb", " a", "a ", ""])
def test_write_refuses_ids_that_do_not_read_back(tmp_path, rid):
    path = tmp_path / "out.csv"
    with pytest.raises(DataError, match="would not read back"):
        write_pvalue_csv(make_data([0.1, 0.2], [0.3, 0.4], ids=[rid, "b"]), path)
    assert not path.exists()


# in range, and each way out of it; NaN in p2 is "not followed up"
_WRITTEN_P = st.floats(0.0, 1.0) | st.sampled_from(
    [0.0, 1.0, math.nan, math.inf, -math.inf, -0.25, 1.5]
)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]), _WRITTEN_P, _WRITTEN_P),
                  max_size=5),
    m_declared=st.none() | st.integers(0, 6),
    r1_declared=st.none() | st.integers(0, 6),
)
def test_written_file_reads_back_or_is_refused(tmp_path_factory, rows, m_declared, r1_declared):
    """The writer refuses a dataset the reader would refuse (NaN or infinite
    p1, a p-value outside [0, 1], a repeated id, an override below the rows
    listed), writes nothing then, and writes any other one so that it reads
    back equal."""
    ids, p1, p2 = ([row[k] for row in rows] for k in range(3))
    data = StudyPairData(ids, p1, p2, m_declared, r1_declared)
    path = tmp_path_factory.mktemp("written") / "p.csv"
    issue = validate_dataset(data)
    if issue is not None:
        with pytest.raises(DataError) as err:
            write_pvalue_csv(data, path)
        assert str(err.value) == f"{issue.where}: {issue.message}"
        assert not path.exists()
    else:
        write_pvalue_csv(data, path)
        assert parse_pvalue_csv(path) == data


def test_byte_order_mark_accepted_only_at_the_start(tmp_path):
    text = "# m=5\nid,p1,p2\na,0.1,0.2\nb,0.3,\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert parse_pvalue_csv(bom) == parse_pvalue_csv(plain)
    later = tmp_path / "later.csv"
    later.write_text(text.replace("id,", "\ufeffid,"), encoding="utf-8-sig")
    with pytest.raises(DataError, match="later.csv:2: expected header"):
        parse_pvalue_csv(later)


# each byte that is not UTF-8 reads as one lone surrogate and meets the
# refusal of the field it falls in, on its own line
@pytest.mark.parametrize("body, line, message", [
    (b"id,p1,p2\na\xe9,0.1,0.2\n", 2, "id 'a\\udce9' is not UTF-8 text"),
    (b"# m=5\nid,p1,p2\nb,0.2,\n\n  a\xe9 ,0.1,0.2\n", 5, "id 'a\\udce9' is not UTF-8 text"),
    (b"id,p1,p2\na,0.1\xff,0.2\n", 2, "cannot parse p1 value '0.1\\udcff'"),
    (b"id,p1,p2\na,0.1,\x800.2\n", 2, "cannot parse p2 value '\\udc800.2'"),
    (b"id,p1,p\xe92\n", 1, "expected header 'id,p1,p2', got 'id,p1,p\\udce92'"),
    (b"# m=5\xff\nid,p1,p2\n", 1, "malformed directive '# m=5\\udcff'; "
     "expected '# m=<int>' or '# r1=<int>'"),
], ids=["id", "padded_id_after_blank", "p1", "p2", "header", "directive"])
def test_undecodable_byte_is_refused_naming_its_line(tmp_path, body, line, message):
    path = tmp_path / "in.csv"
    path.write_bytes(body)
    with pytest.raises(DataError) as err:
        parse_pvalue_csv(path)
    assert str(err.value) == f"{path}:{line}: {message}"
    assert str(err.value) == _outcome(parse_pvalue_csv_lines, path)


def test_undecodable_byte_in_a_comment_is_ignored_and_utf8_ids_read(tmp_path):
    plain, latin = tmp_path / "plain.csv", tmp_path / "latin.csv"
    plain.write_text("# café\nid,p1,p2\né1,0.1,0.2\n# note\n日本,0.3,\n", encoding="utf-8")
    latin.write_bytes(plain.read_bytes().replace(b"\xc3\xa9\n", b"\xe9\n").replace(b"o", b"\xf6"))
    assert plain.read_bytes().count(b"\xc3\xa9") == 2 and latin.read_bytes().count(b"\xf6") == 1
    assert parse_pvalue_csv(plain).ids.tolist() == ["é1", "日本"]
    assert parse_pvalue_csv(latin) == parse_pvalue_csv(plain)


def test_parse_rule_specs():
    assert parse_rule_spec("followup").kind == "followup"
    assert parse_rule_spec("bh:0.04").level == 0.04
    assert parse_rule_spec("bonferroni:0.025").kind == "bonferroni"
    assert parse_rule_spec("top:12").k == 12
    assert parse_rule_spec("threshold:5e-5").threshold == 5e-5
    with pytest.raises(DataError):
        parse_rule_spec("nope:1")
    # the grammar is bh[:LEVEL]: a colon needs a level after it, as top:K does
    for spec in ("bh:", "bonferroni:", "bh: ", "top:", "threshold:"):
        with pytest.raises(ParameterError, match=f"^bad selection spec {spec.strip()!r}"):
            parse_rule_spec(spec)


def test_parse_sim_selection_auto_level():
    sel = parse_rule_spec("bh")
    assert sel.kind == "bh" and sel.level is None
    assert parse_rule_spec("top:25").k == 25


def test_parse_dependence_aliases():
    assert parse_dependence("item1") is Dependence.ARBITRARY_PRIMARY_ITEM1
    assert parse_dependence("ITEM2") is Dependence.ARBITRARY_PRIMARY_ITEM2
    assert parse_dependence("prds") is Dependence.PRDS_FOLLOWUP
    assert parse_dependence("both") is Dependence.ARBITRARY_BOTH
    assert parse_dependence(" Arbitrary_Both ") is Dependence.ARBITRARY_BOTH
    assert parse_dependence("prds_followup") is Dependence.PRDS_FOLLOWUP
    with pytest.raises(ParameterError, match="'sideways' is not a valid Dependence"):
        parse_dependence("sideways")


SCENARIO = """\
# power run
m = 1000
f00 = 0.9
f01 = 0.025
f10 = 0.025
f11 = 0.05
mu1 = 2.0
mu2 = 2.0
sigma1 = 0.5
sigma2 = 0.5
procedure = fdr
q1 = 0.025
q = 0.05
selection = bh
reps = 100
seed = 42
"""


def test_parse_scenario(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO)
    parsed = parse_scenario_file(path)
    assert parsed.scenario.m == 1000
    assert parsed.scenario.procedure.q1 == 0.025
    assert parsed.scenario.reps == 100
    assert parsed.sweep_axis is None


def test_parse_scenario_sweep(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO + "sweep_axis = mu\nsweep_grid = 1.5, 2.0, 2.5\n")
    parsed = parse_scenario_file(path)
    assert parsed.sweep_axis == "mu"
    assert parsed.sweep_grid == (1.5, 2.0, 2.5)


def test_scenario_keys_name_every_field():
    # each key sets a field, and every field but the nested procedure has a key
    named = {name for name, _ in dataio._SCENARIO_KEYS.values()}
    scenario_fields = {f.name for f in fields(SimScenario)}
    procedure_fields = {f.name for f in fields(Procedure)}
    assert named <= scenario_fields | procedure_fields
    assert (scenario_fields | procedure_fields) - {"procedure"} <= named


def test_scenario_defaults_and_aliases(tmp_path):
    required = "".join(line + "\n" for line in SCENARIO.splitlines()[1:10])
    path = tmp_path / "s.txt"
    path.write_text(required + "alpha1 = 0.02\nalpha = 0.04\n")
    parsed = parse_scenario_file(path).scenario
    assert parsed.procedure == Procedure(q1=0.02, q=0.04)
    assert (parsed.reps, parsed.seed) == (1000, 0)


@pytest.mark.parametrize("axis, grid, message", [
    ("c", "0.5, 1.2", "levels"),
    ("k_selected", "25, 2.5", "k must be an integer of at least 1, got 2.5"),
    ("nope", "1", "unknown sweep axis"),
    ("k_selected", "25, 1001", "top_k selection asks for 1001 of 1000 hypotheses"),
])
def test_sweep_points_checked_on_read(tmp_path, axis, grid, message):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO + f"sweep_axis = {axis}\nsweep_grid = {grid}\n")
    with pytest.raises(DataError, match=message) as err:
        parse_scenario_file(path)
    assert str(err.value).startswith(f"{path}: ")


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO + "flurb = 3\n")
    with pytest.raises(DataError) as err:
        parse_scenario_file(path)
    assert "flurb" in str(err.value)


@pytest.mark.parametrize("old, new, where", [
    (b"reps = 100", b"reps = 10\xff0", ": cannot parse reps value '10\\udcff0'"),
    (b"reps = 100", b"r\xe9ps = 100", ":15: unknown key 'r\\udce9ps'"),
    (b"selection = bh", b"selection = b\xe9h", ": unknown selection spec 'b\\udce9h'"),
], ids=["value", "key", "selection"])
def test_undecodable_byte_in_a_scenario_is_refused(tmp_path, old, new, where):
    path = tmp_path / "s.txt"
    path.write_bytes(SCENARIO.encode().replace(old, new))
    with pytest.raises(DataError) as err:
        parse_scenario_file(path)
    assert str(err.value).startswith(f"{path}{where}")


def test_undecodable_byte_in_a_scenario_comment_is_ignored(tmp_path):
    plain, latin = tmp_path / "plain.txt", tmp_path / "latin.txt"
    plain.write_text(SCENARIO)
    latin.write_bytes(SCENARIO.encode().replace(b"power", b"p\xf6wer").replace(b"42", b"42 # \xff"))
    assert parse_scenario_file(latin) == parse_scenario_file(plain)


def test_fraction_sum_violation_rejected(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO.replace("f00 = 0.9", "f00 = 0.95"))
    with pytest.raises(DataError):
        parse_scenario_file(path)


def test_allocation_keys(tmp_path):
    body = SCENARIO.replace("sigma1 = 0.5\nsigma2 = 0.5\n", "sigma = 10\nzeta = 0.3\nN = 1000\n")
    path = tmp_path / "s.txt"
    path.write_text(body)
    parsed = parse_scenario_file(path)
    assert parsed.scenario.sd1 == pytest.approx(10.0 / math.sqrt(300))


def test_fixture_round_trip_identity(tmp_path):
    from replicability.datasets import load_crohns_disease, load_hippocampal_volume

    for name, data in (
        ("hippo", load_hippocampal_volume()),
        ("crohns", load_crohns_disease()),
    ):
        path = tmp_path / f"{name}.csv"
        write_pvalue_csv(data, path)
        assert parse_pvalue_csv(path) == data


@pytest.mark.parametrize("case", sorted(BAD_PVALUE_FILES))
def test_bad_values_refused_naming_line_and_field(tmp_path, case):
    text, line, field = BAD_PVALUE_FILES[case]
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        parse_pvalue_csv(path)
    assert f"{path}:{line}:" in str(err.value)
    assert field in str(err.value)


@pytest.mark.parametrize("case", sorted(BAD_PVALUE_FILES))
def test_bad_values_refused_in_one_line_blocks(tmp_path, case):
    # each line its own block: the earliest fault is named across blocks
    with mock.patch.object(dataio, "_BLOCK_CHARS", 1):
        test_bad_values_refused_naming_line_and_field(tmp_path, case)


def test_discoveries_rows_carry_their_own_pvalues(tmp_path):
    # in-memory datasets may repeat an id; each scored row keeps its values
    # and its own rejected flag
    cases = [
        (
            make_data([0.001, 0.002], [0.01, 0.02], ids=["a", "a"]),
            [["a", "0.001", "0.01", "1"], ["a", "0.002", "0.02", "1"]],
        ),
        (
            make_data([1e-6, 0.9, 0.5], [1e-6, 0.9, 0.5], ids=["a", "a", "b"]),
            [["a", "1e-06", "1e-06", "1"], ["a", "0.9", "0.9", "0"], ["b", "0.5", "0.5", "0"]],
        ),
    ]
    path = tmp_path / "d.csv"
    for data, expected in cases:
        report = fdr_two_stage(data, SelectionRule("followup"), 0.025, 0.05)
        write_discoveries_csv(data, report, path)
        fields = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [f[:3] + f[5:] for f in fields] == expected


_ID = st.text(alphabet="abcxyz019_:.", min_size=1, max_size=5)
_P = st.floats(min_value=0.0, max_value=1.0)
_NUMBER = st.sampled_from([repr, "{:.3e}".format, "{:E}".format, "{:g}".format])
_PAD = st.sampled_from(["", " ", "\t", "  "])
_EXTRA = st.sampled_from(["", "   ", "# note", "#"])
_M = st.sampled_from(["# m=100000", "#m = 123456"])
_R1 = st.sampled_from([None, "# r1=700", "  # r1 = 800"])
# every file declares m, so the last two repeat it
_BROKEN = st.sampled_from(
    ["x,0.1", "x,0.1,0.2,0.3", ",0.1,0.2", " ,0.1,", "y,abc,0.1", "z,0.1,zz",
     "w,,0.5", "id,p1,p2", "id , p1,p2", "# R1=7", "# m=5000", "#m = 123456"]
)


@st.composite
def pvalue_files(draw) -> str:
    """CSV text with comment and blank lines between rows, an m and
    sometimes an r1 directive anywhere, padded fields, empty p2 fields,
    mixed line endings, and sometimes one malformed line, a repeated
    directive among them."""
    pairs = draw(st.lists(st.tuples(_P, st.none() | _P), max_size=25))
    ids = draw(st.lists(_ID, min_size=len(pairs), max_size=len(pairs), unique=True))
    lines = [*draw(st.lists(_EXTRA, max_size=3)), "id,p1,p2"]
    for rid, (p1, p2) in zip(ids, pairs):
        lines += draw(st.lists(_EXTRA, max_size=2))
        number = draw(_NUMBER)
        fields = (rid, number(p1), "" if p2 is None else number(p2))
        lines.append(",".join(draw(_PAD) + f + draw(_PAD) for f in fields))
    for directive in (draw(_M), draw(_R1)):
        if directive is not None:
            lines.insert(draw(st.integers(0, len(lines))), directive)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BROKEN))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _outcome(parse, path):
    try:
        return parse(path)
    except DataError as exc:
        return str(exc)


# first column capacities: 1 makes every block grow the columns
_COLUMN_ROWS = st.sampled_from([1, dataio._COLUMN_ROWS])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=pvalue_files(), block=st.sampled_from([1, 40, 1 << 20]), rows=_COLUMN_ROWS)
def test_block_reader_matches_line_oracle(tmp_path, text, block, rows):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with (
        mock.patch.object(dataio, "_BLOCK_CHARS", block),
        mock.patch.object(dataio, "_COLUMN_ROWS", rows),
    ):
        got = _outcome(parse_pvalue_csv, path)
    assert got == _outcome(parse_pvalue_csv_lines, path)


# two bytes at most: three could plant a byte-order mark, which only the
# package's reader strips; a byte inside a directive may void it, and the
# dataset fault that follows is the package's alone to name
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=pvalue_files(), block=st.sampled_from([1, 40, 1 << 20]),
       planted=st.lists(st.tuples(st.integers(0), st.integers(0x80, 0xFF)), min_size=1, max_size=2))
def test_block_reader_matches_line_oracle_on_undecodable_bytes(tmp_path, text, block, planted):
    # a byte that is not UTF-8 anywhere: in a comment, a directive, the
    # header, an id, a value, padding or between CR and LF
    body = bytearray(text.encode())
    for at, byte in planted:
        body.insert(at % (len(body) + 1), byte)
    assume(all(line.encode() in body for line in text.splitlines() if "=" in line))
    path = tmp_path / "in.csv"
    path.write_bytes(body)
    with mock.patch.object(dataio, "_BLOCK_CHARS", block):
        got = _outcome(parse_pvalue_csv, path)
    assert got == _outcome(parse_pvalue_csv_lines, path)


@pytest.mark.parametrize("case", sorted(BAD_PVALUE_FILES))
def test_piped_input_is_refused_as_the_file(tmp_path, pipe, case):
    # read once, here in 8-character blocks: a fault found after the rows
    # are read names its line from the same pass, where a second read of
    # the pipe would find nothing
    text = BAD_PVALUE_FILES[case][0]
    path = tmp_path / "in.csv"
    path.write_text(text)
    piped = pipe(text)
    with mock.patch.object(dataio, "_BLOCK_CHARS", 8):
        messages = [_outcome(parse_pvalue_csv, p) for p in (path, piped)]
    assert messages[1] == messages[0].replace(str(path), piped)


# lines that leave a block unclean, planted late in an otherwise clean file;
# a 2-field line then a 4-field one has as many commas as two good lines,
# and with numeric ids every field of the pair converts
_LATE = ["# note", "#", "# r1=700", "#m = 5000", "# m=2.5e6", "x ,0.5,0.1", "x,0.5, ", "\tx,0.5,",
         "é1,0.5,0.1", "x\u00a0,0.5,", "x,0.5,nan", "x,0.5,NaN", "", "x,,0.5", ",0.5,0.1",
         "id,p1,p2", "x,0.5", "x,0.5,0.1,0.2", "7,0.5\n8,0.5,0.1,0.2", "# r1=7\n# r1=7", "crlf"]


@st.composite
def late_fault_files(draw, planted: str) -> tuple[str, int]:
    """CSV text with no comment, padding, non-ASCII character or malformed
    line up to ``planted`` in its second half ("crlf": CRLF endings from
    there on), and the number of characters after the header up to half
    way through that line."""
    pairs = draw(st.lists(st.tuples(_P, st.none() | _P), min_size=20, max_size=120))
    number = draw(_NUMBER)
    rows = [f"r{i},{number(p1)},{'' if p2 is None else number(p2)}" for i, (p1, p2) in
            enumerate(pairs)]
    at = draw(st.integers(len(rows) // 2, len(rows)))
    head = "# m=100000\nid,p1,p2\n" + "".join(row + "\n" for row in rows[:at])
    if planted == "crlf":
        tail = "".join(row + "\r\n" for row in rows[at:])
    else:
        tail = "".join(line + "\n" for line in [planted, *rows[at:]])
    text = head + tail
    if draw(st.booleans()):  # a last line with no newline
        text = text.rstrip("\r\n")
    cut = len(head) - len("# m=100000\nid,p1,p2\n") + max(1, len(planted) // 2)
    return text, cut


@pytest.mark.parametrize("planted", _LATE)
def test_block_reader_meets_late_faults(tmp_path, planted):
    # block None ends the first block half way through the planted line
    @settings(max_examples=25, deadline=None)
    @given(case=late_fault_files(planted), block=st.sampled_from([1, 40, 1 << 20, None]),
           rows=_COLUMN_ROWS)
    def check(case, block, rows):
        text, cut = case
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        with (
            mock.patch.object(dataio, "_BLOCK_CHARS", block or cut),
            mock.patch.object(dataio, "_COLUMN_ROWS", rows),
        ):
            got = _outcome(parse_pvalue_csv, path)
        assert got == _outcome(parse_pvalue_csv_lines, path)

    check()


@pytest.mark.parametrize("block", [1000, 1 << 20])
@pytest.mark.parametrize("newline", ["\n", ""])
def test_clean_file_never_reads_line_by_line(tmp_path, block, newline):
    # a later change that sends clean files down the slow path fails here
    scenario = SimScenario(m=3000, f00=0.9, f01=0.025, f10=0.025, f11=0.05, mu1=3.0, mu2=3.0,
                           sigma1=1.0, sigma2=1.0)
    data, _ = generate_rep(scenario, 0)
    followed = np.where(data.p1 <= 0.05, data.p2, np.nan)  # a screen's follow-up
    data = StudyPairData(data.ids, data.p1, followed, m_declared=100_000)
    path = tmp_path / "clean.csv"
    write_pvalue_csv(data, path)
    path.write_text(path.read_text().rstrip("\n") + newline)
    refuse = mock.Mock(side_effect=AssertionError("a clean block was read line by line"))
    with (
        mock.patch.object(dataio, "_BLOCK_CHARS", block),
        mock.patch.object(dataio, "_parse_lines", refuse),
    ):
        assert parse_pvalue_csv(path) == data
