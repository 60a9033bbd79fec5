"""The dataset's ids are one read-only numpy string column. numpy compares
such strings only up to an embedded NUL, so every comparison of ids is
made on Python str: ids that differ only at or after a NUL stay distinct
in every place that tells ids apart."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_data
from replicability import dataio
from replicability.adjust import build_adjusted_table
from replicability.data import ID, DiscoveryReport, StudyPairData, validate_dataset
from replicability.dataio import parse_pvalue_csv, write_discoveries_csv, write_pvalue_csv
from replicability.errors import DataError
from replicability.selection import SelectionRule, select

# pairs that numpy's string comparison takes for equal or misorders
NUL_PAIRS = [("a\x00b", "a\x00c"), ("", "\x00"), ("a", "a\x00")]
NUL_IDS = ["a\x00c", "a\x00b", "a\x00", "a", "\x00"]  # distinct, none empty


@pytest.mark.parametrize("pair", NUL_PAIRS)
def test_repeat_check_keeps_nul_ids_apart(pair):
    issue = validate_dataset(StudyPairData(pair, [0.1, 0.2], [0.3, 0.4]))
    if "" in pair:
        assert (issue.message, issue.row) == ("empty id", pair.index(""))
    else:
        assert issue is None
    doubled = validate_dataset(StudyPairData([*pair, pair[1]], [0.1] * 3, [0.2] * 3))
    assert doubled.message == ("empty id" if pair[0] == "" else "duplicate id")


@pytest.mark.parametrize("pair", NUL_PAIRS)
def test_datasets_differing_after_a_nul_are_unequal(pair):
    a, b = (StudyPairData([rid], [0.1], [0.2]) for rid in pair)
    assert a != b and a == StudyPairData([pair[0]], [0.1], [0.2])


def test_adjusted_ties_in_python_str_order():
    data = make_data([0.01] * 5, [0.02] * 5, ids=NUL_IDS)
    table = build_adjusted_table(data, 0.5)
    assert len(set(table.adjusted.tolist())) == 1  # every row ties
    assert table.ids.dtype == ID and table.ids.tolist() == sorted(NUL_IDS)
    assert [row.id for row in table.rows] == sorted(NUL_IDS)


@pytest.mark.parametrize("rid", NUL_IDS)
def test_explicit_selection_picks_the_named_id_only(rid):
    data = make_data([0.1] * 5, [0.2] * 5, ids=NUL_IDS)
    assert select(SelectionRule("explicit", ids=[rid]), data) == (rid,)


def test_explicit_selection_refuses_an_id_equal_only_up_to_a_nul():
    data = make_data([0.1, 0.2], [0.2, 0.3], ids=["a", "\x00"])
    for absent in ("a\x00", ""):
        with pytest.raises(DataError, match="absent from the dataset"):
            select(SelectionRule("explicit", ids=[absent]), data)


def test_nul_ids_round_trip_through_a_file(tmp_path):
    data = make_data([0.1, 0.2, 0.3, 0.4, 0.5], [0.5, None, 0.3, 0.2, 0.1], ids=NUL_IDS)
    path = tmp_path / "nul.csv"
    write_pvalue_csv(data, path)
    back = parse_pvalue_csv(path)
    assert back == data and back.ids.tolist() == NUL_IDS


@pytest.mark.parametrize("rows", [[0, 2, 3], [3, 0, 2], [2, 2, 0]])
def test_discoveries_name_each_scored_row_in_report_order(tmp_path, rows):
    # ascending rows are gathered by a mask, any other order by index
    data = make_data([0.1, 0.2, 0.3, 0.4, 0.5], ids=NUL_IDS)
    report = DiscoveryReport(
        "test", data.ids, np.array([2]), 5, 0.1, 0.1,
        np.array(rows), np.arange(3.0), np.full(3, 0.5),
    )
    write_discoveries_csv(data, report, tmp_path / "d.csv")
    lines = (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == [NUL_IDS[i] for i in rows]
    assert [line[-1] for line in lines] == ["1" if i == 2 else "0" for i in rows]


def test_a_non_str_id_is_refused():
    with pytest.raises(ValueError, match="string"):
        StudyPairData(["a", 1], [0.1, 0.2], [0.3, 0.4])


def test_a_kept_id_column_is_not_copied():
    ids = np.array(["a", "b"], dtype=ID)
    assert StudyPairData(ids, [0.1, 0.2], [0.3, 0.4]).ids is not ids  # writable: copied
    ids.flags.writeable = False
    data = StudyPairData(ids, [0.1, 0.2], [0.3, 0.4])
    assert data.ids is ids and data.swap_studies().ids is ids
    assert not StudyPairData(["a", "b"], [0.1, 0.2], [0.3, 0.4]).ids.flags.writeable


# short ids sit inline in the column, ids over 15 UTF-8 bytes outside it
_ID_TEXT = st.text(alphabet="ab1\x00é日", min_size=1, max_size=20)


@settings(max_examples=100, deadline=None)
@given(ids=st.lists(_ID_TEXT, min_size=1, max_size=30, unique=True),
       block=st.sampled_from([1, 7, 64, 1 << 17]))
def test_blocks_and_lines_read_the_same_ids(tmp_path_factory, ids, block):
    path = tmp_path_factory.mktemp("ids") / "in.csv"
    write_pvalue_csv(make_data([0.5] * len(ids), ids=ids), path)
    with (  # columns of one row at first, so that they grow as the blocks come
        mock.patch.object(dataio, "_BLOCK_CHARS", block),
        mock.patch.object(dataio, "_COLUMN_ROWS", 1),
    ):
        in_blocks = parse_pvalue_csv(path).ids.tolist()
        with mock.patch.object(dataio, "_parse_clean", side_effect=ValueError("lines")):
            by_line = parse_pvalue_csv(path).ids.tolist()
    assert in_blocks == by_line == ids
