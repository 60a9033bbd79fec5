import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replicability import data as data_module
from replicability.data import (
    HypothesisRecord,
    StudyPairData,
    ValidationIssue,
    _may_repeat,
    id_hashes,
    validate_dataset,
)
from replicability.datasets import load_crohns_disease, load_hippocampal_volume
from replicability.errors import DataError, ParameterError
from validation_oracle import first_fault_loop


def test_p1_out_of_range_flagged():
    issue = validate_dataset(StudyPairData(["a"], [1.2], [0.5]))
    assert (issue.field, issue.row) == ("p1", 0)
    assert "p1 out of range" in issue.message


def test_duplicate_id_flagged():
    issue = validate_dataset(StudyPairData(["rs1", "rs1"], [0.1, 0.2], [0.2, 0.3]))
    assert issue == ValidationIssue("record 1 ('rs1')", "duplicate id", "id", 1)


def test_bundled_fixtures_validate():
    for data in (load_hippocampal_volume(), load_crohns_disease()):
        assert validate_dataset(data) is None


def test_hippocampal_fixture_shape():
    data = load_hippocampal_volume()
    assert data.m == 2_500_000
    assert len(data.ids) == 5
    assert data.r1_listed == 5


def test_crohns_fixture_shape():
    data = load_crohns_disease()
    assert data.m == 635_547
    assert data.r1_declared == 126
    assert len(data.ids) == 36


def test_m_override_must_cover_rows():
    data = StudyPairData(["a", "b", "c"], [0.1] * 3, [np.nan] * 3, m_declared=2)
    assert validate_dataset(data).field == "m"


def test_r1_override_must_cover_followups():
    data = StudyPairData(["a", "b"], [0.1, 0.1], [0.3, 0.4], r1_declared=1)
    assert validate_dataset(data).field == "r1"


def test_effective_sizes_ordering():
    # m >= r1 >= listed follow-up rows, for any valid dataset
    data = StudyPairData(["a", "b"], [0.1, 0.2], [0.3, np.nan], m_declared=10, r1_declared=4)
    assert validate_dataset(data) is None
    assert data.m >= data.r1_declared >= data.r1_listed


def test_absent_p2_is_none_not_number():
    rec = HypothesisRecord("a", 0.1)
    assert rec.p2 is None


def test_swap_studies_requires_complete():
    data = StudyPairData(["a"], [0.1], [np.nan])
    with pytest.raises(DataError):
        data.swap_studies()


def test_swap_studies_refuses_a_partial_listing():
    # study two's family is the rows listed: a declared m cannot stand for it
    data = StudyPairData(["a", "b"], [0.1, 0.3], [0.2, 0.4], m_declared=10)
    with pytest.raises(DataError, match="swapping the study roles requires the full family"):
        data.swap_studies()
    missing = StudyPairData(["a", "b"], [0.1, 0.3], [0.2, np.nan])
    with pytest.raises(DataError, match="missing for 1 record\\(s\\), first: 'b'"):
        missing.swap_studies()
    assert StudyPairData(["a"], [0.1], [0.2], m_declared=1).swap_studies().m_declared == 1


def test_swap_studies_roundtrip():
    data = StudyPairData(["a", "b"], [0.1, 0.3], [0.2, 0.4])
    back = data.swap_studies().swap_studies()
    assert back == data


def test_columns_and_records_agree():
    recs = [HypothesisRecord("a", 0.1, 0.2), HypothesisRecord("b", 0.3)]
    data = StudyPairData(["a", "b"], [0.1, 0.3], [0.2, np.nan], m_declared=9)
    assert data == StudyPairData(("a", "b"), (0.1, 0.3), (0.2, np.nan), m_declared=9)
    assert data.records == tuple(recs)
    assert data.records[-1] == recs[1] and data.records[:1] == (recs[0],)
    with pytest.raises(ValueError):
        data.p1[0] = 0.5  # columns are read-only; p1_array() gives a copy


def test_columns_of_unequal_length_refused():
    with pytest.raises(ValueError, match="columns differ in length: 2, "):
        StudyPairData(["a", "b"], [0.1], [0.2, 0.3])


def test_writable_columns_are_copied_and_owned_read_only_ones_kept():
    p1, p2 = np.array([0.1, 0.3]), np.array([0.2, 0.4])
    data = StudyPairData(["a", "b"], p1, p2[:])  # a writable array and a view of one
    p1[0] = p2[0] = 0.9  # the caller writes on after building the dataset
    assert data.p1.tolist() == [0.1, 0.3] and data.p2.tolist() == [0.2, 0.4]
    view = p2[:]
    view.flags.writeable = False  # read-only, but another array owns its data
    assert StudyPairData(["a", "b"], p1, view).p2 is not view
    p1.flags.writeable = False
    assert StudyPairData(["a", "b"], p1, p1).p1 is p1


_ROW_IDS = st.sampled_from(["", "a", "b", "c", "d"])  # empty and repeated ids
_PVALUES = st.sampled_from([0.0, 0.3, 1.0, -0.2, 1.5, np.nan, np.inf, -np.inf])
_OVERRIDE = st.none() | st.integers(-1, 9)


@st.composite
def datasets(draw) -> StudyPairData:
    """Small datasets with several faults per row and across rows."""
    ids = draw(st.lists(_ROW_IDS, max_size=8))
    p1 = draw(st.lists(_PVALUES, min_size=len(ids), max_size=len(ids)))
    p2 = draw(st.lists(_PVALUES, min_size=len(ids), max_size=len(ids)))
    return StudyPairData(ids, p1, p2, draw(_OVERRIDE), draw(_OVERRIDE))


@settings(max_examples=500, deadline=None)
@given(data=datasets())
def test_first_fault_matches_row_loop(data):
    assert validate_dataset(data) == first_fault_loop(data)


# empty, repeated, non-ASCII and NUL-bearing ids, and any other short text
_ANY_IDS = st.sampled_from(["", "a", "a\x00", "\x00", "é", "e\u0301", "日本"]) | st.text(max_size=3)


@settings(max_examples=300, deadline=None)
@given(data=datasets(), ids=st.lists(_ANY_IDS, max_size=12))
def test_validation_in_slices_matches_row_loop(data, ids):
    # slices of two rows: faults, empty ids and repeats within and across slices
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module, "_SLICE", 2)
        assert validate_dataset(data) == first_fault_loop(data)
        assert _may_repeat(id_hashes(ids)) == (len(set(ids)) < len(ids))


@pytest.mark.parametrize("name", ["m_declared", "r1_declared"])
@pytest.mark.parametrize("value", [True, False, 2.0, 2.5, "3"])
def test_declared_count_not_an_integer_refused(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be an integer or None, got {value!r}"):
        StudyPairData(["a", "b"], [0.1, 0.2], [0.3, np.nan], **{name: value})


def test_declared_counts_take_any_integer():
    data = StudyPairData(["a", "b"], [0.1, 0.2], [0.3, np.nan], np.int64(3), np.int64(1))
    assert validate_dataset(data) is None and data.m == 3
    negative = StudyPairData(["a"], [0.1], [0.3], m_declared=-1, r1_declared=-2)
    assert validate_dataset(negative).field == "m"  # the range is validation's to check


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(_ANY_IDS, max_size=40))
def test_hash_filter_flags_every_repeat(ids):
    # equal ids hash equally under any PYTHONHASHSEED: no repeat slips through
    if len(set(ids)) < len(ids):
        assert _may_repeat(id_hashes(ids))


def test_hash_filter_passes_distinct_ids():
    assert not _may_repeat(id_hashes([])) and not _may_repeat(id_hashes(["a"]))
    assert not _may_repeat(id_hashes([f"rs{i}" for i in range(10_000)] + ["", "a\x00", "é"]))
