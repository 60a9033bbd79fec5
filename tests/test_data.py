import numpy as np
import pytest

from replicability.data import (
    HypothesisRecord,
    StudyPairData,
    validate_dataset,
)
from replicability.datasets import load_crohns_disease, load_hippocampal_volume
from replicability.errors import DataError


def test_p1_out_of_range_flagged():
    data = StudyPairData([HypothesisRecord("a", 1.2, 0.5)])
    issues = validate_dataset(data)
    assert [(i.field, i.row) for i in issues] == [("p1", 0)]
    assert "p1 out of range" in issues[0].message


def test_duplicate_id_flagged():
    data = StudyPairData(
        [HypothesisRecord("rs1", 0.1, 0.2), HypothesisRecord("rs1", 0.2, 0.3)]
    )
    issues = validate_dataset(data)
    assert any("duplicate id" in i.message for i in issues)


def test_bundled_fixtures_validate():
    for data in (load_hippocampal_volume(), load_crohns_disease()):
        assert validate_dataset(data) == ()


def test_hippocampal_fixture_shape():
    data = load_hippocampal_volume()
    assert data.m == 2_500_000
    assert len(data.records) == 5
    assert data.r1_listed == 5


def test_crohns_fixture_shape():
    data = load_crohns_disease()
    assert data.m == 635_547
    assert data.r1_declared == 126
    assert len(data.records) == 36


def test_m_override_must_cover_rows():
    data = StudyPairData([HypothesisRecord("a", 0.1)] * 3, m_declared=2)
    assert validate_dataset(data)


def test_r1_override_must_cover_followups():
    data = StudyPairData(
        [HypothesisRecord("a", 0.1, 0.3), HypothesisRecord("b", 0.1, 0.4)],
        r1_declared=1,
    )
    assert validate_dataset(data)


def test_effective_sizes_ordering():
    # m >= r1 >= listed follow-up rows, for any valid dataset
    data = StudyPairData(
        [HypothesisRecord("a", 0.1, 0.3), HypothesisRecord("b", 0.2)],
        m_declared=10,
        r1_declared=4,
    )
    assert validate_dataset(data) == ()
    assert data.m >= data.r1_declared >= data.r1_listed


def test_absent_p2_is_none_not_number():
    rec = HypothesisRecord("a", 0.1)
    assert rec.p2 is None


def test_swap_studies_requires_complete():
    data = StudyPairData([HypothesisRecord("a", 0.1, None)])
    with pytest.raises(DataError):
        data.swap_studies()


def test_swap_studies_roundtrip():
    data = StudyPairData(
        [HypothesisRecord("a", 0.1, 0.2), HypothesisRecord("b", 0.3, 0.4)]
    )
    back = data.swap_studies().swap_studies()
    assert back == data


def test_nan_p2_record_refused():
    with pytest.raises(DataError):
        StudyPairData([HypothesisRecord("a", 0.1, float("nan"))])


def test_columns_and_records_agree():
    recs = [HypothesisRecord("a", 0.1, 0.2), HypothesisRecord("b", 0.3)]
    data = StudyPairData(recs, m_declared=9)
    assert data == StudyPairData.from_columns(
        ("a", "b"), [0.1, 0.3], [0.2, np.nan], m_declared=9
    )
    assert data.records == tuple(recs)
    assert data.records[-1] == recs[1] and data.records[:1] == (recs[0],)
    with pytest.raises(ValueError):
        data.p1[0] = 0.5  # columns are read-only; p1_array() gives a copy
