import os
from pathlib import Path

import numpy as np
import pytest

from replicability import selection
from replicability.data import StudyPairData
from replicability.numeric import harmonic
from replicability.procedures import Dependence


def make_data(p1, p2=None, ids=None, **kw) -> StudyPairData:
    """A dataset with ids h0, h1, ... unless given; None in ``p2``, or no
    ``p2`` at all, marks a row that was not followed up."""
    p2 = [np.nan] * len(p1) if p2 is None else [np.nan if v is None else v for v in p2]
    return StudyPairData([f"h{i}" for i in range(len(p1))] if ids is None else ids, p1, p2, **kw)


@pytest.fixture
def median_rule(monkeypatch):
    """The rule "select p1 <= 2*median(p1)", patched into the selection
    module: shrinking a selected p-value moves the median and drops
    another index, so the rule is invalid."""
    original = selection._select_mask

    def patched(rule, data, p1):
        if rule.kind == "median2x":
            return p1 <= 2.0 * np.median(p1)
        return original(rule, data, p1)

    monkeypatch.setattr(selection, "_select_mask", patched)
    monkeypatch.setitem(selection._READS, "median2x", None)  # a kind reading no parameter
    return selection.SelectionRule("median2x")


@pytest.fixture
def pipe():
    """Puts text into a pipe and gives a path that reads it once, as
    ``/dev/stdin`` or a shell's ``<(...)`` gives a decompressed file."""
    if not Path("/dev/fd").is_dir():
        pytest.skip("names a pipe by /dev/fd")
    ends = []

    def put(text: str) -> str:
        read, write = os.pipe()
        ends.append(read)
        os.write(write, text.encode())  # within the pipe's buffer: no reader is waiting
        os.close(write)
        return f"/dev/fd/{read}"

    yield put
    for end in ends:
        os.close(end)


def random_instance(rng: np.random.Generator, max_m: int = 200, max_r1: int = 50):
    """A random two-study dataset plus levels, with enough small p-values
    to make rejections common."""
    m = int(rng.integers(4, max_m + 1))
    n_small = int(rng.integers(1, max(2, m // 3)))
    p1 = rng.random(m)
    p2 = rng.random(m)
    small = rng.choice(m, size=n_small, replace=False)
    p1[small] = rng.random(n_small) * 5.0 / m
    p2[small] = np.where(
        rng.random(n_small) < 0.7, rng.random(n_small) * 0.02, p2[small]
    )
    q = float(rng.uniform(0.03, 0.25))
    c = float(rng.uniform(0.1, 0.9))
    q1 = c * q
    k = int(rng.integers(1, min(max_r1, m) + 1))
    return make_data(p1, p2), q1, q, k


def _followup_instance(rng: np.random.Generator, mode: Dependence):
    """A family of m with k rows followed up, their p-values scaled so that
    every rejection count from none to all k occurs; under the thresholded
    mode the followed-up p1 lie at or below t. Returns (data, q1, q, t)."""
    m = int(rng.integers(4, 61))
    q = float(rng.uniform(0.03, 0.25))
    q1 = float(rng.uniform(0.1, 0.9)) * q
    t = None
    if mode is Dependence.ARBITRARY_PRIMARY_ITEM2:
        t = 0.9 * q1 / (1.0 + harmonic(m - 1))
    k = int(rng.integers(1, m + 1))
    follow = rng.choice(m, size=k, replace=False)
    scale = float(rng.uniform(0.1, 3.0))  # signal strength on the rank scale
    p1 = rng.random(m)
    p1[follow] = rng.random(k) * min(scale * k * q1 / m, t or 1.0)
    p2 = np.full(m, np.nan)
    p2[follow] = rng.random(k) * min(scale * (q - q1), 1.0)
    return StudyPairData([f"h{i}" for i in range(m)], p1, p2), q1, q, t


# Files the p-value reader must refuse: name -> (text, line named, field named).
BAD_PVALUE_FILES = {
    "p1_nan": ("id,p1,p2\na,0.1,0.2\nb,nan,0.1\n", 3, "p1"),
    "p1_inf": ("id,p1,p2\na,0.1,0.2\nb,inf,\n", 3, "p1"),
    "p1_above_one": ("id,p1,p2\na,1.5,0.2\n", 2, "p1"),
    "p2_negative": ("id,p1,p2\na,0.1,0.2\nb,0.1,-0.3\n", 3, "p2"),
    "p2_nan": ("id,p1,p2\na,0.1,nan\n", 2, "p2"),
    "p2_inf": ("id,p1,p2\na,0.1,0.2\n\nb,0.1,inf\n", 4, "p2"),
    "duplicate_id": ("id,p1,p2\na,0.1,0.2\nb,0.2,\na,0.3,0.4\n", 4, "duplicate id"),
    "empty_family": ("id,p1,p2\n", 1, "family: no rows listed and no m declared"),
    "m_below_rows": ("# m=2\nid,p1,p2\na,0.1,\nb,0.2,\nc,0.3,\n", 1, "m override"),
    "r1_below_followups": ("id,p1,p2\n# r1=1\na,0.1,0.2\nb,0.2,0.3\n", 2, "r1 override"),
    "r1_above_m": ("# m=3\nid,p1,p2\na,0.1,0.2\n# r1=4\n", 4, "r1 override"),
    # of several faults, the first in the file is named
    "p1_before_malformed": ("id,p1,p2\na,1.5,0.2\nb,zzz,0.1\n", 2, "p1"),
    "nan_p2_before_malformed": ("id,p1,p2\na,0.1,nan\nb,0.1\n", 2, "p2"),
    "malformed_before_p1": ("id,p1,p2\na,0.1\nb,1.5,0.2\n", 2, "expected 3 fields"),
    "p1_before_nan_p2": ("id,p1,p2\na,0.1,0.2\nb,-1,0.1\nc,0.1,nan\n", 3, "p1"),
    # an empty id is a dataset fault, however its block is read
    "empty_id": ("id,p1,p2\na,0.1,0.2\n,0.3,0.4\n", 3, "record 1 (''): empty id"),
    "empty_id_commented": (
        "id,p1,p2\na,0.1,0.2\n,0.3,0.4\n# a note\n", 3, "record 1 (''): empty id"
    ),
    "empty_id_before_malformed": (
        "id,p1,p2\na,0.1,0.2\n  ,0.3,\nb,zzz,0.1\n", 3, "record 1 (''): empty id"
    ),
    "malformed_before_empty_id": ("id,p1,p2\na,0.1\n,0.3,0.4\n", 2, "expected 3 fields"),
    # p1 written as -log10 p: most rows out of range, and each with p2 too
    "many_out_of_range": (
        "id,p1,p2\na,0.5,\n" + "".join(f"r{i},{i + 1.5},{-i}\n" for i in range(1, 500)),
        3, "record 1 ('r1'): p1 out of range: 2.5",
    ),
}
