"""Reference dataset check: the plain row-by-row loop.

The package's ``validate_dataset`` finds the faulty rows with array masks
and scans the ids only as far as it must; the property tests require it
to return the same first fault as this loop on every dataset.
"""

from __future__ import annotations

from replicability.data import StudyPairData, ValidationIssue


def first_fault_loop(data: StudyPairData) -> ValidationIssue | None:
    seen: set[str] = set()
    for i, (rid, p1, p2) in enumerate(zip(data.ids, data.p1.tolist(), data.p2.tolist())):
        where = f"record {i} ({rid!r})"
        if not rid:
            return ValidationIssue(where, "empty id", "id", i)
        if rid in seen:
            return ValidationIssue(where, "duplicate id", "id", i)
        seen.add(rid)
        if not 0.0 <= p1 <= 1.0:  # NaN fails every comparison
            return ValidationIssue(where, f"p1 out of range: {p1!r}", "p1", i)
        if p2 == p2 and not 0.0 <= p2 <= 1.0:  # NaN p2: not followed up
            return ValidationIssue(where, f"p2 out of range: {p2!r}", "p2", i)
    rows = len(data.ids)
    m, r1 = data.m_declared, data.r1_declared
    if m is None and rows == 0:  # an empty family, which no procedure can run on
        return ValidationIssue("family", "no rows listed and no m declared", "m")
    if m is not None:
        if m < 1:
            return ValidationIssue("m override", "must be positive", "m")
        if m < rows:
            message = f"declared family size {m} is smaller than the {rows} rows listed"
            return ValidationIssue("m override", message, "m")
    if r1 is not None:
        listed = sum(p2 == p2 for p2 in data.p2.tolist())
        family = rows if m is None else m
        if r1 < 1:
            return ValidationIssue("r1 override", "must be positive", "r1")
        if r1 < listed:
            message = (
                f"declared follow-up count {r1} is smaller than the {listed} "
                "follow-up rows listed"
            )
            return ValidationIssue("r1 override", message, "r1")
        if r1 > family:
            message = f"declared follow-up count {r1} exceeds the family size m={family}"
            return ValidationIssue("r1 override", message, "r1")
    return None
