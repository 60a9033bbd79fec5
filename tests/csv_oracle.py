"""Reference p-value CSV parser: the plain line-by-line loop.

The package's reader converts blocks of lines at a time; the property
tests require it to agree with this loop on every file, either returning
an equal dataset or failing on the same line.
"""

from __future__ import annotations

import re
from pathlib import Path

from replicability.data import StudyPairData
from replicability.errors import DataError

PVALUE_HEADER = "id,p1,p2"
_DIRECTIVE = re.compile(r"^#\s*(m|r1)\s*=\s*(\d+)\s*$")
_LIKE_DIRECTIVE = re.compile(r"#\s*(m|r1)\s*=", re.IGNORECASE)


def _parse_float(text: str, where: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{where}: cannot parse {name} value {text!r}") from None


def parse_pvalue_csv_lines(path) -> StudyPairData:
    path = Path(path)
    declared: dict[str, tuple[int, int]] = {}  # directive name: (value, line number)
    ids: list[str] = []
    p1s: list[float] = []
    p2s: list[float] = []  # NaN where not followed up
    header_seen = False
    # a byte that is not UTF-8 reads as a lone surrogate, U+DC80 to U+DCFF
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            where = f"{path}:{lineno}"
            if not line:
                continue
            if line.startswith("#"):
                hit = _DIRECTIVE.match(line)
                if hit and hit.group(1) in declared:
                    raise DataError(
                        f"{where}: repeated directive {line!r}; "
                        f"{hit.group(1)} is declared on line {declared[hit.group(1)][1]}"
                    )
                if hit:
                    declared[hit.group(1)] = (int(hit.group(2)), lineno)
                elif _LIKE_DIRECTIVE.match(line):
                    raise DataError(
                        f"{where}: malformed directive {line!r}; "
                        "expected '# m=<int>' or '# r1=<int>'"
                    )
                continue
            if not header_seen:
                if line != PVALUE_HEADER:
                    raise DataError(
                        f"{where}: expected header {PVALUE_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"{where}: expected 3 fields, got {len(parts)}")
            rid, p1_text, p2_text = (p.strip() for p in parts)
            if any("\udc80" <= c <= "\udcff" for c in rid):
                raise DataError(f"{where}: id {rid!r} is not UTF-8 text")
            p1 = _parse_float(p1_text, where, "p1")
            p2 = float("nan")  # not followed up
            if p2_text:
                p2 = _parse_float(p2_text, where, "p2")
                if p2 != p2:
                    raise DataError(
                        f"{where}: record {len(ids)} ({rid!r}): p2 out of range: nan; "
                        "leave it empty if not followed up"
                    )
            # a well-formed line with an empty id is a dataset fault: it beats
            # every later line's, as the files here hold no other dataset fault
            if not rid:
                raise DataError(f"{where}: record {len(ids)} (''): empty id")
            ids.append(rid)
            p1s.append(p1)
            p2s.append(p2)
    if not header_seen:
        raise DataError(f"{path}: missing header line {PVALUE_HEADER!r}")
    m_declared, r1_declared = (declared.get(name, (None,))[0] for name in ("m", "r1"))
    return StudyPairData(ids, p1s, p2s, m_declared=m_declared, r1_declared=r1_declared)
