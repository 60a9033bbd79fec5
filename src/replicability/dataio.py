"""File formats: the p-value CSV, discovery and adjusted-table output,
and the flat key = value scenario files driving the simulation engine.

Numbers are serialized in shortest round-trip decimal form unless a
fixed-precision table format is requested, and every output file ends
with a trailing newline.
"""

from __future__ import annotations

import os
import re
from dataclasses import MISSING, dataclass, fields
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .adjust import AdjustedTable
from .data import ID, DiscoveryReport, StudyPairData, _first_issue, id_hashes
from .errors import DataError, ParameterError
from .params import Dependence, FwerMethod
from .procedures import _KINDS, Procedure
from .selection import SelectionRule
from .sim import SimEstimate, SimScenario, _scenario_at

PVALUE_HEADER = "id,p1,p2"
DISCOVERY_HEADER = "id,p1,p2,z,adjusted_p,rejected"
SIM_HEADER = "point,avg_fdp,fdp_se,avg_power,power_se,avg_rejections"

_DIRECTIVE = re.compile(r"^#\s*(m|r1)\s*=\s*(\d+)\s*$")
_LIKE_DIRECTIVE = re.compile(r"#\s*(m|r1)\s*=", re.IGNORECASE)  # refused unless a _DIRECTIVE
_BLOCK_CHARS = 1 << 17  # per block of lines (~4k GWAS rows): split at once if clean
_COLUMN_ROWS = 1 << 15  # first capacity of the columns
_UNCLEAN = "# \t\r\x0b\x0c\x1c\x1d\x1e\x1f"  # '#', and what str.strip removes in ASCII but \n


def fmt(x: float | None, full: bool = True) -> str:
    """Shortest round-trip form, or 4 significant digits for table output.
    Absent values (None or NaN) serialize as the empty field."""
    return _column_text(np.array([x], dtype=float), full)[0]


def _column_text(values, full: bool) -> list[str]:
    """The fields of a column: of a float array, each value's shortest round-trip
    form (``.4g`` unless ``full``), empty where NaN, formatted whole; of any other
    array, its strings; any other sequence as it is."""
    if not isinstance(values, np.ndarray):
        return values
    if values.dtype != float:
        return values.tolist()
    if full:
        text = list(map(repr, values.tolist()))
    else:
        text = list(map(format, values.tolist(), repeat(".4g")))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        text[i] = ""
    return text


def csv_text(header: str, columns, full: bool = True) -> str:
    """CSV text: the header line, then one line per row of ``columns``.
    A column is a float array, NaN where absent, written as :func:`fmt`
    would write each value, or an array or sequence of str, written as is."""
    fields = [_column_text(c, full) for c in columns]
    return "\n".join([header, *map(",".join, zip(*fields, strict=True))]) + "\n"


def _parse_float(text: str, where: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"{where}: cannot parse {name} value {text!r}") from None


def _parse_row(line: str, where: str, row: int) -> tuple[str, float, float]:
    """One stripped data line, data row ``row`` (0-based), as (id, p1, p2),
    NaN for an absent p2. A literal nan p2 is refused: it is not absence."""
    parts = line.split(",")
    if len(parts) != 3:
        raise DataError(f"{where}: expected 3 fields, got {len(parts)}")
    rid, p1_text, p2_text = (p.strip() for p in parts)
    if not rid.isascii() and re.search("[\udc80-\udcff]", rid):  # an undecodable byte
        raise DataError(f"{where}: id {rid!r} is not UTF-8 text")
    p1 = _parse_float(p1_text, where, "p1")
    if p2_text == "":
        return rid, p1, np.nan
    p2 = _parse_float(p2_text, where, "p2")
    if p2 != p2:
        raise DataError(
            f"{where}: record {row} ({rid!r}): p2 out of range: nan; "
            "leave it empty if not followed up"
        )
    return rid, p1, p2


def _directive(line: str, k: int, path: Path, declared: dict) -> None:
    """Enters comment line ``k`` into ``declared`` as name: (value, k) if a directive.
    Refuses a repeat, and a line that only looks like one (``# m=2.5e6``): its count is lost."""
    if not (hit := _DIRECTIVE.match(line)) and _LIKE_DIRECTIVE.match(line):
        raise DataError(f"{path}:{k}: malformed directive {line!r}; "
                        "expected '# m=<int>' or '# r1=<int>'")
    if hit and hit[1] in declared:
        raise DataError(f"{path}:{k}: repeated directive {line!r}; "
                        f"{hit[1]} is declared on line {declared[hit[1]][1]}")
    if hit:
        declared[hit[1]] = (int(hit[2]), k)


def _parse_lines(
    text: str, lineno: int, first_row: int, path: Path, declared: dict, skipped: list
) -> tuple[tuple[list, list, list], DataError | None]:
    """Line-by-line parse of a block of whole lines whose first line is ``lineno + 1``
    and first data row ``first_row``: the (ids, p1, p2) columns of its rows before
    the first malformed line, and that line's error (None if every line is well
    formed). Up to there, directives go into ``declared``, and each line that holds
    no row appends the number of rows before it to ``skipped``."""
    columns: tuple[list, list, list] = ([], [], [])
    for k, s in enumerate(map(str.strip, text[:-1].split("\n")), start=lineno + 1):
        try:
            if s[:1] in ("#", ""):
                _directive(s, k, path, declared)
                skipped.append(first_row + len(columns[0]))
            else:
                row = _parse_row(s, f"{path}:{k}", first_row + len(columns[0]))
                for column, value in zip(columns, row):
                    column.append(value)
        except DataError as fault:
            return columns, fault
    return columns, None


def _parse_clean(text: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Columns of a clean block of whole lines, split and converted at once.
    Clean: ASCII with no comment or padding, each line three fields with a
    non-empty p1. Raises ValueError on any other block, on a value
    that is not a float and on a literal nan p2."""
    if not text.isascii() or any(c in text for c in _UNCLEAN):
        raise ValueError("not clean")
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    seps = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    if len(seps) % 3:
        raise ValueError("field count")
    # per line: comma, comma, newline, each ending a field; p1 non-empty
    widths = (np.diff(seps, prepend=-1) - 1).reshape(-1, 3)
    if (chars[seps].reshape(-1, 3) != tuple(b",,\n")).any() or not widths[:, 1].all():
        raise ValueError("malformed line")
    fields = text.replace("\n", ",").split(",")  # 3 per line, then ""
    p1 = np.fromiter(map(float, fields[1::3]), float, len(widths))
    present = widths[:, 2] > 0
    p2 = np.full(len(widths), np.nan)
    p2[present] = np.fromiter(map(float, compress(fields[2::3], present.tolist())), float)
    if np.isnan(p2[present]).any():
        raise ValueError("nan p2")
    return fields[0:-1:3], p1, p2


def _blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, each ending in a newline."""
    tail = ""
    while chunk := fh.read(_BLOCK_CHARS):
        head, newline, tail = (tail + chunk).rpartition("\n")
        if newline:
            yield head + newline
    if tail:
        yield tail + "\n"


def parse_pvalue_csv(path) -> StudyPairData:
    """Read a ``id,p1,p2`` CSV into a dataset.

    An empty p2 field means the hypothesis was not followed up. Comment
    lines start with ``#``; the directives ``# m=<int>`` and ``# r1=<int>``
    declare the true family and follow-up sizes when the file lists only a
    subset of rows. The dataset is refused (``DataError`` naming the line)
    if a line is malformed (a repeated directive, and a comment like ``# M=5``
    or ``# m=2.5e6`` that starts as a directive but is none, included), if a
    p2 is a literal ``nan``, or if :func:`validate_dataset` finds a fault in
    it; of several faults, the one on the earliest data line is named, an
    empty family at the header. A byte that is not UTF-8 reads as a lone
    surrogate (U+DC80 to U+DCFF): a field that holds one is refused, a
    comment ignored. The file is read once, so it may be a pipe.

    After the header, a clean block of lines (see :func:`_parse_clean`) is
    split at once, and any other read line by line with the same result;
    either way its ids and values go into the three growing columns the
    dataset keeps, and the ids' hashes into one for the repeated-id check.
    """
    path = Path(path)
    declared: dict[str, tuple[int, int]] = {}  # directive name: (value, line number)
    dtypes = (ID, float, float, np.int64)  # the dataset's columns, and the ids' hashes
    columns = ids, p1, p2, hashes = [np.empty(_COLUMN_ROWS, t) for t in dtypes]
    rows = 0
    fault = None  # the first malformed line's error; reading stops there
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if (line := raw.strip())[:1] not in ("#", ""):
                break
            _directive(line, lineno, path, declared)
        else:
            raise DataError(f"{path}: missing header line {PVALUE_HEADER!r}")
        if line != PVALUE_HEADER:
            raise DataError(f"{path}:{lineno}: expected header {PVALUE_HEADER!r}, got {line!r}")
        header = lineno  # where a fault of an undeclared m is named
        skipped: list[int] = []  # per line after it that holds no row, the rows before it
        size, read = os.fstat(fh.fileno()).st_size, 0  # bytes in the file, chars read
        for text in _blocks(fh):
            try:
                block_ids, *values = _parse_clean(text)
            except ValueError:  # line by line, so that a fault names its line
                (block_ids, *values), fault = _parse_lines(
                    text, header + rows + len(skipped), rows, path, declared, skipped)
            read += len(text)
            end = rows + len(block_ids)
            if end > len(p1):  # double in place, or less if the file's size foretells fewer
                foretold = end * size // read * 65 // 64 or 2 * len(p1)  # a pipe's size is 0
                for column in columns:
                    column.resize(max(end, min(2 * len(column), foretold)), refcheck=False)
            ids[rows:end], p1[rows:end], p2[rows:end] = block_ids, *values
            hashes[rows:end] = id_hashes(block_ids)
            rows = end
            if fault is not None:
                break
    m, r1 = (declared.get(name, (None,))[0] for name in ("m", "r1"))
    for column in columns:
        column.resize(rows, refcheck=False)
    ids.flags.writeable = p1.flags.writeable = p2.flags.writeable = False
    data = StudyPairData(ids, p1, p2, m, r1)
    issue = _first_issue(data, hashes)  # rows in order, then the directives
    if fault is not None and (issue is None or issue.row is None):
        raise fault
    if issue is not None:
        line = (declared.get(issue.field, (None, header))[1] if issue.row is None
                else header + 1 + issue.row + sum(k <= issue.row for k in skipped))
        raise DataError(f"{path}:{line}: {issue.where}: {issue.message}")
    return data


def _unreadable(rid: str) -> bool:
    """Whether :func:`parse_pvalue_csv` would not read ``rid`` back as the
    id of its line: it is empty, holds a comma or a line break, starts a
    comment or has surrounding whitespace."""
    return not rid or rid != rid.strip() or rid[0] == "#" or any(c in rid for c in ",\n\r")


def write_pvalue_csv(data: StudyPairData, path) -> None:
    """Writes ``data`` as :func:`parse_pvalue_csv` reads it back: the ``# m=``
    and ``# r1=`` directives it declares, then the ``id,p1,p2`` CSV. Refuses
    an id that would not read back and any fault of :func:`validate_dataset`."""
    ids = data.ids.tolist()
    bad = next((rid for rid in ids if _unreadable(rid)), None)
    if bad is not None:
        raise DataError(
            f"id {bad!r} would not read back: an id is non-empty, has no comma, line "
            "break, leading '#' or surrounding whitespace"
        )
    if (issue := _first_issue(data, id_hashes(ids))) is not None:  # what the reader refuses
        raise DataError(f"{issue.where}: {issue.message}")
    directives = [("m", data.m_declared), ("r1", data.r1_declared)]
    text = "".join(f"# {name}={value}\n" for name, value in directives if value is not None)
    text += csv_text(PVALUE_HEADER, [data.ids, data.p1, data.p2])
    Path(path).write_text(text, encoding="utf-8")


def write_discoveries_csv(data: StudyPairData, report: DiscoveryReport, path) -> None:
    """One row per scored hypothesis, flagged ``rejected`` by row position."""
    rows = report.scored_rows
    columns = [
        data.ids[rows],
        data.p1[rows],
        data.p2[rows],
        report.z,
        report.adjusted,
        np.where(np.isin(rows, report.rejected_rows), "1", "0").tolist(),
    ]
    Path(path).write_text(csv_text(DISCOVERY_HEADER, columns), encoding="utf-8")


def write_adjusted_csv(table: AdjustedTable, path, full: bool = False) -> None:
    header = "id,p1,p2,z,adjusted_p"
    columns = [table.ids, table.p1, table.p2, table.z, table.adjusted]
    if table.modified is not None:
        header += ",adjusted_p_modified"
        columns.append(table.modified)
    Path(path).write_text(csv_text(header, columns, full), encoding="utf-8")


def summary_text(report: DiscoveryReport, data: StudyPairData, params: dict) -> str:
    lines = [f"procedure: {report.procedure}"]
    for key, value in params.items():
        if value is not None:
            lines.append(f"{key}: {value}")
    lines.extend(
        [
            f"m: {data.m}",
            f"r1: {report.r1}",
            f"r2: {report.r2}",
            f"primary_threshold: {fmt(report.primary_threshold)}",
            f"followup_threshold: {fmt(report.followup_threshold)}",
            f"rejected: {' '.join(report.rejected_ids) or '-'}",
        ]
    )
    if report.adjusted_is_upper_bound:
        lines.append(
            "note: dataset lists only part of the follow-up set; adjusted "
            "p-values are upper-bound estimates"
        )
    return "\n".join(lines) + "\n"


def sim_csv_text(rows: list[tuple[float, SimEstimate]]) -> str:
    fields = ("avg_fdp", "fdp_se", "avg_power", "power_se", "avg_rejections")
    columns = [np.array([point for point, _ in rows], dtype=float)]
    columns += [np.array([getattr(est, name) for _, est in rows], dtype=float) for name in fields]
    return csv_text(SIM_HEADER, columns)


_DEPENDENCE_ALIASES = {
    "prds": Dependence.PRDS_FOLLOWUP,
    "item1": Dependence.ARBITRARY_PRIMARY_ITEM1,
    "item2": Dependence.ARBITRARY_PRIMARY_ITEM2,
    "both": Dependence.ARBITRARY_BOTH,
}


def parse_dependence(text: str) -> Dependence:
    """A dependence mode by its value or short alias, in any case."""
    text = text.strip().lower()
    return _DEPENDENCE_ALIASES.get(text) or Dependence(text)


def parse_rule_spec(spec: str) -> SelectionRule:
    """Selection rule specs: ``followup``, ``bh[:LEVEL]``,
    ``bonferroni[:LEVEL]``, ``top:K``, ``threshold:T``. Without a level,
    ``bh`` and ``bonferroni`` run at the primary-stage level of the
    procedure direction that uses them."""
    spec = spec.strip()
    if spec == "followup":
        return SelectionRule("followup")
    kind, colon, arg = spec.partition(":")
    try:
        if kind in ("bh", "bonferroni"):  # "bh:" has an empty level, which float() refuses
            return SelectionRule(kind, level=float(arg) if colon else None)
        if kind == "top":
            return SelectionRule("top_k", k=int(arg))
        if kind == "threshold":
            return SelectionRule("fixed_threshold", threshold=float(arg))
    except ValueError as exc:
        raise ParameterError(f"bad selection spec {spec!r}: {exc}") from None
    raise ParameterError(
        f"unknown selection spec {spec!r}; expected followup, bh[:LEVEL], "
        "bonferroni[:LEVEL], top:K, or threshold:T"
    )


@dataclass(frozen=True)
class ScenarioFile:
    scenario: SimScenario
    sweep_axis: str | None = None
    sweep_grid: tuple[float, ...] | None = None


# scenario key, and analyze flag of the same name: the field it sets and
# the parser of its value; a field with two keys takes one of them
_SCENARIO_KEYS = {
    "m": ("m", int),
    **{
        key: (key, float)
        for key in ("f00", "f01", "f10", "f11", "mu1", "mu2", "sigma1", "sigma2", "sigma", "zeta")
    },
    "N": ("n_total", float),
    "reps": ("reps", int),
    "seed": ("seed", int),
    "procedure": ("kind", str),
    "alpha1": ("q1", float),
    "q1": ("q1", float),
    "alpha": ("q", float),
    "q": ("q", float),
    "w1": ("w1", float),
    "dependence": ("mode", parse_dependence),
    "t": ("t", float),
    "method": ("fwer_method", FwerMethod),
    "primary": ("primary", int),
    "selection": ("selection", parse_rule_spec),
}
_PROCEDURE_FIELDS = {f.name for f in fields(Procedure)}


def _read_keys(raw: dict, kind: str, prefix: str = "") -> dict:
    """The fields that the keys of ``raw`` set, parsed; a key whose value is
    None is absent. Refuses a field set by both of its keys and a procedure
    field that ``kind`` does not read, naming each key ``prefix`` + key. A
    value that does not parse is a DataError, a ParameterError for a flag."""
    # Procedure refuses an unknown kind, so here it reads every field
    reads = _KINDS[kind][0] if kind in _KINDS else _PROCEDURE_FIELDS
    unread = _PROCEDURE_FIELDS - {"kind", *reads}
    values: dict = {}
    keys: dict[str, str] = {}  # the key each field was read from
    for key, (name, parse) in _SCENARIO_KEYS.items():
        if raw.get(key) is None:
            continue
        if name in unread:
            raise ParameterError(f"procedure {kind!r} does not read {prefix}{key}")
        if name in keys:
            raise ParameterError(f"{prefix}{keys[name]} and {prefix}{key} set the same level")
        keys[name] = key
        try:
            values[name] = parse(raw[key])
        except DataError:  # a ParameterError names its fault itself
            raise
        except ValueError:
            error = ParameterError if prefix else DataError
            raise error(f"cannot parse {prefix}{key} value {raw[key]!r}") from None
    return values


def _scenario(raw: dict[str, str]) -> SimScenario:
    """The scenario the keys of ``raw`` give, every other field at its
    default."""
    values = _read_keys(raw, raw.get("procedure", Procedure.kind))
    for field in fields(SimScenario):
        if field.default is MISSING and field.name not in values:
            raise DataError(f"missing required key {field.name!r}")
    procedure = Procedure(**{k: values.pop(k) for k in _PROCEDURE_FIELDS & values.keys()})
    return SimScenario(procedure=procedure, **values)


def parse_scenario_file(path) -> ScenarioFile:
    """Flat ``key = value`` scenario format, ``#`` comments allowed. A
    value the library refuses, at any sweep point too, is a ``DataError``
    naming the file; a repeated key or a ``sweep_grid`` field that is no
    number (an empty one too) also names the line."""
    path = Path(path)
    raw: dict[str, str] = {}
    grid = None
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, value = text.partition("=")
            key = key.strip()
            if not eq or not key:
                raise DataError(f"{path}:{lineno}: expected 'key = value'")
            if key not in _SCENARIO_KEYS and key not in ("sweep_axis", "sweep_grid"):
                raise DataError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise DataError(f"{path}:{lineno}: repeated key {key!r}")
            raw[key] = value = value.strip()
            if key == "sweep_grid":
                try:
                    grid = tuple(float(x) for x in value.split(","))
                except ValueError:
                    raise DataError(
                        f"{path}:{lineno}: cannot parse {key} value {value!r}"
                    ) from None
    axis = raw.get("sweep_axis")
    try:
        scenario = _scenario(raw)
        if grid is not None:
            if axis is None:
                raise DataError("sweep_grid given without sweep_axis")
            for value in grid:
                _scenario_at(scenario, axis, value)
        elif axis is not None:
            raise DataError("sweep_axis given without sweep_grid")
    except (ValueError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return ScenarioFile(scenario=scenario, sweep_axis=axis, sweep_grid=grid)
