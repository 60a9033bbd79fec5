"""Span recorder for the traced run.

The benchmark does not change the program to trace it. While a
:class:`SpanRecorder` instruments the package, the public functions of its
modules are replaced by wrappers that open a span around each call; the
CLI and the library find the wrappers because they call across modules
through module attributes. Spans stay in memory, each with its parent,
and are written out as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path


class SpanRecorder:
    """In-memory spans. One stack of open spans serves the whole process,
    so wrapped functions must be called from one thread; the simulator's
    worker threads call none of them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self.kept: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str, part: str | None = None, **attrs):
        """Record ``name`` from entry to exit. ``part`` labels the span and
        its descendants with the workload they belong to."""
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "part": part if part is not None else (parent["part"] if parent else None),
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, func, name, counts, keep):
        @functools.wraps(func)
        def spanned(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if counts is not None:
                record.update(counts(result, *args, **kwargs))
            if keep:
                self.kept[name] = result
            return result

        return spanned

    @contextlib.contextmanager
    def instrument(self, targets):
        """Patch each ``(owner, attribute, span name, counts, keep)`` target
        for the duration of the block. ``counts(result, *args, **kwargs)``
        returns counts to store on the span; ``keep`` holds on to the last
        result in :attr:`kept`."""
        saved = []
        try:
            for owner, attr, name, counts, keep in targets:
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    patched = property(self._wrap(original.fget, name, counts, keep))
                else:
                    patched = self._wrap(original, name, counts, keep)
                setattr(owner, attr, patched)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.kept.clear()

    def find(self, name: str, part: str | None = None, parent: str | None = None) -> list[dict]:
        """Closed spans called ``name``, optionally within ``part`` and with
        a direct parent called ``parent``."""
        by_id = {s["id"]: s for s in self.spans}
        return [
            s for s in self.spans
            if s["name"] == name
            and s["end"] is not None
            and (part is None or s["part"] == part)
            and (parent is None or (s["parent"] is not None and by_id[s["parent"]]["name"] == parent))
        ]

    def one(self, name: str, part: str | None = None, parent: str | None = None) -> dict:
        """The one closed span matching the filters of :meth:`find`."""
        found = self.find(name, part, parent)
        if len(found) != 1:
            raise LookupError(f"{len(found)} spans match {name!r} in {part!r} under {parent!r}")
        return found[0]

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans, indent=1) + "\n", encoding="utf-8")


def duration(span: dict) -> float:
    return span["end"] - span["start"]
