"""Spans around the benchmark's calls into treelab.

A span records a name, start and end (``time.perf_counter`` seconds), the
span it was opened under, the run it belongs to and a few work counts.
Spans stay in memory until the run ends; ``write`` then saves them with the
self time of each span name.  With tracing off the benchmark uses
``NULL``, whose spans do nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name, **attrs):
        return self._null


NULL = _NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus what its children cover.

    Children of one span run one after another, so their durations add up
    without overlap.  Span ids are unique within a run only, so a span is
    known by its run and id.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[(s["run"], s["parent"])] += duration(s)
    out = defaultdict(float)
    for s in spans:
        out[s["name"]] += duration(s) - child_time[(s["run"], s["id"])]
    return dict(out)


def write(path, tracer: Tracer, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"record": record, "self_time_s": self_times(tracer.spans),
                   "spans": tracer.spans}, fh, default=str)
