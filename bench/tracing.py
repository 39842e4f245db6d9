"""Spans recorded by the benchmark around its own calls into the library.

Spans stay in memory and are written out once, when the run ends.  Each has
a name (`<module>.<function>`), start and end times, the index of the span
that encloses it, the job it belongs to, a call count (a loop timed as one
span counts each call) and a work count (states examined, entries tallied).
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    calls: int
    work: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, calls=1, work=0):
        rec = Span(name, perf_counter(), 0.0, self._open[-1] if self._open else None,
                   self.job, calls, work)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()

    def find(self, name, job_prefix=""):
        return [s for s in self.spans if s.name == name and (s.job or "").startswith(job_prefix)]

    def dump(self):
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    job = None
    _NULL = contextlib.nullcontext()

    def span(self, name, calls=1, work=0):
        return self._NULL


def table(spans, job_prefix=""):
    """Per span name, over the spans whose job starts with `job_prefix`:
    calls, total seconds, self seconds (total minus the time covered by
    directly nested spans) and work.  `spans` is a tracer's whole list."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.seconds
    rows = {}
    for s, inner in zip(spans, child_time):
        if not (s.job or "").startswith(job_prefix):
            continue
        row = rows.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += s.calls
        row["s"] += s.seconds
        row["self_s"] += s.seconds - inner
        row["work"] += s.work
    return rows
