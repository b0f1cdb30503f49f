"""In-memory spans for the traced run, and the per-layer figures taken from them.

A span records one call into a kvroof layer: its name (``<layer>.<step>``),
host start and end times from ``time.perf_counter``, the span that caused
it, and the workload. Spans stay in memory until the run ends and are then
written out as JSON Lines.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    workload: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.workload)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield
        finally:
            self._open.pop()
            span.end = time.perf_counter()

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and every span below it."""
        members = {root.id}
        for s in self.spans[root.id + 1 :]:
            if s.parent in members:
                members.add(s.id)
        return [self.spans[i] for i in sorted(members)]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    The tracer is single-threaded, so the children of one span never
    overlap and their durations add up to the covered time.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own
