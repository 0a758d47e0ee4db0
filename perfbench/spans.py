"""In-memory spans recorded around the benchmark's own calls into negadget.

A span records a name, start, end, parent span and run id, plus integer
counts read off the return value of the call it wraps.  Spans stay in
memory and are written out once, when the run ends.  Nothing inside the
program is traced: every span boundary is a public call the benchmark
makes itself.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run_id`` is set per benchmark pass."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **counts: int) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(len(self.spans), name, parent, self.run_id, time.perf_counter(),
                 counts=counts)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


class NullTracer:
    """Same interface as Tracer; records nothing (the untraced runs)."""

    enabled = False

    @contextmanager
    def span(self, name: str, **counts: int) -> Iterator[Span]:
        yield Span(0, name, None, "", 0.0, counts=counts)


def covered(parent: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals, clipped to parent."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    ):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.span_id: s.duration - covered(s, children.get(s.span_id, []))
            for s in spans}
