"""In-memory spans recorded around calls into the program's modules.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it started (``-1`` for none) and the id of the
item it belongs to.  Spans stay in memory until the run ends, when
:meth:`Tracer.dump` writes them out.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

PROBE = "probe"  # item id of calls made off the item path


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    item: object


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.item: object = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.item)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    run_start = run_end = None
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if run_end is not None and a <= run_end:
            run_end = max(run_end, b)
            continue
        if run_end is not None:
            total += run_end - run_start
        run_start, run_end = a, b
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Self time of each span in ns: its duration minus what children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_ns(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


class LayerStats(NamedTuple):
    calls: int
    inclusive_ns: int
    self_ns: int


def layer_table(spans: list[Span]) -> tuple[dict[str, LayerStats], dict[str, LayerStats]]:
    """Aggregate spans by name, separately for item-path and probe calls."""
    selfs = self_times(spans)
    on_path: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    probe: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for s, own in zip(spans, selfs):
        acc = (probe if s.item == PROBE else on_path)[s.name]
        acc[0] += 1
        acc[1] += s.end - s.start
        acc[2] += own
    return ({k: LayerStats(*v) for k, v in on_path.items()},
            {k: LayerStats(*v) for k, v in probe.items()})
