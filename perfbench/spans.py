"""Spans recorded by the benchmark around its calls into portarb.

A span has a name (`<layer>.<call>`), start and end (perf_counter ns), the
span that encloses it and the run id. Spans stay in memory and are written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext


class Spans:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[tuple[int, str, int, int, int | None]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append((sid, name, start, end, parent))

    def durations(self, name: str) -> list[float]:
        """Seconds spent in each span called `name`."""
        return [(end - start) / 1e9 for _, n, start, end, _ in self.records if n == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus its direct children's."""
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent in self.records:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _ in self.records:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - child_ns.get(sid, 0)) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in sorted(self.records):
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


class NoSpans:
    """Stand-in for untraced runs: records nothing."""

    def span(self, name: str):
        return nullcontext()
