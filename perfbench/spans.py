"""In-memory spans recorded by the benchmark around its calls into the program.

A span has a name, a start, an end, its parent span and the id of the
round it belongs to.  Spans stay in memory while the benchmark runs and
are written as JSON lines when it ends.  Self time is a span's duration
minus the time its direct children cover (spans nest strictly because the
traced code runs on one thread).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Iterator


class SpanRecorder:
    """Records nested spans; one instance per traced process."""

    def __init__(self) -> None:
        # [id, parent, round, name, start_ns, end_ns, attrs]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.round = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, self.round, name, time.perf_counter_ns(), 0, attrs]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[5] = time.perf_counter_ns()

    def _of_round(self, round_id: int) -> list[list[Any]]:
        return [s for s in self.spans if s[2] == round_id]

    def busy_s(self, round_id: int) -> dict[str, float]:
        """Total duration per span name within one round, in seconds."""
        totals: dict[str, float] = {}
        for s in self._of_round(round_id):
            totals[s[3]] = totals.get(s[3], 0.0) + (s[5] - s[4]) / 1e9
        return totals

    def self_s(self, round_id: int) -> dict[str, float]:
        """Self time per span name within one round, in seconds."""
        spans = self._of_round(round_id)
        child_ns: dict[int, int] = {}
        for s in spans:
            if s[1] is not None:
                child_ns[s[1]] = child_ns.get(s[1], 0) + (s[5] - s[4])
        totals: dict[str, float] = {}
        for s in spans:
            own = (s[5] - s[4]) - child_ns.get(s[0], 0)
            totals[s[3]] = totals.get(s[3], 0.0) + own / 1e9
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (durations in ns)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, round_id, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "round": round_id,
                            "name": name,
                            "start_ns": start,
                            "dur_ns": end - start,
                            **({"attrs": attrs} if attrs else {}),
                        }
                    )
                    + "\n"
                )
