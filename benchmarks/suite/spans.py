"""Bench-side spans: recorded in memory, written once at the end.

A span is ``(id, name, start, end, parent, request)`` in seconds of
``time.perf_counter``; ``request`` ties the spans of one request
together.  Spans wrap calls from the suite into the program's public
functions — the program itself is not instrumented — so a layer's self
time is its span minus the part covered by its children.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    """An append-only span log; ``enabled=False`` makes every call free."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        # Reserve the slot so children get higher ids than their parent.
        self.spans.append((span_id, name, 0.0, 0.0, parent, request))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, request)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request: Optional[int] = None,
        parent: Optional[int] = None,
    ) -> None:
        """Record a span timed elsewhere (an asynchronous request)."""
        if self.enabled:
            if parent is None and self._stack:
                parent = self._stack[-1]
            self.spans.append(
                (len(self.spans), name, start, end, parent, request)
            )

    def root_coverage(self, wall_start: float, wall_end: float) -> float:
        """Share of ``[wall_start, wall_end)`` covered by top-level spans."""
        intervals = sorted(
            (max(start, wall_start), min(end, wall_end))
            for _, _, start, end, parent, _ in self.spans
            if parent is None and end > start
        )
        covered = 0.0
        cursor = wall_start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        total = wall_end - wall_start
        return covered / total if total > 0 else 0.0

    def write(self, path: Path) -> None:
        fields = ["id", "name", "start", "end", "parent", "request"]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as stream:
            json.dump({"fields": fields, "spans": self.spans}, stream)
