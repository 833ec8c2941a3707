"""Exclusive wall-clock accounting for run phases.

Phases may nest (the screener runs inside both sampling and processing);
time is charged to the innermost active phase only, so the per-phase totals
never sum to more than the elapsed wall clock.

Each ``ExecutionContext`` owns one timer, so every phase of a run that
shares the context is charged to the same totals.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class PhaseTimer:
    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    @contextmanager
    def phase(self, name: str):
        now = perf_counter()
        if self._stack:
            parent = self._stack[-1]
            self.totals[parent[0]] += now - parent[1]
        self._stack.append([name, now])
        try:
            yield
        finally:
            now = perf_counter()
            current = self._stack.pop()
            self.totals[current[0]] += now - current[1]
            if self._stack:
                self._stack[-1][1] = now

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)
