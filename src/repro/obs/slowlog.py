"""Slow-statement capture: bounded ring of rendered span trees.

Statements whose ``sql.execute`` span exceeds the configured simulated
threshold keep their rendered trace (span tree + I/O deltas) in a ring
of the last N offenders — the simulated analogue of a slow-query log,
on the sim clock so the same seeded workload always captures the same
statements. ``SHOW SLOW QUERIES`` and ``repro.tools.obs`` read it.

``_slow_entries`` is owned by this module (RL005); readers use
:meth:`rows`/:meth:`entries`.
"""

from __future__ import annotations

from collections import deque

from repro.latch import Latch


class SlowQueryLog:
    """Bounded capture of statements slower than ``threshold_s``."""

    def __init__(self, threshold_s: float, capacity: int) -> None:
        self.latch = Latch("slow_query_log")
        self.threshold_s = threshold_s
        self.capacity = capacity
        self._slow_entries: deque = deque(maxlen=capacity)
        self.captured = 0

    @property
    def enabled(self) -> bool:
        return self.threshold_s > 0

    def record(self, *, t_s: float, statement: str, sim_s: float, spans) -> None:
        """Keep one offender; ``spans`` is the rendered trace's lines."""
        with self.latch:
            self._slow_entries.append(
                {
                    "t_s": t_s,
                    "statement": statement,
                    "sim_s": sim_s,
                    "spans": list(spans),
                }
            )
            self.captured += 1

    def entries(self) -> list[dict]:
        """Retained entries, oldest first."""
        with self.latch:
            return list(self._slow_entries)

    def rows(self) -> list[dict]:
        """The ``SHOW SLOW QUERIES`` surface: one summary row per entry."""
        with self.latch:
            return [
                {
                    "t_s": entry["t_s"],
                    "statement": entry["statement"],
                    "sim_s": entry["sim_s"],
                    "spans": len(entry["spans"]),
                }
                for entry in self._slow_entries
            ]
