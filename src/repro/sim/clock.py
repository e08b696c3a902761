"""Deterministic simulated wall clock.

Every timestamped artifact in the engine — commit log records, checkpoint
records, retention horizons, benchmark timings — reads this clock instead of
the host's. Devices (:mod:`repro.sim.device`) advance it as they serve I/O,
and workloads advance it to model think time, so "minutes of history"
in the paper's figures map to simulated minutes here, reproducibly.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime, timedelta, timezone

#: Simulated epoch: timestamps render as dates near the paper's publication.
SIM_EPOCH = datetime(2012, 3, 22, 12, 0, 0, tzinfo=timezone.utc)


def host_perf_counter() -> float:
    """Real (host) monotonic seconds, for benchmark *reporting* only.

    Engine code never reads the host clock — replay determinism depends
    on it (reprolint rule RL003 enforces this). The sim layer owns the
    boundary to the real world, so tooling that wants to report how long
    a run took on the host goes through this single function.
    """
    return time.perf_counter()


class SimClock:
    """A monotonically advancing simulated clock.

    The clock value is a float number of seconds since an arbitrary origin
    (0.0 by default). :meth:`to_datetime` / :meth:`from_datetime` convert to
    human-readable timestamps anchored at :data:`SIM_EPOCH`, which is what
    the SQL surface's ``AS OF '2012-03-22 ...'`` literals use.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        # Leaf lock: several sessions race the clock forward (devices,
        # think time). It guards only the read-modify-write below and is
        # never held while calling anything else.
        self._lock = threading.Lock()

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} (< 0)")
        with self._lock:
            self._now += seconds
            return self._now

    def to_datetime(self, timestamp: float | None = None) -> datetime:
        """Render a simulated timestamp as an absolute UTC datetime."""
        if timestamp is None:
            timestamp = self._now
        return SIM_EPOCH + timedelta(seconds=timestamp)

    @staticmethod
    def from_datetime(moment: datetime) -> float:
        """Convert an absolute datetime back to simulated seconds."""
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return (moment - SIM_EPOCH).total_seconds()

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
