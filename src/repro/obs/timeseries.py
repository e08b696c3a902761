"""Sim-clock metrics history: bounded ring-buffer series over snapshots.

A :class:`MetricsRecorder` turns the point-in-time canonical snapshot
(:meth:`~repro.obs.registry.MetricsRegistry.snapshot`) into *history*:
on every due tick it flattens the document and appends one ``(t, value)``
point per metric into a bounded ring buffer. Nothing here runs on a real
thread — the engine drives :meth:`maybe_sample` from its existing pump
points (SQL statement dispatch, ``replication_tick``, AS OF pins), so a
seeded workload produces the exact same sample timeline on every run:
the recorder's whole state is a pure function of the simulated execution.

Windowed queries (:meth:`window`/:meth:`history`) reduce a series to
``last``/``min``/``max``/``mean``/``rate_per_s`` over the trailing
``window_s`` simulated seconds; the alert engine's threshold and
derivative conditions read these. ``SHOW HISTORY '<glob>'`` and
``python -m repro.tools.obs --history`` render the same summaries.

The series table (``_series``) is owned by this module (RL005): other
code reads through :meth:`points`/:meth:`window`/:meth:`as_dict` and
unregisters through :meth:`remove_prefix` (dropped databases and
replicas must not leave ghost history behind).
"""

from __future__ import annotations

from collections import deque
from fnmatch import fnmatchcase

from repro.latch import Latch
from repro.obs.export import flatten_snapshot

#: Canonical history document schema identifier.
HISTORY_SCHEMA = "repro.obs.history/v1"

#: Default per-series ring capacity (samples retained).
DEFAULT_HISTORY_SAMPLES = 512

#: Default sim-clock sampling cadence, seconds.
DEFAULT_SAMPLE_INTERVAL_S = 1.0


class Series:
    """One metric's bounded ``(t, value)`` history ring."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self._points: deque = deque(maxlen=capacity)

    def append(self, t: float, value) -> None:
        self._points.append((t, value))

    def points(self, window_s: float | None = None, now: float | None = None) -> list:
        """The retained ``(t, value)`` points, oldest first; ``window_s``
        keeps only points within that many sim-seconds of ``now`` (the
        newest point's time when not given)."""
        pts = list(self._points)
        if window_s is None or not pts:
            return pts
        horizon = (now if now is not None else pts[-1][0]) - window_s
        return [p for p in pts if p[0] >= horizon]

    @property
    def last_t(self) -> float | None:
        return self._points[-1][0] if self._points else None


def summarize(points: list) -> dict:
    """``last``/``min``/``max``/``mean``/``rate_per_s`` over points.

    ``rate_per_s`` is the endpoint slope ``(last - first) / (t_last -
    t_first)`` — the derivative the alert engine's rate conditions use;
    0.0 when fewer than two points (or zero elapsed) make a slope
    meaningless.
    """
    if not points:
        return {
            "points": 0,
            "first_s": None,
            "last_s": None,
            "last": None,
            "min": None,
            "max": None,
            "mean": None,
            "rate_per_s": 0.0,
        }
    values = [v for _t, v in points]
    t_first, v_first = points[0]
    t_last, v_last = points[-1]
    elapsed = t_last - t_first
    return {
        "points": len(points),
        "first_s": t_first,
        "last_s": t_last,
        "last": v_last,
        "min": min(values),
        "max": max(values),
        "mean": sum(values) / len(values),
        "rate_per_s": (v_last - v_first) / elapsed if elapsed > 0 else 0.0,
    }


class MetricsRecorder:
    """Samples a registry's flattened snapshot on a sim-clock cadence.

    A sample is taken whenever :meth:`maybe_sample` runs at or past the
    next due time; the next due time is then ``now + interval_s``. The
    cadence therefore rides the engine's pump points rather than a wall
    timer — which is exactly what makes two identical seeded runs
    byte-identical: same pump sequence, same clock, same samples.
    """

    def __init__(
        self,
        registry,
        clock,
        *,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        capacity: int = DEFAULT_HISTORY_SAMPLES,
        like: str | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 2:
            raise ValueError("capacity must be at least 2 (rates need a slope)")
        self.latch = Latch("metrics_recorder")
        self.registry = registry
        self.clock = clock
        self.interval_s = interval_s
        self.capacity = capacity
        self.like = like
        self.samples_taken = 0
        self.last_sample_s: float | None = None
        self._next_due: float | None = None
        self._series: dict[str, Series] = {}

    # -- sampling -------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._next_due is not None

    def start(self) -> None:
        """Arm the recorder and take the first sample immediately."""
        with self.latch:
            if self.started:
                return
            self._next_due = self.clock.now()
            self.maybe_sample()

    def maybe_sample(self) -> bool:
        """Sample if the cadence is due; returns whether a sample ran."""
        with self.latch:
            if self._next_due is None:
                return False
            now = self.clock.now()
            if now < self._next_due:
                return False
            self.sample()
            return True

    def sample(self) -> float:
        """Take one sample unconditionally; returns its sim timestamp."""
        with self.latch:
            now = self.clock.now()
            flat = flatten_snapshot(self.registry.snapshot(self.like))
            for name, value in flat.items():
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = Series(name, self.capacity)
                series.append(now, value)
            self.samples_taken += 1
            self.last_sample_s = now
            if self._next_due is not None:
                self._next_due = now + self.interval_s
            return now

    # -- read side ------------------------------------------------------

    def names(self, like: str | None = None) -> list[str]:
        with self.latch:
            names = sorted(self._series)
        if like is None:
            return names
        return [n for n in names if fnmatchcase(n, like)]

    def series(self, name: str) -> Series | None:
        with self.latch:
            return self._series.get(name)

    def points(self, name: str, window_s: float | None = None) -> list:
        with self.latch:
            series = self._series.get(name)
            if series is None:
                return []
            return series.points(window_s, now=self.clock.now())

    def window(self, name: str, window_s: float | None = None) -> dict:
        """The windowed summary of one series (see :func:`summarize`)."""
        return summarize(self.points(name, window_s))

    def history(self, like: str | None = None, window_s: float | None = None) -> dict:
        """``{name: summary}`` for every (glob-matched) series."""
        return {
            name: self.window(name, window_s) for name in self.names(like)
        }

    def as_dict(self, like: str | None = None) -> dict:
        """The canonical history document: full retained points per
        series, schema-tagged, keys sorted — the ``--history --json``
        export CI diffs for byte-identity."""
        with self.latch:
            return {
                "schema": HISTORY_SCHEMA,
                "interval_s": self.interval_s,
                "samples": self.samples_taken,
                "series": {
                    name: [[t, v] for t, v in self._series[name].points()]
                    for name in self.names(like)
                },
            }

    # -- lifecycle ------------------------------------------------------

    def remove_prefix(self, prefix: str) -> None:
        """Drop every series under ``prefix`` (a dropped database or
        replica must not leave ghost history behind)."""
        with self.latch:
            for name in [n for n in self._series if n.startswith(prefix)]:
                del self._series[name]
