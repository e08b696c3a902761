"""The engine monitor: recorder + alert engine + health, one tick.

:class:`EngineMonitor` bundles a
:class:`~repro.obs.timeseries.MetricsRecorder` and an
:class:`~repro.obs.alerts.AlertEngine` behind the single ``tick()`` the
engine calls from its pump points (SQL dispatch, ``replication_tick``).
A tick samples only when the sim-clock cadence is due and evaluates the
rules only when a sample actually ran, so alert timelines are a pure
function of the simulated execution — the determinism contract the
``SHOW HISTORY`` / ``SHOW ALERTS`` byte-identity tests pin down.

``self.latch`` makes ``tick`` and ``remove_prefix`` mutually atomic:
a session's pump-point tick and a concurrent ``DROP DATABASE`` purge
serialize as whole units, so a drop never lands between a tick's
sample and its rule evaluation (which could otherwise briefly alert on
series the drop was in the middle of forgetting).
"""

from __future__ import annotations

from repro.latch import Latch
from repro.obs.alerts import AlertEngine, builtin_rules
from repro.obs.health import rollup
from repro.obs.timeseries import MetricsRecorder

class EngineMonitor:
    """Continuous monitoring over one metrics registry."""

    def __init__(
        self,
        registry,
        clock,
        config,
        *,
        rules=None,
        like: str | None = None,
    ) -> None:
        self.latch = Latch("engine_monitor")
        self.config = config
        self.recorder = MetricsRecorder(
            registry,
            clock,
            interval_s=config.sample_interval_s,
            capacity=config.history_samples,
            like=like,
        )
        self.alerts = AlertEngine(
            self.recorder, events_capacity=config.events_capacity
        )
        for rule in builtin_rules(config) if rules is None else rules:
            self.alerts.add_rule(rule)

    def start(self) -> None:
        with self.latch:
            self.recorder.start()
            self.alerts.evaluate()

    def tick(self) -> bool:
        """One pump-point tick; returns whether a sample+evaluation ran."""
        with self.latch:
            if not self.recorder.maybe_sample():
                return False
            self.alerts.evaluate()
            return True

    # -- read side ------------------------------------------------------

    def history(self, like: str | None = None, window_s: float | None = None) -> dict:
        return self.recorder.history(like, window_s)

    def active_alerts(self) -> list[dict]:
        return self.alerts.active()

    def alert_rows(self) -> list[dict]:
        return self.alerts.rows()

    def events(self) -> list[dict]:
        return self.alerts.events()

    def health(self) -> dict:
        return rollup(self.alerts)

    def on_alert(self, pattern: str, callback) -> None:
        self.alerts.subscribe(pattern, callback)

    # -- lifecycle ------------------------------------------------------

    def remove_prefix(self, prefix: str) -> None:
        """Purge a dropped database/replica from history and alert state."""
        with self.latch:
            self.recorder.remove_prefix(prefix)
            self.alerts.remove_prefix(prefix)
