"""Failure detection on top of the alert engine.

The :class:`FailureDetector` subscribes (via ``engine.on_alert``) to the
built-in ship-health rules — ``repl.ship_errors`` (consecutive send
failures past the configured streak) and ``repl.ship_stall`` (the
absence rule over ``repl.ship.*.progress_t``, which goes stale the
moment a subscription stops making progress) — and runs a small
deterministic state machine per primary::

    healthy --alert firing--> suspect --held confirm_s & still
        unhealthy--> down           (on_down fires exactly once)
            \\--progress resumed--> healthy   ("recovered")

Suspicion alone never triggers failover: a transient blip raises the
alert, the shipper's backoff retries heal it, the alert clears, and the
detector demotes the suspect back to healthy. Only a suspicion that
*stays* unhealthy for ``confirm_s`` sim-seconds — re-checked against
live shipper error state and the primary's crash flag at confirmation
time — is confirmed down. Every transition lands on the engine's
``ha_events`` timeline, so two same-seed chaos runs produce
byte-identical detection histories.
"""

from __future__ import annotations

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"

#: Alert-rule name glob the detector listens on.
SHIP_ALERT_PATTERN = "repl.ship_*"

_ARCHIVE_PREFIX = "~archive:"


class FailureDetector:
    """Suspect/confirm failure detection for every primary on an engine."""

    def __init__(self, engine, *, confirm_s: float = 2.0, on_down=None) -> None:
        if confirm_s < 0:
            raise ValueError("confirm_s must be >= 0")
        self.engine = engine
        self.confirm_s = confirm_s
        #: ``on_down(db_name)`` runs once per confirmed-down primary.
        self.on_down = on_down
        self._ha_state: dict[str, dict] = {}
        engine.on_alert(SHIP_ALERT_PATTERN, self._on_alert)

    # ------------------------------------------------------------------

    def state(self, db_name: str) -> str:
        entry = self._ha_state.get(db_name)
        return entry["state"] if entry is not None else HEALTHY

    # ------------------------------------------------------------------

    def _primary_of(self, metric: str) -> str | None:
        """Map ``repl.ship.<subscriber>.<gauge>`` to the subscriber's
        primary database (``None`` for the synthetic no-match instance,
        whose "metric" is the rule's glob)."""
        parts = metric.split(".")
        if len(parts) != 4 or parts[:2] != ["repl", "ship"]:
            return None
        subscriber = parts[2]
        if subscriber.startswith(_ARCHIVE_PREFIX):
            name = subscriber[len(_ARCHIVE_PREFIX):]
            return name if name in self.engine.databases else None
        replica = self.engine.replicas.get(subscriber)
        if replica is not None:
            return replica.primary.name
        return None

    def _on_alert(self, event: dict) -> None:
        primary = self._primary_of(event["metric"])
        if primary is None:
            return
        entry = self._ha_state.setdefault(
            primary, {"state": HEALTHY, "since": 0.0}
        )
        if event["event"] == "firing" and entry["state"] == HEALTHY:
            entry["state"] = SUSPECT
            entry["since"] = event["t"]
            self.engine._record_ha(
                "suspect",
                primary,
                f"alert {event['rule']} firing on {event['metric']}",
            )
        elif event["event"] == "cleared" and entry["state"] == SUSPECT:
            if not self._unhealthy(primary):
                entry["state"] = HEALTHY
                self.engine._record_ha(
                    "recovered", primary, f"alert {event['rule']} cleared"
                )

    def _unhealthy(self, db_name: str) -> bool:
        """Live liveness check at confirmation time: crashed flag, or
        every ship subscription failing."""
        db = self.engine.databases.get(db_name)
        if db is None:
            return False  # already failed over or dropped
        if db.crashed:
            return True
        errors = self.engine.shipper_errors(db_name)
        return bool(errors) and all(streak > 0 for streak in errors.values())

    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Confirm (or demote) held suspicions; the engine calls this
        from ``replication_tick``."""
        now = self.engine.env.clock.now()
        for name in sorted(self._ha_state):
            entry = self._ha_state[name]
            if entry["state"] != SUSPECT:
                continue
            if now - entry["since"] < self.confirm_s:
                continue
            if self._unhealthy(name):
                entry["state"] = DOWN
                self.engine._record_ha(
                    "confirmed_down",
                    name,
                    f"suspect held {self.confirm_s:g}s without progress",
                )
                if self.on_down is not None:
                    self.on_down(name)
            else:
                entry["state"] = HEALTHY
                self.engine._record_ha(
                    "recovered", name, "progress resumed before confirmation"
                )

    def __repr__(self) -> str:
        states = {name: st["state"] for name, st in sorted(self._ha_state.items())}
        return f"FailureDetector(confirm_s={self.confirm_s}, {states})"
