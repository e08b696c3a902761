"""Deterministic alert engine over recorded metrics history.

Rules are declarative (:class:`AlertRule`): a metric glob, a condition
kind (``threshold`` on the latest value, ``derivative`` on the windowed
rate-of-change, ``absence`` when a metric is missing or stale), an
optional ``for_s`` debounce, and a severity that the health rollup maps
to DEGRADED/CRITICAL. Evaluation reads only the recorder's series and
the sim clock, so the full firing→cleared timeline of a seeded run is
byte-identical across runs — which is what lets CI diff alert histories
and lets tests assert exact transition timestamps.

Each (rule, matched metric) pair owns a tiny state machine:

    ok --breach--> pending --held for_s--> firing --recover--> cleared

``pending`` exists only when ``for_s > 0`` (debounce: the breach must
hold for that many sim-seconds before the alert fires). Transitions into
and out of ``firing`` append an event to a bounded timeline and notify
any subscribed callbacks — the hook ROADMAP item 4's failover logic will
use to react to ``repl.apply_lag`` firings.

Mutable tables here (``_conditions``, ``_events``) are owned by this
module (RL005); readers go through :meth:`active`/:meth:`rows`/
:meth:`events` and drop paths through :meth:`remove_prefix`. All of
them sit under ``self.latch``, so a concurrent ``monitor_tick`` and
``drop_database`` interleave as whole evaluations against whole purges
— never a dict mutated mid-iteration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro.latch import Latch

#: Canonical alert-event schema identifier.
ALERTS_SCHEMA = "repro.obs.alerts/v1"

#: Default bounded capacity of the firing/cleared event timeline.
DEFAULT_EVENTS_CAPACITY = 256

SEVERITIES = ("warning", "critical")
KINDS = ("threshold", "derivative", "absence")
OPS = (">", "<")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert rule.

    ``metric`` is a glob over flattened metric names; every match gets
    its own independent condition state. ``guard_metric``/``guard_min``
    suppress evaluation until a companion metric reaches a floor (e.g.
    don't judge ``version_store.hit_rate`` before any lookups happened).
    """

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    threshold: float = 0.0
    #: Debounce: breach must hold this many sim-seconds before firing.
    for_s: float = 0.0
    #: Window for derivative rules / staleness horizon for absence rules.
    window_s: float = 0.0
    severity: str = "warning"
    subsystem: str = "engine"
    guard_metric: str | None = None
    guard_min: float = 0.0
    doc: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown alert kind {self.kind!r}")
        if self.op not in OPS:
            raise ValueError(f"unknown alert op {self.op!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown alert severity {self.severity!r}")
        if self.kind == "absence" and self.window_s <= 0:
            raise ValueError("absence rules need a positive window_s")

    def breaches(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" else value < self.threshold


@dataclass
class ConditionState:
    """Mutable per-(rule, metric) alert state."""

    rule: AlertRule
    metric: str
    state: str = "ok"  # ok | pending | firing | cleared
    value: float | None = None
    pending_since: float | None = None
    fired_at: float | None = None
    cleared_at: float | None = None
    fired_count: int = 0

    def row(self) -> dict:
        return {
            "rule": self.rule.name,
            "metric": self.metric,
            "state": self.state,
            "severity": self.rule.severity,
            "subsystem": self.rule.subsystem,
            "value": self.value,
            "threshold": self.rule.threshold,
            "fired_at": self.fired_at,
            "cleared_at": self.cleared_at,
            "fired_count": self.fired_count,
        }


class AlertEngine:
    """Evaluates rules against a :class:`~repro.obs.timeseries.MetricsRecorder`."""

    def __init__(self, recorder, *, events_capacity: int = DEFAULT_EVENTS_CAPACITY) -> None:
        self.latch = Latch("alert_engine")
        self.recorder = recorder
        self._rules: dict[str, AlertRule] = {}
        self._conditions: dict[tuple, ConditionState] = {}
        self._events: deque = deque(maxlen=events_capacity)
        self._subscribers: list[tuple] = []
        self.evaluations = 0

    # -- rule management ------------------------------------------------

    def add_rule(self, rule: AlertRule) -> AlertRule:
        with self.latch:
            if rule.name in self._rules:
                raise ValueError(f"duplicate alert rule {rule.name!r}")
            self._rules[rule.name] = rule
            return rule

    def rules(self) -> list[AlertRule]:
        with self.latch:
            return [self._rules[name] for name in sorted(self._rules)]

    def subscribe(self, pattern: str, callback) -> None:
        """Call ``callback(event)`` on every firing/cleared transition of
        rules whose name matches ``pattern`` (a glob)."""
        with self.latch:
            self._subscribers.append((pattern, callback))

    # -- evaluation -----------------------------------------------------

    def evaluate(self) -> list[dict]:
        """Run every rule once; returns the events this pass emitted."""
        with self.latch:
            return self._evaluate_locked(self.recorder.clock.now())

    def _evaluate_locked(self, now: float) -> list[dict]:
        self.evaluations += 1
        emitted: list[dict] = []
        for name in sorted(self._rules):
            rule = self._rules[name]
            if rule.kind == "absence":
                emitted.extend(self._evaluate_absence(rule, now))
            else:
                emitted.extend(self._evaluate_series(rule, now))
        return emitted

    def _guard_open(self, rule: AlertRule) -> bool:
        if rule.guard_metric is None:
            return True
        guard = self.recorder.window(rule.guard_metric)["last"]
        return guard is not None and guard >= rule.guard_min

    def _evaluate_series(self, rule: AlertRule, now: float) -> list[dict]:
        emitted: list[dict] = []
        guard_open = self._guard_open(rule)
        for metric in self.recorder.names(rule.metric):
            window = self.recorder.window(
                metric, rule.window_s if rule.window_s > 0 else None
            )
            value = (
                window["rate_per_s"] if rule.kind == "derivative" else window["last"]
            )
            breach = (
                guard_open and value is not None and rule.breaches(value)
            )
            emitted.extend(self._advance(rule, metric, breach, value, now))
        return emitted

    def _evaluate_absence(self, rule: AlertRule, now: float) -> list[dict]:
        """Fire when no metric matches the glob, or every match has gone
        stale (no sample within ``window_s`` sim-seconds)."""
        matches = self.recorder.names(rule.metric)
        if not matches:
            # The glob names nothing at all: one synthetic instance
            # carries the alert (a dead metric has no series to anchor to).
            return self._advance(rule, rule.metric, self._guard_open(rule), None, now)
        emitted = list(self._advance(rule, rule.metric, False, None, now))
        guard_open = self._guard_open(rule)
        for metric in matches:
            series = self.recorder.series(metric)
            last_t = series.last_t if series is not None else None
            stale = last_t is None or (now - last_t) > rule.window_s
            value = (now - last_t) if last_t is not None else None
            emitted.extend(self._advance(rule, metric, guard_open and stale, value, now))
        return emitted

    def _advance(
        self, rule: AlertRule, metric: str, breach: bool, value, now: float
    ) -> list[dict]:
        key = (rule.name, metric)
        with self.latch:
            cond = self._conditions.get(key)
            if cond is None:
                if not breach:
                    return []
                cond = self._conditions[key] = ConditionState(
                    rule=rule, metric=metric
                )
        cond.value = value
        if breach:
            if cond.state == "firing":
                return []
            if cond.state in ("ok", "cleared"):
                cond.state = "pending"
                cond.pending_since = now
            if now - cond.pending_since >= rule.for_s:
                cond.state = "firing"
                cond.fired_at = now
                cond.cleared_at = None
                cond.fired_count += 1
                return [self._emit("firing", cond, now)]
            return []
        if cond.state == "firing":
            cond.state = "cleared"
            cond.cleared_at = now
            cond.pending_since = None
            return [self._emit("cleared", cond, now)]
        if cond.state == "pending":
            cond.state = "cleared" if cond.fired_count else "ok"
            cond.pending_since = None
        return []

    def _emit(self, kind: str, cond: ConditionState, now: float) -> dict:
        event = {
            "t": now,
            "event": kind,
            "rule": cond.rule.name,
            "metric": cond.metric,
            "value": cond.value,
            "severity": cond.rule.severity,
            "subsystem": cond.rule.subsystem,
        }
        with self.latch:
            self._events.append(event)
            subscribers = list(self._subscribers)
        for pattern, callback in subscribers:
            if fnmatchcase(cond.rule.name, pattern):
                callback(event)
        return event

    # -- read side ------------------------------------------------------

    def active(self) -> list[dict]:
        """Currently-firing conditions, ordered by (rule, metric)."""
        with self.latch:
            return [
                cond.row()
                for key in sorted(self._conditions)
                if (cond := self._conditions[key]).state == "firing"
            ]

    def rows(self) -> list[dict]:
        """Every tracked condition (firing, pending, and cleared) — the
        ``SHOW ALERTS`` surface, where a cleared row is the proof the
        incident ended."""
        with self.latch:
            return [
                self._conditions[key].row() for key in sorted(self._conditions)
            ]

    def events(self) -> list[dict]:
        """The bounded firing/cleared timeline, oldest first."""
        with self.latch:
            return list(self._events)

    def as_dict(self) -> dict:
        return {
            "schema": ALERTS_SCHEMA,
            "rules": [rule.name for rule in self.rules()],
            "conditions": self.rows(),
            "events": self.events(),
        }

    # -- lifecycle ------------------------------------------------------

    def remove_prefix(self, prefix: str) -> None:
        """Forget conditions anchored to metrics under ``prefix`` (a
        dropped database must not keep ghost alerts alive)."""
        with self.latch:
            for key in [k for k in self._conditions if k[1].startswith(prefix)]:
                del self._conditions[key]


def builtin_rules(cfg) -> list[AlertRule]:
    """The stock rule set over the PR 6 gauges, thresholds from
    :class:`~repro.config.MonitorConfig`."""
    return [
        AlertRule(
            name="repl.apply_lag",
            metric="replica.*.apply_lag_bytes",
            threshold=float(cfg.apply_lag_bytes),
            for_s=cfg.apply_lag_for_s,
            severity="warning",
            subsystem="replication",
            doc="replica apply cursor trails the primary by too many bytes",
        ),
        AlertRule(
            name="repl.apply_lag_s",
            metric="replica.*.apply_lag_s",
            threshold=cfg.apply_lag_s,
            for_s=cfg.apply_lag_for_s,
            severity="critical",
            subsystem="replication",
            doc="replica apply cursor trails the primary by too many seconds",
        ),
        AlertRule(
            name="repl.ship_errors",
            metric="repl.ship.*.consecutive_errors",
            op=">",
            threshold=float(cfg.ship_error_streak) - 1.0,
            severity="warning",
            subsystem="replication",
            doc="a ship-stream subscription keeps failing (retrying under "
            "backoff); the failure detector treats this as suspicion",
        ),
        AlertRule(
            name="repl.ship_stall",
            metric="repl.ship.*.progress_t",
            kind="absence",
            window_s=cfg.ship_stall_s,
            severity="critical",
            subsystem="replication",
            guard_metric="repl.subscriptions",
            guard_min=1.0,
            doc="a ship-stream subscription has made no progress for the "
            "stall window — its progress gauge went silent (crashed "
            "primary, partition, or a stuck subscriber)",
        ),
        AlertRule(
            name="archive.cursor_lag",
            metric="archive.*.cursor_lag_bytes",
            threshold=float(cfg.archive_lag_bytes),
            severity="warning",
            subsystem="archive",
            doc="archiver has unshipped log beyond its backlog budget",
        ),
        AlertRule(
            name="retention.pin_pressure",
            metric="retention.*.pin_lag_bytes",
            threshold=float(cfg.pin_lag_bytes),
            severity="warning",
            subsystem="retention",
            doc="oldest snapshot pin is holding back log truncation",
        ),
        AlertRule(
            name="version_store.hit_rate_floor",
            metric="version_store.hit_rate",
            op="<",
            threshold=cfg.version_store_hit_rate_floor,
            severity="warning",
            subsystem="version_store",
            guard_metric="version_store.lookups",
            guard_min=float(cfg.version_store_min_lookups),
            doc="page-version cache is missing more than the configured floor",
        ),
        AlertRule(
            name="pool.occupancy",
            metric="pool.*.occupancy",
            threshold=cfg.pool_occupancy,
            severity="warning",
            subsystem="buffer_pool",
            doc="buffer pool is nearly full",
        ),
    ]
