"""Continuous monitoring: recorder cadence, alert lifecycle, health.

The acceptance contract this file pins down:

* the recorder samples on its sim-clock cadence from the engine's pump
  points, and two identical seeded TPC-C + replication runs produce
  byte-identical ``SHOW HISTORY`` output and alert event timelines;
* an induced replica-lag scenario (apply paused) deterministically
  fires then clears ``repl.apply_lag``, observable through both
  ``engine.active_alerts()`` and SQL ``SHOW ALERTS``, with
  ``SHOW HEALTH`` transitioning OK → DEGRADED → OK;
* (that ``DROP DATABASE`` / ``drop_replica`` / ``promote_replica`` purge
  the dead subsystem's gauges, recorded series and alert conditions is
  now three routes of ``tests/test_retirement.py``'s matrix.)
"""

from __future__ import annotations

import json

import pytest

from repro import DatabaseConfig, Engine
from repro.config import CostModel, MonitorConfig, SimEnv
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.health import CRITICAL, DEGRADED, OK, rollup
from repro.obs.timeseries import MetricsRecorder, summarize
from repro.sim.clock import SimClock
from repro.sim.device import SAS_10K
from repro.workload import TpccScale, load_tpcc
from repro.workload.driver import TpccDriver

# ---------------------------------------------------------------------------
# Recorder unit behavior
# ---------------------------------------------------------------------------


def _recorder(interval_s=1.0, capacity=8):
    from repro.obs.registry import MetricsRegistry

    clock = SimClock()
    registry = MetricsRegistry()
    state = {"v": 0}
    registry.gauge("a.v", lambda: state["v"])
    recorder = MetricsRecorder(
        registry, clock, interval_s=interval_s, capacity=capacity
    )
    return recorder, clock, state


class TestRecorder:
    def test_cadence_gates_sampling(self):
        recorder, clock, state = _recorder(interval_s=1.0)
        recorder.start()  # immediate first sample
        assert recorder.samples_taken == 1
        assert recorder.maybe_sample() is False  # not due yet
        clock.advance(0.5)
        assert recorder.maybe_sample() is False
        clock.advance(0.5)
        state["v"] = 7
        assert recorder.maybe_sample() is True
        assert recorder.points("a.v") == [(0.0, 0), (1.0, 7)]

    def test_window_summary_and_rate(self):
        recorder, clock, state = _recorder()
        recorder.start()
        for value in (10, 20, 60):
            clock.advance(1.0)
            state["v"] = value
            recorder.maybe_sample()
        summary = recorder.window("a.v")
        assert summary["points"] == 4
        assert summary["last"] == 60
        assert summary["min"] == 0
        assert summary["max"] == 60
        assert summary["mean"] == pytest.approx(22.5)
        assert summary["rate_per_s"] == pytest.approx(20.0)  # (60-0)/3s
        # Trailing window keeps only recent points.
        windowed = recorder.window("a.v", window_s=1.5)
        assert windowed["points"] == 2
        assert windowed["rate_per_s"] == pytest.approx(40.0)  # (60-20)/1s

    def test_ring_capacity_bounds_history(self):
        recorder, clock, state = _recorder(capacity=4)
        recorder.start()
        for i in range(10):
            clock.advance(1.0)
            state["v"] = i
            recorder.maybe_sample()
        points = recorder.points("a.v")
        assert len(points) == 4
        assert points[-1][1] == 9  # newest survives, oldest evicted

    def test_empty_summary_shape(self):
        assert summarize([]) == {
            "points": 0,
            "first_s": None,
            "last_s": None,
            "last": None,
            "min": None,
            "max": None,
            "mean": None,
            "rate_per_s": 0.0,
        }

    def test_remove_prefix_drops_series(self):
        recorder, clock, _state = _recorder()
        recorder.registry.gauge("replica.r1.lag", lambda: 1)
        recorder.start()
        assert recorder.names("replica.*") == ["replica.r1.lag"]
        recorder.remove_prefix("replica.r1.")
        assert recorder.names("replica.*") == []
        assert recorder.names() == ["a.v"]


# ---------------------------------------------------------------------------
# Alert engine unit behavior
# ---------------------------------------------------------------------------


def _alert_rig(rule: AlertRule, interval_s=1.0):
    recorder, clock, state = _recorder(interval_s=interval_s)
    engine = AlertEngine(recorder)
    engine.add_rule(rule)
    recorder.start()

    def step(value, dt=1.0):
        clock.advance(dt)
        state["v"] = value
        recorder.maybe_sample()
        return engine.evaluate()

    return engine, step


class TestAlertEngine:
    def test_threshold_fires_and_clears(self):
        engine, step = _alert_rig(AlertRule(name="hot", metric="a.v", threshold=10))
        assert step(5) == []
        events = step(15)
        assert [e["event"] for e in events] == ["firing"]
        assert engine.active()[0]["rule"] == "hot"
        events = step(3)
        assert [e["event"] for e in events] == ["cleared"]
        assert engine.active() == []
        # The cleared condition stays visible with its full lifecycle.
        (row,) = engine.rows()
        assert row["state"] == "cleared"
        assert row["fired_count"] == 1
        assert row["fired_at"] is not None and row["cleared_at"] is not None

    def test_for_duration_debounce(self):
        engine, step = _alert_rig(
            AlertRule(name="hot", metric="a.v", threshold=10, for_s=2.0)
        )
        assert step(15) == []  # breach starts the pending window
        assert step(15) == []  # 1s held — not yet
        events = step(15)  # 2s held — fires
        assert [e["event"] for e in events] == ["firing"]

    def test_debounce_resets_on_recovery(self):
        engine, step = _alert_rig(
            AlertRule(name="hot", metric="a.v", threshold=10, for_s=2.0)
        )
        step(15)
        step(5)  # recovered while pending: no fire, no event
        assert engine.active() == []
        step(15)
        step(15)
        assert step(15)[0]["event"] == "firing"  # full hold needed again

    def test_derivative_rule(self):
        engine, step = _alert_rig(
            AlertRule(
                name="climbing",
                metric="a.v",
                kind="derivative",
                threshold=5.0,
                window_s=2.0,
            )
        )
        assert step(1) == []  # ~0.5/s
        events = step(100)  # ~50/s over the window
        assert [e["event"] for e in events] == ["firing"]

    def test_absence_rule_fires_on_missing_metric(self):
        recorder, clock, _state = _recorder()
        engine = AlertEngine(recorder)
        engine.add_rule(
            AlertRule(name="gone", metric="b.*", kind="absence", window_s=2.0)
        )
        recorder.start()
        events = engine.evaluate()
        assert [e["event"] for e in events] == ["firing"]
        assert engine.active()[0]["metric"] == "b.*"

    def test_absence_rule_fires_on_staleness(self):
        recorder, clock, state = _recorder()
        engine = AlertEngine(recorder)
        engine.add_rule(
            AlertRule(name="stale", metric="a.v", kind="absence", window_s=2.0)
        )
        recorder.start()
        assert engine.evaluate() == []  # fresh sample
        clock.advance(5.0)  # no samples taken for 5s
        events = engine.evaluate()
        assert [e["event"] for e in events] == ["firing"]
        recorder.sample()
        events = engine.evaluate()
        assert [e["event"] for e in events] == ["cleared"]

    def test_guard_metric_suppresses_until_floor(self):
        recorder, clock, state = _recorder()
        lookups = {"n": 0}
        recorder.registry.gauge("a.lookups", lambda: lookups["n"])
        engine = AlertEngine(recorder)
        engine.add_rule(
            AlertRule(
                name="floor",
                metric="a.v",
                op="<",
                threshold=10,
                guard_metric="a.lookups",
                guard_min=100,
            )
        )
        recorder.start()
        assert engine.evaluate() == []  # v=0 < 10 but guard closed
        lookups["n"] = 150
        clock.advance(1.0)
        recorder.maybe_sample()
        events = engine.evaluate()
        assert [e["event"] for e in events] == ["firing"]

    def test_subscriber_callbacks(self):
        engine, step = _alert_rig(AlertRule(name="repl.lag", metric="a.v", threshold=10))
        seen = []
        engine.subscribe("repl.*", seen.append)
        engine.subscribe("other.*", lambda e: pytest.fail("wrong pattern notified"))
        step(15)
        step(0)
        assert [e["event"] for e in seen] == ["firing", "cleared"]

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="a", kind="nope")
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="a", op="!=")
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="a", severity="mild")
        with pytest.raises(ValueError):
            AlertRule(name="x", metric="a", kind="absence")  # needs window_s
        engine, _step = _alert_rig(AlertRule(name="dup", metric="a.v"))
        with pytest.raises(ValueError):
            engine.add_rule(AlertRule(name="dup", metric="a.v"))


# ---------------------------------------------------------------------------
# Health rollup
# ---------------------------------------------------------------------------


class TestHealth:
    def test_verdict_ladder(self):
        engine, step = _alert_rig(
            AlertRule(name="hot", metric="a.v", threshold=10, subsystem="repl")
        )
        doc = rollup(engine)
        assert doc["overall"] == OK
        assert doc["subsystems"]["repl"]["verdict"] == OK
        step(15)
        doc = rollup(engine)
        assert doc["overall"] == DEGRADED
        assert doc["subsystems"]["repl"]["alerts"][0]["rule"] == "hot"

    def test_critical_wins(self):
        recorder, clock, state = _recorder()
        engine = AlertEngine(recorder)
        engine.add_rule(AlertRule(name="warn", metric="a.v", threshold=10, subsystem="s1"))
        engine.add_rule(
            AlertRule(
                name="crit",
                metric="a.v",
                threshold=20,
                severity="critical",
                subsystem="s2",
            )
        )
        recorder.start()
        clock.advance(1.0)
        state["v"] = 50
        recorder.maybe_sample()
        engine.evaluate()
        doc = rollup(engine)
        assert doc["overall"] == CRITICAL
        assert doc["subsystems"]["s1"]["verdict"] == DEGRADED
        assert doc["subsystems"]["s2"]["verdict"] == CRITICAL


# ---------------------------------------------------------------------------
# Engine integration: the induced replica-lag scenario
# ---------------------------------------------------------------------------


def _monitored_engine(**config_changes):
    defaults = dict(
        sample_interval_s=0.01, apply_lag_bytes=8 * 1024, slow_query_sim_s=0.0
    )
    defaults.update(config_changes)
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(
        env,
        config=DatabaseConfig(page_size=1024, buffer_pool_pages=64),
        monitor_config=MonitorConfig(**defaults),
    )
    engine.create_database("shop")
    engine.sql(
        "CREATE TABLE items (id INT NOT NULL, qty INT, PRIMARY KEY (id))",
        "shop",
    )
    return engine


def _run_lag_scenario(engine):
    """Write burst with apply paused, then catch up; returns the three
    SHOW HEALTH overall verdicts (before / during / after)."""
    engine.add_replica("shop", "standby")
    engine.replication_tick()
    engine.start_monitor()
    verdicts = [engine.sql("SHOW HEALTH", "shop").rows[0][1]]
    for i in range(150):
        engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
    verdicts.append(engine.sql("SHOW HEALTH", "shop").rows[0][1])
    engine.replication_tick()
    engine.env.clock.advance(engine.monitor_config.sample_interval_s)
    engine.sql("SELECT COUNT(*) FROM items", "shop")
    verdicts.append(engine.sql("SHOW HEALTH", "shop").rows[0][1])
    return verdicts


class TestLagScenario:
    def test_health_transitions_ok_degraded_ok(self):
        engine = _monitored_engine()
        assert _run_lag_scenario(engine) == [OK, DEGRADED, OK]

    def test_alert_observed_via_engine_api_and_sql(self):
        engine = _monitored_engine()
        engine.add_replica("shop", "standby")
        engine.replication_tick()
        engine.start_monitor()
        assert engine.active_alerts() == []
        for i in range(150):
            engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
        # Engine API: the lag alert is firing.
        (active,) = engine.active_alerts()
        assert active["rule"] == "repl.apply_lag"
        assert active["metric"] == "replica.standby.apply_lag_bytes"
        assert active["state"] == "firing"
        # SQL: the same condition through SHOW ALERTS.
        rows = engine.sql("SHOW ALERTS", "shop").rows
        assert [(r[0], r[2]) for r in rows] == [("repl.apply_lag", "firing")]
        # Catch up; both surfaces agree it cleared.
        engine.replication_tick()
        engine.env.clock.advance(engine.monitor_config.sample_interval_s)
        engine.sql("SELECT COUNT(*) FROM items", "shop")
        assert engine.active_alerts() == []
        rows = engine.sql("SHOW ALERTS", "shop").rows
        assert [(r[0], r[2]) for r in rows] == [("repl.apply_lag", "cleared")]
        # The timeline recorded exactly one fire→clear pair.
        assert [e["event"] for e in engine.alert_events()] == ["firing", "cleared"]

    def test_callback_registry_sees_lag_transitions(self):
        engine = _monitored_engine()
        events = []
        engine.add_replica("shop", "standby")
        engine.replication_tick()
        engine.start_monitor()
        engine.on_alert("repl.*", events.append)
        for i in range(150):
            engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
        engine.replication_tick()
        engine.env.clock.advance(engine.monitor_config.sample_interval_s)
        engine.sql("SELECT COUNT(*) FROM items", "shop")
        assert [e["event"] for e in events] == ["firing", "cleared"]
        assert events[0]["rule"] == "repl.apply_lag"

    def test_monitor_off_degrades_gracefully(self):
        engine = _monitored_engine()
        assert engine.active_alerts() == []
        assert engine.monitor_history() == {}
        assert engine.alert_events() == []
        doc = engine.health()
        assert doc["overall"] == OK
        assert doc["monitoring"] is False
        assert engine.sql("SHOW ALERTS", "shop").rows == []
        assert engine.sql("SHOW HISTORY", "shop").rows == []
        with pytest.raises(ValueError):
            engine.on_alert("*", lambda e: None)

    def test_start_monitor_idempotent_but_not_reconfigurable(self):
        engine = _monitored_engine()
        monitor = engine.start_monitor()
        assert engine.start_monitor() is monitor
        with pytest.raises(ValueError):
            engine.start_monitor(config=MonitorConfig())
        engine.stop_monitor()
        assert engine.monitor is None
        assert engine.start_monitor() is not monitor


# ---------------------------------------------------------------------------
# Slow-statement capture
# ---------------------------------------------------------------------------


class TestSlowQueries:
    def test_capture_over_threshold_with_span_tree(self):
        engine = _monitored_engine(slow_query_sim_s=1e-6)
        for i in range(3):
            engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
        rows = engine.sql("SHOW SLOW QUERIES", "shop").rows
        assert rows, "priced inserts must exceed a 1µs threshold"
        assert "Insert" in [row[1] for row in rows]
        # The retained entry carries the rendered span tree.
        entry = engine.slow_queries.entries()[0]
        assert any("sql.execute" in line for line in entry["spans"])

    def test_threshold_zero_disables_capture(self):
        engine = _monitored_engine(slow_query_sim_s=0.0)
        engine.sql("INSERT INTO items VALUES (1, 1)", "shop")
        assert engine.sql("SHOW SLOW QUERIES", "shop").rows == []

    def test_ring_is_bounded(self):
        engine = _monitored_engine(slow_query_sim_s=1e-6, slow_query_capacity=2)
        for i in range(6):
            engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
        assert len(engine.sql("SHOW SLOW QUERIES", "shop").rows) == 2
        assert engine.slow_queries.captured >= 6

    def test_explicit_trace_still_works_alongside_capture(self):
        engine = _monitored_engine(slow_query_sim_s=1e-6)
        engine.sql("INSERT INTO items VALUES (1, 1)", "shop")
        result = engine.sql("TRACE SELECT * FROM items", "shop")
        assert any("sql.execute" in line for (line,) in result.rows)
        with engine.trace("manual") as handle:
            engine.sql("SELECT COUNT(*) FROM items", "shop")
        assert handle.root is not None


# ---------------------------------------------------------------------------
# SQL surface parsing
# ---------------------------------------------------------------------------


class TestShowParsing:
    def test_new_show_forms_parse(self):
        from repro.sql.parser import parse_script

        assert parse_script("SHOW HEALTH")[0].what == "HEALTH"
        assert parse_script("SHOW ALERTS")[0].what == "ALERTS"
        stmt = parse_script("SHOW HISTORY 'replica.*'")[0]
        assert stmt.what == "HISTORY" and stmt.like == "replica.*"
        stmt = parse_script("SHOW HISTORY LIKE 'pool.*'")[0]
        assert stmt.like == "pool.*"
        assert parse_script("SHOW HISTORY")[0].like is None
        assert parse_script("SHOW SLOW QUERIES")[0].what == "SLOW QUERIES"

    def test_slow_needs_queries(self):
        from repro.errors import SqlSyntaxError
        from repro.sql.parser import parse_script

        with pytest.raises(SqlSyntaxError):
            parse_script("SHOW SLOW")

    def test_show_history_rows_have_summaries(self):
        engine = _monitored_engine()
        engine.start_monitor()
        for i in range(30):
            engine.sql(f"INSERT INTO items VALUES ({i}, {i})", "shop")
        rows = engine.sql("SHOW HISTORY 'log.shop.end_lsn'", "shop").rows
        assert len(rows) == 1
        metric, points, last, lo, hi, mean, rate = rows[0]
        assert metric == "log.shop.end_lsn"
        assert points >= 1 and last >= lo and hi >= last


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestMonitorConfig:
    def test_validate_rejects_nonsense(self):
        for bad in (
            dict(sample_interval_s=0),
            dict(history_samples=1),
            dict(events_capacity=0),
            dict(version_store_hit_rate_floor=1.5),
            dict(pool_occupancy=0.0),
            dict(slow_query_sim_s=-1),
            dict(slow_query_capacity=0),
        ):
            with pytest.raises(ValueError):
                MonitorConfig(**bad).validate()
        MonitorConfig().validate()  # defaults are sane


# ---------------------------------------------------------------------------
# Determinism: the acceptance contract
# ---------------------------------------------------------------------------


def _seeded_monitored_run():
    """One seeded TPC-C + replication run under the monitor; returns the
    rendered SHOW HISTORY rows and the alert event timeline as JSON."""
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(
        env,
        monitor_config=MonitorConfig(
            sample_interval_s=0.5, apply_lag_bytes=16 * 1024
        ),
    )
    scale = TpccScale(
        warehouses=1, districts_per_warehouse=2, customers_per_district=6, items=30
    )
    db = engine.create_database("tpcc")
    load_tpcc(db, scale, seed=11)
    engine.add_replica("tpcc", "standby")
    engine.replication_tick()
    engine.start_monitor()
    driver = TpccDriver(db, scale, seed=11, think_time_s=0.1)
    driver.pump = engine.replication_tick
    driver.run_transactions(40)
    history_rows = engine.sql("SHOW HISTORY").rows
    events = engine.alert_events()
    health = engine.sql("SHOW HEALTH").rows
    return (
        json.dumps(history_rows, sort_keys=True),
        json.dumps(events, sort_keys=True),
        json.dumps(health, sort_keys=True),
    )


def test_seeded_monitored_runs_are_byte_identical():
    first = _seeded_monitored_run()
    second = _seeded_monitored_run()
    assert first[0] == second[0]  # SHOW HISTORY output
    assert first[1] == second[1]  # alert event timeline
    assert first[2] == second[2]  # SHOW HEALTH rows
