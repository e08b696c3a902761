"""Chaos-hardened HA: seeded fault injection and engine survival.

* The :class:`~repro.chaos.injector.FaultInjector` is deterministic —
  same seed, same schedule, byte-identical event log — and validates
  rules at arm time so a typo'd fault can never silently not fire.
* The shipper survives transient faults: cursors never skip or
  double-apply a record, corrupt frames are rejected by CRC and healed
  by resend, and every failure lands on the ``repl.ship.*`` gauges and
  the built-in stall/error alerts the failure detector watches.
* A torn archiver flush leaves the archive index gap-free and
  ``loginspect --lint-log`` clean; the retried flush overwrites the torn
  on-disk artifact.
* ``enable_auto_failover`` confirms primary death and promotes the
  most-caught-up healthy replica, re-pointing surviving standbys,
  archiving and read offload — with zero committed writes lost.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import Column, ColumnType, Engine, SimEnv, TableSchema
from repro.chaos import (
    FAULT_KINDS,
    INJECTION_POINTS,
    FaultInjector,
    FaultRule,
    RetryPolicy,
)
from repro.chaos.detector import DOWN, HEALTHY, SUSPECT
from repro.errors import (
    FaultInjectedError,
    ReplicationError,
    ReplicationFaultError,
)
from repro.tools.checkdb import check_database
from repro.tools.loginspect import lint_log_segments

ITEMS = TableSchema(
    "items",
    (
        Column("id", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=64),
        Column("qty", ColumnType.INT),
    ),
    key=("id",),
)


def _fill(db, count: int, start: int = 0) -> None:
    with db.transaction() as txn:
        for i in range(start, start + count):
            db.insert(txn, "items", (i, f"item-{i}", i * 10))


def _pump(engine, seconds: float, step: float = 0.5) -> None:
    """Advance the sim clock in ``step`` ticks, pumping replication."""
    for _ in range(round(seconds / step)):
        engine.env.clock.advance(step)
        engine.replication_tick()


# ----------------------------------------------------------------------
# FaultRule validation: typo'd rules fail at arm time, not silently
# ----------------------------------------------------------------------


class TestFaultRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(point="repl.apply", kind="meteor")

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="matches no known"):
            FaultRule(point="repl.shp.send", kind="transient")

    def test_point_glob_accepted(self):
        rule = FaultRule(point="device.*", kind="stall")
        assert rule.point == "device.*"

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(point="repl.apply", kind="transient", probability=1.5)

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="window"):
            FaultRule(point="repl.apply", kind="stall", window=(2.0, 1.0))

    def test_catalog_covers_every_kind(self):
        assert set(FAULT_KINDS) == {
            "transient", "partition", "stall", "torn", "corrupt", "crash",
        }
        assert "primary" in INJECTION_POINTS


# ----------------------------------------------------------------------
# Injector unit behavior and determinism
# ----------------------------------------------------------------------


class TestFaultInjector:
    def test_transient_raises_typed(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(FaultRule(point="repl.apply", kind="transient"))
        with pytest.raises(FaultInjectedError) as exc:
            chaos.hit("repl.apply", target="sa")
        assert exc.value.transient
        assert exc.value.point == "repl.apply"
        assert exc.value.kind == "transient"

    def test_max_hits_budget(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(
            FaultRule(point="repl.apply", kind="transient", max_hits=2)
        )
        for _ in range(2):
            with pytest.raises(FaultInjectedError):
                chaos.hit("repl.apply")
        chaos.hit("repl.apply")  # budget spent: passes clean
        assert len(chaos.events()) == 2

    def test_at_s_is_a_one_shot(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(
            FaultRule(point="repl.apply", kind="transient", at_s=1.0)
        )
        chaos.hit("repl.apply")  # t=0: not due yet
        env.clock.advance(1.0)
        with pytest.raises(FaultInjectedError):
            chaos.hit("repl.apply")
        chaos.hit("repl.apply")  # fired once, never again

    def test_stall_advances_clock(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(
            FaultRule(
                point="device.write", kind="stall", latency_s=0.25, max_hits=1
            )
        )
        before = env.clock.now()
        chaos.hit("device.write", target="SLC_SSD")
        assert env.clock.now() == pytest.approx(before + 0.25)

    def test_torn_truncates_payload(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(
            FaultRule(point="repl.stream.frame", kind="torn", max_hits=1)
        )
        out = chaos.hit("repl.stream.frame", payload=b"0123456789")
        assert out == b"01234"

    def test_corrupt_flips_exactly_one_byte(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.add_rule(
            FaultRule(point="repl.stream.frame", kind="corrupt", max_hits=1)
        )
        payload = bytes(range(64))
        out = chaos.hit("repl.stream.frame", payload=payload)
        diffs = [i for i, (a, b) in enumerate(zip(payload, out)) if a != b]
        assert len(diffs) == 1
        assert out[diffs[0]] == payload[diffs[0]] ^ 0xFF

    def test_same_seed_same_schedule(self, env):
        def run(seed):
            chaos = FaultInjector(env.clock, seed=seed)
            chaos.add_rule(
                FaultRule(
                    point="repl.ship.send", kind="transient", probability=0.5
                )
            )
            chaos.add_rule(
                FaultRule(point="repl.stream.frame", kind="corrupt",
                          probability=0.5)
            )
            fired = 0
            for i in range(50):
                try:
                    chaos.hit("repl.ship.send", target=f"sub{i % 3}")
                except FaultInjectedError:
                    fired += 1
                chaos.hit("repl.stream.frame", payload=bytes(32))
            assert 0 < fired < 50  # probabilistic rule actually mixed
            return json.dumps(chaos.events(), sort_keys=True)

        assert run(7) == run(7)

    def test_record_external_lands_on_the_same_timeline(self, env):
        chaos = FaultInjector(env.clock, seed=1)
        chaos.record_external("primary", "crash", "testdb", "operator kill")
        (event,) = chaos.events()
        assert event["seq"] == 0
        assert event["point"] == "primary"
        assert event["detail"] == "operator kill"


# ----------------------------------------------------------------------
# Shipper survival: retry/backoff, cursor safety, CRC heal
# ----------------------------------------------------------------------


class TestShipperRetry:
    def test_transient_send_faults_retry_without_skip_or_double(
        self, engine, db
    ):
        db.create_table(ITEMS)
        _fill(db, 10)
        replica = engine.add_replica("testdb", "sa")
        engine.replication_tick()
        synced = replica.received_lsn

        engine.enable_chaos(
            seed=1,
            rules=[
                FaultRule(
                    point="repl.ship.send", kind="transient",
                    target="sa", max_hits=3,
                )
            ],
        )
        _fill(db, 10, start=10)

        engine.replication_tick()
        assert engine.shipper_errors("testdb")["sa"] == 1
        assert replica.received_lsn == synced  # cursor held, nothing skipped

        _pump(engine, 2.0)  # outlasts backoff; hits 2+3 fire, then heal
        shipper = engine.shipper_for("testdb")
        assert shipper.stats.send_errors == 3
        assert shipper.stats.retries >= 1
        assert engine.shipper_errors("testdb")["sa"] == 0
        assert replica.received_lsn == db.log.durable_lsn
        assert [r[0] for r in replica.scan("items")] == list(range(20))
        kinds = {e["point"] for e in engine.fault_events()}
        assert "repl.ship.send" in kinds

    def test_corrupt_frame_rejected_by_crc_then_healed(self, engine, db):
        db.create_table(ITEMS)
        replica = engine.add_replica("testdb", "sa")
        engine.replication_tick()
        engine.enable_chaos(
            seed=2,
            rules=[
                FaultRule(
                    point="repl.stream.frame", kind="corrupt",
                    target="sa", max_hits=1,
                )
            ],
        )
        before = replica.received_lsn
        _fill(db, 8)
        engine.replication_tick()
        # The flipped byte failed the frame CRC on the replica: the
        # cursor did not move and the failure is on the health surface.
        assert replica.received_lsn == before
        assert engine.shipper_errors("testdb")["sa"] == 1

        _pump(engine, 1.0)  # resend the exact same range
        assert engine.shipper_errors("testdb")["sa"] == 0
        assert [r[0] for r in replica.scan("items")] == list(range(8))
        assert engine.shipper_for("testdb").stats.retries == 1

    def test_replication_fault_error_is_typed_and_resumable(
        self, engine, db
    ):
        db.create_table(ITEMS)
        replica = engine.add_replica("testdb", "sa")
        engine.replication_tick()
        cursor = replica.received_lsn
        with pytest.raises(ReplicationFaultError) as exc:
            replica.receive(b"\x00" * 40)  # garbage on the wire
        assert isinstance(exc.value, ReplicationError)
        assert exc.value.transient
        assert exc.value.resume_lsn == cursor
        assert replica.received_lsn == cursor

    def test_apply_fault_contained_and_routed_around(self, engine, db):
        db.create_table(ITEMS)
        sa = engine.add_replica("testdb", "sa")
        sb = engine.add_replica("testdb", "sb")
        engine.enable_read_offload()
        engine.replication_tick()
        now = engine.env.clock.now()
        engine.enable_chaos(
            seed=3,
            rules=[
                FaultRule(
                    point="repl.apply", kind="transient",
                    target="sa", window=(now, now + 1.0),
                )
            ],
        )
        _fill(db, 6)
        engine.replication_tick()
        assert sa.is_faulted()
        assert not sb.is_faulted()
        # Degrade gracefully: reads route around the faulted standby.
        assert engine.routing_replica("testdb") is sb
        _pump(engine, 2.0)  # window closes, backoff elapses, apply heals
        assert not sa.is_faulted()
        assert [r[0] for r in sa.scan("items")] == list(range(6))
        routed = engine.routing_replica("testdb")
        assert routed is not None and not routed.is_faulted()


# ----------------------------------------------------------------------
# Stall detection: gauges + built-in alerts (satellite 1)
# ----------------------------------------------------------------------


class TestStallDetection:
    def test_consecutive_errors_gauge_exported(self, engine, db):
        engine.add_replica("testdb", "sa")
        names = engine.env.metrics.names(like="repl.ship.sa.*")
        assert "repl.ship.sa.consecutive_errors" in names
        assert "repl.ship.sa.progress_t" in names

    def test_crash_fires_error_and_stall_alerts(self, engine, db):
        db.create_table(ITEMS)
        _fill(db, 5)
        engine.add_replica("testdb", "sa")
        engine.start_monitor()
        _pump(engine, 1.0)
        assert engine.alert_events() == []  # healthy: nothing fires

        engine.crash_database("testdb")
        _pump(engine, 6.0)  # outlasts ship_stall_s=5.0
        firing = {
            e["rule"] for e in engine.alert_events() if e["event"] == "firing"
        }
        assert "repl.ship_errors" in firing
        assert "repl.ship_stall" in firing
        # The streak gauge kept counting the failed polls.
        streak = "repl.ship.sa.consecutive_errors"
        assert engine.metrics_snapshot(streak)["gauges"][streak] >= 3
        # The progress gauge was unregistered — that absence IS the signal.
        assert engine.env.metrics.names(like="repl.ship.sa.progress_t") == []


# ----------------------------------------------------------------------
# Torn archiver flush (satellite 3)
# ----------------------------------------------------------------------


class TestArchiverTornFlush:
    def test_torn_flush_leaves_archive_lint_clean(
        self, engine, db, tmp_path
    ):
        arch_dir = str(tmp_path / "arch")
        db.create_table(ITEMS)
        _fill(db, 10)
        archiver = engine.enable_archiving("testdb", directory=arch_dir)
        engine.replication_tick()
        baseline_files = set(os.listdir(arch_dir))

        engine.enable_chaos(
            seed=4,
            rules=[
                FaultRule(
                    point="archive.flush", kind="transient",
                    target="testdb", max_hits=1,
                )
            ],
        )
        _fill(db, 10, start=10)
        engine.replication_tick()
        # The crash-mid-flush left a torn partial file on the medium but
        # the in-memory index never admitted the segment: no gap, and the
        # archiver's subscription is marked failing.
        torn = set(os.listdir(arch_dir)) - baseline_files
        assert len(torn) == 1
        torn_path = os.path.join(arch_dir, torn.pop())
        torn_size = os.path.getsize(torn_path)
        assert engine.shipper_errors("testdb")[archiver.name] == 1
        assert lint_log_segments(archiver.store, db_name="testdb") == []

        _pump(engine, 1.0)  # the retried flush overwrites the torn artifact
        assert engine.shipper_errors("testdb")[archiver.name] == 0
        assert os.path.getsize(torn_path) > torn_size
        # Both the live store and the raw on-disk directory lint clean.
        assert lint_log_segments(archiver.store, db_name="testdb") == []
        assert lint_log_segments(arch_dir) == []
        lo, hi = archiver.store.coverage("testdb")
        assert hi == db.log.durable_lsn

    def test_restore_plan_covers_only_durable_archive(self, engine, db):
        from repro.archive.restore import plan_restore

        db.create_table(ITEMS)
        _fill(db, 10)
        engine.backup_database("testdb")
        engine.replication_tick()
        store = engine.archives["testdb"].store
        engine.enable_chaos(
            seed=5,
            rules=[
                FaultRule(
                    point="archive.flush", kind="transient",
                    target="testdb", max_hits=1,
                )
            ],
        )
        _fill(db, 10, start=10)
        engine.env.clock.advance(0.5)
        engine.replication_tick()  # flush fails; tail not yet archived
        _lo, durable_hi = store.coverage("testdb")
        plan = plan_restore(store, "testdb", engine.env.clock.now())
        # The plan's split never reaches past what the archive durably
        # holds — the torn tail is simply not part of the timeline yet.
        assert plan.split_lsn <= durable_hi


# ----------------------------------------------------------------------
# Auto-failover end to end
# ----------------------------------------------------------------------


class TestAutoFailover:
    def test_failover_promotes_most_caught_up_and_loses_nothing(
        self, engine, db
    ):
        db.create_table(ITEMS)
        _fill(db, 5)
        sa = engine.add_replica("testdb", "sa")
        sb = engine.add_replica("testdb", "sb")
        engine.enable_read_offload()
        engine.enable_auto_failover(confirm_s=2.0)
        chaos = engine.enable_chaos(seed=6)
        _pump(engine, 1.0)

        # Partition sb through the crash: sa becomes the most-caught-up
        # survivor, so LSN beats sb's larger-name tie-break.
        now = engine.env.clock.now()
        chaos.add_rule(
            FaultRule(
                point="repl.ship.send", kind="partition",
                target="sb", window=(now, now + 6.0),
            )
        )
        _fill(db, 10, start=5)
        committed = [r[0] for r in db.scan("items")]
        _pump(engine, 0.5)
        assert sa.received_lsn > sb.received_lsn

        chaos.schedule_crash("testdb", engine.env.clock.now() + 0.5)
        _pump(engine, 6.0)

        # The dead primary is gone; sa was promoted; the detector's
        # verdict and every step are on the HA timeline.
        assert "testdb" not in engine.databases
        assert engine.ha.completed == {"testdb": "sa"}
        promoted = engine.database("sa")
        assert engine.ha.detector.state("testdb") == DOWN
        ha_kinds = [e["event"] for e in engine.ha_events]
        assert ha_kinds.count("failover") == 1
        for step in ("crash", "suspect", "confirmed_down", "failover"):
            assert step in ha_kinds

        # Zero committed writes lost, and the survivor checks clean.
        assert [r[0] for r in promoted.scan("items")] == committed
        assert check_database(promoted).ok

        # sb was re-pointed at the new primary; once its partition window
        # closes it catches up and read offload follows.
        _pump(engine, 6.0)
        assert sb.primary is promoted
        assert [r[0] for r in sb.scan("items")] == committed
        assert engine.routing_replica("sa") is sb

        # The new primary is writable and keeps replicating.
        _fill(promoted, 1, start=15)
        _pump(engine, 0.5)
        assert sb.get("items", (15,)) is not None

    def test_failover_with_archiving_continues_the_store(self, engine, db):
        db.create_table(ITEMS)
        _fill(db, 5)
        engine.add_replica("testdb", "sa")
        archiver = engine.enable_archiving("testdb")
        store = archiver.store
        engine.replication_tick()
        promoted = engine.failover_to_replica("testdb")
        assert promoted.name == "sa"
        assert "testdb" in engine.archives and engine.archives["testdb"].closed
        assert engine.archives["sa"].store is store
        _fill(promoted, 5, start=5)
        engine.replication_tick()
        assert store.coverage("sa")[1] == promoted.log.durable_lsn

    def test_failover_without_survivors_refuses(self, engine, db):
        engine.crash_database("testdb")
        with pytest.raises(ReplicationError, match="no surviving replica"):
            engine.failover_to_replica("testdb")

    def test_named_winner_overrides_catch_up_ranking(self, engine, db):
        db.create_table(ITEMS)
        _fill(db, 5)
        engine.add_replica("testdb", "sa")
        engine.add_replica("testdb", "sb")
        engine.replication_tick()
        promoted = engine.failover_to_replica("testdb", "sa")
        assert promoted.name == "sa"
        assert engine.replica("sb").primary is promoted

    def test_detector_recovers_a_transient_suspect(self, engine, db):
        db.create_table(ITEMS)
        _fill(db, 5)
        engine.add_replica("testdb", "sa")
        engine.enable_auto_failover(confirm_s=5.0)
        chaos = engine.enable_chaos(seed=8)
        _pump(engine, 1.0)
        now = engine.env.clock.now()
        # A short partition: long enough to alert (the monitor samples
        # every 1.0s, so the streak must straddle a sample), shorter
        # than confirm_s.
        chaos.add_rule(
            FaultRule(
                point="repl.ship.send", kind="partition",
                target="sa", window=(now, now + 3.0),
            )
        )
        _fill(db, 5, start=5)
        _pump(engine, 2.0)  # streak past the threshold at a sample point
        assert engine.ha.detector.state("testdb") == SUSPECT
        _pump(engine, 4.0)  # link heals before the verdict lands
        assert engine.ha.detector.state("testdb") == HEALTHY
        assert "testdb" in engine.databases
        assert engine.ha.completed == {}


# ----------------------------------------------------------------------
# Whole-scenario determinism: the CI diff contract
# ----------------------------------------------------------------------


def _failover_scenario(seed: int) -> str:
    """One full partition+crash+failover run; returns its timelines."""
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("testdb")
    db.create_table(ITEMS)
    _fill(db, 5)
    engine.add_replica("testdb", "sa")
    engine.add_replica("testdb", "sb")
    engine.enable_read_offload()
    engine.enable_auto_failover(confirm_s=2.0)
    chaos = engine.enable_chaos(seed=seed)
    chaos.add_rule(
        FaultRule(
            point="repl.ship.send", kind="transient",
            target="s?", probability=0.3, window=(0.0, 3.0),
        )
    )
    # Keep bytes flowing through the fault window so the probabilistic
    # rule actually gets draws (sends only happen with pending log).
    for i in range(4):
        _fill(db, 3, start=5 + 3 * i)
        _pump(engine, 0.5)
    chaos.schedule_crash("testdb", engine.env.clock.now() + 0.5)
    _pump(engine, 6.0)
    return json.dumps(
        {
            "faults": engine.fault_events(),
            "ha": engine.ha_events,
            "alerts": engine.alert_events(),
            "promoted": sorted(engine.databases),
        },
        sort_keys=True,
    )


class TestDeterminism:
    def test_same_seed_byte_identical_timelines(self):
        assert _failover_scenario(7) == _failover_scenario(7)

    def test_seed_actually_steers_the_schedule(self):
        runs = {
            json.dumps(
                json.loads(_failover_scenario(seed))["faults"],
                sort_keys=True,
            )
            for seed in (7, 8, 9)
        }
        assert len(runs) > 1


# ----------------------------------------------------------------------
# SHOW FAULTS
# ----------------------------------------------------------------------


class TestShowFaults:
    def test_show_faults_empty_without_chaos(self, engine, db):
        result = engine.sql("SHOW FAULTS")
        assert result.rows == []

    def test_show_faults_mirrors_the_event_log(self, engine, db):
        db.create_table(ITEMS)
        engine.add_replica("testdb", "sa")
        engine.enable_chaos(
            seed=9,
            rules=[
                FaultRule(
                    point="repl.ship.send", kind="transient",
                    target="sa", max_hits=2,
                )
            ],
        )
        _fill(db, 4)
        _pump(engine, 1.0)
        result = engine.sql("SHOW FAULTS")
        assert result.columns == (
            "seq", "t", "point", "kind", "target", "detail"
        )
        assert [row[0] for row in result.rows] == [
            e["seq"] for e in engine.fault_events()
        ]
        assert {row[2] for row in result.rows} == {"repl.ship.send"}


# ----------------------------------------------------------------------
# RetryPolicy arithmetic
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.05, multiplier=2.0, max_delay_s=5.0)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.20)
        assert policy.delay(20) == 5.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)
