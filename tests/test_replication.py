"""Log-shipping replication: shipper, replica apply, routing, recovery.

Covers the acceptance surface of the replication subsystem: bounded LSN
lag under a running TPC-C workload, point-in-time results identical
between primary and standby, catch-up across a primary crash/restart,
mid-stream shipper reconnect from the LSN cursor, and the delayed-apply
replica recovering a dropped table after the primary's retention horizon
has passed.
"""

from __future__ import annotations

import pytest

from repro import (
    Column,
    ColumnType,
    Engine,
    ReplicationError,
    RetentionExceededError,
    SimEnv,
    TableSchema,
)
from repro.replication import LogFrame, LogShipper
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import CommitRecord
from repro.workload import TpccDriver, TpccScale, load_tpcc, stock_level
from tests.conftest import pool_entries

ITEMS = TableSchema(
    "items",
    (
        Column("id", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=64),
        Column("qty", ColumnType.INT),
    ),
    key=("id",),
)

SMALL_SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=5,
    items=25,
)


def fill(db, count, start=0):
    with db.transaction() as txn:
        for i in range(start, start + count):
            db.insert(txn, "items", (i, f"item-{i}", i * 10))


@pytest.fixture
def engine():
    return Engine(SimEnv.for_tests())


@pytest.fixture
def primary(engine):
    db = engine.create_database("main")
    db.create_table(ITEMS)
    return db


# ---------------------------------------------------------------------------
# Basic shipping and apply
# ---------------------------------------------------------------------------


class TestCatchUp:
    def test_replica_materializes_from_log_alone(self, engine, primary):
        fill(primary, 40)
        replica = engine.add_replica("main", "standby")
        assert replica.tables() == primary.tables()
        assert list(replica.scan("items")) == list(primary.scan("items"))
        assert replica.lag_bytes() == 0

    def test_replica_follows_new_writes(self, engine, primary):
        replica = engine.add_replica("main", "standby")
        fill(primary, 30)
        with primary.transaction() as txn:
            primary.update(txn, "items", (3,), {"qty": 999})
            primary.delete(txn, "items", (4,))
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        assert replica.get("items", (3,))[2] == 999
        assert replica.get("items", (4,)) is None

    def test_replica_follows_ddl(self, engine, primary):
        replica = engine.add_replica("main", "standby")
        other = TableSchema(
            "other",
            (Column("k", ColumnType.INT), Column("v", ColumnType.STR)),
            key=("k",),
        )
        primary.create_table(other)
        with primary.transaction() as txn:
            primary.insert(txn, "other", (1, "x"))
        primary.drop_table("items")
        engine.replication_tick()
        assert sorted(replica.tables()) == sorted(primary.tables())
        assert replica.get("other", (1,)) == (1, "x")

    def test_rollbacks_converge(self, engine, primary):
        replica = engine.add_replica("main", "standby")
        fill(primary, 5)
        txn = primary.begin()
        primary.insert(txn, "items", (100, "doomed", 0))
        primary.rollback(txn)
        primary.log.flush()
        engine.replication_tick()
        assert replica.get("items", (100,)) is None
        assert list(replica.scan("items")) == list(primary.scan("items"))

    def test_lag_stays_bounded_under_tpcc(self, engine):
        db = engine.create_database("tpcc")
        load_tpcc(db, SMALL_SCALE, seed=3)
        replica = engine.add_replica("tpcc", "standby")
        driver = TpccDriver(db, SMALL_SCALE, seed=3)
        driver.pump = engine.replication_tick
        max_lag = 0
        for _ in range(8):
            driver.run_transactions(25)
            max_lag = max(max_lag, replica.lag_bytes())
        # The pump runs every transaction, so the replica never falls
        # further behind than one transaction's log volume.
        assert max_lag < 64 * 1024
        engine.replication_tick()
        db.log.flush()
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        # Applied state converged with the primary.
        assert list(replica.scan("district")) == list(db.scan("district"))
        assert list(replica.scan("stock")) == list(db.scan("stock"))


# ---------------------------------------------------------------------------
# Point-in-time reads served by the standby
# ---------------------------------------------------------------------------


class TestAsOfRouting:
    def test_as_of_result_identical_to_primary(self, engine):
        db = engine.create_database("tpcc")
        load_tpcc(db, SMALL_SCALE, seed=5)
        replica = engine.add_replica("tpcc", "standby")
        driver = TpccDriver(db, SMALL_SCALE, seed=5, think_time_s=0.05)
        driver.pump = engine.replication_tick
        driver.run_transactions(120)
        target = engine.env.clock.now() - 2.0
        driver.run_transactions(40)
        engine.replication_tick()

        # The engine routes the as-of lease to the caught-up standby...
        offloaded = driver.stock_level_as_of(engine, target)
        assert engine.snapshot_pool.stats.misses == 1
        assert [name for name, *_ in pool_entries(engine.snapshot_pool)] == [replica.name]
        # ...and the answer matches a snapshot taken on the primary.
        with engine.snapshot_pool.lease(db, target) as snap:
            direct = stock_level(snap, w_id=1, d_id=1, threshold=60)
        assert offloaded == direct

    def test_caught_up_replica_serves_as_of_now(self, engine, primary):
        fill(primary, 10)
        replica = engine.add_replica("main", "standby")
        now = engine.env.clock.now()
        with engine.query_as_of("main", now) as snap:
            assert sum(1 for _ in snap.scan("items")) == 10
        # lag == 0 → routed to the standby even though its last applied
        # commit is not strictly newer than the requested time.
        assert engine.snapshot_pool.stats.misses == 1
        assert [name for name, *_ in pool_entries(engine.snapshot_pool)] == [replica.name]

    def test_auto_names_skip_dropped_replicas(self, engine, primary):
        first = engine.add_replica("main")
        second = engine.add_replica("main")
        assert {first.name, second.name} == {"main_replica1", "main_replica2"}
        engine.drop_replica("main_replica1")
        third = engine.add_replica("main")
        assert third.name == "main_replica1"

    def test_stale_replica_not_used_for_as_of(self, engine, primary):
        fill(primary, 10)
        engine.add_replica("main", "standby")
        # New writes the replica never hears about (no tick).
        fill(primary, 10, start=10)
        now = engine.env.clock.now()
        with engine.query_as_of("main", now) as snap:
            assert sum(1 for _ in snap.scan("items")) == 20
        # Served from the primary pool: the standby's applied state does
        # not cover "now".
        assert engine.snapshot_pool.stats.misses == 1

    def test_read_offload_routes_selects(self, engine, primary):
        fill(primary, 12)
        replica = engine.add_replica("main", "standby")
        engine.enable_read_offload()
        result = engine.sql("SELECT COUNT(*) FROM items", database="main")
        assert result.scalar() == 12
        # The replica's buffer served the scan; verify by checking the
        # replica database resolves as the session reader.
        session = engine.session("main")
        from repro.sql.parser import TableRef

        assert session._reader_for(TableRef("items")) is replica.db
        # Writes still resolve to the primary.
        assert session._writer_for(TableRef("items")) is primary
        engine.sql("INSERT INTO items VALUES (100, 'new', 0)", database="main")
        assert primary.get("items", (100,)) == (100, "new", 0)


# ---------------------------------------------------------------------------
# Crash, restart, reconnect
# ---------------------------------------------------------------------------


class TestResilience:
    def test_replica_catches_up_after_primary_crash(self, engine, primary):
        replica = engine.add_replica("main", "standby")
        fill(primary, 20)
        engine.replication_tick()
        # Writes whose tail is lost in the crash (no flush).
        txn = primary.begin()
        primary.insert(txn, "items", (500, "volatile", 0))
        primary.crash()
        primary.recover()
        fill(primary, 5, start=30)
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        assert list(replica.scan("items")) == list(primary.scan("items"))
        assert replica.get("items", (500,)) is None

    def test_shipper_reconnect_resumes_from_cursor(self, engine, primary):
        fill(primary, 15)
        replica = engine.add_replica("main", "standby")
        cursor_before = replica.received_lsn
        # The original shipper dies; a new one attaches mid-stream.
        old = engine._shippers.pop("main")
        old.detach("standby")
        fill(primary, 15, start=15)
        fresh = LogShipper(primary)
        fresh.attach(replica)
        engine._shippers["main"] = fresh
        shipped = fresh.poll()
        assert shipped > 0
        assert replica.received_lsn > cursor_before
        replica.apply_ready()
        assert list(replica.scan("items")) == list(primary.scan("items"))

    def test_reattach_below_retained_log_is_rejected(self, engine, primary):
        fill(primary, 10)
        replica = engine.add_replica("main", "standby")
        engine.drop_replica("standby")
        # With the replica detached, retention may truncate its cursor away.
        primary.set_undo_interval(5.0)
        engine.env.clock.advance(30.0)
        primary.checkpoint()
        engine.env.clock.advance(30.0)
        primary.checkpoint()
        primary.enforce_retention()
        assert primary.log.start_lsn > replica.received_lsn
        with pytest.raises(ReplicationError):
            LogShipper(primary).attach(replica)

    def test_corrupt_frame_rejected(self, engine, primary):
        fill(primary, 3)
        replica = engine.add_replica("main", "standby")
        fill(primary, 3, start=3)
        log = primary.log
        start = replica.received_lsn
        frame = LogFrame(
            start,
            log.read_bytes(start, log.record_aligned_end(start, 1 << 20)),
            engine.env.clock.now(),
        )
        blob = bytearray(frame.encode())
        blob[-1] ^= 0xFF
        before = replica.received_lsn
        with pytest.raises(ReplicationError):
            replica.receive(bytes(blob))
        assert replica.received_lsn == before
        # The untampered frame lands fine afterwards.
        replica.receive(frame.encode())
        replica.apply_ready()
        assert list(replica.scan("items")) == list(primary.scan("items"))

    def test_out_of_order_frame_rejected(self, engine, primary):
        fill(primary, 3)
        replica = engine.add_replica("main", "standby")
        frame = LogFrame(replica.received_lsn + 100, b"x" * 50, 0.0)
        with pytest.raises(ReplicationError):
            replica.receive(frame.encode())


# ---------------------------------------------------------------------------
# Delayed apply: the error-recovery safety net
# ---------------------------------------------------------------------------


class TestDelayedApply:
    def _build(self, engine, delay_s=600.0):
        db = engine.create_database("main")
        db.create_table(ITEMS)
        db.set_undo_interval(60.0)  # tight primary retention
        replica = engine.add_replica("main", "delayed", apply_delay_s=delay_s)
        return db, replica

    def test_delay_holds_back_apply(self, engine):
        db, replica = self._build(engine)
        fill(db, 10)
        engine.replication_tick()
        # Received but not applied: the frames are younger than the delay.
        assert replica.received_lag_bytes() == 0
        assert replica.lag_bytes() > 0
        engine.env.clock.advance(601.0)
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        assert list(replica.scan("items")) == list(db.scan("items"))

    def test_applied_commit_is_the_newest_decoded_commit_applied(self, engine):
        """Apply takes the applied commit's LSN and wall from the commit
        directory; they equal what decoding the applied commits gives, at
        a stop inside a transaction, at one whose range holds no commit,
        at one on a commit (which it leaves out) and at the end."""
        db, replica = self._build(engine, delay_s=1e9)
        clock = engine.env.clock
        fill(db, 5)
        open_txn = db.begin()
        db.insert(open_txn, "items", (100, "open", 0))
        clock.advance(1.0)
        fill(db, 3, start=10)  # commits while ``open_txn`` is in flight
        inside = clock.now()
        clock.advance(1.0)
        db.insert(open_txn, "items", (101, "open", 1))
        no_commit = db.log.end_lsn  # after a page change, before any commit
        clock.advance(1.0)
        fill(db, 3, start=20)
        at_commit = db.log.last_commit_lsn  # a stop at a commit leaves it out
        db.commit(open_txn)
        clock.advance(1.0)
        engine.replication_tick()
        assert replica.applied_commit_lsn == NULL_LSN

        def decoded() -> tuple[int, float]:
            commits = [
                rec
                for rec in replica.db.log.scan(FIRST_LSN, replica.applied_lsn)
                if isinstance(rec, CommitRecord)
            ]
            return commits[-1].lsn, commits[-1].wall_clock

        replica.ensure_applied_through(inside)
        assert replica.applied_lsn < no_commit
        assert db.log.in_flight(replica.applied_lsn - 1).keys() == {open_txn.txn_id}
        assert (replica.applied_commit_lsn, replica.applied_wall) == decoded()
        stopped = replica.applied_commit_lsn
        replica._apply_range(no_commit)
        assert replica.applied_lsn == no_commit
        assert (replica.applied_commit_lsn, replica.applied_wall) == decoded()
        assert replica.applied_commit_lsn == stopped
        replica._apply_range(at_commit)
        assert (replica.applied_commit_lsn, replica.applied_wall) == decoded()
        assert replica.applied_commit_lsn == stopped < at_commit
        replica.ensure_applied_through(clock.now())
        assert replica.applied_lsn == replica.received_lsn
        assert (replica.applied_commit_lsn, replica.applied_wall) == decoded()
        assert replica.applied_commit_lsn == db.log.last_commit_lsn

    def test_recovers_dropped_table_past_primary_retention(self, engine):
        db, replica = self._build(engine)
        fill(db, 25)
        engine.env.clock.advance(10.0)
        engine.replication_tick()
        before_drop = engine.env.clock.now()
        engine.env.clock.advance(1.0)
        db.drop_table("items")  # the application error
        engine.replication_tick()
        # Time passes; the primary's retention horizon crosses the drop.
        for _ in range(4):
            engine.env.clock.advance(45.0)
            db.checkpoint()
            engine.replication_tick()
        db.enforce_retention()
        # The primary can no longer rewind to before the drop...
        with pytest.raises(RetentionExceededError):
            with engine.query_as_of("main", before_drop):
                pass
        # ...but the delayed replica reads it from inside its window.
        with engine.query_as_of("main", before_drop, replica="delayed") as snap:
            rows = list(snap.scan("items"))
        assert len(rows) == 25
        assert replica.get("items", (0,)) is not None  # applied ≤ drop point

    def test_promote_at_point_before_error(self, engine):
        db, replica = self._build(engine)
        fill(db, 8)
        engine.env.clock.advance(5.0)
        before_drop = engine.env.clock.now()
        engine.env.clock.advance(1.0)
        db.drop_table("items")
        engine.replication_tick()
        promoted = engine.promote_replica("delayed", up_to=before_drop)
        assert "delayed" not in engine.replicas
        assert engine.database("delayed") is promoted
        assert not promoted.read_only
        # The promoted timeline stops before the drop: items is back.
        assert [r[0] for r in promoted.scan("items")] == list(range(8))
        # And it accepts new writes on the recovered timeline.
        with promoted.transaction() as txn:
            promoted.insert(txn, "items", (99, "post-promotion", 1))
        assert promoted.get("items", (99,)) == (99, "post-promotion", 1)

    def test_promote_refuses_points_already_applied_past(self, engine):
        db = engine.create_database("main")
        db.create_table(ITEMS)
        replica = engine.add_replica("main", "standby")
        fill(db, 5)
        engine.env.clock.advance(5.0)
        t_early = engine.env.clock.now()
        engine.env.clock.advance(1.0)
        fill(db, 5, start=10)
        engine.replication_tick()  # applies past t_early
        with pytest.raises(ReplicationError):
            engine.promote_replica("standby", up_to=t_early)
        # The failed promotion left the replica subscribed and following.
        assert "standby" in engine.replicas
        assert not replica.dropped
        fill(db, 2, start=30)
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        assert list(replica.scan("items")) == list(db.scan("items"))

    def test_promote_rolls_back_in_flight_txns(self, engine):
        db = engine.create_database("main")
        db.create_table(ITEMS)
        replica = engine.add_replica("main", "standby")
        fill(db, 4)
        txn = db.begin()
        db.insert(txn, "items", (50, "in-flight", 0))
        db.log.flush()  # durable but uncommitted
        engine.replication_tick()
        assert replica.lag_bytes() == 0
        promoted = engine.promote_replica("standby")
        assert promoted.get("items", (50,)) is None
        assert [r[0] for r in promoted.scan("items")] == list(range(4))
        db.rollback(txn)
