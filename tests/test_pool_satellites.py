"""Snapshot-pool satellites: pool-aware retention, background undo drain,
and ``USE <db> AS OF`` pinned sessions."""

from __future__ import annotations

import pytest

from repro import DatabaseConfig
from repro.errors import (
    RetentionExceededError,
    SnapshotReadOnlyError,
    SqlExecutionError,
)

from tests.conftest import ITEMS_SCHEMA, fill_items, pool_entries
from tests.test_split_lsn import committed_marks


def advance_and_checkpoint(db, seconds, steps=3):
    for _ in range(steps):
        db.env.clock.advance(seconds / steps)
        db.checkpoint()


class TestPoolAwareRetention:
    def test_pooled_split_pins_the_log(self, engine, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 20)
        db.env.clock.advance(1.0)
        fill_items(db, 5, start=50)
        # A mid-history point: resolves to the same SplitLSN every time.
        target = 0.5
        snap = engine.snapshot_pool.acquire(db, target)
        engine.snapshot_pool.release(snap)
        pin = engine.snapshot_pool.min_pin_lsn(db.name)
        assert pin is not None
        # Age the pooled split far past the retention window.
        advance_and_checkpoint(db, 300, steps=6)
        start = db.enforce_retention()
        # Retention worked around the pooled split, like an active txn.
        assert start <= pin
        # The pooled entry still serves reads (reuse, not creation).
        hits_before = engine.snapshot_pool.stats.hits
        with engine.query_as_of(db.name, target) as view:
            assert sum(1 for _ in view.scan("items")) == 20
        assert engine.snapshot_pool.stats.hits == hits_before + 1

    def test_a_no_loser_split_pins_its_checkpoint(self, engine):
        """A split with nobody in flight reads no log, yet its entry's pin
        must still cover the checkpoint its time resolves through, so the
        pooled reuse is served after retention runs, once the later
        entry is gone."""
        db = engine.create_database("seedpin", DatabaseConfig(log_block_size=1024))
        db.create_table(ITEMS_SCHEMA)
        db.set_undo_interval(100)
        db.checkpoint()
        base = db.last_checkpoint_lsn
        marks = committed_marks(db, 60, gap_s=1.0)
        db.env.clock.advance(10)
        later, earlier = marks[55][0], marks[45][0]
        pool = engine.snapshot_pool
        snaps = {}
        for target, rows in ((later, 56), (earlier, 46)):
            with engine.query_as_of(db.name, target) as snap:
                assert sum(1 for _ in snap.scan("items")) == rows
            snaps[target] = snap
        for snap in snaps.values():
            assert not db.log.in_flight(snap.split_lsn)
            assert snap.retention_pin_lsn == base
        # Evict the least recently used entry: the later one.
        pool.set_budget(pool.total_bytes() - snaps[later].side_file_bytes())
        assert len(pool) == 1 and not snaps[earlier].dropped
        advance_and_checkpoint(db, 600, steps=6)
        db.enforce_retention()
        hits_before = pool.stats.hits
        with engine.query_as_of(db.name, earlier) as snap:
            assert sum(1 for _ in snap.scan("items")) == 46
        assert pool.stats.hits == hits_before + 1

    def test_creation_outside_window_still_rejected(self, engine, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 5)
        target = db.env.clock.now()
        advance_and_checkpoint(db, 300, steps=6)
        # Nothing pooled at that split: the window applies as before.
        with pytest.raises(RetentionExceededError):
            with engine.query_as_of(db.name, target):
                pass

    def test_eviction_releases_the_pin(self, engine, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 20)
        target = db.env.clock.now()
        snap = engine.snapshot_pool.acquire(db, target)
        engine.snapshot_pool.release(snap)
        advance_and_checkpoint(db, 300, steps=6)
        pinned_start = db.enforce_retention()
        engine.snapshot_pool.clear()
        assert engine.snapshot_pool.min_pin_lsn(db.name) is None
        free_start = db.enforce_retention()
        assert free_start > pinned_start

    def test_pin_covers_in_flight_txn_chains(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        txn = db.begin()
        db.insert(txn, "items", (100, "open", 0))
        db.checkpoint()
        db.env.clock.advance(5)
        fill_items(db, 5, start=10)
        snap = engine.snapshot_pool.acquire(db, db.env.clock.now())
        # The open transaction is pending undo on the snapshot; its chain
        # (reaching back before the checkpoint) bounds the pin.
        assert snap.pending_undo_count == 1
        assert snap.retention_pin_lsn <= txn.first_lsn
        engine.snapshot_pool.release(snap)
        db.rollback(txn)


class TestUndoDrain:
    def _snap_with_pending_undo(self, engine, db):
        fill_items(db, 10)
        txn = db.begin()
        db.insert(txn, "items", (200, "in-flight", 0))
        db.update(txn, "items", (1,), {"qty": 12345})
        # A later commit puts the split after the open txn's records, so
        # the snapshot sees it in flight and owes its undo. Advancing the
        # clock makes the target a stable mid-history point.
        fill_items(db, 2, start=50)
        db.env.clock.advance(1.0)
        self.target = 0.5
        snap = engine.snapshot_pool.acquire(db, self.target)
        engine.snapshot_pool.release(snap)
        return snap, txn

    def test_drain_completes_pending_undo(self, engine, items_db):
        snap, txn = self._snap_with_pending_undo(engine, items_db)
        assert snap.pending_undo_count == 1
        drained = snap.run_background_undo()
        assert drained == 1
        assert snap.pending_undo_count == 0
        # A reader touching the formerly-locked row pays no undo wait.
        waits_before = engine.env.stats.lock_waits
        with engine.query_as_of(items_db.name, self.target) as view:
            assert view is snap
            assert view.get("items", (1,))[2] == 10  # pre-txn value
            assert view.get("items", (200,)) is None
        assert engine.env.stats.lock_waits == waits_before
        items_db.rollback(txn)

    def test_drain_budget_bounds_one_call(self, engine, items_db):
        db = items_db
        fill_items(db, 4)
        open_txns = []
        for i in range(3):
            txn = db.begin()
            db.insert(txn, "items", (300 + i, "open", 0))
            open_txns.append(txn)
        fill_items(db, 2, start=400)
        db.env.clock.advance(1.0)
        snap = engine.snapshot_pool.acquire(db, 0.5)
        engine.snapshot_pool.release(snap)
        assert snap.pending_undo_count == 3
        assert snap.run_background_undo(list(snap._pending_undo)[:2]) == 2
        assert snap.pending_undo_count == 1
        assert snap.run_background_undo(list(snap._pending_undo)[:2]) == 1
        assert snap.pending_undo_count == 0
        for txn in open_txns:
            db.rollback(txn)

    def test_engine_drains_replica_pools_too(self, engine, items_db):
        db = items_db
        fill_items(db, 6)
        engine.add_replica(db.name, "standby")
        with engine.query_as_of(db.name, engine.env.clock.now()) as view:
            assert sum(1 for _ in view.scan("items")) == 6
            # Served over the standby, whose snapshots run the same
            # background undo: nothing pending, a no-op.
            assert view.run_background_undo() == 0
        assert engine.snapshot_pool.stats.misses == 1
        assert [entry[0] for entry in pool_entries(engine.snapshot_pool)] == ["standby"]


class TestUseAsOfSessions:
    @pytest.fixture
    def session(self, engine, items_db):
        fill_items(items_db, 10)
        with engine.session("itemsdb") as s:
            yield s

    def test_pin_spans_statements(self, engine, session, items_db):
        t0 = engine.env.clock.now()
        engine.env.clock.advance(5)
        fill_items(items_db, 10, start=50)
        session.execute(f"USE itemsdb AS OF {t0}")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 10
        # Several statements, one pooled snapshot: no second miss.
        session.execute("SELECT * FROM items WHERE id = 3")
        session.execute("SELECT MAX(id) FROM items")
        assert engine.snapshot_pool.stats.misses == 1
        assert engine.snapshot_pool.active_leases() == 1
        # Re-USE releases the pin and returns to the live database.
        session.execute("USE itemsdb")
        assert engine.snapshot_pool.active_leases() == 0
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 20

    def test_iso_timestamp_pin(self, engine, session, items_db):
        t0 = engine.env.clock.now()
        stamp = engine.env.clock.to_datetime(t0).isoformat(sep=" ")
        engine.env.clock.advance(5)
        fill_items(items_db, 5, start=100)
        session.execute(f"USE itemsdb AS OF '{stamp}'")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 10

    def test_pinned_session_rejects_writes(self, engine, session):
        t0 = engine.env.clock.now()
        session.execute(f"USE itemsdb AS OF {t0}")
        with pytest.raises(SnapshotReadOnlyError):
            session.execute("INSERT INTO items VALUES (99, 'x', 0)")
        with pytest.raises(SqlExecutionError):
            session.execute("BEGIN")

    def test_pinned_session_reads_other_dbs_qualified(self, engine, session, items_db):
        other = engine.create_database("other")
        other.create_table(items_db.table("items").schema)
        with other.transaction() as txn:
            other.insert(txn, "items", (1, "elsewhere", 0))
        t0 = engine.env.clock.now()
        session.execute(f"USE itemsdb AS OF {t0}")
        # Qualified reads bypass the pin; unqualified reads use it.
        assert session.execute("SELECT COUNT(*) FROM other.items").scalar() == 1
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 10

    def test_use_as_of_requires_live_database(self, engine, session):
        engine.create_snapshot("itemsdb", "frozen")
        with pytest.raises(SqlExecutionError):
            session.execute(f"USE frozen AS OF {engine.env.clock.now()}")

    def test_use_rejected_inside_transaction(self, engine, session):
        session.execute("USE itemsdb")
        session.execute("BEGIN")
        with pytest.raises(SqlExecutionError):
            session.execute(f"USE itemsdb AS OF {engine.env.clock.now()}")
        session.execute("ROLLBACK")

    def test_session_close_releases_pin(self, engine, items_db):
        fill_items(items_db, 3)
        session = engine.session("itemsdb")
        session.execute(f"USE itemsdb AS OF {engine.env.clock.now()}")
        assert engine.snapshot_pool.active_leases() == 1
        session.close()
        assert engine.snapshot_pool.active_leases() == 0

    def test_one_shot_sql_does_not_leak_pin(self, engine, items_db):
        fill_items(items_db, 3)
        engine.sql(
            f"USE itemsdb AS OF {engine.env.clock.now()}", database="itemsdb"
        )
        assert engine.snapshot_pool.active_leases() == 0
