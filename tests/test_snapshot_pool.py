"""Snapshot pool tests: reuse, refcounting, eviction, engine integration."""

from __future__ import annotations

import pytest

from repro.core.snapshot_pool import SnapshotPool
from repro.errors import (
    CatalogError,
    RetentionExceededError,
    SnapshotError,
)
from tests.conftest import fill_items, pool_entries


def mark(db) -> float:
    now = db.env.clock.now()
    db.env.clock.advance(10)
    return now


class TestReuse:
    def test_same_point_shares_one_snapshot(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 999})
        pool = engine.snapshot_pool
        first = pool.acquire(db, t0)
        assert first.get("items", (1,))[2] == 10
        pool.release(first)
        bytes_after_first = pool.total_bytes()
        second = pool.acquire(db, t0)
        assert second is first  # same pooled snapshot, same side file
        assert second.get("items", (1,))[2] == 10
        pool.release(second)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        # The second query created no new side file and prepared no new
        # pages for this point lookup.
        assert pool.total_bytes() == bytes_after_first
        assert len(pool) == 1

    def test_distinct_times_resolving_to_same_split_share(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)  # advances the clock by 10s with no commits between
        t_later = t0 + 5.0
        pool = engine.snapshot_pool
        with pool.lease(db, t0):
            pass
        with pool.lease(db, t_later):
            pass
        # Both times land on the same last commit, hence one SplitLSN.
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_distinct_points_get_distinct_snapshots(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 111})
        t1 = mark(db)
        pool = engine.snapshot_pool
        with pool.lease(db, t0) as s0, pool.lease(db, t1) as s1:
            assert s0 is not s1
            assert s0.get("items", (1,))[2] == 10
            assert s1.get("items", (1,))[2] == 111
        assert pool.stats.misses == 2

    def test_retention_window_enforced(self, engine, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 5)
        old = db.env.clock.now()
        db.env.clock.advance(500)
        with pytest.raises(RetentionExceededError):
            engine.snapshot_pool.acquire(db, old)


class TestRefcounting:
    def test_active_lease_never_evicted(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        t0 = mark(db)
        pool = engine.snapshot_pool
        snap = pool.acquire(db, t0)
        list(snap.scan("items"))  # materialize side-file pages
        assert pool.total_bytes() > 0
        pool.set_budget(1)  # far below the side-file footprint
        assert pool.evict_to_budget() == 0  # leased: must not be evicted
        assert not snap.dropped
        pool.release(snap)  # release triggers eviction under budget
        assert pool.stats.evictions == 1
        assert snap.dropped
        assert len(pool) == 0

    def test_concurrent_sessions_share_a_lease(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        pool = engine.snapshot_pool
        a = pool.acquire(db, t0)
        b = pool.acquire(db, t0)
        assert a is b
        assert pool.active_leases() == 2
        pool.release(a)
        assert pool.active_leases() == 1
        pool.release(b)
        assert pool.active_leases() == 0

    def test_double_release_rejected(self, engine, items_db):
        db = items_db
        fill_items(db, 3)
        t0 = mark(db)
        pool = engine.snapshot_pool
        snap = pool.acquire(db, t0)
        pool.release(snap)
        with pytest.raises(SnapshotError):
            pool.release(snap)

    def test_foreign_snapshot_release_rejected(self, engine, items_db):
        db = items_db
        fill_items(db, 3)
        t0 = mark(db)
        named = engine.create_asof_snapshot("itemsdb", "named", t0)
        with pytest.raises(SnapshotError):
            engine.snapshot_pool.release(named)


class TestEviction:
    def _points(self, db, count):
        """Commit a distinct state per point so splits differ."""
        points = []
        for i in range(count):
            with db.transaction() as txn:
                db.update(txn, "items", (1,), {"qty": 1000 + i})
            points.append(mark(db))
        return points

    def test_lru_eviction_under_byte_budget(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        pool = engine.snapshot_pool
        points = self._points(db, 4)
        page = db.config.page_size
        for t in points:
            with pool.lease(db, t) as snap:
                snap.get("items", (1,))  # materialize a few pages
        per_snap = pool.total_bytes() // len(points)
        assert per_snap > 0
        # Budget for roughly two snapshots: the two oldest must go.
        pool.set_budget(2 * per_snap + page - 1)
        assert pool.total_bytes() <= pool.budget_bytes
        assert len(pool) <= 2
        assert pool.stats.evictions >= 2
        # The most recently used point survived.
        with pool.lease(db, points[-1]):
            pass
        assert pool.stats.misses == len(points)  # no re-creation needed

    def test_acquire_refreshes_lru_position(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        pool = engine.snapshot_pool
        points = self._points(db, 3)
        for t in points:
            with pool.lease(db, t) as snap:
                snap.get("items", (1,))
        # Touch the oldest point again: it becomes most-recently-used.
        with pool.lease(db, points[0]):
            pass
        sizes = [entry[3] for entry in pool_entries(pool)]
        pool.set_budget(max(sizes))
        with pool.lease(db, points[0]):
            pass
        assert pool.stats.misses == len(points)  # oldest survived the purge

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SnapshotPool(0)
        pool = SnapshotPool(100)
        with pytest.raises(ValueError):
            pool.set_budget(-5)


class TestEngineIntegration:
    def test_query_as_of_context_manager(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with db.transaction() as txn:
            db.delete(txn, "items", (0,))
        with engine.query_as_of("itemsdb", t0) as snap:
            assert snap.get("items", (0,)) == (0, "item-0", 0)
        assert engine.snapshot_pool.active_leases() == 0
        # Pooled snapshots never appear in the named-snapshot namespace.
        assert not engine.snapshots
        assert not db.snapshots

    def test_query_as_of_unknown_database(self, engine):
        with pytest.raises(CatalogError):
            with engine.query_as_of("ghost", 0.0):
                pass

    def test_lease_released_on_error(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with pytest.raises(RuntimeError):
            with engine.query_as_of("itemsdb", t0):
                raise RuntimeError("boom")
        assert engine.snapshot_pool.active_leases() == 0

    def test_drop_database_purges_pool(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with engine.query_as_of("itemsdb", t0) as snap:
            snap.get("items", (1,))
        assert len(engine.snapshot_pool) == 1
        engine.drop_database("itemsdb")
        assert len(engine.snapshot_pool) == 0

    def test_drop_database_mid_lease_releases_cleanly(self, engine, items_db):
        """Purging a database must not make the outstanding lease's
        release blow up (or mask an in-flight exception)."""
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with engine.query_as_of("itemsdb", t0) as snap:
            snap.get("items", (1,))
            engine.drop_database("itemsdb")
            # The snapshot is gone for further reads...
            with pytest.raises(SnapshotError):
                snap.get("items", (2,))
        # ...but the lease unwound without raising.
        assert engine.snapshot_pool.active_leases() == 0
        assert len(engine.snapshot_pool) == 0

    def test_exception_mid_lease_survives_purge(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with pytest.raises(RuntimeError, match="original"):
            with engine.query_as_of("itemsdb", t0):
                engine.drop_database("itemsdb")
                raise RuntimeError("original")

    def test_named_snapshots_bypass_pool(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        engine.create_asof_snapshot("itemsdb", "named", t0)
        assert len(engine.snapshot_pool) == 0
        assert "named" in engine.snapshots

    def test_driver_stock_level_as_of(self, engine):
        from repro.workload import TpccDriver, TpccScale, load_tpcc
        from repro.workload.tpcc_txns import stock_level

        scale = TpccScale(
            warehouses=1,
            districts_per_warehouse=1,
            customers_per_district=5,
            items=30,
        )
        db = engine.create_database("tpcc")
        load_tpcc(db, scale)
        driver = TpccDriver(db, scale, seed=3, think_time_s=0.01)
        driver.run_transactions(40)
        engine.env.clock.advance(5)
        t0 = engine.env.clock.now()
        engine.env.clock.advance(5)
        driver.run_transactions(40)
        live = stock_level(db, 1, 1, 60)
        past = driver.stock_level_as_of(engine, t0)
        again = driver.stock_level_as_of(engine, t0)
        assert past == again
        assert engine.snapshot_pool.stats.misses == 1
        assert engine.snapshot_pool.stats.hits == 1
        assert isinstance(live, int)
