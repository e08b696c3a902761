"""Cross-snapshot page version store: correctness and invalidation.

The store's contract: a lookup hit returns bytes *identical* to what an
uncached ``PreparePageAsOf`` chain walk would produce for that split, and
every event that could break that identity (history rewrite by crash or
promotion, database name reuse, LRU eviction, log truncation past an
unpinned interval) invalidates rather than serves.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine
from repro.core.version_store import PageVersionStore
from repro.workload import TpccScale, load_tpcc
from repro.workload.driver import TpccDriver
from tests.conftest import ITEMS_SCHEMA, fill_items, stored_versions


# ---------------------------------------------------------------------------
# Unit behavior
# ---------------------------------------------------------------------------


class TestStoreUnit:
    def test_lookup_interval_semantics(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 200, b"x" * 64)
        assert store.lookup("db", 7, 100) == b"x" * 64
        assert store.lookup("db", 7, 199) == b"x" * 64
        assert store.lookup("db", 7, 99) is None
        assert store.lookup("db", 7, 200) is None
        assert store.lookup("db", 8, 150) is None
        assert store.lookup("other", 7, 150) is None
        assert store.stats.hits == 2
        assert store.stats.misses == 4

    def test_publish_extends_same_version(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 150, b"a" * 64)
        store.publish("db", 7, 100, 300, b"a" * 64)
        assert stored_versions(store, "db", 7) == [(100, 300)]
        assert store.total_bytes() == 64  # extension stores no new bytes

    def test_empty_or_disabled_publish_is_dropped(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 100, b"a")
        store.publish("db", 7, 100, 90, b"a")
        assert store.version_count() == 0
        disabled = PageVersionStore(0)
        disabled.publish("db", 7, 100, 200, b"a")
        assert disabled.version_count() == 0
        assert disabled.lookup("db", 7, 150) is None

    def test_lru_eviction_under_budget(self):
        store = PageVersionStore(200)
        store.publish("db", 1, 10, 20, b"a" * 100)
        store.publish("db", 2, 10, 20, b"b" * 100)
        assert store.lookup("db", 1, 15) is not None  # page 1 now MRU
        store.publish("db", 3, 10, 20, b"c" * 100)
        assert store.stats.evictions == 1
        assert store.lookup("db", 2, 15) is None  # LRU victim
        assert store.lookup("db", 1, 15) is not None
        assert store.lookup("db", 3, 15) is not None
        assert store.total_bytes() <= 200

    def test_invalidate_from_drops_and_clamps(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 100, 200, b"a" * 32)  # clamped to [100, 150)
        store.publish("db", 2, 150, 250, b"b" * 32)  # dropped (v >= 150)
        store.publish("db", 3, 50, 120, b"c" * 32)  # untouched
        dropped = store.invalidate_from("db", 150)
        assert dropped == 1
        assert stored_versions(store, "db", 1) == [(100, 150)]
        assert stored_versions(store, "db", 2) == []
        assert stored_versions(store, "db", 3) == [(50, 120)]

    def test_gc_drops_only_fully_unretained(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32)  # wholly below floor
        store.publish("db", 2, 80, 120, b"b" * 32)  # straddles: kept
        assert store.gc("db", 100) == 1
        assert stored_versions(store, "db", 1) == []
        assert stored_versions(store, "db", 2) == [(80, 120)]

    def test_purge_and_budget_accounting(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32)
        store.publish("db", 2, 10, 90, b"b" * 32)
        store.publish("other", 1, 10, 90, b"c" * 32)
        assert store.purge("db") == 2
        assert store.total_bytes() == 32
        assert store.purge("other") == 1
        assert store.total_bytes() == 0
        assert store.version_count() == 0

    def test_set_budget_zero_disables(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32)
        store.set_budget(0)
        assert not store.enabled
        assert store.version_count() == 0
        assert store.lookup("db", 1, 50) is None


# ---------------------------------------------------------------------------
# Engine integration: hits equal uncached preparation
# ---------------------------------------------------------------------------


def _items_engine():
    engine = Engine(config=DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db = engine.create_database("vdb")
    db.create_table(ITEMS_SCHEMA)
    return engine, db


def test_store_hit_skips_chain_walk_and_matches(items_schema):
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 30)
    clock.advance(10)
    t_past = clock.now()
    clock.advance(10)
    with db.transaction() as txn:
        for i in range(30):
            db.update(txn, "items", (i,), {"qty": i})

    with engine.query_as_of("vdb", t_past) as snap:
        first = list(snap.scan("items"))
    assert engine.version_store.stats.publishes > 0

    # Drop the pooled snapshot: the side file is gone, only the store
    # remains. The re-read must rebuild from store hits, not chain walks.
    engine.snapshot_pool.clear()
    before = engine.env.stats.snapshot()
    hits = engine.version_store.stats.hits
    with engine.query_as_of("vdb", t_past) as snap:
        second = list(snap.scan("items"))
    spent = engine.env.stats.delta(before)
    assert second == first
    assert engine.version_store.stats.hits > hits
    assert spent.undo_records_applied == 0


def test_nearby_split_reuses_interval(items_schema):
    """Two different SplitLSNs bracketing zero modifications of a page
    share one stored version — the cross-snapshot reuse the store is for."""
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 20)
    clock.advance(5)
    t1 = clock.now()
    clock.advance(5)
    # A committed no-op-for-items transaction moves the SplitLSN without
    # touching the items pages.
    db.create_table(
        ITEMS_SCHEMA.__class__(
            "other",
            ITEMS_SCHEMA.columns,
            key=("id",),
        )
    )
    clock.advance(5)
    t2 = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (0,), {"qty": 999})

    with engine.query_as_of("vdb", t1) as snap:
        rows_t1 = list(snap.scan("items"))
    from repro.core.split_lsn import find_split_lsn

    assert find_split_lsn(db, t1) != find_split_lsn(db, t2)
    hits = engine.version_store.stats.hits
    with engine.query_as_of("vdb", t2) as snap:
        rows_t2 = list(snap.scan("items"))
    assert rows_t2 == rows_t1
    assert engine.version_store.stats.hits > hits


def test_store_disabled_engine_still_correct(items_schema):
    engine = Engine(
        config=DatabaseConfig(page_size=1024, buffer_pool_pages=64),
        version_store_budget=0,
    )
    db = engine.create_database("vdb")
    db.create_table(ITEMS_SCHEMA)
    clock = engine.env.clock
    fill_items(db, 10)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.delete(txn, "items", (3,))
    with engine.query_as_of("vdb", t_past) as snap:
        assert sum(1 for _ in snap.scan("items")) == 10
    assert engine.version_store.version_count() == 0


# ---------------------------------------------------------------------------
# Property: store-served reads equal the shadow model across histories
# ---------------------------------------------------------------------------

_txn_op = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=-500, max_value=500),
)

_history = st.lists(
    st.tuples(st.lists(_txn_op, min_size=1, max_size=6), st.booleans()),
    min_size=2,
    max_size=15,
)


def _apply_txn(db, txn, model, ops):
    for op, key, val in ops:
        if op == "insert" and key not in model:
            row = (key, f"k{key}", val)
            db.insert(txn, "items", row)
            model[key] = row
        elif op == "update" and key in model:
            model[key] = db.update(txn, "items", (key,), {"qty": val})
        elif op == "delete" and key in model:
            db.delete(txn, "items", (key,))
            del model[key]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_history)
def test_store_hits_match_shadow_model(history):
    """A store-served read equals an uncached ``PreparePageAsOf`` result:
    run every recorded instant once (publishing), drop all snapshots, and
    run it again — the rebuild is served from stored versions and must
    reproduce the shadow model exactly."""
    engine, db = _items_engine()
    clock = engine.env.clock
    model: dict[int, tuple] = {}
    recorded: list[tuple[float, dict]] = []
    for index, (ops, commit) in enumerate(history):
        clock.advance(10)
        txn = db.begin()
        staged = dict(model)
        _apply_txn(db, txn, staged, ops)
        if commit:
            db.commit(txn)
            model = staged
        else:
            db.rollback(txn)
        recorded.append((clock.now(), dict(model)))
        if index % 5 == 2:
            db.checkpoint()

    for when, expected in recorded:
        with engine.query_as_of("vdb", when) as snap:
            assert {r[0]: r for r in snap.scan("items")} == expected

    engine.snapshot_pool.clear()
    for when, expected in recorded:
        with engine.query_as_of("vdb", when) as snap:
            assert {r[0]: r for r in snap.scan("items")} == expected


def test_store_hits_match_tpcc_history():
    """TPC-C: repeated/nearby as-of stock levels served from the store
    equal the first (uncached) reads."""
    engine = Engine()
    scale = TpccScale(
        warehouses=1, districts_per_warehouse=2, customers_per_district=6, items=30
    )
    db = engine.create_database("tpcc")
    load_tpcc(db, scale, seed=11)
    driver = TpccDriver(db, scale, seed=11, think_time_s=0.1)
    driver.run_transactions(40)
    targets = [engine.env.clock.now() - back for back in (3.0, 2.0, 1.0)]
    driver.run_transactions(10)

    first = [driver.stock_level_as_of(engine, t) for t in targets]
    engine.snapshot_pool.clear()
    hits = engine.version_store.stats.hits
    second = [driver.stock_level_as_of(engine, t) for t in targets]
    assert second == first
    assert engine.version_store.stats.hits > hits


# ---------------------------------------------------------------------------
# Invalidation: eviction, truncation, pool eviction, crash, name reuse
# ---------------------------------------------------------------------------


def test_store_eviction_falls_back_to_chain_walk(items_schema):
    """A budget-evicted version misses; the read re-prepares correctly."""
    engine = Engine(
        config=DatabaseConfig(page_size=1024, buffer_pool_pages=64),
        version_store_budget=2048,  # two small pages
    )
    db = engine.create_database("vdb")
    db.create_table(ITEMS_SCHEMA)
    clock = engine.env.clock
    fill_items(db, 40)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        for i in range(40):
            db.update(txn, "items", (i,), {"qty": -i})
    with engine.query_as_of("vdb", t_past) as snap:
        first = list(snap.scan("items"))
    assert engine.version_store.stats.evictions > 0
    engine.snapshot_pool.clear()
    with engine.query_as_of("vdb", t_past) as snap:
        assert list(snap.scan("items")) == first


def test_truncation_gc_spares_pinned_pooled_split(items_schema):
    """A pooled entry's pin keeps its versions; evicting the entry and
    truncating collects them."""
    engine, db = _items_engine()
    clock = engine.env.clock
    db.set_undo_interval(30.0)
    fill_items(db, 10)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 7})
    with engine.query_as_of("vdb", t_past) as snap:
        list(snap.scan("items"))
    assert engine.version_store.version_count("vdb") > 0

    # Age the pooled split far past the window; its pin holds the log.
    for _ in range(4):
        clock.advance(20)
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": 5})
        db.checkpoint()
    db.enforce_retention()
    # The pinned pooled split is still served — store versions intact.
    count_before = engine.version_store.version_count("vdb")
    assert count_before > 0
    with engine.query_as_of("vdb", t_past) as snap:
        assert snap.get("items", (1,))[2] == 10

    # Evict the pooled entry (pin released), truncate: versions follow.
    engine.snapshot_pool.clear()
    db.enforce_retention()
    assert db.log.start_lsn > 0
    leftover = stored_versions(engine.version_store, "vdb", 0)
    for _version_lsn, limit_lsn in leftover:
        assert limit_lsn > db.log.start_lsn


def test_pool_eviction_then_retention_gcs_store(items_schema):
    """Evicting a pooled entry releases its pin; the next retention
    enforcement truncates past the split and GCs the stranded versions."""
    engine, db = _items_engine()
    clock = engine.env.clock
    db.set_undo_interval(30.0)
    fill_items(db, 10)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 7})
    with engine.query_as_of("vdb", t_past) as snap:
        list(snap.scan("items"))
    # Age + truncate while pinned (pin holds the floor at the split).
    for _ in range(4):
        clock.advance(20)
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": 5})
        db.checkpoint()
    db.enforce_retention()
    # Evict (pin released), then enforce: truncation advances and the
    # retention GC drops every version stranded below the new floor.
    engine.snapshot_pool.clear()
    db.enforce_retention()
    floor = db.log.start_lsn
    for page_id in range(db.file_manager.page_count):
        for _v, limit in stored_versions(engine.version_store, "vdb", page_id):
            assert limit > floor


def test_crash_invalidates_volatile_intervals(items_schema):
    """Open-ended intervals published against the volatile log tail must
    not survive a crash that rewrites that history."""
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 10)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 123})
    # Publish with the tail volatile (no flush beyond what commit did).
    with engine.query_as_of("vdb", t_past) as snap:
        list(snap.scan("items"))
    durable = db.log.durable_lsn
    db.crash()
    for page_id in range(db.file_manager.page_count + 5):
        for _v, limit in stored_versions(engine.version_store, "vdb", page_id):
            assert limit <= durable
    db.recover()
    engine.snapshot_pool.clear()
    with engine.query_as_of("vdb", t_past) as snap:
        assert snap.get("items", (1,))[2] == 10


def test_name_reuse_purges_store(items_schema):
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 5)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 1})
    with engine.query_as_of("vdb", t_past) as snap:
        list(snap.scan("items"))
    assert engine.version_store.version_count("vdb") > 0
    engine.drop_database("vdb")
    assert engine.version_store.version_count("vdb") == 0
    db2 = engine.create_database("vdb")
    db2.create_table(ITEMS_SCHEMA)
    fill_items(db2, 3)
    clock.advance(5)
    with engine.query_as_of("vdb", clock.now()) as snap:
        assert sum(1 for _ in snap.scan("items")) == 3


# ---------------------------------------------------------------------------
# Replica sharing
# ---------------------------------------------------------------------------


def test_replica_pool_shares_primary_store(items_schema):
    """A chain walk paid on the primary serves the replica's pool (and
    vice versa): both publish under the primary's key."""
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 20)
    replica = engine.add_replica("vdb", "standby")
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        for i in range(20):
            db.update(txn, "items", (i,), {"qty": 0})
    db.log.flush()
    engine.replication_tick()

    # Prepare on the primary's pool: publishes under "vdb".
    with engine.snapshot_pool.lease(db, t_past) as snap:
        primary_rows = list(snap.scan("items"))
    hits = engine.version_store.stats.hits
    with replica.read_as_of(t_past) as snap:
        replica_rows = list(snap.scan("items"))
    assert replica_rows == primary_rows
    assert engine.version_store.stats.hits > hits


def test_promotion_diverges_store_key(items_schema):
    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 10)
    engine.add_replica("vdb", "standby")
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 77})
    db.log.flush()
    engine.replication_tick()
    promoted = engine.promote_replica("standby")
    assert promoted.version_store_key == "standby"
    assert promoted.version_store is engine.version_store
    # The promoted timeline publishes under its own key from now on.
    clock.advance(5)
    t_new = clock.now()
    clock.advance(5)
    with promoted.transaction() as txn:
        promoted.update(txn, "items", (1,), {"qty": -1})
    with engine.query_as_of("standby", t_new) as snap:
        assert snap.get("items", (1,))[2] == 77
    assert engine.version_store.version_count("standby") > 0


# ---------------------------------------------------------------------------
# Satellite: memoized checkpoint chain
# ---------------------------------------------------------------------------


def test_checkpoint_chain_memoized(items_schema):
    from repro.core.split_lsn import checkpoint_chain

    engine, db = _items_engine()
    clock = engine.env.clock
    fill_items(db, 5)
    for _ in range(5):
        clock.advance(10)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 1})
        db.checkpoint()
    first = list(checkpoint_chain(db))
    assert len(first) >= 5
    # The second walk is served from the per-database cache: no log reads.
    log = db.log
    real_read = log.read
    reads = []

    def counting_read(lsn, **kw):
        reads.append(lsn)
        return real_read(lsn, **kw)

    log.read = counting_read
    try:
        assert list(checkpoint_chain(db)) == first
        assert reads == []
        # A new checkpoint only prepends; old entries stay cached.
        db.checkpoint()
        chain = list(checkpoint_chain(db))
        assert chain[1:] == first
        assert len(reads) == 1
    finally:
        log.read = real_read


def test_checkpoint_chain_cache_cleared_on_crash(items_schema):
    from repro.core.split_lsn import checkpoint_chain

    engine, db = _items_engine()
    fill_items(db, 5)
    db.checkpoint()
    list(checkpoint_chain(db))
    assert db._ckpt_chain_cache
    db.crash()
    assert not db._ckpt_chain_cache
    db.recover()
    assert list(checkpoint_chain(db))


# ---------------------------------------------------------------------------
# Satellite: loginspect --chains
# ---------------------------------------------------------------------------


def test_loginspect_chains_cli(tmp_path, items_schema):
    """--chains over archived segments renders a histogram."""
    from repro.tools.loginspect import main as loginspect_main

    engine = Engine(config=DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db = engine.create_database("vdb")
    db.create_table(ITEMS_SCHEMA)
    engine.enable_archiving("vdb", directory=str(tmp_path))
    fill_items(db, 10)
    db.log.flush()
    engine.archives["vdb"].poll()
    assert loginspect_main(["--archive", str(tmp_path), "--chains"]) == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
