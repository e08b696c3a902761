"""Cross-snapshot page version store: correctness and invalidation.

The store's contract: a lookup hit, or a walk resumed from a newer stored
version, gives bytes *identical* to what an uncached ``PreparePageAsOf``
chain walk from the current page would produce for that split, and
every event that could break that identity (history rewrite by crash or
promotion, database name reuse, LRU eviction, log truncation past an
unpinned interval) invalidates rather than serves.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro.core.asof as asof_module
from repro import DatabaseConfig, Engine
from repro.core.asof import AsOfSnapshot
from repro.core.split_lsn import find_split_lsn
from repro.core.version_store import CHAIN_ENTRY_BYTES, PageVersionStore
from repro.errors import LogTruncatedError
from repro.storage.page import Page, PageType
from repro.workload import TpccScale, load_tpcc
from repro.workload.driver import TpccDriver
from tests.conftest import ITEMS_SCHEMA, fill_items, stored_versions


# ---------------------------------------------------------------------------
# Unit behavior
# ---------------------------------------------------------------------------


class TestStoreUnit:
    def test_lookup_interval_semantics(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 200, b"x" * 64, array("Q"))
        assert store.lookup("db", 7, 100, 0) == (100, b"x" * 64, array("Q"), 0)
        assert store.lookup("db", 7, 199, 0)[:2] == (100, b"x" * 64)
        assert store.lookup("db", 7, 99, 0) is None
        assert store.lookup("db", 7, 200, 0) is None
        assert store.lookup("db", 8, 150, 0) is None
        assert store.lookup("other", 7, 150, 0) is None
        assert store.stats.hits == 2
        assert store.stats.misses == 4

    def test_lookup_resumes_from_nearest_newer_formatted_version(self):
        def image(page_lsn: int) -> bytes:
            page = Page(bytearray(256))
            page.format(7, PageType.HEAP)
            page.page_lsn = page_lsn
            return bytes(page.data)

        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 150, image(100), array("Q"))
        store.publish("db", 7, 300, 400, image(300), array("Q"))
        # A walk that ended unformatted: the pageLSN is not the version's.
        store.publish("db", 7, 200, 250, image(0), array("Q"))
        store.publish("db", 7, 220, 240, bytes(256), array("Q"))
        # A covering version is a hit even when a newer one could resume.
        assert store.lookup("db", 7, 120, 0, 1000)[:2] == (100, image(100))
        # Smallest resumable version above the split, below the ceiling.
        assert store.lookup("db", 7, 50, 0, 1000)[:2] == (100, image(100))
        assert store.lookup("db", 7, 160, 0, 1000)[:2] == (300, image(300))
        assert store.lookup("db", 7, 160, 0) == (300, image(300), array("Q"), 0)
        assert store.lookup("db", 7, 160, 0, 300) is None
        assert store.lookup("db", 7, 400, 0, 1000) is None
        assert (store.stats.hits, store.stats.misses, store.stats.resumes) == (1, 5, 3)
        assert store.stats.hit_rate == 1 / 6

    def test_publish_extends_same_version(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 150, b"a" * 64, array("Q"))
        store.publish("db", 7, 100, 300, b"a" * 64, array("Q"))
        assert stored_versions(store, "db", 7) == [(100, 300)]
        assert store.total_bytes() == 64  # extension stores no new bytes

    def test_empty_or_disabled_publish_is_dropped(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 100, b"a", array("Q"))
        store.publish("db", 7, 100, 90, b"a", array("Q"))
        assert store.version_count() == 0
        disabled = PageVersionStore(0)
        disabled.publish("db", 7, 100, 200, b"a", array("Q"))
        assert disabled.version_count() == 0
        assert disabled.lookup("db", 7, 150, 0) is None

    def test_lru_eviction_under_budget(self):
        store = PageVersionStore(200)
        store.publish("db", 1, 10, 20, b"a" * 100, array("Q"))
        store.publish("db", 2, 10, 20, b"b" * 100, array("Q"))
        assert store.lookup("db", 1, 15, 0) is not None  # page 1 now MRU
        store.publish("db", 3, 10, 20, b"c" * 100, array("Q"))
        assert store.stats.evictions == 1
        assert store.lookup("db", 2, 15, 0) is None  # LRU victim
        assert store.lookup("db", 1, 15, 0) is not None
        assert store.lookup("db", 3, 15, 0) is not None
        assert store.total_bytes() <= 200

    def test_invalidate_from_drops_and_clamps(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 100, 200, b"a" * 32, array("Q"))  # clamped to [100, 150)
        store.publish("db", 2, 150, 250, b"b" * 32, array("Q"))  # dropped (v >= 150)
        store.publish("db", 3, 50, 120, b"c" * 32, array("Q"))  # untouched
        dropped = store.invalidate_from("db", 150)
        assert dropped == 1
        assert stored_versions(store, "db", 1) == [(100, 150)]
        assert stored_versions(store, "db", 2) == []
        assert stored_versions(store, "db", 3) == [(50, 120)]

    def test_gc_drops_only_fully_unretained(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32, array("Q"))  # wholly below floor
        store.publish("db", 2, 80, 120, b"b" * 32, array("Q"))  # straddles: kept
        assert store.gc("db", 100) == 1
        assert stored_versions(store, "db", 1) == []
        assert stored_versions(store, "db", 2) == [(80, 120)]

    def test_purge_and_budget_accounting(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32, array("Q"))
        store.publish("db", 2, 10, 90, b"b" * 32, array("Q"))
        store.publish("other", 1, 10, 90, b"c" * 32, array("Q"))
        assert store.purge("db") == 2
        assert store.total_bytes() == 32
        assert store.purge("other") == 1
        assert store.total_bytes() == 0
        assert store.version_count() == 0

    def test_set_budget_zero_disables(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 10, 90, b"a" * 32, array("Q"))
        store.set_budget(0)
        assert not store.enabled
        assert store.version_count() == 0
        assert store.lookup("db", 1, 50, 0) is None

    def test_lookup_rolls_forward_from_the_fewest_records(self):
        store = PageVersionStore(1 << 20)
        # Proves the page's records 110 and 120; a split at or past 120 is
        # beyond what it knows.
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120]))
        # Proves 210..260.
        store.publish("db", 7, 200, 210, b"b" * 64, array("Q", [210, 220, 230, 240, 250, 260]))
        # A chain ending at or below the split proves nothing about it,
        # however few records it would redo: the fewest *proven* wins, and
        # it names the chain to redo.
        probe = store.lookup("db", 7, 235, 0)
        assert (probe.version_lsn, probe.data, probe.redo) == (200, b"b" * 64, 3)
        assert list(probe.chain[: probe.redo]) == [210, 220, 230]
        assert store.lookup("db", 7, 120, 0) is None
        assert store.lookup("db", 7, 155, 0) is None
        probe = store.lookup("db", 7, 115, 0)
        assert (probe.version_lsn, probe.redo) == (100, 1)
        assert (store.stats.misses, store.stats.rollforwards) == (4, 2)

    def test_lookup_rolls_forward_only_when_no_dearer_than_the_walk(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120, 130, 140, 150]))
        # Two records to redo, three above the split: roll forward.
        assert store.lookup("db", 7, 125, 0).redo == 2
        # Three to redo, two above: walk down from the current page.
        assert store.lookup("db", 7, 135, 0) is None
        # With a newer image at 130 the resumed walk undoes one record.
        image = Page(bytearray(256))
        image.format(7, PageType.HEAP)
        image.page_lsn = 130
        store.publish("db", 7, 130, 140, bytes(image.data), array("Q"))
        assert store.lookup("db", 7, 125, 0).version_lsn == 130
        # A standby's pages hold only the records below its ceiling: the
        # chain proves one of them above 115, and none above 125.
        assert store.lookup("db", 7, 115, 0, 125).redo == 1
        assert store.lookup("db", 7, 125, 0, 128) is None
        assert (store.stats.rollforwards, store.stats.resumes) == (2, 1)

    def test_lookup_rolls_forward_only_from_log_the_prober_holds(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120, 130, 140]))
        # A prober whose log starts above 110 cannot redo the chain.
        assert store.lookup("db", 7, 115, 111) is None
        assert store.lookup("db", 7, 115, 110).redo == 1
        assert store.stats.rollforwards == 1

    def test_publish_stores_each_chain_entry_once(self):
        def chains() -> dict[int, list[int]]:
            return {v.version_lsn: list(v.chain) for v in store._versions[("db", 7)]}

        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120, 130, 140, 150]))
        # A version on that chain takes the records above it, keeping the
        # longer proof of the two.
        store.publish("db", 7, 130, 140, b"c" * 64, array("Q", [140]))
        assert chains() == {100: [110, 120, 130], 130: [140, 150]}
        # A walk from a later page proves more above 120 than both hold.
        store.publish("db", 7, 120, 130, b"b" * 64, array("Q", [130, 140, 150, 160]))
        assert chains() == {100: [110, 120], 120: [130], 130: [140, 150, 160]}
        assert store.total_bytes() == 3 * 64 + 6 * CHAIN_ENTRY_BYTES
        probe = store.lookup("db", 7, 145, 0)
        assert (probe.version_lsn, probe.redo) == (130, 1)

    def test_publish_keeps_the_longer_chain(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120]))
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110, 120, 130]))
        store.publish("db", 7, 100, 110, b"a" * 64, array("Q", [110]))
        assert list(store.lookup("db", 7, 105, 0).chain) == [110, 120, 130]
        assert store.total_bytes() == 64 + 3 * CHAIN_ENTRY_BYTES

    def test_invalidate_from_trims_chains(self):
        store = PageVersionStore(1 << 20)
        store.publish("db", 1, 100, 110, b"a" * 32, array("Q", [110, 140, 160, 180]))
        store.invalidate_from("db", 150)
        # Records at or above 150 were rewritten: no roll-forward past them.
        assert list(store.lookup("db", 1, 105, 0).chain) == [110, 140]
        assert store.lookup("db", 1, 165, 0) is None
        assert store.lookup("db", 1, 145, 0) is None
        assert store.stats.rollforwards == 0
        assert store.total_bytes() == 32 + 2 * CHAIN_ENTRY_BYTES

    def test_bytes_are_the_sum_of_version_sizes(self):
        def stored(store) -> int:
            return sum(
                len(v.data) + CHAIN_ENTRY_BYTES * len(v.chain)
                for versions in store._versions.values()
                for v in versions
            )

        store = PageVersionStore(400)
        for page_id in range(4):
            chain = array("Q", range(110, 110 + 10 * (page_id + 1), 10))
            store.publish("db", page_id, 100, 110, b"x" * 64, chain)
            assert store.total_bytes() == stored(store)
        store.publish("db", 0, 100, 110, b"x" * 64, array("Q", range(110, 300, 10)))
        assert store.stats.evictions > 0
        assert store.total_bytes() == stored(store) <= 400
        store.publish("other", 9, 100, 110, b"y" * 32, array("Q", [110, 120]))
        store.invalidate_from("db", 135)
        assert store.total_bytes() == stored(store)
        store.purge("db")
        assert store.total_bytes() == stored(store) == 32 + 2 * CHAIN_ENTRY_BYTES


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


def _record_history(db, clock, history) -> tuple[dict, list[tuple[float, dict]]]:
    """Run ``history`` (committed or rolled-back transactions, a checkpoint
    every fifth); returns the final model and ``(instant, model)`` after
    each transaction."""
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
    return model, recorded


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
    _model, recorded = _record_history(db, engine.env.clock, history)

    for when, expected in recorded:
        with engine.query_as_of("vdb", when) as snap:
            assert {r[0]: r for r in snap.scan("items")} == expected

    engine.snapshot_pool.clear()
    for when, expected in recorded:
        with engine.query_as_of("vdb", when) as snap:
            assert {r[0]: r for r in snap.scan("items")} == expected


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_history, st.data())
def test_resumed_walks_match_shadow_model(history, data):
    """A miss whose walk resumes from a newer stored version equals the
    shadow model: query the recorded instants in a drawn order, so an
    earlier instant often follows a later one whose versions the store
    holds, with committed writes and checkpoints between the queries
    moving the current pages past those versions; two rounds, the pool
    dropped between them."""
    engine, db = _items_engine()
    clock = engine.env.clock
    model, recorded = _record_history(db, clock, history)
    order = data.draw(st.permutations(range(len(recorded))), label="order")
    for _round in range(2):
        for index in order:
            when, expected = recorded[index]
            with engine.query_as_of("vdb", when) as snap:
                assert {r[0]: r for r in snap.scan("items")} == expected
            ops = data.draw(st.lists(_txn_op, max_size=4), label="write")
            clock.advance(10)
            if ops:
                with db.transaction() as txn:
                    _apply_txn(db, txn, model, ops)
            if data.draw(st.booleans(), label="checkpoint"):
                db.checkpoint()
        engine.snapshot_pool.clear()
    event(f"resumes > 0: {engine.version_store.stats.resumes > 0}")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_history, st.data())
def test_rolled_forward_pages_match_shadow_model(history, data):
    """A miss rolled forward from an older stored version equals the
    shadow model: query the recorded instants in *ascending* order, the
    way a dashboard follows a moving log, so each read finds the version
    the one before published below its split, with committed writes and
    checkpoints between the queries moving the current pages on; two
    rounds, the pool dropped between them."""
    engine, db = _items_engine()
    clock = engine.env.clock
    model, recorded = _record_history(db, clock, history)
    for _round in range(2):
        for when, expected in recorded:
            with engine.query_as_of("vdb", when) as snap:
                assert {r[0]: r for r in snap.scan("items")} == expected
            ops = data.draw(st.lists(_txn_op, max_size=4), label="write")
            clock.advance(10)
            if ops:
                with db.transaction() as txn:
                    _apply_txn(db, txn, model, ops)
            if data.draw(st.booleans(), label="checkpoint"):
                db.checkpoint()
        engine.snapshot_pool.clear()
    event(f"rollforwards > 0: {engine.version_store.stats.rollforwards > 0}")


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
# Resume: a miss walks from the nearest newer stored version
# ---------------------------------------------------------------------------


def _chain_records(log, page_lsn: int, floor_lsn: int) -> int:
    """How many records of a page's chain lie in ``(floor_lsn, page_lsn]``."""
    count = 0
    while page_lsn > floor_lsn:
        count += 1
        page_lsn = log.read(page_lsn).prev_page_lsn
    return count


def _prepare_one_page(db, when: float, page_id: int) -> tuple[bytes, int]:
    """A fresh snapshot's image of one page as of ``when``, and the undo
    records preparing it applied."""
    snap = AsOfSnapshot.create(db, "probe", when)
    before = db.env.stats.snapshot()
    with snap.fetch_page(page_id) as guard:
        data = bytes(guard.page.data)
    return data, db.env.stats.delta(before).undo_records_applied


def _update_batch(db, batch: int) -> None:
    """Eight committed updates spread over the five items of one leaf."""
    for n in range(8):
        with db.transaction() as txn:
            db.update(txn, "items", (n % 5,), {"qty": batch * 100 + n})


def _updated_items_history(db, clock, rounds: int) -> list[float]:
    """Five items on one leaf, then ``rounds`` update batches; returns an
    instant before each batch."""
    fill_items(db, 5)
    marks = []
    for batch in range(rounds):
        clock.advance(5)
        marks.append(clock.now())
        clock.advance(5)
        _update_batch(db, batch)
    return marks


def test_resumed_walk_undoes_only_records_below_the_stored_version(items_schema):
    """Read AS OF a later S2, then AS OF S1: the second walk starts from
    the version the first published and undoes exactly that page's chain
    records in ``(S1, version]`` — fewer than a walk from the current page
    — with the bytes a store-disabled walk gives."""
    engine, db = _items_engine()
    store = engine.version_store
    t1, t2 = _updated_items_history(db, engine.env.clock, 2)
    leaf = db.table("items").info.root_page

    _prepare_one_page(db, t2, leaf)
    split1 = find_split_lsn(db, t1)
    [(version_lsn, _limit)] = stored_versions(store, "vdb", leaf)
    assert version_lsn > split1
    resumes = store.stats.resumes
    resumed, applied = _prepare_one_page(db, t1, leaf)
    assert store.stats.resumes == resumes + 1
    assert applied == _chain_records(db.log, version_lsn, split1)

    engine.set_version_store_budget(0)
    walked, walked_applied = _prepare_one_page(db, t1, leaf)
    with db.fetch_page(leaf) as guard:
        current_lsn = guard.page.page_lsn
    assert walked_applied == _chain_records(db.log, current_lsn, split1)
    assert applied < walked_applied
    assert resumed == walked


def test_resume_traced_on_the_lookup_span(items_schema):
    engine, db = _items_engine()
    t1, t2 = _updated_items_history(db, engine.env.clock, 2)
    with engine.query_as_of("vdb", t2) as snap:
        list(snap.scan("items"))
    with engine.trace("resume") as trace:
        with engine.query_as_of("vdb", t1) as snap:
            assert {r[0]: r[2] for r in snap.scan("items")} == {i: i * 10 for i in range(5)}
    probes = trace.find_all("version_store.lookup")
    assert any(p.attrs["resumed"] and not p.attrs["hit"] for p in probes)


def _prepare_one_page_forward(db, when: float, page_id: int) -> tuple[bytes, int, int]:
    """As :func:`_prepare_one_page`, and the records rolled forward."""
    snap = AsOfSnapshot.create(db, "probe", when)
    before = db.env.stats.snapshot()
    with snap.fetch_page(page_id) as guard:
        data = bytes(guard.page.data)
    spent = db.env.stats.delta(before)
    return data, spent.undo_records_applied, spent.asof_records_redone


def test_rolled_forward_page_redoes_only_records_up_to_the_split(items_schema):
    """Read AS OF an earlier S1, then AS OF a later S2: the second read
    starts from the version the first published and redoes exactly that
    page's chain records in ``(version, S2]`` — fewer than a walk down
    from the current page undoes — with the bytes a store-disabled walk
    gives."""
    engine, db = _items_engine()
    store = engine.version_store
    t1, t2, _t3 = _updated_items_history(db, engine.env.clock, 3)
    leaf = db.table("items").info.root_page
    with db.fetch_page(leaf) as guard:
        current_lsn = guard.page.page_lsn

    _prepare_one_page(db, t1, leaf)
    [(version_lsn, _limit)] = stored_versions(store, "vdb", leaf)
    split2 = find_split_lsn(db, t2)
    assert version_lsn < split2
    rollforwards = store.stats.rollforwards
    rolled, undone, redone = _prepare_one_page_forward(db, t2, leaf)
    assert store.stats.rollforwards == rollforwards + 1
    assert undone == 0
    proven = _chain_records(db.log, current_lsn, version_lsn)
    assert redone == proven - _chain_records(db.log, current_lsn, split2) == 8

    engine.set_version_store_budget(0)
    walked, walked_undone, _ = _prepare_one_page_forward(db, t2, leaf)
    assert walked_undone == _chain_records(db.log, current_lsn, split2) == 16
    assert redone < walked_undone
    assert rolled == walked


def test_roll_forward_traced(items_schema):
    engine, db = _items_engine()
    t1, t2, _t3 = _updated_items_history(db, engine.env.clock, 3)
    with engine.query_as_of("vdb", t1) as snap:
        list(snap.scan("items"))
    engine.snapshot_pool.clear()
    with engine.trace("roll") as trace:
        with engine.query_as_of("vdb", t2) as snap:
            assert {r[0]: r[2] for r in snap.scan("items")} == {
                n % 5: 100 * (n // 8) + n for n in range(3, 8)
            }
    [span] = trace.find_all("asof.roll_forward")
    assert span.attrs == {"page": db.table("items").info.root_page, "records": 8}


def test_roll_forward_cut_short_by_truncation_walks_down_instead(items_schema, monkeypatch):
    """A retention truncation that passes the chain's first record between
    the probe and the fetch: the read walks down from the current page,
    which needs no log below the split, and answers correctly."""
    engine, db = _items_engine()
    t1, t2, _t3 = _updated_items_history(db, engine.env.clock, 3)
    with engine.query_as_of("vdb", t1) as snap:
        list(snap.scan("items"))
    engine.snapshot_pool.clear()

    def truncated(page, chain, count, log, env):
        raise LogTruncatedError(f"{chain[0]:#x} was truncated")

    monkeypatch.setattr(asof_module, "roll_page_forward", truncated)
    rollforwards = engine.version_store.stats.rollforwards
    before = engine.env.stats.snapshot()
    with engine.query_as_of("vdb", t2) as snap:
        assert {r[0]: r[2] for r in snap.scan("items")} == {
            n % 5: 100 * (n // 8) + n for n in range(3, 8)
        }
    spent = engine.env.stats.delta(before)
    assert engine.version_store.stats.rollforwards == rollforwards + 1
    assert (spent.asof_records_redone, spent.undo_records_applied) == (0, 16)


def test_standby_rolls_forward_from_a_primary_version(items_schema):
    """A version the primary published, with the chain its walk proved,
    serves a standby's later split: the standby redoes the records up to
    its split from its own shipped log and answers correctly."""
    engine, db = _items_engine()
    store = engine.version_store
    replica = engine.add_replica("vdb", "standby")
    t1, t2, _t3 = _updated_items_history(db, engine.env.clock, 3)
    engine.env.clock.advance(5)
    db.log.flush()
    engine.replication_tick()
    with engine.snapshot_pool.lease(db, t1) as snap:
        list(snap.scan("items"))

    before = engine.env.stats.snapshot()
    rollforwards = store.stats.rollforwards
    with replica.read_as_of(t2) as snap:
        assert {r[0]: r[2] for r in snap.scan("items")} == {
            n % 5: 100 * (n // 8) + n for n in range(3, 8)
        }
    assert store.stats.rollforwards == rollforwards + 1
    assert engine.env.stats.delta(before).asof_records_redone == 8


def test_backup_seeded_standby_does_not_roll_forward_from_log_it_lacks(items_schema):
    """A standby seeded from a backup holds no log below its seed. A
    version the primary published whose chain starts below that seed
    would have the standby redo records it never received: it walks down
    from its own page instead and answers correctly."""
    engine, db = _items_engine()
    clock = engine.env.clock
    store = engine.version_store
    fill_items(db, 5)
    clock.advance(5)
    t0 = clock.now()
    clock.advance(5)
    _update_batch(db, 0)
    engine.backup_database("vdb")
    marks = []
    for batch in (1, 2, 3):
        clock.advance(5)
        marks.append(clock.now())
        clock.advance(5)
        _update_batch(db, batch)
    with engine.snapshot_pool.lease(db, t0) as snap:
        list(snap.scan("items"))
    leaf = db.table("items").info.root_page
    [(version_lsn, _limit)] = stored_versions(store, "vdb", leaf)
    db.log.flush()

    replica = engine.add_replica("vdb", "standby", seed_from_backup=True)
    [chain] = [v.chain for v in store._versions[("vdb", leaf)]]
    assert chain[0] < replica.db.log.start_lsn <= find_split_lsn(db, marks[1])
    rollforwards = store.stats.rollforwards
    with replica.read_as_of(marks[1]) as snap:
        assert {r[0]: r[2] for r in snap.scan("items")} == {
            n % 5: 100 + n for n in range(3, 8)
        }
    assert store.stats.rollforwards == rollforwards


def test_standby_does_not_resume_above_its_applied_prefix(items_schema):
    """A version the primary published above a standby's applied prefix
    describes log the standby has not applied (nor, here, received): the
    standby walks from its own page and still answers correctly."""
    engine, db = _items_engine()
    clock = engine.env.clock
    store = engine.version_store
    fill_items(db, 5)
    replica = engine.add_replica("vdb", "standby")
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    _update_batch(db, 0)
    db.log.flush()
    engine.replication_tick()
    _update_batch(db, 1)
    clock.advance(5)
    horizon = replica.db.publish_horizon_lsn
    with engine.snapshot_pool.lease(db, clock.now()) as snap:
        list(snap.scan("items"))
    leaf = db.table("items").info.root_page
    assert any(v > horizon for v, _limit in stored_versions(store, "vdb", leaf))

    resumes = store.stats.resumes
    with replica.read_as_of(t_past) as snap:
        assert {r[0]: r[2] for r in snap.scan("items")} == {i: i * 10 for i in range(5)}
    assert store.stats.resumes == resumes


def test_no_resume_from_a_version_the_crash_dropped(items_schema):
    """A version published against the volatile log tail is dropped by the
    crash; recovery writes other records at those LSNs, and a later miss
    must not resume from it."""
    engine, db = _items_engine()
    clock = engine.env.clock
    store = engine.version_store
    fill_items(db, 5)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    leaf = db.table("items").info.root_page
    txn = db.begin()
    db.update(txn, "items", (1,), {"qty": -1})
    with db.fetch_page(leaf) as guard:
        volatile_lsn = guard.page.page_lsn
        image = bytes(guard.page.data)
    assert volatile_lsn >= db.log.durable_lsn
    store.publish("vdb", leaf, volatile_lsn, db.log.end_lsn, image, array("Q"))

    db.crash()
    assert stored_versions(store, "vdb", leaf) == []
    db.recover()
    with engine.query_as_of("vdb", t_past) as snap:
        assert {r[0]: r[2] for r in snap.scan("items")} == {i: i * 10 for i in range(5)}
    assert store.stats.resumes == 0


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
