"""Observability layer: registry semantics, trace shape, determinism.

The acceptance contract this file pins down, from the public surface
only (SQL and the engine API):

* a counter is a field of a stats sheet and nothing else (read, reset,
  retired and re-attached through its owner) for every ``install_*``;
  one ``metrics.reset()`` clears every sheet; one topology's metric
  names and values are pinned;
* a warm AS OF re-read shows a ``version_store.lookup hit=True`` span
  and **zero** undo-path log reads, while the cold run shows the chain
  walk with its coalesced-span read counts;
* two identical seeded runs produce byte-identical metric snapshots and
  span trees (everything is timed on the simulated clock).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from repro import DatabaseConfig, Engine
from repro.config import CostModel, SimEnv
from repro.obs.export import flatten_snapshot, metrics_to_text
from repro.obs.registry import METRICS_SCHEMA, MetricsRegistry
from repro.sim.device import SAS_10K
from repro.workload import TpccScale, load_tpcc
from repro.workload.driver import TpccDriver
from tests.conftest import ITEMS_SCHEMA, fill_items

# ---------------------------------------------------------------------------
# Registry unit behavior
# ---------------------------------------------------------------------------


@dataclass
class _Sheet:
    """A stand-in subsystem stats sheet."""

    hits: int = 0
    frames: int = 0


class TestRegistry:
    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.sheet("a", _Sheet())
        registry.gauge("a.lag", lambda: 0)
        with pytest.raises(ValueError):
            registry.gauge("a.hits", lambda: 0)  # a counter of the sheet
        with pytest.raises(ValueError):
            registry.histogram("a.lag")
        registry.gauge("b.hits", lambda: 0)
        with pytest.raises(ValueError):
            registry.sheet("b", _Sheet())  # its ``hits`` would shadow the gauge

    def test_reregistration_semantics(self):
        registry = MetricsRegistry()
        # Histograms return the existing instrument.
        assert registry.histogram("a.h") is registry.histogram("a.h")
        # Gauges and sheets *replace* — a subsystem restart rebinds the
        # metric to its new live object.
        registry.gauge("a.g", lambda: 1)
        registry.gauge("a.g", lambda: 2)
        registry.sheet("a", _Sheet(hits=1))
        registry.sheet("a", _Sheet(hits=2))
        snap = registry.snapshot()
        assert snap["gauges"]["a.g"] == 2
        assert snap["counters"] == {"a.frames": 0, "a.hits": 2}

    def test_histogram_buckets_deterministic(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        snap = registry.snapshot()["histograms"]["lat"]
        assert snap["buckets"] == [[1.0, 2], [10.0, 1]]
        assert snap["overflow"] == 1
        assert snap["count"] == 4
        assert snap["sum"] == 106.5

    def test_snapshot_glob_and_flatten(self):
        registry = MetricsRegistry()
        registry.sheet("pool", _Sheet(hits=3))
        registry.sheet("log", _Sheet(frames=7))
        registry.gauge("pool.bytes", lambda: 11)
        snap = registry.snapshot("pool.*")
        assert snap["schema"] == METRICS_SCHEMA
        assert list(snap["counters"]) == ["pool.frames", "pool.hits"]
        flat = flatten_snapshot(registry.snapshot("*.[bh]*"))
        assert flat == {"log.hits": 0, "pool.bytes": 11, "pool.hits": 3}
        assert metrics_to_text(snap) == ["pool.bytes = 11", "pool.frames = 0", "pool.hits = 3"]

    def test_remove_prefix_unwinds_subsystem(self):
        registry = MetricsRegistry()
        registry.sheet("replica.r1", _Sheet())
        registry.gauge("replica.r1.lag", lambda: 0)
        registry.sheet("replica.r2", _Sheet())
        registry.remove_prefix("replica.r1.")
        assert registry.names("replica.*") == ["replica.r2.frames", "replica.r2.hits"]

    def test_reset_zeroes_counters_and_histograms(self):
        registry = MetricsRegistry()
        sheet = _Sheet(hits=4)
        registry.sheet("a", sheet)
        registry.histogram("a.h").observe(1.0)
        registry.gauge("a.g", lambda: 42)
        registry.reset()
        snap = registry.snapshot()
        assert sheet.hits == snap["counters"]["a.hits"] == 0
        assert snap["histograms"]["a.h"]["count"] == 0
        assert snap["gauges"]["a.g"] == 42  # derived, untouched


# ---------------------------------------------------------------------------
# One fixed topology: its names and values pinned, its sheets held to
# the one-storage contract
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "metrics_topology.json"


def _topology(env=None) -> Engine:
    """Something behind every ``install_*`` function: a primary with its
    shipper and archiver, a standby, one pooled AS OF read through SQL
    and one named snapshot."""
    engine = Engine(
        env if env is not None else SimEnv.for_tests(),
        config=DatabaseConfig(page_size=1024, buffer_pool_pages=64),
    )
    db = engine.create_database("shop")
    db.create_table(ITEMS_SCHEMA)
    fill_items(db, 40)
    engine.backup_database("shop")
    engine.add_replica("shop", "standby")
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    fill_items(db, 40, start=40)
    engine.replication_tick()
    assert engine.sql(f"SELECT qty FROM items AS OF {mark} WHERE id = 1", "shop").scalar() == 10
    engine.create_asof_snapshot("shop", "shop_then", mark)
    return engine


def test_metric_names_and_values_are_pinned():
    """Captured at 436447b (before the sheets became the only storage);
    the edits since: the five ``io.version_store_*`` mirrors gone, and
    ``io.undo_log_cache_hits`` counting each chain record once (54 → 27)
    now that no header pass precedes the fetch, and the new names
    ``version_store.resumes``, ``version_store.rollforwards`` and
    ``io.asof_records_redone`` (0 here: the topology's one AS OF read
    finds the store empty). Stored versions now carry their proven
    chains, 8 bytes per entry: the 27 undone records add 216 to
    ``version_store.bytes`` and ``peak_bytes`` (5120 → 5336). The AS OF
    ``WHERE id = 1`` now scans only the key's range, so it reads and
    prepares the root and that one leaf, not the table's other leaf at
    the mark (whose walk undid 25 records): prepared
    pages, store misses, publishes and versions 5 → 4, undone records
    (and their cache hits) 27 → 2, side-file bytes 5120 → 4096,
    ``version_store.bytes``/``peak_bytes`` 5336 → 4112, buffer hits
    306 → 305. A B-tree descent now hands its caller the page it pinned
    instead of the caller fetching it again, and a table UPDATE rewrites
    its row under one descent instead of a read and a write: buffer hits
    305 → 198, misses unchanged (only the latch acquisitions behind the
    hits fell as well, and they are not in this snapshot). A pooled
    snapshot keeps no sparse side file (its frames share the version
    store's images), so the pooled read's four page writes are gone:
    ``io.sparse_writes`` 4 → 0 and ``io.sparse_bytes`` 4096 → 0 (the
    named snapshot reads nothing). A standby leases from the engine's
    pool, so the eleven ``pool.standby.*`` instruments are gone and
    their values land in ``pool.engine.*`` (misses, releases and entries
    0 → 1, bytes and peak bytes 0 → 4096). A split logs its row move as
    one insert and one delete record, not one of each per row, so the
    loads' splits write fewer, larger records: ``io.log_records`` 283 →
    163 (``log.append_bytes`` count alike; its 256-byte bucket 233 → 105,
    its 1024-byte one 0 → 8), ``io.log_write_bytes`` 46 765 → 33 629,
    the log's retained bytes 23 537 → 16 969 (the histogram's sum) and
    its end and durable LSNs 23 545 → 16 977, the archived, received and
    applied LSNs 23 236 → 16 668, bytes archived and received 23 228 →
    16 660, archive writes 30 492 → 23 924, bytes shipped 46 456 →
    33 320, the standby's records applied 254 → 134 and its peak apply
    backlog 13 784 → 10 500. A split's delete no longer carries the rows
    its paired insert holds, so the loads' four row-move deletes shrink
    below 64 bytes: ``log.append_bytes``' 64-byte bucket 49 → 53 and its
    1024-byte one 8 → 4, its sum and the log's retained bytes 16 969 →
    15 187, the end and durable LSNs 16 977 → 15 195,
    ``io.log_write_bytes`` 33 629 → 30 065, the archived, received and
    applied LSNs 16 668 → 14 886, bytes archived and received 16 660 →
    14 878, archive writes 23 924 → 22 142, bytes shipped 33 320 → 29 756
    and the standby's peak apply backlog 10 500 → 9 614; and the counter
    ``io.smo_delete_undo_bytes`` is gone (nothing ever added to it). An
    update logs the bytes it changed, not the whole row twice, so the
    topology's three boot-record updates shrink from 105 to 65 bytes
    each: the log's retained bytes 15 187 → 15 067 (the histogram's sum),
    its end and durable LSNs 15 195 → 15 075, ``io.log_write_bytes``
    30 065 → 29 865, the archived, received and applied LSNs 14 886 →
    14 806, bytes archived and received 14 878 → 14 798, archive writes
    22 142 → 22 062, bytes shipped 29 756 → 29 596, the standby's peak
    apply backlog 9 614 → 9 534, and the five lag gauges (the archive
    cursor's, the standby's apply and receive lags, the retention pin's
    and the shipper's maximum) 309 → 269. A restore's page lay-down is
    booked under its own counter, not as a backup write: the new name
    ``io.restore_write_bytes`` (0 here: the topology restores nothing)."""
    engine = _topology()
    golden = json.loads(GOLDEN.read_text())
    assert sorted(engine.env.metrics.names()) == golden["names"]
    assert engine.metrics_snapshot() == golden["snapshot"]


#: prefix -> (the object whose ``.stats`` is attached under it, what has
#: to leave for the sheet to go: a replica, a database, the engine itself
#: or — None — the env).
SHEETS = {
    "io": (lambda e: e.env, None),
    "pool.engine": (lambda e: e.snapshot_pool, "engine"),
    "version_store": (lambda e: e.version_store, "engine"),
    "replica.standby": (lambda e: e.replicas["standby"], "standby"),
    "shipper.shop": (lambda e: e.shipper_for("shop"), "shop"),
    "archive.shop": (lambda e: e.archives["shop"], "shop"),
}


@pytest.mark.parametrize("prefix", SHEETS)
def test_sheet_contract(prefix):
    """A counter exists once, as a field of its owner's sheet: the
    registry reads the attribute, ``reset`` zeroes the attribute, the
    sheet leaves with its owner, and a namesake's sheet is the new
    object's."""
    owner_of, scope = SHEETS[prefix]
    engine = _topology()
    sheet = owner_of(engine).stats

    def exported(engine) -> dict:
        return engine.metrics_snapshot(f"{prefix}.*")["counters"]

    def held(sheet) -> dict:
        return {f"{prefix}.{spec.name}": getattr(sheet, spec.name) for spec in fields(sheet)}

    for value, spec in enumerate(fields(sheet), start=1):
        setattr(sheet, spec.name, value)
    assert exported(engine) == held(sheet) and 0 not in held(sheet).values()
    engine.reset_metrics()
    assert exported(engine) == held(sheet) and not any(held(sheet).values())
    if scope is None:
        return
    for spec in fields(sheet):
        setattr(sheet, spec.name, -1)  # the old object, marked
    if scope != "engine":
        (engine.drop_replica if scope == "standby" else engine.drop_database)(scope)
        assert exported(engine) == {}
    engine = _topology(engine.env)  # namesakes of every owner, same machine
    fresh = owner_of(engine).stats
    assert fresh is not sheet and exported(engine) == held(fresh)


def test_one_reset_clears_every_counter():
    """`env.metrics.reset()` clears the io sheet *and* every subsystem
    sheet, on the owner objects themselves: there is no second copy."""
    engine = _topology()
    sheets = [owner_of(engine).stats for owner_of, _scope in SHEETS.values()]
    busy = [sheet for sheet in sheets if any(getattr(sheet, f.name) for f in fields(sheet))]
    assert len(busy) == len(sheets)  # the engine pool served the standby's read
    engine.env.metrics.reset()
    snap = engine.metrics_snapshot()
    assert not any(snap["counters"].values())
    assert not any(hist["count"] for hist in snap["histograms"].values())
    assert not any(getattr(sheet, f.name) for sheet in sheets for f in fields(sheet))


def _traced_engine():
    """Priced engine (clock advances under I/O) with the items table."""
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(env, config=DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db = engine.create_database("vdb")
    db.create_table(ITEMS_SCHEMA)
    return engine, db


# ---------------------------------------------------------------------------
# Trace shape: cold chain walk vs warm version-store hit
# ---------------------------------------------------------------------------


def _cold_warm_traces(engine, db):
    """(cold, warm) traces of the same AS OF read, pool dropped between."""
    clock = engine.env.clock
    fill_items(db, 20)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        for i in range(20):
            db.update(txn, "items", (i,), {"qty": i})
    with engine.trace("cold") as cold:
        with engine.query_as_of("vdb", t_past) as snap:
            list(snap.scan("items"))
    engine.snapshot_pool.clear()
    with engine.trace("warm") as warm:
        with engine.query_as_of("vdb", t_past) as snap:
            list(snap.scan("items"))
    return cold, warm


def test_cold_trace_shows_chain_walk(items_schema):
    engine, db = _traced_engine()
    cold, _ = _cold_warm_traces(engine, db)

    pin = cold.find("asof.pin")
    assert pin is not None and pin.attrs["db"] == "vdb"
    acquire = pin.find("pool.acquire")
    assert acquire is not None and acquire.attrs["hit"] is False
    assert acquire.find("asof.resolve_split") is not None
    assert acquire.find("asof.create_at_split") is not None

    walks = cold.find_all("asof.chain_walk")
    assert walks, "cold read must chain-walk"
    # Every walked page missed the store first, and the walk's I/O
    # carries the undo read counts the bench quotes.
    for walk in walks:
        probe = cold.find("version_store.lookup")
        assert probe is not None and probe.attrs["hit"] is False
    walk_io = {}
    for walk in walks:
        for key, value in walk.io.items():
            walk_io[key] = walk_io.get(key, 0) + value
    assert walk_io.get("pages_prepared_asof", 0) == len(walks)


def test_warm_trace_hits_store_and_skips_undo(items_schema):
    engine, db = _traced_engine()
    _, warm = _cold_warm_traces(engine, db)

    probes = warm.find_all("version_store.lookup")
    assert probes and all(p.attrs["hit"] is True for p in probes)
    assert warm.find("asof.chain_walk") is None
    io = warm.root.io
    assert io.get("undo_log_reads", 0) == 0
    assert io.get("undo_log_cache_hits", 0) == 0
    assert engine.version_store.stats.hits == len(probes)


def test_span_nesting_and_sim_timing(items_schema):
    """Spans nest engine → pool → version-store/log-manager, and every
    span's sim interval lies inside its parent's."""
    engine, db = _traced_engine()
    cold, _ = _cold_warm_traces(engine, db)

    def check(span):
        for child in span.children:
            assert child.start_s >= span.start_s
            assert child.end_s <= span.end_s
            check(child)

    check(cold.root)
    walk = cold.find("asof.chain_walk")
    assert walk is not None
    prep = cold.find("asof.prepare_page")
    assert walk in prep.find_all("asof.chain_walk")
    # The undo log reads happen inside the chain walks: one fetch per
    # record undone, a device read or a block-cache hit each.
    walk_io = [w.io for w in cold.find_all("asof.chain_walk")]
    fetches = sum(
        io.get("undo_log_reads", 0) + io.get("undo_log_cache_hits", 0) for io in walk_io
    )
    assert fetches == sum(io.get("undo_records_applied", 0) for io in walk_io) > 0
    root_io = cold.root.io
    assert fetches == root_io.get("undo_log_reads", 0) + root_io.get("undo_log_cache_hits", 0)
    assert cold.root.elapsed_s > 0  # priced env: sim time advanced


def test_span_io_is_fixed_by_its_first_seal():
    """A span's I/O is the counter movement between its open and its first
    seal: empty while in flight, unchanged by later work or a second
    seal, and inclusive of its children."""
    env = SimEnv()
    tracer, stats = env.tracer, env.stats
    trace = tracer.begin("root")
    with tracer.span("outer") as outer:
        stats.page_reads += 2
        with tracer.span("inner") as inner:
            stats.page_reads += 1
            stats.log_flushes += 1
            assert inner.io == {}
        assert inner.io == {"page_reads": 1, "log_flushes": 1}
    stats.page_writes += 5
    tracer._close(outer)  # a stray second seal moves end_s, never io
    tracer.finish(trace)
    assert outer.io == {"page_reads": 3, "log_flushes": 1}
    assert trace.root.io == {"page_reads": 3, "log_flushes": 1, "page_writes": 5}
    assert trace.render()[2].endswith("io[log_flushes=+1 page_reads=+1]")


def test_trace_is_exclusive_and_cheap_when_inactive(items_schema):
    engine, db = _traced_engine()
    with engine.trace("outer"):
        with pytest.raises(ValueError):
            with engine.trace("inner"):
                pass
    # Inactive: instrumentation points return the shared no-op span.
    tracer = engine.env.tracer
    assert not tracer.active
    from repro.obs.tracer import NULL_SPAN

    assert tracer.span("anything", k=1) is NULL_SPAN


# ---------------------------------------------------------------------------
# SQL surface: SHOW METRICS and TRACE
# ---------------------------------------------------------------------------


def _sql_engine():
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(env)
    engine.sql("CREATE DATABASE shop")
    with engine.session("shop") as session:
        session.execute(
            "CREATE TABLE items (id INT NOT NULL, qty INT, PRIMARY KEY (id))"
        )
        session.execute("INSERT INTO items VALUES (1, 10), (2, 20)")
        session.execute("UPDATE items SET qty = 11 WHERE id = 1")
        session.execute("CHECKPOINT")
    return engine


def test_show_metrics_rows():
    engine = _sql_engine()
    with engine.session("shop") as session:
        result = session.execute("SHOW METRICS LIKE 'log.shop.*'")
    assert result.columns == ("name", "value")
    rows = dict(result.rows)
    assert rows["log.shop.end_lsn"] > 0
    # Unfiltered SHOW METRICS includes histogram count/sum rows.
    with engine.session("shop") as session:
        result = session.execute("SHOW METRICS")
    names = [name for name, _ in result.rows]
    assert "sql.execute_sim_s.count" in names
    assert names == sorted(names)


def test_show_metrics_parse_errors():
    engine = _sql_engine()
    from repro.errors import SqlError

    with engine.session("shop") as session:
        with pytest.raises(SqlError):
            session.execute("SHOW GAUGES")


def test_sql_trace_cold_vs_warm(items_schema):
    """The acceptance walk, from SQL only: cold TRACE shows the chain
    walk; after the pool is dropped, the warm TRACE shows the
    version-store hit and zero undo-path log reads."""
    engine = _sql_engine()
    as_of = engine.env.clock.now()
    with engine.session("shop") as session:
        session.execute("UPDATE items SET qty = 99 WHERE id = 2")
        cold = session.execute(f"TRACE SELECT * FROM items AS OF {as_of}")
        assert cold.columns == ("span",)
        cold_text = "\n".join(line for (line,) in cold.rows)
        assert "asof.chain_walk" in cold_text
        assert "version_store.lookup" in cold_text and "hit=False" in cold_text

        engine.snapshot_pool.clear()
        warm = session.execute(f"TRACE SELECT * FROM items AS OF {as_of}")
        warm_text = "\n".join(line for (line,) in warm.rows)
        assert "hit=True" in warm_text
        assert "asof.chain_walk" not in warm_text
        assert "undo_log_reads" not in warm_text
        assert "undo_header_reads" not in warm_text
        # The traced statement nests under the TRACE root.
        assert warm.rows[0][0].startswith("sql.trace")
        assert warm.rows[1][0].startswith("  sql.execute stmt=Select")


# ---------------------------------------------------------------------------
# Determinism: seeded run ⇒ byte-identical snapshots and traces
# ---------------------------------------------------------------------------


def _seeded_run():
    """One seeded TPC-C burst + cold/warm AS OF reads; returns the
    snapshot JSON and both rendered traces."""
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(env)
    scale = TpccScale(
        warehouses=1, districts_per_warehouse=2, customers_per_district=6, items=30
    )
    db = engine.create_database("tpcc")
    load_tpcc(db, scale, seed=11)
    driver = TpccDriver(db, scale, seed=11, think_time_s=0.1)
    driver.run_transactions(30)
    target = env.clock.now() - 2.0
    driver.run_transactions(5)

    with engine.trace("cold") as cold:
        driver.stock_level_as_of(engine, target)
    engine.snapshot_pool.clear()
    with engine.trace("warm") as warm:
        driver.stock_level_as_of(engine, target)
    snapshot = json.dumps(engine.metrics_snapshot(), sort_keys=True)
    return snapshot, cold.render(), warm.render()


def test_seeded_runs_are_byte_identical():
    first = _seeded_run()
    second = _seeded_run()
    assert first[0] == second[0]  # metrics snapshot JSON
    assert first[1] == second[1]  # cold span tree
    assert first[2] == second[2]  # warm span tree
    # And the traces differ from each other in the expected way.
    assert any("asof.chain_walk" in line for line in first[1])
    assert any("hit=True" in line for line in first[2])


# ---------------------------------------------------------------------------
# Derived gauges: lag and occupancy without sampling
# ---------------------------------------------------------------------------


def test_replica_and_archiver_lag_gauges(tmp_path):
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(env)
    engine.sql("CREATE DATABASE shop")
    engine.add_replica("shop", "standby")
    engine.enable_archiving("shop", directory=str(tmp_path))
    with engine.session("shop") as session:
        session.execute("CREATE TABLE t (id INT NOT NULL, PRIMARY KEY (id))")
        session.execute("INSERT INTO t VALUES (1), (2)")
        session.execute("CHECKPOINT")

    flat = flatten_snapshot(engine.metrics_snapshot())
    assert flat["replica.standby.apply_lag_bytes"] > 0
    assert flat["archive.shop.cursor_lag_bytes"] > 0
    assert flat["replica.standby.apply_lag_s"] > 0.0

    engine.replication_tick()
    flat = flatten_snapshot(engine.metrics_snapshot())
    assert flat["replica.standby.apply_lag_bytes"] == 0
    assert flat["archive.shop.cursor_lag_bytes"] == 0
    assert flat["replica.standby.apply_lag_s"] == 0.0
    assert flat["shipper.shop.subscribers"] == 2

    # Dropping the replica unwinds its instruments.
    engine.drop_replica("standby")
    names = engine.env.metrics.names("replica.standby.*")
    assert names == []


def test_retention_pin_gauge_tracks_pooled_split(items_schema):
    engine, db = _traced_engine()
    clock = engine.env.clock
    fill_items(db, 10)
    clock.advance(5)
    t_past = clock.now()
    clock.advance(5)
    with db.transaction() as txn:
        db.update(txn, "items", (0,), {"qty": 1})

    flat = flatten_snapshot(engine.metrics_snapshot())
    baseline = flat["retention.vdb.pin_lag_bytes"]
    with engine.query_as_of("vdb", t_past):
        flat = flatten_snapshot(engine.metrics_snapshot())
        pinned = flat["retention.vdb.pin_lag_bytes"]
    assert pinned > baseline  # the pooled split pins log behind the tail
