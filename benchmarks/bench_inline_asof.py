"""Inline point-in-time query cost: cold pool miss vs named-snapshot DDL
vs warm pooled reuse.

The pooled inline path changes the economics of the paper's as-of query:

* **cold inline** — first ``AS OF`` read at a point: pool miss, pays
  snapshot creation (a records-only checkpoint — forced begin and end
  records, no page flush — + bounded analysis) plus the query's lazy
  page preparation.
* **named DDL** — ``CREATE DATABASE ... AS SNAPSHOT OF ... AS OF`` plus
  the query plus ``DROP``: the seed's only way to time-travel.
* **warm pooled** — a second inline read at the same point reuses the
  pooled snapshot: no checkpoint, no analysis scan, and every page the
  first query prepared is already in its frames (a pooled snapshot keeps
  no side file) — so its cost collapses to roughly the query's CPU.

All timings are simulated seconds from the shared device/cost models.
"""

from __future__ import annotations

from repro.bench import ReportTable, attach_metrics
from repro.bench.harness import BENCH_SCALE, build_tpcc, make_perf_env
from repro.sim.device import SLC_SSD
from repro.workload.tpcc_txns import stock_level


def run_inline_asof():
    env = make_perf_env(SLC_SSD)
    # Store disabled, like the figure benches: this bench compares pool
    # ceremony (cold miss vs named DDL vs warm reuse). With the store on,
    # the cold read would publish page versions that the later named-DDL
    # query consumes, skewing the "same work, no ceremony" comparison.
    engine, db, driver = build_tpcc(env, BENCH_SCALE, version_store_budget=0)
    driver.run_for(3 * 60.0)

    now = env.clock.now()
    target = now - 60.0

    # Cold inline query: pool miss — creation plus lazy page preparation,
    # against the realistically dirty buffer pool the workload left.
    t0 = env.clock.now()
    cold = driver.stock_level_as_of(engine, target)
    cold_s = env.clock.now() - t0

    # Warm pooled reuse at the same point in time.
    bytes_before_warm = engine.snapshot_pool.total_bytes()
    t1 = env.clock.now()
    warm = driver.stock_level_as_of(engine, target)
    warm_s = env.clock.now() - t1
    warm_new_bytes = engine.snapshot_pool.total_bytes() - bytes_before_warm

    # The seed's ceremony: named snapshot DDL, query, drop. Keep the
    # primary busy first so creation (which takes section 5.1's sharp
    # checkpoint, flushing every dirty page) finds a
    # realistically dirty buffer pool, as it would in production.
    driver.run_for(15.0)
    t2 = env.clock.now()
    snap = engine.create_asof_snapshot(db.name, "named", target)
    create_s = env.clock.now() - t2
    t3 = env.clock.now()
    named = stock_level(snap, w_id=1, d_id=1, threshold=60)
    named_query_s = env.clock.now() - t3
    engine.drop_snapshot("named")

    assert cold == warm == named
    payload = {
        "cold_inline_s": cold_s,
        "warm_pooled_s": warm_s,
        "named_create_s": create_s,
        "named_query_s": named_query_s,
        "named_total_s": create_s + named_query_s,
        "warm_new_side_file_bytes": warm_new_bytes,
        "pool_hits": engine.snapshot_pool.stats.hits,
        "pool_misses": engine.snapshot_pool.stats.misses,
        "pool_bytes": engine.snapshot_pool.total_bytes(),
    }
    return attach_metrics(payload, env)


def test_inline_asof_cold_vs_warm(bench):
    result = run_inline_asof()

    table = ReportTable(
        "Inline AS OF: cold pool miss vs named DDL vs warm pooled reuse",
        ["path", "sim seconds"],
    )
    table.add("cold inline (miss)", result["cold_inline_s"])
    table.add("named DDL create", result["named_create_s"])
    table.add("named DDL query", result["named_query_s"])
    table.add("named DDL total", result["named_total_s"])
    table.add("warm pooled (hit)", result["warm_pooled_s"])
    bench.report("inline_asof", result, table)

    # The warm read hit the pool and created no new side file.
    assert result["pool_misses"] == 1
    assert result["pool_hits"] == 1
    assert result["warm_new_side_file_bytes"] == 0
    # Warm pooled reuse is measurably cheaper than snapshot creation —
    # the whole point of pooling: creation (checkpoint + analysis) is
    # skipped entirely, and so is the lazy page preparation.
    assert result["warm_pooled_s"] < 0.5 * result["named_create_s"]
    assert result["warm_pooled_s"] < result["cold_inline_s"]
    # Cold inline ~ named create + query: same machinery, no ceremony,
    # and no page flush (the named create flushes the 15 s of churn
    # before it).
    assert result["cold_inline_s"] < 2.5 * result["named_total_s"] + 1e-6
