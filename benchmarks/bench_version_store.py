"""Version-store bench: nearby AS OF sweeps, cold vs warm store.

The paper's Figure 11 identifies undo log I/O as the dominant cost of
point-in-time reads; the cross-snapshot
:class:`~repro.core.version_store.PageVersionStore` removes it for
repeated/nearby reads by keying prepared page images on the validity
interval the chain walk proves. This bench measures the audit-loop
workload that motivates the store: a sweep of AS OF ``stock_level``
queries at nearby times over a TPC-C history, run four ways —

* **store disabled** — yesterday's engine: every query is a pool miss
  that pays the chain walks.
* **cold store** — store enabled but empty: same walks, plus publishes.
* **warm repeated** — the same sweep after the snapshot pool was dropped
  (memory pressure, restart of the pool tier): snapshots are recreated,
  but every page probe hits the store — undo log reads collapse.
* **warm nearby** — the sweep shifted to *different* SplitLSNs between
  the same commits: hits wherever a page's interval brackets both
  splits, and where it doesn't, the page prepared from the stored
  version nearest the split (publishing new intervals): redone forward
  from one below it, undone down from one above it, or undone from the
  current page when the store holds neither.

Full-run numbers land in ``bench_results/version_store.json``, smoke
numbers (``--smoke``, which CI runs) in ``version_store_smoke.json``. The
committed file of the run's scale is its baseline, read before the run
overwrites it: the warm sweep issues no undo log read and is faster
than the store-disabled sweep, the cold sweep's undo log reads stay
within 20% of the baseline, the nearby sweep undoes and redoes no more
records than the baseline, and the store's hit rate keeps its floor.
"""

from __future__ import annotations

import json

from repro.bench import ReportTable, attach_metrics
from repro.bench.harness import BENCH_SCALE, SMOKE_SCALE, build_tpcc, make_perf_env
from repro.bench.reporting import results_path
from repro.config import DatabaseConfig
from repro.sim.device import SLC_SSD

#: Regression margin against the baseline (fractional change allowed).
GATE_MARGIN = 0.20


def _sweep(engine, driver, env, targets) -> dict:
    """Run one AS OF sweep; returns I/O deltas, timings and results."""
    before = env.stats.snapshot()
    store_stats = engine.version_store.stats
    hits, misses = store_stats.hits, store_stats.misses
    t0 = env.clock.now()
    results = [driver.stock_level_as_of(engine, t) for t in targets]
    elapsed = env.clock.now() - t0
    spent = env.stats.delta(before)
    return {
        "results": results,
        "elapsed_s": elapsed,
        "undo_log_reads": spent.undo_log_reads,
        "undo_records_applied": spent.undo_records_applied,
        "asof_records_redone": spent.asof_records_redone,
        "pages_prepared": spent.pages_prepared_asof,
        "store_hits": store_stats.hits - hits,
        "store_misses": store_stats.misses - misses,
    }


def run_version_store_bench(smoke: bool) -> dict:
    scale = SMOKE_SCALE if smoke else BENCH_SCALE
    workload_s = 60.0 if smoke else 180.0
    queries = 5 if smoke else 20
    spacing_s = 3.0
    nearby_offset_s = 1.0

    env = make_perf_env(SLC_SSD)
    # The paper's regime: the retained log is much larger than the log
    # cache (section 6.2), so chain walks actually touch the device —
    # 16 cached blocks (1 MB) against a multi-MB history.
    engine, db, driver = build_tpcc(
        env, scale, config=DatabaseConfig(log_cache_blocks=16)
    )
    driver.run_for(workload_s)

    now = env.clock.now()
    targets = [now - (queries - k) * spacing_s for k in range(queries)]
    nearby = [t + nearby_offset_s for t in targets]

    store = engine.version_store
    store_budget = store.budget_bytes

    # -- store disabled: the pre-store engine ---------------------------
    engine.set_version_store_budget(0)
    disabled = _sweep(engine, driver, env, targets)

    # -- cold store: same sweep, publishing -----------------------------
    engine.snapshot_pool.clear()
    engine.set_version_store_budget(store_budget)
    cold = _sweep(engine, driver, env, targets)

    # -- warm store, repeated sweep (pool dropped, store survives) ------
    engine.snapshot_pool.clear()
    warm = _sweep(engine, driver, env, targets)

    # -- warm store, nearby splits --------------------------------------
    engine.snapshot_pool.clear()
    warm_nearby = _sweep(engine, driver, env, nearby)

    assert warm["results"] == cold["results"] == disabled["results"]
    speedup = disabled["elapsed_s"] / warm["elapsed_s"] if warm["elapsed_s"] else 0.0
    payload = {
        "smoke": smoke,
        "queries": queries,
        "spacing_s": spacing_s,
        "nearby_offset_s": nearby_offset_s,
        "store_stats": engine.version_store_stats(),
    }
    for name, sweep in (
        ("disabled", disabled),
        ("cold", cold),
        ("warm", warm),
        ("warm_nearby", warm_nearby),
    ):
        for key, value in sweep.items():
            if key == "results":
                continue
            payload[f"{name}_{key}"] = value
    payload["warm_speedup"] = speedup
    payload["warm_nearby_hit_rate"] = warm_nearby["store_hits"] / max(
        1, warm_nearby["store_hits"] + warm_nearby["store_misses"]
    )
    return attach_metrics(payload, env)


def _records_touched(result: dict) -> int:
    return result["warm_nearby_undo_records_applied"] + result["warm_nearby_asof_records_redone"]


def _hit_rate(result: dict) -> float:
    return result["metrics"]["gauges"]["version_store.hit_rate"]


def test_version_store(bench):
    with open(results_path(bench.name("version_store"))) as handle:
        baseline = json.load(handle)
    result = run_version_store_bench(smoke=bench.smoke)

    table = ReportTable(
        "AS OF sweep at nearby times: cold vs warm version store",
        ["sweep", "undo reads", "store hits", "sim s"],
    )
    for name in ("disabled", "cold", "warm", "warm_nearby"):
        table.add(
            name,
            result[f"{name}_undo_log_reads"],
            result[f"{name}_store_hits"],
            result[f"{name}_elapsed_s"],
        )
    bench.show(table)

    # Checked before the result is saved, so a failing run leaves the
    # committed baseline alone. What the store buys: a repeated sweep
    # walks no chain, so it reads no log, and it is faster than the same
    # sweep without the store.
    assert result["warm_undo_log_reads"] == 0
    assert result["warm_elapsed_s"] < result["disabled_elapsed_s"]
    base = baseline["cold_undo_log_reads"]
    assert result["cold_undo_log_reads"] <= base + max(1, int(base * GATE_MARGIN))
    # A nearby miss starts from the stored version nearest its split: it
    # redoes the chain records up from an older one, or undoes them down
    # from a newer one, so it touches no more records than the baseline.
    assert _records_touched(result) <= _records_touched(baseline)
    # The registry's own view of the store, in the canonical schema.
    assert result["metrics"]["schema"] == "repro.obs.metrics/v1"
    assert _hit_rate(result) >= _hit_rate(baseline) * (1 - GATE_MARGIN)
    bench.report("version_store", result)
