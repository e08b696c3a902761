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

Unlike the figure benches this is a standalone script (CI runs it with
``--smoke --gate``): ``python benchmarks/bench_version_store.py
[--smoke] [--gate]``. Full-run numbers land in
``bench_results/version_store.json``; smoke numbers in
``bench_results/version_store_smoke.json``, which is the committed
baseline the ``--gate`` mode enforces: the warm sweep issues no undo
log read and is faster than the store-disabled sweep, the cold sweep's
undo log reads stay within 20% of the baseline, the nearby sweep undoes
and redoes no more records than the baseline, and the store's hit rate
keeps its floor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import ReportTable, attach_metrics, save_results  # noqa: E402
from repro.bench.harness import BENCH_SCALE, build_tpcc, make_perf_env  # noqa: E402
from repro.config import DatabaseConfig  # noqa: E402
from repro.sim.device import SLC_SSD  # noqa: E402
from repro.workload import TpccScale  # noqa: E402

SMOKE_SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=8,
    items=40,
)

#: Regression margin for the CI gate (fractional increase allowed).
GATE_MARGIN = 0.20

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "bench_results")


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


def run_version_store_bench(smoke: bool = False) -> dict:
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


def _gate(fresh: dict, baseline_path: str) -> int:
    """Fail when the store stops buying what it is there for."""
    if not os.path.exists(baseline_path):
        print(f"gate: no committed baseline at {baseline_path}; recording only")
        return 0
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []

    def check(metric: str, ok: bool, detail: str) -> None:
        print(f"gate: {metric}: {detail} {'ok' if ok else 'REGRESSION'}")
        if not ok:
            failures.append(metric)

    # What the store buys: a repeated sweep walks no chain, so it reads
    # no log, and it is faster than the same sweep without the store.
    warm_reads = fresh["warm_undo_log_reads"]
    check("warm_undo_log_reads", warm_reads == 0, f"fresh={warm_reads} allowed=0")
    warm_s, disabled_s = fresh["warm_elapsed_s"], fresh["disabled_elapsed_s"]
    check(
        "warm_elapsed_s",
        warm_s < disabled_s,
        f"fresh={warm_s:.4f} allowed<{disabled_s:.4f} (store disabled)",
    )
    base = baseline.get("cold_undo_log_reads")
    if base is not None:
        got = fresh["cold_undo_log_reads"]
        allowed = base + max(1, int(base * GATE_MARGIN))
        check(
            "cold_undo_log_reads",
            got <= allowed,
            f"baseline={base} fresh={got} allowed<={allowed}",
        )
    # A nearby miss starts from the stored version nearest its split: it
    # redoes the chain records up from an older one, or undoes them down
    # from a newer one, so it touches no more records than the baseline.
    base = baseline.get("warm_nearby_undo_records_applied")
    if base is not None:
        base += baseline.get("warm_nearby_asof_records_redone", 0)
        got = fresh["warm_nearby_undo_records_applied"] + fresh["warm_nearby_asof_records_redone"]
        check(
            "warm_nearby_records_touched",
            got <= base,
            f"baseline={base} fresh={got} allowed<={base} (undone + redone)",
        )
    # The embedded repro.obs.metrics/v1 snapshot carries the registry's
    # own view of the store; gate on it too so the canonical schema (not
    # just the ad-hoc sweep fields) is what CI enforces.
    metrics = fresh.get("metrics", {})
    if metrics.get("schema") != "repro.obs.metrics/v1":
        check("metrics_schema", False, "payload lacks a repro.obs.metrics/v1 snapshot")
    else:
        got_rate = metrics.get("gauges", {}).get("version_store.hit_rate", 0.0)
        base_rate = (
            baseline.get("metrics", {}).get("gauges", {}).get("version_store.hit_rate")
        )
        if base_rate is not None:
            floor = base_rate * (1 - GATE_MARGIN)
            check(
                "metrics.version_store.hit_rate",
                got_rate >= floor,
                f"baseline={base_rate:.3f} fresh={got_rate:.3f} allowed>={floor:.3f}",
            )
    if failures:
        print(f"gate: FAILED ({', '.join(failures)})")
        return 1
    print("gate: passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale for CI (seconds instead of minutes)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="compare against the committed baseline; exit 1 when the "
        "warm sweep reads the log, is no faster than store-disabled, the "
        "nearby sweep undoes and redoes more records than the baseline, or cold undo "
        "reads / hit rate regress >20%%",
    )
    args = parser.parse_args(argv)

    result = run_version_store_bench(smoke=args.smoke)

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
    table.show()
    print(
        f"\nundo reads (disabled -> warm): "
        f"{result['disabled_undo_log_reads']} -> {result['warm_undo_log_reads']}; "
        f"warm sweep speedup: {result['warm_speedup']:.1f}x; "
        f"nearby-split hit rate: {result['warm_nearby_hit_rate']:.0%}"
    )

    name = "version_store_smoke" if args.smoke else "version_store"
    exit_code = 0
    if args.gate:
        exit_code = _gate(result, os.path.join(RESULTS_DIR, f"{name}.json"))
    if not args.gate or exit_code == 0:
        path = save_results(name, result)
        print(f"results saved to {path}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
