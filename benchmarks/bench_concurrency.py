"""Concurrency bench: session-scaling throughput and latch contention.

Runs the same fixed batch of TPC-C transactions split across 1..N
concurrent sessions (``engine.run_sessions``) and reports:

* **throughput scaling** — committed transactions per real second at
  each worker count (reported, never asserted: Python threads share the
  GIL, so the interesting signal is that throughput *doesn't collapse*
  as sessions are added, not that it multiplies);
* **latch contention** — per-latch acquisition/contention counters from
  the structures the concurrent engine serializes on (database write
  latch, snapshot pool, version store, log manager, buffer pool, lock
  manager), the data that says *where* the engine queues;
* **mixed-storm integrity** — one storm of writers + current readers +
  AS OF sweeps at the top worker count, followed by a full checkdb (the
  bench fails hard if the storm corrupts the database — same contract
  as ``tests/test_concurrency.py``, at bench scale).

Standalone script (CI runs it with ``--smoke``):
``python benchmarks/bench_concurrency.py [--smoke]``.
Raw numbers land in ``bench_results/concurrency.json``
(``concurrency_smoke.json`` under ``--smoke``).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import ReportTable, attach_metrics, save_results  # noqa: E402
from repro.bench.harness import build_tpcc, make_perf_env  # noqa: E402
from repro.sim.device import SLC_SSD  # noqa: E402
from repro.tools.checkdb import check_database  # noqa: E402
from repro.workload import TpccDriver, TpccScale  # noqa: E402

SCALE = TpccScale(
    warehouses=2,
    districts_per_warehouse=2,
    customers_per_district=8,
    items=50,
)

STORM_TIMEOUT_S = 300.0


def _tracked_latches(engine, db) -> dict:
    return {
        "db.write": db.write_latch,
        "snapshot_pool": engine.snapshot_pool.latch,
        "version_store": engine.version_store.latch,
        "log_manager": db.log.latch,
        "buffer_pool": db.buffer.latch,
        "lock_manager": db.locks.latch,
    }


def _latch_report(engine, db) -> dict:
    return {
        name: latch.stats()
        for name, latch in _tracked_latches(engine, db).items()
    }


def _writer_task(db, barrier, txns, seed):
    def run():
        driver = TpccDriver(db, SCALE, seed=seed)
        barrier.wait(STORM_TIMEOUT_S)
        return driver.run_transactions(txns)

    return run


def run_scaling(worker_counts, txns_total, smoke) -> list[dict]:
    """One fresh engine per worker count; same total work each time."""
    rows = []
    for workers in worker_counts:
        env = make_perf_env(SLC_SSD)
        engine, db, _driver = build_tpcc(env, SCALE, seed=7)
        per_worker = txns_total // workers
        barrier = threading.Barrier(workers)

        t0 = time.perf_counter()
        outcomes = engine.run_sessions(
            [
                _writer_task(db, barrier, per_worker, 100 + i)
                for i in range(workers)
            ],
            workers=workers,
            timeout_s=STORM_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - t0

        committed = sum(o.committed for o in outcomes)
        rows.append(
            {
                "workers": workers,
                "transactions": sum(o.transactions for o in outcomes),
                "committed": committed,
                "rolled_back": sum(o.rolled_back for o in outcomes),
                "real_seconds": elapsed,
                "committed_per_s": committed / elapsed if elapsed else 0.0,
                "latches": _latch_report(engine, db),
                "write_latch_contention": db.write_latch.contention_ratio(),
            }
        )
    return rows


def run_mixed_storm(workers, txns, smoke):
    """Writers + current readers + AS OF sweeps, then a full checkdb.
    Returns ``(payload_row, env)`` so the caller can attach the storm's
    simulated I/O metrics."""
    env = make_perf_env(SLC_SSD)
    engine, db, _driver = build_tpcc(env, SCALE, seed=7)
    engine.start_monitor()
    t_asof = env.clock.now()
    writers = max(1, workers // 2)
    readers = max(1, workers // 4)
    sweeps = max(1, workers // 4)
    barrier = threading.Barrier(writers + readers + sweeps)

    def reader():
        barrier.wait(STORM_TIMEOUT_S)
        seen = 0
        with engine.session(db.name) as session:
            for _ in range(txns):
                seen += session.execute(
                    "SELECT COUNT(*) FROM district"
                ).scalar()
        return seen

    def sweeper(seed):
        def run():
            driver = TpccDriver(db, SCALE, seed=seed)
            barrier.wait(STORM_TIMEOUT_S)
            total = 0
            for _ in range(max(2, txns // 4)):
                total += driver.stock_level_as_of(engine, t_asof)
            return total

        return run

    tasks = [_writer_task(db, barrier, txns, 200 + i) for i in range(writers)]
    tasks += [reader] * readers
    tasks += [sweeper(300 + i) for i in range(sweeps)]
    t0 = time.perf_counter()
    outcomes = engine.run_sessions(
        tasks, workers=len(tasks), timeout_s=STORM_TIMEOUT_S
    )
    elapsed = time.perf_counter() - t0
    report = check_database(db)
    pool = engine.snapshot_pool
    return env, {
        "workers": workers,
        "sessions": len(tasks),
        "writers": writers,
        "readers": readers,
        "asof_sweeps": sweeps,
        "committed": sum(o.committed for o in outcomes[:writers]),
        "real_seconds": elapsed,
        "checkdb_ok": report.ok,
        "pool_leaked_leases": pool.active_leases(),
        "pool_bytes": pool.total_bytes(),
        "pool_budget_bytes": pool.budget_bytes,
        "latches": _latch_report(engine, db),
        "health": engine.health()["overall"],
    }


def run_concurrency_bench(smoke: bool = False) -> dict:
    worker_counts = [1, 4] if smoke else [1, 2, 4, 8]
    txns_total = 80 if smoke else 400
    storm_workers = 4 if smoke else 8
    storm_txns = 15 if smoke else 40

    scaling = run_scaling(worker_counts, txns_total, smoke)
    storm_env, storm = run_mixed_storm(storm_workers, storm_txns, smoke)

    base = scaling[0]["committed_per_s"] or 1.0
    payload = {
        "smoke": smoke,
        "scale": {
            "warehouses": SCALE.warehouses,
            "districts": SCALE.districts_per_warehouse,
            "customers": SCALE.customers_per_district,
            "items": SCALE.items,
        },
        "txns_total": txns_total,
        "scaling": scaling,
        "speedup_vs_single": [
            round(row["committed_per_s"] / base, 3) for row in scaling
        ],
        "mixed_storm": storm,
    }
    return attach_metrics(payload, storm_env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale / short run (the CI tier-2 configuration)",
    )
    args = parser.parse_args(argv)
    result = run_concurrency_bench(smoke=args.smoke)

    table = ReportTable(
        "Concurrent sessions: throughput scaling and latch contention",
        ["workers", "committed/s", "speedup", "write-latch contention"],
    )
    for row, speedup in zip(
        result["scaling"], result["speedup_vs_single"], strict=True
    ):
        table.add(
            row["workers"],
            f"{row['committed_per_s']:.1f}",
            f"{speedup:.2f}x",
            f"{row['write_latch_contention']:.3f}",
        )
    table.show()

    storm = result["mixed_storm"]
    contended = sorted(
        (
            (stats["contentions"], name)
            for name, stats in storm["latches"].items()
        ),
        reverse=True,
    )
    print(
        f"\nmixed storm: {storm['sessions']} sessions "
        f"({storm['writers']}w/{storm['readers']}r/{storm['asof_sweeps']}asof), "
        f"{storm['committed']} committed in {storm['real_seconds']:.2f}s, "
        f"checkdb={'ok' if storm['checkdb_ok'] else 'CORRUPT'}"
    )
    print("hottest latches (contentions): " + ", ".join(
        f"{name}={count}" for count, name in contended[:3]
    ))
    path = save_results("concurrency_smoke" if args.smoke else "concurrency", result)
    print(f"results saved to {path}")

    # Integrity is the contract even at bench scale; scaling is reported,
    # not asserted (GIL).
    assert storm["checkdb_ok"], "mixed storm corrupted the database"
    assert storm["pool_leaked_leases"] == 0, "storm leaked pooled leases"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
