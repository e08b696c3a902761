"""Replication bench: catch-up lag and offloaded point-in-time throughput.

Measures, under a running TPC-C workload with the replication pump active:

* **steady-state lag** — bytes of durable primary log not yet applied on
  the standby, sampled across the run (bounded lag is the subsystem's
  core promise);
* **bulk catch-up** — a replica attached after the fact replays the
  whole backlog; reported as MB/s of log applied (the parallel redo
  apply path's headline number);
* **offloaded as-of reads** — warm pooled ``stock_level_as_of`` served
  from the standby's snapshot pool vs the primary's, plus result
  equality between the two.

Raw numbers land in ``bench_results/replication.json``
(``replication_smoke.json`` under ``--smoke``).
"""

from __future__ import annotations

from repro.bench import ReportTable, attach_metrics
from repro.bench.harness import BENCH_SCALE, SMOKE_SCALE, build_tpcc, make_perf_env
from repro.sim.device import SLC_SSD
from repro.workload import stock_level


def run_replication_bench(smoke: bool) -> dict:
    scale = SMOKE_SCALE if smoke else BENCH_SCALE
    warmup_txns = 60 if smoke else 300
    sample_rounds = 6 if smoke else 12
    txns_per_round = 20 if smoke else 60
    asof_queries = 5 if smoke else 20

    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, scale)
    driver.run_transactions(warmup_txns // 2)

    # -- steady-state lag under the workload ---------------------------
    replica = engine.add_replica(db.name, "standby")
    driver.pump = engine.replication_tick
    # The monitor rides the same pump: its recorder watches the lag
    # gauges across the run and its alert timeline lands in the payload
    # (a healthy run ships with zero firing alerts).
    engine.start_monitor()
    lag_samples: list[int] = []
    for _ in range(sample_rounds):
        driver.run_transactions(txns_per_round)
        lag_samples.append(replica.lag_bytes())
    run = driver.run_transactions(warmup_txns // 2)
    engine.replication_tick()
    db.log.flush()
    engine.replication_tick()
    final_lag = replica.lag_bytes()

    # -- offloaded warm point-in-time reads ----------------------------
    target = env.clock.now() - 30.0
    # Cold acquisitions on both sides first, then warm timings.
    offloaded_result = driver.stock_level_as_of(engine, target)
    with engine.snapshot_pool.lease(db, target) as snap:
        primary_result = stock_level(snap, w_id=1, d_id=1, threshold=60)
    results_match = offloaded_result == primary_result

    t0 = env.clock.now()
    for _ in range(asof_queries):
        driver.stock_level_as_of(engine, target)
    replica_warm_s = (env.clock.now() - t0) / asof_queries

    t1 = env.clock.now()
    for _ in range(asof_queries):
        with engine.snapshot_pool.lease(db, target) as snap:
            stock_level(snap, w_id=1, d_id=1, threshold=60)
    primary_warm_s = (env.clock.now() - t1) / asof_queries

    # -- bulk catch-up: a late replica replays the whole history -------
    t2 = env.clock.now()
    late = engine.add_replica(db.name, "late_standby")
    catchup_s = env.clock.now() - t2
    backlog_bytes = late.stats.bytes_received

    payload = {
        "smoke": smoke,
        "tpm": run.tpm,
        "max_lag_bytes": max(lag_samples),
        "mean_lag_bytes": sum(lag_samples) / len(lag_samples),
        "final_lag_bytes": final_lag,
        # High-water mark of received-but-unapplied bytes: the real
        # mid-pump backlog, even when samples land after a tick.
        "peak_apply_backlog_bytes": replica.stats.peak_apply_backlog_bytes,
        "records_applied": replica.stats.records_applied,
        "bytes_shipped": engine.shipper_for(db.name).stats.bytes_shipped,
        "offloaded_stock_level": offloaded_result,
        "primary_stock_level": primary_result,
        "results_match": results_match,
        "replica_warm_asof_s": replica_warm_s,
        "primary_warm_asof_s": primary_warm_s,
        "offloaded_asof_per_min": (
            60.0 / replica_warm_s if replica_warm_s > 0 else 0.0
        ),
        "catchup_backlog_bytes": backlog_bytes,
        "catchup_s": catchup_s,
        # Records, not bytes: a smaller log caught up faster must not
        # read as a slower catch-up.
        "catchup_records_per_s": (
            late.stats.records_applied / catchup_s if catchup_s > 0 else 0.0
        ),
        "monitor_samples": engine.monitor.recorder.samples_taken,
        "alert_events": engine.alert_events(),
        "health": engine.health()["overall"],
        "lag_history": engine.monitor_history("replica.standby.apply_lag_bytes"),
    }
    return attach_metrics(payload, env)


def test_replication(bench):
    result = run_replication_bench(smoke=bench.smoke)

    table = ReportTable(
        "Log-shipping replication: lag and offloaded AS OF reads",
        ["metric", "value"],
    )
    table.add("workload tpm", result["tpm"])
    table.add("max lag under load (bytes)", result["max_lag_bytes"])
    table.add("peak apply backlog (bytes)", result["peak_apply_backlog_bytes"])
    table.add("final lag (bytes)", result["final_lag_bytes"])
    table.add("warm AS OF on standby (s)", result["replica_warm_asof_s"])
    table.add("warm AS OF on primary (s)", result["primary_warm_asof_s"])
    table.add("bulk catch-up (records/s)", result["catchup_records_per_s"])
    table.add("monitor samples", result["monitor_samples"])
    table.add("health", result["health"])
    bench.report("replication", result, table)

    # The subsystem's contract, enforced even in smoke mode.
    assert result["results_match"], "standby AS OF result diverged from primary"
    assert result["final_lag_bytes"] == 0, "replica failed to catch up"
    assert result["max_lag_bytes"] < 1 << 20, "lag unbounded under load"
