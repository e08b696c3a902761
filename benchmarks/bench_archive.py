"""Archive bench: incremental-backup size and restore-time vs chain length.

Under a running TPC-C workload with continuous log archiving active
(archive media priced as the cold SAS tier), measures:

* **incremental vs full size** — pages copied by each chained incremental
  against the full baseline (the churn/size asymmetry incrementals buy);
* **restore time vs chain length** — materializing one archived time per
  backup era, so successive restores lay down longer chains with shorter
  log replays; the planner's choice (chain members vs replay bytes) is
  recorded per point;
* **past-horizon restore** — after retention truncates the primary's log,
  the same restore still works from the archive alone (the pooled as-of
  path provably cannot reach the time anymore).

Raw numbers land in ``bench_results/archive.json``
(``archive_smoke.json`` under ``--smoke``).
"""

from __future__ import annotations

from repro.archive.restore import plan_restore
from repro.bench import ReportTable, attach_metrics
from repro.bench.harness import BENCH_SCALE, SMOKE_SCALE, build_tpcc, make_perf_env
from repro.errors import RetentionExceededError
from repro.sim.device import SAS_10K, SLC_SSD
from repro.workload import stock_level


def run_archive_bench(smoke: bool) -> dict:
    scale = SMOKE_SCALE if smoke else BENCH_SCALE
    rounds = 2 if smoke else 4
    txns_per_round = 60 if smoke else 300
    # Cold pages the workload never touches: a full backup pays for them,
    # incrementals do not (the paper's 40 GB database, scaled down).
    filler_pages = 400 if smoke else 4000

    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, scale, filler_pages=filler_pages)
    driver.pump = engine.replication_tick

    # The archive rides the cold tier; the primary stays on SSD.
    archiver = engine.enable_archiving(db.name, profile=SAS_10K)
    full = engine.backup_database(db.name)

    marks: list[float] = []
    incremental_sizes: list[int] = []
    for round_index in range(rounds):
        driver.run_transactions(txns_per_round)
        env.clock.advance(1.0)
        marks.append(env.clock.now())
        env.clock.advance(1.0)
        if round_index < rounds - 1:
            incremental = engine.backup_database(db.name)
            incremental_sizes.append(incremental.size_bytes)
    driver.run_transactions(txns_per_round // 4)
    db.log.flush()
    archiver.poll()

    # -- restore time vs chain length ----------------------------------
    points = []
    results_match = True
    for mark in marks:
        plan = plan_restore(archiver.store, db.name, mark)
        t0 = env.clock.now()
        restored = engine.restore_from_archive(db.name, mark)
        restore_s = env.clock.now() - t0
        restored_result = stock_level(restored, w_id=1, d_id=1, threshold=60)
        with engine.snapshot_pool.lease(db, mark) as snap:
            live_result = stock_level(snap, w_id=1, d_id=1, threshold=60)
        results_match = results_match and restored_result == live_result
        points.append(
            {
                "chain_len": len(plan.chain),
                "backup_bytes": plan.backup_bytes,
                "replay_bytes": plan.replay_bytes,
                "restore_s": restore_s,
                "estimated_s": plan.estimated_s,
            }
        )
        engine.drop_database(restored.name)

    # -- the unbounded-PITR claim: restore past the retention horizon --
    # Drop the pooled splits first: a pooled reuse legitimately survives a
    # closed window (its pin kept the log), which would mask the horizon.
    engine.snapshot_pool.clear()
    db.set_undo_interval(1.0)
    env.clock.advance(30.0)
    db.checkpoint()
    env.clock.advance(30.0)
    db.checkpoint()
    db.enforce_retention()
    try:
        engine.snapshot_pool.acquire(db, marks[0])
        pool_raises_past_horizon = False
    except RetentionExceededError:
        pool_raises_past_horizon = True
    t1 = env.clock.now()
    past = engine.restore_from_archive(db.name, marks[0])
    past_horizon_restore_s = env.clock.now() - t1
    past_result = stock_level(past, w_id=1, d_id=1, threshold=60)
    engine.drop_database(past.name)

    mean_incremental = (
        sum(incremental_sizes) / len(incremental_sizes)
        if incremental_sizes
        else 0
    )
    payload = {
        "smoke": smoke,
        "full_backup_bytes": full.size_bytes,
        "incremental_backup_bytes": incremental_sizes,
        "incremental_to_full_ratio": (
            mean_incremental / full.size_bytes if full.size_bytes else 0.0
        ),
        "archived_segments": archiver.stats.segments_archived,
        "archived_bytes": archiver.stats.bytes_archived,
        "restore_points": points,
        "results_match": results_match,
        "pool_raises_past_horizon": pool_raises_past_horizon,
        "past_horizon_restore_s": past_horizon_restore_s,
        "past_horizon_stock_level": past_result,
    }
    return attach_metrics(payload, env)


def test_archive(bench):
    result = run_archive_bench(smoke=bench.smoke)

    table = ReportTable(
        "Archive tier: incremental backups and chain restores",
        ["metric", "value"],
    )
    table.add("full backup (bytes)", result["full_backup_bytes"])
    table.add("mean incremental / full", f"{result['incremental_to_full_ratio']:.3f}")
    table.add("archived log (bytes)", result["archived_bytes"])
    for point in result["restore_points"]:
        table.add(
            f"restore, chain={point['chain_len']}",
            f"{point['restore_s']:.3f}s (replay {point['replay_bytes']}B)",
        )
    table.add("past-horizon restore (s)", f"{result['past_horizon_restore_s']:.3f}")
    bench.report("archive", result, table)

    # The subsystem's contract, enforced even in smoke mode.
    assert result["incremental_to_full_ratio"] < 1.0, (
        "incremental backups did not shrink below the full baseline"
    )
    assert result["results_match"], "archive restore diverged from live AS OF"
    assert result["pool_raises_past_horizon"], (
        "retention did not close — the past-horizon claim was not exercised"
    )
