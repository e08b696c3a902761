"""Section 6.3 — impact of concurrent as-of queries on throughput.

Paper numbers: running a 5-minute-back as-of query in a loop alongside the
TPC-C workload reduced throughput from 270,000 to 180,000 tpmC (a ~33%
drop), with snapshot creation averaging ~20 s and the as-of stock-level
~30 s. Expected shape here: interleaving as-of snapshot+query work into
the transaction stream costs a visible double-digit percentage of
throughput, because the snapshot checkpoints, undo log reads and sparse
writes share the devices with the OLTP stream.
"""

from __future__ import annotations

from repro.bench import ReportTable
from repro.bench.harness import BENCH_SCALE, build_tpcc, make_perf_env
from repro.sim.device import SLC_SSD
from repro.workload.tpcc_txns import stock_level

#: Transactions per measurement window.
WINDOW_TXNS = 800
#: One as-of create+query every this many transactions. The paper ran the
#: query "in a loop", i.e. essentially back to back with the workload.
ASOF_EVERY = 50
#: How far back the looping query goes (the paper used 5 minutes).
BACK_MINUTES = 2.0


def run_sec63() -> dict:
    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, BENCH_SCALE, name="tpcc63")
    driver.think_time_s = 0.01
    # Warm-up builds enough history to go BACK_MINUTES into.
    driver.run_for(BACK_MINUTES * 60.0 + 60.0)

    baseline = driver.run_transactions(WINDOW_TXNS)

    create_times = []
    query_times = []
    concurrent_committed = 0
    window_start = env.clock.now()
    real_window = 0.0
    snap_index = 0
    remaining = WINDOW_TXNS
    while remaining > 0:
        chunk = driver.run_transactions(min(ASOF_EVERY, remaining))
        concurrent_committed += chunk.committed
        real_window += chunk.real_seconds
        remaining -= min(ASOF_EVERY, remaining)
        target = env.clock.now() - BACK_MINUTES * 60.0
        snap_index += 1
        t0 = env.clock.now()
        snap = engine.create_asof_snapshot(db.name, f"loop{snap_index}", target)
        create_times.append(env.clock.now() - t0)
        t1 = env.clock.now()
        stock_level(snap, w_id=1, d_id=1, threshold=60)
        query_times.append(env.clock.now() - t1)
        engine.drop_snapshot(f"loop{snap_index}")
    concurrent_sim = env.clock.now() - window_start

    return {
        "baseline_tpm": baseline.tpm,
        "concurrent_tpm": concurrent_committed * 60.0 / concurrent_sim,
        "create_avg_s": sum(create_times) / len(create_times),
        "query_avg_s": sum(query_times) / len(query_times),
        "asof_loops": snap_index,
    }


def test_sec63_concurrent(bench):
    result = run_sec63()

    drop = 1 - result["concurrent_tpm"] / result["baseline_tpm"]
    table = ReportTable(
        "Section 6.3: concurrent as-of query impact",
        ["metric", "value", "paper"],
    )
    table.add("baseline tpm", result["baseline_tpm"], "270,000 tpmC")
    table.add("concurrent tpm", result["concurrent_tpm"], "180,000 tpmC")
    table.add("throughput drop", f"{drop * 100:.1f}%", "33%")
    table.add("snapshot create avg s", result["create_avg_s"], "~20 s")
    table.add("as-of stock-level avg s", result["query_avg_s"], "~30 s")
    bench.report("sec63_concurrent", result, table)

    # The shape: a clearly visible throughput cost, not a collapse.
    assert result["concurrent_tpm"] < result["baseline_tpm"]
    assert 0.05 < drop < 0.8
    # The loop stayed serviceable: create and query both complete fast
    # relative to the look-back distance.
    assert result["create_avg_s"] < BACK_MINUTES * 60
    assert result["query_avg_s"] < BACK_MINUTES * 60
