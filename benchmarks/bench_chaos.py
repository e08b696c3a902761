"""Chaos bench: seeded TPC-C under injected faults, ending in failover.

Runs the TPC-C workload with the replication pump active while a seeded
:class:`~repro.chaos.injector.FaultInjector` perturbs every boundary —
transient send failures, corrupted stream frames, stalled device writes —
then halts the primary mid-flight and lets the auto-failover coordinator
promote a survivor. The run's contract, enforced even in smoke mode:

* the promoted database passes ``checkdb`` clean;
* **zero** committed writes are lost across the crash (committed ⇒
  durable ⇒ drained to the survivors before the primary dies);
* a failover actually happened, and read offload follows the survivor;
* the whole run — fault schedule, alert timeline, failover decision —
  is byte-identical across two same-seed executions.

Standalone script (CI runs it with ``--smoke``):
``python benchmarks/bench_chaos.py [--smoke]``. Raw numbers land in
``bench_results/chaos.json`` (``chaos_smoke.json`` under ``--smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import ReportTable, attach_metrics, save_results  # noqa: E402
from repro.bench.harness import BENCH_SCALE, build_tpcc, make_perf_env  # noqa: E402
from repro.chaos import FaultRule  # noqa: E402
from repro.sim.device import SLC_SSD  # noqa: E402
from repro.tools.checkdb import check_database  # noqa: E402
from repro.workload import TpccScale  # noqa: E402

SMOKE_SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=8,
    items=40,
)

#: Tables whose row counts prove no committed write was lost.
AUDIT_TABLES = ("orders", "order_line", "history", "new_order")


def _row_counts(db, tables=AUDIT_TABLES) -> dict[str, int]:
    return {t: sum(1 for _ in db.scan(t)) for t in tables}


def run_chaos_scenario(smoke: bool, seed: int) -> tuple[dict, str]:
    """One full chaos run; returns (payload, deterministic timeline)."""
    scale = SMOKE_SCALE if smoke else BENCH_SCALE
    rounds = 4 if smoke else 10
    txns_per_round = 15 if smoke else 50

    env = make_perf_env(SLC_SSD)
    engine, db, driver = build_tpcc(env, scale, seed=seed)
    engine.add_replica(db.name, "sa")
    sb = engine.add_replica(db.name, "sb")
    engine.enable_read_offload()
    engine.enable_auto_failover(confirm_s=2.0)
    chaos = engine.enable_chaos(
        seed=seed,
        rules=[
            FaultRule(
                point="repl.ship.send", kind="transient",
                target="s?", probability=0.05,
            ),
            FaultRule(
                point="repl.stream.frame", kind="corrupt",
                target="sa", probability=0.02,
            ),
            FaultRule(
                point="device.write", kind="stall",
                probability=0.01, latency_s=0.002,
            ),
        ],
    )
    driver.pump = engine.replication_tick

    committed = 0
    sim_seconds = 0.0
    for _ in range(rounds):
        run = driver.run_transactions(txns_per_round)
        committed += run.committed
        sim_seconds += run.sim_seconds

    # Quiesce: every committed transaction already flushed its log, so
    # this is the durable ground truth the crash must not lose.
    engine.replication_tick()
    pre_crash = _row_counts(db)
    send_errors = engine.shipper_for(db.name).stats.send_errors
    retries = engine.shipper_for(db.name).stats.retries

    chaos.schedule_crash(db.name, env.clock.now() + 0.25)
    for _ in range(24):  # detection -> confirmation -> failover -> catch-up
        env.clock.advance(0.5)
        engine.replication_tick()

    promoted_name = engine.ha.completed.get(db.name, "")
    promoted = engine.database(promoted_name) if promoted_name else None
    post_crash = _row_counts(promoted) if promoted else {}
    rows_lost = sum(
        pre_crash[t] - post_crash.get(t, 0) for t in AUDIT_TABLES
    )
    report = check_database(promoted) if promoted else None
    survivor = sb if promoted_name == "sa" else engine.replicas.get("sa")
    routed = engine.routing_replica(promoted_name) if promoted_name else None

    timeline = json.dumps(
        {
            "faults": engine.fault_events(),
            "ha": engine.ha_events,
            "alerts": engine.alert_events(),
            "promoted": promoted_name,
        },
        sort_keys=True,
    )
    payload = {
        "smoke": smoke,
        "seed": seed,
        "committed_txns": committed,
        "tpm": committed * 60.0 / sim_seconds if sim_seconds else 0.0,
        "send_errors": send_errors,
        "retries_healed": retries,
        "fault_events": len(engine.fault_events()),
        "promoted": promoted_name,
        "checkdb_ok": bool(report and report.ok),
        "rows_pre_crash": pre_crash,
        "rows_post_failover": post_crash,
        "rows_lost": rows_lost,
        "survivor_repointed": bool(
            survivor is not None and survivor.primary is promoted
        ),
        "offload_routed": routed.name if routed is not None else None,
        "ha_events": engine.ha_events,
        "health": engine.health()["overall"],
    }
    return attach_metrics(payload, env), timeline


def run_chaos_bench(smoke: bool = False, seed: int = 11) -> dict:
    payload, timeline = run_chaos_scenario(smoke, seed)
    # The CI diff contract, in-process: an identical seed replays the
    # identical fault schedule, alert timeline, and failover decision.
    _, timeline2 = run_chaos_scenario(smoke, seed)
    payload["deterministic"] = timeline == timeline2
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small scale / short run (the CI tier-2 configuration)",
    )
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    result = run_chaos_bench(smoke=args.smoke, seed=args.seed)

    table = ReportTable(
        "Chaos: TPC-C under faults, primary crash, auto-failover",
        ["metric", "value"],
    )
    table.add("committed txns", result["committed_txns"])
    table.add("workload tpm", result["tpm"])
    table.add("injected fault events", result["fault_events"])
    table.add("send errors / healed", f"{result['send_errors']}/{result['retries_healed']}")
    table.add("promoted survivor", result["promoted"])
    table.add("rows lost across crash", result["rows_lost"])
    table.add("checkdb on survivor", "OK" if result["checkdb_ok"] else "FAILED")
    table.add("offload routed to", result["offload_routed"])
    table.add("deterministic replay", result["deterministic"])
    table.show()
    path = save_results("chaos_smoke" if args.smoke else "chaos", result)
    print(f"\nresults saved to {path}")

    assert result["promoted"], "no failover happened"
    assert result["checkdb_ok"], "promoted survivor failed checkdb"
    assert result["rows_lost"] == 0, "committed writes lost across the crash"
    assert result["survivor_repointed"], "surviving standby not re-pointed"
    assert result["deterministic"], "same seed diverged between runs"
    return 0


if __name__ == "__main__":
    sys.exit(main())
