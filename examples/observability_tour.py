"""A tour of the observability layer: TRACE, SHOW METRICS, gauges.

Run with::

    python examples/observability_tour.py

Everything the engine does is measured on the *simulated* clock, so the
traces and metric values printed here are byte-identical on every run.
The tour:

1. **TRACE a cold AS OF query.** The span tree shows the whole pipeline:
   split resolution, pool miss, snapshot creation, and — per page — the
   version-store probe missing and the chain walk paying its undo log
   reads (the ``io[...]`` deltas on each span).
2. **TRACE the same query warm.** The snapshot pool is dropped first, so
   the pool still misses — but every page probe now *hits* the
   cross-snapshot version store and the chain-walk spans (and their
   undo-path log reads) disappear.
3. **SHOW METRICS.** The same counters, as SQL rows: hit rates, log
   gauges, histograms.
4. **Lag gauges.** A standby and an archiver report their health as
   derived gauges — no sampling loop, just distance computed from live
   LSNs at read time.
"""

from repro.config import CostModel, SimEnv
from repro.engine.engine import Engine
from repro.sim.device import SAS_10K


def main() -> None:
    # Priced devices + CPU cost model: spans show real simulated time.
    env = SimEnv(SAS_10K, SAS_10K, CostModel())
    engine = Engine(env)
    session = engine.session()
    session.execute("CREATE DATABASE shop")
    session.execute("USE shop")
    session.execute(
        """
        CREATE TABLE orders (
            id INT NOT NULL,
            total FLOAT NOT NULL,
            PRIMARY KEY (id)
        )
        """
    )
    for i in range(12):
        session.execute(f"INSERT INTO orders VALUES ({i}, {10.0 * (i + 1)})")
    session.execute("CHECKPOINT")
    t_past = env.clock.now()
    session.execute("UPDATE orders SET total = 0.0 WHERE id < 6")

    # -- 1. cold: pool miss, store misses, chain walks ------------------
    print("== cold AS OF query ==")
    result = session.execute(f"TRACE SELECT * FROM orders AS OF {t_past}")
    for (line,) in result.rows:
        print(line)

    # -- 2. warm: pool dropped, store hits, no chain walks --------------
    # Clearing the pool forces snapshot re-creation; the version store
    # survives, so page preparation is pure reuse.
    engine.snapshot_pool.clear()
    print("\n== same query, warm version store ==")
    result = session.execute(f"TRACE SELECT * FROM orders AS OF {t_past}")
    for (line,) in result.rows:
        print(line)
    walk_lines = [line for (line,) in result.rows if "chain_walk" in line]
    hits = [line for (line,) in result.rows if "hit=True" in line]
    print(
        f"\nwarm run: {len(hits)} store hits, "
        f"{len(walk_lines)} chain walks, zero undo log reads"
    )

    # -- 3. the counters behind the spans, as SQL ------------------------
    print("\n== SHOW METRICS LIKE 'version_store.*' ==")
    for name, value in session.execute(
        "SHOW METRICS LIKE 'version_store.*'"
    ).rows:
        print(f"{name} = {value}")

    # -- 4. derived lag/health gauges ------------------------------------
    engine.add_replica("shop", "standby")
    session.execute("INSERT INTO orders VALUES (100, 1.0)")
    engine.database("shop").log.flush()
    print("\n== replica lag, before and after a replication tick ==")
    for _ in range(2):
        for name, value in session.execute(
            "SHOW METRICS LIKE 'replica.standby.apply_lag_*'"
        ).rows:
            print(f"{name} = {value}")
        engine.replication_tick()
    session.close()


if __name__ == "__main__":
    main()
