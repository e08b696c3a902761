"""Ablation — what each section 4.2 log extension buys.

Not a paper figure, but the paper's design discussion quantified: the
preformat extension is toggled off to show what breaks and what it costs
in log bytes on a drop-and-reuse history (Figures 5/6's TPC-C run
re-allocates no page, so it never fires there), plus the section
7.1 comparison of proactive copy-on-write snapshots versus on-demand
as-of logging. Section 4.2's other two extensions are no variant: a CLR
always carries its undo information (deriving it instead saved 0.2 % of
the log bytes for 1.2 % more undo fetches), and a split's delete names
its insert, which holds the rows.
"""

from __future__ import annotations

from repro.bench import ReportTable
from repro.bench.harness import make_perf_env
from repro.config import DatabaseConfig
from repro.engine.engine import Engine
from repro.errors import MissingUndoInfoError, StorageError
from repro.sim.device import SLC_SSD
from repro.workload import TpccDriver, TpccScale, load_tpcc

SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=15,
    items=80,
)


def _fresh(config: DatabaseConfig):
    env = make_perf_env(SLC_SSD)
    engine = Engine(env)
    db = engine.create_database("abl", config)
    load_tpcc(db, SCALE, seed=3)
    driver = TpccDriver(db, SCALE, seed=3, think_time_s=0.05)
    return engine, db, driver


def _drop_and_reuse(engine, db, driver):
    """Drop a (sacrificial) table, then churn so its pages get
    re-allocated; returns the as-of instant when it still existed."""
    from repro.catalog.schema import Column, ColumnType, TableSchema

    scratch = TableSchema(
        "scratch",
        (
            Column("k", ColumnType.INT),
            Column("v", ColumnType.STR, max_len=120),
        ),
        key=("k",),
    )
    db.create_table(scratch)
    with db.transaction() as txn:
        for i in range(300):
            db.insert(txn, "scratch", (i, "payload " * 10))
    driver.run_for(30.0)
    good = db.env.clock.now()
    db.env.clock.advance(5)
    db.drop_table("scratch")
    driver.run_for(90.0)  # heavy churn re-allocates the freed pages
    return good


def run_ablation() -> dict:
    outcomes = {}

    # --- preformat on re-allocation -----------------------------------
    for label, enabled in (("preformat on", True), ("preformat off", False)):
        config = DatabaseConfig().with_extensions(preformat_on_realloc=enabled)
        engine, db, driver = _fresh(config)
        good = _drop_and_reuse(engine, db, driver)
        try:
            snap = engine.create_asof_snapshot("abl", "a", good)
            rows = sum(1 for _ in snap.scan("scratch"))
            engine.drop_snapshot("a")
            if rows == 300:
                outcomes[label] = {"result": f"recovered {rows} rows", "ok": True}
            else:
                outcomes[label] = {"result": f"only {rows}/300 rows", "ok": False}
        except (MissingUndoInfoError, StorageError) as exc:
            # Broken chain: either the walk noticed (MissingUndoInfoError)
            # or the rewound page came back unformatted and the tree
            # descent failed on it.
            outcomes[label] = {"result": f"failed: {type(exc).__name__}", "ok": False}
        outcomes[label]["preformat_bytes"] = db.env.stats.preformat_bytes

    # --- proactive COW snapshot vs on-demand as-of ----------------------
    config = DatabaseConfig()
    engine, db, driver = _fresh(config)
    driver.run_for(30.0)
    cow = engine.create_snapshot("abl", "cow")
    driver.run_for(120.0)
    cow_bytes = cow.side_file_bytes()
    good = db.env.clock.now()
    db.env.clock.advance(1)
    driver.run_for(30.0)
    asof = engine.create_asof_snapshot("abl", "ondemand", good)
    from repro.workload.tpcc_txns import stock_level

    stock_level(asof, 1, 1, 60)
    asof_bytes = asof.side_file_bytes()
    outcomes["cow vs as-of side-file"] = {
        "cow_bytes": cow_bytes,
        "asof_bytes_after_query": asof_bytes,
        "ok": True,
        "result": f"COW pushed {cow_bytes // 1024} KiB without any query; "
        f"as-of materialized {asof_bytes // 1024} KiB for one query",
    }
    return outcomes


def test_ablation_extensions(bench):
    outcomes = run_ablation()

    table = ReportTable(
        "Ablation: the section 4.2 extensions",
        ["variant", "outcome"],
    )
    for label, data in outcomes.items():
        table.add(label, data["result"])
    bench.report(
        "ablation_extensions",
        {k: {kk: vv for kk, vv in v.items() if kk != "ok"} for k, v in outcomes.items()},
        table,
    )

    # Preformat is what makes dropped-table recovery survive page reuse.
    assert outcomes["preformat on"]["ok"]
    assert not outcomes["preformat off"]["ok"]
    assert outcomes["preformat on"]["preformat_bytes"] > 0

    # The proactive COW snapshot pays for pages nobody asked about; the
    # on-demand as-of side file stays proportional to the query.
    cow = outcomes["cow vs as-of side-file"]
    assert cow["asof_bytes_after_query"] < cow["cow_bytes"]
