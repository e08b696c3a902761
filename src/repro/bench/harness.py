"""Shared experiment machinery for the section 6 reproduction.

The central piece is :func:`run_time_travel_experiment`, which powers
Figures 7, 8, 9, 10 and 11 from one workload run: load TPC-C (plus cold
filler pages so the database has a realistic size for the restore
baseline), take a full backup, run the workload for a simulated window
with 30-second checkpoints, then — for increasing distances back in time —
measure as-of snapshot creation, the as-of stock-level query, the
restore-based alternative, and the undo log I/O counts.

All timings are simulated seconds produced by the device/cost models
(:mod:`repro.sim.device` and :class:`repro.config.CostModel` document
this substitution for the paper's physical testbed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backup import restore_point_in_time, take_full_backup
from repro.config import CostModel, DatabaseConfig, SimEnv
from repro.engine.engine import Engine
from repro.sim.device import SAS_10K, SLC_SSD, DeviceProfile
from repro.workload import TpccDriver, TpccScale, add_filler_table, load_tpcc
from repro.workload.tpcc_txns import stock_level

#: Default workload scale for performance benches. Four warehouses spread
#: the update stream across pages the way the paper's 800 warehouses do —
#: a single queried district then owns a realistic share of the log.
BENCH_SCALE = TpccScale(
    warehouses=4,
    districts_per_warehouse=4,
    customers_per_district=20,
    items=150,
)

#: The ``--smoke`` scale of the benches that have one (seconds, for CI).
SMOKE_SCALE = TpccScale(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=8,
    items=40,
)

#: Cold pages inflating the database for the restore baseline
#: (the paper's 40 GB database, scaled).
FILLER_PAGES = 24000

#: Per-transaction pacing so "minutes back in time" maps to a controlled
#: number of page modifications (the paper's axis is wall-clock minutes).
THINK_TIME_S = 0.2

PROFILES: dict[str, DeviceProfile] = {"ssd": SLC_SSD, "sas": SAS_10K}


def make_perf_env(data_profile: DeviceProfile, log_profile: DeviceProfile | None = None) -> SimEnv:
    """A SimEnv with real device timing and the default CPU cost model."""
    return SimEnv(
        data_profile=data_profile,
        log_profile=log_profile or data_profile,
        cost=CostModel(),
    )


def build_tpcc(
    env: SimEnv,
    scale: TpccScale = BENCH_SCALE,
    *,
    filler_pages: int = 0,
    config: DatabaseConfig | None = None,
    name: str = "tpcc",
    seed: int = 7,
    version_store_budget: int | None = None,
):
    """(engine, db, driver) with TPC-C loaded and optionally inflated.

    ``version_store_budget=0`` disables the cross-snapshot page version
    store — the figure benches pass it to reproduce the *paper's*
    baseline undo costs; ``bench_version_store.py`` measures the store.
    """
    engine = Engine(env, version_store_budget=version_store_budget)
    if config is None:
        # Server-class log cache (the paper's testbed had 24 GB RAM):
        # 4 MB of cached log blocks for the undo path.
        config = DatabaseConfig(log_cache_blocks=64)
    db = engine.create_database(name, config)
    load_tpcc(db, scale, seed=seed)
    if filler_pages:
        add_filler_table(db, filler_pages)
    driver = TpccDriver(db, scale, seed=seed, think_time_s=THINK_TIME_S)
    return engine, db, driver


@dataclass
class TimeTravelPoint:
    """Measurements for one back-in-time distance."""

    minutes_back: float
    asof_create_s: float
    asof_query_s: float
    restore_s: float
    undo_ios: int
    undo_records: int
    pages_prepared: int
    sparse_bytes: int

    @property
    def asof_total_s(self) -> float:
        return self.asof_create_s + self.asof_query_s


@dataclass
class TimeTravelResult:
    """Full outcome of the shared Figures 7-11 experiment."""

    profile: str
    db_bytes: int
    log_bytes: int
    workload_minutes: float
    tpm: float
    points: list[TimeTravelPoint] = field(default_factory=list)
    #: Canonical ``repro.obs.metrics/v1`` snapshot taken after the sweep.
    metrics: dict = field(default_factory=dict)


def run_time_travel_experiment(
    profile_name: str,
    *,
    workload_minutes: float = 8.0,
    distances_minutes=(1.0, 2.0, 4.0, 6.0, 8.0),
    filler_pages: int = FILLER_PAGES,
    scale: TpccScale = BENCH_SCALE,
) -> TimeTravelResult:
    """Run the shared experiment on the given media profile."""
    profile = PROFILES[profile_name]
    env = make_perf_env(profile)
    # Store disabled: Figures 7-11 measure per-snapshot chain-walk
    # costs, not the cross-snapshot reuse layered on top.
    engine, db, driver = build_tpcc(
        env, scale, filler_pages=filler_pages, version_store_budget=0
    )
    backup = take_full_backup(db)

    start_wall = env.clock.now()
    run_result = driver.run_for(workload_minutes * 60.0)
    end_wall = env.clock.now()

    outcome = TimeTravelResult(
        profile=profile_name,
        db_bytes=db.file_manager.page_count * db.config.page_size,
        log_bytes=db.log.total_bytes(),
        workload_minutes=(end_wall - start_wall) / 60.0,
        tpm=run_result.tpm,
    )
    per_minute = sorted(set(distances_minutes))

    for distance in per_minute:
        # Keep the primary busy between measurements so each snapshot
        # creation finds a realistically dirty buffer pool and a fresh log
        # tail — the paper's system never sits quiesced.
        driver.run_for(15.0)
        now = env.clock.now()
        target_wall = now - distance * 60.0
        if target_wall <= start_wall:
            continue
        snap_name = f"asof_{profile_name}_{distance}"
        before = env.stats.snapshot()
        t0 = env.clock.now()
        snap = engine.create_asof_snapshot(db.name, snap_name, target_wall)
        create_s = env.clock.now() - t0
        t1 = env.clock.now()
        stock_level(snap, w_id=1, d_id=1, threshold=60)
        query_s = env.clock.now() - t1
        spent = env.stats.delta(before)
        sparse_bytes = snap.side_file_bytes()
        engine.drop_snapshot(snap_name)

        t2 = env.clock.now()
        restored = restore_point_in_time(
            engine, backup, db, target_wall, f"restored_{profile_name}_{distance}"
        )
        stock_level(restored, w_id=1, d_id=1, threshold=60)
        restore_s = env.clock.now() - t2
        engine.drop_database(restored.name)

        outcome.points.append(
            TimeTravelPoint(
                minutes_back=distance,
                asof_create_s=create_s,
                asof_query_s=query_s,
                restore_s=restore_s,
                undo_ios=spent.undo_log_reads,
                undo_records=spent.undo_records_applied,
                pages_prepared=spent.pages_prepared_asof,
                sparse_bytes=sparse_bytes,
            )
        )
    outcome.metrics = env.metrics.snapshot()
    return outcome


@dataclass
class LoggingSweepPoint:
    """One configuration of the Figures 5/6 logging sweep."""

    label: str
    log_bytes: int
    log_records: int
    image_bytes: int
    preformat_bytes: int
    clr_undo_bytes: int
    tpm: float
    real_tps: float
    #: Log-device utilization over the run (the paper's "sustainable
    #: sequential IO" claim holds while this stays below 1.0).
    log_utilization: float


def run_logging_sweep(
    image_intervals=(0, 16, 8, 4, 2, 1),
    *,
    transactions: int = 1200,
    scale: TpccScale = BENCH_SCALE,
) -> list[LoggingSweepPoint]:
    """The Figures 5/6 sweep: the as-of logging extensions with no page
    images, then at several full-page-image intervals N.

    The first point is the figures' baseline. A run without the one other
    extension (preformat on re-allocation) logs the same bytes, since
    this TPC-C run re-allocates no page; its cost is measured on a
    drop-and-reuse history in ``benchmarks/bench_ablation_extensions.py``.

    Each configuration runs the same transaction count on identical seeds;
    log volume is measured over the workload window only (load excluded)
    and throughput comes from the cost model with no think time, so the
    per-record log-manager cost is the differentiator — the paper's
    observation that record *count*, not size, is what throughput feels.
    """
    points: list[LoggingSweepPoint] = []
    for interval in image_intervals:
        label = "extensions, no images" if interval == 0 else f"extensions, N={interval}"
        config = DatabaseConfig().with_extensions(page_image_interval=interval)
        env = make_perf_env(SLC_SSD)
        engine = Engine(env)
        db = engine.create_database("sweep", config)
        load_tpcc(db, scale, seed=7)
        driver = TpccDriver(db, scale, seed=7)
        before_bytes = db.log.total_bytes()
        before = env.stats.snapshot()
        busy_before = env.log_device.busy_seconds
        result = driver.run_transactions(transactions)
        spent = env.stats.delta(before)
        busy = env.log_device.busy_seconds - busy_before
        utilization = busy / result.sim_seconds if result.sim_seconds else 0.0
        points.append(
            LoggingSweepPoint(
                label=label,
                log_bytes=db.log.total_bytes() - before_bytes,
                log_records=spent.log_records,
                image_bytes=spent.page_image_bytes,
                preformat_bytes=spent.preformat_bytes,
                clr_undo_bytes=spent.clr_undo_bytes,
                tpm=result.tpm,
                real_tps=result.real_tps,
                log_utilization=utilization,
            )
        )
    return points


_CACHE: dict[str, TimeTravelResult] = {}
_SWEEP_CACHE: list[LoggingSweepPoint] | None = None


def logging_sweep_results() -> list[LoggingSweepPoint]:
    """Memoized Figures 5/6 sweep (both benches read the same run)."""
    global _SWEEP_CACHE
    if _SWEEP_CACHE is None:
        _SWEEP_CACHE = run_logging_sweep()
    return _SWEEP_CACHE


def time_travel_results(profile_name: str) -> TimeTravelResult:
    """Memoized shared experiment (Figures 7-11 read the same run)."""
    if profile_name not in _CACHE:
        _CACHE[profile_name] = run_time_travel_experiment(profile_name)
    return _CACHE[profile_name]
