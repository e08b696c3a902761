"""Engine configuration: page geometry, logging extensions, cost model.

The knobs here map directly onto the paper:

* :class:`LoggingExtensions` — section 4.2's log enhancements (preformat
  records, undo info in CLRs and in structure-modification deletes) plus
  section 6.1's optional full page images every Nth page modification.
* ``undo_interval_s`` — section 4.3's retention period
  (``ALTER DATABASE ... SET UNDO_INTERVAL``).
* ``checkpoint_interval_s`` — section 6's 30-second target recovery
  interval, which bounds as-of snapshot creation time (Figures 9/10) for
  the first snapshot into a stretch of log; a repeat starts at an
  analysis seed instead (``docs/wal-format.md``).
* Device profiles — section 6's SAS-10K and SLC-SSD media.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.device import ZERO_COST, DeviceProfile, SimDevice
from repro.sim.iostats import IoStats


@dataclass(frozen=True)
class LoggingExtensions:
    """Switches for the transaction-log extensions of paper section 4.2.

    With ``enabled=False`` the engine logs exactly what classic ARIES
    needs for crash recovery — and page-oriented undo then fails whenever
    it crosses a CLR or a structure-modification delete, which is the
    ablation the benchmarks demonstrate.
    """

    #: Master switch for the as-of logging extensions.
    enabled: bool = True
    #: Log a preformat record (prior page image) when a page is re-allocated.
    preformat_on_realloc: bool = True
    #: Compensation log records carry undo information (section 4.2 item 2).
    clr_undo_info: bool = True
    #: B-tree split/merge row moves carry undo info in deletes (item 3).
    smo_delete_undo_info: bool = True
    #: Log a full page image after every Nth modification of a page
    #: (section 6.1); 0 disables periodic images.
    page_image_interval: int = 0

    def effective(self) -> "LoggingExtensions":
        """The extension set with the master switch folded in."""
        if self.enabled:
            return self
        return LoggingExtensions(
            enabled=False,
            preformat_on_realloc=False,
            clr_undo_info=False,
            smo_delete_undo_info=False,
            page_image_interval=0,
        )


@dataclass(frozen=True)
class CostModel:
    """CPU-side simulated costs, in seconds.

    The paper observes that throughput tracks the *number* of log records
    (log-manager synchronization per record), not their size — so the
    dominant CPU term here is ``log_record_cpu_s`` charged once per record
    appended, which is what makes Figure 6 come out flat-ish while
    Figure 5's space grows.
    """

    log_record_cpu_s: float = 4e-6
    dml_cpu_s: float = 2.0e-5
    query_row_cpu_s: float = 1.5e-6
    txn_overhead_cpu_s: float = 4e-5
    undo_record_cpu_s: float = 3e-6
    redo_record_cpu_s: float = 3e-6

    @staticmethod
    def free() -> "CostModel":
        """A zero-cost model for logic-only unit tests."""
        return CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class SimEnv:
    """The simulated machine: one clock, shared devices, one stats sheet.

    Every database, snapshot, backup and workload in an
    :class:`~repro.engine.engine.Engine` shares a single ``SimEnv`` — the
    paper's experiments all run on one box, and the concurrent experiment
    (section 6.3) depends on the OLTP workload and the as-of queries
    competing for the same media.
    """

    def __init__(
        self,
        data_profile: DeviceProfile = ZERO_COST,
        log_profile: DeviceProfile = ZERO_COST,
        cost: CostModel | None = None,
        clock: SimClock | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.stats = IoStats()
        #: The metrics registry (see :mod:`repro.obs`): ``stats`` is
        #: attached as its ``io`` sheet, and every subsystem attaches its
        #: own beside it, so ``metrics.reset()`` clears the whole
        #: environment's counters.
        self.metrics = MetricsRegistry()
        self.metrics.sheet("io", self.stats)
        #: The span tracer (inactive — cheap no-ops — between traces).
        self.tracer = Tracer(self.clock, self.stats)
        self.data_device = SimDevice(data_profile, self.clock, self.stats)
        self.log_device = SimDevice(log_profile, self.clock, self.stats)
        self.cost = cost if cost is not None else CostModel.free()
        #: Seeded fault injector shared by every component on this machine
        #: (``None`` until :meth:`Engine.enable_chaos` arms it).
        self.chaos = None

    def charge_cpu(self, seconds: float) -> None:
        """Advance the clock for CPU work (no device involved)."""
        if seconds > 0:
            self.clock.advance(seconds)

    @staticmethod
    def for_tests() -> "SimEnv":
        """Free I/O and free CPU: deterministic logic-only environment."""
        return SimEnv(ZERO_COST, ZERO_COST, CostModel.free())


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs for the continuous-monitoring layer (:mod:`repro.obs`).

    Cadence and thresholds are all in *simulated* units: the recorder
    samples on the sim clock from the engine's pump points, so one
    config on one seeded workload yields one byte-identical monitoring
    timeline.
    """

    #: Sim-clock sampling cadence for the metrics recorder; seconds.
    sample_interval_s: float = 1.0
    #: Per-series ring capacity (samples retained).
    history_samples: int = 512
    #: Bounded capacity of the alert firing/cleared event timeline.
    events_capacity: int = 256
    #: ``repl.apply_lag`` fires when a replica's unapplied bytes exceed this.
    apply_lag_bytes: int = 1 << 20
    #: ``repl.apply_lag_s`` fires when a replica trails by this many seconds.
    apply_lag_s: float = 30.0
    #: Debounce: apply-lag breaches must hold this long before firing.
    apply_lag_for_s: float = 0.0
    #: ``archive.cursor_lag`` fires beyond this archiver backlog.
    archive_lag_bytes: int = 4 << 20
    #: ``retention.pin_pressure`` fires when a pin holds back this much log.
    pin_lag_bytes: int = 8 << 20
    #: ``pool.occupancy`` fires above this fraction of the pool budget.
    pool_occupancy: float = 0.95
    #: ``version_store.hit_rate_floor`` fires below this hit rate ...
    version_store_hit_rate_floor: float = 0.10
    #: ... but only after this many lookups (avoids judging a cold cache).
    version_store_min_lookups: int = 100
    #: Statements slower than this (simulated) land in the slow-query
    #: log; 0 disables capture.
    slow_query_sim_s: float = 1.0
    #: Bounded capacity of the slow-query ring.
    slow_query_capacity: int = 32
    #: ``repl.ship_errors`` fires at this many consecutive failed ship
    #: attempts to one subscriber.
    ship_error_streak: int = 3
    #: ``repl.ship_stall`` (absence) fires when a subscription's
    #: ``progress_t`` series has been stale for this long; seconds.
    ship_stall_s: float = 5.0

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if self.history_samples < 2:
            raise ValueError("history_samples must be at least 2")
        if self.events_capacity < 1:
            raise ValueError("events_capacity must be at least 1")
        if not 0.0 <= self.version_store_hit_rate_floor <= 1.0:
            raise ValueError("version_store_hit_rate_floor must be in [0, 1]")
        if not 0.0 < self.pool_occupancy <= 1.0:
            raise ValueError("pool_occupancy must be in (0, 1]")
        if self.slow_query_sim_s < 0:
            raise ValueError("slow_query_sim_s must be >= 0")
        if self.slow_query_capacity < 1:
            raise ValueError("slow_query_capacity must be at least 1")
        if self.ship_error_streak < 1:
            raise ValueError("ship_error_streak must be at least 1")
        if self.ship_stall_s <= 0:
            raise ValueError("ship_stall_s must be positive")


@dataclass(frozen=True)
class DatabaseConfig:
    """Per-database configuration.

    The defaults give a correct, fast engine for tests; benchmarks override
    devices, retention and extension settings per experiment.
    ``checkpoint_interval_s`` is the one checkpoint cadence: the workload
    driver's :class:`~repro.engine.checkpoint.Checkpointer` reads it.
    """

    page_size: int = 8192
    buffer_pool_pages: int = 1024
    #: Log reader cache geometry (models the paper's "log cache" whose
    #: misses stall as-of queries).
    log_block_size: int = 65536
    log_cache_blocks: int = 32
    #: Retention period for the transaction log (section 4.3); seconds.
    undo_interval_s: float = 24 * 3600.0
    #: Target recovery interval driving periodic checkpoints; seconds.
    checkpoint_interval_s: float = 30.0
    extensions: LoggingExtensions = field(default_factory=LoggingExtensions)

    def with_extensions(self, **changes) -> "DatabaseConfig":
        """A copy of this config with logging-extension fields replaced."""
        return replace(self, extensions=replace(self.extensions, **changes))

    def validate(self) -> None:
        """Raise ``ValueError`` on nonsensical settings."""
        if self.page_size < 512 or self.page_size % 256:
            raise ValueError(f"page_size {self.page_size} must be a multiple of 256 >= 512")
        if self.buffer_pool_pages < 8:
            raise ValueError("buffer_pool_pages must be at least 8")
        if self.undo_interval_s <= 0:
            raise ValueError("undo_interval_s must be positive")
        if self.extensions.page_image_interval < 0:
            raise ValueError("page_image_interval must be >= 0")
