"""Metric names, units and bounds — and how counters turn into them.

``BENCHMARK.json`` lists the same names; ``tests/test_perflab.py`` keeps
the two in step. End-to-end metrics carry the bound by which they may
worsen before a change counts as a regression; per-layer metrics have
none (they explain, they do not gate).
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Across seeds: what ``BENCHMARK.json`` carries and the driver, which
    #: gives every run its own seed, holds a change to.
    bound: float | None = None
    #: At one seed, where the exact metrics repeat to the last digit:
    #: what ``--compare`` holds two runs of the same seed and scale to.
    same_seed: float | None = None


#: What a user of the engine sees. ``failed_share`` is printed beside
#: these but is not listed: the contract carries it as attempted/failed
#: and forbids a metric that is 0 on every run. The same-seed bounds are
#: the issue's. The cross-seed bounds come from two sets of ten runs at
#: ten seeds on the 2-core sandbox, and are about three times the
#: interquartile spread seen there, the host metrics at the contract's
#: ceiling of a quarter (the spreads are in the README).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, 0.15),
    Metric("ops_per_s", "1/s", "higher", 0.25, 0.10),
    Metric("op_p50_ms", "ms", "lower", 0.25, 0.10),
    Metric("op_p95_ms", "ms", "lower", 0.25, 0.15),
    Metric("sim_s_per_op", "sim_s", "lower", 0.08, 0.01),
    Metric("log_bytes_per_op", "bytes", "lower", 0.08, 0.01),
    Metric("peak_rss_mb", "MiB", "lower", 0.12, 0.10),
)

#: Host-clock metrics: a move in one of these past its bound, but not
#: past twice its bound, is ``unresolved`` to ``--compare`` when the run
#: stamped itself ``noisy``. The others repeat exactly (or, for memory,
#: nearly) for one seed.
HOST_CLOCK = frozenset({"setup_s", "ops_per_s", "op_p50_ms", "op_p95_ms"})

#: Layers are ``src/repro`` modules. The traced pass folds every
#: profiled function into one of these by its file (longest prefix of
#: the path under ``repro/`` wins); ``harness`` is perflab's own frames.
LAYER_OF_MODULE = {
    "sql/": "sql",
    "engine/": "engine",
    "config": "engine",
    "errors": "engine",
    "catalog/": "catalog",
    "txn/": "txn.manager",
    "txn/locks": "txn.locks",
    "access/btree": "access.btree",
    "access/heap": "access.heap",
    "storage/rowcodec": "storage.rowcodec",
    "storage/page": "storage.page",
    "storage/checksum": "storage.page",
    "storage/buffer": "storage.buffer",
    "storage/": "storage.datafile",
    "wal/": "wal.records",
    "wal/log_manager": "wal.log_manager",
    "wal/apply": "wal.apply",
    "core/": "core.asof",
    "snapshot/": "core.asof",
    "core/split_lsn": "core.split_lsn",
    "core/page_undo": "core.page_undo",
    "core/snapshot_pool": "core.snapshot_pool",
    "core/version_store": "core.version_store",
    "backup/": "backup",
    "archive/": "archive",
    "replication/": "replication",
    "latch": "latch",
    "obs/": "obs",
    "sim/": "sim",
    "workload/": "workload",
}
HARNESS = "harness"
LAYERS = (*dict.fromkeys(LAYER_OF_MODULE.values()), HARNESS)

#: Inclusive (cumulative) time of the functions later issues will want
#: to name: metric stem -> ``module:qualname`` of the function object.
INCLUSIVE = {
    "core.split_lsn.find_split_lsn": "repro.core.split_lsn:find_split_lsn",
    "core.page_undo.prepare_page_version": "repro.core.page_undo:prepare_page_version",
    "core.snapshot_pool.acquire": "repro.core.snapshot_pool:SnapshotPool.acquire",
    "wal.log_manager.read_many": "repro.wal.log_manager:LogManager.read_many",
    "wal.log_manager.append": "repro.wal.log_manager:LogManager.append",
    "wal.apply.redo": "repro.wal.apply:RedoApplier.apply",
    "access.btree.find_slot": "repro.access.btree:BTree._find_slot",
    "engine.checkpoint": "repro.engine.checkpoint:take_checkpoint",
}

PROFILE_METRICS = (
    *(Metric(f"{layer}.self_ms_per_op", "ms", "lower") for layer in LAYERS),
    *(Metric(f"{layer}.calls_per_op", "count", "lower") for layer in LAYERS if layer != HARNESS),
    *(Metric(f"{stem}.incl_ms_per_op", "ms", "lower") for stem in INCLUSIVE),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.calls_per_op", "count", "lower"),
)

#: The latches a single-threaded op pays for, as ``bench_concurrency``
#: tracks them; ``runner.read_counters`` adds them to the counter sheet.
LATCHES = (
    "db_write", "log_manager", "buffer_pool", "lock_manager", "snapshot_pool", "version_store",
)


class Counters:
    """Two flat counter sheets around the measured phase, and its ops.
    A key a sheet does not have raises ``KeyError``: a counter renamed
    in the engine must not read as 0."""

    def __init__(self, before: dict, after: dict, ops: int) -> None:
        self.before, self.after, self.ops = before, after, ops

    def delta(self, key: str) -> float:
        return self.after[key] - self.before[key]

    def end(self, key: str) -> float:
        return self.after[key]


def _per_op(*keys: str) -> Callable[[Counters], float]:
    return lambda c: sum(c.delta(key) for key in keys) / c.ops


def _share(part: str, *rest: str) -> Callable[[Counters], float]:
    """``part / (part + rest)`` over the phase; 0.0 when nothing happened."""

    def value(c: Counters) -> float:
        total = c.delta(part) + sum(c.delta(key) for key in rest)
        return c.delta(part) / total if total else 0.0

    return value


def _total(key: str) -> Callable[[Counters], float]:
    return lambda c: c.delta(key)


def _end(key: str) -> Callable[[Counters], float]:
    return lambda c: c.end(key)


_LATCH_ACQ = tuple(f"latch.{label}.acquisitions" for label in LATCHES)
_LATCH_CONT = tuple(f"latch.{label}.contentions" for label in LATCHES)

#: Exact metrics read from public counters around the untraced phase.
#: Every database in perflab is named ``tpcc``.
COUNTER_METRICS: tuple[tuple[Metric, Callable[[Counters], float]], ...] = (
    (Metric("storage.buffer.hit_rate", "ratio", "higher"),
     _share("io.buffer_hits", "io.buffer_misses")),
    (Metric("storage.buffer.misses_per_op", "count", "lower"), _per_op("io.buffer_misses")),
    (Metric("storage.buffer.evictions_per_op", "count", "lower"),
     _per_op("io.buffer_evictions")),
    (Metric("storage.datafile.page_reads_per_op", "count", "lower"), _per_op("io.page_reads")),
    (Metric("storage.datafile.page_writes_per_op", "count", "lower"),
     _per_op("io.page_writes")),
    (Metric("wal.log_manager.records_per_op", "count", "lower"), _per_op("io.log_records")),
    (Metric("wal.log_manager.flushes_per_op", "count", "lower"), _per_op("io.log_flushes")),
    (Metric("wal.log_manager.undo_log_reads_per_op", "count", "lower"),
     _per_op("io.undo_log_reads")),
    (Metric("wal.log_manager.undo_header_reads_per_op", "count", "lower"),
     _per_op("io.undo_header_reads")),
    (Metric("wal.log_manager.undo_reads_coalesced_per_op", "count", "higher"),
     _per_op("io.undo_reads_coalesced")),
    (Metric("wal.log_manager.undo_cache_hit_rate", "ratio", "higher"),
     _share("io.undo_log_cache_hits", "io.undo_log_reads", "io.undo_reads_coalesced",
            "io.undo_header_reads")),
    (Metric("wal.log_manager.scan_bytes_per_op", "bytes", "lower"),
     _per_op("io.log_scan_bytes")),
    (Metric("core.page_undo.pages_prepared_per_op", "count", "lower"),
     _per_op("io.pages_prepared_asof")),
    (Metric("core.page_undo.undo_records_per_op", "count", "lower"),
     _per_op("io.undo_records_applied")),
    (Metric("core.page_undo.undo_images_per_op", "count", "higher"),
     _per_op("io.undo_images_applied")),
    (Metric("core.version_store.hit_rate", "ratio", "higher"),
     _share("version_store.hits", "version_store.misses")),
    (Metric("core.version_store.publishes_per_op", "count", "lower"),
     _per_op("version_store.publishes")),
    (Metric("core.version_store.evictions_per_op", "count", "lower"),
     _per_op("version_store.evictions")),
    (Metric("core.version_store.invalidations_per_op", "count", "lower"),
     _per_op("version_store.invalidations")),
    (Metric("core.version_store.bytes_end", "bytes", "lower"), _end("version_store.bytes")),
    (Metric("core.snapshot_pool.hit_rate", "ratio", "higher"),
     _share("pool.engine.hits", "pool.engine.misses")),
    (Metric("core.snapshot_pool.evictions_per_op", "count", "lower"),
     _per_op("pool.engine.evictions")),
    (Metric("core.snapshot_pool.bytes_end", "bytes", "lower"), _end("pool.engine.bytes")),
    (Metric("core.asof.sparse_bytes_per_op", "bytes", "lower"), _per_op("io.sparse_bytes")),
    (Metric("engine.checkpoints", "count", "lower"), _total("io.checkpoints_taken")),
    (Metric("txn.manager.aborted_share", "ratio", "lower"),
     _share("io.transactions_aborted", "io.transactions_committed")),
    (Metric("txn.locks.lock_waits_per_op", "count", "lower"), _per_op("io.lock_waits")),
    (Metric("txn.locks.deadlocks", "count", "lower"), _total("io.deadlocks")),
    (Metric("latch.acquisitions_per_op", "count", "lower"), _per_op(*_LATCH_ACQ)),
    (Metric("latch.contention_ratio", "ratio", "lower"),
     lambda c: sum(map(c.delta, _LATCH_CONT)) / max(1.0, sum(map(c.delta, _LATCH_ACQ)))),
    *((Metric(f"latch.{label}.acquisitions_per_op", "count", "lower"),
       _per_op(f"latch.{label}.acquisitions")) for label in LATCHES),
    (Metric("archive.read_bytes_per_op", "bytes", "lower"), _per_op("io.archive_read_bytes")),
    (Metric("wal.apply.records_applied_per_op", "count", "lower"),
     _per_op("perflab.standby_records_applied")),
    (Metric("replication.bytes_shipped_per_op", "bytes", "lower"),
     _per_op("shipper.tpcc.bytes_shipped")),
)

#: Median latency by op kind, in reference seconds; the end-to-end host
#: metrics in real seconds (demoted: the sandbox's speed swings exceed
#: any bound); and the host's own steadiness.
OP_KINDS = ("txn", "asof", "restore", "catchup")
RUNNER_METRICS = (
    *(Metric(f"workload.{kind}_p50_ms", "ms", "lower") for kind in OP_KINDS),
    Metric("host.wall_setup_s", "s", "lower"),
    Metric("host.wall_ops_per_s", "1/s", "higher"),
    Metric("host.wall_op_p50_ms", "ms", "lower"),
    Metric("host.wall_op_p95_ms", "ms", "lower"),
    Metric("host.calib_ms", "ms", "lower"),
    Metric("host.calib_drift", "ratio", "lower"),
    Metric("host.calib_residual", "ratio", "lower"),
)

PER_LAYER = (*PROFILE_METRICS, *(metric for metric, _fn in COUNTER_METRICS), *RUNNER_METRICS)

UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}


def counter_metrics(before: dict, after: dict, ops: int) -> dict[str, float]:
    sheet = Counters(before, after, max(1, ops))
    return {metric.name: fn(sheet) for metric, fn in COUNTER_METRICS}
