"""Engine-wide I/O and activity counters.

A single :class:`IoStats` instance is threaded through the storage, WAL and
snapshot layers. Figure 11 of the paper ("estimated number of undo IOs") is
read directly off these counters; the other figures are derived from the
simulated time the devices charge while the counters tick.

The dataclass is the only storage: hot paths bump its attributes, and
:class:`~repro.config.SimEnv` attaches it to the env-wide
:class:`~repro.obs.registry.MetricsRegistry` as the ``io`` sheet, which
reads the same fields for ``io.<name>`` in snapshots. :meth:`IoStats.reset`
zeroes this sheet only; ``MetricsRegistry.reset()`` (``Engine
.reset_metrics()``) is the one call that clears every sheet of the
environment — pool, version store, shipper, replica, archiver — with it.

Concurrency: individual ``+=`` bumps from different sessions are benign
under the GIL for *reporting* counters (a lost increment skews a report,
never corrupts engine state), but multi-counter **views** must not tear
mid-operation — so :meth:`counters`, :meth:`snapshot`, :meth:`delta` and
:meth:`reset` serialize on an internal leaf lock (``_lock``; nothing is
called while holding it, so it can never participate in a latch-order
cycle).
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, fields


@dataclass
class IoStats:
    """Monotone counters for everything the engine does that costs I/O.

    Counters are plain integers (bytes counters suffixed ``_bytes``).
    Use :meth:`snapshot` + :meth:`delta` to meter a region of execution::

        before = stats.snapshot()
        ... run a query ...
        spent = stats.delta(before)
        print(spent.undo_log_reads)
    """

    # Data-file traffic (primary database files).
    page_reads: int = 0
    page_writes: int = 0
    page_read_bytes: int = 0
    page_write_bytes: int = 0

    # Log traffic.
    log_flushes: int = 0
    log_write_bytes: int = 0
    log_records: int = 0
    #: Random log block reads issued by page-oriented undo (Figure 11's
    #: metric).
    undo_log_reads: int = 0
    #: Undo-path log record fetches served from the log block cache.
    undo_log_cache_hits: int = 0
    #: Nothing increments these two: they stay, reading 0, only because
    #: the frozen ``perflab/lab/metrics.py`` looks ``io.undo_header_reads``
    #: and ``io.undo_reads_coalesced`` up by name (a missing key is a
    #: ``KeyError``). Delete them with that lookup.
    undo_header_reads: int = 0
    undo_reads_coalesced: int = 0
    #: Log records physically undone by PreparePageAsOf.
    undo_records_applied: int = 0
    #: Full page images applied to skip log regions during undo.
    undo_images_applied: int = 0
    #: Log records redone by an AS OF roll-forward from an older stored
    #: page version (the forward twin of ``undo_records_applied``).
    asof_records_redone: int = 0
    #: Sequential log reads (recovery scans, log backups, roll-forward).
    log_scan_reads: int = 0
    log_scan_bytes: int = 0

    # Logging-extension record production (Figure 5's breakdown).
    preformat_records: int = 0
    preformat_bytes: int = 0
    page_image_records: int = 0
    page_image_bytes: int = 0
    clr_undo_bytes: int = 0

    # Snapshot side-file traffic.
    sparse_reads: int = 0
    sparse_writes: int = 0
    sparse_bytes: int = 0

    # Backup/restore traffic.
    backup_read_bytes: int = 0
    backup_write_bytes: int = 0
    #: Pages a restore (or a backup-seeded standby) lays down from a
    #: backup chain into its new data file.
    restore_write_bytes: int = 0

    # Archive-tier traffic (continuous log archiving + backup chains).
    archive_write_bytes: int = 0
    archive_read_bytes: int = 0
    archive_segments_written: int = 0

    # Engine activity.
    transactions_committed: int = 0
    transactions_aborted: int = 0
    #: Sharp checkpoints only: each one flushes the buffer pool.
    checkpoints_taken: int = 0
    pages_prepared_asof: int = 0
    buffer_evictions: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    deadlocks: int = 0
    lock_waits: int = 0

    def __post_init__(self) -> None:
        # Not a dataclass field: the lock must stay out of ``fields()``
        # iteration, comparisons, and serialized views.
        self._lock = threading.Lock()

    def snapshot(self) -> "IoStats":
        """A frozen copy of the current counter values."""
        with self._lock:
            return IoStats(*_read_counters(self))

    def counters(self) -> tuple[int, ...]:
        """Every counter's current value, in ``COUNTER_NAMES`` order."""
        with self._lock:
            return _read_counters(self)

    def delta(self, since: "IoStats") -> "IoStats":
        """Counter-wise difference ``self - since``."""
        with self._lock:
            now = _read_counters(self)
        return IoStats(*map(operator.sub, now, _read_counters(since)))

    def reset(self) -> None:
        """Zero every counter of this sheet in place."""
        with self._lock:
            for name in COUNTER_NAMES:
                setattr(self, name, 0)


#: The counter names in field order, read once: the slow log's auto-trace
#: reads every counter at the open and the seal of each span.
COUNTER_NAMES: tuple[str, ...] = tuple(spec.name for spec in fields(IoStats))
#: ``stats -> tuple`` of every counter in ``COUNTER_NAMES`` order, in one call.
_read_counters = operator.attrgetter(*COUNTER_NAMES)
