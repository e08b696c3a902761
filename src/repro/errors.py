"""Exception hierarchy for the repro database engine.

All engine errors derive from :class:`ReproError` so callers can catch the
whole family with a single ``except`` clause while still being able to
discriminate precise failure modes (corruption vs. retention vs. locking).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class StorageError(ReproError):
    """A problem in the page/file layer (bad page id, out-of-range I/O)."""


class ReadOnlyPageError(StorageError):
    """A mutator was called on a page over a shared, immutable image."""


class PageCorruptionError(StorageError):
    """A page failed its checksum or structural validation on read."""


class PageFullError(StorageError):
    """A record does not fit on the target page.

    Access methods catch this internally to trigger page splits; it escapes
    only when a single record is larger than a page can ever hold.
    """


class BufferPoolError(StorageError):
    """Buffer pool misuse: unpinning an unpinned page, latch violations."""


class AllocationError(StorageError):
    """Allocation-map inconsistency (double allocation / double free)."""


class WalError(ReproError):
    """A problem in the write-ahead-log layer."""


class LogTruncatedError(WalError):
    """An LSN below the log's retention horizon was requested.

    Raised by the log reader when page-oriented undo walks a ``prevPageLSN``
    chain past the truncation point, and by SplitLSN search when the
    requested wall-clock time precedes the retained log.
    """


class LogRecordDecodeError(WalError):
    """A log record failed to deserialize (torn write / corruption)."""


class MissingUndoInfoError(WalError):
    """A log record on the undo path carries no undo information, and it
    cannot be derived.

    Every record the engine writes carries its own inverse but a B-tree
    row move's delete and a CLR that restored a page image, which read
    the record they pair with or compensate: this happens when that
    record cannot be fetched, when a decoded record lacks the payload it
    should carry, or when a page chain breaks (a re-allocation logged
    without its preformat image) — the failure modes the extensions of
    section 4.2 exist to prevent.
    """


class TransactionError(ReproError):
    """Transaction misuse (operating on a finished transaction, etc.)."""


class LockError(TransactionError):
    """Lock manager failure."""


class DeadlockError(LockError):
    """A lock request would create a cycle in the wait-for graph."""


class CatalogError(ReproError):
    """Metadata problem: unknown table, duplicate name, schema mismatch."""


class DuplicateKeyError(ReproError):
    """A unique-key insert collided with an existing row."""


class KeyNotFoundError(ReproError):
    """A point lookup, update or delete referenced a missing key."""


class SnapshotError(ReproError):
    """Snapshot lifecycle problem (duplicate name, unknown snapshot)."""


class SnapshotReadOnlyError(SnapshotError):
    """A write was attempted through a (read-only) snapshot session."""


class RetentionExceededError(SnapshotError):
    """The requested as-of time lies before the retention horizon.

    Mirrors the paper's retention period (section 4.3): the transaction log
    is only retained for ``UNDO_INTERVAL``; earlier points in time are not
    reachable by page-oriented undo.
    """


class ReplicationError(ReproError):
    """Log-shipping replication failure.

    Raised when a shipped frame fails its checksum or arrives out of
    order, when a standby's resume cursor falls below the primary's
    retained log (the replica must be reseeded), or when a replica is
    asked to serve a point it cannot reach.
    """


class ReplicationFaultError(ReplicationError):
    """A typed, resumable fault on the replication stream.

    Wraps the raw stream-layer failures (truncated/torn frames, CRC
    mismatches, out-of-order arrivals) at the receive boundary so callers
    — and the shipper's retry policy — can distinguish a transient fault
    (resend from :attr:`resume_lsn` and the stream heals) from a fatal
    one (reseed required). ``resume_lsn`` is the receiver's durable
    cursor at the moment of the fault: shipping MUST resume exactly
    there, which is what makes retry safe against both skipped and
    double-applied records.
    """

    def __init__(
        self, message: str, *, resume_lsn: int, transient: bool = True
    ) -> None:
        super().__init__(message)
        self.resume_lsn = resume_lsn
        self.transient = transient


class FaultInjectedError(ReproError):
    """An error injected by the chaos layer (``repro.chaos``).

    Carries the injection point, fault kind, and whether the fault is
    transient (retry heals it) so the same retry/backoff machinery that
    handles real stream faults handles injected ones identically.
    """

    def __init__(
        self,
        message: str,
        *,
        point: str = "",
        kind: str = "",
        target: str = "",
        transient: bool = True,
    ) -> None:
        super().__init__(message)
        self.point = point
        self.kind = kind
        self.target = target
        self.transient = transient


class DatabaseUnavailableError(ReproError):
    """The database is down (crashed primary awaiting failover)."""


class BackupError(ReproError):
    """Backup/restore failure (missing log range, bad backup chain)."""


class ArchiveError(ReproError):
    """Archive-tier failure.

    Raised when archived log segments would leave a gap (the archiver's
    cursor and the store's coverage disagree), when a restore target is
    not covered by any archived backup chain + log range, or when an
    archive operation is attempted on a database with no archive enabled.
    """


class RecoveryError(ReproError):
    """ARIES recovery could not complete (missing log, bad checkpoint)."""


class SqlError(ReproError):
    """SQL front-end failure."""


class SqlSyntaxError(SqlError):
    """The SQL text failed to tokenize or parse."""


class SqlExecutionError(SqlError):
    """A parsed statement failed during execution (unknown column, etc.)."""
