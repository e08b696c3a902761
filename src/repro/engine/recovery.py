"""ARIES crash recovery: analysis, redo, undo.

Standard three-pass recovery over the durable log tail:

* **Analysis** scans from the last checkpoint, rebuilding the active
  transaction table (seeded from the checkpoint record) and the dirty page
  table (first-modifier LSN per page).
* **Redo** repeats history from the oldest first-modifier LSN, gated by
  each page's ``pageLSN``.
* **Undo** rolls back loser transactions with the same logical-undo
  machinery live rollback uses, logging CLRs; a crash during recovery
  resumes exactly where it left off (CLR ``undo_next`` chains).

Each pass is one of the three stages every route to "the database at a
SplitLSN" composes (``docs/recovery.md``): :func:`analyze_log` is the
analysis all of them run (restores, replica promotion and the as-of
snapshot recovery of paper section 5.2 bound it at the split),
:func:`redo_pass` is :class:`~repro.wal.apply.RedoApplier` behind the
dirty-page-table gate, and :func:`undo_pass` is
:func:`~repro.txn.undo.rollback_losers` plus the abort records only a
writable database logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.boot import BOOT_PAGE_ID, read_boot_record
from repro.errors import RecoveryError
from repro.txn.undo import rollback_losers
from repro.wal.apply import RedoApplier
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CheckpointBeginRecord,
    CommitRecord,
)


@dataclass
class AnalysisResult:
    """Outcome of the analysis pass."""

    #: txn_id -> last seen LSN for transactions with no commit/abort.
    losers: dict[int, int] = field(default_factory=dict)
    #: page_id -> first modifying LSN since the scan start.
    dirty_pages: dict[int, int] = field(default_factory=dict)
    #: Highest transaction id observed (to re-seed the id generator).
    max_txn_id: int = 0
    #: txn_id -> list of (object_id, key_bytes) touched by in-flight txns
    #: (used by as-of snapshot recovery to re-acquire locks).
    loser_locks: dict[int, list] = field(default_factory=dict)
    #: Loser txn ids seeded from the starting checkpoint's active table —
    #: their log chains may reach below the scan window (as-of snapshots
    #: walk them for lock collection and retention pinning).
    checkpoint_seeded: set = field(default_factory=set)
    #: LSN the scan actually stopped at.
    end_lsn: int = NULL_LSN


def analyze_log(log, start_lsn: int, to_lsn: int | None = None) -> AnalysisResult:
    """Scan ``[start_lsn, to_lsn)`` rebuilding transaction and page state."""
    result = AnalysisResult()
    for rec in log.scan(start_lsn, to_lsn, stop_on_torn_tail=True):
        result.end_lsn = rec.lsn
        if isinstance(rec, CheckpointBeginRecord) and rec.lsn == start_lsn:
            for txn_id, last_lsn in rec.active_txns:
                result.losers[txn_id] = last_lsn
                result.checkpoint_seeded.add(txn_id)
                result.max_txn_id = max(result.max_txn_id, txn_id)
            continue
        if rec.txn_id:
            result.max_txn_id = max(result.max_txn_id, rec.txn_id)
        if isinstance(rec, BeginRecord):
            result.losers[rec.txn_id] = rec.lsn
        elif isinstance(rec, (CommitRecord, AbortRecord)):
            result.losers.pop(rec.txn_id, None)
            result.loser_locks.pop(rec.txn_id, None)
        elif rec.IS_PAGE_MOD:
            if rec.txn_id in result.losers:
                result.losers[rec.txn_id] = rec.lsn
                key_bytes = getattr(rec, "key_bytes", b"")
                if key_bytes and not rec.is_smo:
                    result.loser_locks.setdefault(rec.txn_id, []).append(
                        (rec.object_id, key_bytes)
                    )
            result.dirty_pages.setdefault(rec.page_id, rec.lsn)
    return result


def redo_pass(db, analysis: AnalysisResult) -> int:
    """Repeat history; returns the number of records replayed.

    Delegates to the :class:`~repro.wal.apply.RedoApplier` shared with
    restores and log-shipping replication: same gating, same page-batched
    apply loop.
    """
    if not analysis.dirty_pages:
        return 0
    redo_start = min(analysis.dirty_pages.values())

    def gate(rec) -> bool:
        first_lsn = analysis.dirty_pages.get(rec.page_id)
        return first_lsn is not None and rec.lsn >= first_lsn

    return RedoApplier(db).apply(
        db.log.scan(redo_start, stop_on_torn_tail=True), gate=gate
    )


def undo_pass(db, analysis: AnalysisResult) -> int:
    """Roll back loser transactions; returns how many were undone."""

    def log_abort(loser) -> None:
        db.log.append(
            AbortRecord(txn_id=loser.txn_id, prev_txn_lsn=loser.last_lsn)
        )

    undone = rollback_losers(db, analysis.losers, log_abort)
    if undone:
        db.log.flush()
    return undone


def run_crash_recovery(db) -> AnalysisResult:
    """Full ARIES restart for ``db``; returns the analysis result."""
    # The boot page tells us where the last checkpoint was. A database
    # that never completed bootstrap is unrecoverable by construction.
    with db.fetch_page(BOOT_PAGE_ID) as guard:
        if not guard.page.is_formatted():
            raise RecoveryError(
                f"database {db.name!r}: boot page missing; nothing to recover"
            )
        boot = read_boot_record(guard.page)
    start = boot.last_checkpoint_lsn or FIRST_LSN
    analysis = analyze_log(db.log, start)
    redo_pass(db, analysis)
    undo_pass(db, analysis)
    db.txns.adopt_txn_id_floor(analysis.max_txn_id)
    db.last_checkpoint_lsn = boot.last_checkpoint_lsn
    db.checkpoint()
    return analysis
