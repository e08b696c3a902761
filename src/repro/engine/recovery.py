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
analysis all of them run (restores and replica promotion bound it at
the split; the as-of snapshot recovery of paper section 5.2 runs it
only when the log's transaction directory names a transaction in
flight at the split, from the oldest one's BEGIN),
:func:`redo_pass` is :class:`~repro.wal.apply.RedoApplier` behind the
dirty-page-table gate, and :func:`undo_pass` is
:func:`~repro.txn.undo.rollback_losers` plus the abort records only a
writable database logs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.engine.boot import BOOT_PAGE_ID, read_boot_record
from repro.errors import RecoveryError
from repro.txn.undo import rollback_losers
from repro.wal.apply import PAGE_MOD_TYPES, RedoApplier
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    FLAG_SMO,
    HEADER_SIZE,
    RECORD_CLASSES,
    AbortRecord,
    RecordType,
    decode_record,
)

#: Types whose body names the row they touch (``key_bytes``): the one body
#: field analysis reads, and only for transactions that end up losers.
_KEYED = frozenset(rtype for rtype, cls in RECORD_CLASSES.items() if "key_bytes" in cls.__slots__)
_TXN_END = (RecordType.COMMIT, RecordType.ABORT)
#: The bodies analysis may read: the starting checkpoint, losers' rows,
#: and the LSN a CLR compensates — the first field of its body.
_RAW = _KEYED | {RecordType.CHECKPOINT_BEGIN, RecordType.CLR}
_CLR = int(RecordType.CLR)
_COMPENSATED_LSN = struct.Struct("<Q")


@dataclass
class AnalysisResult:
    """Outcome of the analysis pass."""

    #: txn_id -> last seen LSN for transactions with no commit/abort.
    losers: dict[int, int] = field(default_factory=dict)
    #: page_id -> first modifying LSN since the scan start.
    dirty_pages: dict[int, int] = field(default_factory=dict)
    #: Highest transaction id observed (to re-seed the id generator).
    max_txn_id: int = 0
    #: txn_id -> list of (object_id, key_bytes) of the non-SMO row records
    #: in the window an in-flight txn has not compensated (used by as-of
    #: snapshot recovery to re-acquire locks). A txn whose keyed rows in
    #: the window were all compensated has an empty list.
    loser_locks: dict[int, list] = field(default_factory=dict)
    #: LSN the scan actually stopped at.
    end_lsn: int = NULL_LSN


def analyze_log(log, start_lsn: int, to_lsn: int | None = None) -> AnalysisResult:
    """Scan ``[start_lsn, to_lsn)`` rebuilding transaction and page state.

    The window is seeded by the checkpoint at ``start_lsn``, if one is
    there: its active table names the transactions open before it.

    Header-driven: transaction and page state come from header fields, so
    no record body is decoded on the way — except the starting checkpoint's
    active-transaction table, and the lock keys of losers. A keyed row
    record of a transaction still open is kept as raw bytes and dropped
    when that transaction ends; what is left at the end of the window
    belongs to losers and is decoded then, in log order. A CLR of a
    transaction with kept rows marks the row it compensates, its LSN read
    in place.
    """
    result = AnalysisResult()
    losers, dirty_pages = result.losers, result.dirty_pages
    #: txn_id -> [(lsn, object_id, txn_id, raw record)], keyed non-SMO rows.
    open_rows: dict[int, list] = {}
    compensated: set[int] = set()
    for header, raw in log.scan_headers(start_lsn, to_lsn, raw=_RAW, stop_on_torn_tail=True):
        lsn, rtype, txn_id = header.lsn, header.record_type, header.txn_id
        result.end_lsn = lsn
        if rtype == RecordType.CHECKPOINT_BEGIN and lsn == start_lsn:
            for active_id, last_lsn in decode_record(raw, 0, lsn)[0].active_txns:
                losers[active_id] = last_lsn
                result.max_txn_id = max(result.max_txn_id, active_id)
            continue
        if txn_id > result.max_txn_id:
            result.max_txn_id = txn_id
        if rtype == RecordType.BEGIN:
            losers[txn_id] = lsn
        elif rtype in _TXN_END:
            losers.pop(txn_id, None)
            open_rows.pop(txn_id, None)
        elif rtype in PAGE_MOD_TYPES:
            if txn_id in losers:
                losers[txn_id] = lsn
                if rtype in _KEYED:
                    if not header.flags & FLAG_SMO:
                        open_rows.setdefault(txn_id, []).append((lsn, header.object_id, txn_id, raw))
                elif rtype == _CLR and txn_id in open_rows:
                    compensated.add(_COMPENSATED_LSN.unpack_from(raw, HEADER_SIZE)[0])
            dirty_pages.setdefault(header.page_id, lsn)
    for lsn, object_id, txn_id, raw in sorted(row for rows in open_rows.values() for row in rows):
        key_bytes = decode_record(raw, 0, lsn)[0].key_bytes
        if key_bytes:
            keys = result.loser_locks.setdefault(txn_id, [])
            if lsn not in compensated:
                keys.append((object_id, key_bytes))
    return result


def analyze_in_flight(log, split: int) -> tuple[AnalysisResult, int]:
    """The analysis of a recovery to ``split`` that only rolls back: the
    result and where its window starts.

    The log's transaction directory says who was in flight at the split.
    With nobody, no log is read and the window is empty (it starts past
    the split). Otherwise it runs from the oldest loser's BEGIN to the
    split, so it holds every record of every loser; a loser begun below
    the retained log raises :class:`~repro.errors.LogTruncatedError`.
    """
    begins = log.in_flight(split)
    if not begins:
        return AnalysisResult(), split + 1
    start = min(begins.values())
    return analyze_log(log, start, split + 1), start


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

    # Narrowed to what redo applies, as on every route: every record in
    # the range is still checked, only the others are not built.
    return RedoApplier(db).apply(
        db.log.scan(redo_start, types=PAGE_MOD_TYPES, stop_on_torn_tail=True), gate=gate
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
