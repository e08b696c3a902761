"""Selective transaction undo — the paper's stated future work.

Section 8: "We are working on extending our scheme to undo a specific
transaction." This module implements that extension: given a *committed*
transaction's id, compensate exactly its row changes on the live database,
as a new transaction.

This is the transaction-oriented (logical) undo the paper's section 4.1
rejected as the *general* mechanism because of data dependencies — and
those dependencies are precisely what this implementation surfaces: if a
later transaction touched the same row, the undo either stops and reports
the conflict (``conflict_policy="abort"``) or overrides it
(``conflict_policy="force"``), mirroring the reconcile decision the paper
leaves to the application.

Limitations (by design): only row changes are compensated. Transactions
containing DDL (formats/allocations — e.g. CREATE/DROP TABLE) are
rejected; recover those with an as-of snapshot instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.page_undo import prepare_page_version
from repro.errors import ReproError, TransactionError
from repro.storage.page import Page
from repro.wal.lsn import NULL_LSN
from repro.wal.records import (
    AllocPageRecord,
    BeginRecord,
    ClrRecord,
    CommitRecord,
    DeallocPageRecord,
    DeleteRowRecord,
    FormatPageRecord,
    InsertRowRecord,
    UpdateBytesRecord,
)


class TransactionUndoConflict(ReproError):
    """A later transaction modified data this undo needs to touch."""


class UnsupportedTransactionUndo(ReproError):
    """The transaction contains operations selective undo cannot reverse."""


@dataclass
class TxnUndoReport:
    """Outcome of one selective undo."""

    txn_id: int
    compensating_txn_id: int = 0
    undone: int = 0
    skipped_structural: int = 0
    conflicts: list = field(default_factory=list)

    def __repr__(self) -> str:
        return (
            f"TxnUndoReport(txn={self.txn_id}, undone={self.undone}, "
            f"conflicts={len(self.conflicts)})"
        )


def _find_transaction(db, txn_id: int) -> CommitRecord:
    """The transaction's COMMIT: the log's transaction directory names its
    end record, the one record read. A transaction whose BEGIN retention
    truncated cannot be walked back: that is told from the directory, as
    AS OF tells it, before any record is read."""
    span = db.log.retained_span(txn_id)
    if span is None:
        raise TransactionError(f"transaction {txn_id} not found in the log")
    if span[1] is None:
        raise TransactionError(f"transaction {txn_id} is not committed; use rollback")
    end = db.log.read(span[1])
    if not isinstance(end, CommitRecord):
        raise TransactionError(f"transaction {txn_id} already rolled back")
    return end


def _collect_row_changes(db, txn_id: int, last_lsn: int):
    """The transaction's undoable records, newest first, from ``last_lsn``
    (its COMMIT's ``prev_txn_lsn``)."""
    records = []
    cur = last_lsn
    while cur != NULL_LSN:
        rec = db.log.read(cur)
        if isinstance(rec, BeginRecord):
            break
        if isinstance(rec, ClrRecord):
            cur = rec.undo_next_lsn
            continue
        if isinstance(rec, (FormatPageRecord, AllocPageRecord, DeallocPageRecord)):
            raise UnsupportedTransactionUndo(
                f"transaction {txn_id} contains DDL/allocation at "
                f"{rec.lsn:#x}; use an as-of snapshot instead"
            )
        if isinstance(rec, (InsertRowRecord, DeleteRowRecord, UpdateBytesRecord)):
            records.append(rec)
        cur = rec.prev_txn_lsn
    return records


def undo_transaction(db, txn_id: int, *, conflict_policy: str = "abort") -> TxnUndoReport:
    """Compensate a committed transaction's row changes on the live database.

    ``conflict_policy``:

    * ``"abort"`` — raise :class:`TransactionUndoConflict` (rolling back
      any partial compensation) when a row no longer holds what the
      target transaction left;
    * ``"force"`` — compensate anyway, the undo's values winning;
    * ``"skip"`` — leave conflicting rows alone, report them.

    An update is logged as the bytes it changed, not the whole row, so
    the undo reads the row as the transaction left it off the record's
    page, rewound to the record's LSN by ``PreparePageAsOf``, and decides
    by column: the row conflicts when a column the transaction changed no
    longer holds the value it wrote. The undo puts back only those
    columns, to the values they held before it (``"force"`` too, over a
    conflict), so a later write to another column of the row is no
    conflict and survives the undo.

    The compensation runs as a regular new transaction (fully logged, so
    it is itself undoable and visible to as-of snapshots).
    """
    if conflict_policy not in ("abort", "force", "skip"):
        raise ValueError(f"unknown conflict policy {conflict_policy!r}")
    commit = _find_transaction(db, txn_id)
    records = _collect_row_changes(db, txn_id, commit.prev_txn_lsn)

    left = _rows_as_left(db, records)

    report = TxnUndoReport(txn_id=txn_id)
    txn = db.begin()
    report.compensating_txn_id = txn.txn_id
    try:
        for rec in records:
            if rec.is_smo:
                report.skipped_structural += 1
                continue
            if rec.is_heap:
                self_undone = _undo_heap_row(db, txn, rec, conflict_policy, report)
            else:
                self_undone = _undo_tree_row(db, txn, rec, left, conflict_policy, report)
            report.undone += int(self_undone)
    except BaseException:
        db.rollback(txn)
        raise
    db.commit(txn)
    return report


def _conflict(report, policy, description) -> bool:
    """Record a conflict; returns True when the op should be skipped."""
    if policy == "abort":
        raise TransactionUndoConflict(description)
    report.conflicts.append(description)
    return policy == "skip"


def _undo_tree_row(db, txn, rec, left, policy, report) -> bool:
    tree = db.tree_for_object(rec.object_id)
    if tree is None:
        return not _conflict(
            report, policy, f"object {rec.object_id} no longer exists"
        )
    key = tree.key_codec.decode(rec.key_bytes)
    current = tree.get(key)
    handle_name = tree.schema.name

    if isinstance(rec, InsertRowRecord):
        expected = tree.codec.decode(rec.row)
        if current is None:
            _conflict(report, policy, f"{handle_name}{key!r}: row already gone")
            return False
        if current != expected and _conflict(
            report, policy, f"{handle_name}{key!r}: modified since (have {current!r})"
        ):
            return False
        tree.delete(txn, key)
        return True

    if isinstance(rec, DeleteRowRecord):
        if current is not None:
            if _conflict(
                report, policy, f"{handle_name}{key!r}: re-inserted since"
            ):
                return False
            tree.delete(txn, key)
        tree._insert_bytes(txn, rec.row, key, clr_for=None)
        return True

    # UpdateBytesRecord: it holds only the bytes it changed, so the row as
    # it left them comes off its page; the columns it changed conflict when
    # a later writer changed them again, and only they are put back.
    if current is None:
        _conflict(report, policy, f"{handle_name}{key!r}: row deleted since")
        return False
    row = left[rec.lsn]
    after, before = tree.codec.decode(row), tree.codec.decode(rec.before(row))
    changed = [i for i, (then, was) in enumerate(zip(after, before)) if then != was]
    if any(current[i] != after[i] for i in changed) and _conflict(
        report, policy, f"{handle_name}{key!r}: modified since (have {current!r})"
    ):
        return False
    restored = list(current)
    for i in changed:
        restored[i] = before[i]
    tree._update_bytes(txn, key, tree.codec.encode(tuple(restored)))
    return True


def _rows_as_left(db, records) -> dict[int, bytes]:
    """Each tree row update's row as it left it, by LSN: its page, before
    the compensation writes, rewound to its LSN by ``PreparePageAsOf``
    (section 4), wherever the row has moved since. The transaction's own
    records come from ``records``, so the log is read only for another
    writer's records on the page."""
    own = {rec.lsn: rec for rec in records}

    def fetch(lsn):
        return own.get(lsn) or db.log.undo_fetch(lsn)

    left = {}
    for rec in records:
        if isinstance(rec, UpdateBytesRecord) and not (rec.is_smo or rec.is_heap):
            with db.fetch_page(rec.page_id) as guard:
                page = Page(bytearray(guard.page.data))
            prepare_page_version(page, rec.lsn, db.log, db.env, fetch=fetch)
            left[rec.lsn] = page.record(rec.slot)
    return left


def _undo_heap_row(db, txn, rec, policy, report) -> bool:
    """Tombstone a heap insert (heap slots are stable)."""
    if not isinstance(rec, InsertRowRecord):
        return not _conflict(
            report, policy, f"heap op at {rec.lsn:#x} is not an insert"
        )
    with db.fetch_page(rec.page_id) as guard:
        page = guard.page
        if rec.slot >= page.slot_count:
            _conflict(report, policy, f"heap slot {rec.slot} vanished")
            return False
        current = page.record(rec.slot)
        if current != rec.row:
            if current == b"":
                _conflict(report, policy, f"heap row at slot {rec.slot} already tombstoned")
                return False
            if _conflict(
                report, policy, f"heap slot {rec.slot} modified since"
            ):
                return False
        comp = UpdateBytesRecord.between(
            rec.slot, current, b"", page_id=rec.page_id, object_id=rec.object_id
        )
        db.modifier.apply(txn, guard, comp)
    return True
