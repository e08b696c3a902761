"""Logical undo: shared by rollback, crash recovery, and as-of snapshots.

Walks a transaction's log chain backwards and compensates each undoable
record. Three undo disciplines, chosen per record:

* **Logical (key-based)** for ordinary B-tree row operations: the row is
  re-located by key through the tree, because other transactions may have
  shifted slots and structure modifications may have moved rows across
  pages since the record was written.
* **Physical (slot-based)** for structure-modification records and
  system/boot page records: SMO system transactions are the last writers
  of their pages when they lose (mid-flight at a crash), so slots are
  valid by construction.
* **Tombstone** for heap inserts: heap slots are never shifted, the
  payload is simply replaced by an empty marker.

Every compensation is a :class:`ClrRecord` whose nested ``comp`` record
embeds its own undo information (section 4.2), keeping the page chain
physically undoable through the rollback.

A rollback never rewrites a formatted page. A page's format is undone by
the undo of the allocation that preceded it in the same transaction: the
page is freed and keeps its content, as a dropped table's pages do. First,
though, every page committed structure modifications hung below it (a
rolled-back ``CREATE TABLE``'s splits, a heap's grown chain) is freed:
each free is a CLR of the format whose ``undo_next_lsn`` is the format
itself, so a rollback cut short by a crash re-enters the format's undo
and frees only the pages still allocated. A format of a page its
transaction did not allocate is either a root split's in-place reformat,
compensated by a :class:`SetLevelRecord` back to the level below, or a
map or boot page's first format, which needs no undo.

The same machinery runs against an as-of snapshot (with an unlogged
modifier and snapshot-backed trees) to implement section 5.2's background
logical undo of transactions in flight at the SplitLSN.

:func:`rollback_losers` is the loser-rollback stage every recovery route
shares (crash recovery, replica promotion, both restores, snapshot
recovery): analysis names the losers, this rolls them back.
"""

from __future__ import annotations

from repro.access.btree import object_page_ids
from repro.errors import RecoveryError
from repro.storage.allocation import map_page_for
from repro.storage.page import alloc_bitmap_geometry
from repro.txn.transaction import RecoveredTransaction, Transaction
from repro.wal.lsn import NULL_LSN
from repro.wal.records import (
    AllocPageRecord,
    BeginRecord,
    ClrRecord,
    DeallocPageRecord,
    DeleteRowRecord,
    DeleteRowsRecord,
    FormatPageRecord,
    InsertRowRecord,
    InsertRowsRecord,
    LogRecord,
    SetLevelRecord,
    SetLinksRecord,
    UpdateBytesRecord,
)


class LogicalUndo:
    """Undo driver bound to an undo context (database or snapshot).

    The context supplies:

    * ``modifier`` — logged (primary) or unlogged (snapshot) page modifier;
    * ``log`` — the log manager (for chain walks and derivations);
    * ``fetch_page(page_id)`` — pinned page access;
    * ``tree_for_object(object_id)`` — key-addressable B-tree accessor.
    """

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------

    def rollback_chain(
        self,
        txn: Transaction,
        from_lsn: int,
        *,
        stop_before_lsn: int = NULL_LSN,
    ) -> None:
        """Undo the transaction's records from ``from_lsn`` back to BEGIN.

        ``stop_before_lsn`` lets recovery resume a partially-rolled-back
        transaction without redoing completed compensations.
        """
        log = self.ctx.log
        cur = from_lsn
        while cur != NULL_LSN and cur >= stop_before_lsn:
            rec = log.read(cur)
            if isinstance(rec, BeginRecord):
                return
            if isinstance(rec, ClrRecord):
                cur = rec.undo_next_lsn
                continue
            if not rec.UNDOABLE_IN_ROLLBACK:
                cur = rec.prev_txn_lsn
                continue
            self.undo_record(txn, rec)
            cur = rec.prev_txn_lsn

    # ------------------------------------------------------------------

    def undo_record(self, txn: Transaction, rec: LogRecord) -> None:
        """Compensate one log record."""
        self.ctx.env.charge_cpu(self.ctx.env.cost.undo_record_cpu_s)
        if isinstance(rec, (InsertRowRecord, DeleteRowRecord, UpdateBytesRecord)):
            if rec.is_smo or rec.object_id == 0:
                self._undo_physical_row(txn, rec)
            elif rec.is_heap and isinstance(rec, InsertRowRecord):
                self._undo_heap_insert(txn, rec)
            else:
                self._undo_logical_row(txn, rec)
        elif isinstance(rec, (InsertRowsRecord, DeleteRowsRecord)):
            self._undo_row_move(txn, rec)
        elif isinstance(rec, SetLinksRecord):
            comp = SetLinksRecord(
                old_prev=rec.new_prev,
                old_next=rec.new_next,
                new_prev=rec.old_prev,
                new_next=rec.old_next,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
            self._apply_clr(txn, rec, comp)
        elif isinstance(rec, FormatPageRecord):
            self._undo_format(txn, rec)
        elif isinstance(rec, AllocPageRecord):
            # The ever-allocated bit stays set even when this undoes a
            # first allocation: the page held data while the transaction
            # ran, so a re-allocation must preformat it to keep the chain
            # an as-of read from inside that window walks.
            comp = DeallocPageRecord(target_page=rec.target_page, page_id=rec.page_id)
            self._apply_clr(txn, rec, comp)
        elif isinstance(rec, DeallocPageRecord):
            comp = AllocPageRecord(
                target_page=rec.target_page,
                was_ever_allocated=True,
                page_id=rec.page_id,
            )
            self._apply_clr(txn, rec, comp)
        else:
            raise RecoveryError(
                f"no undo handler for {type(rec).__name__} at lsn {rec.lsn:#x}"
            )

    # ------------------------------------------------------------------
    # Undo flavors
    # ------------------------------------------------------------------

    def _apply_clr(self, txn, rec: LogRecord, comp: LogRecord, undo_next_lsn=None) -> None:
        clr = ClrRecord(
            compensated_lsn=rec.lsn,
            undo_next_lsn=rec.prev_txn_lsn if undo_next_lsn is None else undo_next_lsn,
            comp=comp,
            page_id=comp.page_id,
            object_id=comp.object_id,
            flags=rec.flags,
        )
        with self.ctx.fetch_page(comp.page_id) as guard:
            self.ctx.modifier.apply(txn, guard, clr)

    def _undo_format(self, txn, rec: FormatPageRecord) -> None:
        """Undo a format without rewriting the page (module docstring)."""
        prior = self.ctx.log.read(rec.prev_txn_lsn)
        if isinstance(prior, AllocPageRecord) and prior.target_page == rec.page_id:
            # Free what committed SMOs hung below the page, the page itself
            # last by its allocation's undo. Each free leads back here.
            fetch = self.ctx.fetch_page
            below = object_page_ids(fetch, rec.page_id)[1:]
            with fetch(rec.page_id) as guard:
                pages_per_map = alloc_bitmap_geometry(guard.page.page_size)
            for page_id in below:
                map_pid, local = map_page_for(page_id, pages_per_map)
                with fetch(map_pid) as guard:
                    allocated = guard.page.get_body_bit(local)
                if allocated:
                    comp = DeallocPageRecord(target_page=page_id, page_id=map_pid)
                    self._apply_clr(txn, rec, comp, undo_next_lsn=rec.lsn)
        elif rec.level:
            # A root split's in-place reformat: the root, emptied again by
            # the undo of the entries posted into it, goes one level down.
            comp = SetLevelRecord(
                old_level=rec.level,
                new_level=rec.level - 1,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
            self._apply_clr(txn, rec, comp)

    def _undo_physical_row(self, txn, rec) -> None:
        """Slot-exact inverse on the original page (SMO / boot records)."""
        if isinstance(rec, InsertRowRecord):
            comp = DeleteRowRecord(
                slot=rec.slot,
                row=rec.row,
                key_bytes=rec.key_bytes,
                pair_lsn=rec.lsn,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
        elif isinstance(rec, DeleteRowRecord):
            comp = InsertRowRecord(
                slot=rec.slot,
                row=rec.row,
                key_bytes=rec.key_bytes,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
        else:  # UpdateBytesRecord
            comp = rec.inverse(
                rec.slot,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
        self._apply_clr(txn, rec, comp)

    def _undo_row_move(self, txn, rec) -> None:
        """Slot-exact inverse of one half of a B-tree row move (always an
        SMO): the rows it inserted are deleted, the rows it deleted are
        inserted back."""
        if isinstance(rec, InsertRowsRecord):
            comp = DeleteRowsRecord(
                slot=rec.slot,
                count=len(rec.rows),
                rows=rec.rows,
                pair_lsn=rec.lsn,
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
        else:
            comp = InsertRowsRecord(
                slot=rec.slot,
                rows=rec.resolve_rows(self.ctx.log.undo_fetch),
                page_id=rec.page_id,
                object_id=rec.object_id,
                flags=rec.flags,
            )
        self._apply_clr(txn, rec, comp)

    def _undo_heap_insert(self, txn, rec: InsertRowRecord) -> None:
        """Tombstone the heap slot (heap slots are stable, never shifted)."""
        comp = UpdateBytesRecord.between(
            rec.slot,
            rec.row,
            b"",
            key_bytes=rec.key_bytes,
            page_id=rec.page_id,
            object_id=rec.object_id,
            flags=rec.flags,
        )
        self._apply_clr(txn, rec, comp)

    def _undo_logical_row(self, txn, rec) -> None:
        """Key-based undo through the object's B-tree."""
        tree = self.ctx.tree_for_object(rec.object_id)
        if tree is None:
            raise RecoveryError(
                f"cannot undo lsn {rec.lsn:#x}: unknown object {rec.object_id}"
            )
        if isinstance(rec, InsertRowRecord):
            tree.undo_insert(txn, rec)
        elif isinstance(rec, DeleteRowRecord):
            tree.undo_delete(txn, rec)
        else:
            tree.undo_update(txn, rec)


def rollback_losers(ctx, losers: dict[int, int], finished=None) -> int:
    """Roll back the transactions analysis found in flight.

    ``losers`` maps txn id to the last LSN of its chain (in ``ctx.log``).
    They are undone newest-last-record first, each through
    :meth:`LogicalUndo.rollback_chain`; ``finished(loser)`` runs after each
    one — crash recovery logs its abort record there, a snapshot forgets
    the transaction's locks. Returns how many were rolled back.
    """
    undo = LogicalUndo(ctx)
    ordered = sorted(losers.items(), key=lambda item: item[1], reverse=True)
    for txn_id, last_lsn in ordered:
        loser = RecoveredTransaction(txn_id)
        loser.last_lsn = last_lsn
        undo.rollback_chain(loser, last_lsn)
        if finished is not None:
            finished(loser)
    return len(ordered)
