"""Heap tables: append-only pages chained by next-pointers.

Heaps exist to demonstrate the paper's claim (section 7.2) that the
page-oriented mechanism "works seamlessly" with non-B-tree structures: a
heap page's modifications chain exactly like any other page's, so as-of
queries unwind heaps with zero heap-specific code.

Slots in a heap are stable (never shifted): rollback of an insert
tombstones the slot with an empty payload instead of removing it, and
scans skip tombstones. The TPC-C ``history`` table is a heap.
"""

from __future__ import annotations

from repro.access.btree import BTreeServices
from repro.catalog.schema import TableSchema
from repro.errors import StorageError
from repro.storage.page import NULL_PAGE, PageType
from repro.storage.rowcodec import RowCodec
from repro.wal.records import FLAG_HEAP, FLAG_SMO, InsertRowRecord, SetLinksRecord


class Heap:
    """One heap table rooted at a fixed first page."""

    def __init__(
        self,
        *,
        object_id: int,
        first_page_id: int,
        schema: TableSchema,
        services: BTreeServices,
    ) -> None:
        self.object_id = object_id
        self.first_page_id = first_page_id
        self.schema = schema
        self.codec = RowCodec(schema)
        self.services = services
        #: Soft hint: last page known to have had space.
        self._tail_hint = first_page_id

    # ------------------------------------------------------------------

    def insert(self, txn, row: tuple) -> tuple[int, int]:
        """Append a row; returns its (page_id, slot) rid."""
        self.services.env.charge_cpu(self.services.env.cost.dml_cpu_s)
        payload = self.codec.encode(row)
        pid = self._tail_hint
        while True:
            with self.services.fetch(pid) as guard:
                page = guard.page
                if not page.is_formatted():
                    raise StorageError(
                        f"heap {self.object_id}: page {pid} unformatted"
                    )
                next_pid = page.next_page
                if page.has_room_for(len(payload)):
                    slot = page.slot_count
                    rec = InsertRowRecord(
                        slot=slot,
                        row=payload,
                        page_id=pid,
                        object_id=self.object_id,
                        flags=FLAG_HEAP,
                    )
                    self.services.modifier.apply(txn, guard, rec)
                    self._tail_hint = pid
                    return pid, slot
                if len(payload) > page.max_payload():
                    raise StorageError(
                        f"heap {self.object_id}: row of {len(payload)} bytes "
                        f"exceeds page capacity"
                    )
            if next_pid == NULL_PAGE:
                next_pid = self._grow(pid)
            pid = next_pid

    def _grow(self, tail_pid: int) -> int:
        """Append a fresh page to the chain (system transaction)."""
        new_holder = {}

        def work(txn) -> None:
            new_pid, was_ever = self.services.alloc.allocate(txn, tail_pid)
            guard = (
                self.services.fetch(new_pid)
                if was_ever
                else self.services.fetch(new_pid, create=True)
            )
            with guard:
                self.services.modifier.format_page(
                    txn,
                    guard,
                    PageType.HEAP,
                    object_id=self.object_id,
                    prev_page=tail_pid,
                    was_ever_allocated=was_ever,
                )
            with self.services.fetch(tail_pid) as tail_guard:
                tail = tail_guard.page
                links = SetLinksRecord(
                    old_prev=tail.prev_page,
                    old_next=tail.next_page,
                    new_prev=tail.prev_page,
                    new_next=new_pid,
                    page_id=tail_pid,
                    object_id=self.object_id,
                    flags=FLAG_SMO,
                )
                self.services.modifier.apply(txn, tail_guard, links)
            new_holder["pid"] = new_pid

        runner = self.services.system_txn
        if runner is None:
            work(None)
        else:
            runner(work)
        return new_holder["pid"]

    # ------------------------------------------------------------------

    def scan(self):
        """Yield all live rows in insertion order (tombstones skipped)."""
        env = self.services.env
        pid = self.first_page_id
        while pid != NULL_PAGE:
            rows = []
            with self.services.fetch(pid) as guard:
                page = guard.page
                next_pid = page.next_page
                for payload in page.records():
                    if payload:
                        rows.append(self.codec.decode(payload))
            for row in rows:
                env.charge_cpu(env.cost.query_row_cpu_s)
                yield row
            pid = next_pid

    def count(self) -> int:
        return sum(1 for _row in self.scan())
