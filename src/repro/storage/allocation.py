"""Allocation maps: logged page allocation with ever-allocated tracking.

Allocation state lives in ordinary pages (bitmap bodies) whose updates are
logged like any other page modification — the paper relies on this so that
as-of snapshots unwind allocation metadata with the same physical undo
mechanism as data (section 3).

Geometry: map pages sit at fixed ids — page 1, then every
``pages_per_map + 1`` pages — and each covers the pages immediately after
it. Page 0 is the boot page, outside any map. Each covered page has two
bits: *allocated* and *ever-allocated*; the latter is the section 4.2
metadata that tells re-allocation (preformat required) apart from first
allocation (nothing worth preserving).
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.storage.buffer import BufferPool
from repro.storage.page import PageType, alloc_bitmap_geometry, ever_bit_offset
from repro.wal.apply import PageModifier
from repro.wal.records import AllocPageRecord, DeallocPageRecord

#: Page id of the boot page (never allocatable).
BOOT_PAGE_ID = 0
#: Page id of the first allocation-map page.
FIRST_MAP_PAGE_ID = 1


def map_page_for(page_id: int, pages_per_map: int) -> tuple[int, int]:
    """(map page id, local bit index) covering ``page_id``, where a map
    page covers ``pages_per_map`` pages (:func:`alloc_bitmap_geometry`)."""
    if page_id <= BOOT_PAGE_ID:
        raise AllocationError(f"page {page_id} is not allocatable")
    stride = pages_per_map + 1
    group = (page_id - FIRST_MAP_PAGE_ID) // stride
    map_pid = FIRST_MAP_PAGE_ID + group * stride
    local = page_id - map_pid - 1
    if local < 0:
        raise AllocationError(f"page {page_id} is an allocation map page")
    return map_pid, local


class AllocationManager:
    """Allocator over the map pages of one database."""

    def __init__(
        self,
        buffer: BufferPool,
        modifier: PageModifier,
        system_txn_factory,
    ) -> None:
        self.buffer = buffer
        self.modifier = modifier
        #: Callable running ``fn(txn)`` inside a committed system
        #: transaction; map-page formatting must survive user rollbacks.
        self._system_txn = system_txn_factory
        self.pages_per_map = alloc_bitmap_geometry(buffer.file_manager.page_size)
        self._ever_offset = ever_bit_offset(buffer.file_manager.page_size)
        #: Per-map search hints (soft state, safe to reset at any time).
        self._hints: dict[int, int] = {}

    def clear_hints(self) -> None:
        """Drop the soft allocation-search hints (crash simulation)."""
        self._hints.clear()

    # ------------------------------------------------------------------
    # Map page lifecycle
    # ------------------------------------------------------------------

    def _ensure_map(self, map_pid: int) -> None:
        """Format a map page on first use (inside a system transaction)."""
        with self.buffer.fetch(map_pid) as guard:
            if guard.page.is_formatted():
                return

        def _format(txn) -> None:
            with self.buffer.fetch(map_pid) as inner:
                self.modifier.format_page(
                    txn,
                    inner,
                    PageType.ALLOC_MAP,
                    was_ever_allocated=False,
                )

        self._system_txn(_format)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, txn, hint_page: int | None = None) -> tuple[int, bool]:
        """Allocate a free page under ``txn``.

        Returns ``(page_id, was_ever_allocated)`` — the caller must log a
        preformat record before formatting when the second element is True
        (done by :meth:`PageModifier.format_page`).
        """
        stride = self.pages_per_map + 1
        group = 0
        if hint_page is not None and hint_page > BOOT_PAGE_ID:
            group = (hint_page - FIRST_MAP_PAGE_ID) // stride
        while True:
            map_pid = FIRST_MAP_PAGE_ID + group * stride
            self._ensure_map(map_pid)
            local = self._find_free_local(map_pid)
            if local is not None:
                return self._claim(txn, map_pid, local)
            group += 1

    def _find_free_local(self, map_pid: int) -> int | None:
        start = self._hints.get(map_pid, 0)
        with self.buffer.fetch(map_pid) as guard:
            page = guard.page
            for local in range(start, self.pages_per_map):
                if not page.get_body_bit(local):
                    return local
            # The hint may have skipped freed bits; rescan once from zero.
            if start > 0:
                for local in range(0, start):
                    if not page.get_body_bit(local):
                        return local
        return None

    def _claim(self, txn, map_pid: int, local: int) -> tuple[int, bool]:
        target = map_pid + 1 + local
        with self.buffer.fetch(map_pid) as guard:
            page = guard.page
            if page.get_body_bit(local):
                raise AllocationError(f"page {target} already allocated")
            was_ever = page.get_body_bit(self._ever_offset + local)
            rec = AllocPageRecord(
                target_page=target,
                was_ever_allocated=was_ever,
                page_id=map_pid,
            )
            self.modifier.apply(txn, guard, rec)
        self._hints[map_pid] = local + 1
        return target, was_ever

    def deallocate(self, txn, page_id: int) -> None:
        """Free a page; its content stays on disk for preformat to find."""
        map_pid, local = map_page_for(page_id, self.pages_per_map)
        with self.buffer.fetch(map_pid) as guard:
            if not guard.page.get_body_bit(local):
                raise AllocationError(f"page {page_id} is not allocated")
            rec = DeallocPageRecord(target_page=page_id, page_id=map_pid)
            self.modifier.apply(txn, guard, rec)
        hint = self._hints.get(map_pid)
        if hint is None or local < hint:
            self._hints[map_pid] = local

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_allocated(self, page_id: int) -> bool:
        map_pid, local = map_page_for(page_id, self.pages_per_map)
        with self.buffer.fetch(map_pid) as guard:
            if not guard.page.is_formatted():
                return False
            return guard.page.get_body_bit(local)

    def was_ever_allocated(self, page_id: int) -> bool:
        map_pid, local = map_page_for(page_id, self.pages_per_map)
        with self.buffer.fetch(map_pid) as guard:
            if not guard.page.is_formatted():
                return False
            return guard.page.get_body_bit(self._ever_offset + local)

    def allocated_page_ids(self) -> list[int]:
        """Every allocated page id, plus boot and formatted map pages.

        This is the page set a full backup copies.
        """
        pages = [BOOT_PAGE_ID]
        stride = self.pages_per_map + 1
        group = 0
        while True:
            map_pid = FIRST_MAP_PAGE_ID + group * stride
            with self.buffer.fetch(map_pid) as guard:
                page = guard.page
                if not page.is_formatted():
                    break
                pages.append(map_pid)
                for local in range(self.pages_per_map):
                    if page.get_body_bit(local):
                        pages.append(map_pid + 1 + local)
            group += 1
        return pages
