"""Clustered B+-trees with fully logged structure modifications.

Design points that matter to the paper's mechanism:

* **Fixed root**: the root page id never changes (a full root is split by
  pushing its content down into two fresh children), so catalog rows never
  need updating mid-transaction and every historical version of the tree
  is reachable from the same root page.
* **A row move is logged as an insert followed by a delete** (section 4.2
  item 3), one record for each page: the rows arrive on one page and
  leave the other. Only the insert carries the rows: the delete names it
  through ``pair_lsn``, and undo derives the rows from it at the cost of
  one extra log read. Section 4.2 has the delete carry them as well; that
  logged every moved row twice to save almost no log reads.
* **Structure modifications run as system transactions**: they commit
  immediately, independent of the user transaction that triggered them,
  and if they lose at a crash they are undone physically (slot-exact) —
  valid because a mid-flight SMO is the last writer of its pages.
* **In-place root reformat logs a preformat record first**, keeping the
  root's modification chain walkable across height growth.

Read paths (``get``/``scan``) go through a pluggable page source, so the
identical code serves the primary database, restored databases, and as-of
snapshots.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from repro.catalog.schema import TableSchema
from repro.errors import DuplicateKeyError, KeyNotFoundError, StorageError
from repro.storage.page import NULL_PAGE, Page, PageType
from repro.storage.rowcodec import KeyCodec, RowCodec
from repro.wal.records import (
    FLAG_SMO,
    ClrRecord,
    DeleteRowRecord,
    DeleteRowsRecord,
    InsertRowRecord,
    InsertRowsRecord,
    SetLinksRecord,
    UpdateBytesRecord,
)

_ENTRY_CHILD = struct.Struct("<IB")

#: Retry bound for insert/split loops (a single insert can cascade at most
#: one split per level; trees here never approach this height).
_MAX_DESCENT_RETRIES = 64


class _KeyTop:
    """A key component that sorts above every value a column can hold.

    Keys order as Python tuples of their column values (shorter prefixes
    first), so ``prefix`` is a ``lo`` and ``prefix + (KEY_TOP,)`` a ``hi``
    for :meth:`BTree.scan` that together cover exactly the keys starting
    with ``prefix``.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __repr__(self) -> str:
        return "KEY_TOP"


KEY_TOP = _KeyTop()


def encode_entry(child_pid: int, key_bytes: bytes | None) -> bytes:
    """Interior entry payload: child pointer + separator key (None = -inf)."""
    if key_bytes is None:
        return _ENTRY_CHILD.pack(child_pid, 0)
    return _ENTRY_CHILD.pack(child_pid, 1) + key_bytes


def decode_entry(payload: bytes) -> tuple[int, bytes | None]:
    child, has_key = _ENTRY_CHILD.unpack_from(payload, 0)
    if not has_key:
        return child, None
    return child, payload[_ENTRY_CHILD.size :]


def object_page_ids(fetch, root_page_id: int) -> list[int]:
    """Every page of the table rooted at ``root_page_id``, root first: a
    B-tree's pages depth first through its interior entries, a heap's
    chain in order. ``fetch(page_id)`` is pinned page access; dropping a
    table and rolling back its ``CREATE`` free what this finds."""
    result = []
    stack = [root_page_id]
    while stack:
        pid = stack.pop()
        result.append(pid)
        with fetch(pid) as guard:
            page = guard.page
            if page.page_type is PageType.HEAP:
                if page.next_page != NULL_PAGE:
                    stack.append(page.next_page)
            elif page.level > 0:
                stack.extend(decode_entry(payload)[0] for payload in page.records())
    return result


@dataclass
class BTreeServices:
    """Everything a tree needs from its hosting context.

    * ``env`` — simulation environment (CPU charging, stats).
    * ``fetch`` — ``fetch(page_id) -> FrameGuard`` pinned page access.
    * ``modifier`` — logged (primary) or unlogged (snapshot) modifier.
    * ``alloc`` — page allocator (snapshots use a virtual allocator).
    * ``system_txn`` — ``system_txn(fn)`` runs ``fn(txn)`` inside an
      immediately committed system transaction (no-op wrapper on
      snapshots, where nothing is logged).
    """

    env: object
    fetch: object
    modifier: object
    alloc: object = None
    system_txn: object = None


class BTree:
    """One clustered B+-tree (table or system table)."""

    def __init__(
        self,
        *,
        object_id: int,
        root_page_id: int,
        schema: TableSchema,
        services: BTreeServices,
    ) -> None:
        self.object_id = object_id
        self.root_page_id = root_page_id
        self.schema = schema
        self.codec = RowCodec(schema)
        self.key_codec = KeyCodec.for_schema(schema)
        self.services = services

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------

    def _separators(self, page: Page) -> list:
        """``[keys, children]`` of an interior page: the decoded separator
        keys of entries ``[1, count)`` and the child page ids of every
        entry, in slot order (entry 0 is -inf whatever key it stores).

        Built from the page bytes on the first descent after a mutator
        cleared ``page.separators``, then reused. Current reads do not
        hold ``db.write_latch``, so a build may overlap a mutation: it
        publishes into an empty list it installed first, and a mutator
        finishing meanwhile replaces that list with ``None``, so an index
        decoded from bytes in flux is used by its own probe only.
        """
        index = page.separators
        if index:
            return index
        index = page.separators = []
        payloads = page.records()
        child_at, decode, head = _ENTRY_CHILD.unpack_from, self.key_codec.decode, _ENTRY_CHILD.size
        keys = [decode(payload, head) for payload in payloads[1:]]
        index += (keys, array("I", [child_at(payload)[0] for payload in payloads]))
        return index

    def _child_index(self, page: Page, key: tuple) -> int:
        """Index of the interior entry whose subtree covers ``key``."""
        return bisect_right(self._separators(page)[0], key)

    def _descend(self, key: tuple | None, *, to_level: int = 0):
        """Walk from the root toward ``to_level``.

        ``key=None`` follows the leftmost edge. Returns ``(guard, path)``:
        the page reached, *still pinned* (the caller releases it with
        ``with guard:``), and ``[(page_id, child_slot), ...]`` for the
        interior pages traversed. Every other page is unpinned before the
        walk moves on, or before an error leaves it. Each interior page
        is probed through its separator index: no key is decoded.
        """
        fetch = self.services.fetch
        pid = self.root_page_id
        path: list[tuple[int, int]] = []
        while True:
            guard = fetch(pid)
            page = guard.page
            # A page holding an index is an interior page that had entries
            # when it was built: no mutator has formatted or emptied it since.
            index = page.separators
            if index:
                if to_level and page.level <= to_level:
                    return guard, path
            elif page.level <= to_level and page.is_formatted():
                return guard, path
            with guard:
                if not index:
                    if not page.is_formatted():
                        raise StorageError(
                            f"btree {self.object_id}: page {pid} unformatted"
                        )
                    if page.slot_count == 0:
                        raise StorageError(
                            f"btree {self.object_id}: empty interior page {pid}"
                        )
                    index = self._separators(page)
                keys, children = index
                slot = 0 if key is None else bisect_right(keys, key)
            path.append((pid, slot))
            pid = children[slot]

    def _find_slot(self, page: Page, key: tuple) -> tuple[int, bool]:
        """(insertion slot, exact-match?) within a leaf page; only keys are
        decoded, straight off the page buffer."""
        return page.search(key, self.codec.decode_key)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: tuple) -> tuple | None:
        """Point lookup; returns the decoded row or None."""
        self.services.env.charge_cpu(self.services.env.cost.query_row_cpu_s)
        guard, _path = self._descend(key)
        with guard:
            slot, found = self._find_slot(guard.page, key)
            if not found:
                return None
            return self.codec.decode(guard.page.record(slot))

    def scan(self, lo: tuple | None = None, hi: tuple | None = None):
        """Yield rows with ``lo <= key <= hi`` in key order.

        Keys compare as tuples, so a key prefix bounds a range: see
        :data:`KEY_TOP`. Each leaf's bounds are found by key-only probes,
        so no row outside the range is decoded.
        """
        env = self.services.env
        decode = self.codec.decode
        guard, _path = self._descend(lo)
        start = lo  # only the first leaf can hold keys below ``lo``
        while True:
            with guard:
                page = guard.page
                pid = page.next_page
                first = 0 if start is None else self._find_slot(page, start)[0]
                stop = None
                if hi is not None:
                    slot, found = self._find_slot(page, hi)
                    stop = slot + found
                    if stop < page.slot_count:
                        pid = NULL_PAGE  # the next key is past ``hi``
                rows = [decode(payload) for payload in page.records(first, stop)]
            start = None
            for row in rows:
                env.charge_cpu(env.cost.query_row_cpu_s)
                yield row
            if pid == NULL_PAGE:
                return
            guard = self.services.fetch(pid)

    def count(self) -> int:
        """Number of rows (full scan)."""
        return sum(1 for _row in self.scan())

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def insert(self, txn, row: tuple) -> None:
        """Insert a full row; raises DuplicateKeyError on key collision."""
        row_bytes = self.codec.encode(row)
        key = self.schema.key_of(row)
        self._insert_bytes(txn, row_bytes, key, clr_for=None)

    def delete(self, txn, key: tuple) -> tuple:
        """Delete by key; returns the removed row."""
        self.services.env.charge_cpu(self.services.env.cost.dml_cpu_s)
        guard, _path = self._descend(key)
        with guard:
            page = guard.page
            slot, found = self._find_slot(page, key)
            if not found:
                raise KeyNotFoundError(
                    f"{self.schema.name}: no row with key {key!r}"
                )
            payload = page.record(slot)
            rec = DeleteRowRecord(
                slot=slot,
                row=payload,
                key_bytes=self.key_codec.encode(key),
                page_id=guard.page_id,
                object_id=self.object_id,
            )
            self.services.modifier.apply(txn, guard, rec)
            return self.codec.decode(payload)

    def update(self, txn, key: tuple, new_row: tuple) -> tuple:
        """Replace the row at ``key``; returns the prior row.

        The new row must have the same key (updates never move rows).
        """
        if self.schema.key_of(new_row) != key:
            raise StorageError(
                f"{self.schema.name}: update must preserve the key"
            )
        new_bytes = self.codec.encode(new_row)
        old_bytes = self._update_bytes(txn, key, new_bytes)
        return self.codec.decode(old_bytes)

    # -- shared write plumbing (also drives CLR-mode undo writes) -------

    def _wrap(self, rec, clr_for):
        """Plain record, or a CLR compensating ``clr_for`` performing it."""
        if clr_for is None:
            return rec
        return ClrRecord(
            compensated_lsn=clr_for.lsn,
            undo_next_lsn=clr_for.prev_txn_lsn,
            comp=rec,
            page_id=rec.page_id,
            object_id=rec.object_id,
        )

    def _insert_bytes(self, txn, row_bytes: bytes, key: tuple, clr_for) -> None:
        self.services.env.charge_cpu(self.services.env.cost.dml_cpu_s)
        key_bytes = self.key_codec.encode(key)
        for _attempt in range(_MAX_DESCENT_RETRIES):
            guard, path = self._descend(key)
            with guard:
                page = guard.page
                slot, found = self._find_slot(page, key)
                if found:
                    raise DuplicateKeyError(
                        f"{self.schema.name}: duplicate key {key!r}"
                    )
                if page.has_room_for(len(row_bytes)):
                    rec = InsertRowRecord(
                        slot=slot,
                        row=row_bytes,
                        key_bytes=key_bytes,
                        page_id=guard.page_id,
                        object_id=self.object_id,
                    )
                    self.services.modifier.apply(txn, guard, self._wrap(rec, clr_for))
                    return
                if len(row_bytes) > page.max_payload():
                    raise StorageError(
                        f"{self.schema.name}: row of {len(row_bytes)} bytes "
                        f"exceeds page capacity"
                    )
            self._split(guard.page_id, path)
        raise StorageError(f"{self.schema.name}: insert did not converge")

    def _update_bytes(self, txn, key: tuple, new) -> bytes:
        """Rewrite the row at ``key`` in place (splitting its leaf until the
        new image fits), logging the bytes that changed; returns the old
        row bytes.

        ``new`` is the new row's bytes, or a function from the old row's
        bytes to them, called once, while the leaf holding the old row is
        pinned; whatever it raises leaves the tree and the log untouched.
        """
        self.services.env.charge_cpu(self.services.env.cost.dml_cpu_s)
        key_bytes = self.key_codec.encode(key)
        for _attempt in range(_MAX_DESCENT_RETRIES):
            guard, path = self._descend(key)
            with guard:
                page = guard.page
                slot, found = self._find_slot(page, key)
                if not found:
                    raise KeyNotFoundError(
                        f"{self.schema.name}: no row with key {key!r}"
                    )
                old_bytes = page.record(slot)
                if callable(new):
                    new = new(old_bytes)  # a split moves the row byte-exact
                growth = len(new) - len(old_bytes)
                if growth <= 0 or page.total_free() >= growth:
                    rec = UpdateBytesRecord.between(
                        slot,
                        old_bytes,
                        new,
                        key_bytes=key_bytes,
                        page_id=guard.page_id,
                        object_id=self.object_id,
                    )
                    self.services.modifier.apply(txn, guard, rec)
                    return old_bytes
            self._split(guard.page_id, path)
        raise StorageError(f"{self.schema.name}: update did not converge")

    # ------------------------------------------------------------------
    # Logical undo entry points (rollback / recovery / snapshot undo)
    # ------------------------------------------------------------------

    def undo_insert(self, txn, rec: InsertRowRecord) -> None:
        """Compensate an insert: locate by key and delete."""
        key = self.key_codec.decode(rec.key_bytes)
        guard, _path = self._descend(key)
        with guard:
            slot, found = self._find_slot(guard.page, key)
            if not found:
                raise KeyNotFoundError(
                    f"{self.schema.name}: undo-insert cannot find key {key!r}"
                )
            payload = guard.page.record(slot)
            comp = DeleteRowRecord(
                slot=slot,
                row=payload,
                key_bytes=rec.key_bytes,
                page_id=guard.page_id,
                object_id=self.object_id,
            )
            self.services.modifier.apply(txn, guard, self._wrap(comp, rec))

    def undo_delete(self, txn, rec: DeleteRowRecord) -> None:
        """Compensate a delete: re-insert the logged row (may split)."""
        key = self.key_codec.decode(rec.key_bytes)
        self._insert_bytes(txn, rec.row, key, clr_for=rec)

    def undo_update(self, txn, rec: UpdateBytesRecord) -> None:
        """Compensate an update: splice its before-span back (may split).

        Strict 2PL leaves the row found by key holding ``rec``'s
        after-image, so the compensation (:meth:`UpdateBytesRecord.inverse`)
        mirrors ``rec``'s offset and spans, wherever the row now lies.
        """
        key = self.key_codec.decode(rec.key_bytes)
        growth = len(rec.old) - len(rec.new)
        for _attempt in range(_MAX_DESCENT_RETRIES):
            guard, path = self._descend(key)
            with guard:
                page = guard.page
                slot, found = self._find_slot(page, key)
                if not found:
                    raise KeyNotFoundError(
                        f"{self.schema.name}: undo-update cannot find {key!r}"
                    )
                if growth <= 0 or page.total_free() >= growth:
                    comp = rec.inverse(
                        slot,
                        page_id=guard.page_id,
                        object_id=self.object_id,
                    )
                    self.services.modifier.apply(txn, guard, self._wrap(comp, rec))
                    return
            self._split(guard.page_id, path)
        raise StorageError(f"{self.schema.name}: undo-update did not converge")

    # ------------------------------------------------------------------
    # Structure modifications
    # ------------------------------------------------------------------

    def _split(self, full_pid: int, path: list) -> None:
        """Split ``full_pid`` inside one system transaction.

        Root splits push content down into two fresh children; other
        splits move the upper half right and post a separator to the
        parent (recursively splitting parents as needed).
        """

        def work(txn) -> None:
            if full_pid == self.root_page_id:
                self._split_root(txn)
            else:
                self._split_nonroot(txn, full_pid)

        runner = self.services.system_txn
        if runner is None:
            work(None)
        else:
            runner(work)

    def _allocate_formatted(self, txn, *, level: int, prev_page: int, next_page: int, hint: int) -> int:
        """Allocate + format a fresh tree page (preformat on re-allocation)."""
        alloc = self.services.alloc
        new_pid, was_ever = alloc.allocate(txn, hint)
        guard = self.services.fetch(new_pid) if was_ever else self.services.fetch(new_pid, create=True)
        with guard:
            self.services.modifier.format_page(
                txn,
                guard,
                PageType.BTREE,
                object_id=self.object_id,
                level=level,
                prev_page=prev_page,
                next_page=next_page,
                was_ever_allocated=was_ever,
            )
        return new_pid

    def _move_rows(self, txn, src_guard, dst_guard, start_slot: int) -> None:
        """Move slots [start_slot, count) from src to dst, verbatim, logged
        as one SMO insert of the rows on dst followed by one SMO delete of
        them on src (paper section 4.2 item 3).

        Moves are byte-exact so the delete, which carries no rows, can
        derive them from its paired insert via ``pair_lsn``. For
        interior pages the first moved entry keeps its separator key: entry
        0 of an interior node is treated as -inf by the descent regardless
        of its stored key, so no re-encoding is needed.
        """
        src = src_guard.page
        modifier = self.services.modifier
        rows = tuple(src.records(start_slot))
        insert = InsertRowsRecord(
            slot=0,
            rows=rows,
            page_id=dst_guard.page.page_id,
            object_id=self.object_id,
            flags=FLAG_SMO,
        )
        delete = DeleteRowsRecord(
            slot=start_slot,
            count=len(rows),
            pair_lsn=modifier.apply(txn, dst_guard, insert),
            page_id=src.page_id,
            object_id=self.object_id,
            flags=FLAG_SMO,
        )
        modifier.apply(txn, src_guard, delete)

    def _split_nonroot(self, txn, full_pid: int) -> None:
        fetch = self.services.fetch
        with fetch(full_pid) as src_guard:
            src = src_guard.page
            count = src.slot_count
            if count < 2:
                raise StorageError(
                    f"btree {self.object_id}: cannot split page {full_pid} "
                    f"with {count} records"
                )
            mid = count // 2
            is_leaf = src.level == 0
            if is_leaf:
                sep_key = self.codec.decode_key(src.record(mid))
                sep_kb = self.key_codec.encode(sep_key)
            else:
                _child, sep_kb = decode_entry(src.record(mid))
                if sep_kb is None:
                    raise StorageError("interior split at -inf entry")
            old_next = src.next_page
            new_pid = self._allocate_formatted(
                txn,
                level=src.level,
                prev_page=full_pid if is_leaf else NULL_PAGE,
                next_page=old_next if is_leaf else NULL_PAGE,
                hint=full_pid,
            )
            with fetch(new_pid) as dst_guard:
                self._move_rows(txn, src_guard, dst_guard, mid)
            if is_leaf:
                links = SetLinksRecord(
                    old_prev=src.prev_page,
                    old_next=old_next,
                    new_prev=src.prev_page,
                    new_next=new_pid,
                    page_id=full_pid,
                    object_id=self.object_id,
                    flags=FLAG_SMO,
                )
                self.services.modifier.apply(txn, src_guard, links)
                if old_next != NULL_PAGE:
                    with fetch(old_next) as right_guard:
                        right = right_guard.page
                        links = SetLinksRecord(
                            old_prev=right.prev_page,
                            old_next=right.next_page,
                            new_prev=new_pid,
                            new_next=right.next_page,
                            page_id=old_next,
                            object_id=self.object_id,
                            flags=FLAG_SMO,
                        )
                        self.services.modifier.apply(txn, right_guard, links)
            parent_level = src.level + 1
        self._post_separator(txn, parent_level, sep_kb, new_pid)

    def _post_separator(self, txn, level: int, sep_kb: bytes, child_pid: int) -> None:
        """Insert (sep, child) into the interior node at ``level``."""
        sep_key = self.key_codec.decode(sep_kb)
        entry = encode_entry(child_pid, sep_kb)
        for _attempt in range(_MAX_DESCENT_RETRIES):
            guard, _path = self._descend(sep_key, to_level=level)
            with guard:
                page = guard.page
                if page.level != level:
                    raise StorageError(
                        f"btree {self.object_id}: descent reached level "
                        f"{page.level}, wanted {level}"
                    )
                keys, children = self._separators(page)
                slot = bisect_right(keys, sep_key) + 1
                if page.has_room_for(len(entry)):
                    rec = InsertRowRecord(
                        slot=slot,
                        row=entry,
                        page_id=guard.page_id,
                        object_id=self.object_id,
                        flags=FLAG_SMO,
                    )
                    self.services.modifier.apply(txn, guard, rec)
                    # The insert cleared the index; patch a copy of the one
                    # it was placed by (a reader may still hold that one).
                    children = array("I", children)
                    children.insert(slot, child_pid)
                    page.separators = [[*keys[: slot - 1], sep_key, *keys[slot - 1 :]], children]
                    return
            if guard.page_id == self.root_page_id:
                self._split_root(txn)
            else:
                self._split_nonroot(txn, guard.page_id)
        raise StorageError(f"btree {self.object_id}: separator post did not converge")

    def _split_root(self, txn) -> None:
        """Grow the tree by one level, keeping the root page id fixed.

        The root's content moves into two fresh children; the root is then
        reformatted in place one level higher — preceded by a preformat
        record so its modification chain survives the reformat.
        """
        fetch = self.services.fetch
        with fetch(self.root_page_id) as root_guard:
            root = root_guard.page
            count = root.slot_count
            if count < 2:
                raise StorageError(
                    f"btree {self.object_id}: cannot split root with "
                    f"{count} records"
                )
            mid = count // 2
            level = root.level
            is_leaf = level == 0
            if is_leaf:
                sep_key = self.codec.decode_key(root.record(mid))
                sep_kb = self.key_codec.encode(sep_key)
            else:
                _child, sep_kb = decode_entry(root.record(mid))
                if sep_kb is None:
                    raise StorageError("root split at -inf entry")
            left_pid = self._allocate_formatted(
                txn, level=level, prev_page=NULL_PAGE, next_page=NULL_PAGE,
                hint=self.root_page_id,
            )
            right_pid = self._allocate_formatted(
                txn,
                level=level,
                prev_page=left_pid if is_leaf else NULL_PAGE,
                next_page=NULL_PAGE,
                hint=left_pid,
            )
            with fetch(right_pid) as right_guard:
                self._move_rows(txn, root_guard, right_guard, mid)
            with fetch(left_pid) as left_guard:
                self._move_rows(txn, root_guard, left_guard, 0)
                if is_leaf:
                    links = SetLinksRecord(
                        old_prev=NULL_PAGE,
                        old_next=NULL_PAGE,
                        new_prev=NULL_PAGE,
                        new_next=right_pid,
                        page_id=left_pid,
                        object_id=self.object_id,
                        flags=FLAG_SMO,
                    )
                    self.services.modifier.apply(txn, left_guard, links)
            # Reformat the (now empty) root one level up. The preformat is
            # forced (independent of the extension switch): it keeps the
            # root's chain walkable across the reformat, so an as-of read
            # from before the split reaches the rows the root held. A
            # rollback of the split needs no image: it sets the level back.
            self.services.modifier.format_page(
                txn,
                root_guard,
                PageType.BTREE,
                object_id=self.object_id,
                level=level + 1,
                was_ever_allocated=True,
                force_preformat=True,
            )
            for slot, entry in enumerate(
                (encode_entry(left_pid, None), encode_entry(right_pid, sep_kb))
            ):
                rec = InsertRowRecord(
                    slot=slot,
                    row=entry,
                    page_id=self.root_page_id,
                    object_id=self.object_id,
                    flags=FLAG_SMO,
                )
                self.services.modifier.apply(txn, root_guard, rec)
