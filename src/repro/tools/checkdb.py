"""Structural consistency checker (in the spirit of ``DBCC CHECKDB``).

Walks the whole database verifying the invariants the engine relies on:

* allocation maps vs reality — every catalog-reachable page is allocated,
  no page belongs to two objects;
* B-tree structure — keys sorted within pages, separator keys bound their
  subtrees, leaf sibling links symmetric, levels consistent;
* page headers — object ids match the catalog, page ids match positions;
* rows decode under their table's schema.

Returns a :class:`CheckReport`; an empty ``problems`` list means healthy.
Also runs against snapshots — checking that an *as-of view* is itself a
structurally sound database is a strong end-to-end validation of the
undo machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.access.btree import decode_entry
from repro.errors import StorageError
from repro.storage.page import NULL_PAGE, PageType


@dataclass
class CheckReport:
    """Outcome of a consistency check."""

    pages_checked: int = 0
    rows_checked: int = 0
    objects_checked: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def complain(self, message: str) -> None:
        self.problems.append(message)

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problems"
        return (
            f"CheckReport({status}, pages={self.pages_checked}, "
            f"rows={self.rows_checked}, objects={self.objects_checked})"
        )


def check_database(target) -> CheckReport:
    """Check a database or snapshot; see module docstring."""
    report = CheckReport()
    catalog = target.catalog
    claimed: dict[int, int] = {}
    objects = catalog.list_objects(include_system=True)
    for info in objects:
        report.objects_checked += 1
        try:
            schema = catalog.load_schema(info)
        except Exception as exc:  # noqa: BLE001 - surface as a finding
            report.complain(f"{info.name}: schema unreadable: {exc}")
            continue
        if info.is_heap:
            _check_heap(target, info, schema, claimed, report)
        else:
            _check_btree(target, info, schema, claimed, report)
    _check_allocation(target, claimed, report)
    return report


def _claim(claimed, report, page_id: int, object_id: int, name: str) -> None:
    owner = claimed.get(page_id)
    if owner is not None and owner != object_id:
        report.complain(
            f"page {page_id} claimed by objects {owner} and {object_id} ({name})"
        )
    claimed[page_id] = object_id


def _check_btree(target, info, schema, claimed, report) -> None:
    from repro.storage.rowcodec import KeyCodec, RowCodec

    codec = RowCodec(schema)
    key_codec = KeyCodec.for_schema(schema)
    leaves_via_entries: list[int] = []

    def walk(page_id: int, level_expect: int | None, lo, hi) -> None:
        report.pages_checked += 1
        _claim(claimed, report, page_id, info.object_id, info.name)
        with target.fetch_page(page_id) as guard:
            page = guard.page
            if not page.is_formatted():
                report.complain(f"{info.name}: page {page_id} unformatted")
                return
            if page.page_type is not PageType.BTREE:
                report.complain(
                    f"{info.name}: page {page_id} has type {page.page_type.name}"
                )
                return
            if page.page_id != page_id:
                report.complain(
                    f"{info.name}: page {page_id} header claims id {page.page_id}"
                )
            if page.object_id != info.object_id:
                report.complain(
                    f"{info.name}: page {page_id} belongs to object {page.object_id}"
                )
            if level_expect is not None and page.level != level_expect:
                report.complain(
                    f"{info.name}: page {page_id} level {page.level}, "
                    f"expected {level_expect}"
                )
            if page.level == 0:
                leaves_via_entries.append(page_id)
                previous = None
                for payload in page.records():
                    try:
                        row = codec.decode(payload)
                    except StorageError as exc:
                        report.complain(
                            f"{info.name}: page {page_id} row undecodable: {exc}"
                        )
                        continue
                    report.rows_checked += 1
                    key = schema.key_of(row)
                    if previous is not None and key <= previous:
                        report.complain(
                            f"{info.name}: page {page_id} keys out of order "
                            f"({previous!r} !< {key!r})"
                        )
                    if lo is not None and key < lo:
                        report.complain(
                            f"{info.name}: page {page_id} key {key!r} below "
                            f"separator {lo!r}"
                        )
                    if hi is not None and key >= hi:
                        report.complain(
                            f"{info.name}: page {page_id} key {key!r} at or "
                            f"above separator {hi!r}"
                        )
                    previous = key
                return
            # Interior node: recurse through entries.
            entries = []
            for payload in page.records():
                child, key_bytes = decode_entry(payload)
                key = key_codec.decode(key_bytes) if key_bytes is not None else None
                entries.append((child, key))
            if not entries:
                report.complain(f"{info.name}: interior page {page_id} empty")
                return
            separators = [key for _child, key in entries[1:]]
            if any(key is None for key in separators):
                report.complain(
                    f"{info.name}: page {page_id} has -inf beyond slot 0"
                )
            if separators != sorted(separators):
                report.complain(
                    f"{info.name}: page {page_id} separators out of order"
                )
            child_level = page.level - 1
            for index, (child, _key) in enumerate(entries):
                child_lo = separators[index - 1] if index >= 1 else lo
                child_hi = separators[index] if index < len(separators) else hi
                walk(child, child_level, child_lo, child_hi)

    walk(info.root_page, None, None, None)

    # Leaf sibling chain must visit exactly the leaves found via entries.
    via_chain = []
    pid = leaves_via_entries[0] if leaves_via_entries else NULL_PAGE
    seen = set()
    while pid != NULL_PAGE and pid not in seen:
        seen.add(pid)
        via_chain.append(pid)
        with target.fetch_page(pid) as guard:
            next_pid = guard.page.next_page
            if next_pid != NULL_PAGE:
                with target.fetch_page(next_pid) as right:
                    if right.page.prev_page != pid:
                        report.complain(
                            f"{info.name}: leaf chain asymmetry "
                            f"{pid} -> {next_pid} -> back {right.page.prev_page}"
                        )
        pid = next_pid
    if set(via_chain) != set(leaves_via_entries):
        report.complain(
            f"{info.name}: leaf chain covers {len(via_chain)} leaves, "
            f"entries reach {len(leaves_via_entries)}"
        )


def _check_heap(target, info, schema, claimed, report) -> None:
    from repro.storage.rowcodec import RowCodec

    codec = RowCodec(schema)
    pid = info.root_page
    seen = set()
    while pid != NULL_PAGE and pid not in seen:
        seen.add(pid)
        report.pages_checked += 1
        _claim(claimed, report, pid, info.object_id, info.name)
        with target.fetch_page(pid) as guard:
            page = guard.page
            if not page.is_formatted() or page.page_type is not PageType.HEAP:
                report.complain(f"{info.name}: heap page {pid} malformed")
                return
            for payload in page.records():
                if not payload:
                    continue  # tombstone
                try:
                    codec.decode(payload)
                    report.rows_checked += 1
                except StorageError as exc:
                    report.complain(
                        f"{info.name}: heap page {pid} row undecodable: {exc}"
                    )
            pid = page.next_page


def _check_allocation(target, claimed, report) -> None:
    """Catalog-reachable pages must be allocated (primary databases only;
    snapshots have no live allocator view worth checking)."""
    alloc = getattr(target, "alloc", None)
    if alloc is None or not hasattr(alloc, "is_allocated"):
        return
    if type(alloc).__name__ == "SnapshotAllocator":
        return
    for page_id, object_id in claimed.items():
        if not alloc.is_allocated(page_id):
            report.complain(
                f"page {page_id} (object {object_id}) reachable but not allocated"
            )
