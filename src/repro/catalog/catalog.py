"""The metadata catalog, stored in ordinary B-trees.

``sys_objects`` and ``sys_columns`` live at fixed root pages and describe
every object including themselves. Because their pages are modified
through the same logged path as user data, an as-of snapshot unwinds the
catalog with zero metadata-specific machinery — which is exactly how the
paper's dropped-table recovery workflow can still *see* the dropped
table's schema in the past (sections 1 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.access.btree import BTree, BTreeServices, object_page_ids
from repro.access.heap import Heap
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import CatalogError
from repro.storage.page import PageType

#: Fixed page ids (page 0 = boot, page 1 = first allocation map).
SYS_OBJECTS_ROOT = 2
SYS_COLUMNS_ROOT = 3

SYS_OBJECTS_ID = 1
SYS_COLUMNS_ID = 2
#: First object id handed to user tables.
FIRST_USER_OBJECT_ID = 100

KIND_SYSTEM = "system"
KIND_TABLE = "table"
KIND_HEAP = "heap"

SYS_OBJECTS_SCHEMA = TableSchema(
    "sys_objects",
    (
        Column("object_id", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=128),
        Column("kind", ColumnType.STR, max_len=16),
        Column("root_page", ColumnType.INT),
    ),
    key=("object_id",),
)

SYS_COLUMNS_SCHEMA = TableSchema(
    "sys_columns",
    (
        Column("object_id", ColumnType.INT),
        Column("pos", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=128),
        Column("ctype", ColumnType.STR, max_len=8),
        Column("max_len", ColumnType.INT),
        Column("nullable", ColumnType.BOOL),
        Column("is_key", ColumnType.BOOL),
        Column("key_pos", ColumnType.INT),
    ),
    key=("object_id", "pos"),
)


@dataclass(frozen=True)
class ObjectInfo:
    """One catalog entry."""

    object_id: int
    name: str
    kind: str
    root_page: int

    @property
    def is_heap(self) -> bool:
        return self.kind == KIND_HEAP


class Catalog:
    """Catalog accessor bound to a page-access context.

    The same class serves the primary database (read-write, ``services``
    carrying a logged modifier and allocator) and snapshots / restored
    databases (read-only services); mutation methods simply require an
    allocator.
    """

    def __init__(self, services: BTreeServices) -> None:
        self.services = services
        self.sys_objects = BTree(
            object_id=SYS_OBJECTS_ID,
            root_page_id=SYS_OBJECTS_ROOT,
            schema=SYS_OBJECTS_SCHEMA,
            services=services,
        )
        self.sys_columns = BTree(
            object_id=SYS_COLUMNS_ID,
            root_page_id=SYS_COLUMNS_ROOT,
            schema=SYS_COLUMNS_SCHEMA,
            services=services,
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def get_by_id(self, object_id: int) -> ObjectInfo | None:
        row = self.sys_objects.get((object_id,))
        if row is None:
            return None
        return ObjectInfo(*row)

    def get_by_name(self, name: str) -> ObjectInfo | None:
        for row in self.sys_objects.scan():
            if row[1] == name:
                return ObjectInfo(*row)
        return None

    def require(self, name: str) -> ObjectInfo:
        info = self.get_by_name(name)
        if info is None:
            raise CatalogError(f"no such table: {name!r}")
        return info

    def list_objects(self, *, include_system: bool = False) -> list[ObjectInfo]:
        objects = [ObjectInfo(*row) for row in self.sys_objects.scan()]
        if not include_system:
            objects = [obj for obj in objects if obj.kind != KIND_SYSTEM]
        return objects

    def load_schema(self, info: ObjectInfo) -> TableSchema:
        """Rebuild a TableSchema from the object's sys_columns rows."""
        if info.object_id == SYS_OBJECTS_ID:
            return SYS_OBJECTS_SCHEMA
        if info.object_id == SYS_COLUMNS_ID:
            return SYS_COLUMNS_SCHEMA
        columns: list[Column] = []
        keyed: list[tuple[int, str]] = []
        lo = (info.object_id, -(2**62))
        hi = (info.object_id, 2**62)
        for row in self.sys_columns.scan(lo, hi):
            _oid, _pos, name, ctype, max_len, nullable, is_key, key_pos = row
            columns.append(
                Column(
                    name=name,
                    ctype=ColumnType(ctype),
                    nullable=nullable,
                    max_len=max_len,
                )
            )
            if is_key:
                keyed.append((key_pos, name))
        if not columns:
            raise CatalogError(
                f"object {info.name!r} has no column metadata"
            )
        keyed.sort()
        return TableSchema(info.name, columns, tuple(name for _pos, name in keyed))

    def next_object_id(self) -> int:
        highest = FIRST_USER_OBJECT_ID - 1
        for row in self.sys_objects.scan():
            highest = max(highest, row[0])
        return highest + 1

    # ------------------------------------------------------------------
    # DDL (primary database only)
    # ------------------------------------------------------------------

    def create_table(self, txn, schema: TableSchema, *, kind: str = KIND_TABLE) -> ObjectInfo:
        """Create a table (or heap): allocate + format its root, record
        metadata. Fully transactional — rollback reverses everything."""
        if self.services.alloc is None:
            raise CatalogError("catalog is read-only in this context")
        if self.get_by_name(schema.name) is not None:
            raise CatalogError(f"table {schema.name!r} already exists")
        object_id = self.next_object_id()
        root_pid, was_ever = self.services.alloc.allocate(txn, None)
        guard = (
            self.services.fetch(root_pid)
            if was_ever
            else self.services.fetch(root_pid, create=True)
        )
        with guard:
            self.services.modifier.format_page(
                txn,
                guard,
                PageType.HEAP if kind == KIND_HEAP else PageType.BTREE,
                object_id=object_id,
                level=0,
                was_ever_allocated=was_ever,
            )
        self.sys_objects.insert(txn, (object_id, schema.name, kind, root_pid))
        key_order = {name: pos for pos, name in enumerate(schema.key)}
        for pos, col in enumerate(schema.columns):
            self.sys_columns.insert(
                txn,
                (
                    object_id,
                    pos,
                    col.name,
                    col.ctype.value,
                    col.max_len,
                    col.nullable,
                    col.name in key_order,
                    key_order.get(col.name, 0),
                ),
            )
        return ObjectInfo(object_id, schema.name, kind, root_pid)

    def accessor(self, info: ObjectInfo, schema: TableSchema) -> BTree | Heap:
        """The table's heap or B-tree over this catalog's pages."""
        if info.is_heap:
            return Heap(
                object_id=info.object_id,
                first_page_id=info.root_page,
                schema=schema,
                services=self.services,
            )
        return BTree(
            object_id=info.object_id,
            root_page_id=info.root_page,
            schema=schema,
            services=self.services,
        )

    def drop_table(self, txn, name: str) -> ObjectInfo:
        """Drop a table: delete its metadata and deallocate its pages.

        The pages' *content* stays on disk untouched — the paper's design
        point: nothing is logged about the data at drop time, and the
        preformat record preserves history only if/when pages get reused.
        """
        if self.services.alloc is None:
            raise CatalogError("catalog is read-only in this context")
        info = self.require(name)
        if info.kind == KIND_SYSTEM:
            raise CatalogError(f"cannot drop system table {name!r}")
        pages = object_page_ids(self.services.fetch, info.root_page)
        self.sys_objects.delete(txn, (info.object_id,))
        lo = (info.object_id, -(2**62))
        hi = (info.object_id, 2**62)
        for row in list(self.sys_columns.scan(lo, hi)):
            self.sys_columns.delete(txn, (row[0], row[1]))
        for pid in pages:
            self.services.alloc.deallocate(txn, pid)
        return info
