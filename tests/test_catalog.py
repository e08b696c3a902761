"""Catalog tests: self-describing system tables, DDL, schema round-trips."""

from __future__ import annotations

import pytest

from repro.catalog.catalog import (
    FIRST_USER_OBJECT_ID,
    SYS_COLUMNS_ID,
    SYS_OBJECTS_ID,
)
from repro.errors import CatalogError
from tests.conftest import ITEMS_SCHEMA, WIDE_SCHEMA, table_pages


class TestBootstrapState:
    def test_system_tables_self_described(self, db):
        objs = {o.name: o for o in db.catalog.list_objects(include_system=True)}
        assert objs["sys_objects"].object_id == SYS_OBJECTS_ID
        assert objs["sys_columns"].object_id == SYS_COLUMNS_ID

    def test_user_listing_hides_system(self, db):
        assert db.catalog.list_objects() == []

    def test_next_object_id_starts_at_floor(self, db):
        assert db.catalog.next_object_id() == FIRST_USER_OBJECT_ID


class TestCreateTable:
    def test_create_and_lookup(self, db):
        db.create_table(ITEMS_SCHEMA)
        info = db.catalog.get_by_name("items")
        assert info is not None
        assert info.kind == "table"
        assert db.catalog.get_by_id(info.object_id) == info

    def test_schema_roundtrip(self, db):
        db.create_table(WIDE_SCHEMA)
        info = db.catalog.require("wide")
        loaded = db.catalog.load_schema(info)
        assert loaded.column_names == WIDE_SCHEMA.column_names
        assert loaded.key == WIDE_SCHEMA.key
        for orig, got in zip(WIDE_SCHEMA.columns, loaded.columns, strict=True):
            assert (orig.name, orig.ctype, orig.nullable, orig.max_len) == (
                got.name,
                got.ctype,
                got.nullable,
                got.max_len,
            )

    def test_duplicate_name_rejected(self, db):
        db.create_table(ITEMS_SCHEMA)
        with pytest.raises(CatalogError):
            db.create_table(ITEMS_SCHEMA)

    def test_object_ids_increase(self, db):
        db.create_table(ITEMS_SCHEMA)
        db.create_table(WIDE_SCHEMA)
        a = db.catalog.require("items").object_id
        b = db.catalog.require("wide").object_id
        assert b == a + 1

    def test_create_heap_kind(self, db):
        db.create_table(ITEMS_SCHEMA, heap=True)
        assert db.catalog.require("items").is_heap

    def test_create_rolls_back(self, db):
        txn = db.begin()
        db.catalog.create_table(txn, ITEMS_SCHEMA)
        db.rollback(txn)
        assert db.catalog.get_by_name("items") is None
        # The root page allocation was undone too; a fresh create reuses it.
        db.create_table(ITEMS_SCHEMA)
        assert db.catalog.get_by_name("items") is not None


class TestDropTable:
    def test_drop_removes_metadata(self, db):
        db.create_table(ITEMS_SCHEMA)
        db.drop_table("items")
        assert db.catalog.get_by_name("items") is None
        lo = (FIRST_USER_OBJECT_ID, -(2**62))
        hi = (FIRST_USER_OBJECT_ID, 2**62)
        assert list(db.catalog.sys_columns.scan(lo, hi)) == []

    def test_drop_missing_raises(self, db):
        with pytest.raises(CatalogError):
            db.drop_table("ghost")

    def test_drop_system_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.drop_table("sys_objects")

    def test_drop_frees_pages(self, small_db):
        from tests.conftest import fill_items

        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 400)
        tree_pages = set(table_pages(db, "items"))
        assert len(tree_pages) > 3
        db.drop_table("items")
        for pid in tree_pages:
            assert not db.alloc.is_allocated(pid)
            assert db.alloc.was_ever_allocated(pid)

    def test_drop_rolls_back(self, small_db):
        from tests.conftest import fill_items

        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        txn = db.begin()
        db.catalog.drop_table(txn, "items")
        db.rollback(txn)
        db._table_cache.clear()
        assert db.catalog.get_by_name("items") is not None
        assert sum(1 for _ in db.scan("items")) == 100

    def test_recreate_after_drop(self, db):
        db.create_table(ITEMS_SCHEMA)
        db.drop_table("items")
        db.create_table(ITEMS_SCHEMA)
        with db.transaction() as txn:
            db.insert(txn, "items", (1, "new", 1))
        assert db.get("items", (1,)) == (1, "new", 1)

    def test_tables_listing(self, db):
        db.create_table(ITEMS_SCHEMA)
        db.create_table(WIDE_SCHEMA)
        assert sorted(db.tables()) == ["items", "wide"]
        db.drop_table("items")
        assert db.tables() == ["wide"]
