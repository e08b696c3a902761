"""Heap table tests: append, chaining, tombstone rollback."""

from __future__ import annotations

import pytest

from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import CatalogError
from tests.conftest import table_pages

HISTORY_SCHEMA = TableSchema(
    "history",
    (
        Column("seq", ColumnType.INT),
        Column("note", ColumnType.STR, max_len=120),
    ),
    key=("seq",),
)


@pytest.fixture
def heap_db(engine, small_config):
    db = engine.create_database("heapdb", small_config)
    db.create_table(HISTORY_SCHEMA, heap=True)
    return db


class TestHeapBasics:
    def test_insert_scan_order(self, heap_db):
        with heap_db.transaction() as txn:
            for i in range(10):
                heap_db.insert(txn, "history", (i, f"evt-{i}"))
        rows = list(heap_db.scan("history"))
        assert [r[0] for r in rows] == list(range(10))

    def test_grows_across_pages(self, heap_db):
        with heap_db.transaction() as txn:
            for i in range(200):
                heap_db.insert(txn, "history", (i, "x" * 100))
        table = heap_db.table("history")
        assert len(table_pages(heap_db, "history")) > 1
        assert table.count() == 200

    def test_duplicate_keys_allowed(self, heap_db):
        """Heaps are unkeyed: the 'key' columns carry no uniqueness."""
        with heap_db.transaction() as txn:
            heap_db.insert(txn, "history", (1, "a"))
            heap_db.insert(txn, "history", (1, "b"))
        assert heap_db.table("history").count() == 2

    def test_get_unsupported(self, heap_db):
        with pytest.raises(CatalogError):
            heap_db.get("history", (1,))

    def test_update_unsupported(self, heap_db):
        with pytest.raises(CatalogError):
            with heap_db.transaction() as txn:
                heap_db.update(txn, "history", (1,), {"note": "x"})

    def test_delete_unsupported(self, heap_db):
        with pytest.raises(CatalogError):
            with heap_db.transaction() as txn:
                heap_db.delete(txn, "history", (1,))


class TestHeapRollback:
    def test_rollback_tombstones(self, heap_db):
        with heap_db.transaction() as txn:
            heap_db.insert(txn, "history", (1, "keep"))
        txn = heap_db.begin()
        heap_db.insert(txn, "history", (2, "drop-me"))
        heap_db.insert(txn, "history", (3, "drop-me-too"))
        heap_db.rollback(txn)
        rows = list(heap_db.scan("history"))
        assert rows == [(1, "keep")]

    def test_interleaved_rollback_preserves_other_rows(self, heap_db):
        """Tombstoning keeps other transactions' later appends intact."""
        t1 = heap_db.begin()
        heap_db.insert(t1, "history", (1, "loser"))
        t2 = heap_db.begin()
        heap_db.insert(t2, "history", (2, "winner"))
        heap_db.commit(t2)
        heap_db.rollback(t1)
        assert list(heap_db.scan("history")) == [(2, "winner")]

    def test_rollback_after_page_growth(self, heap_db):
        txn = heap_db.begin()
        for i in range(100):
            heap_db.insert(txn, "history", (i, "y" * 100))
        heap_db.rollback(txn)
        assert list(heap_db.scan("history")) == []
        # The grown pages persist (system transactions committed), ready
        # for reuse by the next insert.
        with heap_db.transaction() as txn:
            heap_db.insert(txn, "history", (7, "after"))
        assert list(heap_db.scan("history")) == [(7, "after")]
