"""Tests for the user-facing recovery workflows and selective txn undo."""

from __future__ import annotations

import pytest

from repro.core.recovery_tools import (
    diff_table,
    find_when_table_existed,
    recover_dropped_table,
    restore_rows,
)
from repro.core.txn_undo import (
    TransactionUndoConflict,
    UnsupportedTransactionUndo,
    undo_transaction,
)
from repro.errors import CatalogError, TransactionError
from repro.wal.records import InsertRowRecord
from tests.conftest import fill_items


class TestProbeSearch:
    def test_finds_existing_table(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        db.env.clock.advance(120)
        alive = db.env.clock.now()
        db.env.clock.advance(120)
        db.drop_table("items")
        db.env.clock.advance(600)
        result = find_when_table_existed(
            engine, "itemsdb", "items", latest=alive + 60, step_s=30
        )
        assert result.found
        assert result.probes >= 1
        assert engine.snapshots == {}  # probes cleaned up

    def test_gives_up_outside_retention(self, engine, items_db):
        db = items_db
        db.set_undo_interval(60)
        fill_items(db, 3)
        db.env.clock.advance(600)
        db.checkpoint()
        result = find_when_table_existed(
            engine, "itemsdb", "never_existed", latest=db.env.clock.now(), step_s=120
        )
        assert not result.found

    def test_keep_snapshot_option(self, engine, items_db):
        fill_items(items_db, 3)
        items_db.env.clock.advance(60)
        result = find_when_table_existed(
            engine,
            "itemsdb",
            "items",
            latest=items_db.env.clock.now() - 1,
            keep_snapshot=True,
        )
        assert result.found and result.snapshot_name
        assert engine.snapshot(result.snapshot_name).table_exists("items")
        engine.drop_snapshot(result.snapshot_name)


class TestRecoverDroppedTable:
    def test_full_recovery(self, engine, items_db):
        db = items_db
        fill_items(db, 25)
        good = db.env.clock.now()
        db.env.clock.advance(60)
        db.drop_table("items")
        copied = recover_dropped_table(engine, "itemsdb", "items", good)
        assert copied == 25
        assert sum(1 for _ in db.scan("items")) == 25
        assert engine.snapshots == {}

    def test_rejects_existing_table(self, engine, items_db):
        fill_items(items_db, 3)
        with pytest.raises(CatalogError):
            recover_dropped_table(
                engine, "itemsdb", "items", items_db.env.clock.now()
            )


class TestDiffAndRestore:
    def test_diff_classifies(self, engine, items_db):
        db = items_db
        fill_items(db, 6)
        good = db.env.clock.now()
        db.env.clock.advance(30)
        with db.transaction() as txn:
            db.delete(txn, "items", (1,))           # lost
            db.update(txn, "items", (2,), {"qty": 999})  # changed
            db.insert(txn, "items", (100, "new", 0))     # legit new work
        snap = engine.create_asof_snapshot("itemsdb", "past", good)
        diff = diff_table(snap, db, "items")
        assert [r[0] for r in diff.only_in_past] == [1]
        assert [r[0] for r in diff.only_in_present] == [100]
        assert [entry[0] for entry in diff.changed] == [(2,)]

    def test_restore_rows_selective(self, engine, items_db):
        db = items_db
        fill_items(db, 6)
        good = db.env.clock.now()
        db.env.clock.advance(30)
        with db.transaction() as txn:
            db.delete(txn, "items", (1,))
            db.update(txn, "items", (2,), {"qty": 999})
            db.insert(txn, "items", (100, "new", 0))
        snap = engine.create_asof_snapshot("itemsdb", "past", good)
        diff = diff_table(snap, db, "items")
        written = restore_rows(db, "items", diff)
        assert written == 1
        assert db.get("items", (1,)) is not None       # restored
        assert db.get("items", (2,))[2] == 999         # kept (changed)
        assert db.get("items", (100,)) is not None     # kept (new)

    def test_restore_changed_too(self, engine, items_db):
        db = items_db
        fill_items(db, 3)
        good = db.env.clock.now()
        db.env.clock.advance(30)
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": 999})
        snap = engine.create_asof_snapshot("itemsdb", "past", good)
        diff = diff_table(snap, db, "items")
        restore_rows(db, "items", diff, restore_changed=True)
        assert db.get("items", (2,))[2] == 20

    def test_empty_diff(self, engine, items_db):
        fill_items(items_db, 3)
        snap = engine.create_asof_snapshot(
            "itemsdb", "now", items_db.env.clock.now()
        )
        assert diff_table(snap, items_db, "items").is_empty


class TestTransactionUndo:
    def _committed_txn(self, db):
        txn = db.begin()
        db.insert(txn, "items", (50, "added", 5))
        db.update(txn, "items", (1,), {"qty": 111})
        db.delete(txn, "items", (2,))
        db.commit(txn)
        return txn.txn_id

    def test_clean_undo(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        report = undo_transaction(db, txn_id)
        assert report.undone == 3
        assert report.conflicts == []
        assert db.get("items", (50,)) is None
        assert db.get("items", (1,))[2] == 10
        assert db.get("items", (2,)) == (2, "item-2", 20)

    def test_compensation_is_itself_a_txn(self, engine, items_db):
        """The compensating transaction is logged: as-of snapshots can see
        before/after, and it can itself be undone."""
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        db.env.clock.advance(10)
        mid = db.env.clock.now()
        db.env.clock.advance(10)
        report = undo_transaction(db, txn_id)
        snap = engine.create_asof_snapshot("itemsdb", "mid", mid)
        assert snap.get("items", (1,))[2] == 111  # before the undo
        # Undo the undo: the original changes come back.
        second = undo_transaction(db, report.compensating_txn_id)
        assert second.undone == 3
        assert db.get("items", (1,))[2] == 111

    def test_conflict_abort(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 777})  # later write
        with pytest.raises(TransactionUndoConflict):
            undo_transaction(db, txn_id)
        # Abort rolled the partial compensation back.
        assert db.get("items", (50,)) is not None
        assert db.get("items", (1,))[2] == 777

    def test_conflict_skip(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 777})
        report = undo_transaction(db, txn_id, conflict_policy="skip")
        assert len(report.conflicts) == 1
        assert db.get("items", (1,))[2] == 777      # conflicting row kept
        assert db.get("items", (50,)) is None       # clean ops undone
        assert db.get("items", (2,)) is not None

    def test_conflict_force(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 777})
        report = undo_transaction(db, txn_id, conflict_policy="force")
        assert report.undone == 3
        assert db.get("items", (1,))[2] == 10       # forced back

    def test_rejects_uncommitted(self, items_db):
        db = items_db
        fill_items(db, 3)
        txn = db.begin()
        db.insert(txn, "items", (60, "open", 0))
        with pytest.raises(TransactionError):
            undo_transaction(db, txn.txn_id)
        db.rollback(txn)

    def test_rejects_unknown(self, items_db, monkeypatch):
        fill_items(items_db, 3)
        # Looking a transaction up reads headers: no row body is decoded.
        monkeypatch.setattr(InsertRowRecord, "_decode_body", None)
        with pytest.raises(TransactionError):
            undo_transaction(items_db, 999999)

    def test_rejects_rolled_back(self, items_db):
        db = items_db
        fill_items(db, 3)
        txn = db.begin()
        db.insert(txn, "items", (61, "x", 0))
        db.rollback(txn)
        with pytest.raises(TransactionError):
            undo_transaction(db, txn.txn_id)

    def test_rejects_ddl(self, items_db, wide_schema):
        db = items_db
        txn = db.begin()
        db.catalog.create_table(txn, wide_schema)
        db.commit(txn)
        with pytest.raises(UnsupportedTransactionUndo):
            undo_transaction(db, txn.txn_id)

    def test_heap_insert_undo(self, engine, small_config):
        from tests.test_heap import HISTORY_SCHEMA

        db = engine.create_database("heapundo", small_config)
        db.create_table(HISTORY_SCHEMA, heap=True)
        txn = db.begin()
        db.insert(txn, "history", (1, "keep"))
        db.commit(txn)
        victim = db.begin()
        db.insert(victim, "history", (2, "undo-me"))
        db.commit(victim)
        report = undo_transaction(db, victim.txn_id)
        assert report.undone == 1
        assert list(db.scan("history")) == [(1, "keep")]

    def test_undo_across_splits(self, small_db):
        from tests.conftest import ITEMS_SCHEMA

        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 50)
        big = db.begin()
        for i in range(50, 350):
            db.insert(big, "items", (i, f"bulk-{i}", i))
        db.commit(big)
        fill_items(db, 50, start=400)  # later unrelated work
        report = undo_transaction(db, big.txn_id)
        assert report.undone == 300
        keys = [r[0] for r in db.scan("items")]
        assert keys == list(range(50)) + list(range(400, 450))
