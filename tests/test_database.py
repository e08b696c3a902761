"""Database-level tests: transactions, rollback, isolation, boot page."""

from __future__ import annotations

import pytest

from repro.errors import (
    CatalogError,
    DuplicateKeyError,
    SnapshotReadOnlyError,
    TransactionError,
)
from repro.txn.locks import LockConflictError
from repro.txn.transaction import TxnState
from tests.conftest import ITEMS_SCHEMA, fill_items


class TestTransactions:
    def test_commit_makes_visible(self, items_db):
        txn = items_db.begin()
        items_db.insert(txn, "items", (1, "a", 1))
        items_db.commit(txn)
        assert txn.state is TxnState.COMMITTED
        assert items_db.get("items", (1,)) == (1, "a", 1)

    def test_context_manager_commits(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "a", 1))
        assert items_db.get("items", (1,)) is not None

    def test_context_manager_rolls_back_on_error(self, items_db):
        with pytest.raises(RuntimeError):
            with items_db.transaction() as txn:
                items_db.insert(txn, "items", (1, "a", 1))
                raise RuntimeError("boom")
        assert items_db.get("items", (1,)) is None

    def test_finished_txn_unusable(self, items_db):
        txn = items_db.begin()
        items_db.commit(txn)
        with pytest.raises(TransactionError):
            items_db.insert(txn, "items", (1, "a", 1))

    def test_commit_forces_log(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "a", 1))
        assert items_db.log.durable_lsn == items_db.log.end_lsn

    def test_rollback_mixed_ops(self, items_db):
        fill_items(items_db, 10)
        txn = items_db.begin()
        items_db.insert(txn, "items", (100, "new", 0))
        items_db.update(txn, "items", (3,), {"qty": -3})
        items_db.delete(txn, "items", (5,))
        items_db.rollback(txn)
        assert items_db.get("items", (100,)) is None
        assert items_db.get("items", (3,)) == (3, "item-3", 30)
        assert items_db.get("items", (5,)) == (5, "item-5", 50)

    def test_rollback_across_splits(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 50)
        txn = db.begin()
        for i in range(50, 500):
            db.insert(txn, "items", (i, f"bulk-{i}", i))
        db.rollback(txn)
        rows = [r[0] for r in db.scan("items")]
        assert rows == list(range(50))
        # Tree remains fully functional after the mass rollback.
        fill_items(db, 50, start=50)
        assert db.table("items").count() == 100

    def test_rollback_delete_that_needs_split(self, small_db):
        """Undoing a delete may have to re-insert into a page that has
        since been filled by other (committed) rows — forcing a split
        during rollback."""
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        with db.transaction() as txn:
            for i in range(0, 40, 2):
                db.insert(txn, "items", (i, "x" * 20, i))
        victim = db.begin()
        db.delete(victim, "items", (10,))
        filler = db.begin()
        for i in range(1, 40, 2):
            db.insert(filler, "items", (i, "y" * 20, i))
        db.commit(filler)
        db.rollback(victim)
        assert db.get("items", (10,)) == (10, "x" * 20, 10)
        assert db.table("items").count() == 40

    def test_stats_track_commits_and_aborts(self, items_db):
        stats = items_db.env.stats
        before_commit = stats.transactions_committed
        before_abort = stats.transactions_aborted
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "a", 1))
        txn = items_db.begin()
        items_db.rollback(txn)
        assert stats.transactions_committed == before_commit + 1
        assert stats.transactions_aborted == before_abort + 1


class TestRolledBackCreate:
    """A table handle must not outlive the rollback of its ``CREATE``."""

    def test_rollback_forgets_the_handle(self, db):
        txn = db.begin()
        object_id = db.create_table(ITEMS_SCHEMA, txn).info.object_id
        db.insert(txn, "items", (1, "gone", 1))
        db.rollback(txn)
        with pytest.raises(CatalogError):
            db.table("items")
        assert db.tree_for_object(object_id) is None
        db.create_table(ITEMS_SCHEMA)  # the name is free again
        assert list(db.scan("items")) == []

    def test_rollback_to_a_savepoint_before_the_create(self, db):
        txn = db.begin()
        db.savepoint(txn, "before")
        db.create_table(ITEMS_SCHEMA, txn)
        db.insert(txn, "items", (1, "gone", 1))
        db.rollback_to(txn, "before")
        with pytest.raises(CatalogError):
            db.table("items")
        db.commit(txn)

    def test_rollback_to_a_savepoint_after_the_create_keeps_the_table(self, db):
        txn = db.begin()
        db.create_table(ITEMS_SCHEMA, txn)
        db.savepoint(txn, "after")
        db.insert(txn, "items", (1, "gone", 1))
        db.rollback_to(txn, "after")
        db.insert(txn, "items", (2, "kept", 2))
        db.commit(txn)
        assert list(db.scan("items")) == [(2, "kept", 2)]


class TestIsolation:
    def test_write_write_conflict(self, items_db):
        fill_items(items_db, 5)
        t1 = items_db.begin()
        t2 = items_db.begin()
        items_db.update(t1, "items", (1,), {"qty": 11})
        with pytest.raises(LockConflictError):
            items_db.update(t2, "items", (1,), {"qty": 22})
        items_db.commit(t1)
        # After t1 releases, t2 can proceed.
        items_db.update(t2, "items", (1,), {"qty": 22})
        items_db.commit(t2)
        assert items_db.get("items", (1,))[2] == 22

    def test_reader_blocks_on_writer(self, items_db):
        fill_items(items_db, 5)
        t1 = items_db.begin()
        t2 = items_db.begin()
        items_db.update(t1, "items", (1,), {"qty": 11})
        with pytest.raises(LockConflictError):
            items_db.get("items", (1,), t2)
        items_db.rollback(t1)
        assert items_db.get("items", (1,), t2)[2] == 10
        items_db.commit(t2)

    def test_different_rows_no_conflict(self, items_db):
        fill_items(items_db, 5)
        t1 = items_db.begin()
        t2 = items_db.begin()
        items_db.update(t1, "items", (1,), {"qty": 11})
        items_db.update(t2, "items", (2,), {"qty": 22})
        items_db.commit(t1)
        items_db.commit(t2)
        assert items_db.get("items", (1,))[2] == 11
        assert items_db.get("items", (2,))[2] == 22

    def test_duplicate_insert_conflict_between_txns(self, items_db):
        t1 = items_db.begin()
        items_db.insert(t1, "items", (9, "mine", 1))
        t2 = items_db.begin()
        with pytest.raises(LockConflictError):
            items_db.insert(t2, "items", (9, "theirs", 2))
        items_db.rollback(t1)
        items_db.insert(t2, "items", (9, "theirs", 2))
        items_db.commit(t2)
        assert items_db.get("items", (9,))[1] == "theirs"


class TestSystemTxns:
    def test_system_txn_commits_independently(self, db):
        marker = {}

        def work(txn):
            assert txn.is_system
            marker["ran"] = True

        db.run_system_txn(work)
        assert marker["ran"]

    def test_system_txn_rolls_back_on_error(self, items_db):
        def work(txn):
            items_db.table("items").insert(txn, (1, "sys", 1))
            raise ValueError("fail")

        with pytest.raises(ValueError):
            items_db.run_system_txn(work)
        assert items_db.get("items", (1,)) is None


class TestBootPage:
    def test_default_undo_interval(self, db):
        assert db.undo_interval_s == db.config.undo_interval_s

    def test_set_undo_interval(self, db):
        db.set_undo_interval(3600)
        assert db.undo_interval_s == 3600

    def test_set_undo_interval_rejects_nonpositive(self, db):
        with pytest.raises(ValueError):
            db.set_undo_interval(0)

    def test_checkpoint_updates_boot(self, db):
        lsn = db.checkpoint()
        assert db.boot_record().last_checkpoint_lsn == lsn
        assert db.last_checkpoint_lsn == lsn

    def test_checkpoint_chain_links(self, db):
        first = db.checkpoint()
        second = db.checkpoint()
        from tests.conftest import scanned_checkpoints

        chain = scanned_checkpoints(db.log)
        assert chain[0][0] == second
        assert chain[0][2] == first

    def test_read_only_guard(self, items_db):
        items_db.read_only = True
        with pytest.raises(SnapshotReadOnlyError):
            items_db.begin()
        with pytest.raises(SnapshotReadOnlyError):
            with items_db.transaction() as txn:
                pass
        items_db.read_only = False


class TestDuplicateHandling:
    def test_failed_statement_does_not_poison_txn(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "a", 1))
            with pytest.raises(DuplicateKeyError):
                items_db.insert(txn, "items", (1, "b", 2))
            items_db.insert(txn, "items", (2, "c", 3))
        assert items_db.get("items", (1,)) == (1, "a", 1)
        assert items_db.get("items", (2,)) == (2, "c", 3)
