"""The paper's error-recovery workflows in SQL, and selective txn undo.

Section 1's workflow is a probe (``CREATE DATABASE ... AS SNAPSHOT OF ...
AS OF`` at stepped-back instants) followed by ``INSERT ... SELECT`` from
the snapshot that still holds the lost data.
"""

from __future__ import annotations

import pytest

from repro.core.txn_undo import (
    TransactionUndoConflict,
    UnsupportedTransactionUndo,
    undo_transaction,
)
from repro.errors import CatalogError, RetentionExceededError, TransactionError
from repro.tools import transaction_history
from repro.wal.records import InsertRowRecord
from tests.conftest import fill_items


def sql_time(engine, instant: float) -> str:
    """``instant`` as the SQL timestamp literal ``AS OF`` takes."""
    return f"'{engine.env.clock.to_datetime(instant).isoformat(sep=' ')}'"


def probe_for_table(engine, db_name: str, table: str, latest: float, step_s: float = 60.0):
    """The paper's section 1 probe, in SQL: mount ``CREATE DATABASE ... AS
    SNAPSHOT OF ... AS OF`` stepping back from ``latest`` (the step doubles
    each miss) until ``table`` is visible. Returns ``(instant, snapshot
    name)`` of the hit with the misses dropped, or ``None`` once retention
    refuses the instant."""
    when, step = latest, step_s
    for probe in range(32):
        name = f"probe{probe}"
        try:
            engine.sql(f"CREATE DATABASE {name} AS SNAPSHOT OF {db_name} AS OF {sql_time(engine, when)}")
        except RetentionExceededError:
            return None
        if engine.snapshot(name).table_exists(table):
            return when, name
        engine.sql(f"DROP DATABASE {name}")
        when -= step
        step *= 2
    return None


def past_snapshot(engine, good: float):
    engine.sql(f"CREATE DATABASE past AS SNAPSHOT OF itemsdb AS OF {sql_time(engine, good)}")
    return engine.snapshot("past")


class TestProbeSearch:
    def test_finds_existing_table(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        db.env.clock.advance(120)
        alive = db.env.clock.now()
        db.env.clock.advance(120)
        db.drop_table("items")
        db.env.clock.advance(600)
        found = probe_for_table(engine, "itemsdb", "items", alive + 60, step_s=30)
        assert found is not None
        when, name = found
        assert when <= alive + 60
        assert list(engine.snapshots) == [name]  # misses cleaned up
        assert engine.sql(f"SELECT COUNT(*) FROM {name}.items").scalar() == 5

    def test_gives_up_outside_retention(self, engine, items_db):
        db = items_db
        db.set_undo_interval(60)
        fill_items(db, 3)
        db.env.clock.advance(600)
        db.checkpoint()
        latest = db.env.clock.now()
        assert probe_for_table(engine, "itemsdb", "never_existed", latest, step_s=120) is None
        assert engine.snapshots == {}

    def test_keep_snapshot_option(self, engine, items_db):
        """The hit stays mounted: the recovery reads from it afterwards."""
        fill_items(items_db, 3)
        items_db.env.clock.advance(60)
        found = probe_for_table(engine, "itemsdb", "items", items_db.env.clock.now() - 1)
        assert found is not None
        _when, name = found
        assert engine.snapshot(name).table_exists("items")
        engine.sql(f"DROP DATABASE {name}")
        assert engine.snapshots == {}


class TestRecoverDroppedTable:
    def test_full_recovery(self, engine, items_db):
        """Re-create the table from the snapshot's schema, then copy the
        rows back with one ``INSERT ... SELECT``."""
        db = items_db
        fill_items(db, 25)
        good = db.env.clock.now()
        db.env.clock.advance(60)
        db.drop_table("items")
        snap = past_snapshot(engine, good)
        db.create_table(snap.schema("items"))
        copied = engine.sql("INSERT INTO items SELECT * FROM past.items", "itemsdb")
        assert copied.rowcount == 25
        assert sum(1 for _ in db.scan("items")) == 25
        engine.sql("DROP DATABASE past")
        assert engine.snapshots == {}

    def test_rejects_existing_table(self, engine, items_db):
        fill_items(items_db, 3)
        snap = past_snapshot(engine, items_db.env.clock.now())
        with pytest.raises(CatalogError):
            items_db.create_table(snap.schema("items"))


class TestDiffAndRestore:
    @staticmethod
    def _history(db):
        """Lose row 1, change row 2, add row 100 after ``good``."""
        good = db.env.clock.now()
        db.env.clock.advance(30)
        with db.transaction() as txn:
            db.delete(txn, "items", (1,))           # lost
            db.update(txn, "items", (2,), {"qty": 999})  # changed
            db.insert(txn, "items", (100, "new", 0))     # legit new work
        return good

    @staticmethod
    def _rows(engine, source):
        return {row[0]: row for row in engine.sql(f"SELECT * FROM {source}").rows}

    def test_diff_classifies(self, engine, items_db):
        fill_items(items_db, 6)
        past_snapshot(engine, self._history(items_db))
        past, present = self._rows(engine, "past.items"), self._rows(engine, "itemsdb.items")
        assert sorted(past.keys() - present.keys()) == [1]
        assert sorted(present.keys() - past.keys()) == [100]
        assert [k for k in sorted(past.keys() & present.keys()) if past[k] != present[k]] == [2]

    def test_restore_rows_selective(self, engine, items_db):
        db = items_db
        fill_items(db, 6)
        past_snapshot(engine, self._history(db))
        written = engine.sql("INSERT INTO items SELECT * FROM past.items WHERE id = 1", "itemsdb")
        assert written.rowcount == 1
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
        past_snapshot(engine, good)
        qty = engine.sql("SELECT qty FROM past.items WHERE id = 2").scalar()
        engine.sql(f"UPDATE items SET qty = {qty} WHERE id = 2", "itemsdb")
        assert db.get("items", (2,))[2] == 20

    def test_empty_diff(self, engine, items_db):
        fill_items(items_db, 3)
        past_snapshot(engine, items_db.env.clock.now())
        assert self._rows(engine, "past.items") == self._rows(engine, "itemsdb.items")


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
        # Looking a transaction up reads no record: no row body is decoded.
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

    def test_finds_a_transaction_near_the_tip_without_a_scan(self, items_db, monkeypatch):
        """Over a log of several 64 KiB blocks, history and undo of a
        transaction near the tip read no log block sequentially: the log's
        transaction directory names its end record, and that record and
        its chain are the only records either reads."""
        db = items_db
        fill_items(db, 5)
        for start in range(100, 3100, 100):
            fill_items(db, 100, start)
        txn_id = self._committed_txn(db)
        fill_items(db, 5, start=5000)
        db.log.flush()
        assert db.log.end_lsn // db.log.block_size >= 4
        chain = [header.lsn for header, _raw in db.log.scan_headers(db.log.start_lsn)
                 if header.txn_id == txn_id][::-1]
        db.log._cache.clear()
        reads = []
        read = db.log.read

        def counting(lsn, **kwargs):
            reads.append(lsn)
            return read(lsn, **kwargs)

        monkeypatch.setattr(db.log, "read", counting)
        stats = db.env.stats
        scanned = (stats.log_scan_reads, stats.log_scan_bytes)
        assert [rec.lsn for rec in transaction_history(db, txn_id)] == reads == chain
        reads.clear()
        assert undo_transaction(db, txn_id).undone == 3
        assert reads == chain
        assert (stats.log_scan_reads, stats.log_scan_bytes) == scanned

    def test_history_of_a_transaction_in_flight(self, engine, items_db):
        """Open on its own database, a transaction's history starts at its
        newest record. A standby holds its records but not its owner: there
        the history ends on the primary."""
        db = items_db
        fill_items(db, 3)
        txn = db.begin()
        db.insert(txn, "items", (70, "open", 7))
        db.update(txn, "items", (1,), {"qty": 1})
        db.log.flush()
        standby = engine.add_replica("itemsdb", "standby")
        chain = transaction_history(db, txn.txn_id)
        assert chain[0].lsn == txn.last_lsn and len(chain) == 3
        assert type(chain[-1]).__name__ == "BeginRecord"
        assert standby.db.log.transaction_span(txn.txn_id) == (txn.first_lsn, None)
        with pytest.raises(TransactionError, match="ends on the primary"):
            transaction_history(standby.db, txn.txn_id)
        db.rollback(txn)

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
