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

    # An update is logged as the bytes it changed: the undo reads the row
    # as the transaction left it and decides by column. A column the
    # transaction changed conflicts when a later write changed it again,
    # whichever of its bytes that write changed; only those columns are put
    # back.

    def test_a_later_write_to_another_column_does_not_conflict(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)  # item 1's qty 10 -> 111
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"name": "ITEM-1"})  # same length
        report = undo_transaction(db, txn_id)
        assert report.undone == 3 and report.conflicts == []
        assert db.get("items", (1,)) == (1, "ITEM-1", 10)  # the later write survives

    def test_a_later_write_to_the_same_column_conflicts(self, items_db):
        db = items_db
        fill_items(db, 5)
        with db.transaction() as txn:
            db.update(txn, "items", (3,), {"name": "third"})
        txn_id = txn.txn_id
        with db.transaction() as txn:
            db.update(txn, "items", (3,), {"name": "thirx"})  # one byte of the span
        with pytest.raises(TransactionUndoConflict):
            undo_transaction(db, txn_id)
        report = undo_transaction(db, txn_id, conflict_policy="skip")
        assert len(report.conflicts) == 1 and db.get("items", (3,))[1] == "thirx"

    @pytest.mark.parametrize(
        "column, first, then, later",
        [("qty", 10, 11, 267), ("name", "abc", "abd", "xbd")],
        ids=["int", "str"],
    )
    def test_a_later_write_outside_the_bytes_written_conflicts(
        self, items_db, column, first, then, later
    ):
        """The transaction changes one byte of the column (10 -> 11 is
        0x0A -> 0x0B); a later write changes only the column's other
        bytes (267 is 0x010B), so the byte written still reads as written.
        Splicing the old byte back would leave 266 (or "xbc"), a value no
        one wrote."""
        db = items_db
        fill_items(db, 5)
        with db.transaction() as txn:
            db.update(txn, "items", (4,), {column: first})
        with db.transaction() as txn:
            db.update(txn, "items", (4,), {column: then})
        txn_id = txn.txn_id
        with db.transaction() as txn:
            db.update(txn, "items", (4,), {column: later})
        with pytest.raises(TransactionUndoConflict):
            undo_transaction(db, txn_id)
        assert db.get("items", (4,))[("id", "name", "qty").index(column)] == later
        undo_transaction(db, txn_id, conflict_policy="force")
        assert db.get("items", (4,))[("id", "name", "qty").index(column)] == first

    def test_a_later_change_of_another_columns_length_does_not_conflict(self, items_db):
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"name": "a longer name"})  # shifts qty
        report = undo_transaction(db, txn_id)
        assert report.undone == 3 and report.conflicts == []
        assert db.get("items", (1,)) == (1, "a longer name", 10)

    def test_force_restores_the_columns_the_transaction_changed(self, items_db):
        """Over a row a later writer reshaped and wrote the same column of,
        ``force`` puts that column back and keeps the later writer's other
        column."""
        db = items_db
        fill_items(db, 5)
        txn_id = self._committed_txn(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"name": "a longer name", "qty": 777})
        report = undo_transaction(db, txn_id, conflict_policy="force")
        assert report.undone == 3 and len(report.conflicts) == 1
        assert db.get("items", (1,)) == (1, "a longer name", 10)

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

    def test_a_transaction_begun_below_the_retention_horizon(self, items_db, monkeypatch):
        """Retention cuts between a committed transaction's two inserts:
        its history and its undo raise RetentionExceededError, as AS OF
        does, and read no record to tell."""
        db = items_db
        fill_items(db, 3)
        txn = db.begin()
        db.insert(txn, "items", (80, "first", 8))
        db.log.flush()
        db.insert(txn, "items", (81, "second", 8))
        cut = txn.last_lsn
        db.commit(txn)
        db.log.truncate_before(cut)
        begin, end = db.log.transaction_span(txn.txn_id)
        assert begin < db.log.start_lsn < end
        monkeypatch.setattr(db.log, "read", None)
        with pytest.raises(RetentionExceededError, match="retention horizon"):
            transaction_history(db, txn.txn_id)
        with pytest.raises(RetentionExceededError, match="retention horizon"):
            undo_transaction(db, txn.txn_id)

    def test_a_transaction_retention_dropped_whole(self, items_db, monkeypatch):
        """Retention cuts past a committed transaction's COMMIT too: its
        history and its undo still raise RetentionExceededError, read no
        record to tell, and an id never begun is still not found."""
        db = items_db
        fill_items(db, 3)
        txn_id = self._committed_txn(db)
        fill_items(db, 2, start=10)
        db.log.flush()
        db.log.truncate_before(db.log.durable_lsn)
        assert db.log.transaction_span(txn_id) is None
        monkeypatch.setattr(db.log, "read", None)
        with pytest.raises(RetentionExceededError, match="retention horizon"):
            transaction_history(db, txn_id)
        with pytest.raises(RetentionExceededError, match="retention horizon"):
            undo_transaction(db, txn_id)
        with db.transaction() as later:
            pass
        never = later.txn_id + 1
        assert transaction_history(db, never) == []
        with pytest.raises(TransactionError, match="not found"):
            undo_transaction(db, never)

    @pytest.mark.parametrize("route", ["archive restore", "seeded standby"])
    def test_a_log_opened_mid_history_knows_what_began_below_it(
        self, engine, items_db, route
    ):
        """A restored copy's or a backup-seeded standby's log starts past
        transactions its source committed: their history and undo raise
        RetentionExceededError there, as on a primary that truncated them,
        and an id never assigned is still not found."""
        db = items_db
        ids = []
        for i in range(5):
            with db.transaction() as txn:
                db.insert(txn, "items", (i, f"i{i}", i))
            ids.append(txn.txn_id)
        engine.backup_database("itemsdb")
        mark = engine.env.clock.now()
        engine.env.clock.advance(1.0)
        for i in range(5, 10):
            with db.transaction() as txn:
                db.insert(txn, "items", (i, f"i{i}", i))
        if route == "archive restore":
            copy = engine.restore_from_archive("itemsdb", mark)
        else:
            copy = engine.add_replica("itemsdb", "standby", seed_from_backup=True).db
        for txn_id in ids:
            with pytest.raises(RetentionExceededError, match="retention horizon"):
                copy.log.retained_span(txn_id)
            with pytest.raises(RetentionExceededError, match="retention horizon"):
                transaction_history(copy, txn_id)
            with pytest.raises(RetentionExceededError, match="retention horizon"):
                undo_transaction(copy, txn_id)
        never = txn.txn_id + 100
        assert copy.log.retained_span(never) is None
        assert transaction_history(copy, never) == []
        with pytest.raises(TransactionError, match="not found"):
            undo_transaction(copy, never)

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
