"""As-of snapshot integration tests: the paper's headline behaviors."""

from __future__ import annotations

import pytest

from repro import TableSchema
from repro.errors import CatalogError, RetentionExceededError, SnapshotError
from tests.conftest import ITEMS_SCHEMA, fill_items


def mark(db) -> float:
    """Current simulated time, then advance so later commits are distinct."""
    now = db.env.clock.now()
    db.env.clock.advance(10)
    return now


class TestBasicTimeTravel:
    def test_point_query_in_the_past(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 999})
        snap = engine.create_asof_snapshot("itemsdb", "past", t0)
        assert snap.get("items", (1,)) == (1, "item-1", 10)
        assert db.get("items", (1,))[2] == 999

    def test_scan_in_the_past(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        t0 = mark(db)
        with db.transaction() as txn:
            for i in range(10, 30):
                db.insert(txn, "items", (i, f"late-{i}", i))
            db.delete(txn, "items", (0,))
        snap = engine.create_asof_snapshot("itemsdb", "past", t0)
        assert [r[0] for r in snap.scan("items")] == list(range(10))

    def test_multiple_asof_points(self, engine, items_db):
        db = items_db
        states = {}
        for generation in range(4):
            fill_items(db, 5, start=generation * 5)
            states[mark(db)] = 5 * (generation + 1)
        for idx, (t, expected) in enumerate(states.items()):
            snap = engine.create_asof_snapshot("itemsdb", f"gen{idx}", t)
            assert sum(1 for _ in snap.scan("items")) == expected

    def test_snapshot_unaffected_by_later_writes(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        snap = engine.create_asof_snapshot("itemsdb", "pin", t0)
        assert snap.get("items", (2,))[2] == 20
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": -2})
        # Page already materialized in the sparse file: stays historical.
        assert snap.get("items", (2,))[2] == 20

    def test_lazy_prepare_only_touched_pages(self, engine, small_config):
        db = engine.create_database("lazy", small_config)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 500)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (100,), {"qty": 1})
        snap = engine.create_asof_snapshot("lazy", "l", t0)
        total_pages = len(db.table("items").accessor.page_ids())
        snap.get("items", (100,))
        # Only the descent path was prepared, not the whole table.
        assert snap.sparse.page_count < total_pages / 2

    def test_string_timestamp_accepted(self, engine, items_db):
        db = items_db
        fill_items(db, 3)
        moment = db.env.clock.to_datetime(mark(db))
        with db.transaction() as txn:
            db.delete(txn, "items", (0,))
        snap = engine.create_asof_snapshot(
            "itemsdb", "iso", moment.replace(tzinfo=None).isoformat(sep=" ")
        )
        assert snap.get("items", (0,)) is not None


class TestDroppedTableRecovery:
    def test_paper_intro_workflow(self, engine, items_db):
        """The dropped-table scenario from the paper's introduction."""
        db = items_db
        fill_items(db, 20)
        t_good = mark(db)
        db.drop_table("items")
        assert "items" not in db.tables()

        # 1. Mount a snapshot, check metadata (iterating as needed).
        snap = engine.create_asof_snapshot("itemsdb", "probe", t_good)
        assert snap.table_exists("items")
        schema = snap.schema("items")
        assert schema.column_names == ("id", "name", "qty")

        # 2. Recreate the table and reconcile via extract + insert.
        db.create_table(schema)
        with db.transaction() as txn:
            for row in snap.scan("items"):
                db.insert(txn, "items", row)
        assert sum(1 for _ in db.scan("items")) == 20
        assert db.get("items", (7,)) == (7, "item-7", 70)

    def test_iterative_point_search(self, engine, items_db):
        """Probing earlier and earlier times until the table exists —
        cheap because only metadata pages are unwound."""
        db = items_db
        fill_items(db, 10)
        t_exists = mark(db)
        db.drop_table("items")
        t_gone = mark(db)
        snap_late = engine.create_asof_snapshot("itemsdb", "late", t_gone)
        assert not snap_late.table_exists("items")
        engine.drop_snapshot("late")
        snap_early = engine.create_asof_snapshot("itemsdb", "early", t_exists)
        assert snap_early.table_exists("items")

    def test_dropped_table_survives_page_reuse(self, engine, small_config):
        """Pages of the dropped table reused by a new table: preformat
        records carry the old incarnation across the reallocation."""
        db = engine.create_database("reuse", small_config)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 200)
        t_good = mark(db)
        db.drop_table("items")
        from repro.catalog.schema import Column, ColumnType, TableSchema

        other = TableSchema(
            "other",
            (Column("k", ColumnType.INT), Column("v", ColumnType.STR, max_len=120)),
            key=("k",),
        )
        db.create_table(other)
        with db.transaction() as txn:
            for i in range(400):
                db.insert(txn, "other", (i, "fill" * 20))
        snap = engine.create_asof_snapshot("reuse", "rescue", t_good)
        rows = list(snap.scan("items"))
        assert [r[0] for r in rows] == list(range(200))


class TestInFlightTransactions:
    def test_straddling_txn_undone(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        straddler = db.begin()
        db.update(straddler, "items", (5,), {"qty": -5})
        db.insert(straddler, "items", (50, "phantom", 0))
        anchor = db.begin()
        db.update(anchor, "items", (6,), {"qty": 666})
        db.commit(anchor)
        t_mid = mark(db)
        db.commit(straddler)
        snap = engine.create_asof_snapshot("itemsdb", "mid", t_mid)
        assert snap.pending_undo_count == 1
        assert snap.get("items", (5,))[2] == 50
        assert snap.get("items", (50,)) is None
        assert snap.get("items", (6,))[2] == 666
        assert snap.pending_undo_count == 0

    def test_explicit_background_undo(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        straddler = db.begin()
        db.delete(straddler, "items", (2,))
        anchor = db.begin()
        db.insert(anchor, "items", (60, "anchor", 0))
        db.commit(anchor)
        t_mid = mark(db)
        db.commit(straddler)
        snap = engine.create_asof_snapshot("itemsdb", "bg", t_mid)
        assert snap.run_background_undo() == 1
        assert snap.get("items", (2,)) == (2, "item-2", 20)

    def test_straddler_rolled_back_later_is_also_undone(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        straddler = db.begin()
        db.update(straddler, "items", (1,), {"qty": -1})
        anchor = db.begin()
        db.insert(anchor, "items", (70, "a", 0))
        db.commit(anchor)
        t_mid = mark(db)
        db.rollback(straddler)
        snap = engine.create_asof_snapshot("itemsdb", "rb", t_mid)
        assert snap.get("items", (1,))[2] == 10

    def test_rows_on_both_sides_of_the_checkpoint_are_locked(self, engine, items_db):
        """A transaction open across the checkpoint the window starts at:
        a read of a row it changed *before* the checkpoint still waits
        for its undo, although analysis saw other rows of it."""
        db = items_db
        fill_items(db, 10)
        straddler = db.begin()
        db.update(straddler, "items", (3,), {"qty": -3})
        db.checkpoint()
        db.update(straddler, "items", (4,), {"qty": -4})
        anchor = db.begin()
        db.update(anchor, "items", (6,), {"qty": 666})
        db.commit(anchor)
        t_mid = mark(db)
        db.commit(straddler)
        snap = engine.create_asof_snapshot("itemsdb", "across", t_mid)
        assert snap.get("items", (3,))[2] == 30
        assert snap.get("items", (4,))[2] == 40

    def test_rows_a_savepoint_rollback_compensated_are_not_locked(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        straddler = db.begin()
        db.update(straddler, "items", (3,), {"qty": -3})
        db.savepoint(straddler, "sp")
        db.update(straddler, "items", (4,), {"qty": -4})
        db.rollback_to(straddler, "sp")
        anchor = db.begin()
        db.update(anchor, "items", (6,), {"qty": 666})
        db.commit(anchor)
        t_mid = mark(db)
        db.commit(straddler)
        snap = engine.create_asof_snapshot("itemsdb", "partial", t_mid)
        assert snap.get("items", (4,))[2] == 40
        assert snap.pending_undo_count == 1  # reading row 4 undid nothing
        assert snap.get("items", (3,))[2] == 30
        assert snap.pending_undo_count == 0


class TestRolledBackFormat:
    """Section 4.2's undo information in CLRs, across a rolled-back format.

    ``b`` is created and rolled back twice: first on fresh pages (the
    format is compensated by a CLR carrying a deformat), then, once ``a``
    is dropped, on ``a``'s freed pages (a CLR carrying the preformat
    image). ``c`` then re-uses the freed pages. An as-of read at every
    instant, including two with ``b`` in flight, walks page chains back
    through both kinds of CLR and must see exactly the rows committed by
    then, checkdb-clean.
    """

    def test_asof_before_between_and_after(self, engine, small_config):
        from repro.tools import check_database

        db = engine.create_database("clr", small_config)
        clock = db.env.clock
        committed: dict[str, dict] = {}
        instants = []

        def commit(table: str, rows) -> None:
            with db.transaction() as txn:
                for row in rows:
                    db.insert(txn, table, row)
            committed.setdefault(table, {}).update((row[0], row) for row in rows)

        def mark() -> None:
            clock.advance(1)
            instants.append((clock.now(), {name: sorted(rows.values()) for name, rows in committed.items()}))
            clock.advance(1)

        def rolled_back_create() -> None:
            txn = db.begin()
            db.create_table(schema("b"), txn)
            for i in range(8):  # one page: no structure modification commits meanwhile
                db.insert(txn, "b", (i, f"never-{i}", i))
            commit("ticks", [(len(committed["ticks"]), "tick", 0)])  # the split lands with b in flight
            mark()
            db.rollback(txn)
            mark()  # an abort is no commit: the same split, read after the rollback

        def schema(name: str) -> TableSchema:
            return TableSchema(name, ITEMS_SCHEMA.columns, ITEMS_SCHEMA.key)

        for name in ("ticks", "a"):
            db.create_table(schema(name))
            committed[name] = {}
        commit("a", [(i, f"a-{i}", i) for i in range(60)])
        mark()
        rolled_back_create()  # fresh pages: a deformat CLR
        db.drop_table("a")
        del committed["a"]
        mark()
        rolled_back_create()  # a's freed pages: a preformat-image CLR
        db.create_table(schema("c"))
        committed["c"] = {}
        commit("c", [(i, f"c-{i}", -i) for i in range(80)])
        mark()

        for index, (instant, expected) in enumerate(instants):
            snap = engine.create_asof_snapshot("clr", f"at{index}", instant)
            assert sorted(snap.tables()) == sorted(expected)
            assert {name: sorted(snap.scan(name)) for name in expected} == expected
            report = check_database(snap)
            assert report.ok, report.problems


class TestSnapshotSemantics:
    def test_snapshot_is_read_only_surface(self, engine, items_db):
        fill_items(items_db, 3)
        snap = engine.create_asof_snapshot("itemsdb", "ro", mark(items_db))
        assert not hasattr(snap, "insert")
        table = snap.table("items")
        assert not hasattr(table, "insert")

    def test_unknown_table_raises(self, engine, items_db):
        snap = engine.create_asof_snapshot("itemsdb", "u", mark(items_db))
        with pytest.raises(CatalogError):
            snap.table("nope")

    def test_drop_snapshot_frees_and_guards(self, engine, items_db):
        fill_items(items_db, 3)
        snap = engine.create_asof_snapshot("itemsdb", "gone", mark(items_db))
        snap.get("items", (1,))
        assert snap.sparse.page_count > 0
        engine.drop_snapshot("gone")
        with pytest.raises(SnapshotError):
            snap.get("items", (1,))
        with pytest.raises(SnapshotError):
            engine.snapshot("gone")

    def test_duplicate_snapshot_name_rejected(self, engine, items_db):
        engine.create_asof_snapshot("itemsdb", "dup", mark(items_db))
        with pytest.raises(SnapshotError):
            engine.create_asof_snapshot("itemsdb", "dup", mark(items_db))

    def test_snapshot_of_unknown_database(self, engine):
        with pytest.raises(CatalogError):
            engine.create_asof_snapshot("ghost", "s", 0.0)

    def test_sparse_caching_avoids_reprepare(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 1})
        snap = engine.create_asof_snapshot("itemsdb", "c", t0)
        snap.get("items", (1,))
        prepared = db.env.stats.pages_prepared_asof
        snap._frames.clear()  # force sparse-file path, not frame cache
        snap.get("items", (1,))
        assert db.env.stats.pages_prepared_asof == prepared

    def test_two_snapshots_same_db_independent(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 100})
        t1 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 200})
        s0 = engine.create_asof_snapshot("itemsdb", "s0", t0)
        s1 = engine.create_asof_snapshot("itemsdb", "s1", t1)
        assert s0.get("items", (1,))[2] == 10
        assert s1.get("items", (1,))[2] == 100
        assert db.get("items", (1,))[2] == 200

    def test_truncated_log_mid_window_raises_retention_error(self, engine, items_db):
        """The wall-clock retention check can pass while an in-flight
        transaction's chain still reaches below the truncation horizon;
        creation must surface RetentionExceededError, not leak the raw
        LogTruncatedError."""
        db = items_db
        fill_items(db, 5)
        straddler = db.begin()
        db.update(straddler, "items", (1,), {"qty": -1})  # early chain LSN
        db.env.clock.advance(20)
        first_checkpoint = db.checkpoint()  # straddler is active here
        db.env.clock.advance(5)
        with db.transaction() as txn:
            db.insert(txn, "items", (100, "late", 1))
        t_mid = db.env.clock.now()
        db.env.clock.advance(5)
        db.commit(straddler)
        # Truncate past the straddler's early records. t_mid is still well
        # inside the (24h default) wall-clock retention window.
        db.log.flush()
        db.log.truncate_before(first_checkpoint)
        with pytest.raises(RetentionExceededError):
            engine.create_asof_snapshot("itemsdb", "leak", t_mid)

    def test_frame_cache_eviction_during_large_scan(self, engine, small_config):
        """Scanning more pages than the snapshot frame cache holds (256)
        must evict cleanly: results stay correct and the sparse side file
        stays the durable tier the evicted frames fall back to."""
        from repro.catalog.schema import Column, ColumnType, TableSchema

        db = engine.create_database("big", small_config)
        schema = TableSchema(
            "big",
            (
                Column("id", ColumnType.INT),
                Column("pad", ColumnType.STR, max_len=420),
            ),
            key=("id",),
        )
        db.create_table(schema)
        with db.transaction() as txn:
            for i in range(600):
                db.insert(txn, "big", (i, "x" * 400))
        # A straddling transaction so the scan drives logical undo and the
        # undone pages are written back dirty to the sparse file.
        straddler = db.begin()
        db.update(straddler, "big", (300,), {"pad": "stray"})
        anchor = db.begin()
        db.update(anchor, "big", (0,), {"pad": "anchor"})
        db.commit(anchor)
        t_mid = db.env.clock.now()
        db.env.clock.advance(10)
        db.commit(straddler)

        snap = engine.create_asof_snapshot("big", "scan", t_mid)
        rows = list(snap.scan("big"))
        assert [row[0] for row in rows] == list(range(600))
        assert rows[0][1] == "anchor"  # committed before the split: kept
        assert rows[300][1] == "x" * 400  # straddler undone
        # More pages were materialized than the frame cache may hold, so
        # eviction ran; the cache is bounded and the sparse file is the
        # full record of what was prepared.
        assert snap.sparse.page_count > 256
        assert len(snap._frames) <= 256
        assert snap.side_file_bytes() == snap.sparse.page_count * db.config.page_size
        # A second scan is served from the side file: same rows, not a
        # single page re-prepared.
        prepared = db.env.stats.pages_prepared_asof
        side_bytes = snap.side_file_bytes()
        rows_again = list(snap.scan("big"))
        assert rows_again == rows
        assert db.env.stats.pages_prepared_asof == prepared
        assert snap.side_file_bytes() == side_bytes

    def test_boot_settings_visible_as_of(self, engine, items_db):
        """Even engine settings rewind: the boot page is ordinary data."""
        db = items_db
        db.set_undo_interval(111)
        t0 = mark(db)
        db.set_undo_interval(222)
        snap = engine.create_asof_snapshot("itemsdb", "boot", t0)
        from repro.engine.boot import read_boot_record

        with snap.fetch_page(0) as guard:
            rec = read_boot_record(guard.page)
        assert rec.undo_interval_s == 111
