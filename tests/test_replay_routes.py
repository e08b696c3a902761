"""The replay-to-split pipeline, checked route against route.

Five routes materialize "the database at a SplitLSN" out of the same
three stages (docs/recovery.md). The battery here runs one seeded history
through all of them and asserts they agree row for row; the rest pins the
stages themselves (create-on-format redo, the analysis window, crash
recovery's restart safety) and the contract of a restored copy.
"""

from __future__ import annotations

import pytest

from repro import Column, ColumnType, DatabaseConfig, Engine, SimEnv, TableSchema
from repro.backup import restore_point_in_time, take_full_backup
from repro.config import LoggingExtensions
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.database import Database
from repro.engine.recovery import analyze_log, redo_pass
from repro.errors import CatalogError, ReproError, RetentionExceededError
from repro.storage.buffer import Frame
from repro.storage.page import Page, PageType
from repro.tools import check_database
from repro.wal.apply import REDO_BATCH_RECORDS, PageModifier, RedoApplier
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN
from repro.wal.records import (
    ClrRecord,
    DeformatPageRecord,
    DeleteRowRecord,
    FormatPageRecord,
    InsertRowRecord,
    PageImageRecord,
    PreformatPageRecord,
    UpdateRowRecord,
)
from tests.conftest import ITEMS_SCHEMA, fill_items, scanned_checkpoints

SMALL_PAGES = DatabaseConfig(page_size=1024, buffer_pool_pages=64)
TABLES = ("items", "parts", "notes")


def _like_items(name: str) -> TableSchema:
    return TableSchema(
        name,
        (
            Column("id", ColumnType.INT),
            Column("name", ColumnType.STR, max_len=64),
            Column("qty", ColumnType.INT),
        ),
        key=("id",),
    )


def _fill(db, table: str, lo: int, hi: int) -> None:
    with db.transaction() as txn:
        for i in range(lo, hi):
            db.insert(txn, table, (i, f"{table}-{i}", i * 10))


def _rows(reader) -> dict[str, list]:
    return {table: list(reader.scan(table)) for table in TABLES}


# ----------------------------------------------------------------------
# One history, five routes
# ----------------------------------------------------------------------


class History:
    """Two B-trees and a heap on 1 KiB pages; both kinds of backup early;
    then B-tree splits onto pages the backups never saw, a rolled-back
    transaction (its CLRs precede every mark), one loser that began before
    the analysis-base checkpoint and one inside the window; three marks,
    each with a different set of transactions in flight."""

    def __init__(self) -> None:
        self.engine = Engine(SimEnv.for_tests())
        db = self.db = self.engine.create_database("src", SMALL_PAGES)
        clock = db.env.clock
        db.create_table(_like_items("items"))
        db.create_table(_like_items("parts"))
        db.create_table(_like_items("notes"), heap=True)
        _fill(db, "items", 0, 40)
        _fill(db, "parts", 0, 20)
        _fill(db, "notes", 0, 10)
        clock.advance(10)
        self.full = take_full_backup(db)
        self.engine.backup_database("src")
        clock.advance(10)

        old_loser = db.begin()  # in the next checkpoint's active table
        db.update(old_loser, "items", (1,), {"qty": -1})
        db.insert(old_loser, "notes", (100, "old-loser", 0))
        clock.advance(1)
        self.base_checkpoint = db.checkpoint()
        clock.advance(1)
        _fill(db, "items", 40, 300)  # splits; pages formatted after the backups

        rolled = db.begin()
        db.insert(rolled, "items", (1000, "rolled", 0))
        db.update(rolled, "parts", (2,), {"qty": -2})
        db.delete(rolled, "items", (5,))
        db.insert(rolled, "notes", (101, "rolled", 0))
        db.rollback(rolled)

        young_loser = db.begin()  # begins inside the analysis window
        db.update(young_loser, "parts", (3,), {"qty": -3})
        db.insert(young_loser, "items", (2000, "young", 0))

        self.marks: list[float] = []
        self._mark()  # both losers in flight
        _fill(db, "parts", 20, 60)
        with db.transaction() as txn:
            for i in range(40, 80):
                db.delete(txn, "items", (i,))
        self._mark()
        db.commit(old_loser)
        _fill(db, "items", 300, 340)
        self._mark()  # old loser committed, young one still in flight
        db.rollback(young_loser)
        _fill(db, "parts", 60, 70)
        clock.advance(5)
        self._serial = 0

    def _mark(self) -> None:
        db = self.db
        with db.transaction() as txn:
            db.update(txn, "parts", (10,), {"qty": len(self.marks)})
        self.marks.append(db.env.clock.now())
        db.env.clock.advance(5)

    def _name(self, stem: str) -> str:
        self._serial += 1
        return f"{stem}{self._serial}"

    # -- the routes: each returns a reader of the state at ``wall`` ------

    def asof_snapshot(self, wall: float):
        return self.engine.create_asof_snapshot("src", self._name("snap"), wall)

    def backup_restore(self, wall: float):
        return restore_point_in_time(
            self.engine, self.full, self.db, wall, self._name("pitr")
        )

    def archive_restore(self, wall: float):
        return self.engine.restore_from_archive("src", wall)

    def delayed_replica(self, wall: float):
        standby = self.engine.add_replica("src", apply_delay_s=1e9)
        return self.engine.promote_replica(standby.name, up_to=wall)

    def seeded_replica(self, wall: float):
        standby = self.engine.add_replica(
            "src", apply_delay_s=1e9, seed_from_backup=True
        )
        return self.engine.promote_replica(standby.name, up_to=wall)


ROUTES = (
    "asof_snapshot",
    "backup_restore",
    "archive_restore",
    "delayed_replica",
    "seeded_replica",
)


@pytest.fixture(scope="module")
def history() -> History:
    return History()


@pytest.fixture(scope="module")
def reference(history) -> list[dict]:
    """Rows per table at each mark, by the paper's own mechanism."""
    return [_rows(history.asof_snapshot(wall)) for wall in history.marks]


class TestRouteAgreement:
    def test_history_has_the_shapes_it_promises(self, history, reference):
        db, log = history.db, history.db.log
        splits = [find_split_lsn(db, wall) for wall in history.marks]
        assert all(split > history.base_checkpoint for split in splits)
        base = analysis_base(log, splits[0], log.start_lsn)
        assert base == history.base_checkpoint
        analysis = analyze_log(log, base, splits[0] + 1)
        assert len(analysis.losers) == 2
        spanning = {txn_id for txn_id, _last in log.read(base).active_txns}
        assert len(spanning & analysis.losers.keys()) == 1
        formatted_later = {
            rec.page_id
            for rec in log.scan(history.full.backup_lsn, splits[0])
            if isinstance(rec, FormatPageRecord)
        }
        assert formatted_later - history.full.pages.keys()
        # What each mark must and must not show.
        first, _second, third = reference
        assert (1, "items-1", 10) in first["items"]  # old loser in flight
        assert (1, "items-1", -1) in third["items"]  # ... committed by now
        assert (100, "old-loser", 0) in third["notes"]
        for state in reference:
            assert not any(row[1] in ("rolled", "young") for row in state["items"])
            assert (3, "parts-3", 30) in state["parts"]
            assert (5, "items-5", 50) in state["items"]
        ids = [[row[0] for row in state["items"]] for state in reference]
        assert ids[0] == list(range(300))
        assert ids[1] == [*range(40), *range(80, 300)]
        assert ids[2] == [*range(40), *range(80, 340)]

    @pytest.mark.parametrize("mark", range(3))
    @pytest.mark.parametrize("route", ROUTES)
    def test_route_matches_reference(self, history, reference, route, mark):
        reader = getattr(history, route)(history.marks[mark])
        assert _rows(reader) == reference[mark]
        report = check_database(reader)
        assert report.ok, report.problems


# ----------------------------------------------------------------------
# The same routes over a records-only analysis base
# ----------------------------------------------------------------------


class RecordsOnlyHistory:
    """Backups early; then one loser, and a pooled AS OF read while it is
    open: the read's build writes a records-only checkpoint naming it. A
    mark follows, after B-tree splits and more commits, so the newest
    checkpoint at or before the mark's split — its analysis base — is
    that records-only one. ``at_mark`` is the committed state there."""

    def __init__(self, **engine_args) -> None:
        self.engine = Engine(SimEnv.for_tests(), **engine_args)
        db = self.db = self.engine.create_database("src", SMALL_PAGES)
        clock = db.env.clock
        db.create_table(_like_items("items"))
        db.create_table(_like_items("parts"))
        db.create_table(_like_items("notes"), heap=True)
        self.rows: dict[str, dict] = {table: {} for table in TABLES}
        self._fill("items", 0, 40)
        self._fill("parts", 0, 20)
        self._fill("notes", 0, 10)
        clock.advance(10)
        self.full = take_full_backup(db)
        self.engine.backup_database("src")
        clock.advance(10)
        early = clock.now()
        self._fill("parts", 20, 30)

        loser = db.begin()
        db.update(loser, "items", (1,), {"qty": -1})
        db.insert(loser, "notes", (100, "loser", 0))
        clock.advance(1)
        with self.engine.query_as_of("src", early):
            pass
        self.anchor = scanned_checkpoints(db.log)[0][0]
        clock.advance(1)
        self._fill("items", 40, 300)  # splits; pages formatted after the backups
        db.update(loser, "parts", (3,), {"qty": -3})
        with db.transaction() as txn:
            for i in range(40, 80):
                db.delete(txn, "items", (i,))
                del self.rows["items"][i]
        with db.transaction() as txn:
            db.update(txn, "parts", (10,), {"qty": 0})
        self.rows["parts"][10] = (10, "parts-10", 0)
        self.mark = clock.now()
        self.at_mark = {table: sorted(rows.values()) for table, rows in self.rows.items()}
        clock.advance(5)
        db.commit(loser)
        self._fill("items", 300, 340)
        clock.advance(5)
        self.loser = loser.txn_id

    def _fill(self, table: str, lo: int, hi: int) -> None:
        _fill(self.db, table, lo, hi)
        self.rows[table].update((i, (i, f"{table}-{i}", i * 10)) for i in range(lo, hi))

    # -- the routes: the pooled read's rows, or a reader, at the mark -----

    def pooled_asof(self):
        with self.engine.query_as_of("src", self.mark) as snap:
            return {table: sorted(snap.scan(table)) for table in TABLES}

    def backup_restore(self):
        return restore_point_in_time(self.engine, self.full, self.db, self.mark, "pitr")

    def archive_restore(self):
        return self.engine.restore_from_archive("src", self.mark)

    def delayed_replica(self):
        standby = self.engine.add_replica("src", apply_delay_s=1e9)
        return self.engine.promote_replica(standby.name, up_to=self.mark)


@pytest.fixture(scope="module")
def records_only() -> RecordsOnlyHistory:
    return RecordsOnlyHistory()


class TestRecordsOnlyBase:
    def test_the_split_is_analysed_from_a_records_only_checkpoint(self, records_only):
        db, log = records_only.db, records_only.db.log
        split = find_split_lsn(db, records_only.mark)
        assert analysis_base(log, split, log.start_lsn) == records_only.anchor
        assert db.last_checkpoint_lsn < records_only.anchor  # not the boot page's
        assert db.boot_record().last_checkpoint_lsn == db.last_checkpoint_lsn
        named = {txn_id for txn_id, _last in log.read(records_only.anchor).active_txns}
        assert named == {records_only.loser}
        assert log.in_flight(split).keys() == {records_only.loser}

    @pytest.mark.parametrize("store", [True, False], ids=["store", "no_store"])
    def test_pooled_asof_matches_the_model(self, records_only, store):
        history = records_only if store else RecordsOnlyHistory(version_store_budget=0)
        assert history.pooled_asof() == records_only.at_mark

    @pytest.mark.parametrize("route", ["backup_restore", "archive_restore", "delayed_replica"])
    def test_restore_route_matches_the_model(self, records_only, route):
        reader = getattr(records_only, route)()
        assert {table: sorted(reader.scan(table)) for table in TABLES} == records_only.at_mark
        report = check_database(reader)
        assert report.ok, report.problems


# ----------------------------------------------------------------------
# The restored copy's contract (both restore routes)
# ----------------------------------------------------------------------


def _scenario(engine, db):
    """Backup of both kinds, a committed change, a mark, a loser in flight
    at the mark, later changes. Returns ``(restore, mark)``."""
    fill_items(db, 20)
    full = take_full_backup(db)
    engine.backup_database(db.name)
    db.env.clock.advance(10)
    loser = db.begin()
    db.update(loser, "items", (2,), {"qty": -2})
    with db.transaction() as txn:
        db.update(txn, "items", (1,), {"qty": 1001})
    mark = db.env.clock.now()
    db.env.clock.advance(10)
    db.commit(loser)
    fill_items(db, 5, start=100)
    db.env.clock.advance(10)

    def pitr(name):
        return restore_point_in_time(engine, full, db, mark, name)

    def archive(name):
        return engine.restore_from_archive(db.name, mark, name)

    return {"pitr": pitr, "archive": archive}, mark


@pytest.mark.parametrize("route", ["pitr", "archive"])
class TestRestoredCopyContract:
    def test_live_name_is_refused_and_left_alone(self, engine, items_db, route):
        restores, _mark = _scenario(engine, items_db)
        rows = list(items_db.scan("items"))
        with pytest.raises(CatalogError, match="already exists"):
            restores[route]("itemsdb")
        assert engine.database("itemsdb") is items_db
        assert not items_db.read_only
        assert list(items_db.scan("items")) == rows

    def test_registered_like_any_database(self, engine, items_db, route):
        restores, _mark = _scenario(engine, items_db)
        restored = restores[route]("copy")
        assert engine.database("copy") is restored
        assert restored.version_store is engine.version_store
        gauges = engine.metrics_snapshot("log.copy.*")["gauges"]
        assert gauges["log.copy.end_lsn"] == restored.log.end_lsn
        engine.drop_database("copy")
        assert not engine.metrics_snapshot("log.copy.*")["gauges"]
        assert "copy" not in engine.databases

    def test_log_continues_the_source_lsn_space(self, engine, items_db, route):
        restores, mark = _scenario(engine, items_db)
        split = find_split_lsn(items_db, mark)
        restored = restores[route]("copy")
        assert restored.get("items", (2,))[2] == 20  # the loser was undone
        assert restored.log.start_lsn > split
        page_lsns = []
        for page_id in restored.alloc.allocated_page_ids():
            with restored.fetch_page(page_id) as guard:
                page_lsns.append(guard.page.page_lsn)
        assert max(page_lsns) > split  # restore-undo's CLRs
        assert all(lsn < restored.log.end_lsn for lsn in page_lsns)
        assert check_database(restored).ok

    def test_asof_on_the_copy_is_refused_typed(self, engine, items_db, route):
        restores, mark = _scenario(engine, items_db)
        restores[route]("copy")
        with pytest.raises(RetentionExceededError, match="precedes the retained log"):
            with engine.query_as_of("copy", mark):
                pass
        with pytest.raises(RetentionExceededError):
            engine.sql(f"SELECT qty FROM items AS OF {mark!r} WHERE id = 1", "copy")


# ----------------------------------------------------------------------
# Redo: create-on-format
# ----------------------------------------------------------------------


def _leaf_history(db) -> tuple[int, list]:
    """A page born by a format record and the page modifications that
    followed it, in LSN order."""
    db.create_table(ITEMS_SCHEMA)
    fill_items(db, 400)
    records = [rec for rec in db.log.scan(db.log.start_lsn) if rec.IS_PAGE_MOD]
    page_id = next(
        rec.page_id for rec in reversed(records) if isinstance(rec, FormatPageRecord)
    )
    chain = [rec for rec in records if rec.page_id == page_id]
    assert isinstance(chain[0], FormatPageRecord) and len(chain) > 6
    assert len(chain) < REDO_BATCH_RECORDS
    return page_id, chain


def _shell(engine, name: str = "shell") -> Database:
    return Database(name, SMALL_PAGES, engine.env, bootstrap=False)


def _durable_bytes(db, page_id: int) -> bytes:
    db.buffer.flush_all()
    return bytes(db.file_manager.read_page_raw(page_id))


class TestCreateOnFormat:
    def test_format_first_page_is_never_read(self, engine, small_db):
        _page_id, chain = _leaf_history(small_db)
        shell = _shell(engine)
        before = engine.env.stats.snapshot()
        assert RedoApplier(shell).apply(chain) == len(chain)
        assert engine.env.stats.delta(before).page_reads == 0
        # Without the format in front the page's bytes matter: one read.
        shell.buffer.flush_all()
        shell.buffer.crash()
        before = engine.env.stats.snapshot()
        assert RedoApplier(shell).apply(chain[1:]) == 0
        assert engine.env.stats.delta(before).page_reads == 1

    def test_page_ahead_of_the_format_ends_where_the_gate_would(self, engine, small_db):
        page_id, chain = _leaf_history(small_db)
        # No-shortcut reference: the page read back from disk, every
        # record offered, the pageLSN gate alone deciding.
        plain = _shell(engine)
        RedoApplier(plain).apply(chain[:-3])
        plain.buffer.flush_all()
        plain.buffer.crash()
        with plain.fetch_page(page_id) as guard:
            for rec in chain:
                if guard.page.page_lsn < rec.lsn:
                    rec.redo(guard.page)
                    guard.page.page_lsn = rec.lsn
                    guard.mark_dirty()
        # The applier: same durable page, same records; the batch opens
        # with the format, so it rebuilds from a zeroed frame instead.
        shortcut = _shell(engine, "shell2")
        RedoApplier(shortcut).apply(chain[:-3])
        shortcut.buffer.flush_all()
        shortcut.buffer.crash()
        assert RedoApplier(shortcut).apply(chain) == len(chain)
        assert _durable_bytes(shortcut, page_id) == _durable_bytes(plain, page_id)


# ----------------------------------------------------------------------
# Redo: the pageLSN gate, once per page run
# ----------------------------------------------------------------------


def reference_apply(target, records) -> int:
    """The applier as it was before the gate moved out of the record
    loop — per record: the gate, the redo, a pageLSN write and a
    ``mark_dirty`` — kept as the oracle for what redo leaves behind."""
    mods = [rec for rec in records if rec.IS_PAGE_MOD]
    applied = 0
    for lo in range(0, len(mods), REDO_BATCH_RECORDS):
        by_page: dict[int, list] = {}
        for rec in mods[lo : lo + REDO_BATCH_RECORDS]:
            by_page.setdefault(rec.page_id, []).append(rec)
        for page_id, recs in by_page.items():
            create = isinstance(recs[0], FormatPageRecord)
            with target.fetch_page(page_id, create=create) as guard:
                page = guard.page
                for rec in recs:
                    if page.is_formatted() and page.page_lsn >= rec.lsn:
                        continue
                    rec.redo(page)
                    page.page_lsn = rec.lsn
                    if isinstance(rec, PageImageRecord):
                        page.last_image_lsn = rec.lsn
                    guard.mark_dirty()
                    applied += 1
    return applied


GATE_PAGES = (3, 4)


def _gate_history() -> list:
    """Page modifications of two pages, interleaved, off a bare log: on
    page 3 a format, rows with a full image every third modification, a
    compensated format (a CLR whose body deformats), a re-format spliced
    through a preformat, more rows; page 4 alongside."""
    env = SimEnv.for_tests()
    log = LogManager(env)
    modifier = PageModifier(log, LoggingExtensions(page_image_interval=3), env)
    frames = {pid: Frame(Page(bytearray(SMALL_PAGES.page_size)), pid) for pid in GATE_PAGES}

    def rows(pid: int, count: int, tag: str) -> None:
        for i in range(count):
            row = f"{tag}-{i}".encode() * 4
            modifier.apply(None, frames[pid], InsertRowRecord(slot=i // 2, row=row, page_id=pid))
        modifier.apply(None, frames[pid], UpdateRowRecord(slot=1, new=tag.encode() * 30, page_id=pid))
        modifier.apply(None, frames[pid], DeleteRowRecord(slot=0, page_id=pid))

    first = modifier.format_page(None, frames[3], PageType.HEAP, object_id=7)
    modifier.format_page(None, frames[4], PageType.HEAP, object_id=8)
    rows(3, 5, "a")
    rows(4, 4, "b")
    deformat = DeformatPageRecord(page_type=int(PageType.HEAP), page_id=3, object_id=7)
    modifier.apply(None, frames[3], ClrRecord(compensated_lsn=first, comp=deformat, page_id=3))
    modifier.format_page(None, frames[3], PageType.HEAP, object_id=9, was_ever_allocated=True)
    rows(3, 6, "c")
    rows(4, 3, "d")
    records = list(log.scan(FIRST_LSN))
    kinds = [type(rec) for rec in records if rec.page_id == 3]
    assert kinds.count(FormatPageRecord) == 2 and PreformatPageRecord in kinds
    assert ClrRecord in kinds and kinds.count(PageImageRecord) >= 4
    return records


def _redo_outcome(engine, apply, on_page: list, stream: list, *, on_disk: bool):
    """What ``apply(shell, stream)`` returns (or raises) on a shell whose
    pages hold ``on_page`` — in the pool, or flushed and read back — and
    the durable bytes, pageLSN and last image LSN of each page after."""
    shell = _shell(engine)
    reference_apply(shell, on_page)
    if on_disk:
        shell.buffer.flush_all()
        shell.buffer.crash()
    try:
        result = apply(shell, stream)
    except ReproError as exc:
        result = f"{type(exc).__name__}: {exc}"
    pages = {}
    for page_id in GATE_PAGES:
        page = Page(bytearray(_durable_bytes(shell, page_id)))
        pages[page_id] = (bytes(page.data), page.page_lsn, page.last_image_lsn)
    return result, pages


def _applier(target, records) -> int:
    return RedoApplier(target).apply(records)


class TestGateOncePerRun:
    def test_equals_the_per_record_gate_for_every_prefix_on_the_page(self, engine):
        records = _gate_history()
        skipped = 0
        for k in range(len(records) + 1):
            # The whole stream (it opens with a format: create-on-format,
            # a page flushed ahead of it included), one overlapping what
            # the page holds, and the exact continuation.
            for j in sorted({0, max(0, k - 5), k}):
                for on_disk in (False, True):
                    args = (records[:k], records[j:])
                    got = _redo_outcome(engine, _applier, *args, on_disk=on_disk)
                    want = _redo_outcome(engine, reference_apply, *args, on_disk=on_disk)
                    assert got == want, (k, j, on_disk)
                    if isinstance(got[0], int) and 0 < got[0] < len(records) - j:
                        skipped += 1
        assert skipped  # the gate skipped a prefix and applied the rest

    def test_a_redo_that_raises_leaves_what_the_per_record_gate_left(self, engine):
        records = _gate_history()
        torn = InsertRowRecord(slot=999, row=b"x", page_id=3)
        torn.lsn = records[-1].lsn + 1
        stream = records[:-1] + [torn]
        for k in (0, len(records) // 2):
            got = _redo_outcome(engine, _applier, records[:k], stream, on_disk=True)
            want = _redo_outcome(engine, reference_apply, records[:k], stream, on_disk=True)
            assert got == want and got[0].startswith("StorageError: slot 999")
            # The applied part of the run is durable, stamped with its last LSN.
            assert got[1][3][1] == max(rec.lsn for rec in records[:-1] if rec.page_id == 3)


# ----------------------------------------------------------------------
# The analysis window
# ----------------------------------------------------------------------


class TestAnalysisBase:
    def _five_checkpoints(self, db):
        for generation in range(5):
            fill_items(db, 5, start=generation * 5)
            db.env.clock.advance(10)
            db.checkpoint()
        return db.log

    def _oracle(self, log, split: int, floor: int) -> int:
        """Brute force: scan everything retained for checkpoint records."""
        return next((lsn for lsn, _wall, _prev in scanned_checkpoints(log) if lsn <= split), floor)

    def _check_every_split(self, log) -> set[int]:
        floor = log.start_lsn
        bases = set()
        for rec in log.scan(log.start_lsn):
            base = analysis_base(log, rec.lsn, floor)
            assert base == self._oracle(log, rec.lsn, floor), hex(rec.lsn)
            bases.add(base)
        return bases

    def test_matches_oracle_at_every_split(self, items_db):
        log = self._five_checkpoints(items_db)
        bases = self._check_every_split(log)
        # bootstrap's checkpoint + our five, and the floor before any.
        assert len(bases) >= 6

    def test_matches_oracle_on_a_truncated_log(self, items_db):
        log = self._five_checkpoints(items_db)
        chain = [lsn for lsn, _wall, _prev in scanned_checkpoints(log)]
        log.truncate_before(chain[2])
        bases = self._check_every_split(log)
        assert min(bases) == chain[2] == log.start_lsn
        assert analysis_base(log, chain[2] - 1, 7) == 7  # nothing covers it


# ----------------------------------------------------------------------
# Crash recovery restarts onto the same bytes
# ----------------------------------------------------------------------


def _crashed(seed_rows: int) -> Database:
    """A small-pool database crashed with format records in its redo
    window (some of those pages already evicted to disk), a committed
    tail and a loser."""
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database(
        "crashy", DatabaseConfig(page_size=1024, buffer_pool_pages=12)
    )
    db.create_table(ITEMS_SCHEMA)
    fill_items(db, 60)
    db.checkpoint()
    fill_items(db, seed_rows, start=60)  # splits + evictions past the checkpoint
    loser = db.begin()
    db.update(loser, "items", (3,), {"qty": -3})
    db.insert(loser, "items", (9000, "loser", 0))
    db.log.flush()
    db.crash()
    return db


def _all_durable_pages(db) -> dict[int, bytes]:
    db.buffer.flush_all()
    return {
        pid: bytes(db.file_manager.read_page_raw(pid))
        for pid in range(db.file_manager.page_count)
    }


def test_recovery_interrupted_after_redo_ends_on_the_same_bytes():
    once = _crashed(300)
    once.recover()

    twice = _crashed(300)
    window = [
        rec
        for rec in twice.log.scan(twice.last_checkpoint_lsn or twice.log.start_lsn)
        if isinstance(rec, FormatPageRecord)
    ]
    assert window  # the create-on-format path is on the line
    twice.reload_boot()
    analysis = analyze_log(twice.log, twice.last_checkpoint_lsn)
    assert redo_pass(twice, analysis) > 0
    twice.buffer.flush_all()  # the interrupted attempt's pages reach disk ...
    twice.crash()  # ... and it dies before undo
    twice.recover()

    assert _all_durable_pages(twice) == _all_durable_pages(once)
    assert once.get("items", (3,))[2] == 30 and once.get("items", (9000,)) is None
    assert check_database(twice).ok
