"""ARIES crash recovery tests: crash points, losers, idempotence."""

from __future__ import annotations

import pytest

from repro.engine.recovery import AnalysisResult, analyze_log
from repro.wal.records import (
    RECORD_CLASSES,
    AbortRecord,
    BeginRecord,
    CheckpointBeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    InsertRowRecord,
    UpdateRowRecord,
)
from tests.conftest import ITEMS_SCHEMA, fill_items


def crash_and_recover(db):
    db.crash()
    db.recover()


class TestCleanRestart:
    def test_recover_committed_state(self, items_db):
        fill_items(items_db, 50)
        crash_and_recover(items_db)
        assert sum(1 for _ in items_db.scan("items")) == 50
        assert items_db.get("items", (25,)) == (25, "item-25", 250)

    def test_recover_without_checkpoint_since_writes(self, items_db):
        fill_items(items_db, 30)
        # No explicit checkpoint: redo must replay from the bootstrap one.
        crash_and_recover(items_db)
        assert sum(1 for _ in items_db.scan("items")) == 30

    def test_recover_after_checkpoint_is_cheap(self, items_db):
        fill_items(items_db, 30)
        items_db.checkpoint()
        analysis = analyze_log(items_db.log, items_db.last_checkpoint_lsn)
        assert analysis.losers == {}
        crash_and_recover(items_db)
        assert sum(1 for _ in items_db.scan("items")) == 30

    def test_double_recovery_idempotent(self, items_db):
        fill_items(items_db, 20)
        crash_and_recover(items_db)
        crash_and_recover(items_db)
        assert sum(1 for _ in items_db.scan("items")) == 20


class TestLosers:
    def test_unflushed_uncommitted_vanishes(self, items_db):
        fill_items(items_db, 10)
        txn = items_db.begin()
        items_db.insert(txn, "items", (99, "ghost", 0))
        crash_and_recover(items_db)
        assert items_db.get("items", (99,)) is None
        assert sum(1 for _ in items_db.scan("items")) == 10

    def test_flushed_uncommitted_rolled_back(self, items_db):
        fill_items(items_db, 10)
        txn = items_db.begin()
        items_db.insert(txn, "items", (99, "ghost", 0))
        items_db.update(txn, "items", (3,), {"qty": -1})
        items_db.delete(txn, "items", (5,))
        items_db.log.flush()  # durable but uncommitted
        crash_and_recover(items_db)
        assert items_db.get("items", (99,)) is None
        assert items_db.get("items", (3,))[2] == 30
        assert items_db.get("items", (5,)) is not None

    def test_loser_spanning_checkpoint(self, items_db):
        fill_items(items_db, 10)
        txn = items_db.begin()
        items_db.insert(txn, "items", (99, "ghost", 0))
        items_db.checkpoint()  # loser active at checkpoint
        items_db.update(txn, "items", (4,), {"qty": -4})
        items_db.log.flush()
        crash_and_recover(items_db)
        assert items_db.get("items", (99,)) is None
        assert items_db.get("items", (4,))[2] == 40

    def test_committed_after_checkpoint_survives(self, items_db):
        fill_items(items_db, 10)
        items_db.checkpoint()
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (50, "late", 5))
        crash_and_recover(items_db)
        assert items_db.get("items", (50,)) == (50, "late", 5)

    def test_winner_and_loser_interleaved(self, items_db):
        fill_items(items_db, 10)
        loser = items_db.begin()
        items_db.update(loser, "items", (1,), {"qty": -1})
        winner = items_db.begin()
        items_db.update(winner, "items", (2,), {"qty": 222})
        items_db.commit(winner)  # forces log: loser records durable too
        crash_and_recover(items_db)
        assert items_db.get("items", (1,))[2] == 10
        assert items_db.get("items", (2,))[2] == 222

    def test_crash_mid_rollback_resumes(self, items_db):
        """CLRs written before the crash are not re-compensated."""
        fill_items(items_db, 10)
        txn = items_db.begin()
        for i in range(5):
            items_db.update(txn, "items", (i,), {"qty": 1000 + i})
        # Roll back, then crash with the abort record unflushed but some
        # CLRs durable: simulate by flushing mid-chain.
        items_db.log.flush()
        items_db.rollback(txn)
        # rollback appended CLRs + abort; drop the tail after the 2nd CLR.
        items_db.crash()
        items_db.recover()
        for i in range(5):
            assert items_db.get("items", (i,))[2] == i * 10

    def test_new_txns_after_recovery_get_fresh_ids(self, items_db):
        txn = items_db.begin()
        items_db.insert(txn, "items", (1, "x", 1))
        old_id = txn.txn_id
        items_db.log.flush()
        crash_and_recover(items_db)
        with items_db.transaction() as txn2:
            assert txn2.txn_id > old_id
            items_db.insert(txn2, "items", (2, "y", 2))


class TestStructuralRecovery:
    def test_crash_preserves_splits(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 600)
        crash_and_recover(db)
        rows = [r[0] for r in db.scan("items")]
        assert rows == list(range(600))

    def test_crash_after_drop_table(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        db.drop_table("items")
        crash_and_recover(db)
        assert db.catalog.get_by_name("items") is None

    def test_crash_with_uncommitted_create_table(self, db):
        txn = db.begin()
        db.catalog.create_table(txn, ITEMS_SCHEMA)
        db.log.flush()
        crash_and_recover(db)
        assert db.catalog.get_by_name("items") is None
        # Namespace is clean: table can be created again.
        db.create_table(ITEMS_SCHEMA)

    def test_crash_with_uncommitted_drop_table(self, items_db):
        fill_items(items_db, 20)
        txn = items_db.begin()
        items_db.catalog.drop_table(txn, "items")
        items_db.log.flush()
        crash_and_recover(items_db)
        assert items_db.catalog.get_by_name("items") is not None
        assert sum(1 for _ in items_db.scan("items")) == 20

    def test_heap_recovery(self, engine, small_config):
        from tests.test_heap import HISTORY_SCHEMA

        db = engine.create_database("heaprec", small_config)
        db.create_table(HISTORY_SCHEMA, heap=True)
        with db.transaction() as txn:
            for i in range(50):
                db.insert(txn, "history", (i, "z" * 80))
        crash_and_recover(db)
        assert db.table("history").count() == 50

    def test_work_continues_after_recovery(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 200)
        crash_and_recover(db)
        fill_items(db, 200, start=200)
        with db.transaction() as txn:
            db.delete(txn, "items", (0,))
            db.update(txn, "items", (399,), {"qty": 1})
        assert db.table("items").count() == 399


class TestAnalysis:
    def test_analysis_tracks_dirty_pages(self, items_db):
        items_db.checkpoint()
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "a", 1))
        analysis = analyze_log(items_db.log, items_db.last_checkpoint_lsn)
        assert analysis.dirty_pages  # at least the leaf touched
        assert analysis.losers == {}

    def test_analysis_collects_loser_locks(self, items_db):
        items_db.checkpoint()
        txn = items_db.begin()
        items_db.insert(txn, "items", (1, "a", 1))
        analysis = analyze_log(items_db.log, items_db.last_checkpoint_lsn)
        assert txn.txn_id in analysis.losers
        assert analysis.loser_locks[txn.txn_id]
        items_db.rollback(txn)

    def test_recovery_checkpoint_taken(self, items_db):
        fill_items(items_db, 5)
        before = items_db.env.stats.checkpoints_taken
        crash_and_recover(items_db)
        assert items_db.env.stats.checkpoints_taken == before + 1


def reference_analyze_log(log, start_lsn, to_lsn=None) -> AnalysisResult:
    """The analysis pass as it was while it decoded every record in full:
    the oracle the header-driven :func:`analyze_log` must equal."""
    result = AnalysisResult()
    rows: dict[int, dict] = {}  # txn_id -> {lsn: (object_id, key_bytes)}
    compensated = set()
    for rec in log.scan(start_lsn, to_lsn, stop_on_torn_tail=True):
        result.end_lsn = rec.lsn
        if isinstance(rec, CheckpointBeginRecord) and rec.lsn == start_lsn:
            for txn_id, last_lsn in rec.active_txns:
                result.losers[txn_id] = last_lsn
                result.seeded.add(txn_id)
                result.max_txn_id = max(result.max_txn_id, txn_id)
            continue
        if rec.txn_id:
            result.max_txn_id = max(result.max_txn_id, rec.txn_id)
        if isinstance(rec, BeginRecord):
            result.losers[rec.txn_id] = rec.lsn
        elif isinstance(rec, (CommitRecord, AbortRecord)):
            result.losers.pop(rec.txn_id, None)
            rows.pop(rec.txn_id, None)
        elif rec.IS_PAGE_MOD:
            if rec.txn_id in result.losers:
                result.losers[rec.txn_id] = rec.lsn
                if isinstance(rec, ClrRecord):
                    compensated.add(rec.compensated_lsn)
                key_bytes = getattr(rec, "key_bytes", b"")
                if key_bytes and not rec.is_smo:
                    rows.setdefault(rec.txn_id, {})[rec.lsn] = (rec.object_id, key_bytes)
            result.dirty_pages.setdefault(rec.page_id, rec.lsn)
    for txn_id, txn_rows in rows.items():
        result.loser_locks[txn_id] = [
            row for lsn, row in txn_rows.items() if lsn not in compensated
        ]
    return result


def ordered(analysis: AnalysisResult):
    """Every field, dict order included (``loser_locks`` order is the
    order snapshot recovery re-acquires locks in)."""
    return (
        list(analysis.losers.items()),
        list(analysis.dirty_pages.items()),
        analysis.max_txn_id,
        list(analysis.loser_locks.items()),
        analysis.seeded,
        analysis.end_lsn,
    )


class TestHeaderDrivenAnalysis:
    """``analyze_log`` reads headers and defers the one body field it
    needs; it must return what the full-decode pass returned."""

    @pytest.fixture()
    def history(self, engine, small_config):
        """Winners and losers interleaved, a loser open across the
        middle checkpoint, savepoint rollbacks (CLRs), bulk inserts that
        split leaves (SMO records inside user transactions' windows),
        heap rows, an aborted transaction — all durable, all still open
        at the end where marked."""
        from tests.test_heap import HISTORY_SCHEMA

        db = engine.create_database("analysis", small_config)
        db.create_table(ITEMS_SCHEMA)
        db.create_table(HISTORY_SCHEMA, heap=True)
        fill_items(db, 300)
        spanning = db.begin()  # loser: open across the checkpoint below
        db.insert(spanning, "items", (1000, "spanning", 1))
        db.update(spanning, "items", (7,), {"qty": -7})
        db.checkpoint()
        middle = db.last_checkpoint_lsn
        db.delete(spanning, "items", (9,))
        partial = db.begin()  # loser: half of it rolled back to a savepoint
        db.insert(partial, "items", (2000, "kept", 1))
        db.savepoint(partial, "sp")
        for i in range(2001, 2031):
            db.insert(partial, "items", (i, "undone", i))
        db.rollback_to(partial, "sp")
        fill_items(db, 250, start=3000)  # winner: splits leaves meanwhile
        db.update(partial, "items", (2000,), {"qty": 2})
        aborted = db.begin()
        db.insert(aborted, "items", (4000, "aborted", 1))
        db.insert(aborted, "history", (1, "aborted heap row"))
        db.rollback(aborted)
        heap_loser = db.begin()  # loser: heap rows (empty key_bytes) and a keyed row
        db.insert(heap_loser, "history", (2, "heap loser"))
        db.insert(heap_loser, "items", (5000, "heap loser", 5))
        bulk_loser = db.begin()  # loser: its own inserts split leaves
        for i in range(6000, 6200):
            db.insert(bulk_loser, "items", (i, "bulk loser " * 3, i))
        db.log.flush()
        open_ids = [t.txn_id for t in (spanning, partial, heap_loser, bulk_loser)]
        return db, middle, open_ids

    def test_equals_the_full_decode_pass_on_every_window(self, history):
        db, middle, open_ids = history
        log = db.log
        records = list(log.scan(log.start_lsn))
        types = {type(rec) for rec in records}
        assert {ClrRecord, AbortRecord, CheckpointBeginRecord} <= types
        assert any(rec.is_smo for rec in records) and any(rec.is_heap for rec in records)
        first_checkpoint = next(r.lsn for r in records if isinstance(r, CheckpointBeginRecord))
        starts = [log.start_lsn, first_checkpoint, middle, records[len(records) // 2].lsn]
        ends = [None, middle, middle + 1, records[-40].lsn, records[-40].lsn + 1, log.end_lsn + 99]
        for start in starts:
            for end in ends:
                expected = reference_analyze_log(log, start, end)
                assert ordered(analyze_log(log, start, end)) == ordered(expected), (start, end)
        whole = analyze_log(log, middle)
        assert list(whole.losers) == open_ids and whole.seeded == {open_ids[0]}
        assert list(whole.loser_locks) == open_ids

    def test_equals_the_full_decode_pass_up_to_a_torn_tail(self, history):
        db, middle, _open_ids = history
        log = db.log
        victim = list(log.scan(middle))[-25]
        log._data[victim.lsn - log._base + 50] ^= 0x01  # rots a body byte
        expected = reference_analyze_log(log, middle)
        assert expected.end_lsn < victim.lsn
        assert ordered(analyze_log(log, middle)) == ordered(expected)

    def test_decodes_no_body_but_the_checkpoint_and_losers_rows(self, history, monkeypatch):
        db, middle, _open_ids = history
        expected = reference_analyze_log(db.log, middle)
        decoded = []
        for cls in RECORD_CLASSES.values():
            def counting(view, pos, cls=cls, decode=cls._decode_body):
                decoded.append(cls)
                return decode(view, pos)
            monkeypatch.setattr(cls, "_decode_body", staticmethod(counting))
        analyze_log(db.log, middle)
        rows = sum(len(keys) for keys in expected.loser_locks.values())
        assert decoded.count(CheckpointBeginRecord) == 1
        assert rows <= len(decoded) - 1 < len(list(db.log.scan_headers(middle))) // 2
        assert {cls for cls in decoded if not issubclass(cls, CheckpointBeginRecord)} <= {
            InsertRowRecord, UpdateRowRecord, DeleteRowRecord
        }
