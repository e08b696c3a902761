"""Backup and point-in-time restore tests."""

from __future__ import annotations

import pytest

from repro.backup import FullBackup, restore_point_in_time, take_full_backup
from repro.backup.restore import restore_at_split
from repro.config import DatabaseConfig
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.errors import BackupError, LogRecordDecodeError, SnapshotReadOnlyError
from repro.wal.apply import PAGE_MOD_TYPES, RedoApplier
from repro.wal.records import HEADER_SIZE, RecordType
from tests.conftest import ITEMS_SCHEMA, assert_refuses_writes, fill_items


class TestFullBackup:
    def test_backup_contains_all_allocated_pages(self, items_db):
        fill_items(items_db, 50)
        backup = take_full_backup(items_db)
        assert set(items_db.alloc.allocated_page_ids()) == set(backup.pages)
        assert backup.backup_lsn == items_db.last_checkpoint_lsn
        assert backup.size_bytes == len(backup.pages) * items_db.config.page_size

    def test_backup_charges_streaming_io(self, items_db):
        fill_items(items_db, 50)
        before = items_db.env.stats.snapshot()
        take_full_backup(items_db)
        spent = items_db.env.stats.delta(before)
        assert spent.backup_read_bytes > 0
        assert spent.backup_write_bytes >= spent.backup_read_bytes


class TestRestore:
    def _scenario(self, engine, items_db):
        """Backup, then three timestamped generations of changes."""
        db = items_db
        fill_items(db, 20)
        backup = take_full_backup(db)
        marks = []
        for gen in range(3):
            db.env.clock.advance(10)
            with db.transaction() as txn:
                db.update(txn, "items", (1,), {"qty": 1000 + gen})
                db.insert(txn, "items", (100 + gen, f"gen{gen}", gen))
            marks.append(db.env.clock.now())
            db.env.clock.advance(10)
        return backup, marks

    def test_restore_to_each_generation(self, engine, items_db):
        backup, marks = self._scenario(engine, items_db)
        for gen, when in enumerate(marks):
            restored = restore_point_in_time(
                engine, backup, items_db, when, f"restored{gen}"
            )
            assert restored.get("items", (1,))[2] == 1000 + gen
            present = {r[0] for r in restored.scan("items")}
            assert {100 + g for g in range(gen + 1)}.issubset(present)
            assert 100 + gen + 1 not in present

    def test_restored_is_read_only(self, engine, items_db):
        backup, marks = self._scenario(engine, items_db)
        restored = restore_point_in_time(engine, backup, items_db, marks[0], "ro")
        with pytest.raises(SnapshotReadOnlyError):
            restored.begin()

    def test_restored_refuses_every_write_path(self, engine, items_db):
        """The restored shell is a real Database (built by the constructor,
        not field by field): each write entry point finds its write latch
        and refuses with the read-only error, never an AttributeError."""
        backup, marks = self._scenario(engine, items_db)
        restored = restore_point_in_time(engine, backup, items_db, marks[0], "ro")
        assert_refuses_writes(engine, restored)

    def test_restore_undoes_in_flight(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        backup = take_full_backup(db)
        straddler = db.begin()
        db.update(straddler, "items", (2,), {"qty": -2})
        anchor = db.begin()
        db.insert(anchor, "items", (50, "anchor", 0))
        db.commit(anchor)
        mark = db.env.clock.now()
        db.env.clock.advance(5)
        db.commit(straddler)
        restored = restore_point_in_time(engine, backup, db, mark, "mid")
        assert restored.get("items", (2,))[2] == 20
        assert restored.get("items", (50,)) is not None

    def test_restore_before_backup_rejected(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        db.env.clock.advance(100)
        backup = take_full_backup(db)
        with pytest.raises(BackupError):
            restore_point_in_time(engine, backup, db, 1.0, "early")

    def test_restore_with_truncated_log_rejected(self, engine, items_db):
        db = items_db
        db.set_undo_interval(10)
        fill_items(db, 5)
        backup = take_full_backup(db)
        db.env.clock.advance(1000)
        db.checkpoint()
        db.env.clock.advance(1000)
        db.checkpoint()
        db.enforce_retention()
        assert db.log.start_lsn > backup.backup_lsn
        with pytest.raises(BackupError):
            restore_point_in_time(
                engine, backup, db, db.env.clock.now(), "broken"
            )

    def test_backup_repr(self, items_db):
        fill_items(items_db, 5)
        backup = take_full_backup(items_db)
        assert isinstance(backup, FullBackup)
        assert "FullBackup" in repr(backup)


class TestTypedRollForward:
    """``restore_at_split`` builds only the page modifications of its
    roll-forward range, and still checks and pays for every record."""

    def _source(self, engine):
        """A backup, then history the restore must roll forward over, a
        checkpoint, and more history up to the split — so the stretch
        before the checkpoint is read by redo and by no analysis."""
        config = DatabaseConfig(page_size=1024, log_block_size=512, log_cache_blocks=4)
        db = engine.create_database("typed", config)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 30)
        backup = take_full_backup(db)
        for generation in range(1, 5):
            fill_items(db, 25, start=100 * generation)
            db.env.clock.advance(10)
            if generation == 2:
                db.checkpoint()
        db.log.flush()
        split = find_split_lsn(db, db.env.clock.now())
        assert analysis_base(db.log, split, backup.backup_lsn) > backup.backup_lsn
        return db, backup, split

    def _restore(self, db, backup, split, name):
        db.log._cache.clear()
        before = db.env.stats.snapshot()
        restored = restore_at_split(
            name, db.config, db.env, backup.pages, db.log, backup.backup_lsn, split
        )
        spent = db.env.stats.delta(before)
        return restored, (spent.log_scan_reads, spent.log_scan_bytes)

    def test_same_charges_and_same_redo_as_an_untyped_scan(self, engine, monkeypatch):
        db, backup, split = self._source(engine)
        counts, asked = [], []
        apply, scan = RedoApplier.apply, db.log.scan

        def counted(self, records, gate=None):
            counts.append(apply(self, records, gate))
            return counts[-1]

        def recorded(*args, types=None, **kwargs):
            asked.append(types)
            return scan(*args, types=types, **kwargs)

        monkeypatch.setattr(RedoApplier, "apply", counted)
        monkeypatch.setattr(db.log, "scan", recorded)
        typed, typed_cost = self._restore(db, backup, split, "typed_copy")
        assert asked == [PAGE_MOD_TYPES]
        monkeypatch.setattr(db.log, "scan", lambda *args, types=None, **kw: scan(*args, **kw))
        untyped, untyped_cost = self._restore(db, backup, split, "untyped_copy")
        assert counts[0] == counts[1] > 100
        assert typed_cost == untyped_cost and typed_cost[0] > 10
        assert list(typed.scan("items")) == list(untyped.scan("items"))

    @pytest.mark.parametrize("record_type", [RecordType.BEGIN, RecordType.COMMIT])
    def test_a_flipped_byte_the_typed_scan_does_not_build_fails_it(self, engine, record_type):
        db, backup, split = self._source(engine)
        checkpoint = analysis_base(db.log, split, backup.backup_lsn)
        victim = next(
            rec.lsn
            for rec in db.log.scan(backup.backup_lsn, checkpoint, types=(record_type,))
            if rec.lsn > backup.backup_lsn
        )
        db.log._data[victim - db.log._base + HEADER_SIZE - 6] ^= 0x40  # object_id: CRC only
        with pytest.raises(LogRecordDecodeError, match=f"CRC mismatch at offset {victim}"):
            self._restore(db, backup, split, "torn_copy")
