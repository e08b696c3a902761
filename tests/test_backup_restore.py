"""Backup and point-in-time restore tests."""

from __future__ import annotations

import pytest

from repro.backup import FullBackup, restore_point_in_time, take_full_backup
from repro.errors import BackupError, SnapshotReadOnlyError
from tests.conftest import assert_refuses_writes, fill_items


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
