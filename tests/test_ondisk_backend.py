"""A database over the real-file backend (the non-default storage)."""

from __future__ import annotations

from repro import DatabaseConfig
from repro.engine.database import Database
from repro.storage.datafile import OnDiskDataFile
from tests.conftest import ITEMS_SCHEMA, fill_items


def make_disk_db(tmp_path, engine, name="diskdb"):
    path = str(tmp_path / f"{name}.pages")
    datafile = OnDiskDataFile(path, DatabaseConfig().page_size)
    db = Database(name, DatabaseConfig(), engine.env, datafile=datafile)
    engine.databases[name] = db
    return db, path


class TestOnDiskDatabase:
    def test_basic_crud(self, tmp_path, engine):
        db, _path = make_disk_db(tmp_path, engine)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 50)
        assert db.get("items", (25,)) == (25, "item-25", 250)
        with db.transaction() as txn:
            db.delete(txn, "items", (25,))
        assert db.get("items", (25,)) is None
        db.file_manager.datafile.close()

    def test_crash_recovery_on_disk(self, tmp_path, engine):
        db, _path = make_disk_db(tmp_path, engine)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 30)
        db.checkpoint()
        txn = db.begin()
        db.insert(txn, "items", (99, "loser", 0))
        db.log.flush()
        db.crash()
        db.recover()
        assert db.get("items", (99,)) is None
        assert sum(1 for _ in db.scan("items")) == 30
        db.file_manager.datafile.close()

    def test_asof_snapshot_over_disk_backend(self, tmp_path, engine):
        db, _path = make_disk_db(tmp_path, engine)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 20)
        mark = db.env.clock.now()
        db.env.clock.advance(5)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": -1})
        snap = engine.create_asof_snapshot("diskdb", "past", mark)
        assert snap.get("items", (1,))[2] == 10
        db.file_manager.datafile.close()

    def test_durable_bytes_actually_on_disk(self, tmp_path, engine):
        import os

        db, path = make_disk_db(tmp_path, engine)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        db.checkpoint()
        db.file_manager.datafile.flush()
        assert os.path.getsize(path) >= 5 * db.config.page_size
        db.file_manager.datafile.close()

    def test_drop_closes_the_file_handle(self, tmp_path, engine):
        db, _path = make_disk_db(tmp_path, engine)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 10)
        datafile = db.file_manager.datafile
        engine.drop_database("diskdb")
        assert datafile._file.closed
        assert db.file_manager.page_count == 0
        assert "diskdb" in repr(db)
        db.close()  # twice is a no-op
