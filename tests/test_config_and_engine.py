"""Configuration validation, engine lifecycle, checkpointer cadence."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro import DatabaseConfig, Engine, LoggingExtensions, SimClock
from repro.config import CostModel, SimEnv
from repro.engine.boot import BootRecord
from repro.engine.checkpoint import Checkpointer
from repro.errors import CatalogError, SnapshotError
from repro.sim.device import SLC_SSD
from tests.conftest import ITEMS_SCHEMA, fill_items


class TestConfig:
    def test_defaults_valid(self):
        DatabaseConfig().validate()

    def test_bad_page_size(self):
        with pytest.raises(ValueError):
            DatabaseConfig(page_size=100).validate()
        with pytest.raises(ValueError):
            DatabaseConfig(page_size=1000).validate()  # not multiple of 256

    def test_bad_buffer_pool(self):
        with pytest.raises(ValueError):
            DatabaseConfig(buffer_pool_pages=2).validate()

    def test_bad_retention(self):
        with pytest.raises(ValueError):
            DatabaseConfig(undo_interval_s=0).validate()

    def test_bad_image_interval(self):
        config = DatabaseConfig().with_extensions(page_image_interval=-1)
        with pytest.raises(ValueError):
            config.validate()

    def test_with_extensions_copies(self):
        base = DatabaseConfig()
        derived = base.with_extensions(page_image_interval=8)
        assert base.extensions.page_image_interval == 0
        assert derived.extensions.page_image_interval == 8
        assert derived.page_size == base.page_size

    def test_effective_master_switch(self):
        ext = LoggingExtensions(enabled=False, page_image_interval=8)
        eff = ext.effective()
        assert eff.page_image_interval == 0
        assert not eff.preformat_on_realloc
        assert not eff.clr_undo_info

    def test_cost_model_free(self):
        free = CostModel.free()
        assert free.log_record_cpu_s == 0
        assert free.dml_cpu_s == 0

    def test_env_charge_cpu(self):
        env = SimEnv(cost=CostModel())
        env.charge_cpu(0.5)
        assert env.clock.now() == pytest.approx(0.5)
        env.charge_cpu(0)  # no-op
        assert env.clock.now() == pytest.approx(0.5)


class TestEngineLifecycle:
    def test_duplicate_database_rejected(self, engine):
        engine.create_database("d")
        with pytest.raises(CatalogError):
            engine.create_database("d")

    def test_database_lookup(self, engine):
        db = engine.create_database("d")
        assert engine.database("d") is db
        with pytest.raises(CatalogError):
            engine.database("ghost")

    def test_drop_database(self, engine):
        engine.create_database("d")
        engine.drop_database("d")
        with pytest.raises(CatalogError):
            engine.database("d")

    def test_snapshot_name_collides_with_database(self, engine, items_db):
        with pytest.raises(SnapshotError):
            engine.create_asof_snapshot("itemsdb", "itemsdb", 0.0)

    def test_snapshot_name_collides_with_replica(self, engine, items_db):
        """A snapshot may not take a standby's name: ``USE standby`` would
        read the snapshot and ``DROP DATABASE standby`` would drop it."""
        engine.add_replica("itemsdb", "standby")
        now = items_db.env.clock.now()
        with pytest.raises(SnapshotError, match="already in use"):
            engine.create_snapshot("itemsdb", "standby")
        with pytest.raises(SnapshotError, match="already in use"):
            engine.create_asof_snapshot("itemsdb", "standby", now)
        assert "standby" not in engine.snapshots

    def test_database_name_collides_with_snapshot(self, engine, items_db):
        engine.create_asof_snapshot("itemsdb", "snap", items_db.env.clock.now())
        with pytest.raises(CatalogError):
            engine.create_database("snap")

    def test_resolve_as_of_formats(self, engine):
        assert engine.resolve_as_of(12.5) == 12.5
        assert engine.resolve_as_of(7) == 7.0
        moment = datetime(2012, 3, 22, 12, 30, 0, tzinfo=timezone.utc)
        assert engine.resolve_as_of(moment) == SimClock.from_datetime(moment)
        assert engine.resolve_as_of("2012-03-22 12:30:00") == pytest.approx(
            SimClock.from_datetime(moment)
        )
        with pytest.raises(ValueError):
            engine.resolve_as_of([1, 2])

    def test_shared_env_across_databases(self, engine):
        a = engine.create_database("a")
        b = engine.create_database("b")
        assert a.env is b.env
        assert a.env is engine.env


class TestCheckpointer:
    def test_cadence(self):
        env = SimEnv(cost=CostModel())
        engine = Engine(env)
        db = engine.create_database("c", DatabaseConfig(checkpoint_interval_s=10))
        db.create_table(ITEMS_SCHEMA)
        checkpointer = Checkpointer(db)
        taken = 0
        for step in range(50):
            env.clock.advance(1.0)
            with db.transaction() as txn:
                db.insert(txn, "items", (step, "x", step))
            if checkpointer.tick():
                taken += 1
        assert 3 <= taken <= 6

    def test_tick_below_interval_is_noop(self, items_db):
        checkpointer = Checkpointer(items_db)  # 30 s interval, clock unmoved
        before = items_db.env.stats.checkpoints_taken
        assert not checkpointer.tick()
        assert items_db.env.stats.checkpoints_taken == before

    def test_retention_enforced_with_checkpoint(self):
        env = SimEnv(cost=CostModel())
        engine = Engine(env)
        db = engine.create_database(
            "r", DatabaseConfig(checkpoint_interval_s=5, undo_interval_s=20)
        )
        db.create_table(ITEMS_SCHEMA)
        checkpointer = Checkpointer(db)
        for step in range(60):
            env.clock.advance(1.0)
            with db.transaction() as txn:
                db.insert(txn, "items", (step, "y" * 40, step))
            checkpointer.tick()
        # Old log was truncated (retention), recent log retained.
        assert db.log.start_lsn > 8


class TestBootRecord:
    def test_pack_unpack_roundtrip(self):
        rec = BootRecord(
            last_checkpoint_lsn=12345,
            undo_interval_s=7200.0,
            created_wall=99.5,
        )
        assert BootRecord.unpack(rec.pack()) == rec

    def test_with_changes(self):
        rec = BootRecord()
        changed = rec.with_changes(last_checkpoint_lsn=77)
        assert changed.last_checkpoint_lsn == 77
        assert changed.undo_interval_s == rec.undo_interval_s

    def test_short_payload_rejected(self):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            BootRecord.unpack(b"xx")

    def test_boot_survives_crash(self, items_db):
        items_db.set_undo_interval(1234)
        items_db.checkpoint()
        items_db.crash()
        items_db.recover()
        assert items_db.undo_interval_s == 1234


class TestDeviceProfilesInEngine:
    def test_io_advances_shared_clock(self):
        env = SimEnv(data_profile=SLC_SSD, log_profile=SLC_SSD, cost=CostModel())
        engine = Engine(env)
        db = engine.create_database("timed")
        db.create_table(ITEMS_SCHEMA)
        t0 = env.clock.now()
        fill_items(db, 50)
        assert env.clock.now() > t0

    def test_stats_shared_across_engine(self, engine, items_db):
        fill_items(items_db, 5)
        other = engine.create_database("other")
        other.create_table(ITEMS_SCHEMA)
        fill_items(other, 5)
        # One stats sheet: commits from both databases accumulate.
        assert engine.env.stats.transactions_committed >= 2


def test_the_engine_imports_only_the_standard_library():
    """``import repro`` and its SQL, workload and obs-tool entry points load
    no third-party module: the package declares no dependencies. Modules
    the interpreter loaded before the first ``repro`` import (``site``
    hooks, ``__main__``) are not the engine's."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro, repro.sql, repro.workload, repro.tools.obs\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    foreign = [
        name
        for name in loaded
        if name.split(".")[0] != "repro" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert "repro.txn.locks" in loaded
    assert foreign == []
