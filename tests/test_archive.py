"""Archive tier tests: store, archiver, incremental backups, restore,
backup-seeded replicas, the query_as_of archive fallback, and the SQL
surface (BACKUP DATABASE / RESTORE DATABASE ... AS OF)."""

from __future__ import annotations

import itertools
import os
import sys
import threading
from dataclasses import replace

import pytest

from repro.archive import (
    ArchiveStore,
    IncrementalBackup,
    plan_restore,
    restore_from_archive,
    take_incremental_backup,
)
from repro.backup import take_full_backup
from repro.config import CostModel, SimEnv
from repro.engine.engine import Engine
from repro.errors import (
    ArchiveError,
    BackupError,
    LogRecordDecodeError,
    ReplicationError,
    RetentionExceededError,
)
from repro.replication.stream import LogFrame
from repro.sim.device import SAS_10K, SLC_SSD
from repro.tools import check_database, dump_archive, dump_archived_segment
from repro.tools.loginspect import main as loginspect_main
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN
from repro.wal.records import BeginRecord
from tests.conftest import ITEMS_SCHEMA, assert_refuses_writes, fill_items


def expire_retention(db, window_s: float = 10.0) -> None:
    """Age the database past a short retention window and truncate."""
    db.set_undo_interval(window_s)
    for _ in range(2):
        db.env.clock.advance(window_s * 10)
        db.checkpoint()
    db.enforce_retention()


def record_frames(*counts: int) -> list[LogFrame]:
    """Back-to-back frames of real serialized records from ``FIRST_LSN``:
    one frame per count, holding that many BEGIN records."""
    log = LogManager(SimEnv.for_tests())
    frames = []
    for count in counts:
        start = log.end_lsn
        for txn_id in range(count):
            log.append(BeginRecord(txn_id=txn_id + 1))
        frames.append(LogFrame(start, log.read_bytes(start, log.end_lsn), float(len(frames))))
    return frames


class TestArchiveStore:
    def test_segments_must_be_contiguous(self, env):
        store = ArchiveStore(env)
        first, _skipped, third = record_frames(2, 1, 2)
        store.put_segment("db", first)
        with pytest.raises(ArchiveError, match="gap"):
            store.put_segment("db", third)
        assert store.coverage("db") == (first.start_lsn, first.end_lsn)

    def test_coverage_and_charging(self, env):
        store = ArchiveStore(env)
        assert store.coverage("db") is None
        first, second = record_frames(2, 1)
        store.put_segment("db", first)
        store.put_segment("db", second)
        assert store.coverage("db") == (FIRST_LSN, second.end_lsn)
        assert env.stats.archive_segments_written == 2
        assert env.stats.archive_write_bytes == len(first.encode()) + len(second.encode())
        # Each segment is read once, at its frame size, however often
        # the log is asked for; a frame is rebuilt byte for byte.
        assert store.log("db").end_lsn == second.end_lsn
        assert store.log("db") is store.log("db")
        assert env.stats.archive_read_bytes == env.stats.archive_write_bytes
        assert [store.frame(seg) for seg in store.segments("db")] == [first, second]

    def test_a_frame_of_partial_records_is_refused(self, env):
        store = ArchiveStore(env)
        first, second = record_frames(2, 2)
        store.put_segment("db", first)
        torn = LogFrame(second.start_lsn, second.payload[:-1], second.ship_wall)
        with pytest.raises(LogRecordDecodeError):
            store.put_segment("db", torn)
        assert store.coverage("db") == (first.start_lsn, first.end_lsn)
        assert len(store.segments("db")) == 1
        store.put_segment("db", second)  # the whole frame still lands
        assert store.coverage("db") == (first.start_lsn, second.end_lsn)

    def test_newest_chain_follows_base_links(self, env, items_db):
        """An incremental chained onto an older full than the newest one:
        the chain ending at it skips the newer full."""
        store = ArchiveStore(env)
        fill_items(items_db, 10)
        older = take_full_backup(items_db)
        fill_items(items_db, 5, start=10)
        newer = take_full_backup(items_db)
        fill_items(items_db, 5, start=20)
        inc = take_incremental_backup(items_db, older)
        for backup in (older, newer, inc):
            store.put_backup(backup)
        assert store.newest_chain("itemsdb") == [older, inc]
        assert store.newest_chain("itemsdb", up_to_lsn=inc.backup_lsn - 1) == [newer]
        assert store.newest_chain("itemsdb", up_to_lsn=newer.backup_lsn - 1) == [older]
        assert store.newest_chain("itemsdb", up_to_lsn=older.backup_lsn - 1) == []

    def test_incremental_backup_must_chain(self, env, items_db):
        store = ArchiveStore(env)
        fill_items(items_db, 10)
        full = take_full_backup(items_db)
        inc = take_incremental_backup(items_db, full)
        with pytest.raises(BackupError, match="not in the archive"):
            store.put_backup(inc)
        store.put_backup(full)
        store.put_backup(inc)
        assert [type(b) for b in store.newest_chain("itemsdb")] == [
            type(full),
            IncrementalBackup,
        ]

    def test_second_incremental_on_one_base_rejected(self, env, items_db):
        store = ArchiveStore(env)
        fill_items(items_db, 10)
        full = take_full_backup(items_db)
        first = take_incremental_backup(items_db, full)
        second = take_incremental_backup(items_db, full)
        store.put_backup(full)
        store.put_backup(first)
        with pytest.raises(BackupError, match="already has a successor"):
            store.put_backup(second)
        assert store.backups("itemsdb") == [full, first]

    def test_concurrent_backup_database_does_not_fork_the_chain(
        self, engine, items_db, monkeypatch
    ):
        """A second BACKUP DATABASE lands while the first is copying pages:
        both read the same chain tip, and the later put must not chain
        onto it again."""
        from repro.archive import backup as archive_backup

        fill_items(items_db, 10)
        engine.backup_database("itemsdb")  # the full baseline
        real = archive_backup.take_incremental_backup
        calls = []

        def racing(db, base, **kwargs):
            calls.append(base.backup_lsn)
            if len(calls) == 1:
                fill_items(db, 5, start=100)
                engine.backup_database("itemsdb")  # lands first
            return real(db, base, **kwargs)

        monkeypatch.setattr(archive_backup, "take_incremental_backup", racing)
        fill_items(items_db, 5, start=50)
        engine.backup_database("itemsdb")
        backups = engine.archives["itemsdb"].store.backups("itemsdb")
        bases = [b.base_lsn for b in backups if isinstance(b, IncrementalBackup)]
        assert len(bases) == 2 and len(set(bases)) == 2
        assert len(calls) == 3  # the outer incremental was taken again
        assert engine.archives["itemsdb"].store.newest_chain("itemsdb") == backups

    def test_directory_persistence(self, env, tmp_path):
        store = ArchiveStore(env, directory=str(tmp_path / "arch"))
        (frame,) = record_frames(3)
        store.put_segment("db", frame)
        names = os.listdir(tmp_path / "arch")
        assert len(names) == 1 and names[0].endswith(".seg")
        with open(tmp_path / "arch" / names[0], "rb") as fh:
            assert LogFrame.decode(fh.read()) == frame


class TestLogArchiver:
    def test_continuous_archiving_tracks_durable_end(self, engine, items_db):
        archiver = engine.enable_archiving("itemsdb")
        fill_items(items_db, 30)
        items_db.log.flush()
        archiver.poll()
        assert archiver.lag_bytes() == 0
        start, end = archiver.store.coverage("itemsdb")
        assert start == FIRST_LSN
        assert end == items_db.log.durable_lsn

    def test_a_late_archive_reads_dropped_transactions_as_past_retention(
        self, engine, items_db
    ):
        """Archiving enabled after the primary truncated: the archived
        log starts mid-history, and a transaction retention dropped from
        the primary reads as past retention there too, not as never
        logged."""
        db = items_db
        with db.transaction() as txn:
            db.insert(txn, "items", (1, "item-1", 10))
        dropped = txn.txn_id
        fill_items(db, 30, start=2)
        db.log.flush()
        expire_retention(db)
        assert db.log.start_lsn > FIRST_LSN
        assert db.log.transaction_span(dropped) is None
        with pytest.raises(RetentionExceededError):
            db.log.retained_span(dropped)
        archiver = engine.enable_archiving("itemsdb")
        archiver.poll()
        archived = archiver.store.log("itemsdb")
        assert archived.start_lsn == db.log.start_lsn
        with pytest.raises(RetentionExceededError):
            archived.retained_span(dropped)
        assert archived.last_txn_below(archived.start_lsn) == db.log.last_txn_below(
            db.log.start_lsn
        )

    def test_unarchived_log_is_pinned_until_archived(self, engine, items_db):
        db = items_db
        archiver = engine.enable_archiving("itemsdb")
        cursor = archiver.received_lsn
        fill_items(db, 30)
        db.log.flush()
        db.set_undo_interval(5)
        db.env.clock.advance(100)
        db.checkpoint()
        db.env.clock.advance(100)
        db.checkpoint()
        # The horizon has moved past the unarchived range, but the
        # archiver's cursor holds the log until the segments are durable.
        db.enforce_retention()
        assert db.log.start_lsn <= cursor
        archiver.poll()
        db.enforce_retention()
        assert db.log.start_lsn > cursor

    def test_disable_archiving_releases_the_pin(self, engine, items_db):
        """Satellite: after archiver shutdown truncation must resume."""
        db = items_db
        engine.enable_archiving("itemsdb")
        fill_items(db, 30)
        db.log.flush()
        engine.disable_archiving("itemsdb")
        assert engine.archives["itemsdb"].closed
        db.set_undo_interval(5)
        retained_before = db.log.start_lsn
        db.env.clock.advance(100)
        db.checkpoint()
        db.env.clock.advance(100)
        db.checkpoint()
        db.enforce_retention()
        assert db.log.start_lsn > retained_before

    def test_closed_archiver_refuses_frames(self, engine, items_db):
        archiver = engine.enable_archiving("itemsdb")
        archiver.close()
        assert archiver.poll() == 0
        with pytest.raises(ArchiveError, match="closed"):
            archiver.receive(LogFrame(archiver.received_lsn, b"", 0.0).encode())

    def test_recreated_database_cannot_reuse_the_archive(self, engine, items_db):
        """A dropped-and-recreated database starts a fresh LSN space; the
        namesake's archive must neither absorb nor serve it."""
        engine.enable_archiving("itemsdb")
        fill_items(items_db, 20)
        mark = items_db.env.clock.now()
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        old_store = engine.archives["itemsdb"].store
        engine.drop_database("itemsdb")
        reborn = engine.create_database("itemsdb")
        reborn.create_table(ITEMS_SCHEMA)
        # Reusing the name forfeits the namesake's archive entirely...
        assert "itemsdb" not in engine.archives
        with pytest.raises(ArchiveError, match="no archive"):
            engine.restore_from_archive("itemsdb", mark)
        # ...and wiring the old store back in explicitly is refused.
        with pytest.raises(ArchiveError, match="different incarnation"):
            engine.enable_archiving("itemsdb", store=old_store)
        archiver = engine.enable_archiving("itemsdb")
        assert archiver.store is not old_store

    def test_recreated_database_fallback_never_serves_old_data(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        engine.drop_database("itemsdb")
        from tests.conftest import ITEMS_SCHEMA

        reborn = engine.create_database("itemsdb")
        reborn.create_table(ITEMS_SCHEMA)
        expire_retention(reborn)
        with pytest.raises(RetentionExceededError):
            with engine.query_as_of("itemsdb", marks[0]):
                pass

    def test_enable_with_conflicting_config_refused(self, engine, items_db, tmp_path):
        archiver = engine.enable_archiving("itemsdb")
        with pytest.raises(ArchiveError, match="already enabled"):
            engine.enable_archiving("itemsdb", directory=str(tmp_path))
        assert engine.enable_archiving("itemsdb") is archiver
        # Re-enabling with the *same* store is idempotent, not an error.
        assert engine.enable_archiving("itemsdb", store=archiver.store) is archiver
        # After a disable, an explicit directory means a *new* store — the
        # old one cannot honor the requested persistence.
        engine.disable_archiving("itemsdb")
        rearmed = engine.enable_archiving("itemsdb", directory=str(tmp_path))
        assert rearmed.store.directory == str(tmp_path)

    def test_reenable_resumes_at_archive_edge(self, engine, items_db):
        db = items_db
        archiver = engine.enable_archiving("itemsdb")
        fill_items(db, 10)
        db.log.flush()
        archiver.poll()
        edge = archiver.received_lsn
        engine.disable_archiving("itemsdb")
        fill_items(db, 10, start=10)
        db.log.flush()
        again = engine.enable_archiving("itemsdb")
        assert again is not archiver
        assert again.store is archiver.store
        again.poll()
        assert again.store.coverage("itemsdb")[1] == db.log.durable_lsn
        assert again.received_lsn > edge


class TestShipperPinLifecycle:
    """Satellite: a detached subscriber must stop holding the log."""

    def test_detached_replica_releases_the_pin(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        engine.add_replica("itemsdb", "standby")
        shipper = engine.shipper_for("itemsdb")
        cursor = shipper._retention_pin()
        # More work the standby never sees (no ticks).
        fill_items(db, 30, start=10)
        db.log.flush()
        db.set_undo_interval(5)
        db.env.clock.advance(100)
        db.checkpoint()
        db.env.clock.advance(100)
        db.checkpoint()
        db.enforce_retention()
        assert db.log.start_lsn <= cursor
        engine.drop_replica("standby")
        assert shipper._retention_pin() is None
        db.enforce_retention()
        assert db.log.start_lsn > cursor


class TestIncrementalBackup:
    def test_copies_only_changed_pages(self, items_db):
        db = items_db
        fill_items(db, 200)
        full = take_full_backup(db)
        with db.transaction() as txn:
            db.update(txn, "items", (3,), {"qty": -1})
        inc = take_incremental_backup(db, full)
        assert inc.base_lsn == full.backup_lsn
        assert inc.backup_lsn > full.backup_lsn
        assert 0 < len(inc.pages) < len(full.pages)
        # Every incremental page is newer than the base.
        from repro.storage.page import Page

        for data in inc.pages.values():
            assert Page(bytearray(data)).page_lsn > full.backup_lsn

    def test_chain_of_incrementals(self, items_db):
        db = items_db
        fill_items(db, 50)
        full = take_full_backup(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 111})
        inc1 = take_incremental_backup(db, full)
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": 222})
        inc2 = take_incremental_backup(db, inc1)
        assert inc2.base_lsn == inc1.backup_lsn
        assert set(inc2.pages) != set(full.pages)


def _marked_generations(engine, db):
    """Full + two incrementals with a mark inside each era."""
    fill_items(db, 30)
    engine.backup_database("itemsdb")
    marks = []
    for gen in range(3):
        db.env.clock.advance(10)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 1000 + gen})
            db.insert(txn, "items", (100 + gen, f"gen{gen}", gen))
        marks.append(db.env.clock.now())
        db.env.clock.advance(10)
        if gen < 2:
            engine.backup_database("itemsdb")
    db.log.flush()
    engine.archives["itemsdb"].poll()
    return marks


class TestRestoreFromArchive:
    def test_restore_each_generation(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        for gen, when in enumerate(marks):
            restored = engine.restore_from_archive("itemsdb", when)
            assert restored.get("items", (1,))[2] == 1000 + gen
            present = {r[0] for r in restored.scan("items")}
            assert {100 + g for g in range(gen + 1)}.issubset(present)
            assert 100 + gen + 1 not in present
            assert restored.read_only
            assert restored.name in engine.databases

    def test_restored_refuses_every_write_path(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        restored = engine.restore_from_archive("itemsdb", marks[1])
        assert_refuses_writes(engine, restored)

    def test_restore_past_retention_horizon(self, engine, items_db):
        """The acceptance path: the pool cannot reach t, the archive can."""
        db = items_db
        marks = _marked_generations(engine, db)
        expire_retention(db)
        with pytest.raises(RetentionExceededError):
            engine.snapshot_pool.acquire(db, marks[0])
        restored = engine.restore_from_archive("itemsdb", marks[0])
        assert restored.get("items", (1,))[2] == 1000
        assert check_database(restored).ok

    def test_restore_after_database_dropped(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        engine.drop_database("itemsdb")
        restored = engine.restore_from_archive("itemsdb", marks[2])
        assert restored.get("items", (1,))[2] == 1002

    def test_restore_agrees_with_live_asof(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        restored = engine.restore_from_archive("itemsdb", marks[1])
        with engine.query_as_of("itemsdb", marks[1]) as snap:
            assert list(snap.scan("items")) == list(restored.scan("items"))

    def test_restore_without_archive_is_guided(self, engine, items_db):
        with pytest.raises(ArchiveError, match="backup_database"):
            engine.restore_from_archive("itemsdb", 1.0)

    def test_restore_before_first_backup_rejected(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        engine.enable_archiving("itemsdb")
        early = db.env.clock.now()
        db.env.clock.advance(50)
        fill_items(db, 5, start=10)
        engine.backup_database("itemsdb")
        with pytest.raises(ArchiveError, match="BACKUP DATABASE"):
            engine.restore_from_archive("itemsdb", early)


class TestRestorePlanner:
    def _archived_scenario(self, heavy_churn: int, profile=SLC_SSD):
        env = SimEnv(profile, profile, CostModel())
        engine = Engine(env)
        db = engine.create_database("perfdb")
        from tests.conftest import ITEMS_SCHEMA

        db.create_table(ITEMS_SCHEMA)
        with db.transaction() as txn:
            for i in range(50):
                db.insert(txn, "items", (i, f"i{i}", i))
        engine.backup_database("perfdb")
        env.clock.advance(10)
        with db.transaction() as txn:
            for j in range(heavy_churn):
                db.update(txn, "items", (j % 50,), {"qty": j})
        env.clock.advance(10)
        engine.backup_database("perfdb")
        env.clock.advance(10)
        with db.transaction() as txn:
            db.update(txn, "items", (0,), {"qty": -1})
        target = env.clock.now()
        env.clock.advance(5)
        db.log.flush()
        archiver = engine.archives["perfdb"]
        archiver.poll()
        return engine, archiver.store, target

    def test_heavy_churn_makes_the_incremental_win(self):
        engine, store, target = self._archived_scenario(heavy_churn=5000)
        plan = plan_restore(store, "perfdb", target)
        assert len(plan.chain) == 2  # full + incremental beats log replay
        assert plan.replay_bytes < 100_000

    @pytest.mark.parametrize("profile", [SLC_SSD, SAS_10K], ids=lambda p: p.name)
    @pytest.mark.parametrize("churn", [1, 200, 5000])
    def test_the_whole_chain_restores_no_slower(self, churn, profile):
        """However little the log past the full backup holds, laying the
        incremental down too costs no more sim time than replaying it."""
        engine, store, target = self._archived_scenario(churn, profile)
        plan = plan_restore(store, "perfdb", target)
        assert plan.chain == store.newest_chain("perfdb") and len(plan.chain) == 2

        def restore_s(chain: list) -> float:
            start = engine.env.clock.now()
            restore_from_archive(
                engine, store, "perfdb", target, f"copy{len(chain)}",
                plan=replace(plan, chain=chain, roll_from_lsn=chain[-1].backup_lsn),
            )
            return engine.env.clock.now() - start

        alone = restore_s(plan.chain[:1])
        assert restore_s(plan.chain) <= alone

    def test_planner_estimates_are_consistent(self):
        engine, store, target = self._archived_scenario(heavy_churn=200)
        plan = plan_restore(store, "perfdb", target)
        assert plan.split_lsn >= plan.roll_from_lsn
        restored = engine.restore_from_archive("perfdb", target)
        assert restored.get("items", (0,))[2] == -1


class TestQueryAsOfArchiveFallback:
    def test_falls_back_past_the_horizon(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        expire_retention(items_db)
        with engine.query_as_of("itemsdb", marks[0]) as reader:
            assert reader.get("items", (1,))[2] == 1000
        # Same split reuses the cached archive-backed copy.
        with engine.query_as_of("itemsdb", marks[0]) as reader1:
            first = reader1
        with engine.query_as_of("itemsdb", marks[0]) as reader2:
            assert reader2 is first

    def test_inline_sql_falls_back(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        expire_retention(items_db)
        result = engine.sql(
            f"SELECT qty FROM items AS OF {marks[1]} WHERE id = 1", "itemsdb"
        )
        assert result.scalar() == 1001

    def test_pinned_session_falls_back(self, engine, items_db):
        marks = _marked_generations(engine, items_db)
        expire_retention(items_db)
        with engine.session() as session:
            session.execute(f"USE itemsdb AS OF {marks[0]}")
            assert session.execute("SELECT qty FROM items WHERE id = 1").scalar() == 1000

    def test_error_names_recovery_options(self, engine, items_db):
        """Satellite: a bare horizon error must point at the ways out."""
        db = items_db
        fill_items(db, 5)
        mark = db.env.clock.now()
        expire_retention(db)
        with pytest.raises(RetentionExceededError) as err:
            with engine.query_as_of("itemsdb", mark):
                pass
        message = str(err.value)
        assert "backup_database" in message
        assert "delayed-apply replica" in message
        with pytest.raises(RetentionExceededError) as err2:
            engine.create_asof_snapshot("itemsdb", "nope", mark)
        assert "delayed-apply replica" in str(err2.value)

    def test_error_mentions_existing_archive(self, engine, items_db):
        db = items_db
        fill_items(db, 5)
        mark = db.env.clock.now()
        db.env.clock.advance(50)
        engine.backup_database("itemsdb")  # archive exists, but t precedes it
        expire_retention(db)
        with pytest.raises(RetentionExceededError) as err:
            engine.create_asof_snapshot("itemsdb", "nope", mark)
        assert "restore_from_archive" in str(err.value)
        # The query path actually *tries* the archive; when it cannot
        # serve the time, the error carries that cause, not a dead-end
        # recommendation to restore_from_archive.
        with pytest.raises(RetentionExceededError) as qerr:
            with engine.query_as_of("itemsdb", mark):
                pass
        assert "could not serve" in str(qerr.value)
        assert "restore_from_archive" not in str(qerr.value)


class TestSeedReplicaFromBackup:
    def _truncated_primary(self, engine, db):
        marks = _marked_generations(engine, db)
        expire_retention(db)
        assert db.log.start_lsn > FIRST_LSN
        return marks

    def test_plain_add_replica_refuses_and_guides(self, engine, items_db):
        self._truncated_primary(engine, items_db)
        with pytest.raises(ReplicationError, match="seed_from_backup"):
            engine.add_replica("itemsdb", "standby")

    def test_seeded_replica_attaches_and_catches_up(self, engine, items_db):
        """Acceptance: attach after truncation, catch up, serve identical
        reads, and keep following new writes."""
        db = items_db
        self._truncated_primary(engine, db)
        replica = engine.add_replica("itemsdb", "standby", seed_from_backup=True)
        assert replica.lag_bytes() == 0
        assert list(replica.scan("items")) == list(db.scan("items"))
        with db.transaction() as txn:
            db.insert(txn, "items", (999, "after-seed", 1))
        db.log.flush()
        engine.replication_tick()
        assert replica.get("items", (999,))[2] == 1
        assert list(replica.scan("items")) == list(db.scan("items"))
        assert check_database(replica.db).ok

    def test_seeded_replica_reads_as_of_before_the_next_checkpoint(self, engine, items_db):
        """The standby's SplitLSN anchor is the seed checkpoint's record,
        landed by the first shipped frame: a time between it and the next
        shipped checkpoint reads as it does on the primary."""
        db = items_db
        self._truncated_primary(engine, db)
        seed = engine.backup_database("itemsdb").backup_lsn
        db.env.clock.advance(1)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 2000})
        db.env.clock.advance(1)
        mark = db.env.clock.now()
        db.env.clock.advance(1)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 3000})
        db.checkpoint()
        replica = engine.add_replica("itemsdb", "standby", seed_from_backup=True)
        assert replica.db.log.start_lsn == seed
        assert replica.db.log.checkpoint_stamped(mark)[0] == seed < db.last_checkpoint_lsn
        with (
            engine.query_as_of("itemsdb", mark, replica="standby") as snap,
            engine.query_as_of("itemsdb", mark) as primary,
        ):
            assert snap.get("items", (1,))[2] == 2000
            assert list(snap.scan("items")) == list(primary.scan("items"))

    def test_seed_requires_an_archived_backup(self, engine, items_db):
        fill_items(items_db, 5)
        with pytest.raises(ReplicationError, match="backup_database"):
            engine.add_replica("itemsdb", "standby", seed_from_backup=True)

    def test_failed_seed_attach_leaves_no_dead_replica(self, engine, items_db):
        """A stale chain whose end the primary no longer retains cannot
        resume the stream — and must not leave a half-registered standby."""
        db = items_db
        fill_items(db, 10)
        engine.backup_database("itemsdb")
        engine.disable_archiving("itemsdb")
        fill_items(db, 30, start=10)
        db.log.flush()
        expire_retention(db)
        assert db.log.start_lsn > engine.archives["itemsdb"].store.coverage("itemsdb")[1]
        with pytest.raises(ReplicationError):
            engine.add_replica("itemsdb", "standby", seed_from_backup=True)
        assert "standby" not in engine.replicas
        assert engine.replication_tick() == 0  # nothing dead left ticking

    def test_seeded_replica_promotes(self, engine, items_db):
        db = items_db
        self._truncated_primary(engine, db)
        engine.add_replica("itemsdb", "standby", seed_from_backup=True)
        promoted = engine.promote_replica("standby")
        assert sorted(r[0] for r in promoted.scan("items")) == sorted(
            r[0] for r in db.scan("items")
        )
        with promoted.transaction() as txn:
            promoted.insert(txn, "items", (1234, "post-promote", 0))
        assert promoted.get("items", (1234,)) is not None


class TestSqlSurface:
    def test_backup_and_restore_statements(self, engine, items_db):
        fill_items(items_db, 20)
        result = engine.sql("BACKUP DATABASE itemsdb", "itemsdb")
        assert "full" in result.message
        items_db.env.clock.advance(10)
        with items_db.transaction() as txn:
            items_db.update(txn, "items", (1,), {"qty": 777})
        mark = items_db.env.clock.now()
        items_db.env.clock.advance(10)
        result = engine.sql("BACKUP DATABASE itemsdb", "itemsdb")
        assert "incremental" in result.message
        result = engine.sql("BACKUP DATABASE itemsdb FULL", "itemsdb")
        assert "full" in result.message
        engine.sql(f"RESTORE DATABASE itemsdb AS OF {mark} AS yesterdb")
        assert engine.sql("SELECT qty FROM yesterdb.items WHERE id = 1").scalar() == 777

    def test_backup_restore_full_stay_usable_as_identifiers(self, engine):
        """BACKUP/RESTORE/FULL are contextual words, not reserved ones."""
        engine.create_database("shop")
        with engine.session("shop") as session:
            session.execute(
                "CREATE TABLE restore (id INT NOT NULL, full INT, "
                "backup VARCHAR(16), PRIMARY KEY (id))"
            )
            session.execute("INSERT INTO restore VALUES (1, 2, 'x')")
            assert session.execute(
                "SELECT full FROM restore WHERE id = 1"
            ).scalar() == 2
            # Lowercase statement words still dispatch.
            assert "full" in session.execute("backup database shop").message

    def test_restore_autonames(self, engine, items_db):
        fill_items(items_db, 5)
        engine.sql("BACKUP DATABASE itemsdb")
        items_db.env.clock.advance(5)
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        result = engine.sql(
            f"RESTORE DATABASE itemsdb AS OF {items_db.env.clock.now()}"
        )
        assert "itemsdb_restored1" in result.message
        assert "itemsdb_restored1" in engine.databases


class TestLoginspectArchive:
    def test_dump_from_store(self, engine, items_db):
        engine.enable_archiving("itemsdb")
        fill_items(items_db, 5)
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        lines = dump_archive(engine.archives["itemsdb"].store, "itemsdb")
        assert any(line.startswith("segment [") for line in lines)
        assert any("Commit" in line for line in lines)

    def test_dump_from_directory_and_cli(self, engine, items_db, tmp_path, capsys):
        """Satellite: the CLI flag dumps persisted archived segments."""
        arch_dir = str(tmp_path / "segments")
        engine.enable_archiving("itemsdb", directory=arch_dir)
        fill_items(items_db, 5)
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        seg_files = sorted(os.listdir(arch_dir))
        assert seg_files
        # Single file.
        lines = dump_archived_segment(
            open(os.path.join(arch_dir, seg_files[-1]), "rb").read()
        )
        assert lines[0].startswith("segment [")
        # Directory through the CLI entry point.
        assert loginspect_main(["--archive", arch_dir, "--limit", "50"]) == 0
        out = capsys.readouterr().out
        assert "segment [" in out
        assert "InsertRow" in out

    def test_directory_filter_is_not_a_bare_prefix(self, env, tmp_path):
        """``shop`` must not swallow ``shop-eu``'s segments."""
        from repro.tools.loginspect import _segment_file_matches

        store = ArchiveStore(env, directory=str(tmp_path))
        (frame,) = record_frames(2)
        store.put_segment("shop", frame)
        store.put_segment("shop-eu", frame)
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2
        matched = [n for n in names if _segment_file_matches(n, "shop")]
        assert len(matched) == 1
        assert matched[0].startswith("shop-0")
        assert [n for n in names if _segment_file_matches(n, "shop-eu")] != matched

    @staticmethod
    def _archive_shop_and_shop_eu(engine, directory=None):
        """``shop`` and ``shop-eu`` archive the same history (so the same
        LSN extents) into one store; returns the store."""
        store = None
        for name in ("shop", "shop-eu"):
            db = engine.create_database(name)
            db.create_table(ITEMS_SCHEMA)
            if store is None:
                store = engine.enable_archiving(name, directory=directory).store
            else:
                engine.enable_archiving(name, store=store)
            fill_items(db, 40)
            db.log.flush()
        engine.replication_tick()
        return store

    def test_store_mode_keeps_hyphenated_databases_apart(self, engine):
        """The store labels segments by bare database name: ``shop-eu``
        must not be read back as ``shop`` (a false LOG003 overlap, and one
        merged metrics block counting both databases' segments)."""
        from repro.tools.loginspect import archive_metrics_report, lint_log_segments

        store = self._archive_shop_and_shop_eu(engine)
        assert lint_log_segments(store) == []
        lines = archive_metrics_report(store)
        for name in ("shop", "shop-eu"):
            count = len(store.segments(name))
            assert count > 0
            assert f"archive.{name}.segments_archived = {count}" in lines
        assert len(lines) == 8

    def test_metrics_cli_over_a_directory(self, engine, tmp_path, capsys):
        """``--metrics`` on a directory archive: one gauge block per
        database, the segment counts those of its ``.seg`` files."""
        self._archive_shop_and_shop_eu(engine, directory=str(tmp_path))
        assert loginspect_main(["--archive", str(tmp_path), "--metrics"]) == 0
        lines = capsys.readouterr().out.splitlines()
        files = os.listdir(tmp_path)
        for name in ("shop", "shop-eu"):
            count = sum(f.rsplit("-", 2)[0] == name for f in files)
            assert count > 0
            assert f"archive.{name}.segments_archived = {count}" in lines
        assert len(lines) == 8
        assert loginspect_main(["--archive", str(tmp_path), "--lint-log"]) == 0

    def test_dump_limit(self, engine, items_db):
        engine.enable_archiving("itemsdb")
        fill_items(items_db, 50)
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        lines = dump_archive(engine.archives["itemsdb"].store, "itemsdb", limit=10)
        assert len(lines) <= 13  # limit + segment headers + ellipsis


def test_archive_log_under_racing_first_readers(engine, monkeypatch):
    """Session threads whose past-retention reads are the first to read
    a database's archived log: unlatched, two of them pay the archive
    read for one segment twice, or ship one pending range to the
    archiver twice. Five fresh archives per run, a busy thread for the
    preemptions a quiet host rarely gives, and a first charge that waits
    (boundedly) until a second reader has called ``store.log``, so the
    two meet mid-charge."""
    marks = {}
    for name in "abcde":
        db = engine.create_database(name)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 30)
        engine.backup_database(name)
        marks[name] = db.env.clock.now()
        db.env.clock.advance(10)
        fill_items(db, 30, start=30)
        expire_retention(db)  # leaves checkpoints the archiver has yet to receive
    for store in {id(a.store): a.store for a in engine.archives.values()}.values():
        second, readers = threading.Event(), itertools.count()

        def log(name: str, read=store.log, second=second, readers=readers):
            if next(readers) == 1:
                second.set()
            return read(name)

        def charge_read(nbytes: int, charge=store._charge_read, second=second) -> None:
            # A second reader may be held behind the latch in an archive
            # flush instead: then go on after the wait.
            second.wait(1.0)
            second.set()
            charge(nbytes)

        monkeypatch.setattr(store, "log", log)
        monkeypatch.setattr(store, "_charge_read", charge_read)
    stop = threading.Event()

    def hog() -> None:
        while not stop.is_set():
            sum(range(200))

    def session(name: str) -> int:
        with engine.query_as_of(name, marks[name]) as copy:
            return len(list(copy.scan("items")))

    busy = threading.Thread(target=hog, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    busy.start()
    try:
        for name in marks:
            tasks = [lambda name=name: session(name) for _ in range(6)]
            assert engine.run_sessions(tasks, workers=6, timeout_s=60.0) == [30] * 6
    finally:
        stop.set()
        busy.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not busy.is_alive()
    expected = 0
    for name in marks:
        store = engine.archives[name].store
        assert store.log(name).end_lsn == store.coverage(name)[1]
        # Each segment once, and the one backup the one restore laid down.
        expected += sum(seg.frame_bytes for seg in store.segments(name))
        expected += sum(b.size_bytes for b in store.backups(name))
    assert engine.env.stats.archive_read_bytes == expected
