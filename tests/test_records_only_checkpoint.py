"""A pooled AS OF read checkpoints the primary with records only.

Its build forces a checkpoint-begin and end, an anchor for later splits,
and flushes no page and moves no boot page: crash recovery keeps starting
at the last sharp checkpoint. Named snapshot DDL keeps section 5.1's sharp
checkpoint.
"""

from __future__ import annotations

import pytest

from repro import DatabaseConfig
from repro.engine.boot import BOOT_PAGE_ID, read_boot_record
from repro.storage.page import Page
from repro.tools import check_database
from tests.conftest import ITEMS_SCHEMA, scanned_checkpoints

#: Sixteen 1 KiB frames: a few hundred rows evict the boot page.
TINY_POOL = DatabaseConfig(page_size=1024, buffer_pool_pages=16)


def _pooled_read(engine, how: str, wall: float) -> list:
    if how == "sql":
        return engine.sql(f"SELECT id, name, qty FROM items AS OF {wall!r}", "crashdb").rows
    with engine.query_as_of("crashdb", wall) as snap:
        return list(snap.scan("items"))


class _Primary:
    """A database and the rows its commits left, key -> row."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.db = engine.create_database("crashdb", TINY_POOL)
        self.db.create_table(ITEMS_SCHEMA)
        self.rows: dict[int, tuple] = {}

    def write(self, lo: int, hi: int, tag: str) -> None:
        db = self.db
        with db.transaction() as txn:
            for i in range(lo, hi):
                row = (i, f"{tag}-{i}", i)
                if i in self.rows:
                    db.update(txn, "items", (i,), {"name": row[1]})
                else:
                    db.insert(txn, "items", row)
                self.rows[i] = row
        db.env.clock.advance(1.0)

    def committed(self) -> list:
        return [self.rows[key] for key in sorted(self.rows)]


@pytest.mark.parametrize("how", ["query_as_of", "sql"])
def test_crash_after_a_pooled_read_recovers_every_commit(engine, how):
    """Dirty pages older than the records-only checkpoint, commits after
    it, and the boot page dirtied, evicted and written after it; then a
    crash. Recovery starts at the sharp checkpoint the boot page still
    names, every committed row is back, and the forced records still
    anchor the same split."""
    primary = _Primary(engine)
    db, clock, stats = primary.db, engine.env.clock, engine.env.stats
    primary.write(0, 120, "base")
    sharp = db.checkpoint()
    primary.write(0, 40, "dirty")  # pages dirty below the coming checkpoint
    early = set(db.buffer.dirty_page_ids())
    mark = clock.now()
    at_mark = primary.committed()
    clock.advance(5.0)
    primary.write(40, 60, "late")
    dirty = set(db.buffer.dirty_page_ids())
    assert dirty
    writes, taken = stats.page_writes, stats.checkpoints_taken

    assert sorted(_pooled_read(engine, how, mark)) == at_mark
    records_only, _wall, prev = scanned_checkpoints(db.log)[0]
    assert records_only > sharp and prev == sharp
    assert db.log.durable_lsn > records_only  # forced: the anchor survives a crash
    assert db.last_checkpoint_lsn == sharp
    assert db.boot_record().last_checkpoint_lsn == sharp
    assert stats.page_writes == writes and stats.checkpoints_taken == taken
    assert dirty <= set(db.buffer.dirty_page_ids())

    primary.write(60, 90, "after")  # commits after it
    db.set_undo_interval(7200.0)  # dirties the boot page
    assert db.buffer.peek(BOOT_PAGE_ID).dirty
    for lo in range(200, 600, 20):  # evicts the boot page; rows 0-39 stay hot
        primary.write(lo, lo + 20, "evict")
        for i in range(40):
            db.get("items", (i,))
    assert db.buffer.peek(BOOT_PAGE_ID) is None  # evicted, so written
    on_disk = db.buffer.file_manager.read_page
    # A page changed below the records-only checkpoint, last written by
    # the sharp one: only redo from the sharp checkpoint restores it.
    assert any(Page(on_disk(page_id)).page_lsn < sharp for page_id in early)
    boot = read_boot_record(Page(on_disk(BOOT_PAGE_ID)))
    db.crash()
    db.recover()

    assert (boot.last_checkpoint_lsn, boot.undo_interval_s) == (sharp, 7200.0)
    assert list(db.scan("items")) == primary.committed()
    report = check_database(db)
    assert report.ok, report.problems
    assert records_only in [lsn for lsn, _wall, _prev in scanned_checkpoints(db.log)]
    assert db.log.checkpoint_before(db.log.last_commit_lsn)[0] > records_only
    assert sorted(_pooled_read(engine, how, mark)) == at_mark


def test_a_named_snapshot_keeps_the_sharp_checkpoint(engine):
    """``CREATE DATABASE ... AS SNAPSHOT OF ... AS OF`` moves the boot page
    and writes the dirty pages; a pooled read at the same time does
    neither."""
    primary = _Primary(engine)
    db, clock, stats = primary.db, engine.env.clock, engine.env.stats
    primary.write(0, 80, "base")
    mark = clock.now()
    at_mark = primary.committed()
    clock.advance(5.0)
    primary.write(0, 30, "later")
    before = db.last_checkpoint_lsn
    writes, taken = stats.page_writes, stats.checkpoints_taken
    assert sorted(_pooled_read(engine, "query_as_of", mark)) == at_mark
    assert (db.last_checkpoint_lsn, stats.page_writes, stats.checkpoints_taken) == (before, writes, taken)

    moment = clock.to_datetime(mark).replace(tzinfo=None).isoformat(sep=" ")
    engine.sql(f"CREATE DATABASE named AS SNAPSHOT OF crashdb AS OF '{moment}'")
    assert db.last_checkpoint_lsn > before
    assert db.boot_record().last_checkpoint_lsn == db.last_checkpoint_lsn
    assert stats.page_writes > writes and stats.checkpoints_taken == taken + 1
    assert not db.buffer.dirty_page_ids()
    assert list(engine.snapshots["named"].scan("items")) == at_mark
