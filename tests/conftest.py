"""Shared fixtures: zero-cost environments, databases, schemas."""

from __future__ import annotations

import os

import pytest

from repro import (
    Column,
    ColumnType,
    DatabaseConfig,
    Engine,
    SimEnv,
    TableSchema,
)
from repro.access.btree import object_page_ids
from repro.errors import SnapshotReadOnlyError
from repro.wal.records import RecordType


#: Examples per run of the hypothesis machines that check the log's
#: directories against a scan (``tests/test_split_lsn.py``,
#: ``tests/test_txn_directory.py``): 200, or 3 000 under
#: ``REPRO_HYPOTHESIS_PROFILE=long`` (CI's tests job has a step for it).
MACHINE_EXAMPLES = 3000 if os.environ.get("REPRO_HYPOTHESIS_PROFILE") == "long" else 200


@pytest.fixture
def env() -> SimEnv:
    """Free-I/O, free-CPU environment for logic tests."""
    return SimEnv.for_tests()


@pytest.fixture
def engine(env) -> Engine:
    return Engine(env)


@pytest.fixture
def small_config() -> DatabaseConfig:
    """Small pages so splits and multi-page structures appear quickly."""
    return DatabaseConfig(page_size=1024, buffer_pool_pages=64)


@pytest.fixture
def db(engine):
    return engine.create_database("testdb")


@pytest.fixture
def small_db(engine, small_config):
    return engine.create_database("smalldb", small_config)


ITEMS_SCHEMA = TableSchema(
    "items",
    (
        Column("id", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=64),
        Column("qty", ColumnType.INT),
    ),
    key=("id",),
)


WIDE_SCHEMA = TableSchema(
    "wide",
    (
        Column("k1", ColumnType.INT),
        Column("k2", ColumnType.STR, max_len=32),
        Column("f", ColumnType.FLOAT),
        Column("b", ColumnType.BOOL),
        Column("blob", ColumnType.BYTES, max_len=200, nullable=True),
        Column("note", ColumnType.STR, max_len=200, nullable=True),
    ),
    key=("k1", "k2"),
)


@pytest.fixture
def items_schema() -> TableSchema:
    return ITEMS_SCHEMA


@pytest.fixture
def wide_schema() -> TableSchema:
    return WIDE_SCHEMA


@pytest.fixture
def items_db(engine):
    """A database with the items table created."""
    database = engine.create_database("itemsdb")
    database.create_table(ITEMS_SCHEMA)
    return database


def table_pages(database, name: str) -> list[int]:
    """Every page of table ``name``, root first (``object_page_ids``)."""
    return object_page_ids(database.fetch_page, database.catalog.require(name).root_page)


def fill_items(database, count: int, start: int = 0) -> None:
    """Insert ``count`` rows into the items table in one transaction."""
    with database.transaction() as txn:
        for i in range(start, start + count):
            database.insert(txn, "items", (i, f"item-{i}", i * 10))


def assert_refuses_writes(engine, restored) -> None:
    """``restored`` answers reads and turns every way of starting a write
    away with SnapshotReadOnlyError (both restore routes)."""
    with pytest.raises(SnapshotReadOnlyError):
        with restored.transaction():
            pass
    session = engine.session(restored.name)
    for statement in ("INSERT INTO items VALUES (999, 'x', 1)", "BEGIN"):
        with pytest.raises(SnapshotReadOnlyError):
            session.execute(statement)
    assert session.execute("SELECT qty FROM items WHERE id = 1").rows
    # A full shell: the state Database.__init__ owns is all there.
    fresh = type(restored)("probe", restored.config, engine.env, bootstrap=False)
    assert vars(restored).keys() == vars(fresh).keys()


def pool_entries(pool) -> list[tuple[str, int, int, int]]:
    """``(db_name, split_lsn, refcount, side_file_bytes)`` per pooled
    snapshot, least recently used first."""
    with pool.latch:
        ordered = sorted(pool._entries.items(), key=lambda item: item[1].last_used)
        return [
            (name, split, entry.refcount, entry.snapshot.side_file_bytes())
            for (name, split), entry in ordered
        ]


def stored_versions(store, store_key: str, page_id: int) -> list[tuple[int, int]]:
    """``(version_lsn, limit_lsn)`` intervals a version store holds for a page."""
    with store.latch:
        return [(v.version_lsn, v.limit_lsn) for v in store._versions.get((store_key, page_id), ())]


def scanned_checkpoints(log) -> list[tuple[int, float, int]]:
    """``(lsn, wall, prev)`` of every checkpoint-begin record in the
    retained log, newest first: the oracle for the log's checkpoint
    directory, read the slow way."""
    found = log.scan(log.start_lsn, types=(RecordType.CHECKPOINT_BEGIN,))
    return [(rec.lsn, rec.wall_clock, rec.prev_checkpoint_lsn) for rec in found][::-1]
