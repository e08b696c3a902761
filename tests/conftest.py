"""Shared fixtures: zero-cost environments, databases, schemas."""

from __future__ import annotations

import pytest

from repro import (
    Column,
    ColumnType,
    DatabaseConfig,
    Engine,
    SimEnv,
    TableSchema,
)
from repro.errors import SnapshotReadOnlyError


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
