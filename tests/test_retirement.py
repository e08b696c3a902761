"""Retire leaves no trace: one matrix over every route out of the engine.

Everything an owner (database, standby, shipper, archiver) wires into the
engine while it lives — registry instruments, the monitor's recorded
series and alert conditions, pool entries, version-store entries, the
shipper/archiver/fallback-copy tables — is undone in one place when it
leaves (``Engine._retire_database`` / ``_retire_replica`` /
``_retire_archiver``; ``docs/observability.md``, "Lifecycle"). Each route
below dooms an owner whose every name carries the marker ``doomed``,
lets it leave traces everywhere it can (and asserts it did — a purge
check over an owner that never alerted proves nothing), sends it out,
ticks the monitor again, and then holds the engine to the footprint
recorded before the owner existed — plus only what the route is
documented to keep.

``tests/test_monitoring.py``'s three hand-written purge checks
(drop_database / drop_replica / promote_replica) moved here as the
``drop_database``, ``drop_replica`` and ``promote_replica`` routes.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

import pytest

from repro import DatabaseConfig, Engine
from repro.config import CostModel, MonitorConfig, SimEnv
from repro.engine.database import Database
from repro.errors import (
    CatalogError,
    DatabaseUnavailableError,
    RetentionExceededError,
    SnapshotError,
)
from repro.sim.device import SAS_10K
from tests.conftest import pool_entries

ITEMS_DDL = "CREATE TABLE items (id INT NOT NULL, qty INT, PRIMARY KEY (id))"
#: The engine's catalog tables, by attribute.
CATALOG = ("databases", "replicas", "snapshots", "_shippers", "archives", "_archive_reads")


def monitored_engine() -> Engine:
    """A priced engine whose every lifecycle alert is on a hair trigger,
    with one quiet survivor database, ``shop``, and the monitor running."""
    engine = Engine(
        SimEnv(SAS_10K, SAS_10K, CostModel()),
        config=DatabaseConfig(page_size=1024, buffer_pool_pages=64),
        monitor_config=MonitorConfig(
            sample_interval_s=0.01,
            apply_lag_bytes=2000,
            archive_lag_bytes=2000,
            pin_lag_bytes=2000,
            slow_query_sim_s=0.0,
        ),
    )
    create(engine, "shop")
    engine.start_monitor()
    return engine


def create(engine, name: str) -> Database:
    db = engine.create_database(name)
    engine.sql(ITEMS_DDL, name)
    return db


def write(engine, name: str, count: int, start: int = 0) -> None:
    """``count`` autocommitted inserts — each one a monitor pump point."""
    for i in range(start, start + count):
        engine.sql(f"INSERT INTO items VALUES ({i}, {i})", name)


def settle(engine) -> None:
    """Ship, apply, and let one more sample + rule evaluation land."""
    engine.replication_tick()
    engine.env.clock.advance(engine.monitor_config.sample_interval_s)
    engine.monitor_tick()


def expire_retention(db, window_s: float = 5.0) -> None:
    db.set_undo_interval(window_s)
    for _ in range(2):
        db.env.clock.advance(window_s * 20)
        db.checkpoint()
    db.enforce_retention()


def footprint(engine) -> dict:
    """Every place an owner can leave a trace in the engine, by name."""
    monitor = engine.monitor
    sheet = {attr: sorted(getattr(engine, attr)) for attr in CATALOG}
    sheet["instruments"] = engine.env.metrics.names()
    sheet["series"] = monitor.recorder.names()
    sheet["conditions"] = sorted({row["metric"] for row in monitor.alert_rows()})
    sheet["pool"] = [entry[:2] for entry in pool_entries(engine.snapshot_pool)]
    return sheet


def traces_of(engine, marker: str) -> list[str]:
    """Every instrument, series and alert condition naming ``marker``."""
    sheet = footprint(engine)
    return [
        f"{kind}: {name}"
        for kind in ("instruments", "series", "conditions")
        for name in sheet[kind]
        if marker in name
    ]


def alerting(engine) -> list[str]:
    return [alert["metric"] for alert in engine.active_alerts()]


def assert_released(db) -> None:
    """``close()`` ran: nothing of ``db`` is held, reads refuse typed."""
    assert db.closed
    assert db.log.total_bytes() == 0
    assert len(db.buffer) == 0
    assert db.file_manager.page_count == 0
    for read in (lambda: db.get("items", (1,)), lambda: list(db.scan("items")), db.tables):
        with pytest.raises(DatabaseUnavailableError):
            read()


class Left(NamedTuple):
    """What a route reports back to the matrix."""

    #: The footprint recorded before the doomed owner existed.
    before: dict
    #: Substrings no instrument, series or condition may carry any more.
    gone: tuple
    #: {catalog attr: names} the route is documented to keep beyond ``before``.
    keeps: dict
    #: Databases whose memory the route must have released.
    released: tuple


# ----------------------------------------------------------------------
# The routes out
# ----------------------------------------------------------------------


def route_drop_database(engine):
    """DROP of a database with everything attached: a named snapshot, a
    pooled lease still out, a standby, an archiver with a backup, and a
    past-retention archive-fallback copy."""
    before = footprint(engine)
    doomed = create(engine, "doomed")
    engine.backup_database("doomed")
    write(engine, "doomed", 30)
    old_mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    expire_retention(doomed)
    with engine.query_as_of("doomed", old_mark) as copy:  # past retention
        assert copy.get("items", (1,)) == (1, 1)
    write(engine, "doomed", 10, start=30)
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    write(engine, "doomed", 10, start=40)
    pool, lease = engine.pin_as_of("doomed", mark)
    assert pool is engine.snapshot_pool
    assert lease.get("items", (35,)) == (35, 35)  # publishes page versions
    engine.create_asof_snapshot("doomed", "doomed_snap", mark)
    standby = engine.add_replica("doomed", "doomed_standby", seed_from_backup=True)
    write(engine, "doomed", 120, start=50)  # unshipped: lag + pin alerts fire

    assert "doomed" in engine._archive_reads
    assert engine.version_store.version_count("doomed") > 0
    assert ("doomed", lease.split_lsn) in engine.snapshot_pool._entries
    fired = {e["metric"] for e in engine.alert_events()}
    assert {
        "replica.doomed_standby.apply_lag_bytes",
        "retention.doomed.pin_lag_bytes",
    } <= fired

    engine.drop_database("doomed")

    # The lease that was out when the database went: typed refusal on
    # the next read, and its release still balances.
    with pytest.raises(SnapshotError):
        lease.get("items", (2,))
    pool.release(lease)
    assert pool.active_leases() == 0
    # A session that resolved the name just before the DROP landed must
    # not restore a fallback copy nobody could retire any more.
    with pytest.raises(CatalogError):
        engine._archive_fallback_reader("doomed", old_mark, RetentionExceededError("late"))
    # What DROP keeps: the archive *store* still restores the history.
    restored = engine.restore_from_archive("doomed", mark, "doomed_back")
    assert restored.get("items", (39,)) == (39, 39)
    engine.drop_database("doomed_back")
    return Left(
        before, ("doomed",), {"archives": ["doomed"]}, (doomed, standby.db, copy, restored)
    )


def route_failover(engine):
    """Crash + failover: the corpse is decommissioned; the promoted
    survivor and its re-pointed standby stay whole."""
    before = footprint(engine)
    doomed = create(engine, "doomed")
    write(engine, "doomed", 20)
    engine.backup_database("doomed")
    engine.add_replica("doomed", "heir")
    spare = engine.add_replica("doomed", "spare")
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    write(engine, "doomed", 40, start=20)
    with engine.query_as_of("doomed", mark) as snap:
        assert snap.get("items", (1,)) == (1, 1)
    settle(engine)
    engine.crash_database("doomed")
    for _ in range(4):  # the corpse's subscriptions fail and alert
        engine.env.clock.advance(2.0)
        engine.replication_tick()
    assert traces_of(engine, "~archive:doomed")
    assert any(e["rule"] == "repl.ship_stall" for e in engine.alert_events())

    promoted = engine.failover_to_replica("doomed", "heir")

    assert promoted.name == "heir" and spare.primary is promoted
    write(engine, "heir", 5, start=60)
    settle(engine)
    assert spare.get("items", (64,)) == (64, 64)
    assert alerting(engine) == []
    # The survivors' instruments: a database, its shipper and archiver,
    # a standby with its pool and subscription — and not the promoted
    # standby's replica-role ones.
    names = engine.env.metrics.names()
    for prefix in ("log.heir.", "shipper.heir.", "archive.heir.", "replica.spare.",
                   "pool.spare.", "repl.ship.spare.", "repl.ship.~archive:heir."):
        assert any(name.startswith(prefix) for name in names), prefix
    return Left(
        before,
        ("doomed", "replica.heir.", "pool.heir.", "repl.ship.heir."),
        {
            "databases": ["heir"],
            "replicas": ["spare"],
            "_shippers": ["heir"],
            "archives": ["doomed", "heir"],
        },
        (doomed,),
    )


def _lagging_standby(engine, name: str):
    """A standby of ``shop`` whose lag alert is firing and whose own pool
    holds an entry."""
    engine.shipper_for("shop")  # outlives its subscribers: part of "before"
    settle(engine)
    before = footprint(engine)
    standby = engine.add_replica("shop", name)
    settle(engine)
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    with engine.query_as_of("shop", mark):  # served from the standby's pool
        pass
    assert len(standby.snapshot_pool) == 1
    write(engine, "shop", 150)
    assert f"replica.{name}.apply_lag_bytes" in alerting(engine)
    assert engine.monitor_history(f"replica.{name}.*")
    return before, standby


def route_drop_replica(engine):
    before, standby = _lagging_standby(engine, "doomed_standby")
    engine.drop_replica("doomed_standby")
    # No ghost alert on a dead replica, with no tick in between; the
    # survivor's own pin alert clears at the next sample.
    assert alerting(engine) == ["retention.shop.pin_lag_bytes"]
    settle(engine)
    assert alerting(engine) == []
    assert standby.dropped and len(standby.snapshot_pool) == 0
    return Left(before, ("doomed",), {}, (standby.db,))


def route_promote_replica(engine):
    """The standby's *role* retires; its database lives on under the
    same name — so the promoted database is then dropped too, and the
    engine must be back where it started."""
    before, standby = _lagging_standby(engine, "doomed_heir")
    engine.replication_tick()  # promote requires a caught-up timeline
    promoted = engine.promote_replica("doomed_heir")
    assert alerting(engine) == ["retention.shop.pin_lag_bytes"]  # as above
    assert engine.databases["doomed_heir"] is promoted is standby.db
    assert not promoted.closed and promoted.get("items", (149,)) == (149, 149)
    for role in ("replica.doomed_heir.", "pool.doomed_heir.", "repl.ship.doomed_heir."):
        assert traces_of(engine, role) == []
    assert engine.env.metrics.names("log.doomed_heir.*")
    engine.drop_database("doomed_heir")
    return Left(before, ("doomed",), {}, (promoted,))


def route_disable_archiving(engine):
    """A switched-off archiver stops reporting: its lag must not grow
    into an alert over the writes that follow."""
    before = footprint(engine)
    doomed = create(engine, "doomed")
    engine.backup_database("doomed")
    settle(engine)
    assert traces_of(engine, "archive.doomed.")
    engine.disable_archiving("doomed")
    write(engine, "doomed", 200)
    settle(engine)
    assert alerting(engine) == []
    assert traces_of(engine, "archive.doomed.") == []
    assert traces_of(engine, "~archive:doomed") == []
    assert engine.archives["doomed"].closed
    # Resuming installs a fresh set over the new archiver.
    engine.enable_archiving("doomed")
    assert "archive.doomed.cursor_lag_bytes" in engine.env.metrics.names()
    assert engine.metrics_snapshot("archive.doomed.*")["gauges"][
        "archive.doomed.cursor_lag_bytes"
    ] == 0
    engine.drop_database("doomed")
    return Left(before, ("doomed",), {"archives": ["doomed"]}, (doomed,))


def route_restored_copy(engine):
    """``restore_from_archive`` registers a copy; dropping it leaves
    nothing — the source's archiver is part of the recorded state."""
    write(engine, "shop", 30)
    engine.backup_database("shop")
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    settle(engine)
    before = footprint(engine)
    copy = engine.restore_from_archive("shop", mark, "doomed_copy")
    assert copy.get("items", (7,)) == (7, 7)
    settle(engine)
    assert traces_of(engine, "log.doomed_copy.")
    engine.drop_database("doomed_copy")
    return Left(before, ("doomed",), {}, (copy,))


def route_namesake(engine):
    """``create_database`` over a dropped namesake: the new incarnation
    starts with a fresh database's footprint and nothing of the old."""
    create(engine, "fresh")
    settle(engine)
    before = footprint(engine)
    old = create(engine, "doomed")
    engine.backup_database("doomed")
    write(engine, "doomed", 30)
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    expire_retention(old)
    with engine.query_as_of("doomed", mark):
        pass
    settle(engine)
    engine.drop_database("doomed")
    assert sorted(engine.archives) == ["doomed"]

    reborn = create(engine, "doomed")
    settle(engine)
    assert reborn is not old
    assert engine.version_store.version_count("doomed") == 0
    expected = footprint(engine)
    for kind in ("instruments", "series", "conditions"):
        assert [n for n in expected[kind] if "doomed" in n] == [
            n.replace("fresh", "doomed") for n in expected[kind] if "fresh" in n
        ], kind
    engine.drop_database("doomed")
    return Left(before, ("doomed",), {}, (old, reborn))


ROUTES = {
    "drop_database": route_drop_database,
    "failover": route_failover,
    "drop_replica": route_drop_replica,
    "promote_replica": route_promote_replica,
    "disable_archiving": route_disable_archiving,
    "restored_copy": route_restored_copy,
    "namesake": route_namesake,
}


@pytest.mark.parametrize("route", ROUTES)
def test_retire_leaves_no_trace(route):
    engine = monitored_engine()
    before, gone, keeps, released = ROUTES[route](engine)
    settle(engine)  # a later sample must not resurrect anything
    after = footprint(engine)
    for attr in CATALOG:
        assert after[attr] == sorted(before[attr] + keeps.get(attr, [])), attr
    assert after["pool"] == before["pool"]
    assert engine.version_store.version_count("doomed") == 0
    for marker in gone:
        assert traces_of(engine, marker) == []
    for db in released:
        assert_released(db)
    # Nothing of the survivors went with it.
    for kind in ("instruments", "series"):
        assert set(before[kind]) <= set(after[kind]), kind
    # No condition is anchored to an instrument that is gone.
    assert [
        m for m in after["conditions"] if m not in after["series"] and "*" not in m
    ] == []


# ----------------------------------------------------------------------
# Database.close(): the leaf every route ends with
# ----------------------------------------------------------------------


class TestClose:
    def test_close_is_free_and_idempotent(self):
        engine = monitored_engine()
        db = create(engine, "doomed")
        write(engine, "doomed", 50)
        now, io = engine.env.clock.now(), engine.metrics_snapshot("io.*")
        db.close()
        db.close()
        assert engine.env.clock.now() == now
        assert engine.metrics_snapshot("io.*") == io
        assert_released(db)
        assert "doomed" in repr(db)


# ----------------------------------------------------------------------
# The archive-fallback cache is catalog state: latched like the rest
# ----------------------------------------------------------------------


def test_fallback_cache_under_concurrent_sessions():
    """Session threads reading two past-retention instants at once: each
    instant is restored once and the LRU holds exactly those two copies
    (an unlatched probe/insert restores twice and evicts a live copy)."""
    engine = monitored_engine()
    engine.backup_database("shop")
    marks = []
    for start in (0, 10):
        write(engine, "shop", 10, start=start)
        marks.append(engine.env.clock.now())
        engine.env.clock.advance(1.0)
    expire_retention(engine.database("shop"))

    def session(index: int) -> list[int]:
        served = []
        for turn in range(6):
            with engine.query_as_of("shop", marks[(index + turn) % 2]) as copy:
                assert len(list(copy.scan("items"))) in (10, 20)
                served.append(id(copy))
        return served

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        served = engine.run_sessions(
            [lambda i=i: session(i) for i in range(6)], workers=6, timeout_s=60.0
        )
    finally:
        sys.setswitchinterval(interval)
    cached = engine._archive_reads["shop"]
    assert len({split for split, _copy in cached}) == 2
    assert {copy for run in served for copy in run} == {id(copy) for _split, copy in cached}
