"""One AS OF pool per engine: a standby's leases live in ``engine.snapshot_pool``.

A lease over a standby, routed by :meth:`Engine.pin_as_of` or forced by
``query_as_of(replica=)``, is an entry of the engine's pool keyed
``(standby name, split)``. Dropping or promoting the standby purges
those entries; the pool's one budget bounds primary and standby leases
together; ``pin_as_of`` hands back the reader alone and
``unpin_as_of`` releases it.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.core.asof import AsOfSnapshot
from repro.core.split_lsn import find_split_lsn
from repro.engine.database import Database
from repro.errors import ReplicationError, SnapshotError
from tests.conftest import ITEMS_SCHEMA, fill_items, pool_entries
from tests.test_archive import _marked_generations, expire_retention


def _names(engine) -> list[str]:
    return [name for name, *_ in pool_entries(engine.snapshot_pool)]


def _standby_with_history(engine, db):
    """A caught-up standby ``standby`` of ``db`` and two marks, each
    followed by a write."""
    fill_items(db, 10)
    standby = engine.add_replica(db.name, "standby")
    marks = []
    for value in (1, 2):
        marks.append(engine.env.clock.now())
        engine.env.clock.advance(1.0)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": value})
    engine.replication_tick()
    return standby, marks


def test_routed_and_forced_standby_leases_land_in_the_engine_pool(engine, items_db):
    standby, (early, late) = _standby_with_history(engine, items_db)
    with engine.query_as_of(items_db.name, late) as routed:
        assert routed.db is standby.db
        assert routed.get("items", (1,))[2] == 1
    with engine.query_as_of(items_db.name, early, replica="standby") as forced:
        assert forced.db is standby.db
        assert forced.get("items", (1,))[2] == 10
    assert sorted(entry[:2] for entry in pool_entries(engine.snapshot_pool)) == sorted(
        ("standby", find_split_lsn(standby.db, t)) for t in (early, late)
    )
    assert engine.snapshot_pool.stats.misses == 2


@pytest.mark.parametrize("route", ["drop_replica", "promote_replica"])
def test_retiring_a_standby_purges_its_entries(engine, items_db, route):
    standby, (early, late) = _standby_with_history(engine, items_db)
    with engine.snapshot_pool.lease(items_db, early):
        pass
    held = engine.pin_as_of(items_db.name, late)
    assert held.db is standby.db
    assert sorted(_names(engine)) == ["itemsdb", "standby"]
    getattr(engine, route)("standby")
    assert _names(engine) == ["itemsdb"]
    # The lease held across the retirement reads nothing more, and its
    # release still balances (the pool's orphan path).
    with pytest.raises(SnapshotError):
        held.get("items", (2,))
    engine.unpin_as_of(held)
    assert engine.snapshot_pool.active_leases() == 0


def test_a_refused_promotion_keeps_the_standbys_entries(engine, items_db):
    standby, (early, late) = _standby_with_history(engine, items_db)
    with engine.query_as_of(items_db.name, late):
        pass
    with pytest.raises(ReplicationError, match="cannot promote back"):
        engine.promote_replica("standby", up_to=early)
    assert _names(engine) == ["standby"]
    assert engine.replicas["standby"] is standby and not standby.dropped


def test_a_promotion_purges_before_its_rollback_and_checkpoint(
    engine, items_db, monkeypatch
):
    import repro.replication.replica as replica_module

    standby, (_early, late) = _standby_with_history(engine, items_db)
    with engine.query_as_of(items_db.name, late):
        pass
    seen = {}
    real_undo_pass = replica_module.undo_pass
    real_checkpoint = standby.db.checkpoint

    def undo_pass(db, analysis):
        seen["rollback"] = _names(engine)
        return real_undo_pass(db, analysis)

    def checkpoint(*args, **kwargs):
        seen.setdefault("checkpoint", _names(engine))
        return real_checkpoint(*args, **kwargs)

    monkeypatch.setattr(replica_module, "undo_pass", undo_pass)
    monkeypatch.setattr(standby.db, "checkpoint", checkpoint)
    assert _names(engine) == ["standby"]
    engine.promote_replica("standby")
    assert seen == {"rollback": [], "checkpoint": []}


def _one_entry_bytes() -> int:
    """What one pooled point read of a small items table charges."""
    engine = Engine()
    db = engine.create_database("itemsdb")
    db.create_table(ITEMS_SCHEMA)
    fill_items(db, 10)
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    with engine.query_as_of("itemsdb", mark) as view:
        view.get("items", (1,))
    return engine.snapshot_pool.total_bytes()


def test_a_standby_lease_evicts_an_idle_primary_entry():
    budget = _one_entry_bytes()
    engine = Engine(snapshot_pool_budget=budget)
    db = engine.create_database("itemsdb")
    db.create_table(ITEMS_SCHEMA)
    fill_items(db, 10)
    engine.add_replica("itemsdb", "standby")
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    with engine.snapshot_pool.lease(db, mark) as view:
        view.get("items", (1,))
    assert _names(engine) == ["itemsdb"]
    assert engine.snapshot_pool.total_bytes() == budget
    with engine.query_as_of("itemsdb", mark, replica="standby") as view:
        view.get("items", (1,))
    assert _names(engine) == ["standby"]
    assert engine.snapshot_pool.stats.evictions == 1


def test_pin_as_of_returns_a_bare_reader_and_unpin_releases_it(engine, items_db):
    fill_items(items_db, 10)
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    reader = engine.pin_as_of("itemsdb", mark)
    assert isinstance(reader, AsOfSnapshot)
    assert engine.snapshot_pool.active_leases() == 1
    engine.unpin_as_of(reader)
    assert engine.snapshot_pool.active_leases() == 0
    assert engine.snapshot_pool.stats.releases == 1
    with pytest.raises(SnapshotError, match="released twice"):
        engine.unpin_as_of(reader)


def test_unpin_of_an_archive_copy_does_nothing(engine, items_db):
    marks = _marked_generations(engine, items_db)
    expire_retention(items_db)
    copy = engine.pin_as_of("itemsdb", marks[0])
    assert isinstance(copy, Database)
    stats = vars(engine.snapshot_pool.stats).copy()
    engine.unpin_as_of(copy)
    engine.unpin_as_of(copy)
    assert vars(engine.snapshot_pool.stats) == stats
    # The engine's cache still owns the copy: the next pin reuses it.
    assert not copy.closed and copy.get("items", (1,))[2] == 1000
    assert engine.pin_as_of("itemsdb", marks[0]) is copy
