"""Pin balance: no B-tree operation leaves a frame pinned.

A descent hands its caller the page it reached still pinned, and each
caller releases it on every way out: a write that splits and retries, an
error (duplicate key, missing key, an unformatted page), a rollback's
compensations, a ``scan`` generator closed partway. The same holds for
the pages an AS OF snapshot serves. After every step of a random history
on a tree of 1 KiB pages behind a 16-frame pool, every buffer-pool frame
and every snapshot frame has ``pin_count == 0``, and the tree and each
snapshot answer what a dict model of the rows says.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Column, ColumnType, DatabaseConfig, Engine, SimEnv, TableSchema
from repro.access.btree import BTree
from repro.errors import BufferPoolError, DuplicateKeyError, KeyNotFoundError, StorageError

SCHEMA = TableSchema(
    "t",
    (Column("k", ColumnType.INT), Column("body", ColumnType.STR, max_len=300)),
    key=("k",),
)
#: A page id past the end of the data file: it reads as zeros, so a tree
#: rooted there fails its descent with "unformatted".
UNFORMATTED_PAGE = 10_000

keys = st.integers(0, 40)
sizes = st.integers(0, 300)
steps = st.one_of(
    st.tuples(st.just("insert"), keys, sizes),
    st.tuples(st.just("update"), keys, sizes),
    st.tuples(st.just("delete"), keys),
    st.tuples(
        st.just("rollback"),
        st.lists(
            st.tuples(st.sampled_from(["insert", "update", "delete"]), keys, sizes), max_size=5
        ),
    ),
    st.tuples(st.just("scan"), keys, keys, st.integers(0, 4)),
    st.tuples(st.just("unformatted"), keys),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("asof_get"), keys),
    st.tuples(st.just("asof_scan"), keys, st.integers(0, 4)),
)


class _Rollback(Exception):
    pass


def _write(db, txn, model: dict, op: str, key: int, size: int = 0) -> None:
    """One row write against ``db`` and ``model``; a write the model says
    must fail is checked to raise its error."""
    row = (key, "x" * size)
    if op == "insert":
        if key in model:
            with pytest.raises(DuplicateKeyError):
                db.insert(txn, "t", row)
            return
        db.insert(txn, "t", row)
        model[key] = row
    elif key not in model:
        with pytest.raises(KeyNotFoundError):
            if op == "update":
                db.update(txn, "t", (key,), {"body": row[1]})
            else:
                db.delete(txn, "t", (key,))
    elif op == "update":
        assert db.update(txn, "t", (key,), {"body": row[1]}) == row
        model[key] = row
    else:
        assert db.delete(txn, "t", (key,)) == model.pop(key)


def _take(rows, count: int) -> list:
    """The first ``count`` rows of a generator, which is then closed."""
    taken = []
    for row in rows:
        if len(taken) == count:
            break
        taken.append(row)
    rows.close()
    return taken


def _assert_unpinned(db, snapshots) -> None:
    with db.buffer.latch:
        assert [f for f in db.buffer._frames.values() if f.pin_count] == []
    for snap, _rows in snapshots:
        with snap.latch:
            assert [f for f in snap._frames.values() if f.pin_count] == []


@settings(max_examples=40, deadline=None)
@given(history=st.lists(steps, max_size=40))
def test_every_step_leaves_every_frame_unpinned(history):
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("pins", DatabaseConfig(page_size=1024, buffer_pool_pages=16))
    db.create_table(SCHEMA)
    model = {key: (key, "x" * 100) for key in range(0, 40, 2)}  # ~7 leaves
    with db.transaction() as txn:
        for row in model.values():
            db.insert(txn, "t", row)
    snapshots: list = []  # (snapshot, the model's rows at its mark)
    for step in history:
        op = step[0]
        if op in ("insert", "update", "delete"):
            with db.transaction() as txn:
                _write(db, txn, model, *step)
        elif op == "rollback":
            scratch = dict(model)
            with pytest.raises(_Rollback):
                with db.transaction() as txn:
                    for write in step[1]:
                        _write(db, txn, scratch, *write)
                    raise _Rollback
        elif op == "scan":
            lo, hi, count = min(step[1:3]), max(step[1:3]), step[3]
            expected = [model[k] for k in sorted(model) if lo <= k <= hi]
            assert _take(db.scan("t", (lo,), (hi,)), count) == expected[:count]
        elif op == "unformatted":
            for services in (db.services, *(snap.services for snap, _rows in snapshots[-1:])):
                tree = BTree(
                    object_id=999, root_page_id=UNFORMATTED_PAGE, schema=SCHEMA, services=services
                )
                with pytest.raises(StorageError, match="unformatted"):
                    tree.get((step[1],))
        elif op == "snapshot":
            mark = engine.env.clock.now()
            engine.env.clock.advance(1.0)
            snap = engine.create_asof_snapshot("pins", f"s{len(snapshots)}", mark)
            snapshots.append((snap, dict(model)))
        elif snapshots:
            snap, rows = snapshots[-1]
            if op == "asof_get":
                assert snap.get("t", (step[1],)) == rows.get(step[1])
            else:
                expected = [rows[k] for k in sorted(rows) if k >= step[1]]
                assert _take(snap.scan("t", (step[1],)), step[2]) == expected[: step[2]]
        _assert_unpinned(db, snapshots)
    assert list(db.scan("t")) == [model[k] for k in sorted(model)]
    for snap, rows in snapshots:
        assert list(snap.scan("t")) == [rows[k] for k in sorted(rows)]
    _assert_unpinned(db, snapshots)


def test_snapshot_guard_refuses_an_over_release(items_db, engine):
    """A snapshot's page guard checks its pin count the way a buffer
    pool's does, instead of driving it negative."""
    with items_db.transaction() as txn:
        items_db.insert(txn, "items", (1, "one", 10))
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    snap = engine.create_asof_snapshot(items_db.name, "then", mark)
    root = snap.table("items").info.root_page
    for source in (items_db, snap):
        guard = source.fetch_page(root)
        assert guard.frame.pin_count == 1
        guard.unpin()
        with pytest.raises(BufferPoolError, match="unpinned more times than pinned"):
            guard.unpin()
        assert guard.frame.pin_count == 0
