"""``Table.update`` against a read–merge–write reference.

``Table.update`` rewrites its row under one descent: the tree's rewrite
loop decodes the old row, applies ``changes``, encodes and logs the new
one while the leaf stays pinned. The reference below is the other way
round, kept here only: a point read, a dict merge, then a full-row
``BTree.update``. On random ``changes`` both give the same new row, the
same page bytes and the same log end, or raise the same exception type
without appending a record; a successful update is charged the same sim
seconds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine, SimEnv
from repro.access.btree import object_page_ids
from repro.config import CostModel
from repro.errors import KeyNotFoundError, StorageError
from repro.txn.locks import LockMode
from tests.conftest import WIDE_SCHEMA

KEYS = [(k1, f"k{k1 % 3}") for k1 in range(12)]
#: The rows the tables start with; the last two keys are missing.
ROWS = [(k1, k2, k1 / 2, k1 % 2 == 0, None, "n" * (100 + 10 * k1)) for k1, k2 in KEYS[:10]]


def reference_update(db, txn, key: tuple, changes: dict) -> tuple:
    """The read–merge–write ``Table.update`` was before it took one descent."""
    table = db.table("wide")
    db.locks.acquire(txn, table._lock_key(key), LockMode.EXCLUSIVE, db.env.stats)
    current = table.accessor.get(key)
    if current is None:
        raise KeyNotFoundError(f"wide: no row with key {key!r}")
    merged = dict(zip(table.schema.column_names, current, strict=True))
    merged.update(changes)
    new_row = table.schema.row_from_dict(merged)
    table.accessor.update(txn, key, new_row)
    return new_row


def table_update(db, txn, key: tuple, changes: dict) -> tuple:
    return db.update(txn, "wide", key, changes)


def _database(name: str):
    env = SimEnv(cost=CostModel())
    db = Engine(env).create_database(name, DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db.create_table(WIDE_SCHEMA)
    with db.transaction() as txn:
        for row in ROWS:
            db.insert(txn, "wide", row)
    return db


def _pages(db) -> list[bytes]:
    tree = db.table("wide").accessor
    pages = []
    for page_id in sorted(object_page_ids(tree.services.fetch, tree.root_page_id)):
        with db.fetch_page(page_id) as guard:
            pages.append(bytes(guard.page.data))
    return pages


def _run(db, update, key, changes):
    """``(outcome, charges)``: the new row or the exception type, and the
    CPU seconds charged in order, with the log end checked unchanged on
    an error."""
    charges = []
    real_charge = db.env.charge_cpu
    db.env.charge_cpu = lambda seconds: (charges.append(seconds), real_charge(seconds))
    try:
        with db.transaction() as txn:
            end = db.log.end_lsn
            try:
                return update(db, txn, key, changes), charges
            except Exception as exc:
                assert db.log.end_lsn == end, "a failed update appended a log record"
                return type(exc), charges
    finally:
        db.env.charge_cpu = real_charge


values = {
    "k1": st.sampled_from([0, 1, 2, -5]),
    "k2": st.sampled_from(["k0", "k1", "k2", "zz"]),
    "f": st.one_of(st.floats(allow_nan=False), st.integers(-3, 3), st.none(), st.just("1.5")),
    "b": st.one_of(st.booleans(), st.none(), st.just(1)),
    "blob": st.one_of(st.none(), st.binary(max_size=220), st.just(b"b" * 200)),  # 221+: too long
    "note": st.one_of(st.none(), st.text(max_size=210), st.just("m" * 200), st.just(b"bytes")),
    "zzz": st.just(0),
}
#: Mostly value columns: a key column or an unknown one is one error each.
columns = st.sampled_from(["f", "b", "blob", "note"] * 3 + ["k1", "k2", "zzz"])
changes_of = st.lists(columns, unique=True, max_size=4).flatmap(
    lambda names: st.fixed_dictionaries({name: values[name] for name in names})
)


@settings(max_examples=60, deadline=None)
@given(updates=st.lists(st.tuples(st.sampled_from(KEYS), changes_of), min_size=1, max_size=6))
def test_update_matches_read_merge_write(updates):
    new, ref = _database("new"), _database("ref")
    for key, changes in updates:
        got, got_charges = _run(new, table_update, key, changes)
        want, want_charges = _run(ref, reference_update, key, changes)
        assert got == want, (key, changes)
        if isinstance(want, tuple):
            assert got_charges == want_charges
            assert new.get("wide", key) == want
        else:
            assert want in (ValueError, TypeError, StorageError, KeyNotFoundError)
        assert new.log.end_lsn == ref.log.end_lsn
        assert _pages(new) == _pages(ref)


@pytest.mark.parametrize(
    ("key", "changes", "error"),
    [
        ((0, "k0"), {"zzz": 1}, ValueError),  # unknown column
        ((11, "k2"), {"f": 1.0}, KeyNotFoundError),  # missing key
        ((0, "k0"), {"k1": 3}, StorageError),  # changed key
        ((0, "k0"), {"f": "1.5"}, TypeError),  # wrong type
        ((0, "k0"), {"b": None}, ValueError),  # NULL in a NOT NULL column
    ],
)
def test_each_error_keeps_its_type_and_appends_nothing(key, changes, error):
    db = _database("errors")
    before = _pages(db)
    outcome, _charges = _run(db, table_update, key, changes)
    assert outcome is error
    assert _pages(db) == before


def test_growing_rows_split_their_leaves_like_the_reference():
    """Rows grown past their leaf's free space split it inside the one
    rewrite loop, and end in the pages the reference's writes give."""
    new, ref = _database("new"), _database("ref")
    leaves = len(_pages(new))
    big = {"blob": b"b" * 200, "note": "m" * 200}
    for key in KEYS[:10]:
        got, _charges = _run(new, table_update, key, big)
        assert got == _run(ref, reference_update, key, big)[0]
    assert len(_pages(new)) > leaves
    assert _pages(new) == _pages(ref)
