"""A row update logged as the bytes it changed: :class:`UpdateBytesRecord`.

The record is held to :meth:`~repro.storage.page.Page.update_record` of
the whole rows: over random rows and edits (length changes and heap
tombstones included) its redo, its physical undo and a CLR around its
compensation, redone and undone without log access, leave the bytes the
whole-row writes leave. Then the engine: AS OF after random update
batches against a reference, a loser holding span updates at the split,
and a TPC-C run that writes no whole-row update.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine, SimEnv
from repro.errors import MissingUndoInfoError, StorageError
from repro.tools.checkdb import check_database
from repro.wal.records import (
    FLAG_HEAP,
    ClrRecord,
    RecordType,
    UpdateBytesRecord,
    decode_record,
)
from repro.workload import TpccDriver, TpccScale, load_tpcc
from tests.conftest import ITEMS_SCHEMA
from tests.test_row_move import INSERT_LSN, copy, page_with

_ROW = st.binary(max_size=40)


def wire(rec):
    """``rec`` as a reader of the log gets it back, at :data:`INSERT_LSN`."""
    return decode_record(rec.serialize(), 0, lsn=INSERT_LSN)[0]


@st.composite
def updates(draw):
    """A page, the slot of the row updated, and the row after the update:
    an edit of the old row (bytes replaced, inserted or cut), a new row
    outright, or the empty heap tombstone."""
    rows = draw(st.lists(_ROW, min_size=1, max_size=8))
    slot = draw(st.integers(0, len(rows) - 1))
    page = page_with(5, rows, draw(st.lists(_ROW, max_size=3)))
    old = rows[slot]
    how = draw(st.sampled_from(["edit", "new", "tombstone"]))
    if how == "tombstone":
        return page, slot, b""
    if how == "new":
        return page, slot, draw(_ROW)
    lo = draw(st.integers(0, len(old)))
    hi = draw(st.integers(lo, len(old)))
    return page, slot, old[:lo] + draw(st.binary(max_size=12)) + old[hi:]


@settings(max_examples=300, deadline=None)
@given(update=updates())
def test_spans_leave_the_bytes_of_the_whole_row_records(update):
    """Redo, physical undo, the compensation and its inverse, step by step
    against whole-row writes, from the same page."""
    page, slot, new_row = update
    old_row = page.record(slot)
    spans = wire(UpdateBytesRecord.between(slot, old_row, new_row, key_bytes=b"k"))
    assert spans.before(new_row) == old_row
    if spans.old and spans.new:  # the shared ends are stripped
        assert spans.old[0] != spans.new[0] and spans.old[-1] != spans.new[-1]

    def whole(*rows) -> bytes:
        """The page's bytes once each of ``rows`` is written whole."""
        theirs = copy(page)
        for row in rows:
            theirs.update_record(slot, row)
        return theirs.clone_bytes()

    after = copy(page)
    spans.redo(after)
    assert after.clone_bytes() == whole(new_row)
    undone = copy(after)
    spans.physical_undo(undone)
    assert undone.clone_bytes() == whole(new_row, old_row)

    # Rollback's CLR: the compensation mirrors the original and carries
    # its own before-span, so it is undone with no log access.
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=spans.inverse(slot)))
    compensated = copy(after)
    clr.redo(compensated)
    assert compensated.clone_bytes() == whole(new_row, old_row)
    clr.physical_undo(compensated)
    assert compensated.clone_bytes() == whole(new_row, old_row, new_row)
    assert compensated.record(slot) == new_row


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=8), data=st.data())
def test_a_heap_tombstone_and_its_inverse(rows, data):
    """Rollback tombstones a heap insert with a span update to ``b""``; a
    chain walk through the CLR puts the row back from the compensation's
    own before-span, reading no log."""
    slot = data.draw(st.integers(0, len(rows) - 1))
    page = page_with(5, rows)
    comp = UpdateBytesRecord.between(slot, rows[slot], b"", flags=FLAG_HEAP)
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=comp))
    ours, theirs = copy(page), copy(page)
    clr.redo(ours)
    theirs.update_record(slot, b"")
    assert ours.clone_bytes() == theirs.clone_bytes()
    clr.physical_undo(ours)
    theirs.update_record(slot, rows[slot])
    assert ours.clone_bytes() == theirs.clone_bytes()
    assert ours.records() == rows


def test_a_span_without_its_before_image_cannot_be_undone_alone():
    """A decoded span that lacks its before-span is refused, alone or as a
    CLR's compensation, and the compensated record is not read for it."""
    page = page_with(5, [b"abcdef"])
    rec = UpdateBytesRecord(slot=0, offset=2, length=6, old=None, new=b"XY")
    rec.redo(page)
    assert page.records() == [b"abXYef"]
    with pytest.raises(MissingUndoInfoError):
        rec.physical_undo(page)
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=rec))
    original = wire(UpdateBytesRecord.between(0, b"abXYef", b"abcdef"))
    for fetch in (None, {INSERT_LSN: original}.__getitem__):
        with pytest.raises(MissingUndoInfoError):
            clr.physical_undo(page, fetch)
    assert page.records() == [b"abXYef"]


def test_a_splice_that_does_not_fit_the_record_is_refused():
    page = page_with(5, [b"abcdef"])
    for offset, span, length in ((7, b"", 7), (2, b"XYZW", 5), (0, b"", 9)):
        with pytest.raises(StorageError):
            page.splice_record(0, offset, span, length)
    assert page.records() == [b"abcdef"]


# ---------------------------------------------------------------------------
# The engine: rollback, AS OF and losers over span updates
# ---------------------------------------------------------------------------

ROOMY = DatabaseConfig(page_size=1024, buffer_pool_pages=2048)


def new_db():
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("spans", ROOMY)
    db.create_table(ITEMS_SCHEMA)
    return engine, db


def _edit(rng, row: tuple) -> tuple:
    """``row`` with its name or its quantity (or both) changed; a new name
    may change the row's length."""
    key, name, qty = row
    if rng.random() < 0.6:
        name = "n" * rng.randint(0, 20) + str(rng.randint(0, 99))
    if rng.random() < 0.6:
        qty = rng.choice([qty + 1, -qty, rng.randint(-(2**40), 2**40)])
    return key, name, qty


@settings(max_examples=20, deadline=None)
@given(batches=st.integers(2, 5), seed=st.integers(0, 2**16))
def test_as_of_after_update_batches_equals_the_reference(batches, seed):
    """Batches of updates, some rolled back (their CLRs walked through on
    the way back), over rows enough to split; an AS OF read at the mark
    after each batch equals the table the test kept."""
    rng = random.Random(seed)
    engine, db = new_db()
    reference = {key: (key, f"item-{key}", key) for key in range(120)}
    with db.transaction() as txn:
        for row in reference.values():
            db.insert(txn, "items", row)
    marks = []
    for _ in range(batches):
        for _txn in range(4):
            txn = db.begin()
            staged = dict(reference)
            for key in rng.sample(sorted(reference), 8):
                staged[key] = _edit(rng, staged[key])
                db.update(txn, "items", (key,), {"name": staged[key][1], "qty": staged[key][2]})
            if rng.random() < 0.3:
                db.rollback(txn)
            else:
                db.commit(txn)
                reference = staged
        marks.append((db.env.clock.now(), dict(reference)))
        db.env.clock.advance(10)
    assert check_database(db).ok
    for when, expected in marks:
        with engine.query_as_of("spans", when) as snap:
            assert {row[0]: row for row in snap.scan("items")} == expected


def test_a_loser_with_span_updates_at_the_split_is_rolled_back_lazily():
    """Section 5.2: a transaction in flight at the split, whose updates
    changed rows' lengths and one row twice, is undone when a read needs
    it, from the spans alone."""
    engine, db = new_db()
    with db.transaction() as txn:
        for key in range(40):
            db.insert(txn, "items", (key, f"item-{key}", key * 10))
    loser = db.begin()
    db.update(loser, "items", (3,), {"name": "a much longer name than before", "qty": -3})
    db.update(loser, "items", (3,), {"qty": 333})
    db.update(loser, "items", (30,), {"name": ""})
    with db.transaction() as anchor:
        db.update(anchor, "items", (7,), {"qty": 777})
    when = db.env.clock.now()
    db.env.clock.advance(10)
    db.update(loser, "items", (4,), {"qty": 444})
    db.commit(loser)
    snap = engine.create_asof_snapshot("spans", "then", when)
    assert snap.pending_undo_count == 1
    assert snap.get("items", (3,)) == (3, "item-3", 30)
    assert snap.pending_undo_count == 0
    assert snap.get("items", (30,)) == (30, "item-30", 300)
    assert snap.get("items", (7,)) == (7, "item-7", 777)
    assert snap.get("items", (4,)) == (4, "item-4", 40)
    assert db.get("items", (3,)) == (3, "a much longer name than before", 333)


def test_rollback_restores_every_row_and_checkdb_is_clean():
    _engine, db = new_db()
    with db.transaction() as txn:
        for key in range(60):
            db.insert(txn, "items", (key, f"item-{key}", key))
    before = list(db.scan("items"))
    txn = db.begin()
    for key in range(0, 60, 3):
        db.update(txn, "items", (key,), {"name": "x" * (key % 50), "qty": -key})
    db.rollback(txn)
    assert list(db.scan("items")) == before
    assert check_database(db).ok


def test_a_tpcc_run_logs_no_whole_row_update():
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("tpcc")
    scale = TpccScale(warehouses=1, districts_per_warehouse=2, customers_per_district=10, items=50)
    load_tpcc(db, scale)
    TpccDriver(db, scale, seed=3).run_transactions(60)
    kinds = {header.record_type for header, _raw in db.log.scan_headers(db.log.start_lsn)}
    assert RecordType.UPDATE_BYTES in kinds
    assert 11 not in kinds  # the retired whole-row update
