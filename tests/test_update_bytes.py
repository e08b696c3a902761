"""A row update logged as the bytes it changed: :class:`UpdateBytesRecord`.

The record is held to :class:`UpdateRowRecord` of the whole rows, which
nothing writes any more: over random rows and edits (length changes and
heap tombstones included) its redo, its physical undo and the inverse of a
CLR around its compensation leave the bytes the whole-row records leave,
with the compensation's before-span carried (``clr_undo_info``) and
derived from the compensated record. Then the engine: AS OF after random
update batches against a reference, a loser holding span updates at the
split, and a TPC-C run that writes no whole-row update.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine, SimEnv
from repro.core.txn_undo import undo_transaction
from repro.errors import MissingUndoInfoError, StorageError
from repro.storage.page import Page
from repro.tools.checkdb import check_database
from repro.wal.records import (
    FLAG_HEAP,
    ClrRecord,
    DeleteRowRecord,
    InsertRowRecord,
    RecordType,
    UpdateBytesRecord,
    UpdateRowRecord,
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
@given(update=updates(), clr_info=st.booleans())
def test_spans_leave_the_bytes_of_the_whole_row_records(update, clr_info):
    """Redo, physical undo, the compensation and its inverse, step by step
    against the whole-row records, from the same page."""
    page, slot, new_row = update
    old_row = page.record(slot)
    spans = wire(UpdateBytesRecord.between(slot, old_row, new_row, key_bytes=b"k"))
    whole = wire(UpdateRowRecord(slot=slot, old=old_row, new=new_row, key_bytes=b"k"))
    assert spans.before(new_row) == old_row
    if spans.old and spans.new:  # the shared ends are stripped
        assert spans.old[0] != spans.new[0] and spans.old[-1] != spans.new[-1]

    def same(step) -> Page:
        ours, theirs = copy(page), copy(page)
        step(ours, spans)
        step(theirs, whole)
        assert ours.clone_bytes() == theirs.clone_bytes()
        return ours

    after = same(lambda pg, rec: rec.redo(pg))
    assert after.record(slot) == new_row
    undone = copy(after)
    spans.physical_undo(undone)
    expected = copy(after)
    whole.physical_undo(expected)
    assert undone.clone_bytes() == expected.clone_bytes()

    # Rollback's CLR: the compensation mirrors the original, its old span
    # carried with clr_undo_info and fetched from the original without.
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=spans.inverse(slot, with_old=clr_info)))
    reference = wire(ClrRecord(
        compensated_lsn=INSERT_LSN,
        comp=UpdateRowRecord(slot=slot, old=new_row if clr_info else None, new=old_row),
    ))
    compensated, expected = copy(after), copy(after)
    clr.redo(compensated)
    reference.redo(expected)
    assert compensated.clone_bytes() == expected.clone_bytes()
    assert compensated.record(slot) == old_row
    fetched = []

    def fetch(original):
        return lambda lsn: fetched.append(lsn) or {INSERT_LSN: original}[lsn]

    clr.physical_undo(compensated, fetch(spans))
    reference.physical_undo(expected, fetch(whole))
    assert compensated.clone_bytes() == expected.clone_bytes()
    assert compensated.record(slot) == new_row
    assert fetched == ([] if clr_info else [INSERT_LSN, INSERT_LSN])


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=8), data=st.data(), clr_info=st.booleans())
def test_a_heap_tombstone_and_its_inverse(rows, data, clr_info):
    """Rollback tombstones a heap insert with a span update to ``b""``; a
    chain walk through the CLR puts the row back, taking it from the
    insert when the compensation carries no before-span."""
    slot = data.draw(st.integers(0, len(rows) - 1))
    page = page_with(5, rows)
    insert = wire(InsertRowRecord(slot=slot, row=rows[slot], flags=FLAG_HEAP))
    comp = UpdateBytesRecord.between(slot, rows[slot], b"", with_old=clr_info, flags=FLAG_HEAP)
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=comp))
    reference = wire(ClrRecord(
        compensated_lsn=INSERT_LSN,
        comp=UpdateRowRecord(slot=slot, old=rows[slot] if clr_info else None, new=b""),
    ))
    ours, theirs = copy(page), copy(page)
    for clr_rec, target in ((clr, ours), (reference, theirs)):
        clr_rec.redo(target)
        assert target.record(slot) == b""
        clr_rec.physical_undo(target, {INSERT_LSN: insert}.__getitem__)
    assert ours.clone_bytes() == theirs.clone_bytes()
    assert ours.records() == rows


def test_a_span_without_its_before_image_cannot_be_undone_alone():
    page = page_with(5, [b"abcdef"])
    rec = UpdateBytesRecord.between(0, b"abcdef", b"abXYef", with_old=False)
    assert (rec.offset, rec.length, rec.new) == (2, 6, b"XY")
    rec.redo(page)
    with pytest.raises(MissingUndoInfoError):
        rec.physical_undo(page)
    clr = ClrRecord(compensated_lsn=INSERT_LSN, comp=rec)
    with pytest.raises(MissingUndoInfoError):
        clr.physical_undo(page)
    stranger = DeleteRowRecord(slot=0, row=b"abcdef")
    with pytest.raises(MissingUndoInfoError):
        clr.physical_undo(page, {INSERT_LSN: stranger}.__getitem__)
    # An older log's whole-row update serves the span as its span form.
    older = UpdateRowRecord(slot=0, old=b"abXYef", new=b"abcdef")
    clr.physical_undo(page, {INSERT_LSN: older}.__getitem__)
    assert page.record(0) == b"abcdef"


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
NO_UNDO_INFO = ROOMY.with_extensions(clr_undo_info=False)
CONFIGS = pytest.mark.parametrize("config", [ROOMY, NO_UNDO_INFO], ids=["undo info", "derived"])


def new_db(config):
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("spans", config)
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
@given(batches=st.integers(2, 5), clr_info=st.booleans(), seed=st.integers(0, 2**16))
def test_as_of_after_update_batches_equals_the_reference(batches, clr_info, seed):
    """Batches of updates, some rolled back (their CLRs walked through on
    the way back), over rows enough to split; an AS OF read at the mark
    after each batch equals the table the test kept."""
    rng = random.Random(seed)
    engine, db = new_db(ROOMY if clr_info else NO_UNDO_INFO)
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


@CONFIGS
def test_a_loser_with_span_updates_at_the_split_is_rolled_back_lazily(config):
    """Section 5.2: a transaction in flight at the split, whose updates
    changed rows' lengths and one row twice, is undone when a read needs
    it, from the spans alone."""
    engine, db = new_db(config)
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


class _WholeRowWriter:
    """Builds a row update as a log written before type 19 holds it."""

    @staticmethod
    def between(slot, old_row, new_row, *, with_old=True, **fields):
        return UpdateRowRecord(slot=slot, old=old_row if with_old else None, new=new_row, **fields)


@CONFIGS
def test_an_older_logs_whole_row_updates_are_undone(config, monkeypatch):
    """Whole-row updates, as a log written before type 19 holds them, are
    undone through their span form (:meth:`UpdateRowRecord.as_span`): a
    loser rolled back, a committed one undone selectively, and an AS OF
    read that walks back through the rollback's span CLR (its before-span
    taken from the whole-row record when the CLR carries none) and then
    rolls the loser back in the snapshot."""
    engine, db = new_db(config)
    with db.transaction() as txn:
        for key in range(10):
            db.insert(txn, "items", (key, f"item-{key}", key))
    before = list(db.scan("items"))
    with monkeypatch.context() as patch:
        patch.setattr("repro.access.btree.UpdateBytesRecord", _WholeRowWriter)
        loser = db.begin()
        db.update(loser, "items", (3,), {"name": "a longer name", "qty": -3})
        db.update(loser, "items", (3,), {"qty": 333})
        with db.transaction() as txn:
            db.update(txn, "items", (5,), {"qty": 55})
    kinds = {header.record_type for header, _raw in db.log.scan_headers(db.log.start_lsn)
             if header.txn_id in (loser.txn_id, txn.txn_id)}
    assert RecordType.UPDATE_ROW in kinds and RecordType.UPDATE_BYTES not in kinds
    when = db.env.clock.now()
    db.env.clock.advance(10)
    db.rollback(loser)
    report = undo_transaction(db, txn.txn_id)
    assert report.undone == 1 and report.conflicts == []
    assert list(db.scan("items")) == before
    assert check_database(db).ok
    snap = engine.create_asof_snapshot("spans", "then", when)
    assert snap.pending_undo_count == 1
    assert snap.get("items", (3,)) == (3, "item-3", 3)
    assert snap.get("items", (5,)) == (5, "item-5", 55)


@CONFIGS
def test_rollback_restores_every_row_and_checkdb_is_clean(config):
    _engine, db = new_db(config)
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
    assert RecordType.UPDATE_ROW not in kinds
