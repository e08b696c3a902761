"""A B-tree split's row move: one :class:`InsertRowsRecord` on the page the
rows arrive on, one :class:`DeleteRowsRecord` on the page they leave.

The records are held to the per-row records a move is made of (an insert
per row in slot order, then a delete per row from the highest slot down):
redo leaves the bytes those leave, and the inverse leaves the bytes their
inverses, walked in reverse, leave. That inverse gives the pre-image's rows
and header back but not its bytes: a deleted payload stays behind as
garbage where it lay, and a re-inserted one is placed afresh. Then the
engine: a split rolled back or crashed at any of its records, and AS OF
reads on either side of splits.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine, SimEnv
from repro.access.btree import object_page_ids
from repro.errors import MissingUndoInfoError
from repro.storage.page import Page, PageType
from repro.tools.checkdb import check_database
from repro.wal.records import (
    FLAG_SMO,
    ClrRecord,
    DeleteRowRecord,
    DeleteRowsRecord,
    InsertRowRecord,
    InsertRowsRecord,
    decode_record,
)
from tests.conftest import ITEMS_SCHEMA
from tests.test_btree import height, tree_of
from tests.test_separator_index import PAD, Fault, fail_at_smo, insert_keys

PAGE_SIZE = 1024
INSERT_LSN = 4242

_ROWS = st.lists(st.binary(max_size=30), max_size=4)


def page_with(page_id: int, rows, garbage=()) -> Page:
    """A leaf holding ``rows``; each ``garbage`` payload was inserted among
    them and deleted again, leaving its bytes behind."""
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, PageType.BTREE, object_id=10, prev_page=3, next_page=4)
    for junk in garbage:
        page.insert_record(page.slot_count // 2, junk)
    for slot, row in enumerate(rows):
        page.insert_record(slot + len(garbage), row)
    for _ in garbage:
        page.delete_record(0)
    return page


def copy(page: Page) -> Page:
    return Page(bytearray(page.data))


def wire(rec):
    """``rec`` as a reader of the log gets it back."""
    return decode_record(rec.serialize(), 0, lsn=INSERT_LSN)[0]


def state(page: Page) -> tuple:
    """What an inverse must give back: the rows and the header's links."""
    return page.records(), page.page_type, page.level, page.prev_page, page.next_page


@st.composite
def moves(draw):
    """Pre-images of the page rows leave (``src``) and the page they arrive
    on (``dst``), and the move: ``src``'s slots from ``start`` on go to
    ``dst`` at ``slot``."""
    src_rows = draw(st.lists(st.binary(max_size=30), min_size=1, max_size=16))
    start = draw(st.integers(0, len(src_rows) - 1))
    src = page_with(5, src_rows, draw(_ROWS))
    dst_rows = draw(_ROWS)
    dst = page_with(6, dst_rows, draw(_ROWS))
    slot = draw(st.integers(0, len(dst_rows)))
    return src, dst, start, slot


def per_row_move(src: Page, start: int, slot: int) -> tuple[list, list]:
    """The move as one record per row: inserts in slot order, then deletes
    from the highest slot down — (insert records, delete records)."""
    rows = src.records(start)
    inserts = [InsertRowRecord(slot=slot + i, row=row) for i, row in enumerate(rows)]
    deletes = [DeleteRowRecord(slot=start + i, row=row) for i, row in reversed(list(enumerate(rows)))]
    return inserts, deletes


def batched_move(src: Page, start: int, slot: int, inline: bool) -> tuple:
    rows = tuple(src.records(start))
    insert = InsertRowsRecord(slot=slot, rows=rows, page_id=6, flags=FLAG_SMO)
    delete = DeleteRowsRecord(
        slot=start, count=len(rows), rows=rows if inline else (), pair_lsn=INSERT_LSN,
        page_id=5, flags=FLAG_SMO,
    )
    return wire(insert), wire(delete)


@settings(max_examples=150, deadline=None)
@given(move=moves(), inline=st.booleans())
def test_redo_leaves_the_bytes_of_the_per_row_records(move, inline):
    src, dst, start, slot = move
    insert, delete = batched_move(src, start, slot, inline)
    inserts, deletes = per_row_move(src, start, slot)
    for page, batched, rows in ((dst, insert, inserts), (src, delete, deletes)):
        expected = copy(page)
        for rec in rows:
            rec.redo(expected)
        redone = copy(page)
        batched.redo(redone)
        assert redone.clone_bytes() == expected.clone_bytes()


@settings(max_examples=150, deadline=None)
@given(move=moves(), inline=st.booleans())
def test_inverse_gives_back_both_pre_images(move, inline):
    """With the rows inline, and without them through the ``pair_lsn``
    fetch of the insert."""
    src, dst, start, slot = move
    insert, delete = batched_move(src, start, slot, inline)
    inserts, deletes = per_row_move(src, start, slot)
    fetched = []

    def fetch(lsn):
        fetched.append(lsn)
        return {INSERT_LSN: insert}[lsn]

    for page, batched, rows in ((dst, insert, inserts), (src, delete, deletes)):
        done = copy(page)
        batched.redo(done)
        expected = copy(done)
        for rec in reversed(rows):  # the chain walk's order
            rec.physical_undo(expected)
        batched.physical_undo(done, fetch)
        assert done.clone_bytes() == expected.clone_bytes()
        assert state(done) == state(page)
    assert fetched == ([] if inline else [INSERT_LSN])


def test_a_rowless_delete_without_its_insert_cannot_be_undone():
    page = page_with(5, [b"a", b"b"])
    delete = DeleteRowsRecord(slot=0, count=2, pair_lsn=INSERT_LSN, page_id=5)
    delete.redo(page)
    with pytest.raises(MissingUndoInfoError):
        delete.physical_undo(page)
    stranger = DeleteRowRecord(slot=0, row=b"a")
    with pytest.raises(MissingUndoInfoError):
        delete.physical_undo(page, {INSERT_LSN: stranger}.__getitem__)


@pytest.mark.parametrize("inline", [True, False], ids=["undo info", "pair fetch"])
def test_a_clr_around_either_record_is_undone_through_it(inline):
    """Rollback compensates each record with the other type; a chain walk
    undoes the CLR, deriving rowless compensated rows from the record the
    CLR compensates."""
    page = page_with(6, [b"x"])
    insert = wire(InsertRowsRecord(slot=1, rows=(b"a", b"b"), page_id=6))
    insert.redo(page)
    moved = state(page)
    comp = DeleteRowsRecord(
        slot=1, count=2, rows=insert.rows if inline else (), pair_lsn=INSERT_LSN, page_id=6
    )
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=comp, page_id=6))
    clr.redo(page)
    assert page.records() == [b"x"]
    clr.physical_undo(page, {INSERT_LSN: insert}.__getitem__)
    assert state(page) == moved
    clr = wire(ClrRecord(compensated_lsn=INSERT_LSN, comp=InsertRowsRecord(slot=0, rows=(b"y",))))
    clr.redo(page)
    assert page.records() == [b"y", b"x", b"a", b"b"]
    clr.physical_undo(page)
    assert state(page) == moved


# ---------------------------------------------------------------------------
# The engine: splits rolled back, crashed and read AS OF
# ---------------------------------------------------------------------------

ROOMY = DatabaseConfig(page_size=1024, buffer_pool_pages=2048)
KEYS = random.Random(45).sample(range(0, 20000, 2), 600)


def new_db():
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("moves", ROOMY)
    db.create_table(ITEMS_SCHEMA)
    return engine, db


@functools.cache
def split_point(root: bool) -> int:
    """How many of :data:`KEYS` go in before the one whose insert splits
    the root (``root``) or a page below it."""
    _engine, db = new_db()
    tree = tree_of(db)
    for count, key in enumerate(KEYS):
        pages, levels = len(object_page_ids(tree.services.fetch, tree.root_page_id)), height(tree)
        insert_keys(db, [key])
        if len(object_page_ids(tree.services.fetch, tree.root_page_id)) > pages and (height(tree) > levels) == root and levels > 1 - root:
            return count
    raise AssertionError("no such split")


def split_records(count: int) -> list:
    """The SMO records the insert after ``count`` keys writes."""
    _engine, db = new_db()
    insert_keys(db, KEYS[:count])
    before = db.log.end_lsn
    insert_keys(db, KEYS[count : count + 1])
    return [rec for rec in db.log.scan(before) if rec.is_smo]


def test_a_split_logs_its_moved_rows_once():
    """Over a load that splits pages, every row-move delete is rowless and
    names, through ``pair_lsn``, the insert of its own system transaction
    that holds the rows it moved."""
    _engine, db = new_db()
    insert_keys(db, KEYS)
    logged = {rec.lsn: rec for rec in db.log.scan(db.log.start_lsn)}
    deletes = [rec for rec in logged.values() if isinstance(rec, DeleteRowsRecord)]
    assert len(deletes) >= 10
    for delete in deletes:
        assert delete.rows == () and delete.count > 0
        insert = logged[delete.pair_lsn]
        assert isinstance(insert, InsertRowsRecord)
        assert insert.txn_id == delete.txn_id and len(insert.rows) == delete.count


@pytest.mark.parametrize("root", [True, False], ids=["root split", "non-root split"])
def test_a_split_undone_at_any_record_leaves_every_row(root):
    """The split fails at each of its SMO records in turn; its system
    transaction is rolled back, or the log is flushed there and the
    database crashes and recovers. Either way ``checkdb`` is clean, every
    row before the split is there, and the insert then goes in."""
    count = split_point(root)
    smo = split_records(count)
    kinds = [type(rec) for rec in smo]
    assert kinds.count(InsertRowsRecord) == kinds.count(DeleteRowsRecord) == 1 + root
    expected = sorted(KEYS[:count])
    checked = 0
    for nth in range(1, len(smo) + 1):
        for crash in (False, True):
            _engine, db = new_db()
            insert_keys(db, KEYS[:count])
            fail_at_smo(db, nth, before_raise=db.log.flush if crash else None)
            txn = db.begin()
            with pytest.raises(Fault):
                db.insert(txn, "items", (KEYS[count], PAD, 0))
            del db.modifier.apply
            if crash:
                db.crash()
                db.recover()
            else:
                db.rollback(txn)
            assert check_database(db).ok, (nth, crash)
            assert [row[0] for row in db.scan("items")] == expected, (nth, crash)
            for clr in db.log.scan(db.log.start_lsn):
                if isinstance(clr, ClrRecord) and isinstance(clr.comp, DeleteRowsRecord):
                    # A chain walk through the CLR gets the rows back from
                    # the CLR alone.
                    moved = db.log.read(clr.compensated_lsn).rows
                    assert clr.comp.rows == clr.comp.resolve_rows() == moved
                    checked += 1
            insert_keys(db, KEYS[count : count + 1])
            assert check_database(db).ok
            assert [row[0] for row in db.scan("items")] == sorted(KEYS[: count + 1])
    assert checked


@settings(max_examples=20, deadline=None)
@given(
    first=st.integers(1, 10),
    sizes=st.lists(st.integers(20, 120), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_as_of_before_and_after_splits_equals_the_reference(first, sizes, seed):
    """A first batch too small to split the root, then batches of inserts,
    updates and deletes that split pages; an AS OF read at the mark after
    each batch equals the table the test kept."""
    rng = random.Random(seed)
    engine, db = new_db()
    reference: dict = {}
    marks, heights = [], []
    for size in (first, *sizes):
        with db.transaction() as txn:
            for key in rng.sample(range(20000), size):
                if key in reference:
                    continue
                reference[key] = (key, PAD, key)
                db.insert(txn, "items", reference[key])
            for key in rng.sample(sorted(reference), min(5, len(reference))):
                if rng.random() < 0.5:
                    del reference[key]
                    db.delete(txn, "items", (key,))
                else:
                    reference[key] = (key, PAD, -key)
                    db.update(txn, "items", (key,), {"qty": -key})
        marks.append((db.env.clock.now(), dict(reference)))
        heights.append(height(tree_of(db)))
        db.env.clock.advance(10)
    assert heights[0] == 1 and heights[-1] >= 2
    for when, expected in marks:
        with engine.query_as_of("moves", when) as snap:
            assert {row[0]: row for row in snap.scan("items")} == expected
