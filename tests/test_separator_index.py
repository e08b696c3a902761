"""The separator index of B-tree interior pages (``Page.separators``).

A descent reads an interior page through its index: the decoded separator
keys and child ids, built on the first descent after the page changed.
After every route that changes an interior page — splits and separator
posts, root splits, SMO rollback, crash recovery mid-split, standby redo,
AS OF preparation and the raw ``Page`` mutators — ``BTree._child_index``
must answer what a linear scan of the page's entries answers, and an
index the page still holds must equal one rebuilt from its bytes.
"""

from __future__ import annotations

import functools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine, SimEnv
from repro.access.btree import BTree, decode_entry, encode_entry, object_page_ids
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import StorageError
from repro.storage.page import Page, PageType
from repro.wal.records import FLAG_SMO
from tests.conftest import ITEMS_SCHEMA
from tests.test_btree import height, pages_of, probes_around, tree_of

#: Small pages so a few hundred rows make a three-level tree, and a pool
#: large enough that no frame (and so no index) is evicted mid-test.
ROOMY = DatabaseConfig(page_size=1024, buffer_pool_pages=2048)
PAD = "n" * 40

_KEYS = st.lists(st.integers(0, 4000), min_size=1, max_size=120)


def scanned(tree: BTree, page: Page) -> tuple[list[tuple], list[int]]:
    """The separator keys of entries ``[1, count)`` and every child id,
    decoded afresh from the page's records."""
    entries = [decode_entry(payload) for payload in page.records()]
    return [tree.key_codec.decode(kb) for _child, kb in entries[1:]], [child for child, _kb in entries]


def check_page(tree: BTree, page: Page) -> None:
    keys, children = scanned(tree, page)
    if page.separators:
        assert page.separators[0] == keys
        assert list(page.separators[1]) == children
    for probe in probes_around(keys) if keys else [(0,)]:
        assert tree._child_index(page, probe) == sum(1 for key in keys if key <= probe)
    assert list(tree._separators(page)[1]) == children


def check_interiors(tree: BTree) -> int:
    """Check every interior page of ``tree``; returns how many there are.
    Checking builds every index, so the next route starts from pages that
    hold one."""
    interiors = 0
    for page, is_leaf in pages_of(tree):
        if not is_leaf:
            interiors += 1
            check_page(tree, page)
    return interiors


def insert_keys(db, keys) -> None:
    with db.transaction() as txn:
        for key in keys:
            db.insert(txn, "items", (key, PAD, key))


def new_db():
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("idx", ROOMY)
    db.create_table(ITEMS_SCHEMA)
    return engine, db


class Fault(Exception):
    """Raised by :func:`fail_at_smo` in the middle of a split."""


def fail_at_smo(db, nth: int, before_raise=None) -> None:
    """Make the ``nth`` SMO record the tree applies raise :class:`Fault`
    (after ``before_raise()``); every other record applies normally."""
    real = db.modifier.apply
    left = [nth]

    def apply(txn, guard, rec, **kwargs):
        if rec.flags & FLAG_SMO:
            left[0] -= 1
            if left[0] == 0:
                if before_raise is not None:
                    before_raise()
                raise Fault
        return real(txn, guard, rec, **kwargs)

    db.modifier.apply = apply


@settings(max_examples=20, deadline=None)
@given(batches=st.lists(_KEYS, min_size=1, max_size=6))
def test_splits_and_separator_posts(batches):
    """A post publishes a patched copy of its parent's index: after each
    batch the patched indexes equal rebuilt ones."""
    _engine, db = new_db()
    tree, present = tree_of(db), set()
    for batch in batches:
        fresh = sorted(set(batch) - present)
        insert_keys(db, fresh)
        present |= set(fresh)
        check_interiors(tree)
    assert [row[0] for row in db.scan("items")] == sorted(present)


def test_a_post_patches_the_parent_instead_of_rebuilding_it():
    """A leaf split posts its separator into a parent that holds an
    index: the only key decoded is the separator's own."""
    _engine, db = new_db()
    insert_keys(db, range(0, 3000, 10))
    tree = tree_of(db)
    assert height(tree) >= 2 and check_interiors(tree)
    pages = len(object_page_ids(tree.services.fetch, tree.root_page_id))
    decodes = []
    real = tree.key_codec.decode
    tree.key_codec.decode = lambda *args: decodes.append(args) or real(*args)
    for key in range(1501, 1510):  # into the leaf holding 1500, which splits
        insert_keys(db, [key])
    tree.key_codec.decode = real
    splits = len(object_page_ids(tree.services.fetch, tree.root_page_id)) - pages
    assert splits >= 1 and len(decodes) == splits
    for page, is_leaf in pages_of(tree):
        if not is_leaf:
            assert page.separators  # patched, not dropped
    check_interiors(tree)


def test_root_splits():
    """The root is reformatted one level up in place: its old index must
    not survive the format."""
    _engine, db = new_db()
    tree = tree_of(db)
    heights = set()
    for start in range(0, 900, 50):
        insert_keys(db, range(start, start + 50))
        heights.add(height(tree))
        check_interiors(tree)
    assert heights >= {2, 3}
    assert [row[0] for row in db.scan("items")] == list(range(900))


@settings(max_examples=25, deadline=None)
@given(prefill=st.integers(150, 500), nth=st.integers(1, 80))
def test_rollback_of_an_smo(prefill, nth):
    """A split fails at its ``nth`` SMO record: the system transaction is
    undone physically, the user transaction logically."""
    _engine, db = new_db()
    insert_keys(db, range(0, 2 * prefill, 2))
    tree = tree_of(db)
    check_interiors(tree)
    fail_at_smo(db, nth)
    try:
        insert_keys(db, range(1, 2 * prefill, 2))
    except Fault:
        expected = list(range(0, 2 * prefill, 2))
    else:
        expected = list(range(2 * prefill))
    del db.modifier.apply
    check_interiors(tree)
    assert [row[0] for row in db.scan("items")] == expected
    insert_keys(db, range(2 * prefill, 2 * prefill + 100))
    check_interiors(tree)


@settings(max_examples=25, deadline=None)
@given(prefill=st.integers(150, 500), nth=st.integers(1, 80))
def test_crash_recovery_mid_split(prefill, nth):
    """The log is flushed at the ``nth`` SMO record and the database
    crashes there: recovery undoes the half-done split physically."""
    _engine, db = new_db()
    insert_keys(db, range(0, 2 * prefill, 2))
    check_interiors(tree_of(db))
    fail_at_smo(db, nth, before_raise=db.log.flush)
    txn = db.begin()
    try:
        for key in range(1, 2 * prefill, 2):
            db.insert(txn, "items", (key, PAD, key))
    except Fault:
        pass
    del db.modifier.apply
    db.crash()
    db.recover()
    tree = tree_of(db)
    check_interiors(tree)
    assert [row[0] for row in db.scan("items")] == list(range(0, 2 * prefill, 2))
    insert_keys(db, range(1, 200, 2))
    check_interiors(tree)


@settings(max_examples=15, deadline=None)
@given(batches=st.lists(_KEYS, min_size=1, max_size=5))
def test_redo_on_a_standby(batches):
    """The standby applies the primary's SMO records by redo, onto pages
    whose indexes its own reads built."""
    engine, db = new_db()
    replica = engine.add_replica("idx", "standby")
    standby_tree, present = tree_of(replica.db), set()
    for batch in batches:
        fresh = sorted(set(batch) - present)
        insert_keys(db, fresh)
        present |= set(fresh)
        engine.replication_tick()
        check_interiors(standby_tree)
        assert list(replica.scan("items")) == list(db.scan("items"))


@settings(max_examples=15, deadline=None)
@given(
    batches=st.lists(_KEYS, min_size=2, max_size=5),
    in_flight=_KEYS,
    order=st.permutations(range(5)),
)
def test_as_of_preparation(batches, in_flight, order):
    """AS OF snapshots at every batch boundary, read in a drawn order so
    prepared pages resume from or roll forward through stored versions.
    At the second instant a transaction that deletes and inserts rows is
    in flight, which the snapshot undoes logically on its own pages."""
    engine, db = new_db()
    clock, present, marks = engine.env.clock, set(), []
    for number, batch in enumerate(batches):
        fresh = sorted(set(batch) - present)
        if number == 1:
            doomed = sorted(present & set(in_flight))
            pending = sorted(set(in_flight) - present - set(fresh))
            txn = db.begin()
            for key in doomed:
                db.delete(txn, "items", (key,))
            for key in pending:
                db.insert(txn, "items", (key, PAD, key))
        insert_keys(db, fresh)
        present |= set(fresh)
        clock.advance(1)
        marks.append((clock.now(), sorted(present)))
        clock.advance(1)
        if number == 1:
            db.commit(txn)
            present = present - set(doomed) | set(pending)
    for index in order:
        if index >= len(marks):
            continue
        when, expected = marks[index]
        with engine.query_as_of("idx", when) as snap:
            assert [row[0] for row in snap.scan("items")] == expected
            check_interiors(snap.table("items").accessor)


@functools.cache
def _interior_images() -> tuple[BTree, list[bytes]]:
    """A tree and the images of its interior pages (the source of the
    bytes and entries the mutator test writes)."""
    _engine, db = new_db()
    insert_keys(db, range(0, 2400, 2))
    tree = tree_of(db)
    images = [page.clone_bytes() for page, is_leaf in pages_of(tree) if not is_leaf]
    assert len(images) > 2
    return tree, images


_OPS = st.lists(
    st.tuples(st.sampled_from(["restore", "format", "deformat", "insert", "delete", "update"]), st.integers(0, 10**6)),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_every_page_mutator_clears_the_index(ops):
    """On a page that holds an index, ``restore``, ``format``,
    ``deformat``, ``insert_record``, ``delete_record`` and
    ``update_record`` each leave an index that matches the new bytes."""
    tree, images = _interior_images()
    pool = sorted({entry for image in images for entry in Page(bytearray(image)).records()[1:]},
                  key=lambda payload: tree.key_codec.decode(payload, 5))
    page = Page(bytearray(images[0]))
    for op, pick in ops:
        count = page.slot_count
        if count:
            tree._separators(page)
        if op == "restore":
            page.restore(images[pick % len(images)])
        elif op == "format":
            page.format(page.page_id or 1, PageType.BTREE, level=1)
            assert page.separators is None  # a descent refuses the empty page; a probe must not
        elif op == "deformat":
            page.deformat()
            assert page.separators is None
            page.format(1, PageType.BTREE, level=1)
        elif op == "insert":
            payload = pool[pick % len(pool)]
            key = tree.key_codec.decode(payload, 5)
            keys, _children = scanned(tree, page)
            if key in keys or not page.has_room_for(len(payload)):
                continue
            page.insert_record(sum(1 for k in keys if k < key) + 1 if count else 0, payload)
        elif op == "delete" and count:
            page.delete_record(pick % count if count == 1 else 1 + pick % (count - 1))
        elif op == "update" and count:
            slot = pick % count
            _child, kb = decode_entry(page.record(slot))
            page.update_record(slot, encode_entry(pick, kb))
        if page.slot_count:
            check_page(tree, page)


def test_a_mutation_during_a_build_is_never_published(monkeypatch):
    """A build races a mutator (current reads do not hold the write
    latch): here the key decoder deletes an entry halfway through. The
    probe that built may answer from the bytes it saw, but the index it
    decoded is never published, and the next probe rebuilds."""
    tree, images = _interior_images()
    page = Page(bytearray(images[0]))
    count = page.slot_count
    real = tree.key_codec.decode
    calls = []

    def decode(*args):
        calls.append(args)
        if len(calls) == count // 2:
            page.delete_record(1)
        return real(*args)

    monkeypatch.setattr(tree.key_codec, "decode", decode)
    tree._child_index(page, (0,))
    monkeypatch.setattr(tree.key_codec, "decode", real)
    assert len(calls) == count - 1 and page.slot_count == count - 1
    assert page.separators is None
    check_page(tree, page)
    assert page.separators


@pytest.mark.parametrize("mutate", ["insert_record", "delete_record", "update_record"])
def test_a_published_index_is_reused_until_a_mutation(mutate):
    tree, images = _interior_images()
    page = Page(bytearray(images[1]))
    index = tree._separators(page)
    assert tree._separators(page) is index
    payload = page.record(1)
    getattr(page, mutate)(*{"insert_record": (1, payload), "delete_record": (1,), "update_record": (1, payload)}[mutate])
    assert page.separators is None



LONG_KEYS = TableSchema("names", [
    Column("name", ColumnType.STR, max_len=120),
    Column("n", ColumnType.INT),
], key=["name"])


def long_key(number: int) -> tuple:
    """A key of about 100 bytes, so an interior page holds eight of them
    and interior splits are frequent."""
    return (f"{number:06d}" + "k" * 90,)


def test_readers_racing_splits_leave_no_stale_index():
    """Current reads build indexes while a writer splits leaf and interior
    pages under ``db.write_latch``, and the interpreter switches threads
    as often as it can. Reads racing an SMO may answer from bytes in flux
    (they did before the index, and that is not checked here), but once
    the writer is done every index a page holds must equal a rebuild."""
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database("idx", ROOMY)
    db.create_table(LONG_KEYS)
    with db.transaction() as txn:
        for number in range(0, 300, 2):
            db.insert(txn, "names", (*long_key(number), number))
    tree = tree_of(db, "names")
    done, failures = threading.Event(), []

    def write() -> None:
        try:
            for start in range(1, 1200, 40):
                with db.transaction() as txn:
                    for number in range(start, start + 40, 2):
                        db.insert(txn, "names", (*long_key(number), number))
        except BaseException as exc:  # surfaced by the assertion below
            failures.append(exc)
        finally:
            done.set()

    def read(seed: int) -> None:
        rng = random.Random(seed)
        while not done.is_set():
            try:
                tree.get(long_key(rng.randrange(1200)))
            except StorageError:
                pass  # a page read mid-mutation
            except BaseException as exc:
                failures.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert height(tree) >= 3
    check_interiors(tree)
    assert [row[1] for row in db.scan("names")] == sorted({*range(0, 300, 2), *range(1, 1200, 2)})
