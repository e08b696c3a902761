"""One copy of each AS OF page: frames over the version store's images.

A clean AS OF frame wraps the store's immutable ``bytes`` in a
:class:`ReadOnlyPage`; only a snapshot with losers pending frames private
copies, the pages its background undo writes. A pooled snapshot keeps no
side file, so its frames are its only tier: nothing trims them, and the
pool's budget charges page size × frames.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Engine
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import ReadOnlyPageError
from repro.storage.page import Page, PageType, ReadOnlyPage
from tests.conftest import ITEMS_SCHEMA, fill_items


def mark(db) -> float:
    now = db.env.clock.now()
    db.env.clock.advance(10)
    return now


def store_images(store) -> dict:
    """``(key, page, version_lsn) -> (image object, its digest)`` for
    every version the store holds."""
    with store.latch:
        return {
            (key, page_id, version.version_lsn): (
                version.data,
                hashlib.sha256(version.data).hexdigest(),
            )
            for (key, page_id), versions in store._versions.items()
            for version in versions
        }


def leaf_of(db, key: tuple) -> int:
    """The id of the primary's leaf page holding ``key``."""
    tree = db.table("items").accessor
    guard, _path = tree._descend(tree.key_codec.encode(key))
    with guard:
        return guard.page_id


# ---------------------------------------------------------------------------
# The read-only page
# ---------------------------------------------------------------------------

#: Every ``Page`` mutator with arguments that would succeed on a writable
#: copy of the image below.
MUTATIONS = {
    "format": lambda page: page.format(9, PageType.HEAP),
    "deformat": lambda page: page.deformat(),
    "restore": lambda page: page.restore(bytes(len(page.data))),
    "_place": lambda page: page._place(b"x"),
    "insert_record": lambda page: page.insert_record(0, b"new"),
    "insert_records": lambda page: page.insert_records(1, (b"new", b"rows")),
    "_insert_run": lambda page: page._insert_run(0, (b"x",)),
    "delete_record": lambda page: page.delete_record(0),
    "delete_records": lambda page: page.delete_records(0, 2),
    "update_record": lambda page: page.update_record(0, b"changed"),
    "splice_record": lambda page: page.splice_record(0, 1, b"L", 5),
    "compact": lambda page: page.compact(),
    "set_body_bit": lambda page: page.set_body_bit(3, True),
}

#: Every settable header field.
SETTABLE = (
    "flags", "page_lsn", "last_image_lsn", "level", "prev_page", "next_page",
    "mods_since_image", "checksum",
)


def _image() -> bytes:
    page = Page(bytearray(1024))
    page.format(7, PageType.BTREE)
    for slot, payload in enumerate((b"alpha", b"beta", b"gamma", b"delta")):
        page.insert_record(slot, payload)
    page.delete_record(1)  # leaves garbage for compact to reclaim
    return page.clone_bytes()


class TestReadOnlyPage:
    def test_the_lists_name_every_mutator_and_settable_field(self):
        settable = {
            name
            for name, attr in vars(Page).items()
            if isinstance(attr, property) and attr.fset is not None
        }
        assert settable == set(SETTABLE)
        # Each listed mutation really writes a writable page.
        for name, mutate in MUTATIONS.items():
            page = Page(bytearray(_image()))
            mutate(page)
            assert bytes(page.data) != _image(), name

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_every_mutator_raises_and_leaves_the_image(self, name):
        image = _image()
        page = ReadOnlyPage(image)
        with pytest.raises(ReadOnlyPageError):
            MUTATIONS[name](page)
        assert page.data is image and image == _image()
        assert page.records() == [b"alpha", b"gamma", b"delta"]

    @pytest.mark.parametrize("field", SETTABLE)
    def test_every_settable_field_raises(self, field):
        image = _image()
        page = ReadOnlyPage(image)
        before = getattr(page, field)
        with pytest.raises(ReadOnlyPageError):
            setattr(page, field, 1)
        assert getattr(page, field) == before and page.data is image

    def test_wraps_bytes_only(self):
        with pytest.raises(TypeError):
            ReadOnlyPage(bytearray(_image()))

    def test_a_pooled_frame_is_the_stores_image(self, engine, items_db):
        db = items_db
        fill_items(db, 10)
        t0 = mark(db)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 999})
        with engine.query_as_of(db.name, t0) as snap:
            assert snap.get("items", (1,))[2] == 10
            frames = dict(snap._frames)
            assert snap.sparse is None
        images = {id(data) for data, _digest in store_images(db.version_store).values()}
        assert frames
        for frame in frames.values():
            assert isinstance(frame.page, ReadOnlyPage)
            assert id(frame.page.data) in images
            with pytest.raises(ReadOnlyPageError):
                frame.page.insert_record(0, b"x")
        assert db.env.stats.sparse_writes == 0 and db.env.stats.sparse_bytes == 0


# ---------------------------------------------------------------------------
# Losers: private copies
# ---------------------------------------------------------------------------


class TestLosersWritePrivateCopies:
    def test_background_undo_leaves_the_stored_images(self, engine):
        db = engine.create_database("losers")
        db.create_table(ITEMS_SCHEMA)
        other = TableSchema(
            "other", (Column("id", ColumnType.INT),), key=("id",)
        )
        db.create_table(other)
        fill_items(db, 10)
        straddler = db.begin()
        db.update(straddler, "items", (1,), {"qty": -1})
        with db.transaction() as txn:
            db.insert(txn, "other", (1,))
        t1 = mark(db)
        # A commit that touches no items page: a second split whose
        # leaf version is the same stored image.
        with db.transaction() as txn:
            db.insert(txn, "other", (2,))
        t2 = mark(db)
        db.commit(straddler)
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 555})

        store = db.version_store
        pool = engine.snapshot_pool
        leaf = leaf_of(db, (1,))
        first = pool.acquire(db, t1)
        assert first.pending_undo_count == 1
        with first.fetch_page(leaf) as guard:
            assert not isinstance(guard.page, ReadOnlyPage)
            pre_undo = bytes(guard.page.data)
        before = store_images(store)
        assert any(digest == hashlib.sha256(pre_undo).hexdigest()
                   for _data, digest in before.values())

        assert first.get("items", (1,))[2] == 10  # the straddler undone
        assert first.pending_undo_count == 0
        # The undo framed more pages (and published them); every version
        # stored before it is byte for byte what it was.
        after = store_images(store)
        for key, (data, digest) in before.items():
            assert after[key][0] is data and after[key][1] == digest
        images = {id(data) for data, _digest in after.values()}
        undone = first._frames[leaf].page
        assert bytes(undone.data) != pre_undo
        assert id(undone.data) not in images

        # A second pooled snapshot in the same interval: a store hit on
        # the leaf, which still holds the straddler's uncommitted update.
        prepared = db.env.stats.pages_prepared_asof
        second = pool.acquire(db, t2)
        assert second is not first and second.split_lsn != first.split_lsn
        with second.fetch_page(leaf) as guard:
            assert bytes(guard.page.data) == pre_undo
        assert db.env.stats.pages_prepared_asof == prepared
        assert second.get("items", (1,))[2] == 10
        final = store_images(store)
        for key, (_data, digest) in before.items():
            assert final[key][1] == digest
        pool.release(first)
        pool.release(second)


# ---------------------------------------------------------------------------
# The frames are a pooled snapshot's only tier
# ---------------------------------------------------------------------------


class TestPooledFrames:
    def test_a_read_past_the_frame_cap_prepares_each_page_once(self, engine, small_config):
        db = engine.create_database("big", small_config)
        schema = TableSchema(
            "big",
            (
                Column("id", ColumnType.INT),
                Column("pad", ColumnType.STR, max_len=420),
            ),
            key=("id",),
        )
        db.create_table(schema)
        with db.transaction() as txn:
            for i in range(600):
                db.insert(txn, "big", (i, "x" * 400))
        t0 = mark(db)
        with db.transaction() as txn:
            for i in range(0, 600, 7):
                db.update(txn, "big", (i,), {"pad": "new"})
        stats = db.env.stats
        store = db.version_store
        prepared = stats.pages_prepared_asof
        with engine.query_as_of(db.name, t0) as snap:
            rows = list(snap.scan("big"))
            assert [row[1] for row in rows] == ["x" * 400] * 600
            framed = len(snap._frames)
            # More pages than a named snapshot's frame cache holds (256).
            assert framed > 256
            assert stats.pages_prepared_asof - prepared == framed
            prepared = stats.pages_prepared_asof
            probes = store.stats.hits + store.stats.misses
            assert list(snap.scan("big")) == rows
        # The second scan was frame lookups only: no prepare, no probe.
        assert stats.pages_prepared_asof == prepared
        assert store.stats.hits + store.stats.misses == probes
        assert len(snap._frames) == framed
        assert stats.sparse_writes == stats.sparse_reads == 0
        assert snap.side_file_bytes() == framed * small_config.page_size

    def test_the_pool_evicts_idle_entries_past_its_budget(self, env, small_config):
        engine = Engine(env, config=small_config)
        db = engine.create_database("evict")
        db.create_table(ITEMS_SCHEMA)
        points = []
        for batch in range(6):
            fill_items(db, 20, start=20 * batch)
            points.append(mark(db))
        pool = engine.snapshot_pool
        page = small_config.page_size
        charged = []
        for t in points:
            with pool.lease(db, t) as snap:
                assert sum(1 for _ in snap.scan("items")) > 0
                charged.append(len(snap._frames) * page)
        assert min(charged) > 0
        assert pool.total_bytes() == sum(charged)
        assert pool.stats.evictions == 0
        # A budget for the two newest entries: the four oldest go.
        pool.set_budget(charged[-1] + charged[-2])
        assert pool.stats.evictions == 4 and len(pool) == 2
        assert pool.total_bytes() == charged[-1] + charged[-2] <= pool.budget_bytes
        # Every release re-checks the budget: a new entry evicts the LRU.
        fill_items(db, 20, start=200)
        with pool.lease(db, mark(db)) as snap:
            assert sum(1 for _ in snap.scan("items")) == 140
        assert pool.stats.evictions >= 5
        assert pool.total_bytes() <= pool.budget_bytes
