"""PreparePageAsOf tests: chain walking, images, preformat, failure modes."""

from __future__ import annotations

import pytest

from repro import DatabaseConfig, Engine
from repro.access.btree import object_page_ids
from repro.config import SimEnv
from repro.core.page_undo import prepare_page_version
from repro.errors import LogTruncatedError
from repro.sim.device import SAS_10K
from repro.storage.page import Page
from tests.conftest import ITEMS_SCHEMA, fill_items


def leaf_page_id(db, table="items"):
    """Page id of the (single) leaf of a small table."""
    tree = db.table(table).accessor
    pids = object_page_ids(tree.services.fetch, tree.root_page_id)
    assert len(pids) == 1
    return pids[0]


def page_copy(db, pid) -> Page:
    with db.fetch_page(pid) as guard:
        return Page(bytearray(guard.page.data))


def rows_on(page, codec):
    return [codec.decode(payload) for payload in page.records()]


class TestBasicRewind:
    def test_rewind_across_updates(self, items_db):
        db = items_db
        fill_items(db, 5)
        lsn_before = db.log.end_lsn - 1
        with db.transaction() as txn:
            db.update(txn, "items", (2,), {"qty": 999})
            db.update(txn, "items", (2,), {"qty": 1000})
        pid = leaf_page_id(db)
        codec = db.table("items").accessor.codec
        page = page_copy(db, pid)
        prepare_page_version(page, lsn_before, db.log, db.env)
        rows = rows_on(page, codec)
        assert rows[2] == (2, "item-2", 20)

    def test_rewind_to_now_is_noop(self, items_db):
        db = items_db
        fill_items(db, 5)
        pid = leaf_page_id(db)
        page = page_copy(db, pid)
        before = page.clone_bytes()
        prepare_page_version(page, db.log.end_lsn, db.log, db.env)
        assert page.clone_bytes() == before

    def test_rewind_before_creation_empties_page(self, items_db):
        db = items_db
        fill_items(db, 5)
        pid = leaf_page_id(db)
        page = page_copy(db, pid)
        prepare_page_version(page, 1, db.log, db.env)
        assert not page.is_formatted()

    def test_rewind_across_insert_delete_mix(self, items_db):
        db = items_db
        fill_items(db, 5)
        mid = db.log.end_lsn - 1
        with db.transaction() as txn:
            db.delete(txn, "items", (1,))
            db.delete(txn, "items", (3,))
            db.insert(txn, "items", (7, "seven", 70))
        pid = leaf_page_id(db)
        codec = db.table("items").accessor.codec
        page = page_copy(db, pid)
        prepare_page_version(page, mid, db.log, db.env)
        keys = [r[0] for r in rows_on(page, codec)]
        assert keys == [0, 1, 2, 3, 4]

    def test_rewind_through_rollback_clrs(self, items_db):
        """The section 4.2 CLR extension: page undo crosses a rollback."""
        db = items_db
        fill_items(db, 5)
        mid = db.log.end_lsn - 1
        txn = db.begin()
        db.update(txn, "items", (0,), {"qty": -1})
        db.insert(txn, "items", (9, "nine", 90))
        db.rollback(txn)
        with db.transaction() as txn:
            db.update(txn, "items", (4,), {"qty": 4444})
        pid = leaf_page_id(db)
        codec = db.table("items").accessor.codec
        page = page_copy(db, pid)
        prepare_page_version(page, mid, db.log, db.env)
        rows = rows_on(page, codec)
        assert rows[0] == (0, "item-0", 0)
        assert rows[4] == (4, "item-4", 40)
        assert len(rows) == 5

    def test_intermediate_points_all_reachable(self, items_db):
        """Every historical LSN yields the exact historical page content."""
        db = items_db
        codec = db.table("items").accessor.codec
        history = []
        expected = {}
        for i in range(12):
            with db.transaction() as txn:
                db.insert(txn, "items", (i, f"v{i}", i))
            history.append(db.log.end_lsn - 1)
            expected[history[-1]] = [(j, f"v{j}", j) for j in range(i + 1)]
        pid = leaf_page_id(db)
        for lsn in history:
            page = page_copy(db, pid)
            prepare_page_version(page, lsn, db.log, db.env)
            assert rows_on(page, codec) == expected[lsn]


class TestChainWalkCost:
    def test_chain_inside_one_log_block_costs_one_read(self):
        """Figure 3's walk on Figure 11's pricing: a chain whose records
        share a log block pays the device once and hits the log block
        cache for the rest."""
        env = SimEnv(log_profile=SAS_10K)
        db = Engine(env).create_database("itemsdb")
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 5)
        mark = db.log.end_lsn - 1
        n = 10
        with db.transaction() as txn:
            for i in range(n):
                db.update(txn, "items", (2,), {"qty": 1000 + i})
        assert db.log.durable_lsn == db.log.end_lsn  # no free volatile tail
        assert mark // db.log.block_size == db.log.end_lsn // db.log.block_size
        page = page_copy(db, leaf_page_id(db))
        db.log._cache.clear()
        before = env.stats.snapshot()
        busy_before = env.log_device.busy_seconds
        prepare_page_version(page, mark, db.log, env)
        spent = env.stats.delta(before)
        assert spent.undo_records_applied == n
        assert spent.undo_log_reads == 1
        assert spent.undo_log_cache_hits == n - 1
        assert env.log_device.busy_seconds - busy_before == pytest.approx(
            SAS_10K.rand_read_time(db.log.block_size)
        )


class TestPageImages:
    def _engine(self, interval):
        config = DatabaseConfig().with_extensions(page_image_interval=interval)
        engine = Engine(config=config)
        db = engine.create_database("imgdb")
        db.create_table(ITEMS_SCHEMA)
        return db

    def test_images_emitted(self):
        db = self._engine(4)
        fill_items(db, 20)
        assert db.env.stats.page_image_records > 0

    def test_rewind_with_images_matches_without(self):
        db_img = self._engine(4)
        db_raw = self._engine(0)
        marks = {}
        for db, tag in ((db_img, "img"), (db_raw, "raw")):
            fill_items(db, 3)
            marks[tag] = db.log.end_lsn - 1
            with db.transaction() as txn:
                for i in range(30):
                    db.update(txn, "items", (1,), {"qty": i})
        for db, tag in ((db_img, "img"), (db_raw, "raw")):
            pid = leaf_page_id(db)
            codec = db.table("items").accessor.codec
            page = page_copy(db, pid)
            prepare_page_version(page, marks[tag], db.log, db.env)
            assert rows_on(page, codec)[1] == (1, "item-1", 10)

    def test_images_reduce_undo_work(self):
        db_img = self._engine(4)
        db_raw = self._engine(0)
        for db in (db_img, db_raw):
            fill_items(db, 3)
        marks = {}
        for db, tag in ((db_img, "img"), (db_raw, "raw")):
            marks[tag] = db.log.end_lsn - 1
            with db.transaction() as txn:
                for i in range(100):
                    db.update(txn, "items", (1,), {"qty": i})
        counts = {}
        for db, tag in ((db_img, "img"), (db_raw, "raw")):
            before = db.env.stats.snapshot()
            page = page_copy(db, leaf_page_id(db))
            prepare_page_version(page, marks[tag], db.log, db.env)
            counts[tag] = db.env.stats.delta(before).undo_records_applied
        assert counts["img"] < counts["raw"] / 3
        assert db_img.env.stats.undo_images_applied >= 1


class TestFailureModes:
    def test_truncated_chain_raises(self, items_db):
        db = items_db
        fill_items(db, 5)
        mark = db.log.end_lsn - 1
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 1})
        db.checkpoint()
        db.log.truncate_before(db.last_checkpoint_lsn)
        page = page_copy(db, leaf_page_id(db))
        with pytest.raises(LogTruncatedError):
            prepare_page_version(page, mark, db.log, db.env)
        del mark

    def test_smo_delete_without_extension_derives_from_pair(self):
        """A split's delete carries no rows (section 4.2's SMO-delete undo
        info is not logged): undo derives them from the paired insert via
        pair_lsn, at the cost of extra log reads."""
        config = DatabaseConfig(page_size=1024, buffer_pool_pages=64)
        engine = Engine(config=config)
        db = engine.create_database("noext")
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 30)
        mark = db.log.end_lsn - 1
        fill_items(db, 300, start=30)  # forces splits: SMO deletes w/o rows
        tree = db.table("items").accessor
        codec = tree.codec
        recovered = []
        for pid in object_page_ids(tree.services.fetch, tree.root_page_id):
            with db.fetch_page(pid) as guard:
                page = Page(bytearray(guard.page.data))
            prepare_page_version(page, mark, db.log, db.env)
            # Filter on the *as-of* shape: pages that were leaves back then
            # (today's root may be interior; today's leaves may not have
            # existed yet).
            if page.is_formatted() and page.level == 0 and page.object_id == tree.object_id:
                recovered.extend(r[0] for r in rows_on(page, codec))
        assert set(recovered) == set(range(30))
