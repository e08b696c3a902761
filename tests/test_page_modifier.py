"""Unit tests for the logged page-modification path (wal/apply.py)."""

from __future__ import annotations

from repro import DatabaseConfig, Engine
from repro.storage.page import Page, PageType
from repro.wal.apply import UnloggedModifier
from repro.wal.records import (
    InsertRowRecord,
    PageImageRecord,
    PreformatPageRecord,
)
from tests.conftest import ITEMS_SCHEMA, fill_items, table_pages


def image_db(interval: int):
    engine = Engine(
        config=DatabaseConfig().with_extensions(page_image_interval=interval)
    )
    db = engine.create_database("img")
    db.create_table(ITEMS_SCHEMA)
    return db


class TestPageChains:
    def test_prev_page_lsn_links(self, items_db):
        db = items_db
        fill_items(db, 3)
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            lsn = guard.page.page_lsn
        seen = []
        while lsn:
            rec = db.log.read(lsn)
            seen.append(rec)
            assert rec.page_id == leaf
            lsn = rec.prev_page_lsn
        # format + 3 inserts, newest first, strictly decreasing LSNs.
        assert len(seen) == 4
        assert [r.lsn for r in seen] == sorted((r.lsn for r in seen), reverse=True)

    def test_txn_chain_links(self, items_db):
        db = items_db
        txn = db.begin()
        db.insert(txn, "items", (1, "a", 1))
        db.insert(txn, "items", (2, "b", 2))
        db.commit(txn)
        rec = db.log.read(txn.last_lsn)  # commit record
        chain = []
        lsn = txn.last_lsn
        while lsn:
            rec = db.log.read(lsn)
            chain.append(type(rec).__name__)
            if chain[-1] == "BeginRecord":
                break
            lsn = rec.prev_txn_lsn
        assert chain == [
            "CommitRecord",
            "InsertRowRecord",
            "InsertRowRecord",
            "BeginRecord",
        ]


class TestPageImages:
    def test_image_cadence(self):
        db = image_db(4)
        with db.transaction() as txn:
            for i in range(8):
                db.insert(txn, "items", (i, "x", i))
        # 8 modifications at N=4 → at least 2 images for the leaf.
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            assert guard.page.last_image_lsn > 0
            assert guard.page.mods_since_image < 4
        assert db.env.stats.page_image_records >= 2

    def test_image_chain_linked(self):
        db = image_db(2)
        with db.transaction() as txn:
            for i in range(10):
                db.insert(txn, "items", (i, "x", i))
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            image_lsn = guard.page.last_image_lsn
        count = 0
        while image_lsn:
            rec = db.log.read(image_lsn)
            assert isinstance(rec, PageImageRecord)
            count += 1
            image_lsn = rec.prev_image_lsn
        assert count >= 4

    def test_no_images_when_disabled(self, items_db):
        fill_items(items_db, 20)
        assert items_db.env.stats.page_image_records == 0
        leaf = table_pages(items_db, "items")[0]
        with items_db.fetch_page(leaf) as guard:
            assert guard.page.last_image_lsn == 0


class TestPreformat:
    def test_first_allocation_no_preformat(self, items_db):
        assert items_db.env.stats.preformat_records == 0

    def test_reallocation_logs_preformat(self, items_db):
        db = items_db
        fill_items(db, 5)
        db.drop_table("items")
        db.create_table(ITEMS_SCHEMA)
        assert db.env.stats.preformat_records >= 1
        # The preformat chains format -> preformat -> old incarnation.
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            lsn = guard.page.page_lsn
        kinds = []
        while lsn:
            rec = db.log.read(lsn)
            kinds.append(type(rec).__name__)
            lsn = rec.prev_page_lsn
        assert "PreformatPageRecord" in kinds
        pre_at = kinds.index("PreformatPageRecord")
        assert kinds[pre_at - 1] == "FormatPageRecord"
        assert len(kinds) > pre_at + 1  # old incarnation reachable

    def test_preformat_disabled_breaks_chain(self):
        engine = Engine(
            config=DatabaseConfig().with_extensions(preformat_on_realloc=False)
        )
        db = engine.create_database("nopre")
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 5)
        db.drop_table("items")
        db.create_table(ITEMS_SCHEMA)
        assert db.env.stats.preformat_records == 0
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            lsn = guard.page.page_lsn
        kinds = []
        while lsn:
            rec = db.log.read(lsn)
            kinds.append(type(rec).__name__)
            lsn = rec.prev_page_lsn
        # Chain ends at the new format; the old incarnation is unreachable.
        assert kinds[-1] == "FormatPageRecord"
        assert "PreformatPageRecord" not in kinds


class TestUnloggedModifier:
    def test_apply_without_logging(self, env):
        from repro.storage.buffer import Frame

        modifier = UnloggedModifier(env)
        page = Page(bytearray(1024))
        page.format(5, PageType.BTREE, object_id=1)
        frame = Frame(page, 5)
        rec = InsertRowRecord(slot=0, row=b"row", page_id=5)
        lsn = modifier.apply(None, frame, rec)
        assert lsn == 0
        assert page.record(0) == b"row"
        assert page.page_lsn == 0  # chain untouched
        assert frame.dirty

    def test_format_without_logging(self, env):
        from repro.storage.buffer import Frame

        modifier = UnloggedModifier(env)
        page = Page(bytearray(1024))
        frame = Frame(page, 9)
        modifier.format_page(None, frame, PageType.HEAP, object_id=3)
        assert page.is_formatted()
        assert page.page_id == 9
        assert page.object_id == 3
