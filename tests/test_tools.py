"""Tests for log inspection and the consistency checker."""

from __future__ import annotations

from repro.storage.allocation import FIRST_MAP_PAGE_ID
from repro.storage.page import HEADER_FIELDS
from repro.tools import check_database, describe_record, transaction_history
from repro.tools.loginspect import main as loginspect_main
from repro.tools.loginspect import mix_report, record_mix
from repro.wal.lsn import NULL_LSN, format_lsn
from repro.wal.records import (
    FLAG_SMO,
    CommitRecord,
    DeleteRowsRecord,
    FormatPageRecord,
    InsertRowRecord,
    InsertRowsRecord,
    PreformatPageRecord,
    RecordType,
    UpdateBytesRecord,
)
from repro.workload import TpccDriver, TpccScale, load_tpcc
from tests.conftest import ITEMS_SCHEMA, fill_items, table_pages


def page_chain(db, page_id: int) -> list:
    """The page's modification chain, newest first: its ``pageLSN``, then
    each record's ``prevPageLSN`` (the paper's Figures 1/2)."""
    with db.fetch_page(page_id) as guard:
        current = guard.page.page_lsn
    chain = []
    while current != NULL_LSN:
        chain.append(db.log.read(current))
        current = chain[-1].prev_page_lsn
    return chain


class TestLogInspect:
    def test_describe_various(self, items_db):
        fill_items(items_db, 3)
        lines = [describe_record(rec) for rec in items_db.log.scan(items_db.log.start_lsn)]
        assert any("Begin" in line for line in lines)
        assert any("Commit" in line and "wall=" in line for line in lines)
        assert any("InsertRow" in line and "slot=" in line for line in lines)
        assert any("CheckpointBegin" in line for line in lines)

    def test_page_history_newest_first(self, items_db):
        db = items_db
        fill_items(db, 3)
        leaf = table_pages(db, "items")[0]
        chain = page_chain(db, leaf)
        assert len(chain) >= 4  # format + 3 inserts
        lsns = [rec.lsn for rec in chain]
        assert lsns == sorted(lsns, reverse=True)
        assert isinstance(chain[-1], FormatPageRecord)

    def test_page_history_crosses_preformat(self, engine, small_config):
        """The Figure 2 structure: chain splices across re-allocation."""
        db = engine.create_database("hist", small_config)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        pages_before = set(table_pages(db, "items"))
        db.drop_table("items")
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        reused = set(table_pages(db, "items")) & pages_before
        assert reused
        chain = page_chain(db, sorted(reused)[0])
        kinds = [type(rec).__name__ for rec in chain]
        assert "PreformatPageRecord" in kinds
        # The chain continues past the preformat into the old incarnation.
        pre_at = kinds.index("PreformatPageRecord")
        assert len(kinds) > pre_at + 1

    def test_transaction_history(self, items_db, monkeypatch):
        db = items_db
        fill_items(db, 2)
        txn = db.begin()
        db.insert(txn, "items", (7, "seven", 70))
        db.update(txn, "items", (0,), {"qty": 5})
        db.commit(txn)
        inserts = []

        def counting(view, pos, decode=InsertRowRecord._decode_body):
            inserts.append(pos)
            return decode(view, pos)

        monkeypatch.setattr(InsertRowRecord, "_decode_body", staticmethod(counting))
        chain = transaction_history(db, txn.txn_id)
        # Finding the chain's head reads no log; only the chain is decoded.
        assert len(inserts) == sum(isinstance(rec, InsertRowRecord) for rec in chain) == 1
        kinds = [type(rec).__name__ for rec in chain]
        assert kinds[0] == "CommitRecord"
        assert kinds[-1] == "BeginRecord"
        assert "InsertRowRecord" in kinds and "UpdateBytesRecord" in kinds

    def test_describe_row_moves(self):
        rows = (b"a", b"bc", b"")
        insert = InsertRowsRecord(slot=0, rows=rows, page_id=6, flags=FLAG_SMO)
        inline = DeleteRowsRecord(slot=4, count=3, rows=rows, pair_lsn=0x40, page_id=5, flags=FLAG_SMO)
        paired = DeleteRowsRecord(slot=4, count=3, pair_lsn=0x40, page_id=5, flags=FLAG_SMO)
        for rec in (insert, inline, paired):
            rec.lsn = 0x80
        assert describe_record(insert).endswith("InsertRows page=6 prev_page=NULL slot=0 rows=3 SMO")
        text = describe_record(inline)
        assert "DeleteRows page=5" in text and "slot=4 rows=3 inline SMO" in text
        text = describe_record(paired)
        assert f"slot=4 rows=3 pair={format_lsn(0x40)} SMO" in text

    def test_describe_preformat(self):
        rec = PreformatPageRecord(image=b"\0" * 64, page_id=9)
        rec.lsn = 100
        text = describe_record(rec)
        assert "Preformat" in text and "image=64B" in text


    def test_describe_span_update(self):
        rec = UpdateBytesRecord.between(4, b"abcdef", b"abXYZf", key_bytes=b"k", page_id=5)
        line = describe_record(rec)
        for part in ("UpdateBytes", "slot=4", "off=2", "old=3B", "new=3B", "len=6"):
            assert part in line
        without = UpdateBytesRecord(slot=4, offset=0, length=0, old=None, new=b"", page_id=5)
        assert "old=-B" in describe_record(without)


class TestRecordMix:
    """``record_mix`` / ``--mix``: records and bytes per type, headers only."""

    def test_a_tpcc_range_adds_up_to_its_length(self, engine):
        db = engine.create_database("tpcc")
        scale = TpccScale(
            warehouses=1, districts_per_warehouse=2, customers_per_district=10, items=50
        )
        load_tpcc(db, scale)
        start = db.log.end_lsn
        TpccDriver(db, scale, seed=4).run_transactions(40)
        mix = record_mix(db.log, start, db.log.end_lsn)
        assert sum(nbytes for _records, nbytes in mix.values()) == db.log.end_lsn - start
        assert mix[RecordType.UPDATE_BYTES][0] > 0 and 11 not in mix
        assert sum(nbytes for _r, nbytes in record_mix(db.log).values()) == (
            db.log.end_lsn - db.log.start_lsn
        )
        lines = mix_report(mix, per=40)
        total = next(line for line in lines if line.startswith("total")).split()
        records = sum(count for count, _nbytes in mix.values())
        assert total[1:4] == [str(records), str(db.log.end_lsn - start), "100.0%"]
        assert float(total[5]) == round((db.log.end_lsn - start) / 40, 1)

    def test_cli_over_an_archive(self, engine, items_db, tmp_path, capsys):
        directory = str(tmp_path / "segments")
        engine.enable_archiving("itemsdb", directory=directory)
        fill_items(items_db, 20)
        items_db.log.flush()
        engine.archives["itemsdb"].poll()
        assert loginspect_main(["--archive", directory, "--mix"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert int(rows["INSERT_ROW"][0]) >= 20
        mix = record_mix(directory)
        assert int(rows["total"][1]) == sum(nbytes for _r, nbytes in mix.values())


class TestCheckDb:
    def test_healthy_database(self, items_db):
        fill_items(items_db, 50)
        report = check_database(items_db)
        assert report.ok, report.problems
        assert report.rows_checked >= 50
        assert report.objects_checked >= 3  # sys tables + items

    def test_healthy_after_churn(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 500)
        with db.transaction() as txn:
            for i in range(0, 500, 2):
                db.delete(txn, "items", (i,))
        fill_items(db, 200, start=1000)
        report = check_database(db)
        assert report.ok, report.problems

    def test_healthy_after_crash_recovery(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 300)
        txn = db.begin()
        db.insert(txn, "items", (9999, "loser", 0))
        db.log.flush()
        db.crash()
        db.recover()
        report = check_database(db)
        assert report.ok, report.problems

    def test_detects_a_leaked_page(self, small_db):
        """An allocated page no object reaches is reported, its map page in
        the pool or only on disk; the map page past the last one written
        is never read."""
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        with db.transaction() as txn:
            leaked, _was_ever = db.alloc.allocate(txn)
        problem = f"page {leaked} allocated but reachable from no object"
        assert check_database(db).problems == [problem]
        db.buffer.flush_all()
        db.buffer.crash()  # the map page only on disk
        assert check_database(db).problems == [problem]
        never_written = FIRST_MAP_PAGE_ID + db.alloc.pages_per_map + 1
        assert db.buffer.peek(never_written) is None

    def test_snapshot_is_consistent_database(self, engine, small_db):
        """The strongest end-to-end check: a rewound view passes the same
        structural validation as a live database."""
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 200)
        mark = db.env.clock.now()
        db.env.clock.advance(10)
        with db.transaction() as txn:
            for i in range(200, 500):
                db.insert(txn, "items", (i, f"x{i}", i))
            for i in range(0, 100, 3):
                db.delete(txn, "items", (i,))
        snap = engine.create_asof_snapshot("smalldb", "checked", mark)
        report = check_database(snap)
        assert report.ok, report.problems
        assert report.rows_checked >= 200

    def test_detects_corruption(self, items_db):
        db = items_db
        fill_items(db, 20)
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            # Swap two records to break key order.
            a = guard.page.record(0)
            b = guard.page.record(1)
            guard.page.update_record(0, b)
            guard.page.update_record(1, a)
            guard.mark_dirty()
        report = check_database(db)
        assert not report.ok
        assert any("out of order" in problem for problem in report.problems)

    def test_detects_undecodable_row(self, items_db):
        db = items_db
        fill_items(db, 5)
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            guard.page.update_record(2, guard.page.record(2)[:-3])
            guard.mark_dirty()
        report = check_database(db)
        (problem,) = report.problems
        assert "row undecodable: row for 'items'" in problem

    def test_detects_wrong_object(self, items_db):
        db = items_db
        fill_items(db, 5)
        leaf = table_pages(db, "items")[0]
        with db.fetch_page(leaf) as guard:
            plan, offset = HEADER_FIELDS["object_id"]
            plan.pack_into(guard.page.data, offset, 424242)  # clobber it
            guard.mark_dirty()
        report = check_database(db)
        assert any("belongs to object" in problem for problem in report.problems)
