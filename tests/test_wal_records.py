"""Log record serialization round-trips and redo/undo semantics."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LogRecordDecodeError, MissingUndoInfoError, WalError
from repro.storage.checksum import crc32_zeroing
from repro.storage.page import Page, PageType
from repro.wal import records
from repro.wal.records import (
    BLOB,
    BOOL,
    F64,
    FLAG_HEAP,
    FLAG_SMO,
    HEADER_SIZE,
    OPT_BLOB,
    PAIRS,
    RECORD,
    U8,
    U16,
    U32,
    U64,
    AbortRecord,
    AllocPageRecord,
    BeginRecord,
    CheckpointBeginRecord,
    CheckpointEndRecord,
    ClrRecord,
    CommitRecord,
    DeallocPageRecord,
    DeformatPageRecord,
    DeleteRowRecord,
    FormatPageRecord,
    InsertRowRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordType,
    SetLinksRecord,
    UpdateRowRecord,
    decode_record,
    decode_span,
    walk_headers,
)

PAGE_SIZE = 1024


def roundtrip(rec):
    blob = rec.serialize()
    decoded, end = decode_record(blob, 0, lsn=77)
    assert end == len(blob)
    assert decoded.lsn == 77
    assert type(decoded) is type(rec)
    assert decoded.txn_id == rec.txn_id
    assert decoded.prev_txn_lsn == rec.prev_txn_lsn
    assert decoded.page_id == rec.page_id
    assert decoded.prev_page_lsn == rec.prev_page_lsn
    assert decoded.object_id == rec.object_id
    assert decoded.flags == rec.flags
    return decoded


def tree_page(page_id: int = 5) -> Page:
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, PageType.BTREE, object_id=10)
    return page


class TestSerialization:
    def test_begin(self):
        roundtrip(BeginRecord(txn_id=4))

    def test_commit_wall_clock(self):
        rec = roundtrip(CommitRecord(wall_clock=123.456, txn_id=4, prev_txn_lsn=99))
        assert rec.wall_clock == pytest.approx(123.456)

    def test_abort(self):
        roundtrip(AbortRecord(txn_id=9, prev_txn_lsn=1))

    def test_checkpoint_begin(self):
        rec = roundtrip(
            CheckpointBeginRecord(
                wall_clock=5.5,
                prev_checkpoint_lsn=42,
                active_txns=((3, 100), (7, 200)),
            )
        )
        assert rec.wall_clock == 5.5
        assert rec.prev_checkpoint_lsn == 42
        assert rec.active_txns == ((3, 100), (7, 200))

    def test_checkpoint_end(self):
        assert roundtrip(CheckpointEndRecord(begin_lsn=42)).begin_lsn == 42

    def test_format(self):
        rec = roundtrip(
            FormatPageRecord(
                page_type=int(PageType.BTREE),
                index_id=2,
                level=3,
                prev_page=7,
                next_page=8,
                page_id=5,
                object_id=10,
            )
        )
        assert rec.level == 3
        assert rec.prev_page == 7

    def test_preformat_image(self):
        image = bytes(range(256)) * 4
        rec = roundtrip(PreformatPageRecord(image=image, page_id=5, prev_page_lsn=33))
        assert rec.image == image

    def test_page_image(self):
        rec = roundtrip(
            PageImageRecord(image=b"\x01" * PAGE_SIZE, prev_image_lsn=12, page_id=5)
        )
        assert rec.prev_image_lsn == 12

    def test_insert(self):
        rec = roundtrip(
            InsertRowRecord(slot=3, row=b"row", key_bytes=b"key", page_id=5, txn_id=2)
        )
        assert (rec.slot, rec.row, rec.key_bytes) == (3, b"row", b"key")

    def test_delete_with_row(self):
        rec = roundtrip(
            DeleteRowRecord(slot=1, row=b"gone", key_bytes=b"k", pair_lsn=9, page_id=5)
        )
        assert rec.row == b"gone"
        assert rec.pair_lsn == 9

    def test_delete_without_row(self):
        rec = roundtrip(DeleteRowRecord(slot=1, row=None, pair_lsn=11, page_id=5, flags=FLAG_SMO))
        assert rec.row is None
        assert rec.is_smo

    def test_update(self):
        rec = roundtrip(
            UpdateRowRecord(slot=2, old=b"before", new=b"after", key_bytes=b"k", page_id=5)
        )
        assert (rec.old, rec.new) == (b"before", b"after")

    def test_update_without_old(self):
        assert roundtrip(UpdateRowRecord(slot=2, old=None, new=b"x", page_id=5)).old is None

    def test_set_links(self):
        rec = roundtrip(
            SetLinksRecord(old_prev=1, old_next=2, new_prev=3, new_next=4, page_id=5)
        )
        assert (rec.old_prev, rec.old_next, rec.new_prev, rec.new_next) == (1, 2, 3, 4)

    def test_alloc(self):
        rec = roundtrip(AllocPageRecord(target_page=9, was_ever_allocated=True, page_id=1))
        assert rec.target_page == 9
        assert rec.was_ever_allocated

    def test_dealloc(self):
        rec = roundtrip(DeallocPageRecord(target_page=9, clear_ever=True, page_id=1))
        assert rec.clear_ever

    def test_deformat(self):
        rec = roundtrip(DeformatPageRecord(page_type=4, index_id=1, level=2, page_id=5))
        assert rec.level == 2

    def test_clr_nested(self):
        comp = DeleteRowRecord(slot=4, row=b"undo-me", page_id=5)
        rec = roundtrip(
            ClrRecord(compensated_lsn=10, undo_next_lsn=6, comp=comp, page_id=5, txn_id=3)
        )
        assert rec.compensated_lsn == 10
        assert rec.undo_next_lsn == 6
        assert isinstance(rec.comp, DeleteRowRecord)
        assert rec.comp.row == b"undo-me"

    def test_clr_requires_comp(self):
        with pytest.raises(WalError):
            ClrRecord(compensated_lsn=1, undo_next_lsn=0, comp=None)

    def test_flags_roundtrip(self):
        rec = roundtrip(InsertRowRecord(slot=0, row=b"r", page_id=5, flags=FLAG_SMO | FLAG_HEAP))
        assert rec.is_smo and rec.is_heap


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(LogRecordDecodeError):
            decode_record(b"\x01\x02", 0)

    def test_truncated_body(self):
        blob = InsertRowRecord(slot=0, row=b"abcdef", page_id=1).serialize()
        with pytest.raises(LogRecordDecodeError):
            decode_record(blob[:-2], 0)

    def test_crc_mismatch(self):
        blob = bytearray(InsertRowRecord(slot=0, row=b"abcdef", page_id=1).serialize())
        blob[-1] ^= 0xFF
        with pytest.raises(LogRecordDecodeError):
            decode_record(blob, 0)


class TestRedoUndo:
    def test_insert_redo_undo(self):
        page = tree_page()
        rec = InsertRowRecord(slot=0, row=b"hello", page_id=5)
        rec.redo(page)
        assert page.record(0) == b"hello"
        rec.physical_undo(page)
        assert page.slot_count == 0

    def test_delete_redo_undo(self):
        page = tree_page()
        page.insert_record(0, b"bye")
        rec = DeleteRowRecord(slot=0, row=b"bye", page_id=5)
        rec.redo(page)
        assert page.slot_count == 0
        rec.physical_undo(page)
        assert page.record(0) == b"bye"

    def test_delete_undo_derives_from_pair(self):
        page = tree_page()
        insert = InsertRowRecord(slot=0, row=b"moved", page_id=6)
        insert.lsn = 500
        store = {500: insert}
        page.insert_record(0, b"moved")
        rec = DeleteRowRecord(slot=0, row=None, pair_lsn=500, page_id=5, flags=FLAG_SMO)
        rec.redo(page)
        rec.physical_undo(page, fetch=store.__getitem__)
        assert page.record(0) == b"moved"

    def test_delete_undo_without_info_raises(self):
        page = tree_page()
        rec = DeleteRowRecord(slot=0, row=None, page_id=5)
        with pytest.raises(MissingUndoInfoError):
            rec.physical_undo(page)

    def test_update_redo_undo(self):
        page = tree_page()
        page.insert_record(0, b"old")
        rec = UpdateRowRecord(slot=0, old=b"old", new=b"new!", page_id=5)
        rec.redo(page)
        assert page.record(0) == b"new!"
        rec.physical_undo(page)
        assert page.record(0) == b"old"

    def test_update_undo_without_old_raises(self):
        page = tree_page()
        page.insert_record(0, b"x")
        rec = UpdateRowRecord(slot=0, old=None, new=b"x", page_id=5)
        with pytest.raises(MissingUndoInfoError):
            rec.physical_undo(page)

    def test_format_redo_undo(self):
        page = Page(bytearray(PAGE_SIZE))
        rec = FormatPageRecord(
            page_type=int(PageType.BTREE), level=1, page_id=5, object_id=10
        )
        rec.redo(page)
        assert page.is_formatted() and page.level == 1
        rec.physical_undo(page)
        assert not page.is_formatted()

    def test_preformat_undo_restores_image(self):
        old = tree_page()
        old.insert_record(0, b"ancient")
        image = old.clone_bytes()
        page = tree_page()
        page.format(5, PageType.HEAP)
        rec = PreformatPageRecord(image=image, page_id=5)
        rec.redo(page)  # no-op
        assert page.page_type is PageType.HEAP
        rec.physical_undo(page)
        assert page.page_type is PageType.BTREE
        assert page.record(0) == b"ancient"

    def test_page_image_redo(self):
        page = tree_page()
        page.insert_record(0, b"state")
        image = page.clone_bytes()
        page.delete_record(0)
        rec = PageImageRecord(image=image, page_id=5)
        rec.redo(page)
        assert page.record(0) == b"state"
        rec.physical_undo(page)  # no-op
        assert page.record(0) == b"state"

    def test_set_links_redo_undo(self):
        page = tree_page()
        rec = SetLinksRecord(old_prev=0, old_next=0, new_prev=8, new_next=9, page_id=5)
        rec.redo(page)
        assert (page.prev_page, page.next_page) == (8, 9)
        rec.physical_undo(page)
        assert (page.prev_page, page.next_page) == (0, 0)

    def test_alloc_redo_undo_first_time(self):
        page = Page(bytearray(PAGE_SIZE))
        page.format(1, PageType.ALLOC_MAP)
        rec = AllocPageRecord(target_page=4, was_ever_allocated=False, page_id=1)
        rec.redo(page)
        assert page.get_body_bit(2)  # local index = 4 - (1+1)
        rec.physical_undo(page)
        assert not page.get_body_bit(2)

    def test_alloc_undo_preserves_prior_ever_bit(self):
        from repro.storage.page import ever_bit_offset

        page = Page(bytearray(PAGE_SIZE))
        page.format(1, PageType.ALLOC_MAP)
        ever = ever_bit_offset(PAGE_SIZE)
        page.set_body_bit(ever + 2, True)  # was ever allocated before
        rec = AllocPageRecord(target_page=4, was_ever_allocated=True, page_id=1)
        rec.redo(page)
        rec.physical_undo(page)
        assert page.get_body_bit(ever + 2)

    def test_dealloc_redo_keeps_ever_bit(self):
        from repro.storage.page import ever_bit_offset

        page = Page(bytearray(PAGE_SIZE))
        page.format(1, PageType.ALLOC_MAP)
        AllocPageRecord(target_page=4, page_id=1).redo(page)
        rec = DeallocPageRecord(target_page=4, page_id=1)
        rec.redo(page)
        assert not page.get_body_bit(2)
        assert page.get_body_bit(ever_bit_offset(PAGE_SIZE) + 2)
        rec.physical_undo(page)
        assert page.get_body_bit(2)

    def test_alloc_out_of_map_range_rejected(self):
        page = Page(bytearray(PAGE_SIZE))
        page.format(1, PageType.ALLOC_MAP)
        with pytest.raises(WalError):
            AllocPageRecord(target_page=1, page_id=1).redo(page)


class TestClrSemantics:
    def test_clr_redo_applies_comp(self):
        page = tree_page()
        page.insert_record(0, b"victim")
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=DeleteRowRecord(slot=0, row=b"victim", page_id=5),
            page_id=5,
        )
        clr.redo(page)
        assert page.slot_count == 0

    def test_clr_for_insert_undo_with_info(self):
        page = tree_page()
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=DeleteRowRecord(slot=0, row=b"victim", page_id=5),
            page_id=5,
        )
        clr.physical_undo(page)
        assert page.record(0) == b"victim"

    def test_clr_for_insert_undo_derives(self):
        page = tree_page()
        original = InsertRowRecord(slot=0, row=b"victim", page_id=5)
        original.lsn = 10
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=DeleteRowRecord(slot=0, row=None, page_id=5),
            page_id=5,
        )
        clr.physical_undo(page, fetch={10: original}.__getitem__)
        assert page.record(0) == b"victim"

    def test_clr_for_insert_undo_without_fetch_raises(self):
        page = tree_page()
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=DeleteRowRecord(slot=0, row=None, page_id=5),
            page_id=5,
        )
        with pytest.raises(MissingUndoInfoError):
            clr.physical_undo(page)

    def test_clr_for_delete_undo(self):
        page = tree_page()
        page.insert_record(0, b"back")
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=InsertRowRecord(slot=0, row=b"back", page_id=5),
            page_id=5,
        )
        clr.physical_undo(page)
        assert page.slot_count == 0

    def test_clr_for_update_undo_derives_from_update(self):
        page = tree_page()
        page.insert_record(0, b"older")
        original = UpdateRowRecord(slot=0, old=b"older", new=b"newer", page_id=5)
        original.lsn = 10
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=UpdateRowRecord(slot=0, old=None, new=b"older", page_id=5),
            page_id=5,
        )
        clr.physical_undo(page, fetch={10: original}.__getitem__)
        assert page.record(0) == b"newer"

    def test_clr_for_heap_tombstone_derives_from_insert(self):
        page = tree_page()
        page.insert_record(0, b"")
        original = InsertRowRecord(slot=0, row=b"heaprow", page_id=5, flags=FLAG_HEAP)
        original.lsn = 10
        clr = ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=0,
            comp=UpdateRowRecord(slot=0, old=None, new=b"", page_id=5),
            page_id=5,
        )
        clr.physical_undo(page, fetch={10: original}.__getitem__)
        assert page.record(0) == b"heaprow"


# ---------------------------------------------------------------------------
# Golden wire bytes: ``serialize().hex()`` of every record type as emitted
# by the hand-written codec this file's specs replaced (captured at commit
# 27b2071, before the rewrite). The format is frozen: a codec change that
# moves one byte of these is a log-format change, not a refactor.
# ---------------------------------------------------------------------------

GOLDEN = [
    (
        BeginRecord(txn_id=4),
        "2a0000000100040000000000000000000000000000000000000000000000000000000000"
        "0000786442e7",
    ),
    (
        CommitRecord(wall_clock=123.456, txn_id=4, prev_txn_lsn=99),
        "320000000200040000000000000063000000000000000000000000000000000000000000"
        "000081da7d9877be9f1a2fdd5e40",
    ),
    (
        AbortRecord(txn_id=9, prev_txn_lsn=1),
        "2a0000000300090000000000000001000000000000000000000000000000000000000000"
        "0000cc5917fb",
    ),
    (
        CheckpointBeginRecord(wall_clock=5.5, prev_checkpoint_lsn=42),
        "3e0000000400000000000000000000000000000000000000000000000000000000000000"
        "0000717a129b00000000000016402a0000000000000000000000",
    ),
    (
        CheckpointBeginRecord(
            wall_clock=7.25,
            prev_checkpoint_lsn=4096,
            active_txns=((3, 100), (7, 200), (2**40, 2**50)),
        ),
        "6e0000000400000000000000000000000000000000000000000000000000000000000000"
        "00000e51df180000000000001d4000100000000000000300000003000000000000006400"
        "0000000000000700000000000000c8000000000000000000000000010000000000000000"
        "0400",
    ),
    (
        CheckpointEndRecord(begin_lsn=42),
        "320000000500000000000000000000000000000000000000000000000000000000000000"
        "00005a12c98d2a00000000000000",
    ),
    (
        FormatPageRecord(
            page_type=int(PageType.BTREE),
            index_id=2,
            level=3,
            prev_page=7,
            next_page=8,
            page_id=5,
            object_id=10,
            txn_id=6,
            prev_txn_lsn=77,
            flags=FLAG_SMO,
        ),
        "36000000060106000000000000004d000000000000000500000000000000000000000a00"
        "0000b85b32a8040200030700000008000000",
    ),
    (
        PreformatPageRecord(image=bytes(range(16)), page_id=5, prev_page_lsn=33, object_id=10),
        "3e0000000700000000000000000000000000000000000500000021000000000000000a00"
        "0000f26891aa10000000000102030405060708090a0b0c0d0e0f",
    ),
    (
        PageImageRecord(image=bytes(range(16)), prev_image_lsn=12, page_id=5, prev_page_lsn=90),
        "46000000080000000000000000000000000000000000050000005a000000000000000000"
        "00007c61ad720c0000000000000010000000000102030405060708090a0b0c0d0e0f",
    ),
    (
        InsertRowRecord(
            slot=3,
            row=b'row',
            key_bytes=b'key',
            page_id=5,
            txn_id=2,
            prev_txn_lsn=8,
            prev_page_lsn=50,
            object_id=10,
        ),
        "3a0000000900020000000000000008000000000000000500000032000000000000000a00"
        "00003d5f7adb030003000000726f77030000006b6579",
    ),
    (
        InsertRowRecord(slot=0, row=b'r', page_id=5, flags=FLAG_SMO | FLAG_HEAP),
        "350000000903000000000000000000000000000000000500000000000000000000000000"
        "000067bab8d50000010000007200000000",
    ),
    (
        DeleteRowRecord(slot=1, row=b'gone', key_bytes=b'k', pair_lsn=9, page_id=5, txn_id=2),
        "420000000a00020000000000000000000000000000000500000000000000000000000000"
        "0000b03a4b5201000104000000676f6e65010000006b0900000000000000",
    ),
    (
        DeleteRowRecord(slot=1, row=None, pair_lsn=11, page_id=5, flags=FLAG_SMO),
        "390000000a01000000000000000000000000000000000500000000000000000000000000"
        "00008a6e8685010000000000000b00000000000000",
    ),
    (
        UpdateRowRecord(
            slot=2,
            old=b'before',
            new=b'after',
            key_bytes=b'k',
            page_id=5,
            txn_id=2,
        ),
        "450000000b00020000000000000000000000000000000500000000000000000000000000"
        "00001d258d41020001060000006265666f7265050000006166746572010000006b",
    ),
    (
        UpdateRowRecord(slot=2, old=None, new=b'x', page_id=5, flags=FLAG_HEAP),
        "360000000b02000000000000000000000000000000000500000000000000000000000000"
        "000080a56ec4020000010000007800000000",
    ),
    (
        SetLinksRecord(
            old_prev=1,
            old_next=2,
            new_prev=3,
            new_next=4,
            page_id=5,
            flags=FLAG_SMO,
        ),
        "3a0000000c01000000000000000000000000000000000500000000000000000000000000"
        "00002a76fd6a01000000020000000300000004000000",
    ),
    (
        AllocPageRecord(target_page=9, was_ever_allocated=True, page_id=1, txn_id=3),
        "2f0000000d00030000000000000000000000000000000100000000000000000000000000"
        "0000897b52760900000001",
    ),
    (
        AllocPageRecord(target_page=9, page_id=1),
        "2f0000000d00000000000000000000000000000000000100000000000000000000000000"
        "0000bdfc1ce20900000000",
    ),
    (
        DeallocPageRecord(target_page=9, clear_ever=True, page_id=1),
        "2f0000000e00000000000000000000000000000000000100000000000000000000000000"
        "000026d72f5c0900000001",
    ),
    (
        DeallocPageRecord(target_page=9, page_id=1, txn_id=3),
        "2f0000000e00030000000000000000000000000000000100000000000000000000000000"
        "0000125061c80900000000",
    ),
    (
        DeformatPageRecord(page_type=4, index_id=1, level=2, page_id=5, object_id=10),
        "2e0000000f00000000000000000000000000000000000500000000000000000000000a00"
        "000019e8b0d304010002",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=DeleteRowRecord(slot=4, row=b'undo-me', key_bytes=b'k', page_id=5),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "83000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "00007bd50e950a00000000000000060000000000000045000000450000000a0000000000"
        "00000000000000000000000005000000000000000000000000000000541bb9b404000107"
        "000000756e646f2d6d65010000006b0000000000000000",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=DeleteRowRecord(slot=4, row=None, key_bytes=b'k', page_id=5),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "78000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "00005880a86b0a0000000000000006000000000000003a0000003a0000000a0000000000"
        "000000000000000000000000050000000000000000000000000000001e26d78504000001"
        "0000006b0000000000000000",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=InsertRowRecord(slot=4, row=b'back', key_bytes=b'k', page_id=5, flags=FLAG_HEAP),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "77000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "000053bd5cad0a0000000000000006000000000000003900000039000000090200000000"
        "000000000000000000000000050000000000000000000000000000009343574304000400"
        "00006261636b010000006b",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=UpdateRowRecord(slot=4, old=b'newer', new=b'older', key_bytes=b'k', page_id=5),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "82000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "00007c3dd6e10a00000000000000060000000000000044000000440000000b0000000000"
        "00000000000000000000000005000000000000000000000000000000822c589804000105"
        "0000006e65776572050000006f6c646572010000006b",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=UpdateRowRecord(slot=4, old=None, new=b'', page_id=5, flags=FLAG_HEAP),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "73000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "000028e41c630a00000000000000060000000000000035000000350000000b0200000000"
        "00000000000000000000000005000000000000000000000000000000b2da780904000000"
        "00000000000000",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=SetLinksRecord(
                old_prev=3, old_next=4, new_prev=1, new_next=2, page_id=5, flags=FLAG_SMO
            ),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "78000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "0000a90d6d2a0a0000000000000006000000000000003a0000003a0000000c0100000000"
        "0000000000000000000000000500000000000000000000000000000008ae2e6503000000"
        "040000000100000002000000",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=PageImageRecord(image=bytes(range(16)), page_id=5, object_id=10),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "84000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "0000cec8a4cb0a0000000000000006000000000000004600000046000000080000000000"
        "0000000000000000000000000500000000000000000000000a000000dd65356300000000"
        "0000000010000000000102030405060708090a0b0c0d0e0f",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=DeformatPageRecord(page_type=4, index_id=1, level=2, page_id=5, object_id=10),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "6c000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "000001a78ad20a0000000000000006000000000000002e0000002e0000000f0000000000"
        "0000000000000000000000000500000000000000000000000a00000019e8b0d304010002",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=DeallocPageRecord(target_page=9, clear_ever=True, page_id=1),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "6d000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "0000d819031b0a0000000000000006000000000000002f0000002f0000000e0000000000"
        "0000000000000000000000000100000000000000000000000000000026d72f5c09000000"
        "01",
    ),
    (
        ClrRecord(
            compensated_lsn=10,
            undo_next_lsn=6,
            comp=AllocPageRecord(target_page=9, was_ever_allocated=True, page_id=1),
            page_id=5,
            txn_id=3,
            prev_txn_lsn=10,
            prev_page_lsn=10,
            object_id=10,
        ),
        "6d000000100003000000000000000a00000000000000050000000a000000000000000a00"
        "0000c20662680a0000000000000006000000000000002f0000002f0000000d0000000000"
        "000000000000000000000000010000000000000000000000000000002bcc1b9509000000"
        "01",
    ),
]

HEADER_FIELDS = ("lsn", "flags", "txn_id", "prev_txn_lsn", "page_id", "prev_page_lsn", "object_id")


def fields_of(rec) -> dict:
    """Every header and body field of ``rec``, nested records expanded."""
    values = {"type": type(rec).__name__}
    for name in HEADER_FIELDS + tuple(field[0] for field in rec.FIELDS):
        value = getattr(rec, name)
        values[name] = fields_of(value) if isinstance(value, LogRecord) else value
    return values


def one_per_type() -> list:
    """(record, wire bytes) for the first golden record of each type."""
    first = {}
    for rec, hexed in GOLDEN:
        first.setdefault(rec.TYPE, (rec, bytes.fromhex(hexed)))
    return list(first.values())


def with_valid_crc(blob: bytes) -> bytes:
    """``blob`` re-stamped so its CRC field matches its (doctored) bytes."""
    crc = crc32_zeroing(memoryview(blob), 0, len(blob), HEADER_SIZE - 4)
    return blob[: HEADER_SIZE - 4] + crc.to_bytes(4, "little") + blob[HEADER_SIZE:]


class TestGoldenBytes:
    def test_fixture_covers_the_format(self):
        assert {rec.TYPE for rec, _ in GOLDEN} == set(RecordType)
        comps = {type(rec.comp) for rec, _ in GOLDEN if isinstance(rec, ClrRecord)}
        assert comps == {
            DeleteRowRecord, InsertRowRecord, UpdateRowRecord, SetLinksRecord,
            PageImageRecord, DeformatPageRecord, DeallocPageRecord, AllocPageRecord,
        }
        for kind in (DeleteRowRecord, UpdateRowRecord):  # optional blobs both ways
            blobs = [getattr(rec, kind.FIELDS[1][0]) for rec, _ in GOLDEN if type(rec) is kind]
            assert None in blobs and any(blob is not None for blob in blobs)

    @pytest.mark.parametrize("rec, hexed", GOLDEN, ids=lambda v: type(v).__name__)
    def test_same_bytes_and_same_fields(self, rec, hexed):
        assert rec.serialize().hex() == hexed
        decoded, end = decode_record(bytes.fromhex(hexed), 0)
        assert end == len(hexed) // 2
        assert fields_of(decoded) == fields_of(rec)


class TestSafetyContracts:
    """Decoding is where a torn tail, a rotted block or a foreign byte
    stream is caught: every damage must surface as LogRecordDecodeError."""

    @pytest.mark.parametrize("rec, blob", one_per_type(), ids=lambda v: type(v).__name__)
    def test_any_flipped_byte_is_rejected(self, rec, blob):
        for i in range(len(blob)):
            damaged = bytearray(blob)
            damaged[i] ^= 0xFF
            with pytest.raises(LogRecordDecodeError):
                decode_record(damaged, 0)

    @pytest.mark.parametrize("rec, blob", one_per_type(), ids=lambda v: type(v).__name__)
    def test_every_proper_prefix_is_rejected(self, rec, blob):
        for cut in range(len(blob)):
            with pytest.raises(LogRecordDecodeError):
                decode_record(blob[:cut], 0)

    @pytest.mark.parametrize("rec, blob", one_per_type(), ids=lambda v: type(v).__name__)
    def test_unknown_type_with_valid_crc_is_rejected(self, rec, blob):
        foreign = with_valid_crc(blob[:4] + b"\x63" + blob[5:])
        with pytest.raises(LogRecordDecodeError, match="unknown record type 99"):
            decode_record(foreign, 0)

    def test_body_must_fill_the_record_exactly(self):
        """A valid CRC over a body shorter or longer than its type's layout
        (only a foreign writer could produce one) is not silently accepted."""
        blob = InsertRowRecord(slot=1, row=b"row", key_bytes=b"key", page_id=5).serialize()
        for doctored in (blob + b"\0", blob[:-1], blob[: HEADER_SIZE + 1]):
            total = len(doctored).to_bytes(4, "little")
            with pytest.raises(LogRecordDecodeError, match="does not fill"):
                decode_record(with_valid_crc(total + doctored[4:]), 0)

    def test_span_and_header_readers_state_one_header_rule(self):
        """The span loop runs the header rule inline; for every way a
        header can break it must raise what the header-only readers do."""
        blob = InsertRowRecord(slot=1, row=b"row", key_bytes=b"key", page_id=5).serialize()
        stream = blob * 2
        damaged = [stream[:cut] for cut in range(len(blob) + 1, len(stream))]  # torn second record
        for claim in (0, 1, HEADER_SIZE - 1, len(stream) + 1, 2**32 - 1):  # lying first record
            damaged.append(claim.to_bytes(4, "little") + stream[4:])
        for data in damaged:
            with pytest.raises(LogRecordDecodeError) as from_headers:
                list(walk_headers(data))
            for build in ({}, {"types": frozenset()}, {"raw": frozenset()}):
                out = []
                with pytest.raises(LogRecordDecodeError) as from_span:
                    decode_span(data, 0, len(data), out, **build)
                assert str(from_span.value) == str(from_headers.value)
                assert len(out) == ("types" not in build and data[:4] == blob[:4])

    def test_nested_clr_body_is_crc_checked(self):
        clr, _ = next((rec, h) for rec, h in GOLDEN if isinstance(rec, ClrRecord))
        blob = clr.serialize()
        damaged = with_valid_crc(blob[:-1] + bytes([blob[-1] ^ 0xFF]))  # outer CRC holds
        with pytest.raises(LogRecordDecodeError, match="CRC mismatch"):
            decode_record(damaged, 0)

    def test_failed_decode_leaves_the_log_buffer_resizable(self):
        """The decoder reads through a memoryview; a held exception must
        not keep the log's bytearray exported (appends would fail)."""
        clr, _ = next((rec, h) for rec, h in GOLDEN if isinstance(rec, ClrRecord))
        plain = InsertRowRecord(row=b"abc").serialize()
        nested = clr.serialize()
        for damaged in (
            plain[:-1] + b"\xff",  # fails the outer CRC
            with_valid_crc(nested[:-1] + bytes([nested[-1] ^ 0xFF])),  # fails inside comp
        ):
            log = bytearray(damaged)
            with pytest.raises(LogRecordDecodeError) as held:
                decode_record(log, 0)
            log += b"the next append"
            assert held.value is not None


# ---------------------------------------------------------------------------
# Property: every record type round-trips through bytes.
# ---------------------------------------------------------------------------

U64S = st.integers(min_value=0, max_value=2**64 - 1)
KIND_STRATEGIES = {
    U8: st.integers(min_value=0, max_value=2**8 - 1),
    U16: st.integers(min_value=0, max_value=2**16 - 1),
    U32: st.integers(min_value=0, max_value=2**32 - 1),
    U64: U64S,
    F64: st.floats(allow_nan=False),
    BOOL: st.booleans(),
    BLOB: st.binary(max_size=100),
    OPT_BLOB: st.none() | st.binary(max_size=100),
    PAIRS: st.lists(st.tuples(U64S, U64S), max_size=5).map(tuple),
}
HEADER_STRATEGIES = {
    "flags": KIND_STRATEGIES[U8],
    "txn_id": U64S,
    "prev_txn_lsn": U64S,
    "page_id": KIND_STRATEGIES[U32],
    "prev_page_lsn": U64S,
    "object_id": KIND_STRATEGIES[U32],
}
RECORD_CLASSES = sorted({type(rec) for rec, _ in GOLDEN}, key=lambda cls: cls.TYPE)


def records_of(cls):
    """Strategy for ``cls`` instances; a nested record is any non-CLR type."""
    fields = dict(HEADER_STRATEGIES)
    for name, kind, _default in cls.FIELDS:
        if kind is RECORD:
            leaves = [leaf for leaf in RECORD_CLASSES if leaf is not cls]
            fields[name] = st.sampled_from(leaves).flatmap(records_of)
        else:
            fields[name] = KIND_STRATEGIES[kind]
    return st.builds(cls, **fields)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_spec_roundtrips_property(cls, data):
    rec = data.draw(records_of(cls))
    blob = rec.serialize()
    decoded, end = decode_record(b"\xee" * 3 + blob, 3, lsn=77)
    assert end == 3 + len(blob)
    assert fields_of(decoded) == {**fields_of(rec), "lsn": 77}
    assert decoded.serialize() == blob


def test_docs_tabulate_every_spec():
    """docs/wal-format.md carries one table per record type, read off the
    specs: type number, and (field, kind, default) in wire order."""
    text = (Path(__file__).parent.parent / "docs" / "wal-format.md").read_text()
    documented = {}
    for section in re.split(r"^### ", text, flags=re.M)[1:]:
        number, name = re.match(r"(\d+) · `(\w+)`\n", section).groups()
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(.*)` \|$", section.split("\n## ")[0], re.M)
        documented[name] = (int(number), rows)
    kinds = "U8 U16 U32 U64 F64 BOOL BLOB OPT_BLOB PAIRS RECORD".split()
    kind_names = {getattr(records, name): name for name in kinds}
    assert documented == {
        cls.__name__: (
            int(cls.TYPE),
            [(name, kind_names[kind], repr(default)) for name, kind, default in cls.FIELDS],
        )
        for cls in RECORD_CLASSES
    }
