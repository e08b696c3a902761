"""Slotted page unit and property tests."""

from __future__ import annotations

import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageFullError, StorageError
from repro.storage.page import (
    HEADER_FIELDS,
    HEADER_SIZE,
    NULL_PAGE,
    PAGE_MAGIC,
    Page,
    PageType,
    alloc_bitmap_geometry,
    ever_bit_offset,
)

PAGE_SIZE = 1024


def fresh_page(page_id: int = 7, page_type: PageType = PageType.BTREE) -> Page:
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, page_type, object_id=42, index_id=1, level=0)
    return page


class TestFormat:
    def test_unformatted_bytes_are_not_a_page(self):
        assert not Page(bytearray(PAGE_SIZE)).is_formatted()

    def test_format_sets_identity(self):
        page = fresh_page()
        assert page.is_formatted()
        assert page.page_id == 7
        assert page.page_type is PageType.BTREE
        assert page.object_id == 42
        assert page.index_id == 1
        assert page.level == 0
        assert page.slot_count == 0
        assert page.page_lsn == 0
        assert page.prev_page == NULL_PAGE
        assert page.next_page == NULL_PAGE

    def test_format_erases_prior_content(self):
        page = fresh_page()
        page.insert_record(0, b"hello")
        page.format(8, PageType.HEAP)
        assert page.slot_count == 0
        assert page.page_id == 8

    def test_deformat_zeroes(self):
        page = fresh_page()
        page.insert_record(0, b"data")
        page.deformat()
        assert not page.is_formatted()
        assert bytes(page.data) == bytes(PAGE_SIZE)

    def test_restore_replaces_content(self):
        page = fresh_page()
        page.insert_record(0, b"one")
        image = page.clone_bytes()
        page.insert_record(1, b"two")
        page.restore(image)
        assert page.slot_count == 1
        assert page.record(0) == b"one"

    def test_restore_size_mismatch(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.restore(b"short")

    def test_header_fields_settable(self):
        page = fresh_page()
        page.page_lsn = 12345
        page.last_image_lsn = 99
        page.prev_page = 3
        page.next_page = 4
        page.mods_since_image = 17
        assert page.page_lsn == 12345
        assert page.last_image_lsn == 99
        assert page.prev_page == 3
        assert page.next_page == 4
        assert page.mods_since_image == 17


class TestRecordOps:
    def test_insert_and_read(self):
        page = fresh_page()
        page.insert_record(0, b"alpha")
        assert page.slot_count == 1
        assert page.record(0) == b"alpha"

    def test_insert_shifts_slots(self):
        page = fresh_page()
        page.insert_record(0, b"b")
        page.insert_record(0, b"a")
        page.insert_record(2, b"c")
        assert list(page.records()) == [b"a", b"b", b"c"]

    def test_insert_middle(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"c")
        page.insert_record(1, b"b")
        assert list(page.records()) == [b"a", b"b", b"c"]

    def test_insert_out_of_range(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.insert_record(1, b"x")

    def test_delete_removes_payload(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"b")
        assert page.record(0) == b"a"
        assert page.delete_record(0) is None
        assert list(page.records()) == [b"b"]

    def test_delete_last(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.delete_record(0)
        assert page.slot_count == 0

    def test_update_same_size_in_place(self):
        page = fresh_page()
        page.insert_record(0, b"aaaa")
        assert page.record(0) == b"aaaa"
        assert page.update_record(0, b"bbbb") is None
        assert page.record(0) == b"bbbb"

    def test_update_shrink(self):
        page = fresh_page()
        page.insert_record(0, b"aaaaaaaa")
        page.update_record(0, b"b")
        assert page.record(0) == b"b"

    def test_update_grow_relocates(self):
        page = fresh_page()
        page.insert_record(0, b"a")
        page.insert_record(1, b"z")
        page.update_record(0, b"a" * 100)
        assert page.record(0) == b"a" * 100
        assert page.record(1) == b"z"

    def test_insert_full_page_raises(self):
        page = fresh_page()
        payload = b"x" * page.max_payload()
        page.insert_record(0, payload)
        with pytest.raises(PageFullError):
            page.insert_record(1, b"y")

    def test_compaction_reclaims_garbage(self):
        page = fresh_page()
        chunk = b"c" * 100
        count = 0
        while page.has_room_for(len(chunk)):
            page.insert_record(page.slot_count, chunk)
            count += 1
        # Free half, then a big insert must succeed via compaction.
        for slot in range(count - 1, -1, -2):
            page.delete_record(slot)
        big = b"B" * 150
        assert page.has_room_for(len(big))
        page.insert_record(0, big)
        assert page.record(0) == big

    def test_total_free_counts_garbage(self):
        page = fresh_page()
        page.insert_record(0, b"d" * 200)
        free_before = page.total_free()
        page.delete_record(0)
        assert page.total_free() == free_before + 200 + 2 + 2

    def test_max_payload_fits_exactly(self):
        page = fresh_page()
        page.insert_record(0, b"m" * page.max_payload())
        assert page.contiguous_free() == 0


class TestBodyBits:
    def test_set_get_roundtrip(self):
        page = fresh_page(page_type=PageType.ALLOC_MAP)
        page.set_body_bit(0, True)
        page.set_body_bit(77, True)
        assert page.get_body_bit(0)
        assert page.get_body_bit(77)
        assert not page.get_body_bit(1)
        page.set_body_bit(77, False)
        assert not page.get_body_bit(77)

    def test_bit_out_of_range(self):
        page = fresh_page()
        with pytest.raises(StorageError):
            page.get_body_bit(PAGE_SIZE * 8)

    def test_geometry(self):
        per_map = alloc_bitmap_geometry(PAGE_SIZE)
        assert per_map == (PAGE_SIZE - HEADER_SIZE) * 8 // 2
        assert ever_bit_offset(PAGE_SIZE) == per_map


# ---------------------------------------------------------------------------
# Property tests: the page behaves like a list of payloads.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.integers(min_value=0, max_value=30),
        st.binary(min_size=0, max_size=40),
    ),
    max_size=60,
)


class ReferencePage:
    """A straight port of the page operations as they stood before the
    per-field header plans (commit 318c06a): every header access unpacks
    all 18 fields, every slot access goes through ``_slot_offset``. Kept
    as the oracle the real :class:`Page` must match byte for byte."""

    _HEADER = struct.Struct("<HBBIQQIHBBIIHHHHI4s")
    _U16 = struct.Struct("<H")

    def __init__(self, data: bytearray) -> None:
        self.data = data

    def _get(self, index: int):
        return self._HEADER.unpack_from(self.data, 0)[index]

    def _set(self, index: int, value) -> None:
        fields = list(self._HEADER.unpack_from(self.data, 0))
        fields[index] = value
        self._HEADER.pack_into(self.data, 0, *fields)

    slot_count = property(lambda self: self._get(12))
    free_lower = property(lambda self: self._get(13))
    free_upper = property(lambda self: self._get(14))

    def _slot_pos(self, slot: int) -> int:
        return len(self.data) - 2 * (slot + 1)

    def _slot_offset(self, slot: int) -> int:
        return self._U16.unpack_from(self.data, self._slot_pos(slot))[0]

    def _set_slot_offset(self, slot: int, offset: int) -> None:
        self._U16.pack_into(self.data, self._slot_pos(slot), offset)

    def contiguous_free(self) -> int:
        return self.free_upper - self.free_lower

    def live_bytes(self) -> int:
        total = 0
        for slot in range(self.slot_count):
            total += 2 + self._U16.unpack_from(self.data, self._slot_offset(slot))[0]
        return total

    def total_free(self) -> int:
        return len(self.data) - HEADER_SIZE - 2 * self.slot_count - self.live_bytes()

    def has_room_for(self, payload_len: int) -> bool:
        return 2 + payload_len + 2 <= self.total_free()

    def record(self, slot: int) -> bytes:
        offset = self._slot_offset(slot)
        (length,) = self._U16.unpack_from(self.data, offset)
        return bytes(self.data[offset + 2 : offset + 2 + length])

    def _write(self, offset: int, payload: bytes) -> None:
        self._U16.pack_into(self.data, offset, len(payload))
        self.data[offset + 2 : offset + 2 + len(payload)] = payload

    def insert_record(self, slot: int, payload: bytes) -> None:
        if 2 + len(payload) + 2 > self.contiguous_free():
            self.compact()
        offset = self.free_lower
        self._write(offset, payload)
        count = self.slot_count
        if slot < count:
            src_lo = self._slot_pos(count - 1)
            src_hi = self._slot_pos(slot) + 2
            self.data[src_lo - 2 : src_hi - 2] = self.data[src_lo:src_hi]
        self._set_slot_offset(slot, offset)
        self._set(12, count + 1)
        self._set(13, offset + 2 + len(payload))
        self._set(14, self._slot_pos(count))

    def delete_record(self, slot: int) -> bytes:
        payload = self.record(slot)
        count = self.slot_count
        if slot < count - 1:
            src_lo = self._slot_pos(count - 1)
            src_hi = self._slot_pos(slot)
            self.data[src_lo + 2 : src_hi + 2] = self.data[src_lo:src_hi]
        self._set_slot_offset(count - 1, 0)
        self._set(12, count - 1)
        self._set(14, self._slot_pos(count - 2) if count > 1 else len(self.data))
        return payload

    def update_record(self, slot: int, payload: bytes) -> bytes:
        old = self.record(slot)
        if len(payload) <= len(old):
            self._write(self._slot_offset(slot), payload)
            return old
        if 2 + len(payload) > self.contiguous_free():
            self._set_slot_offset(slot, 0)
            self.compact(skip_vacant=True)
        new_offset = self.free_lower
        self._write(new_offset, payload)
        self._set_slot_offset(slot, new_offset)
        self._set(13, new_offset + 2 + len(payload))
        return old

    def compact(self, skip_vacant: bool = False) -> None:
        live = []
        for slot in range(self.slot_count):
            offset = self._slot_offset(slot)
            if offset == 0:
                assert skip_vacant
                continue
            (length,) = self._U16.unpack_from(self.data, offset)
            live.append((slot, bytes(self.data[offset + 2 : offset + 2 + length])))
        write_at = HEADER_SIZE
        for slot, payload in live:
            self._write(write_at, payload)
            self._set_slot_offset(slot, write_at)
            write_at += 2 + len(payload)
        self._set(13, write_at)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_page_matches_list_model(ops):
    """Random insert/delete/update sequences match a plain list model, and
    leave the same bytes as the reference operations after every step."""
    page = fresh_page()
    reference = ReferencePage(bytearray(page.data))
    model: list[bytes] = []
    for op, pos, payload in ops:
        if op == "insert":
            slot = min(pos, len(model))
            assert page.has_room_for(len(payload)) == reference.has_room_for(len(payload))
            if page.has_room_for(len(payload)):
                page.insert_record(slot, payload)
                reference.insert_record(slot, payload)
                model.insert(slot, payload)
        elif op == "delete" and model:
            slot = pos % len(model)
            assert page.record(slot) == model.pop(slot)
            page.delete_record(slot)
            reference.delete_record(slot)
        elif op == "update" and model:
            slot = pos % len(model)
            growth = len(payload) - len(model[slot])
            if growth <= 0 or page.total_free() >= growth:
                page.update_record(slot, payload)
                reference.update_record(slot, payload)
                model[slot] = payload
        assert page.data == reference.data
        assert page.live_bytes() == reference.live_bytes()
        assert page.total_free() == reference.total_free()
    assert list(page.records()) == model
    assert page.slot_count == len(model)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=20))
def test_clone_restore_roundtrip(payloads):
    page = fresh_page()
    for index, payload in enumerate(payloads):
        if page.has_room_for(len(payload)):
            page.insert_record(index if index <= page.slot_count else page.slot_count, payload)
    image = page.clone_bytes()
    survived = list(page.records())
    page.insert_record(0, b"junk") if page.has_room_for(4) else None
    page.restore(image)
    assert list(page.records()) == survived


# ---------------------------------------------------------------------------
# Golden page images: ``data.hex()`` after each operation script, produced
# by the ``Page`` of commit 318c06a (all-18-field ``_get``/``_set`` header
# access, per-slot ``_slot_offset`` chains) before the per-field header
# plans replaced it. The page format is frozen: a change that moves one
# byte of these is a format change, not a refactor.
# ---------------------------------------------------------------------------

GOLDEN_SIZE = 256
_ENTRY = struct.Struct("<IB")
#: The header layout, spelled out independently of ``page.py``.
_GOLDEN_HEADER = struct.Struct("<HBBIQQIHBBIIHHHHI4s")
_GOLDEN_HEADER_NAMES = (
    "magic", "page_type", "flags", "page_id", "page_lsn", "last_image_lsn",
    "object_id", "index_id", "level", "pad", "prev_page", "next_page",
    "slot_count", "free_lower", "free_upper", "mods_since_image", "checksum", "reserved",
)


def entry(child: int, key: bytes | None = None) -> bytes:
    """An interior B-tree entry payload (``access.btree.encode_entry``)."""
    return _ENTRY.pack(child, 0) if key is None else _ENTRY.pack(child, 1) + key


def run_script(script) -> Page:
    page = Page(bytearray(GOLDEN_SIZE))
    for op, *args in script:
        if op == "format":
            page_id, page_type, kwargs = args
            page.format(page_id, page_type, **kwargs)
        elif op == "set":
            setattr(page, *args)
        elif op == "bit":
            page.set_body_bit(*args)
        else:
            getattr(page, f"{op}_record")(*args)
    return page


SCRIPTS = {
    "fresh": [("format", 7, PageType.BTREE, dict(object_id=42, index_id=1, level=0, prev_page=3, next_page=9))],
    "inserts_front_middle_back": [
        ("format", 8, PageType.BTREE, dict(object_id=42)),
        ("insert", 0, b"mm"), ("insert", 0, b"aaaa"), ("insert", 2, b"zzzzzz"), ("insert", 1, b"c"),
        ("insert", 4, b""),
    ],
    "delete_leaves_garbage": [
        ("format", 9, PageType.HEAP, dict(object_id=5, prev_page=8)),
        ("insert", 0, b"one"), ("insert", 1, b"two-two"), ("insert", 2, b"three"), ("insert", 3, b"four"),
        ("delete", 1), ("delete", 2), ("delete", 0),
        ("set", "page_lsn", 0x0102030405060708), ("set", "next_page", 77),
    ],
    "update_shrink_then_grow": [
        ("format", 10, PageType.BTREE, dict(object_id=6)),
        ("insert", 0, b"aaaaaaaa"), ("insert", 1, b"bbbb"), ("insert", 2, b"cc"),
        ("update", 0, b"AA"), ("update", 1, b"BBBB"), ("update", 2, b"C" * 20),
        ("set", "mods_since_image", 3), ("set", "last_image_lsn", 4096),
    ],
    "update_compacts_then_relocates": [
        ("format", 11, PageType.BTREE, dict(object_id=6)),
        ("insert", 0, b"a" * 60), ("insert", 1, b"b" * 60), ("insert", 2, b"c" * 40), ("insert", 3, b"d" * 10),
        ("delete", 1),
        ("update", 1, b"C" * 90),
    ],
    "insert_compacts_first": [
        ("format", 12, PageType.HEAP, dict(object_id=7)),
        ("insert", 0, b"x" * 50), ("insert", 1, b"y" * 50), ("insert", 2, b"z" * 50), ("insert", 3, b"w" * 20),
        ("delete", 0), ("delete", 1),
        ("insert", 1, b"N" * 80),
        ("set", "flags", 0x81), ("set", "checksum", 0xDEADBEEF),
    ],
    "interior": [
        ("format", 13, PageType.BTREE, dict(object_id=42, level=2)),
        ("insert", 0, entry(100)), ("insert", 1, entry(102, struct.pack("<q", 500))),
        ("insert", 1, entry(101, struct.pack("<qH", 250, 3) + b"abc")),
        ("set", "page_lsn", 999), ("set", "prev_page", 1), ("set", "next_page", 2),
    ],
    "alloc_map": [
        ("format", 1, PageType.ALLOC_MAP, {}),
        ("bit", 0, True), ("bit", 1, True), ("bit", 9, True), ("bit", 800, True), ("bit", 801, True),
        ("bit", 1, False), ("bit", 1599, True),
        ("set", "page_lsn", 12345),
    ],
}

GOLDEN = {
    "fresh": (
        "1ad8040007000000000000000000000000000000000000002a00000001000000030000000900"
        "0000000038000001000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000000"
    ),
    "inserts_front_middle_back": (
        "1ad8040008000000000000000000000000000000000000002a00000000000000000000000000"
        "000005004f00f6000000000000000000000002006d6d04006161616106007a7a7a7a7a7a0100"
        "6300000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000004d00420038004a003c00"
    ),
    "delete_leaves_garbage": (
        "1ad8030009000000080706050403020100000000000000000500000000000000080000004d00"
        "000001005300fe000000000000000000000003006f6e65070074776f2d74776f050074687265"
        "650400666f757200000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000004600"
    ),
    "update_shrink_then_grow": (
        "1ad804000a000000000000000000000000100000000000000600000000000000000000000000"
        "000003006200fa00030000000000000000000200414161616161616104004242424202006363"
        "1400434343434343434343434343434343434343434300000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000004c0042003800"
    ),
    "update_compacts_then_relocates": (
        "1ad804000b000000000000000000000000000000000000000600000000000000000000000000"
        "00000300de00fa00000000000000000000003c00616161616161616161616161616161616161"
        "6161616161616161616161616161616161616161616161616161616161616161616161616161"
        "616161610a00646464646464646464645a004343434343434343434343434343434343434343"
        "4343434343434343434343434343434343434343434343434343434343434343434343434343"
        "43434343434343434343434343434343434343434343434343434343434343430a0064646464"
        "64646464646400000000000000000000000000000000760082003800"
    ),
    "insert_compacts_first": (
        "1ad803810c000000000000000000000000000000000000000700000000000000000000000000"
        "00000300d400fa000000efbeadde000000003200797979797979797979797979797979797979"
        "7979797979797979797979797979797979797979797979797979797979797979140077777777"
        "7777777777777777777777777777777750004e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e"
        "4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e"
        "4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e4e14007777777777777777777777777777"
        "777777777777000000000000000000000000000000006c0082003800"
    ),
    "interior": (
        "1ad804000d000000e70300000000000000000000000000002a00000000000200010000000200"
        "000003006200fa0000000000000000000000050064000000000d006600000001f40100000000"
        "000012006500000001fa00000000000000030061626300000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "000000000000000000000000000000000000000000003f004e003800"
    ),
    "alloc_map": (
        "1ad8020001000000393000000000000000000000000000000000000000000000000000000000"
        "0000000038000001000000000000000000000102000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "0000000003000000000000000000000000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000080"
    ),
}


class TestGoldenPages:
    def test_fixtures_cover_the_operations(self):
        assert SCRIPTS.keys() == GOLDEN.keys()
        ops = {op for script in SCRIPTS.values() for op, *_ in script}
        assert ops == {"format", "insert", "delete", "update", "set", "bit"}
        types = {args[1] for script in SCRIPTS.values() for op, *args in script if op == "format"}
        assert types == {PageType.BTREE, PageType.HEAP, PageType.ALLOC_MAP}

    @pytest.mark.parametrize("name", GOLDEN)
    def test_same_bytes_and_same_header(self, name):
        page = run_script(SCRIPTS[name])
        assert page.data.hex() == GOLDEN[name]
        header = dict(zip(_GOLDEN_HEADER_NAMES, _GOLDEN_HEADER.unpack_from(page.data), strict=True))
        assert header["magic"] == PAGE_MAGIC and page.is_formatted()
        for field in set(header) - {"pad", "reserved"}:
            assert getattr(page, field) == header[field], field

    def test_compaction_branches_are_exercised(self):
        """The two scripts named for compaction do reach it: their record
        areas end up dense from the header boundary."""
        for name in ("update_compacts_then_relocates", "insert_compacts_first"):
            page = run_script(SCRIPTS[name])
            assert page.free_lower - HEADER_SIZE == page.live_bytes(), name

    def test_interior_entries_read_back(self):
        page = run_script(SCRIPTS["interior"])
        assert [_ENTRY.unpack_from(payload)[0] for payload in page.records()] == [100, 101, 102]
        assert page.records(1, 2) == [page.record(1)]


class TestHeaderPlans:
    def test_field_table_tiles_the_header(self):
        assert tuple(HEADER_FIELDS) == _GOLDEN_HEADER_NAMES
        offset = 0
        for plan, at in HEADER_FIELDS.values():
            assert at == offset
            offset += plan.size
        assert offset == HEADER_SIZE == _GOLDEN_HEADER.size

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flags", 0xFF), ("page_lsn", 2**64 - 1), ("last_image_lsn", 2**63),
            ("prev_page", 2**32 - 1), ("next_page", 1), ("mods_since_image", 2**16 - 1),
            ("checksum", 2**32 - 1),
        ],
    )
    def test_setting_one_field_leaves_the_rest(self, field, value):
        page = run_script(SCRIPTS["update_shrink_then_grow"])
        before = bytes(page.data)
        setattr(page, field, value)
        assert getattr(page, field) == value
        plan, at = HEADER_FIELDS[field]
        assert page.data[:at] == before[:at]
        assert page.data[at + plan.size :] == before[at + plan.size :]

    def test_doc_table_matches_the_layout(self):
        """``docs/storage-format.md`` lists the header as it is."""
        doc = (Path(__file__).parent.parent / "docs" / "storage-format.md").read_text()
        rows = re.findall(r"^\| *(\d+) *\| *(\d+) *\| *`(\w+)` *\| *`([^`]+)` *\|", doc, re.M)
        assert [(int(at), int(size), name, code) for at, size, name, code in rows] == [
            (at, plan.size, name, plan.format[1:]) for name, (plan, at) in HEADER_FIELDS.items()
        ]
