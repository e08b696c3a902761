"""Checksums, data files, the file manager, and sparse files."""

from __future__ import annotations

import pytest

from repro.errors import PageCorruptionError, StorageError
from repro.sim.clock import SimClock
from repro.sim.device import SAS_10K, ZERO_COST, SimDevice
from repro.sim.iostats import IoStats
from repro.storage.checksum import (
    compute_checksum,
    stamp_checksum,
    verify_and_clear_checksum,
)
from repro.storage.datafile import FileManager, MemoryDataFile
from repro.storage.page import Page, PageType
from repro.storage.sparsefile import SparseFile

PAGE_SIZE = 1024


def formatted_bytes(page_id: int = 3) -> bytearray:
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, PageType.BTREE, object_id=9)
    page.insert_record(0, b"payload")
    return page.data


class TestChecksum:
    def test_stamp_and_verify(self):
        data = formatted_bytes()
        stamp_checksum(data)
        verify_and_clear_checksum(data, 3)  # should not raise
        page = Page(data)
        assert page.checksum == 0  # cleared after verify

    def test_corruption_detected(self):
        data = formatted_bytes()
        stamp_checksum(data)
        data[200] ^= 0xFF
        with pytest.raises(PageCorruptionError):
            verify_and_clear_checksum(data, 3)

    def test_all_zero_page_accepted(self):
        verify_and_clear_checksum(bytearray(PAGE_SIZE), 0)

    def test_checksum_field_excluded_from_computation(self):
        data = formatted_bytes()
        before = compute_checksum(data)
        stamp_checksum(data)
        assert compute_checksum(data) == before


class TestMemoryDataFile:
    def test_unwritten_page_reads_zero(self):
        mem = MemoryDataFile(PAGE_SIZE)
        assert bytes(mem.read_page(5)) == bytes(PAGE_SIZE)

    def test_write_read_roundtrip(self):
        mem = MemoryDataFile(PAGE_SIZE)
        data = formatted_bytes()
        mem.write_page(2, bytes(data))
        assert mem.read_page(2) == data

    def test_page_count_tracks_highest(self):
        mem = MemoryDataFile(PAGE_SIZE)
        mem.write_page(9, bytes(PAGE_SIZE))
        assert mem.page_count == 10

    def test_wrong_size_rejected(self):
        mem = MemoryDataFile(PAGE_SIZE)
        with pytest.raises(StorageError):
            mem.write_page(0, b"short")

    def test_negative_page_rejected(self):
        with pytest.raises(StorageError):
            MemoryDataFile(PAGE_SIZE).read_page(-1)


class TestFileManager:
    def _manager(self, profile=ZERO_COST):
        clock = SimClock()
        stats = IoStats()
        return (
            FileManager(MemoryDataFile(PAGE_SIZE), SimDevice(profile, clock, stats), stats),
            clock,
            stats,
        )

    def test_write_stamps_read_verifies(self):
        fm, _clock, stats = self._manager()
        data = formatted_bytes()
        fm.write_page(3, bytes(data))
        out = fm.read_page(3)
        assert out == data  # checksum cleared back to zero
        assert stats.page_reads == 1
        assert stats.page_writes == 1

    def test_io_charges_clock(self):
        fm, clock, _stats = self._manager(SAS_10K)
        fm.write_page(0, bytes(formatted_bytes(0)))
        fm.read_page(0)
        expected = SAS_10K.rand_write_time(PAGE_SIZE) + SAS_10K.rand_read_time(PAGE_SIZE)
        assert clock.now() == pytest.approx(expected)

    def test_corruption_detected_via_manager(self):
        fm, _clock, _stats = self._manager()
        fm.write_page(1, bytes(formatted_bytes(1)))
        fm.datafile._pages[1] = b"\xde" * PAGE_SIZE
        with pytest.raises(PageCorruptionError):
            fm.read_page(1)

    def test_sequential_batches(self):
        fm, clock, stats = self._manager(SAS_10K)
        pages = {i: bytes(formatted_bytes(i)) for i in range(5)}
        fm.write_sequential(pages)
        t_write = clock.now()
        out = fm.read_sequential(list(pages))
        assert len(out) == 5
        assert stats.restore_write_bytes == 5 * PAGE_SIZE
        assert stats.backup_write_bytes == 0  # a lay-down takes no backup
        assert stats.backup_read_bytes == 5 * PAGE_SIZE
        # One streaming charge, not five random ones.
        assert clock.now() - t_write < 5 * SAS_10K.rand_read_time(PAGE_SIZE)

    def test_raw_read_skips_charges(self):
        fm, clock, stats = self._manager(SAS_10K)
        fm.read_page_raw(7)
        assert clock.now() == 0.0
        assert stats.page_reads == 0


class TestSparseFile:
    def test_miss_raises(self):
        sparse = SparseFile(PAGE_SIZE)
        assert 3 not in sparse
        with pytest.raises(StorageError):
            sparse.read(3)

    def test_write_then_read(self):
        sparse = SparseFile(PAGE_SIZE)
        data = bytes(formatted_bytes())
        sparse.write(3, data)
        assert 3 in sparse
        assert bytes(sparse.read(3)) == data

    def test_space_accounting(self):
        sparse = SparseFile(PAGE_SIZE)
        sparse.write(1, bytes(PAGE_SIZE))
        sparse.write(2, bytes(PAGE_SIZE))
        sparse.write(1, bytes(PAGE_SIZE))  # overwrite: no new space
        assert sparse.page_count == 2
        assert sparse.bytes_used() == 2 * PAGE_SIZE

    def test_wrong_size_rejected(self):
        with pytest.raises(StorageError):
            SparseFile(PAGE_SIZE).write(0, b"nope")

    def test_charges_device(self):
        clock = SimClock()
        stats = IoStats()
        device = SimDevice(SAS_10K, clock, stats)
        sparse = SparseFile(PAGE_SIZE, device, stats)
        sparse.write(0, bytes(PAGE_SIZE))
        sparse.read(0)
        assert stats.sparse_writes == 1
        assert stats.sparse_reads == 1
        assert clock.now() > 0

    def test_page_ids_sorted(self):
        sparse = SparseFile(PAGE_SIZE)
        for pid in (5, 1, 3):
            sparse.write(pid, bytes(PAGE_SIZE))
        assert list(sparse.page_ids()) == [1, 3, 5]

    def test_clear(self):
        sparse = SparseFile(PAGE_SIZE)
        sparse.write(1, bytes(PAGE_SIZE))
        sparse.clear()
        assert sparse.page_count == 0
