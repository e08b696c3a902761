"""Buffer pool tests: pinning, LRU eviction, WAL discipline."""

from __future__ import annotations

import pytest

from repro.config import SimEnv
from repro.errors import BufferPoolError
from repro.storage.buffer import BufferPool
from repro.storage.datafile import FileManager, MemoryDataFile
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import BeginRecord

PAGE_SIZE = 1024


def make_pool(capacity=4, with_log=True, profile=None):
    env = SimEnv(data_profile=profile) if profile else SimEnv.for_tests()
    fm = FileManager(MemoryDataFile(PAGE_SIZE), env.data_device, env.stats)
    log = LogManager(env) if with_log else None
    return BufferPool(fm, capacity, env.stats, log), fm, log, env


def write_formatted(fm, page_id):
    page = Page(bytearray(PAGE_SIZE))
    page.format(page_id, PageType.HEAP, object_id=1)
    page.insert_record(0, f"page-{page_id}".encode())
    fm.write_page(page_id, bytes(page.data))


class TestFetch:
    def test_miss_reads_from_file(self):
        pool, fm, _log, env = make_pool()
        write_formatted(fm, 3)
        with pool.fetch(3) as guard:
            assert guard.page.record(0) == b"page-3"
        assert env.stats.buffer_misses == 1

    def test_hit_skips_file(self):
        pool, fm, _log, env = make_pool()
        write_formatted(fm, 3)
        with pool.fetch(3):
            pass
        reads = env.stats.page_reads
        with pool.fetch(3):
            pass
        assert env.stats.page_reads == reads
        assert env.stats.buffer_hits == 1

    def test_create_skips_read(self):
        pool, _fm, _log, env = make_pool()
        with pool.fetch(9, create=True) as guard:
            assert not guard.page.is_formatted()
        assert env.stats.page_reads == 0

    def test_nested_pins(self):
        pool, _fm, _log, _env = make_pool()
        g1 = pool.fetch(0, create=True)
        g2 = pool.fetch(0)
        assert g1.frame is g2.frame
        assert g1.frame.pin_count == 2
        g2.unpin()
        g1.unpin()
        assert g1.frame.pin_count == 0

    def test_double_unpin_rejected(self):
        pool, _fm, _log, _env = make_pool()
        guard = pool.fetch(0, create=True)
        guard.unpin()
        with pytest.raises(BufferPoolError):
            guard.unpin()

    def test_peek_no_io(self):
        pool, fm, _log, env = make_pool()
        write_formatted(fm, 2)
        assert pool.peek(2) is None
        with pool.fetch(2):
            pass
        assert pool.peek(2) is not None
        assert env.stats.page_reads == 1


class TestEviction:
    def test_lru_eviction(self):
        pool, fm, _log, env = make_pool(capacity=2)
        for pid in range(3):
            write_formatted(fm, pid)
            with pool.fetch(pid):
                pass
        assert len(pool) == 2
        assert pool.peek(0) is None  # oldest evicted
        assert env.stats.buffer_evictions == 1

    def test_dirty_eviction_writes_back(self):
        pool, fm, _log, _env = make_pool(capacity=2)
        with pool.fetch(0, create=True) as guard:
            guard.page.format(0, PageType.HEAP)
            guard.page.insert_record(0, b"dirty")
            guard.mark_dirty()
        with pool.fetch(1, create=True):
            pass
        with pool.fetch(2, create=True):
            pass  # evicts page 0
        assert Page(fm.read_page(0)).record(0) == b"dirty"

    def test_pinned_frames_survive(self):
        pool, _fm, _log, _env = make_pool(capacity=2)
        guard = pool.fetch(0, create=True)
        with pool.fetch(1, create=True):
            pass
        with pool.fetch(2, create=True):
            pass  # must evict 1, not pinned 0
        assert pool.peek(0) is not None
        guard.unpin()

    def test_all_pinned_raises(self):
        pool, _fm, _log, _env = make_pool(capacity=2)
        g0 = pool.fetch(0, create=True)
        g1 = pool.fetch(1, create=True)
        with pytest.raises(BufferPoolError):
            pool.fetch(2, create=True)
        g0.unpin()
        g1.unpin()

    def test_wal_rule_on_eviction(self):
        """Dirty eviction forces the log first (WAL discipline)."""
        pool, _fm, log, _env = make_pool(capacity=1)
        lsn = log.append(BeginRecord(txn_id=1))
        with pool.fetch(0, create=True) as guard:
            guard.page.format(0, PageType.HEAP)
            guard.page.page_lsn = lsn
            guard.mark_dirty()
        with pool.fetch(1, create=True):
            pass  # evicts dirty page 0
        assert log.durable_lsn > lsn


class TestFlush:
    def test_flush_all_clears_dirty(self):
        pool, fm, _log, _env = make_pool(capacity=8)
        for pid in range(3):
            with pool.fetch(pid, create=True) as guard:
                guard.page.format(pid, PageType.HEAP)
                guard.page.insert_record(0, str(pid).encode())
                guard.mark_dirty()
        assert sorted(pool.dirty_page_ids()) == [0, 1, 2]
        written = pool.flush_all()
        assert written == 3
        assert pool.dirty_page_ids() == []
        assert Page(fm.read_page(1)).record(0) == b"1"

    def test_crash_loses_buffered_state(self):
        pool, fm, _log, _env = make_pool()
        with pool.fetch(0, create=True) as guard:
            guard.page.format(0, PageType.HEAP)
            guard.mark_dirty()
        pool.crash()
        assert len(pool) == 0
        assert not Page(fm.read_page(0)).is_formatted()
