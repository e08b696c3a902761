"""Allocation map tests: logged allocation, ever-allocated tracking."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError
from repro.storage.allocation import FIRST_MAP_PAGE_ID, map_page_for


class TestGeometry:
    def test_map_page_for(self, db):
        alloc = db.alloc
        map_pid, local = map_page_for(2, alloc.pages_per_map)
        assert map_pid == FIRST_MAP_PAGE_ID
        assert local == 0

    def test_boot_not_allocatable(self, db):
        with pytest.raises(AllocationError):
            map_page_for(0, db.alloc.pages_per_map)

    def test_map_page_not_allocatable(self, db):
        with pytest.raises(AllocationError):
            map_page_for(FIRST_MAP_PAGE_ID, db.alloc.pages_per_map)


class TestAllocate:
    def test_bootstrap_claimed_catalog_roots(self, db):
        assert db.alloc.is_allocated(2)
        assert db.alloc.is_allocated(3)

    def test_fresh_allocation_not_ever_allocated(self, db):
        with db.transaction() as txn:
            pid, was_ever = db.alloc.allocate(txn)
        assert not was_ever
        assert db.alloc.is_allocated(pid)
        assert db.alloc.was_ever_allocated(pid)

    def test_sequential_allocations_distinct(self, db):
        with db.transaction() as txn:
            pids = [db.alloc.allocate(txn)[0] for _ in range(20)]
        assert len(set(pids)) == 20

    def test_deallocate_frees_keeps_ever(self, db):
        with db.transaction() as txn:
            pid, _ = db.alloc.allocate(txn)
        with db.transaction() as txn:
            db.alloc.deallocate(txn, pid)
        assert not db.alloc.is_allocated(pid)
        assert db.alloc.was_ever_allocated(pid)

    def test_reallocation_reports_ever_allocated(self, db):
        with db.transaction() as txn:
            pid, _ = db.alloc.allocate(txn)
        with db.transaction() as txn:
            db.alloc.deallocate(txn, pid)
        with db.transaction() as txn:
            pid2, was_ever = db.alloc.allocate(txn)
        assert pid2 == pid  # hint makes freed pages reusable
        assert was_ever

    def test_double_deallocate_rejected(self, db):
        with db.transaction() as txn:
            pid, _ = db.alloc.allocate(txn)
        with db.transaction() as txn:
            db.alloc.deallocate(txn, pid)
            with pytest.raises(AllocationError):
                db.alloc.deallocate(txn, pid)

    def test_rollback_releases_pages(self, db):
        txn = db.begin()
        pid, _ = db.alloc.allocate(txn)
        db.rollback(txn)
        assert not db.alloc.is_allocated(pid)
        # A rolled-back first allocation keeps its ever-bit: the page may
        # have held data meanwhile, so its next allocation preformats it
        # and the page chain an as-of read walks stays unbroken.
        assert db.alloc.was_ever_allocated(pid)

    def test_rollback_of_dealloc_restores(self, db):
        with db.transaction() as txn:
            pid, _ = db.alloc.allocate(txn)
        txn = db.begin()
        db.alloc.deallocate(txn, pid)
        db.rollback(txn)
        assert db.alloc.is_allocated(pid)

    def test_allocated_page_ids_includes_infrastructure(self, db):
        pages = db.alloc.allocated_page_ids()
        assert 0 in pages  # boot
        assert FIRST_MAP_PAGE_ID in pages
        assert 2 in pages and 3 in pages


class TestAllocationScale:
    def test_many_allocations_stay_consistent(self, small_db):
        db = small_db
        with db.transaction() as txn:
            pids = [db.alloc.allocate(txn)[0] for _ in range(200)]
        allocated = set(db.alloc.allocated_page_ids())
        for pid in pids:
            assert pid in allocated

    def test_free_reuse_after_mixed_churn(self, db):
        with db.transaction() as txn:
            pids = [db.alloc.allocate(txn)[0] for _ in range(10)]
        with db.transaction() as txn:
            for pid in pids[::2]:
                db.alloc.deallocate(txn, pid)
        with db.transaction() as txn:
            reused = [db.alloc.allocate(txn) for _ in range(5)]
        assert all(was_ever for _pid, was_ever in reused)
        assert {pid for pid, _ in reused} == set(pids[::2])
