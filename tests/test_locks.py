"""Lock manager tests: modes, conflicts, deadlock detection, resolvers."""

from __future__ import annotations

import pytest

from repro.errors import DeadlockError
from repro.sim.iostats import IoStats
from repro.txn.locks import LockConflictError, LockManager, LockMode
from repro.txn.transaction import Transaction


def txn(tid: int) -> Transaction:
    return Transaction(tid)


class TestBasics:
    def test_exclusive_then_release(self):
        locks = LockManager()
        t1 = txn(1)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        assert locks.lock_count() == 1 and t1.locks == {(5, b"k")}
        locks.release_all(t1)
        assert locks.lock_count() == 0
        assert t1.locks == set()

    def test_shared_compatible(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.SHARED)
        locks.acquire(t2, (5, b"k"), LockMode.SHARED)
        assert locks.lock_count() == 2
        assert t1.locks == t2.locks == {(5, b"k")}

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError) as info:
            locks.acquire(t2, (5, b"k"), LockMode.SHARED)
        assert info.value.holders == {1}

    def test_shared_blocks_exclusive(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, (5, b"k"), LockMode.EXCLUSIVE)

    def test_reentrant(self):
        locks = LockManager()
        t1 = txn(1)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        locks.acquire(t1, (5, b"k"), LockMode.SHARED)
        assert locks.lock_count() == 1

    def test_upgrade_sole_holder(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.SHARED)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, (5, b"k"), LockMode.SHARED)

    def test_upgrade_blocked_by_other_sharer(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.SHARED)
        locks.acquire(t2, (5, b"k"), LockMode.SHARED)
        with pytest.raises(LockConflictError):
            locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)

    def test_different_keys_independent(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"a"), LockMode.EXCLUSIVE)
        locks.acquire(t2, (5, b"b"), LockMode.EXCLUSIVE)
        assert locks.lock_count() == 2

    def test_stats_count_waits(self):
        locks = LockManager()
        stats = IoStats()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, (5, b"k"), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, (5, b"k"), LockMode.EXCLUSIVE, stats)
        assert stats.lock_waits == 1


class TestDeadlock:
    def test_two_party_deadlock_detected(self):
        locks = LockManager()
        stats = IoStats()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, ("a",), LockMode.EXCLUSIVE)
        locks.acquire(t2, ("b",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t1, ("b",), LockMode.EXCLUSIVE, stats)  # t1 waits on t2
        with pytest.raises(DeadlockError):
            locks.acquire(t2, ("a",), LockMode.EXCLUSIVE, stats)  # cycle
        assert stats.deadlocks == 1

    def test_three_party_cycle(self):
        locks = LockManager()
        t1, t2, t3 = txn(1), txn(2), txn(3)
        locks.acquire(t1, ("a",), LockMode.EXCLUSIVE)
        locks.acquire(t2, ("b",), LockMode.EXCLUSIVE)
        locks.acquire(t3, ("c",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t1, ("b",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, ("c",), LockMode.EXCLUSIVE)
        with pytest.raises(DeadlockError):
            locks.acquire(t3, ("a",), LockMode.EXCLUSIVE)

    def test_release_clears_wait_state(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, ("a",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, ("a",), LockMode.EXCLUSIVE)
        locks.release_all(t1)
        locks.acquire(t2, ("a",), LockMode.EXCLUSIVE)  # now succeeds
        # And no stale wait edge produces a phantom deadlock.
        locks.release_all(t2)
        locks.acquire(t1, ("a",), LockMode.EXCLUSIVE)


class TestResolver:
    def test_resolver_can_unblock(self):
        """Models the as-of snapshot path: a conflicting read drives the
        in-flight transaction's undo, which releases its locks."""
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, ("row",), LockMode.EXCLUSIVE)

        def resolver(key, holders):
            assert holders == {1}
            locks.release_all(t1)
            return True

        locks.resolver = resolver
        locks.acquire(t2, ("row",), LockMode.SHARED)
        assert locks.lock_count() == 1 and t2.locks == {("row",)}

    def test_failing_resolver_falls_through(self):
        locks = LockManager()
        t1, t2 = txn(1), txn(2)
        locks.acquire(t1, ("row",), LockMode.EXCLUSIVE)
        locks.resolver = lambda key, holders: False
        with pytest.raises(LockConflictError):
            locks.acquire(t2, ("row",), LockMode.SHARED)
