"""Lock manager tests: modes, conflicts, deadlock detection, resolvers."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.sim.iostats import IoStats
from repro.txn.locks import LockConflictError, LockManager, LockMode, _Entry
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

    def test_grant_withdraws_the_grantees_wait(self):
        """t2 waits on K (held by t3), t3 on L (held by t4); t4 commits and
        t2 is granted L. The grant withdraws t2's wait, so t3 -> t2 is the
        only edge left and a third transaction's request on L is a plain
        conflict, not a deadlock."""
        locks = LockManager()
        stats = IoStats()
        t1, t2, t3, t4 = txn(1), txn(2), txn(3), txn(4)
        locks.acquire(t3, ("K",), LockMode.EXCLUSIVE)
        locks.acquire(t4, ("L",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t2, ("K",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError):
            locks.acquire(t3, ("L",), LockMode.EXCLUSIVE)
        locks.release_all(t4)
        locks.acquire(t2, ("L",), LockMode.EXCLUSIVE)
        with pytest.raises(LockConflictError) as info:
            locks.acquire(t1, ("L",), LockMode.EXCLUSIVE, stats)
        assert not isinstance(info.value, DeadlockError)
        assert info.value.holders == {2} and stats.deadlocks == 0

    def test_cycle_reachable_from_but_not_through_the_requester(self):
        """The wait-for graph holds t2 -> t3 -> t2 before t1 asks for a key
        t2 holds. No path leads back to t1, yet t1 would wait behind a
        cycle forever: the check reports a deadlock (``find_cycle`` from
        the requester), where a path-back-to-me search would not."""
        locks = LockManager()
        stats = IoStats()
        t1, t2, t3 = txn(1), txn(2), txn(3)
        locks.acquire(t3, ("K",), LockMode.EXCLUSIVE)
        locks.acquire(t2, ("L",), LockMode.EXCLUSIVE)
        # Acquire checks every wait it declares, so it never builds a cycle
        # itself; plant the two waits directly.
        locks._waits[2] = (("K",), LockMode.EXCLUSIVE)
        locks._waits[3] = (("L",), LockMode.EXCLUSIVE)
        with pytest.raises(DeadlockError):
            locks.acquire(t1, ("L",), LockMode.SHARED, stats)
        assert stats.deadlocks == 1 and 1 not in locks._waits


def _reaches_a_cycle(edges: dict[int, set[int]], source: int) -> bool:
    """Brute-force oracle: some node reachable from ``source`` (itself
    included) reaches itself along one or more edges."""
    reach = {node: set(succ) for node, succ in edges.items()}
    changed = True
    while changed:
        changed = False
        for succ in reach.values():
            grown = set().union(succ, *(reach.get(s, ()) for s in succ))
            if grown != succ:
                succ |= grown
                changed = True
    return any(node in reach.get(node, ()) for node in {source} | reach[source])


_TXNS = st.integers(1, 6)
_KEYS = st.sampled_from([("a",), ("b",), ("c",), ("d",)])
_MODES = st.sampled_from(list(LockMode))


@st.composite
def lock_states(draw):
    """A lock table (one X holder or any number of S holders per key),
    declared waits, and one request on a held key."""
    table = {}
    for key in sorted(draw(st.sets(_KEYS, min_size=1, max_size=4))):
        if draw(st.booleans()):
            table[key] = {draw(_TXNS): LockMode.EXCLUSIVE}
        else:
            table[key] = dict.fromkeys(draw(st.sets(_TXNS, min_size=1)), LockMode.SHARED)
    waits = draw(st.dictionaries(_TXNS, st.tuples(_KEYS, _MODES), max_size=6))
    return table, waits, (draw(_TXNS), draw(st.sampled_from(sorted(table))), draw(_MODES))


# t2 <-> t3 wait on each other's keys; t1 asks for the key t2 holds.
_CYCLE_OFF_THE_REQUESTER = (
    {("a",): {2: LockMode.EXCLUSIVE}, ("b",): {3: LockMode.EXCLUSIVE}},
    {2: (("b",), LockMode.EXCLUSIVE), 3: (("a",), LockMode.EXCLUSIVE)},
    (1, ("a",), LockMode.SHARED),
)


@settings(max_examples=300, deadline=None)
@given(lock_states())
@example(_CYCLE_OFF_THE_REQUESTER)
def test_would_deadlock_matches_the_reachable_cycle_oracle(state):
    table, waits, (requester, key, mode) = state
    locks = LockManager()
    for held_key, holders in table.items():
        locks._table[held_key] = _Entry()
        locks._table[held_key].holders.update(holders)
    locks._waits.update(waits)
    blockers = locks._conflicts(locks._table[key], requester, mode)
    assume(blockers)  # acquire asks only on a conflict
    edges: dict[int, set[int]] = {}
    for waiter, (wait_key, _mode) in waits.items():
        holders = table.get(wait_key, {})
        edges.setdefault(waiter, set()).update(h for h in holders if h != waiter)
    edges.setdefault(requester, set()).update(blockers)
    assert locks._would_deadlock(requester, blockers) == _reaches_a_cycle(edges, requester)


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
