"""Lock manager: shared/exclusive locks with wait-for-graph deadlock checks.

Lock keys are hashable tuples — ``(object_id,)`` for object locks,
``(object_id, key_bytes)`` for row locks. Conflicts never park a thread
inside the lock manager; instead:

* if a *resolver* is installed, it is invoked to make progress (as-of
  snapshots use this: a query hitting a lock held by an in-flight
  transaction drives that transaction's background undo to completion,
  modeling the paper's "redo pass reacquires the locks" behavior);
* otherwise the request raises — :class:`DeadlockError` when the wait-for
  graph would contain a cycle reachable from the requester,
  :class:`LockConflictError` otherwise, and the caller (a test
  interleaving transactions, or the engine aborting a victim) decides
  what to do.

The wait-for graph has an edge from each declared waiter to every other
holder of the key it waits on, plus one from the requester to each of its
blockers. It holds a handful of transactions and is built only on the
conflict path, so the cycle check is a plain depth-first search over a
dict; the module imports nothing outside the standard library.

``self.latch`` serializes the lock table and wait map across sessions.
It is deliberately *released* around the resolver callback: the resolver
re-enters snapshot and log code whose latches sit above the lock manager
in the engine's lock order (see ``docs/concurrency.md``), so holding the
lock-manager latch across it would invert that order.
"""

from __future__ import annotations

import enum

from repro.errors import DeadlockError, LockError
from repro.latch import Latch


class LockConflictError(LockError):
    """The request conflicts with locks held by other transactions."""

    def __init__(self, key, holders) -> None:
        self.key = key
        self.holders = frozenset(holders)
        super().__init__(f"lock {key!r} held by transactions {sorted(holders)}")


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class _Entry:
    __slots__ = ("holders",)

    def __init__(self) -> None:
        #: txn_id -> LockMode
        self.holders: dict[int, LockMode] = {}


class LockManager:
    """Lock table for one database (primary or snapshot)."""

    def __init__(self) -> None:
        self.latch = Latch("lock_manager")
        self._table: dict[tuple, _Entry] = {}
        #: Declared waits: txn_id -> (key, mode); persists across retries so
        #: genuine deadlocks between interleaved transactions are detected.
        self._waits: dict[int, tuple] = {}
        #: Optional callable ``resolver(key, holders) -> bool`` that makes
        #: progress on conflicts (returns True when worth re-checking).
        self.resolver = None

    # ------------------------------------------------------------------

    def _conflicts(self, entry: _Entry, txn_id: int, mode: LockMode):
        """Transaction ids whose holdings block this request."""
        blockers = set()
        for holder, held in entry.holders.items():
            if holder == txn_id:
                continue
            if mode is LockMode.EXCLUSIVE or held is LockMode.EXCLUSIVE:
                blockers.add(holder)
        return blockers

    def _would_deadlock(self, txn_id: int, blockers) -> bool:
        """Whether a cycle is reachable from ``txn_id`` once it waits on
        ``blockers`` — ``networkx.find_cycle(graph, source=txn_id)``'s
        semantics: the cycle need not pass through the requester."""
        graph: dict[int, set[int]] = {}
        for waiter, (key, _mode) in self._waits.items():
            entry = self._table.get(key)
            if entry is not None:
                graph.setdefault(waiter, set()).update(entry.holders)
        graph.setdefault(txn_id, set()).update(blockers)
        on_path = {txn_id}
        done: set[int] = set()
        stack = [(txn_id, iter(graph[txn_id]))]
        while stack:
            node, edges = stack[-1]
            for succ in edges:
                # succ == node: a waiter upgrading a lock it holds is no edge.
                if succ == node or succ in done:
                    continue
                if succ in on_path:
                    return True
                on_path.add(succ)
                stack.append((succ, iter(graph.get(succ, ()))))
                break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
        return False

    # ------------------------------------------------------------------

    def acquire(self, txn, key: tuple, mode: LockMode, stats=None) -> None:
        """Grant ``mode`` on ``key`` to ``txn`` or raise.

        Re-acquiring an already-held lock is a no-op; holding SHARED and
        requesting EXCLUSIVE upgrades when no other holder exists.
        """
        attempts = 0
        while True:
            with self.latch:
                entry = self._table.setdefault(key, _Entry())
                blockers = self._conflicts(entry, txn.txn_id, mode)
                if not blockers:
                    self._waits.pop(txn.txn_id, None)
                    held = entry.holders.get(txn.txn_id)
                    if held is None or (
                        held is LockMode.SHARED and mode is LockMode.EXCLUSIVE
                    ):
                        entry.holders[txn.txn_id] = mode
                    txn.locks.add(key)
                    return
                if stats is not None:
                    stats.lock_waits += 1
                if self._would_deadlock(txn.txn_id, blockers):
                    if stats is not None:
                        stats.deadlocks += 1
                    raise DeadlockError(
                        f"transaction {txn.txn_id} would deadlock on {key!r} "
                        f"(holders {sorted(blockers)})"
                    )
                self._waits[txn.txn_id] = (key, mode)
            # Resolver runs *outside* the latch: it re-enters snapshot/log
            # code whose latches precede this one in the lock order. The
            # conflict is re-checked from scratch on the next loop pass —
            # the world may have changed while the latch was released.
            resolved = False
            if self.resolver is not None and attempts < 64:
                resolved = bool(self.resolver(key, blockers))
                attempts += 1
            if not resolved:
                raise LockConflictError(key, blockers)

    def release_all(self, txn) -> None:
        """Drop every lock ``txn`` holds (commit/abort)."""
        with self.latch:
            for key in txn.locks:
                entry = self._table.get(key)
                if entry is not None:
                    entry.holders.pop(txn.txn_id, None)
                    if not entry.holders:
                        del self._table[key]
            txn.locks.clear()
            self._waits.pop(txn.txn_id, None)

    # ------------------------------------------------------------------

    def lock_count(self) -> int:
        with self.latch:
            return sum(len(entry.holders) for entry in self._table.values())
