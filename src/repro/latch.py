"""The engine's latch primitive (ROADMAP item 1).

A :class:`Latch` is a named, reentrant short-duration lock guarding one
engine-shared structure — the snapshot pool's entry map, the version
store's interval map, the log tail, buffer-pool frames, lock-manager
state, the metrics/monitor registries. Latches are held for the duration
of one method call on the owning structure, never across I/O waits on
other sessions (there are none: lock *waits* are the lock manager's job;
latches only serialize in-memory mutation).

Reentrancy is load-bearing: public methods of a latched structure call
each other (``release`` → ``evict_to_budget``, ``set_budget`` →
``evict_to_budget``) and private helpers re-assert the latch
lexically so reprolint RL005 (strict mode) can verify every mutation
site sits under ``with self.latch:``.

The counters make contention observable without host timing: every
acquisition bumps ``acquisitions``; an acquisition that had to block
because another thread held the latch bumps ``contentions``. The
concurrency bench reports the ratio per latch.
"""

from __future__ import annotations

import threading


class Latch:
    """A named reentrant latch with acquisition/contention counters."""

    __slots__ = ("name", "_rlock", "acquisitions", "contentions")

    def __init__(self, name: str = "latch") -> None:
        self.name = name
        self._rlock = threading.RLock()
        #: Total times the latch was entered.
        self.acquisitions = 0
        #: Entries that had to block on another thread first.
        self.contentions = 0

    def __enter__(self) -> "Latch":
        # Try without blocking first: the common uncontended path costs
        # one atomic attempt; only a genuine collision pays the blocking
        # acquire and is counted as contention. Both counters are bumped
        # while the latch is held, so they never tear.
        if not self._rlock.acquire(blocking=False):
            self._rlock.acquire()
            self.contentions += 1
        self.acquisitions += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._rlock.release()

    # Explicit acquire/release for the rare non-lexical site (the
    # executor's BEGIN/COMMIT spanning statements); prefer ``with``.
    def acquire(self) -> None:
        self.__enter__()

    def release(self) -> None:
        self._rlock.release()

    def contention_ratio(self) -> float:
        """Fraction of acquisitions that blocked (0.0 when idle)."""
        if self.acquisitions == 0:
            return 0.0
        return self.contentions / self.acquisitions

    def stats(self) -> dict:
        return {
            "name": self.name,
            "acquisitions": self.acquisitions,
            "contentions": self.contentions,
        }

    def __repr__(self) -> str:
        return (
            f"Latch({self.name!r}, acquisitions={self.acquisitions}, "
            f"contentions={self.contentions})"
        )
