"""Pooled ephemeral as-of snapshots: point-in-time query as a primitive.

The paper exposes point-in-time reads through named-snapshot DDL the user
creates, ``USE``\\ s and drops by hand. That ceremony makes time travel an
operator action; production systems want it to be a routinely exercised
read-path primitive (compare the fast-recovery line of work: the win
comes from making the recovery path cheap and ordinary). The
:class:`SnapshotPool` makes any ``AS OF`` read self-service:

* **Resolution** — the requested wall-clock time is translated to a
  SplitLSN first, so two queries phrased differently but landing on the
  same commit boundary share one snapshot.
* **Reuse** — entries are keyed ``(database, split_lsn)``, where the
  database is a primary or a standby (their names share one namespace);
  an acquire that hits skips snapshot creation entirely (no checkpoint
  records, no analysis scan) and reads every page an earlier lease of
  the entry touched straight from its frames: a frame lookup, not even a
  version-store probe.
* **One copy per page** — a pooled snapshot keeps no sparse side file
  (section 5.3's cache of prepared pages). Its frames wrap the version
  store's immutable image of each page in a read-only
  :class:`~repro.storage.page.ReadOnlyPage`, so a page prepared once is
  held once, however many entries read it. Only a snapshot with
  transactions in flight at its split keeps private copies: those are
  the pages its background undo writes. Nothing trims a pooled entry's
  frames, not even a released lease: the frames are its one tier.
* **Refcounting** — concurrent sessions lease the same entry; an entry is
  only evictable once every lease is released.
* **Eviction** — the pool charges each entry page size × frames (what
  its side file would have held) and drops least-recently-used idle
  entries once the total exceeds the configured byte budget.

The engine owns the one pool (:class:`~repro.engine.engine.Engine`), and
its budget bounds every AS OF lease, over a primary or a standby; users
reach it through ``engine.query_as_of(db, t)`` or inline SQL
(``SELECT ... FROM t AS OF '...'``). Named-snapshot DDL still works and
bypasses the pool — those snapshots have user-controlled lifetimes.

Concurrency: ``self.latch`` serializes the entry map, orphan map, stats
and LRU clock (reprolint RL005 enforces the guard on every mutation).
Snapshot *creation* deliberately happens outside the latch: it writes
a records-only checkpoint of the primary (forced begin and end records,
no page flush; it takes the log latch) and may scan the log, so holding
the pool latch across it would stall every concurrent lease behind one
build. Racing creators for the same split
are reconciled under the latch — the loser adopts the winner's entry and
drops its own build.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.core.asof import AsOfSnapshot
from repro.errors import RetentionExceededError, SnapshotError
from repro.latch import Latch

#: Default byte budget across all pooled snapshots' frames (64 MiB).
DEFAULT_POOL_BUDGET_BYTES = 64 * 1024 * 1024


@dataclass
class PoolStats:
    """Observable pool behavior (asserted on by tests and benchmarks)."""

    #: Acquires served by an existing pooled snapshot.
    hits: int = 0
    #: Acquires that had to create a new snapshot (== snapshots created).
    misses: int = 0
    #: Idle entries dropped to get back under the byte budget.
    evictions: int = 0
    #: Leases returned (every acquire is eventually released).
    releases: int = 0
    #: High-water mark of :meth:`SnapshotPool.total_bytes`.
    peak_bytes: int = 0


class _PoolEntry:
    """One pooled snapshot plus its lease bookkeeping."""

    __slots__ = ("snapshot", "refcount", "last_used")

    def __init__(self, snapshot: AsOfSnapshot) -> None:
        self.snapshot = snapshot
        self.refcount = 0
        #: Monotonic acquire stamp for LRU ordering.
        self.last_used = 0


class SnapshotPool:
    """Refcounted LRU pool of ephemeral :class:`AsOfSnapshot` instances.

    Keyed by ``(database name, split_lsn)``: all wall-clock times that
    resolve to the same SplitLSN share one snapshot and one set of
    already-framed pages.
    """

    def __init__(self, budget_bytes: int = DEFAULT_POOL_BUDGET_BYTES) -> None:
        if budget_bytes <= 0:
            raise ValueError("snapshot pool budget must be positive")
        self.latch = Latch("snapshot_pool")
        self.budget_bytes = budget_bytes
        self.stats = PoolStats()
        self._entries: dict[tuple[str, int], _PoolEntry] = {}
        #: Entries force-dropped (purge/clear) while still leased, kept by
        #: snapshot identity so the outstanding releases stay balanced.
        self._orphans: dict[int, _PoolEntry] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    # Leasing
    # ------------------------------------------------------------------

    def acquire(self, db, as_of_wall: float) -> AsOfSnapshot:
        """Lease a snapshot of ``db`` as of ``as_of_wall``.

        Resolves the time to a SplitLSN, reuses a pooled snapshot for that
        ``(database, split_lsn)`` when one exists, and creates (and pools)
        one otherwise. Pair every acquire with :meth:`release`, or use
        :meth:`lease`.

        A pooled entry outlives the retention *window*: its pin keeps the
        log retained (see :meth:`min_pin_lsn`), so a reuse whose wall-clock
        time has aged past ``UNDO_INTERVAL`` is still served as long as it
        maps onto a pooled split. Only snapshot *creation* stays bounded by
        the window.
        """
        tracer = db.env.tracer
        with tracer.span("pool.acquire", db=db.name) as pool_span:
            with tracer.span("asof.resolve_split"):
                try:
                    split = AsOfSnapshot.resolve_split(db, as_of_wall)
                except RetentionExceededError:
                    from repro.core.split_lsn import find_split_lsn

                    # The window has closed, but a pooled split may have
                    # pinned the log; serve the reuse if the time still
                    # resolves.
                    split = find_split_lsn(db, as_of_wall)
                    with self.latch:
                        entry = self._entries.get((db.name, split))
                        if (
                            entry is None
                            or entry.snapshot.dropped
                            or entry.snapshot.db is not db
                        ):
                            raise
            key = (db.name, split)
            snapshot = self._lease_pooled(key, db)
            pool_span.set(split=split, hit=snapshot is not None)
            if snapshot is not None:
                return snapshot
            # Miss: build outside the latch. Creation forces checkpoint
            # records on a primary and may run an analysis scan;
            # concurrent leases of other entries proceed meanwhile.
            with tracer.span("asof.create_at_split", split=split):
                built = AsOfSnapshot.create_at_split(
                    db, f"~pool:{db.name}@{split:#x}", split, side_file=False
                )
            loser = None
            with self.latch:
                entry = self._entries.get(key)
                if entry is not None and not (
                    entry.snapshot.dropped or entry.snapshot.db is not db
                ):
                    # Another session built the same split concurrently;
                    # adopt the pooled winner and discard our build.
                    loser = built
                else:
                    entry = _PoolEntry(built)
                    self._entries[key] = entry
                self.stats.misses += 1
                entry.refcount += 1
                self._clock += 1
                entry.last_used = self._clock
                snapshot = entry.snapshot
            if loser is not None:
                loser.drop()
            with self.latch:
                self._note_peak(self.total_bytes())
            return snapshot

    def _lease_pooled(self, key: tuple[str, int], db) -> AsOfSnapshot | None:
        """Bump and return the pooled entry for ``key``, or ``None`` on a
        miss (stale/dropped entries are removed and count as misses)."""
        with self.latch:
            entry = self._entries.get(key)
            if entry is not None and (
                entry.snapshot.dropped or entry.snapshot.db is not db
            ):
                # A dropped or stale entry (its database object was
                # replaced) cannot serve reads; rebuild it.
                del self._entries[key]
                entry = None
            if entry is None:
                return None
            self.stats.hits += 1
            entry.refcount += 1
            self._clock += 1
            entry.last_used = self._clock
            return entry.snapshot

    def release(self, snapshot: AsOfSnapshot) -> None:
        """Return a lease obtained from :meth:`acquire`."""
        with self.latch:
            orphan = self._orphans.get(id(snapshot))
            if orphan is not None:
                # The entry was force-dropped (purge/clear) while leased;
                # the lease still has to unwind without raising.
                orphan.refcount -= 1
                if orphan.refcount <= 0:
                    del self._orphans[id(snapshot)]
                self.stats.releases += 1
                return
            key = (snapshot.db.name, snapshot.split_lsn)
            entry = self._entries.get(key)
            if entry is None or entry.snapshot is not snapshot:
                raise SnapshotError(
                    f"snapshot {snapshot.name!r} is not leased from this pool"
                )
            if entry.refcount <= 0:
                raise SnapshotError(f"snapshot {snapshot.name!r} released twice")
            entry.refcount -= 1
            self.stats.releases += 1
            self.evict_to_budget()

    @contextmanager
    def lease(self, db, as_of_wall: float) -> Iterator[AsOfSnapshot]:
        """``with pool.lease(db, t) as snap:`` — acquire/release pairing."""
        snapshot = self.acquire(db, as_of_wall)
        try:
            yield snapshot
        finally:
            self.release(snapshot)

    # ------------------------------------------------------------------
    # Budget / eviction
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Page size × frames, summed over all pooled snapshots
        (:meth:`AsOfSnapshot.side_file_bytes` of a snapshot without a
        side file).

        Recomputed on demand: frames grow lazily as queries touch pages,
        so a cached sum would go stale.
        """
        with self.latch:
            return sum(
                entry.snapshot.side_file_bytes()
                for entry in self._entries.values()
            )

    def _note_peak(self, total: int) -> None:
        """Raise ``peak_bytes`` to ``total``, a :meth:`total_bytes` sum
        taken under the pool latch the caller still holds."""
        if total > self.stats.peak_bytes:
            self.stats.peak_bytes = total

    def evict_to_budget(self) -> int:
        """Drop idle least-recently-used entries until the total frame
        footprint fits the budget; returns how many were evicted.

        Entries with live leases are never evicted — the pool may
        transiently exceed its budget while every entry is in use.
        """
        with self.latch:
            total = self.total_bytes()
            self._note_peak(total)
            evicted = 0
            while total > self.budget_bytes:
                idle = [
                    (entry.last_used, key)
                    for key, entry in self._entries.items()
                    if entry.refcount == 0
                ]
                if not idle:
                    break
                _stamp, key = min(idle)
                # An idle entry's frames cannot grow: no lease reads it.
                total -= self._entries[key].snapshot.side_file_bytes()
                self._drop_entry(key)
                self.stats.evictions += 1
                evicted += 1
            return evicted

    def set_budget(self, budget_bytes: int) -> None:
        """Change the byte budget and evict immediately if now over it."""
        if budget_bytes <= 0:
            raise ValueError("snapshot pool budget must be positive")
        with self.latch:
            self.budget_bytes = budget_bytes
            self.evict_to_budget()

    def _drop_entry(self, key: tuple[str, int]) -> None:
        # Dropping an entry releases its retention pin; the next
        # enforce_retention truncates past the evicted split and GCs the
        # version-store intervals only that pin kept reachable (see
        # repro.core.retention). Versions covering splits still pooled
        # always end above the log floor — their pins kept truncation at
        # or below the split — so they survive: exactly the
        # cross-snapshot reuse the store exists for.
        with self.latch:
            entry = self._entries.pop(key)
            if entry.refcount > 0:
                self._orphans[id(entry.snapshot)] = entry
            entry.snapshot.drop()

    # ------------------------------------------------------------------
    # Retention pinning
    # ------------------------------------------------------------------

    def min_pin_lsn(self, db_name: str) -> int | None:
        """Oldest LSN any pooled snapshot of ``db_name`` still needs.

        Registered as a retention pin on the database (see
        :func:`repro.core.retention.enforce_retention`): retention then
        works around live pooled splits the same way it works around
        active transactions, instead of entries failing at first use after
        a truncation. ``None`` when nothing is pooled for the database.
        """
        with self.latch:
            pins = [
                entry.snapshot.retention_pin_lsn
                for (name, _split), entry in self._entries.items()
                if name == db_name and not entry.snapshot.dropped
            ]
            return min(pins) if pins else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def purge_database(self, db_name: str) -> int:
        """Drop every pooled snapshot of ``db_name`` (the database or
        standby is leaving, or a promotion cut its timeline); returns how
        many entries were purged.

        Entries with live leases are dropped too — the database is going
        away — but their outstanding releases remain balanced: in-flight
        readers see :class:`SnapshotError` on their next page access, not
        on release.
        """
        with self.latch:
            keys = [key for key in self._entries if key[0] == db_name]
            for key in keys:
                self._drop_entry(key)
            return len(keys)

    def clear(self) -> None:
        """Drop every pooled snapshot."""
        with self.latch:
            for key in list(self._entries):
                self._drop_entry(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self.latch:
            return len(self._entries)

    def active_leases(self) -> int:
        with self.latch:
            return sum(entry.refcount for entry in self._entries.values())

    def __repr__(self) -> str:
        return (
            f"SnapshotPool(entries={len(self._entries)}, "
            f"bytes={self.total_bytes()}/{self.budget_bytes}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"evictions={self.stats.evictions})"
        )
