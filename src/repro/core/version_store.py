"""Cross-snapshot page version store: interval-keyed prepared pages.

The paper's measurements (Figure 11, section 6) show point-in-time query
cost dominated by the log I/O of ``PreparePageAsOf`` chain walks, and
section 5 pitches snapshots as cheap precisely because most pages need
little or no undo. But every snapshot still pays the walk *per snapshot*:
two nearby SplitLSNs that bracket zero modifications of a page re-derive
byte-identical images from the same chain records. This module is the
multi-version fix (the Postgres/HANA/Hekaton version-store insight applied
to the paper's log-only design): one engine-owned, byte-budgeted
:class:`PageVersionStore` shared by **all** of a database's snapshots —
the engine pool, named snapshots, and every replica's pool (a replica's
shipped log is byte-identical to the primary's, so its prepared pages are
too, and both sides publish under the primary's key).

The key is the validity *interval* the chain walk itself proves
(:class:`~repro.core.page_undo.PreparedVersion`): when a snapshot at
split ``S`` finishes preparing page ``P``, the image is published under
``(db, P, [version_lsn, limit_lsn))``; a later snapshot at split ``S'``
probes the store first and, when ``version_lsn <= S' < limit_lsn``, skips
the entire chain walk — no undo log reads, no undo CPU.
Repeated and nearby AS OF reads (audit loops, dashboards) become fast by
construction instead of fast by luck.

A probe no interval covers still uses the store. The stored version of
``P`` with the smallest ``version_lsn`` above ``S'`` is the page as of
that LSN, so the miss's chain walk *resumes* from it instead of starting
at the primary's current page, and undoes only the chain records in
``(S', version_lsn]``. This is the per-page, start-from-the-nearest-image
idea of Sauer & Härder's on-demand REDO, applied to undo. It relies on
the same invariant a hit does and adds none. A prober passes the ceiling
of the history its own pages hold, so a standby never resumes from an
image above its applied prefix.

Invalidation keeps the intervals honest:

* **history rewrite** — a crash discards the volatile log tail, replica
  promotion discards shipped records past the split:
  :meth:`invalidate_from` drops versions at or above the rewrite point
  and clamps intervals that reached past it.
* **name reuse / divergence** — dropping a database and reusing its name
  restarts the LSN space; a promoted replica's timeline diverges from its
  primary's: :meth:`purge` forgets the key.
* **retention GC** — :meth:`gc` (run by ``enforce_retention`` after each
  truncation) drops versions whose whole interval fell below the
  retained log: evicting a pooled entry releases its retention pin, the
  next enforcement truncates past the evicted split, and the versions
  only that pin kept reachable follow. Versions serving a still-pooled
  split always end above the log start — the pooled entry's pin
  guarantees it — so GC never drops a reachable version.
* **byte budget** — least-recently-used versions are evicted once the
  configured budget is exceeded (:meth:`evict_to_budget`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.latch import Latch
from repro.storage.page import HEADER_FIELDS, HEADER_SIZE, PAGE_MAGIC

#: Default byte budget across all stored page versions (32 MiB).
DEFAULT_VERSION_STORE_BUDGET_BYTES = 32 * 1024 * 1024

_MAGIC, _MAGIC_AT = HEADER_FIELDS["magic"]
_PAGE_LSN, _PAGE_LSN_AT = HEADER_FIELDS["page_lsn"]


def _resumable(version_lsn: int, data: bytes) -> bool:
    """Whether a chain walk can start from ``data``: a formatted page whose
    header pageLSN is ``version_lsn``. A walk that ends on an unformatted
    page leaves the pageLSN it found there, so that image does not say
    where the page's chain continues."""
    return (
        len(data) >= HEADER_SIZE
        and _MAGIC.unpack_from(data, _MAGIC_AT)[0] == PAGE_MAGIC
        and _PAGE_LSN.unpack_from(data, _PAGE_LSN_AT)[0] == version_lsn
    )


@dataclass
class VersionStoreStats:
    """Observable store behavior (asserted on by tests and the CI gate)."""

    #: Lookups served by a stored interval (chain walk skipped).
    hits: int = 0
    #: Lookups finding no covering interval.
    misses: int = 0
    #: Misses handed a newer stored version to start the chain walk from.
    resumes: int = 0
    #: Prepared images published (new or interval-extending).
    publishes: int = 0
    #: Versions dropped to get back under the byte budget.
    evictions: int = 0
    #: Versions dropped by history-rewrite / purge / GC invalidation.
    invalidations: int = 0
    #: High-water mark of stored bytes.
    peak_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Version:
    """One stored page image and the split interval it serves."""

    __slots__ = ("version_lsn", "limit_lsn", "data", "last_used")

    def __init__(self, version_lsn: int, limit_lsn: int, data: bytes) -> None:
        self.version_lsn = version_lsn
        self.limit_lsn = limit_lsn
        self.data = data
        self.last_used = 0

    def covers(self, split_lsn: int) -> bool:
        return self.version_lsn <= split_lsn < self.limit_lsn


class PageVersionStore:
    """Byte-budgeted, interval-keyed cache of prepared page images.

    Keys are ``(store_key, page_id)`` where ``store_key`` identifies a
    *log history*, not a database object: replicas publish and probe
    under their primary's key because they replay the primary's exact
    log. A budget of ``0`` disables the store (every lookup misses,
    nothing is published) — the ablation/baseline configuration.
    """

    def __init__(self, budget_bytes: int = DEFAULT_VERSION_STORE_BUDGET_BYTES) -> None:
        if budget_bytes < 0:
            raise ValueError("version store budget must be >= 0")
        self.latch = Latch("version_store")
        self.budget_bytes = budget_bytes
        self.stats = VersionStoreStats()
        self._versions: dict[tuple[str, int], list[_Version]] = {}
        self._bytes = 0
        self._clock = 0

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    # ------------------------------------------------------------------
    # Probe / publish
    # ------------------------------------------------------------------

    def lookup(
        self,
        store_key: str,
        page_id: int,
        split_lsn: int,
        ceiling_lsn: int | None = None,
    ) -> tuple[int, bytes] | None:
        """The stored image of ``page_id`` to serve ``split_lsn`` from, as
        ``(version_lsn, data)``, or ``None``.

        A version whose interval covers the split is a *hit*
        (``version_lsn <= split_lsn``): a pure memory copy, the caller
        skips the whole chain walk. Failing that, the resumable version
        with the smallest ``version_lsn`` in ``(split_lsn, ceiling_lsn)``
        is a *resume*: the caller walks the chain from that image, not
        from the current page. A resume still counts as a miss, so
        ``hit_rate`` keeps its meaning. ``ceiling_lsn=None`` bounds
        nothing: every version stored under a primary's key lies below
        its log end.
        """
        if not self.enabled:
            return None
        with self.latch:
            found = None
            for version in self._versions.get((store_key, page_id), ()):
                if version.covers(split_lsn):
                    found = version
                    self.stats.hits += 1
                    break
                if (
                    split_lsn < version.version_lsn
                    and (ceiling_lsn is None or version.version_lsn < ceiling_lsn)
                    and (found is None or version.version_lsn < found.version_lsn)
                    and _resumable(version.version_lsn, version.data)
                ):
                    found = version
            else:
                self.stats.misses += 1
                if found is None:
                    return None
                self.stats.resumes += 1
            self._clock += 1
            found.last_used = self._clock
            return found.version_lsn, found.data

    def publish(
        self,
        store_key: str,
        page_id: int,
        version_lsn: int,
        limit_lsn: int,
        data: bytes,
    ) -> None:
        """Store a prepared image for ``[version_lsn, limit_lsn)``.

        A version with the same ``version_lsn`` already present has its
        interval *extended* (the image is identical by construction —
        same page state, later-proven quiescence); overlapping is
        otherwise left alone: intervals from real chain walks never
        disagree on content inside their overlap.
        """
        if not self.enabled or limit_lsn <= version_lsn:
            return
        with self.latch:
            versions = self._versions.setdefault((store_key, page_id), [])
            self._clock += 1
            for version in versions:
                if version.version_lsn == version_lsn:
                    version.limit_lsn = max(version.limit_lsn, limit_lsn)
                    version.last_used = self._clock
                    self._note_publish()
                    return
            version = _Version(version_lsn, limit_lsn, bytes(data))
            version.last_used = self._clock
            versions.append(version)
            self._bytes += len(version.data)
            self._note_publish()
            if self._bytes > self.stats.peak_bytes:
                self.stats.peak_bytes = self._bytes
            self.evict_to_budget()

    def _note_publish(self) -> None:
        self.stats.publishes += 1

    # ------------------------------------------------------------------
    # Budget
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        with self.latch:
            return self._bytes

    def set_budget(self, budget_bytes: int) -> None:
        """Change the byte budget; evicts immediately when now over it."""
        if budget_bytes < 0:
            raise ValueError("version store budget must be >= 0")
        with self.latch:
            self.budget_bytes = budget_bytes
            if not self.enabled:
                for store_key in {key[0] for key in self._versions}:
                    self.purge(store_key)
            else:
                self.evict_to_budget()

    def evict_to_budget(self) -> int:
        """Drop least-recently-used versions until under budget.

        One pass: candidates are sorted by recency once and evicted in
        order, so a large budget cut costs O(V log V), not O(V^2).
        """
        with self.latch:
            if self._bytes <= self.budget_bytes or not self._versions:
                return 0
            candidates = sorted(
                (
                    (version.last_used, key, version)
                    for key, versions in self._versions.items()
                    for version in versions
                ),
                key=lambda item: item[0],
            )
            evicted = 0
            for _stamp, key, version in candidates:
                if self._bytes <= self.budget_bytes:
                    break
                versions = self._versions[key]
                versions.remove(version)
                self._bytes -= len(version.data)
                if not versions:
                    del self._versions[key]
                self.stats.evictions += 1
                evicted += 1
            return evicted

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _drop_where(self, store_key: str, predicate) -> int:
        with self.latch:
            dropped = 0
            for key in [k for k in self._versions if k[0] == store_key]:
                versions = self._versions[key]
                kept = []
                for version in versions:
                    if predicate(version):
                        self._bytes -= len(version.data)
                        dropped += 1
                    else:
                        kept.append(version)
                if kept:
                    self._versions[key] = kept
                else:
                    del self._versions[key]
            if dropped:
                self.stats.invalidations += dropped
            return dropped

    def invalidate_from(self, store_key: str, lsn: int) -> int:
        """History at or above ``lsn`` was rewritten (crash discarded the
        volatile tail; promotion discarded shipped records): drop versions
        whose state no longer exists and clamp intervals that reached into
        the rewritten range. Returns versions dropped."""
        with self.latch:
            for key, versions in self._versions.items():
                if key[0] != store_key:
                    continue
                for version in versions:
                    if version.limit_lsn > lsn:
                        version.limit_lsn = lsn
            return self._drop_where(
                store_key,
                lambda v: v.version_lsn >= lsn or v.limit_lsn <= v.version_lsn,
            )

    def gc(self, store_key: str, floor_lsn: int) -> int:
        """Drop versions whose whole interval fell below the retained log.

        A future pool acquire resolves to a split at or above the log
        start — except splits already pooled, whose retention pins keep
        ``floor_lsn`` at or below them (so their serving versions always
        end above the floor and survive). Called by retention enforcement
        after each truncation — including the one that follows a pool
        eviction releasing its pin. Returns versions dropped.
        """
        with self.latch:
            return self._drop_where(store_key, lambda v: v.limit_lsn <= floor_lsn)

    def purge(self, store_key: str) -> int:
        """Forget every version under ``store_key`` (database dropped, its
        name reused, or a promoted replica's timeline diverged)."""
        with self.latch:
            return self._drop_where(store_key, lambda v: True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def version_count(self, store_key: str | None = None) -> int:
        with self.latch:
            return sum(
                len(versions)
                for key, versions in self._versions.items()
                if store_key is None or key[0] == store_key
            )

    def as_dict(self) -> dict:
        """Stats surface for benchmarks and the engine API."""
        with self.latch:
            return self._as_dict_locked()

    def _as_dict_locked(self) -> dict:
        return {
            "budget_bytes": self.budget_bytes,
            "bytes": self._bytes,
            "versions": self.version_count(),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "resumes": self.stats.resumes,
            "hit_rate": self.stats.hit_rate,
            "publishes": self.stats.publishes,
            "evictions": self.stats.evictions,
            "invalidations": self.stats.invalidations,
            "peak_bytes": self.stats.peak_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"PageVersionStore(versions={self.version_count()}, "
            f"bytes={self._bytes}/{self.budget_bytes}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
