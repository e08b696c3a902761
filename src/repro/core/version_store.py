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
the engine pool's entries over the primary and over its standbys, and
named snapshots (a standby's shipped log is byte-identical to the
primary's, so its prepared pages are too, and both sides publish under
the primary's key).

The key is the validity *interval* the chain walk itself proves
(:class:`~repro.core.page_undo.PreparedVersion`): when a snapshot at
split ``S`` finishes preparing page ``P``, the image is published under
``(db, P, [version_lsn, limit_lsn))``; a later snapshot at split ``S'``
probes the store first and, when ``version_lsn <= S' < limit_lsn``, skips
the entire chain walk — no undo log reads, no undo CPU.
Repeated and nearby AS OF reads (audit loops, dashboards) become fast by
construction instead of fast by luck.

A probe no interval covers still uses the store, from either side of
``S'``; both are the per-page, start-from-the-nearest-image idea of
Sauer & Härder's on-demand REDO:

* **resume** — the stored version of ``P`` with the smallest
  ``version_lsn`` above ``S'`` is the page as of that LSN, so the miss's
  chain walk starts from it instead of from the primary's current page,
  and undoes only the chain records in ``(S', version_lsn]``. A prober
  passes the ceiling of the history its own pages hold, so a standby
  never resumes from an image above its applied prefix.
* **roll-forward** — every version also keeps the chain its walk proved:
  the LSNs of ``P``'s records above ``version_lsn`` that the walk undid,
  ascending. A version whose chain reaches past ``S'`` is the page as of
  a point below ``S'`` plus a known list of that page's modifications, so
  redoing the ones at or below ``S'`` onto it gives the page as of
  ``S'``. Of those, the one with the fewest records to redo is taken when
  it redoes no more records than its chain proves a resumed (or current)
  walk would undo. Unlike a hit or a resume it reads log below ``S'``,
  so a prober whose log starts above the chain's first record (a
  truncated primary, a standby seeded from a backup) does not take it.

Both rely on the same invariant a hit does and add none.

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

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from repro.latch import Latch
from repro.storage.page import HEADER_FIELDS, HEADER_SIZE, PAGE_MAGIC

#: Default byte budget across all stored page versions (32 MiB).
DEFAULT_VERSION_STORE_BUDGET_BYTES = 32 * 1024 * 1024

#: Bytes charged to the budget per chain entry (one ``array('Q')`` item).
CHAIN_ENTRY_BYTES = 8

#: The chain of a version whose walk proved nothing above it, shared.
_NO_CHAIN = array("Q")

_version_lsn = attrgetter("version_lsn")

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
    #: Misses handed an older stored version to redo its chain onto.
    rollforwards: int = 0
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


class Probe(NamedTuple):
    """A stored version :meth:`PageVersionStore.lookup` serves a split
    from, and how."""

    version_lsn: int
    data: bytes
    #: The version's proven chain: its page's records above
    #: ``version_lsn``, ascending. Never mutated in place.
    chain: array
    #: How many of ``chain`` a roll-forward redoes onto ``data``: 0 for a
    #: hit (``version_lsn <= split``) or a resume (``version_lsn > split``).
    redo: int


class _Version:
    """One stored page image, the split interval it serves, and the chain
    its walk proved."""

    __slots__ = ("version_lsn", "limit_lsn", "data", "chain", "last_used")

    def __init__(self, version_lsn: int, limit_lsn: int, data: bytes, chain: array) -> None:
        self.version_lsn = version_lsn
        self.limit_lsn = limit_lsn
        self.data = data
        self.chain = chain
        self.last_used = 0

    @property
    def size(self) -> int:
        """Bytes charged to the store's budget."""
        return len(self.data) + CHAIN_ENTRY_BYTES * len(self.chain)


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
        floor_lsn: int,
        ceiling_lsn: int | None = None,
    ) -> Probe | None:
        """The stored version of ``page_id`` to serve ``split_lsn`` from,
        or ``None``. One pass over the page's versions finds one of:

        * a *hit*: a version whose interval covers the split
          (``version_lsn <= split_lsn < limit_lsn``). A pure memory copy;
          the caller skips the whole chain walk.
        * a *roll-forward*: among the versions below the split whose chain
          reaches past it (``chain[0] <= split_lsn < chain[-1]``), the one
          with the fewest entries at or below the split. The caller redoes
          those ``redo`` records onto its image. It is taken only if
          ``redo`` is at most what its chain proves the alternative walk
          would undo: the entries in ``(split_lsn, bound]``, where
          ``bound`` is the resume candidate's ``version_lsn`` or the
          chain's end, and below the ceiling. On a primary a roll-forward
          therefore never touches more records than the walk it replaces.
          It reads the prober's log below the split, which a hit or a
          resume never does, so a chain starting below ``floor_lsn`` (the
          first LSN the prober's log holds: a truncated primary's start,
          a backup-seeded standby's seed) is never rolled forward.
        * a *resume*: the resumable version with the smallest
          ``version_lsn`` in ``(split_lsn, ceiling_lsn)``; the caller walks
          the chain down from that image, not from the current page.

        Roll-forwards and resumes still count as misses, so ``hit_rate``
        keeps its meaning. ``ceiling_lsn=None`` bounds nothing: every
        version stored under a primary's key lies below its log end.
        """
        if not self.enabled:
            return None
        with self.latch:
            newer = older = None
            redo = 0
            for version in self._versions.get((store_key, page_id), ()):
                version_lsn = version.version_lsn
                if version_lsn <= split_lsn:
                    if split_lsn < version.limit_lsn:
                        self.stats.hits += 1
                        return self._serve(version, 0)
                    chain = version.chain
                    if chain and floor_lsn <= chain[0] and split_lsn < chain[-1]:
                        count = bisect_right(chain, split_lsn)
                        if older is None or count < redo:
                            older, redo = version, count
                elif (
                    (ceiling_lsn is None or version_lsn < ceiling_lsn)
                    and (newer is None or version_lsn < newer.version_lsn)
                    and _resumable(version_lsn, version.data)
                ):
                    newer = version
            self.stats.misses += 1
            if older is not None:
                chain = older.chain
                bound = len(chain) if newer is None else bisect_right(chain, newer.version_lsn)
                if ceiling_lsn is not None:
                    bound = min(bound, bisect_left(chain, ceiling_lsn))
                if redo <= bound - redo:
                    self.stats.rollforwards += 1
                    return self._serve(older, redo)
            if newer is None:
                return None
            self.stats.resumes += 1
            return self._serve(newer, 0)

    def _serve(self, version: _Version, redo: int) -> Probe:
        self._clock += 1
        version.last_used = self._clock
        return Probe(version.version_lsn, version.data, version.chain, redo)

    def publish(
        self,
        store_key: str,
        page_id: int,
        version_lsn: int,
        limit_lsn: int,
        data: bytes,
        chain: array,
    ) -> bytes:
        """Store a prepared image for ``[version_lsn, limit_lsn)``, with the
        chain its walk proved (ascending; ``chain[0] == limit_lsn`` when
        not empty). The store keeps ``data`` (immutable ``bytes``) and
        ``chain`` as they are: the caller must not mutate the chain
        afterwards. Returns the image the store now holds for
        ``version_lsn`` (``data`` itself unless a version was already
        there), so a caller can share it instead of keeping a copy.

        A version with the same ``version_lsn`` already present has its
        interval *extended* (the image is identical by construction —
        same page state, later-proven quiescence) and keeps the longer
        chain: both start at the first record above ``version_lsn``, so
        the longer contains the shorter. Overlapping is otherwise left
        alone: intervals from real chain walks never disagree on content
        inside their overlap.

        A page's versions are kept in LSN order, and each proven chain
        entry is stored once: a chain that runs through the next version's
        LSN stops there and hands the records above it on to that version.
        :meth:`lookup` decides the same: a split above that LSN rolls
        forward from the higher version, which redoes fewer records, and
        for a split below it the higher version, when it is the resume
        candidate, already bounds the lower chain there.
        """
        if not self.enabled or limit_lsn <= version_lsn:
            return data
        with self.latch:
            versions = self._versions.setdefault((store_key, page_id), [])
            self._clock += 1
            at = bisect_left(versions, version_lsn, key=_version_lsn)
            if at < len(versions) and versions[at].version_lsn == version_lsn:
                version = versions[at]
                version.limit_lsn = max(version.limit_lsn, limit_lsn)
            else:
                # ``bytes(data)`` is ``data`` itself when it is bytes.
                version = _Version(version_lsn, limit_lsn, bytes(data), _NO_CHAIN)
                versions.insert(at, version)
                self._bytes += version.size
            version.last_used = self._clock
            self._note_publish()
            if len(chain) > len(version.chain):
                self._rechain(version, chain)
            self._settle(versions, max(at - 1, 0))
            if self._bytes > self.stats.peak_bytes:
                self.stats.peak_bytes = self._bytes
            if self._bytes > self.budget_bytes:
                self.evict_to_budget()
            return version.data

    def _rechain(self, version: _Version, chain: array) -> None:
        self._bytes += CHAIN_ENTRY_BYTES * (len(chain) - len(version.chain))
        version.chain = chain

    def _settle(self, versions: list[_Version], start: int) -> None:
        """From ``versions[start]`` up, end each chain at the next
        version's LSN when it runs through it, and give that version the
        records above it when they prove more than its own chain."""
        for version, following in zip(versions[start:], versions[start + 1 :]):
            chain = version.chain
            cut = bisect_right(chain, following.version_lsn)
            if 0 < cut < len(chain) and chain[cut - 1] == following.version_lsn:
                rest = chain[cut:]
                self._rechain(version, chain[:cut])
                if len(rest) > len(following.chain):
                    self._rechain(following, rest)

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
                self._bytes -= version.size
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
                        self._bytes -= version.size
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
        whose state no longer exists, clamp intervals that reached into
        the rewritten range, and trim chains to the records below it.
        Returns versions dropped."""
        with self.latch:
            for key, versions in self._versions.items():
                if key[0] != store_key:
                    continue
                for version in versions:
                    if version.limit_lsn > lsn:
                        version.limit_lsn = lsn
                    chain = version.chain
                    kept = bisect_left(chain, lsn)
                    if kept < len(chain):
                        self._rechain(version, chain[:kept])
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
            "rollforwards": self.stats.rollforwards,
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
