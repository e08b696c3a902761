"""As-of database snapshots (paper section 5).

An :class:`AsOfSnapshot` presents a transactionally consistent, read-only
view of a database as of an arbitrary past point in time:

* **Creation** (section 5.1): translate the wall-clock time to the
  SplitLSN, create the sparse side file (a named snapshot's; a pooled
  one keeps none), and checkpoint the primary so
  every page with LSN ≤ SplitLSN is durable. A stated deviation for a
  pooled snapshot: it reads no data-file page (it rewinds the primary's
  buffered one), so its checkpoint is records-only
  (:mod:`repro.engine.checkpoint`): the forced begin and end, an anchor
  and analysis base for later splits, with no page flush and no
  boot-page move. Named snapshot DDL keeps the sharp one.
* **Recovery** (section 5.2): find the transactions in flight at the
  SplitLSN. A stated deviation: the paper runs the analysis pass from
  the checkpoint preceding the SplitLSN; here the log's transaction
  directory (``docs/wal-format.md``) answers who was in flight without
  reading the log, and analysis runs only when somebody was, from the
  oldest such transaction's BEGIN up to the SplitLSN. The redo pass
  does **no page I/O** — it only re-acquires those transactions' locks.
  Their logical undo runs lazily ("in the background"): queries are
  admitted immediately, and a read that touches a locked row drives the
  conflicting transaction's undo to completion first.
* **Page access** (section 5.3): frame or sparse-file hit → serve; miss
  → probe the engine's cross-snapshot
  :class:`~repro.core.version_store.PageVersionStore` for a prepared
  image whose validity interval covers the SplitLSN (skipping the whole
  chain walk — the cost Figure 11 shows dominating as-of reads); store
  miss → prepare the page from the nearest image the store holds on
  either side of the split, whichever its proven chain says touches
  fewer records: roll an *older* image forward through the page's chain
  records up to the SplitLSN (a deviation: the paper only ever rewinds),
  or rewind a *newer* one with ``PreparePageAsOf(page, SplitLSN)``; with
  neither, rewind the current page from the primary. Publish the
  result's interval and chain to the store. Previous versions are
  generated only for pages queries actually touch.

  The store's image is the one copy of a clean page: the snapshot's
  frame wraps that same ``bytes`` object in a read-only page, and a
  named snapshot's sparse file (the paper's write-through cache) holds
  that object as well. A pooled snapshot (:mod:`repro.core.snapshot_pool`) keeps no
  side file — a deviation: the paper caches every prepared page in one,
  but here nothing ever read it back — so its frames are its only tier
  and are never trimmed. Only a snapshot with losers pending at its split
  frames private, writable copies: the pages section 5.2's logical undo
  writes.

The snapshot exposes the same reader protocol as a live database (catalog,
``get``, ``scan``), because to "all the other components in the database
engine" a snapshot is just a read-only database (section 2.2).
"""

from __future__ import annotations

from repro.access.btree import BTree, BTreeServices
from repro.catalog.catalog import (
    SYS_COLUMNS_ID,
    SYS_OBJECTS_ID,
    Catalog,
    ObjectInfo,
)
from repro.core.page_undo import prepare_page_version, roll_page_forward
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.recovery import AnalysisResult, analyze_log
from repro.latch import Latch
from repro.errors import (
    CatalogError,
    LogTruncatedError,
    RetentionExceededError,
    SnapshotError,
)
from repro.storage.buffer import Frame, FrameGuard
from repro.storage.page import Page, ReadOnlyPage
from repro.storage.sparsefile import SparseFile
from repro.txn.undo import rollback_losers
from repro.wal.apply import UnloggedModifier

#: Virtual page ids (snapshot-only splits during undo) start here.
_VIRTUAL_PAGE_BASE = 1 << 28


class SnapshotAllocator:
    """Hands out virtual page ids for snapshot-side page splits.

    Background logical undo occasionally has to *re-insert* a row whose
    page filled up with other committed data before the SplitLSN; the
    resulting split lives only in the sparse file, so page ids are virtual
    and never ever-allocated.
    """

    def __init__(self) -> None:
        self._next = _VIRTUAL_PAGE_BASE

    def allocate(self, txn, hint=None) -> tuple[int, bool]:
        pid = self._next
        self._next += 1
        return pid, False

    def deallocate(self, txn, page_id: int) -> None:
        """Virtual pages are throwaway; nothing to do."""


class _SnapshotGuard(FrameGuard):
    """Pin guard that writes dirty snapshot pages through to the sparse
    file on release (paper section 5.3's write-back of undone pages). A
    snapshot without a side file keeps them in its frames."""

    __slots__ = ()

    def unpin(self) -> None:
        with self._source.latch:
            frame = self.frame
            frame.unpin()
            sparse = self._source.sparse
            if frame.dirty and sparse is not None:
                sparse.write(frame.page_id, bytes(frame.page.data))
                frame.dirty = False


class SnapshotTable:
    """Read-only table handle over a snapshot."""

    def __init__(self, snap: "AsOfSnapshot", info: ObjectInfo, schema) -> None:
        self.snap = snap
        self.info = info
        self.schema = schema
        self.accessor = snap.catalog.accessor(info, schema)

    @property
    def name(self) -> str:
        return self.info.name

    def get(self, key: tuple):
        if self.info.is_heap:
            raise CatalogError(f"heap {self.name!r} has no key access")
        key = tuple(key)
        key_bytes = self.accessor.key_codec.encode(key)
        self.snap.ensure_readable(self.info.object_id, key_bytes)
        return self.accessor.get(key)

    def scan(self, lo: tuple | None = None, hi: tuple | None = None):
        self.snap.ensure_readable(self.info.object_id)
        if self.info.is_heap:
            yield from self.accessor.scan()
        else:
            yield from self.accessor.scan(lo, hi)


def snapshot_analysis(db, split: int) -> tuple[AnalysisResult, int]:
    """Section 5.2's analysis for a snapshot at ``split``: the analysis
    result and the retention pin.

    The log's transaction directory says who was in flight at the split.
    With nobody, no log is read. Otherwise the window runs from the
    oldest loser's BEGIN to the split, so it holds every record of every
    loser and their lock sets come out whole; a loser begun below the
    retained log raises :class:`LogTruncatedError`.

    The pin covers that BEGIN and the newest checkpoint at or before the
    split: a pooled split is found again through :func:`find_split_lsn`,
    which needs a kept checkpoint at or before it.
    """
    log = db.log
    pin = min(analysis_base(log, split, log.start_lsn), split)
    begins = log.in_flight(split)
    if not begins:
        return AnalysisResult(), pin
    start = min(begins.values())
    return analyze_log(log, start, split + 1), min(pin, start)


class AsOfSnapshot:
    """A read-only replica of ``db`` as of a past SplitLSN."""

    def __init__(
        self, db, name: str, split_lsn: int, *, analysis=None, side_file: bool = True
    ) -> None:
        self.db = db
        self.name = name
        self.split_lsn = split_lsn
        #: Serializes the frame cache, sparse file, table/tree caches and
        #: pending-undo state: pooled snapshots are leased by many
        #: sessions at once (refcount > 1).
        self.latch = Latch(f"asof:{name}")
        self.env = db.env
        self.log = db.log
        #: The paper's sparse side file, or ``None`` for a pooled snapshot:
        #: its frames are then the one tier, and nothing trims them.
        self.sparse = (
            SparseFile(db.config.page_size, db.env.data_device, db.env.stats)
            if side_file
            else None
        )
        self.modifier = UnloggedModifier(db.env)
        self.alloc = SnapshotAllocator()
        self.services = BTreeServices(
            env=db.env,
            fetch=self.fetch_page,
            modifier=self.modifier,
            alloc=self.alloc,
            system_txn=None,
        )
        self.catalog = Catalog(self.services)
        self._frames: dict[int, Frame] = {}
        self._table_cache: dict[str, SnapshotTable] = {}
        self._tree_cache: dict[int, BTree] = {}
        self.dropped = False
        #: Oldest LSN this snapshot may still need from the primary's log
        #: (analysis base and in-flight undo chains); pooled snapshots
        #: report it to retention enforcement so the log is not truncated
        #: out from under a cached entry.
        self.retention_pin_lsn = split_lsn
        #: In-flight transactions at the SplitLSN, pending logical undo:
        #: txn_id -> last LSN (≤ split).
        self._pending_undo: dict[int, int] = {}
        #: Re-acquired lock sets: txn_id -> [(object_id, key_bytes), ...].
        self._pending_locks: dict[int, list] = {}
        if analysis is not None:
            self._pending_undo = dict(analysis.losers)
            self._pending_locks = {
                txn_id: list(keys) for txn_id, keys in analysis.loser_locks.items()
            }

    # ------------------------------------------------------------------
    # Creation (paper section 5.1 / 5.2)
    # ------------------------------------------------------------------

    @classmethod
    def resolve_split(cls, db, as_of_wall: float) -> int:
        """Translate a wall-clock as-of time to a SplitLSN, enforcing the
        retention window (section 4.3) first."""
        now = db.env.clock.now()
        if as_of_wall < now - db.undo_interval_s:
            raise RetentionExceededError(
                f"as-of time {as_of_wall:.3f}s is outside the retention "
                f"window of {db.undo_interval_s:.0f}s"
            )
        return find_split_lsn(db, as_of_wall)

    @classmethod
    def create(cls, db, name: str, as_of_wall: float) -> "AsOfSnapshot":
        """Create an as-of snapshot of ``db`` at simulated time
        ``as_of_wall``."""
        split = cls.resolve_split(db, as_of_wall)
        return cls.create_at_split(db, name, split)

    @classmethod
    def create_at_split(
        cls, db, name: str, split: int, *, side_file: bool = True
    ) -> "AsOfSnapshot":
        """Create an as-of snapshot at an already-resolved SplitLSN.

        The wall-clock retention check can pass while the analysis window
        still crosses the retention horizon (e.g. the log was truncated
        more aggressively than the undo interval implies, or an in-flight
        transaction's chain reaches below the horizon): surface that as
        :class:`RetentionExceededError` rather than leaking the
        storage-level :class:`LogTruncatedError`.
        """
        try:
            # A named snapshot (``side_file``) takes section 5.1's sharp
            # checkpoint: every page with LSN <= split durable in the
            # primary files. A pooled one never reads those files — it
            # rewinds the primary's buffered page — so it writes only the
            # forced checkpoint records, an anchor for later splits. A
            # read-only target (a replication standby) writes neither:
            # its pages are only ever written by redo apply, so its
            # buffered state already covers the split, and appending to
            # its log would corrupt the shipped stream's LSN space.
            if not db.read_only:
                db.checkpoint(sharp=side_file)
            snap = cls.recover_at(db, name, split, side_file=side_file)
        except LogTruncatedError as err:
            raise RetentionExceededError(
                f"snapshot at split {split:#x} needs log below the "
                f"retention horizon (truncated at "
                f"{db.log.start_lsn:#x}): {err}"
            ) from err
        return snap

    @classmethod
    def recover_at(
        cls, db, name: str, split: int, *, side_file: bool = True
    ) -> "AsOfSnapshot":
        """Snapshot recovery (section 5.2) at ``split``.

        :func:`snapshot_analysis`, bounded at the split: the transactions
        in flight at that point plus the row locks the redo pass
        re-acquires (no page reads happen). Their rollback is the same
        :func:`~repro.txn.undo.rollback_losers` stage crash recovery and
        restores run, deferred until a read needs it.
        """
        analysis, pin = snapshot_analysis(db, split)
        snap = cls(db, name, split, analysis=analysis, side_file=side_file)
        snap.retention_pin_lsn = pin
        return snap

    # ------------------------------------------------------------------
    # Page access (paper section 5.3)
    # ------------------------------------------------------------------

    def fetch_page(self, page_id: int, create: bool = False):
        """Serve a page as of the SplitLSN.

        Order: snapshot frame cache → sparse file → cross-snapshot
        version store → redo onto the store's older image whose chain
        reaches past the split, or physical undo from the store's nearest
        newer image or the primary's page (published to the store, cached
        back into the sparse file when the snapshot has one).

        The frame wraps the prepared image itself, the same ``bytes``
        object the store keeps, in a :class:`ReadOnlyPage`. Only while
        losers are pending does a frame get a private ``bytearray``: those
        are the pages section 5.2's logical undo writes. Pending undo only
        ever shrinks, so a page framed read-only is never written.
        """
        with self.latch:
            self._check_alive()
            frame = self._frames.get(page_id)
            if frame is not None:
                frame.pin_count += 1
                return _SnapshotGuard(self, frame)
            sparse = self.sparse
            if sparse is not None and page_id in sparse:
                page = Page(sparse.read(page_id))
            elif create or page_id >= _VIRTUAL_PAGE_BASE:
                page = Page(bytearray(self.db.config.page_size))
            else:
                image = self._prepare_page(page_id)
                if sparse is not None:
                    sparse.write(page_id, image)
                if self._pending_undo:
                    page = Page(bytearray(image))
                else:
                    page = ReadOnlyPage(image)
            frame = Frame(page, page_id)
            frame.pin_count = 1
            self._frames[page_id] = frame
            # Keep the frame cache bounded; sparse is the durable tier.
            if sparse is not None and len(self._frames) > 256:
                for pid in list(self._frames):
                    candidate = self._frames[pid]
                    if candidate.pin_count == 0 and not candidate.dirty:
                        del self._frames[pid]
                    if len(self._frames) <= 128:
                        break
            return _SnapshotGuard(self, frame)

    def _prepare_page(self, page_id: int) -> bytes:
        """Materialize the page image as of the SplitLSN, as one ``bytes``
        object: the store's own when it holds the version.

        Probes the engine-wide version store first — a hit hands back the
        stored image, uncopied, and skips the chain walk entirely. A miss starts from the
        nearest stored image of the page on either side of the split:

        * an *older* version whose proven chain reaches past the split is
          rolled forward: the chain records between it and the split are
          redone onto it (:func:`roll_page_forward`);
        * a *newer* version below the ceiling is walked down (a *resume*):
          only the chain records between the split and that image are
          undone;
        * with neither, the walk starts from the primary's current page.

        The store picks the cheaper of the first two by the records their
        chains prove. The result's interval and chain are published back,
        so the *next* snapshot whose split lands inside the interval (a
        nearby audit read, a lease over a standby, a recreated pooled entry)
        hits, and one whose split lies further on rolls forward.
        """
        tracer = self.env.tracer
        split = self.split_lsn
        with tracer.span("asof.prepare_page", page=page_id) as prep_span:
            store = getattr(self.db, "version_store", None)
            store_key = getattr(self.db, "version_store_key", self.db.name)
            # The ceiling: where the history this database's pages hold
            # ends. On a standby it is the applied prefix (its pages trail
            # its shipped log). On a primary it is the live log end, which
            # bounds no resume (every version stored under a primary's key
            # lies below it, since a crash drops those above what survived),
            # so only a publish reads it.
            ceiling = getattr(self.db, "publish_horizon_lsn", None)
            found = None
            if store is not None:
                with tracer.span("version_store.lookup", page=page_id) as probe:
                    found = store.lookup(
                        store_key, page_id, split, self.log.start_lsn, ceiling
                    )
                    hit = found is not None and found.version_lsn <= split and not found.redo
                    probe.set(hit=hit, resumed=found is not None and found.version_lsn > split)
                if hit:
                    return found.data
            version = None
            if found is not None and found.redo:
                data = bytearray(found.data)
                try:
                    with tracer.span("asof.roll_forward", page=page_id, records=found.redo):
                        version = roll_page_forward(
                            Page(data), found.chain, found.redo, self.log, self.env
                        )
                except LogTruncatedError:
                    # A retention truncation passed the chain's first
                    # record after the probe. The walk down from the
                    # current page reads nothing below the split.
                    found = None
            if version is None:
                if found is not None:
                    data = bytearray(found.data)
                else:
                    with self.db.buffer.fetch(page_id) as guard:
                        data = bytearray(guard.page.data)
                with tracer.span("asof.chain_walk", page=page_id):
                    version = prepare_page_version(Page(data), split, self.log, self.env)
            image = bytes(data)
            if store is not None and version is not None:
                limit = version.limit_lsn
                if limit is None:
                    # The walk proved no modification above the split in
                    # the page's current state: the image stays valid for
                    # every split up to the ceiling (a crash discarding the
                    # volatile tail invalidates).
                    limit = ceiling if ceiling is not None else self.log.end_lsn
                if limit > split:
                    # A resumed walk's chain ends at the image it started
                    # from; that version keeps its own chain for the splits
                    # above it.
                    image = store.publish(
                        store_key,
                        page_id,
                        version.version_lsn,
                        limit,
                        image,
                        version.chain,
                    )
                    prep_span.set(published=True)
            return image

    # ------------------------------------------------------------------
    # Background logical undo (paper section 5.2)
    # ------------------------------------------------------------------

    @property
    def pending_undo_count(self) -> int:
        return len(self._pending_undo)

    def run_background_undo(self, txn_ids=None) -> int:
        """Undo in-flight transactions on the snapshot; returns how many.

        With ``txn_ids=None`` undoes all pending transactions (driving the
        "background" pass to completion); otherwise only the given ones
        (used when a query blocks on their locks).
        """
        with self.latch:
            return self._run_background_undo_locked(txn_ids)

    def _run_background_undo_locked(self, txn_ids=None) -> int:
        pending = self._pending_undo
        if txn_ids is None:
            txn_ids = list(pending)

        def forget(loser) -> None:
            del pending[loser.txn_id]
            self._pending_locks.pop(loser.txn_id, None)

        return rollback_losers(
            self, {t: pending[t] for t in txn_ids if t in pending}, forget
        )

    def ensure_readable(self, object_id: int, key_bytes: bytes | None = None) -> None:
        """Block-equivalent of lock acquisition: a read touching data locked
        by a pending in-flight transaction completes that transaction's
        undo first, so queries only ever see committed-as-of-split data."""
        if not self._pending_undo:
            return
        with self.latch:
            conflicting = [
                txn_id
                for txn_id, keys in self._pending_locks.items()
                if any(
                    obj == object_id and (key_bytes is None or kb == key_bytes)
                    for obj, kb in keys
                )
            ]
            if conflicting:
                self.env.stats.lock_waits += len(conflicting)
                self.run_background_undo(conflicting)

    # ------------------------------------------------------------------
    # Undo-context protocol (consumed by LogicalUndo)
    # ------------------------------------------------------------------

    def tree_for_object(self, object_id: int) -> BTree | None:
        if object_id == SYS_OBJECTS_ID:
            return self.catalog.sys_objects
        if object_id == SYS_COLUMNS_ID:
            return self.catalog.sys_columns
        with self.latch:
            tree = self._tree_cache.get(object_id)
            if tree is not None:
                return tree
            info = self.catalog.get_by_id(object_id)
            if info is None or info.is_heap:
                return None
            tree = self.catalog.accessor(info, self.catalog.load_schema(info))
            self._tree_cache[object_id] = tree
            return tree

    # ------------------------------------------------------------------
    # Reader protocol
    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dropped:
            raise SnapshotError(f"snapshot {self.name!r} was dropped")

    def table(self, name: str) -> SnapshotTable:
        self._check_alive()
        with self.latch:
            cached = self._table_cache.get(name)
            if cached is not None:
                return cached
            # Catalog reads respect pending DDL undo.
            self.ensure_readable(SYS_OBJECTS_ID)
            self.ensure_readable(SYS_COLUMNS_ID)
            info = self.catalog.require(name)
            schema = self.catalog.load_schema(info)
            handle = SnapshotTable(self, info, schema)
            self._table_cache[name] = handle
            return handle

    def table_exists(self, name: str) -> bool:
        self._check_alive()
        self.ensure_readable(SYS_OBJECTS_ID)
        return self.catalog.get_by_name(name) is not None

    def tables(self) -> list[str]:
        self._check_alive()
        self.ensure_readable(SYS_OBJECTS_ID)
        return [obj.name for obj in self.catalog.list_objects()]

    def get(self, table: str, key: tuple):
        return self.table(table).get(tuple(key))

    def scan(self, table: str, lo: tuple | None = None, hi: tuple | None = None):
        return self.table(table).scan(lo, hi)

    def schema(self, table: str):
        return self.table(table).schema

    # ------------------------------------------------------------------

    def side_file_bytes(self) -> int:
        """Sparse-file space consumed (the paper's space-efficiency metric).

        A snapshot without a side file reports what its frames would have
        taken there, page size × frames: the charge a snapshot pool's byte
        budget makes.
        """
        with self.latch:
            if self.sparse is None:
                return len(self._frames) * self.db.config.page_size
            return self.sparse.bytes_used()

    def drop(self) -> None:
        """Discard the snapshot and its side file."""
        with self.latch:
            self.dropped = True
            self._frames.clear()
            self._table_cache.clear()
            self._tree_cache.clear()
            if self.sparse is not None:
                self.sparse.clear()

    def __repr__(self) -> str:
        if self.sparse is None:
            tier = f"frames={len(self._frames)}"
        else:
            tier = f"sparse_pages={self.sparse.page_count}"
        return (
            f"AsOfSnapshot({self.name!r} of {self.db.name!r}, "
            f"split={self.split_lsn:#x}, {tier}, "
            f"pending_undo={len(self._pending_undo)})"
        )
