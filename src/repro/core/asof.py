"""As-of database snapshots (paper section 5).

An :class:`AsOfSnapshot` presents a transactionally consistent, read-only
view of a database as of an arbitrary past point in time:

* **Creation** (section 5.1): translate the wall-clock time to the
  SplitLSN, create the sparse side file, and checkpoint the primary so
  every page with LSN ≤ SplitLSN is durable.
* **Recovery** (section 5.2): run the analysis pass from the checkpoint
  preceding the SplitLSN up to the SplitLSN to find transactions in flight
  at that point; the redo pass does **no page I/O** — it only re-acquires
  those transactions' locks. Their logical undo runs lazily ("in the
  background"): queries are admitted immediately, and a read that touches
  a locked row drives the conflicting transaction's undo to completion
  first.
* **Page access** (section 5.3): sparse-file hit → serve; miss → probe
  the engine's cross-snapshot
  :class:`~repro.core.version_store.PageVersionStore` for a prepared
  image whose validity interval covers the SplitLSN (skipping the whole
  chain walk — the cost Figure 11 shows dominating as-of reads); store
  miss → read the current page from the primary,
  ``PreparePageAsOf(page, SplitLSN)``, publish the result's interval to
  the store, and cache it in the sparse file. Previous versions are
  generated only for pages queries actually touch.

The snapshot exposes the same reader protocol as a live database (catalog,
``get``, ``scan``), because to "all the other components in the database
engine" a snapshot is just a read-only database (section 2.2).
"""

from __future__ import annotations

from repro.access.btree import BTree, BTreeServices
from repro.access.heap import Heap
from repro.catalog.catalog import (
    SYS_COLUMNS_ID,
    SYS_OBJECTS_ID,
    Catalog,
    ObjectInfo,
)
from repro.core.page_undo import prepare_page_version
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.recovery import analyze_log
from repro.latch import Latch
from repro.errors import (
    CatalogError,
    LogTruncatedError,
    RetentionExceededError,
    SnapshotError,
)
from repro.storage.buffer import Frame
from repro.storage.page import Page
from repro.storage.sparsefile import SparseFile
from repro.txn.undo import rollback_losers
from repro.wal.apply import UnloggedModifier
from repro.wal.lsn import NULL_LSN
from repro.wal.records import BeginRecord, ClrRecord

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


class _SnapshotGuard:
    """Pin guard that writes dirty snapshot pages through to the sparse
    file on release (paper section 5.3's write-back of undone pages)."""

    __slots__ = ("_snap", "frame")

    def __init__(self, snap: "AsOfSnapshot", frame: Frame) -> None:
        self._snap = snap
        self.frame = frame
        with snap.latch:
            frame.pin_count += 1

    @property
    def page(self) -> Page:
        return self.frame.page

    @property
    def page_id(self) -> int:
        return self.frame.page_id

    def mark_dirty(self) -> None:
        self.frame.mark_dirty()

    def __enter__(self) -> "_SnapshotGuard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._snap.latch:
            self.frame.pin_count -= 1
            if self.frame.dirty:
                self._snap.sparse.write(
                    self.frame.page_id, bytes(self.frame.page.data)
                )
                self.frame.dirty = False


class SnapshotTable:
    """Read-only table handle over a snapshot."""

    def __init__(self, snap: "AsOfSnapshot", info: ObjectInfo, schema) -> None:
        self.snap = snap
        self.info = info
        self.schema = schema
        if info.is_heap:
            self.accessor = Heap(
                object_id=info.object_id,
                first_page_id=info.root_page,
                schema=schema,
                services=snap.services,
            )
        else:
            self.accessor = BTree(
                object_id=info.object_id,
                root_page_id=info.root_page,
                schema=schema,
                services=snap.services,
            )

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


class AsOfSnapshot:
    """A read-only replica of ``db`` as of a past SplitLSN."""

    def __init__(self, db, name: str, split_lsn: int, *, analysis=None) -> None:
        self.db = db
        self.name = name
        self.split_lsn = split_lsn
        #: Serializes the frame cache, sparse file, table/tree caches and
        #: pending-undo state: pooled snapshots are leased by many
        #: sessions at once (refcount > 1).
        self.latch = Latch(f"asof:{name}")
        self.env = db.env
        self.log = db.log
        self.sparse = SparseFile(
            db.config.page_size, db.env.data_device, db.env.stats
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
        #: Losers whose chains may reach below the analysis window.
        self._checkpoint_seeded: set = set()
        if analysis is not None:
            self._pending_undo = dict(analysis.losers)
            self._pending_locks = {
                txn_id: list(keys) for txn_id, keys in analysis.loser_locks.items()
            }
            self._checkpoint_seeded = set(analysis.checkpoint_seeded) & set(
                self._pending_undo
            )

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
    def create_at_split(cls, db, name: str, split: int) -> "AsOfSnapshot":
        """Create an as-of snapshot at an already-resolved SplitLSN.

        The wall-clock retention check can pass while the checkpoint chain
        or the analysis window still crosses the retention horizon (e.g.
        the log was truncated more aggressively than the undo interval
        implies, or an in-flight transaction's chain reaches below the
        horizon) — surface that as :class:`RetentionExceededError` rather
        than leaking the storage-level :class:`LogTruncatedError`.
        """
        try:
            # Make every page with LSN <= split durable in the primary
            # files. A read-only target (a replication standby) cannot —
            # and need not — checkpoint: its pages are only ever written
            # by redo apply, so its buffered state already covers the
            # split, and appending to its log would corrupt the shipped
            # stream's LSN space.
            if not db.read_only:
                db.checkpoint()
            snap = cls.recover_at(db, name, split)
        except LogTruncatedError as err:
            raise RetentionExceededError(
                f"snapshot at split {split:#x} needs log below the "
                f"retention horizon (truncated at "
                f"{db.log.start_lsn:#x}): {err}"
            ) from err
        return snap

    @classmethod
    def recover_at(cls, db, name: str, split: int) -> "AsOfSnapshot":
        """Snapshot recovery (section 5.2) at ``split``.

        Analysis from the checkpoint preceding the split, bounded at the
        split: yields the transactions in flight at that point plus the
        row locks the redo pass re-acquires (no page reads happen). Their
        rollback is the same :func:`~repro.txn.undo.rollback_losers` stage
        crash recovery and restores run, deferred until a read needs it.
        """
        base = analysis_base(db, split, db.log.start_lsn)
        analysis = analyze_log(db.log, base, split + 1)
        snap = cls(db, name, split, analysis=analysis)
        snap.retention_pin_lsn = min(base, split)
        snap._collect_missing_locks()
        return snap

    def _collect_missing_locks(self) -> None:
        """Walk chains of in-flight transactions whose modifications may
        precede the analysis window: re-acquire their locks and deepen the
        retention pin to the oldest chained LSN.

        Transactions discovered *inside* the window whose locks analysis
        already collected begin at or after the window base, so they need
        no walk; checkpoint-seeded ones can chain arbitrarily far back and
        are always walked (their depth is what the pin must cover).
        """
        pin = self.retention_pin_lsn
        for txn_id, last_lsn in self._pending_undo.items():
            have_locks = txn_id in self._pending_locks
            if have_locks and txn_id not in self._checkpoint_seeded:
                continue
            keys = []
            cur = last_lsn
            while cur != NULL_LSN:
                pin = min(pin, cur)
                rec = self.log.read(cur)
                if isinstance(rec, BeginRecord):
                    break
                if isinstance(rec, ClrRecord):
                    cur = rec.undo_next_lsn
                    continue
                if not have_locks:
                    key_bytes = getattr(rec, "key_bytes", b"")
                    if key_bytes and not rec.is_smo:
                        keys.append((rec.object_id, key_bytes))
                cur = rec.prev_txn_lsn
            if keys and not have_locks:
                self._pending_locks[txn_id] = keys
        self.retention_pin_lsn = pin

    # ------------------------------------------------------------------
    # Page access (paper section 5.3)
    # ------------------------------------------------------------------

    def fetch_page(self, page_id: int, create: bool = False):
        """Serve a page as of the SplitLSN.

        Order: snapshot frame cache → sparse file → cross-snapshot
        version store → primary + physical undo (published to the store,
        cached back into the sparse file).
        """
        with self.latch:
            self._check_alive()
            frame = self._frames.get(page_id)
            if frame is not None:
                return _SnapshotGuard(self, frame)
            if page_id in self.sparse:
                data = self.sparse.read(page_id)
            elif create or page_id >= _VIRTUAL_PAGE_BASE:
                data = bytearray(self.db.config.page_size)
            else:
                data = self._prepare_page(page_id)
                self.sparse.write(page_id, bytes(data))
            frame = Frame(Page(data), page_id)
            self._frames[page_id] = frame
            # Keep the frame cache bounded; sparse is the durable tier.
            if len(self._frames) > 256:
                for pid in list(self._frames):
                    candidate = self._frames[pid]
                    if (
                        candidate.pin_count == 0
                        and not candidate.dirty
                        and pid != page_id
                    ):
                        del self._frames[pid]
                    if len(self._frames) <= 128:
                        break
            return _SnapshotGuard(self, frame)

    def _prepare_page(self, page_id: int) -> bytearray:
        """Materialize the page image as of the SplitLSN.

        Probes the engine-wide version store first — a hit is a memory
        copy that skips the chain walk entirely. On a miss the page is
        prepared from the primary's current image and the walk's proven
        validity interval is published back, so the *next* snapshot whose
        split lands inside the interval (a nearby audit read, a replica's
        pool, a recreated pooled entry) hits.
        """
        tracer = self.env.tracer
        with tracer.span("asof.prepare_page", page=page_id) as prep_span:
            store = getattr(self.db, "version_store", None)
            store_key = getattr(self.db, "version_store_key", self.db.name)
            if store is not None:
                with tracer.span("version_store.lookup", page=page_id) as probe:
                    cached = store.lookup(store_key, page_id, self.split_lsn)
                    probe.set(hit=cached is not None)
                if cached is not None:
                    return bytearray(cached)
            with self.db.buffer.fetch(page_id) as guard:
                data = bytearray(guard.page.data)
            page = Page(data)
            with tracer.span("asof.chain_walk", page=page_id):
                version = prepare_page_version(
                    page, self.split_lsn, self.log, self.env
                )
            if store is not None and version is not None:
                limit = version.limit_lsn
                if limit is None:
                    # The walk proved no modification above the split in
                    # the page's current state: the image stays valid for
                    # every split up to the present log end (clamped to
                    # the applied prefix on a replica, whose pages trail
                    # its shipped log; a crash discarding the volatile
                    # tail invalidates).
                    horizon = getattr(self.db, "publish_horizon_lsn", None)
                    limit = horizon if horizon is not None else self.log.end_lsn
                if limit > self.split_lsn:
                    store.publish(
                        store_key, page_id, version.version_lsn, limit, bytes(data)
                    )
                    prep_span.set(published=True)
            return data

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
            schema = self.catalog.load_schema(info)
            tree = BTree(
                object_id=object_id,
                root_page_id=info.root_page,
                schema=schema,
                services=self.services,
            )
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
        """Sparse-file space consumed (the paper's space-efficiency metric)."""
        with self.latch:
            return self.sparse.bytes_used()

    def drop(self) -> None:
        """Discard the snapshot and its side file."""
        with self.latch:
            self.dropped = True
            self._frames.clear()
            self._table_cache.clear()
            self._tree_cache.clear()
            self.sparse.clear()

    def __repr__(self) -> str:
        return (
            f"AsOfSnapshot({self.name!r} of {self.db.name!r}, "
            f"split={self.split_lsn:#x}, sparse_pages={self.sparse.page_count}, "
            f"pending_undo={len(self._pending_undo)})"
        )
