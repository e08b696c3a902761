"""The Database: storage, WAL, transactions, catalog and API assembled.

One :class:`Database` owns one data file, one log, one buffer pool and one
catalog. It implements the *undo context* protocol (``env``, ``log``,
``modifier``, ``fetch_page``, ``tree_for_object``) consumed by
:mod:`repro.txn.undo`, and the *reader* protocol (``get``/``scan``/
``tables``) shared with snapshots so queries and workloads run unchanged
against either.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.access.btree import BTree, BTreeServices
from repro.catalog.catalog import (
    KIND_HEAP,
    KIND_TABLE,
    Catalog,
    ObjectInfo,
)
from repro.catalog.schema import TableSchema
from repro.config import DatabaseConfig, SimEnv
from repro.engine.boot import BOOT_PAGE_ID, BOOT_SLOT, BootRecord, read_boot_record
from repro.latch import Latch
from repro.errors import (
    CatalogError,
    DatabaseUnavailableError,
    SnapshotReadOnlyError,
    StorageError,
)
from repro.storage.allocation import AllocationManager
from repro.storage.buffer import BufferPool
from repro.storage.datafile import FileManager, MemoryDataFile
from repro.storage.page import PageType
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.wal.apply import PageModifier
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import InsertRowRecord, UpdateBytesRecord


class Table:
    """Handle for one user table (B-tree) or heap."""

    def __init__(self, db: "Database", info: ObjectInfo, schema: TableSchema) -> None:
        self.db = db
        self.info = info
        self.schema = schema
        self.accessor = db.catalog.accessor(info, schema)

    @property
    def name(self) -> str:
        return self.info.name

    def _row(self, row) -> tuple:
        if isinstance(row, dict):
            return self.schema.row_from_dict(row)
        return tuple(row)

    def _lock_key(self, key: tuple) -> tuple:
        if self.info.is_heap:
            return (self.info.object_id,)
        return (self.info.object_id, self.accessor.key_codec.encode(key))

    # -- writes ---------------------------------------------------------

    def insert(self, txn: Transaction, row) -> None:
        self.db.require_writable()
        txn.require_active()
        values = self._row(row)
        if self.info.is_heap:
            # Heap appends never conflict: slots are stable (rollback
            # tombstones in place) and heaps enforce no uniqueness.
            self.accessor.insert(txn, values)
            return
        key = self.schema.key_of(values)
        self.db.locks.acquire(txn, self._lock_key(key), LockMode.EXCLUSIVE, self.db.env.stats)
        self.accessor.insert(txn, values)

    def update(self, txn: Transaction, key: tuple, changes: dict) -> tuple:
        """Update non-key columns of the row at ``key``; returns new row."""
        self.db.require_writable()
        txn.require_active()
        if self.info.is_heap:
            raise CatalogError(f"heap {self.name!r} does not support update")
        key = tuple(key)
        self.db.locks.acquire(txn, self._lock_key(key), LockMode.EXCLUSIVE, self.db.env.stats)
        schema, tree = self.schema, self.accessor
        new_row = None

        def rewrite(old_bytes: bytes) -> bytes:
            nonlocal new_row
            row = list(tree.codec.decode(old_bytes))
            for name, value in changes.items():
                if name not in schema.positions:
                    unknown = sorted(set(changes) - set(schema.positions))
                    raise ValueError(f"unknown columns for {schema.name!r}: {unknown}")
                row[schema.positions[name]] = value
            new_row = tuple(row)
            if schema.key_of(new_row) != key:
                raise StorageError(f"{schema.name}: update must preserve the key")
            return tree.codec.encode(new_row)

        # The sim clock prices an UPDATE as a point read plus the rewrite.
        self.db.env.charge_cpu(self.db.env.cost.query_row_cpu_s)
        tree._update_bytes(txn, key, rewrite)
        return new_row

    def delete(self, txn: Transaction, key: tuple) -> tuple:
        self.db.require_writable()
        txn.require_active()
        if self.info.is_heap:
            raise CatalogError(f"heap {self.name!r} does not support delete")
        key = tuple(key)
        self.db.locks.acquire(txn, self._lock_key(key), LockMode.EXCLUSIVE, self.db.env.stats)
        return self.accessor.delete(txn, key)

    # -- reads ----------------------------------------------------------

    def get(self, key: tuple, txn: Transaction | None = None) -> tuple | None:
        if self.info.is_heap:
            raise CatalogError(f"heap {self.name!r} has no key access")
        key = tuple(key)
        if txn is not None:
            self.db.locks.acquire(txn, self._lock_key(key), LockMode.SHARED, self.db.env.stats)
        return self.accessor.get(key)

    def scan(self, lo: tuple | None = None, hi: tuple | None = None):
        if self.info.is_heap:
            yield from self.accessor.scan()
        else:
            yield from self.accessor.scan(lo, hi)

    def count(self) -> int:
        return self.accessor.count()


class Database:
    """A single primary database."""

    def __init__(
        self,
        name: str,
        config: DatabaseConfig | None = None,
        env: SimEnv | None = None,
        *,
        bootstrap: bool = True,
    ) -> None:
        self.name = name
        #: Per-database write latch: one writing transaction at a time.
        #: ``transaction()`` and ``run_system_txn`` take it for their
        #: whole begin→commit span (reentrant, so system transactions
        #: nested inside a user transaction just re-enter); the SQL
        #: executor's explicit BEGIN/COMMIT holds it across statements.
        #: Reads (current and AS OF) never take it.
        self.write_latch = Latch(f"db:{name}:write")
        self.config = config if config is not None else DatabaseConfig()
        self.config.validate()
        self.env = env if env is not None else SimEnv.for_tests()
        self.file_manager = FileManager(
            MemoryDataFile(self.config.page_size), self.env.data_device, self.env.stats
        )
        self.log = LogManager(
            self.env,
            block_size=self.config.log_block_size,
            cache_blocks=self.config.log_cache_blocks,
        )
        self.buffer = BufferPool(
            self.file_manager,
            self.config.buffer_pool_pages,
            self.env.stats,
            self.log,
        )
        self.locks = LockManager()
        self.txns = TransactionManager(self.env, self.log, self.locks)
        self.txns.undo_context = self
        self.modifier = PageModifier(self.log, self.config.extensions, self.env)
        self.alloc = AllocationManager(self.buffer, self.modifier, self.run_system_txn)
        self.services = BTreeServices(
            env=self.env,
            fetch=self.fetch_page,
            modifier=self.modifier,
            alloc=self.alloc,
            system_txn=self.run_system_txn,
        )
        self.catalog = Catalog(self.services)
        self.read_only = False
        #: Set when chaos halts this primary (engine.crash_database): the
        #: write path refuses service until failover retires the node.
        self.crashed = False
        #: Set by :meth:`close`: the database left the engine and gave
        #: its memory back.
        self.closed = False
        self.last_checkpoint_lsn = NULL_LSN
        self._boot_cache: BootRecord | None = None
        self._table_cache: dict[str, Table] = {}
        self._tree_cache: dict[int, BTree] = {}
        #: Registered snapshot objects (engine wires these).
        self.snapshots: dict[str, object] = {}
        #: Callables returning an LSN the log must retain (or ``NULL_LSN``
        #: / ``None`` for "no pin"). Registered by the engine's snapshot
        #: pool and by log shippers with lagging standbys; consulted by
        #: :func:`repro.core.retention.enforce_retention`.
        self.retention_pins: list = []
        #: When set, overrides the boot record's ``undo_interval_s`` for
        #: retention checks. Replicas retain their whole shipped log, so
        #: they set this to ``inf`` — reachability is then bounded by the
        #: log itself, not the primary's configured window.
        self.retention_override_s: float | None = None
        #: Engine-owned cross-snapshot page version store (wired by the
        #: engine; ``None`` for standalone/restored databases).
        self.version_store = None
        #: Store key identifying this database's *log history*. Replicas
        #: publish under their primary's key — their shipped log is
        #: byte-identical, so their prepared pages are too.
        self.version_store_key: str = name
        #: Upper bound for open-ended published intervals; replicas set
        #: it to their applied LSN (their pages trail the shipped log).
        self.publish_horizon_lsn: int | None = None
        if not bootstrap:
            # A shell for log-shipping replication: state materializes by
            # replaying the primary's log from its very first record (the
            # primary's own bootstrap is logged, so the boot page, catalog
            # and allocation map all arrive through redo). Restores and
            # backup-seeded standbys use it too, via ``adopt_backup``.
            return
        if self._is_fresh():
            self._bootstrap()
        else:
            self.reload_boot()

    # ------------------------------------------------------------------
    # Bootstrap / boot page
    # ------------------------------------------------------------------

    def _is_fresh(self) -> bool:
        return (
            self.log.end_lsn == FIRST_LSN
            and self.file_manager.page_count == 0
        )

    def _bootstrap(self) -> None:
        """Create the boot page, allocation map, and system catalog."""
        from repro.catalog.catalog import (
            KIND_SYSTEM,
            SYS_COLUMNS_ID,
            SYS_COLUMNS_ROOT,
            SYS_COLUMNS_SCHEMA,
            SYS_OBJECTS_ID,
            SYS_OBJECTS_ROOT,
            SYS_OBJECTS_SCHEMA,
        )

        txn = self.txns.begin(system=True)
        with self.fetch_page(BOOT_PAGE_ID, create=True) as guard:
            self.modifier.format_page(txn, guard, PageType.BOOT)
            boot = BootRecord(
                last_checkpoint_lsn=NULL_LSN,
                undo_interval_s=self.config.undo_interval_s,
                created_wall=self.env.clock.now(),
            )
            rec = InsertRowRecord(
                slot=BOOT_SLOT,
                row=boot.pack(),
                page_id=BOOT_PAGE_ID,
                object_id=0,
            )
            self.modifier.apply(txn, guard, rec)
        for expected_root in (SYS_OBJECTS_ROOT, SYS_COLUMNS_ROOT):
            pid, was_ever = self.alloc.allocate(txn, None)
            if pid != expected_root:
                raise CatalogError(
                    f"bootstrap allocated page {pid}, expected {expected_root}"
                )
            guard = self.fetch_page(pid, create=True)
            with guard:
                self.modifier.format_page(
                    txn,
                    guard,
                    PageType.BTREE,
                    object_id=SYS_OBJECTS_ID if pid == SYS_OBJECTS_ROOT else SYS_COLUMNS_ID,
                    level=0,
                    was_ever_allocated=was_ever,
                )
        self.catalog.sys_objects.insert(
            txn, (SYS_OBJECTS_ID, "sys_objects", KIND_SYSTEM, SYS_OBJECTS_ROOT)
        )
        self.catalog.sys_objects.insert(
            txn, (SYS_COLUMNS_ID, "sys_columns", KIND_SYSTEM, SYS_COLUMNS_ROOT)
        )
        for object_id, schema in (
            (SYS_OBJECTS_ID, SYS_OBJECTS_SCHEMA),
            (SYS_COLUMNS_ID, SYS_COLUMNS_SCHEMA),
        ):
            key_order = {name: pos for pos, name in enumerate(schema.key)}
            for pos, col in enumerate(schema.columns):
                self.catalog.sys_columns.insert(
                    txn,
                    (
                        object_id,
                        pos,
                        col.name,
                        col.ctype.value,
                        col.max_len,
                        col.nullable,
                        col.name in key_order,
                        key_order.get(col.name, 0),
                    ),
                )
        self.txns.commit(txn)
        self.checkpoint()

    def reload_boot(self) -> None:
        """(Re)read the boot page into the metadata cache.

        Replicas and restore paths call this after materializing or
        replaying the boot page; it is the public counterpart of
        :meth:`invalidate_caches` for state that must be *eagerly*
        refreshed (``last_checkpoint_lsn`` feeds recovery decisions).
        """
        with self.fetch_page(BOOT_PAGE_ID) as guard:
            boot = read_boot_record(guard.page)
        self._boot_cache = boot
        self.last_checkpoint_lsn = boot.last_checkpoint_lsn

    def adopt_backup(
        self, pages: dict[int, bytes], log_start_lsn: int, source_log
    ) -> None:
        """Start a ``bootstrap=False`` shell from backup pages.

        The pages are laid down as the data file and the (still pristine)
        log is rebased so its first record lands at ``log_start_lsn``:
        everything below lives in the pages, or in ``source_log``, never
        here — so whatever this shell logs next (a restore's compensation
        records, a standby's shipped stream) continues the source
        history's LSN space instead of restarting at ``FIRST_LSN`` beneath
        the pageLSNs already on the pages. The transactions the source
        began below that LSN read as past this log's retention, not as
        never logged.
        """
        self.file_manager.write_sequential(pages)
        self.log.open_at(log_start_lsn, source_log.last_txn_below(log_start_lsn))
        self.invalidate_caches()
        self.reload_boot()

    def boot_record(self) -> BootRecord:
        if self._boot_cache is None:
            self.reload_boot()
        return self._boot_cache

    def update_boot(self, **changes) -> None:
        """Apply changes to the boot record (logged, system transaction)."""

        def work(txn) -> None:
            with self.fetch_page(BOOT_PAGE_ID) as guard:
                old = read_boot_record(guard.page)
                new = old.with_changes(**changes)
                rec = UpdateBytesRecord.between(
                    BOOT_SLOT, old.pack(), new.pack(), page_id=BOOT_PAGE_ID, object_id=0
                )
                self.modifier.apply(txn, guard, rec)
                self._boot_cache = new

        self.run_system_txn(work)

    # ------------------------------------------------------------------
    # Undo-context protocol
    # ------------------------------------------------------------------

    def fetch_page(self, page_id: int, create: bool = False):
        return self.buffer.fetch(page_id, create=create)

    def tree_for_object(self, object_id: int) -> BTree | None:
        from repro.catalog.catalog import SYS_COLUMNS_ID, SYS_OBJECTS_ID

        if object_id == SYS_OBJECTS_ID:
            return self.catalog.sys_objects
        if object_id == SYS_COLUMNS_ID:
            return self.catalog.sys_columns
        tree = self._tree_cache.get(object_id)
        if tree is not None:
            return tree
        self._require_open()
        info = self.catalog.get_by_id(object_id)
        if info is None or info.is_heap:
            return None
        tree = self.catalog.accessor(info, self.catalog.load_schema(info))
        self._tree_cache[object_id] = tree
        return tree

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def require_writable(self) -> None:
        if self.crashed:
            raise DatabaseUnavailableError(
                f"database {self.name!r} is down (crashed primary); "
                f"fail over to a replica"
            )
        if self.read_only:
            raise SnapshotReadOnlyError(f"database {self.name!r} is read-only")

    def begin(self) -> Transaction:
        self.require_writable()
        return self.txns.begin()

    def commit(self, txn: Transaction) -> None:
        self.txns.commit(txn)

    def rollback(self, txn: Transaction) -> None:
        self.txns.rollback(txn)
        if txn.created_tables:
            self._forget_created(txn)

    def savepoint(self, txn: Transaction, name: str) -> None:
        self.txns.savepoint(txn, name)

    def rollback_to(self, txn: Transaction, name: str) -> None:
        self.txns.rollback_to_savepoint(txn, name)
        if txn.created_tables:
            self._forget_created(txn)

    def _forget_created(self, txn: Transaction) -> None:
        """Drop the cached handles of the tables ``txn`` created: a
        rollback may have removed them from the catalog, and a handle
        would still serve the freed pages. A table that survives is
        looked up again."""
        for name, object_id in txn.created_tables:
            self._table_cache.pop(name, None)
            self._tree_cache.pop(object_id, None)

    @contextmanager
    def transaction(self):
        """``with db.transaction() as txn:`` — commit on success, roll back
        on exception."""
        with self.write_latch:
            txn = self.begin()
            try:
                yield txn
            except BaseException:
                if txn.is_active:
                    self.rollback(txn)
                raise
            else:
                if txn.is_active:
                    self.commit(txn)

    def run_system_txn(self, fn):
        """Run ``fn(txn)`` in an immediately-committed system transaction."""
        with self.write_latch:
            txn = self.txns.begin(system=True)
            try:
                result = fn(txn)
            except BaseException:
                if txn.is_active:
                    self.txns.rollback(txn)
                raise
            self.txns.commit(txn)
            return result

    # ------------------------------------------------------------------
    # DDL and table access
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema, txn: Transaction | None = None, *, heap: bool = False) -> Table:
        self.require_writable()
        kind = KIND_HEAP if heap else KIND_TABLE
        if txn is None:
            with self.transaction() as auto_txn:
                self.catalog.create_table(auto_txn, schema, kind=kind)
        else:
            info = self.catalog.create_table(txn, schema, kind=kind)
            txn.created_tables += ((schema.name, info.object_id),)
        self._table_cache.pop(schema.name, None)
        return self.table(schema.name)

    def drop_table(self, name: str) -> None:
        self.require_writable()
        with self.transaction() as txn:
            info = self.catalog.drop_table(txn, name)
        self._table_cache.pop(name, None)
        self._tree_cache.pop(info.object_id, None)

    def table(self, name: str) -> Table:
        cached = self._table_cache.get(name)
        if cached is not None:
            return cached
        self._require_open()
        info = self.catalog.require(name)
        schema = self.catalog.load_schema(info)
        handle = Table(self, info, schema)
        self._table_cache[name] = handle
        return handle

    def tables(self) -> list[str]:
        self._require_open()
        return [obj.name for obj in self.catalog.list_objects()]

    # -- reader protocol (shared with snapshots) -------------------------

    def get(self, table: str, key: tuple, txn: Transaction | None = None):
        return self.table(table).get(tuple(key), txn)

    def scan(self, table: str, lo: tuple | None = None, hi: tuple | None = None):
        return self.table(table).scan(lo, hi)

    def insert(self, txn: Transaction, table: str, row) -> None:
        self.table(table).insert(txn, row)

    def update(self, txn: Transaction, table: str, key: tuple, changes: dict):
        return self.table(table).update(txn, key, changes)

    def delete(self, txn: Transaction, table: str, key: tuple):
        return self.table(table).delete(txn, key)

    # ------------------------------------------------------------------
    # Checkpoints, retention, crash/recovery
    # ------------------------------------------------------------------

    def checkpoint(self, *, sharp: bool = True) -> int:
        """Take a checkpoint, sharp unless ``sharp=False`` (records only:
        :mod:`repro.engine.checkpoint`); returns the checkpoint-begin LSN."""
        from repro.engine.checkpoint import take_checkpoint

        return take_checkpoint(self, sharp=sharp)

    def set_undo_interval(self, seconds: float) -> None:
        """``ALTER DATABASE ... SET UNDO_INTERVAL`` (section 4.3)."""
        if seconds <= 0:
            raise ValueError("undo interval must be positive")
        self.update_boot(undo_interval_s=float(seconds))

    @property
    def undo_interval_s(self) -> float:
        if self.retention_override_s is not None:
            return self.retention_override_s
        return self.boot_record().undo_interval_s

    def invalidate_caches(self) -> None:
        """Drop derived metadata caches (boot, tables, trees).

        The replica apply loop calls this after replaying records that
        touch the boot page or the system catalog — the caches would
        otherwise serve the pre-replay metadata.
        """
        self._boot_cache = None
        self._table_cache = {}
        self._tree_cache = {}

    def add_retention_pin(self, pin) -> None:
        """Register a retention pin: a callable returning an LSN the log
        must retain (or ``NULL_LSN``/``None`` for "no pin")."""
        self.retention_pins.append(pin)

    def enforce_retention(self) -> int:
        """Truncate log outside the retention window; returns new start LSN."""
        from repro.core.retention import enforce_retention

        return enforce_retention(self)

    def crash(self) -> None:
        """Simulate an abrupt stop: volatile state disappears."""
        self.buffer.crash()
        self.log.crash()
        self.locks = LockManager()
        self.txns = TransactionManager(self.env, self.log, self.locks)
        self.txns.undo_context = self
        self.invalidate_caches()
        self.alloc.clear_hints()
        self.snapshots.clear()
        if self.version_store is not None:
            # The volatile log tail is gone; recovery will write *new*
            # records at those LSNs, so stored versions reaching into the
            # discarded range describe history that no longer exists.
            self.version_store.invalidate_from(
                self.version_store_key, self.log.durable_lsn
            )

    def recover(self) -> None:
        """ARIES crash recovery (analysis, redo, undo)."""
        from repro.engine.recovery import run_crash_recovery

        run_crash_recovery(self)
        self.reload_boot()

    def close(self) -> None:
        """Give back everything this database holds in memory — metadata
        caches, buffer frames, log bytes, data pages (or the file handle)
        — because it is leaving the engine for good.

        No flush and no priced I/O: nothing here is being made durable.
        Idempotent. The emptied caches force every later ``table()`` /
        ``tree_for_object`` through the miss path, which refuses typed
        (:meth:`_require_open`) — no per-page check is needed.
        """
        self.closed = True
        self.invalidate_caches()
        self.buffer.crash()
        self.log.close()
        self.file_manager.datafile.close()

    def _require_open(self) -> None:
        if self.closed:
            raise DatabaseUnavailableError(
                f"database {self.name!r} was retired from its engine"
            )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Database({self.name!r}, pages={self.file_manager.page_count})"
