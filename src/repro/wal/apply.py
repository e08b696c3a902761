"""Logged page modification: the write path every component goes through.

``PageModifier.apply`` is the single choke point that (a) stamps the
record's ``prev_page_lsn`` from the page being modified — building the
per-page chain — (b) appends it to the log, (c) replays it onto the page,
and (d) advances the page's ``pageLSN``. It also emits the optional full
page image every Nth modification (section 6.1) and the preformat record
on page re-allocation (section 4.2), so callers (B-tree, heap, allocation
map, catalog) never special-case the extensions.

``UnloggedModifier`` is the same interface with no logging: as-of
snapshots use it when the background logical-undo pass or a rare
re-balance must modify *snapshot* pages, which are ephemeral side-file
cache entries, not durable state (section 5.2).

``RedoApplier`` is the read side of the same discipline and the only
redo loop in the engine: ARIES crash recovery, backup and archive
restores, and log-shipping standbys all repeat history through it (see
``docs/recovery.md``). It applies records onto pages gated by ``pageLSN``,
batching records per page so each page in a batch is fetched once — with
no read at all when the batch opens the page with a format record — and
optionally modeling multicore redo (*Fast Failure Recovery for Main-Memory
DBMSs on Multicores*-style partition-by-page parallelism) by charging the
batch's CPU as its critical path across ``parallel_slots`` workers instead
of the serial sum.
"""

from __future__ import annotations

from repro.config import LoggingExtensions, SimEnv
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.lsn import NULL_LSN
from repro.wal.records import (
    FormatPageRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
)

#: Cap for the per-page modification counter (u16 header field).
_MODS_CAP = 0xFFFF

#: Page modifications buffered per redo batch.
REDO_BATCH_RECORDS = 256


class PageModifier:
    """Applies log records to buffered pages with full WAL discipline."""

    def __init__(
        self,
        log: LogManager,
        extensions: LoggingExtensions,
        env: SimEnv,
    ) -> None:
        self.log = log
        self.extensions = extensions.effective()
        self.env = env
        #: Copy-on-write hooks ``hook(page)`` invoked before the first
        #: modification of a page, used by *regular* database snapshots to
        #: push pre-images to their sparse files (paper section 2.2).
        #: As-of snapshots register no hook — they undo on demand instead.
        self.cow_hooks: list = []

    @property
    def logged(self) -> bool:
        return True

    def _run_cow_hooks(self, page: Page) -> None:
        for hook in self.cow_hooks:
            hook(page)

    def apply(self, txn, frame, record: LogRecord, *, chain_prev: int | None = None) -> int:
        """Log ``record`` and apply it to ``frame``'s page.

        ``chain_prev`` overrides the page-chain back-pointer; format records
        use it to splice in the preformat record of a re-allocation.
        Returns the record's LSN.
        """
        page = frame.page
        if self.cow_hooks:
            self._run_cow_hooks(page)
        record.prev_page_lsn = page.page_lsn if chain_prev is None else chain_prev
        if txn is not None:
            record.txn_id = txn.txn_id
            record.prev_txn_lsn = txn.last_lsn
        lsn = self.log.append(record)
        record.redo(page)
        page.page_lsn = lsn
        if txn is not None:
            txn.last_lsn = lsn
        frame.mark_dirty()
        self._after_modification(frame)
        return lsn

    def _after_modification(self, frame) -> None:
        """Advance the page's modification counter; emit a page image when
        the counter reaches the configured interval."""
        page = frame.page
        count = page.mods_since_image
        if count < _MODS_CAP:
            page.mods_since_image = count + 1
        interval = self.extensions.page_image_interval
        if interval <= 0 or page.mods_since_image < interval:
            return
        page.mods_since_image = 0
        image_rec = PageImageRecord(
            image=page.clone_bytes(),
            prev_image_lsn=page.last_image_lsn,
            page_id=page.page_id,
            prev_page_lsn=page.page_lsn,
            object_id=page.object_id,
        )
        lsn = self.log.append(image_rec)
        page.page_lsn = lsn
        page.last_image_lsn = lsn
        frame.mark_dirty()

    def format_page(
        self,
        txn,
        frame,
        page_type: PageType,
        *,
        object_id: int = 0,
        index_id: int = 0,
        level: int = 0,
        prev_page: int = 0,
        next_page: int = 0,
        was_ever_allocated: bool = False,
        force_preformat: bool = False,
    ) -> int:
        """Format a page for a new use, preserving history on re-allocation.

        For a re-allocated page (``was_ever_allocated``) with the preformat
        extension enabled, the page's prior content — already present in
        ``frame`` because the caller fetched it — is logged in a preformat
        record whose ``prev_page_lsn`` points into the prior incarnation's
        chain; the format record then chains to the preformat. Without the
        extension the chain simply breaks (paper Figure 1), and as-of
        queries older than the re-allocation fail.

        ``force_preformat`` bypasses the extension switch: in-place
        reformats of live pages (B-tree root splits) need the pre-image for
        crash-safe rollback regardless of as-of support.
        """
        page = frame.page
        if self.cow_hooks:
            self._run_cow_hooks(page)
        chain_prev = NULL_LSN
        if was_ever_allocated and (
            self.extensions.preformat_on_realloc or force_preformat
        ):
            old_image = page.clone_bytes()
            old_lsn = page.page_lsn if page.is_formatted() else NULL_LSN
            pre = PreformatPageRecord(
                image=old_image,
                page_id=frame.page_id,
                prev_page_lsn=old_lsn,
                object_id=page.object_id if page.is_formatted() else 0,
            )
            chain_prev = self.log.append(pre)
        fmt = FormatPageRecord(
            page_type=int(page_type),
            index_id=index_id,
            level=level,
            prev_page=prev_page,
            next_page=next_page,
            # The frame, not the page: a first-time format sees zeroed
            # bytes whose header page_id field is meaningless.
            page_id=frame.page_id,
            object_id=object_id,
        )
        return self.apply(txn, frame, fmt, chain_prev=chain_prev)


class RedoApplier:
    """Repeat history from log records onto pages (recovery + replication).

    The target supplies ``env`` and ``fetch_page``; the records come from
    whichever log holds the history (the target's own, the source
    database's, an archived view) — redo reads nothing but the record and
    the page. Records that are not page modifications are ignored; page
    modifications are applied in per-page order, gated by each page's
    ``pageLSN`` so re-applying an already-applied record is a no-op
    (restart safety on the recovery, restore and replica paths alike).
    """

    def __init__(self, target, *, parallel_slots: int = 1) -> None:
        if parallel_slots < 1:
            raise ValueError("parallel_slots must be >= 1")
        self.target = target
        self.parallel_slots = parallel_slots

    def apply(self, records, gate=None) -> int:
        """Apply ``records`` (an iterable in LSN order); returns how many
        were actually redone.

        ``gate`` is an optional per-record predicate (recovery passes the
        dirty-page-table filter). Records are buffered into batches of
        :data:`REDO_BATCH_RECORDS` page modifications; each batch is
        partitioned by page so a page is fetched once per batch and, with
        ``parallel_slots > 1``, the CPU charge models partitions redone in
        parallel.
        """
        applied = 0
        batch: list[LogRecord] = []
        for rec in records:
            if not rec.IS_PAGE_MOD:
                continue
            if gate is not None and not gate(rec):
                continue
            batch.append(rec)
            if len(batch) >= REDO_BATCH_RECORDS:
                applied += self._apply_batch(batch)
                batch = []
        if batch:
            applied += self._apply_batch(batch)
        return applied

    def _apply_batch(self, batch: list[LogRecord]) -> int:
        target = self.target
        env = target.env
        by_page: dict[int, list[LogRecord]] = {}
        for rec in batch:
            by_page.setdefault(rec.page_id, []).append(rec)
        applied = 0
        partition_counts: list[int] = []
        for page_id, recs in by_page.items():
            count = 0
            # A format erases the page, so a batch that opens a page with
            # one never needs its old bytes: a miss materializes a zeroed
            # frame instead of reading the file. Restart-safe — a page
            # already on disk ahead of the format is rebuilt from records
            # that are all in the stream (docs/recovery.md).
            create = isinstance(recs[0], FormatPageRecord)
            with target.fetch_page(page_id, create=create) as guard:
                page = guard.page
                for rec in recs:
                    if page.is_formatted() and page.page_lsn >= rec.lsn:
                        continue
                    rec.redo(page)
                    page.page_lsn = rec.lsn
                    if isinstance(rec, PageImageRecord):
                        page.last_image_lsn = rec.lsn
                    guard.mark_dirty()
                    count += 1
            applied += count
            if count:
                partition_counts.append(count)
        if applied:
            per_record = env.cost.redo_record_cpu_s
            if self.parallel_slots == 1:
                env.charge_cpu(applied * per_record)
            else:
                # Makespan of partition-parallel redo: bounded below by the
                # largest single-page chain and by perfect division.
                critical = max(
                    applied / self.parallel_slots, max(partition_counts)
                )
                env.charge_cpu(critical * per_record)
        return applied


class UnloggedModifier:
    """Apply records to pages without logging (snapshot-side mutations).

    Keeps the page-chain fields untouched: snapshot pages are throwaway
    side-file state whose "history" is the primary's log, never their own.
    """

    def __init__(self, env: SimEnv) -> None:
        self.env = env
        self.extensions = LoggingExtensions()

    @property
    def logged(self) -> bool:
        return False

    def apply(self, txn, frame, record: LogRecord, *, chain_prev: int | None = None) -> int:
        record.redo(frame.page)
        frame.mark_dirty()
        return NULL_LSN

    def format_page(
        self,
        txn,
        frame,
        page_type: PageType,
        *,
        object_id: int = 0,
        index_id: int = 0,
        level: int = 0,
        prev_page: int = 0,
        next_page: int = 0,
        was_ever_allocated: bool = False,
        force_preformat: bool = False,
    ) -> int:
        frame.page.format(
            frame.page_id,
            page_type,
            object_id=object_id,
            index_id=index_id,
            level=level,
            prev_page=prev_page,
            next_page=next_page,
        )
        frame.mark_dirty()
        return NULL_LSN
