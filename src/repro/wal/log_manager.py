"""The log manager: append, group flush, random reads, scans, truncation.

The LSN of a record is its byte offset in the log stream, so random access
(the workhorse of page-oriented undo) is a direct seek. Reads are served
through an LRU block cache that models the paper's "log cache": a chain
walk whose records fall outside the cached blocks stalls on a random read
of the log media — the reason "storing transaction log on low latency
media is important for as-of query performance" (section 6.2).

Durability model: appended records sit in a volatile tail until
:meth:`flush` moves the durable boundary (charging a sequential write).
:meth:`crash` discards the volatile tail, which is how the crash-recovery
tests produce torn histories.

The log stamps each commit and checkpoint-begin record with the
simulated wall clock as it assigns the LSN, so walls are in LSN order,
and keeps a :class:`WallDirectory` of each kind beside its bytes: SplitLSN
search is two bisections that read no log block instead of a back-chain
walk and a scan forward from a checkpoint (``docs/wal-format.md``, "Wall
directories"). A :class:`TransactionDirectory` notes each transaction's
BEGIN and end, so who was in flight at an AS OF split, and where a
named transaction's chain ends, are lookups that read no log
("Transaction directory").
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from math import inf

from repro.config import SimEnv
from repro.errors import (
    LogRecordDecodeError,
    LogTruncatedError,
    RetentionExceededError,
    WalError,
)
from repro.latch import Latch
from repro.obs.registry import DEFAULT_BYTES_BUCKETS
from repro.wal.lsn import FIRST_LSN, NULL_LSN, format_lsn
from repro.wal.records import (
    HEADER_SIZE,
    HEADER_TXN_ID,
    LOG_HEADER_MAGIC,
    ClrRecord,
    CommitRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordType,
    decode_record,
    decode_span,
    walk_boundaries,
)

#: Wire discriminators: ingest's boundary walk reads them, and the
#: transaction directory is noted by them.
_BEGIN_TYPE = int(RecordType.BEGIN)
_COMMIT_TYPE = int(RecordType.COMMIT)
_TXN_TYPES = frozenset(map(int, (RecordType.BEGIN, RecordType.COMMIT, RecordType.ABORT)))
_CHECKPOINT_BEGIN_TYPE = int(RecordType.CHECKPOINT_BEGIN)
#: The records :meth:`LogManager.append` stamps with the wall clock.
_STAMPED_TYPES = frozenset((_COMMIT_TYPE, _CHECKPOINT_BEGIN_TYPE))
#: A commit's body is its wall clock alone, and a checkpoint-begin's
#: starts with it: ingest reads it in place (a commit's body is never
#: decoded).
_WALL = struct.Struct("<d")
_COMMIT_SIZE = HEADER_SIZE + _WALL.size


class WallDirectory:
    """One entry per commit record, or per checkpoint-begin record, in LSN
    order: its LSN and its wall clock.

    :meth:`LogManager.append` stamps both kinds from the simulated clock
    under the log latch as it assigns the LSN, and the clock never runs
    backwards, so walls are non-decreasing in LSN order;
    :meth:`LogManager.ingest` rejects shipped bytes that break it. The
    newest entry stamped at or before a time, like the newest at or
    before an LSN, is then a bisect away. The owning :class:`LogManager`
    calls every method under its latch.
    """

    __slots__ = ("lsns", "walls", "n")

    def __init__(self) -> None:
        # Entries fill ``[0, n)``; full arrays grow by half, so a long log
        # moves them about ten times, not at every 6 % of growth (each
        # move leaves the old buffer behind as a heap hole).
        self.lsns = array("q")
        self.walls = array("d")
        self.n = 0

    @property
    def last(self) -> tuple[int, float] | None:
        """``(lsn, wall)`` of the newest entry, else ``None``."""
        n = self.n
        return (self.lsns[n - 1], self.walls[n - 1]) if n else None

    def note(self, lsn: int, wall: float) -> None:
        """Record an entry at ``lsn``, newer than every one noted so far
        and stamped no earlier."""
        n, lsns, walls = self.n, self.lsns, self.walls
        if n == len(lsns):
            zeros = bytes(8 * max(n // 2, 64))
            lsns.frombytes(zeros)
            walls.frombytes(zeros)
        lsns[n] = lsn
        walls[n] = wall
        self.n = n + 1

    def stamped(self, wall: float) -> tuple[int, float] | None:
        """``(lsn, wall)`` of the newest entry stamped at or before
        ``wall``, else ``None``."""
        i = bisect_right(self.walls, wall, 0, self.n)
        return (self.lsns[i - 1], self.walls[i - 1]) if i else None

    def before(self, lsn: int) -> tuple[int, float] | None:
        """``(lsn, wall)`` of the newest entry at or before ``lsn``, else
        ``None``."""
        i = bisect_right(self.lsns, lsn, 0, self.n)
        return (self.lsns[i - 1], self.walls[i - 1]) if i else None

    def drop_below(self, lsn: int) -> None:
        """Forget the entries below ``lsn``."""
        i = bisect_left(self.lsns, lsn, 0, self.n)
        del self.lsns[:i], self.walls[:i]
        self.n -= i

    def cut(self, lsn: int) -> None:
        """Forget the entries at or past ``lsn``, where the log now ends."""
        self.n = bisect_left(self.lsns, lsn, 0, self.n)


class TransactionDirectory:
    """One entry per transaction: the LSN of its BEGIN and, once it ends,
    of its COMMIT or ABORT.

    A transaction whose BEGIN the log never held — one a checkpoint
    names as active, or whose end arrives first — is noted as begun below
    the log (``NULL_LSN``). A checkpoint names only transactions open at
    its LSN (:mod:`~repro.engine.checkpoint`, sharp or records-only,
    reads the table and appends the record under the log latch, which
    every BEGIN, COMMIT and ABORT takes too), so a named one whose BEGIN
    the log holds is already open here and the note changes nothing. Open entries sit
    in a dict by txn id; ended ones in end order, beside the least begin
    of each and every entry after it. That minimum never decreases, so
    the ended transactions in flight at a split lie between two bisects:
    past the first end after the split, and before the first minimum past
    it. The owning :class:`LogManager` calls every method under its latch.
    """

    __slots__ = ("_open", "_ids", "_begins", "_ends", "_least", "_n", "dropped")

    def __init__(self) -> None:
        self._open: dict[int, int] = {}
        # Ended entries fill ``[0, _n)`` and grow by half, as a wall
        # directory's do.
        self._ids = array("q")
        self._begins = array("q")
        self._ends = array("q")
        self._least = array("q")
        self._n = 0
        #: The highest id :meth:`drop_below` forgot, 0 before it forgets one.
        self.dropped = 0

    def note(self, record_type: int, txn_id: int, lsn: int) -> None:
        """A BEGIN of ``txn_id`` at ``lsn`` (``NULL_LSN``: one begun below
        the log), else its COMMIT or ABORT, later than every end so far."""
        if record_type == _BEGIN_TYPE:
            self._open.setdefault(txn_id, lsn)
            return
        begin = self._open.pop(txn_id, NULL_LSN)
        n, least = self._n, self._least
        if n == len(least):
            zeros = bytes(8 * max(n // 2, 64))
            for column in (self._ids, self._begins, self._ends, least):
                column.frombytes(zeros)
        self._ids[n], self._begins[n], self._ends[n], least[n] = txn_id, begin, lsn, begin
        self._n = n + 1
        while n and least[n - 1] > begin:
            n -= 1
            least[n] = begin

    def in_flight(self, split: int) -> dict[int, int]:
        """``{txn_id: BEGIN LSN}`` of the transactions begun at or before
        ``split`` and not ended by it."""
        n, begins = self._n, self._begins
        i = bisect_right(self._ends, split, 0, n)
        j = bisect_right(self._least, split, i, n)
        found = {self._ids[k]: begins[k] for k in range(i, j) if begins[k] <= split}
        found.update((txn_id, lsn) for txn_id, lsn in self._open.items() if lsn <= split)
        return found

    def span(self, txn_id: int) -> tuple[int, int | None] | None:
        """``(begin, end)`` of ``txn_id``, ``end`` ``None`` while it is
        open; ``None`` when no entry holds it. An id is in at most one
        ended entry: :meth:`cut` takes an ended entry back, reopened or
        forgotten, before its transaction can end again."""
        if txn_id in self._open:
            return self._open[txn_id], None
        try:
            k = self._ids.index(txn_id, 0, self._n)
        except ValueError:
            return None
        return self._begins[k], self._ends[k]

    def last_begun_below(self, lsn: int) -> int:
        """The highest id of a transaction begun below ``lsn``, those
        :meth:`drop_below` forgot included; 0 when there is none."""
        ended = max(self._ids[: bisect_left(self._ends, lsn, 0, self._n)], default=0)
        return max(self.dropped, ended, *self.in_flight(lsn - 1))

    def drop_below(self, lsn: int) -> None:
        """Forget the transactions that ended below ``lsn``."""
        i = bisect_left(self._ends, lsn, 0, self._n)
        if i:
            self.dropped = max(self.dropped, max(self._ids[:i]))
        for column in (self._ids, self._begins, self._ends, self._least):
            del column[:i]
        self._n -= i

    def cut(self, lsn: int) -> None:
        """Where the log now ends at ``lsn``: reopen the transactions that
        ended at or past it, and forget those that began there."""
        n = bisect_left(self._ends, lsn, 0, self._n)
        begins, least = self._begins, self._least
        reopened = zip(self._ids[n : self._n], begins[n : self._n], strict=True)
        self._open = {txn: begin for txn, begin in (*self._open.items(), *reopened) if begin < lsn}
        self._n = n
        # Raise the minima the entries taken back lowered, back to the
        # first one that did not change: those before it did not either.
        low = None
        for k in range(n - 1, -1, -1):
            low = begins[k] if low is None else min(low, begins[k])
            if least[k] == low:
                break
            least[k] = low


class LogManager:
    """One database's write-ahead log."""

    def __init__(
        self,
        env: SimEnv,
        block_size: int = 65536,
        cache_blocks: int = 32,
    ) -> None:
        self.env = env
        self.block_size = block_size
        self.cache_blocks = cache_blocks
        self.latch = Latch("log_manager")
        self._data = bytearray(LOG_HEADER_MAGIC)
        self._base = 0  # LSN of _data[0]
        self._durable_end = FIRST_LSN
        self._truncated_before = FIRST_LSN
        self._commit_dir = WallDirectory()
        self._ckpt_dir = WallDirectory()
        self._txn_dir = TransactionDirectory()
        self._cache: OrderedDict[int, None] = OrderedDict()
        # Handle cached at init: append() is the engine's hottest path.
        self._append_hist = env.metrics.histogram(
            "log.append_bytes",
            "serialized log record sizes",
            bounds=DEFAULT_BYTES_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------

    @property
    def end_lsn(self) -> int:
        """LSN one past the last appended record (next record's LSN)."""
        with self.latch:
            return self._base + len(self._data)

    def _end(self) -> int:
        """:attr:`end_lsn` for a read path that already holds the latch."""
        return self._base + len(self._data)

    @property
    def durable_lsn(self) -> int:
        """Records starting below this LSN are durable."""
        return self._durable_end

    @property
    def start_lsn(self) -> int:
        """Oldest retained LSN; reads below raise LogTruncatedError."""
        return self._truncated_before

    def total_bytes(self) -> int:
        """Bytes of retained log (Figure 5's space metric)."""
        return len(self._data)

    @property
    def last_commit_lsn(self) -> int:
        """LSN of the newest commit record in the log, ``NULL_LSN`` when
        it holds none."""
        with self.latch:
            last = self._commit_dir.last
        return NULL_LSN if last is None else last[0]

    def commit_split(self, wall: float, base: int) -> int:
        """The newest commit stamped at or before ``wall``, or ``base``
        when that lies below it: walls are in LSN order, so the commits
        past ``base`` stamped by ``wall`` all lie at or below it."""
        with self.latch:
            newest = self._commit_dir.stamped(wall)
        return base if newest is None else max(base, newest[0])

    def checkpoint_before(self, lsn: int) -> tuple[int, float] | None:
        """``(lsn, wall)`` of the newest checkpoint-begin record at or
        before ``lsn``, else ``None``."""
        with self.latch:
            return self._ckpt_dir.before(lsn)

    def checkpoint_stamped(self, wall: float) -> tuple[int, float] | None:
        """``(lsn, wall)`` of the newest checkpoint-begin record stamped
        at or before ``wall``, else ``None``."""
        with self.latch:
            return self._ckpt_dir.stamped(wall)

    def in_flight(self, split: int) -> dict[int, int]:
        """:meth:`TransactionDirectory.in_flight`: ``{txn_id: BEGIN LSN}``
        of the transactions in flight at ``split``, ``NULL_LSN`` for one
        begun below the log."""
        with self.latch:
            return self._txn_dir.in_flight(split)

    def transaction_span(self, txn_id: int) -> tuple[int, int | None] | None:
        """:meth:`TransactionDirectory.span`: ``(BEGIN LSN, COMMIT or
        ABORT LSN)`` of ``txn_id``, ``NULL_LSN`` for one begun below the
        log and ``None`` for an end not logged yet; ``None`` for an id the
        log never held, cut away or trimmed. Reads no log."""
        with self.latch:
            return self._txn_dir.span(txn_id)

    def last_txn_below(self, lsn: int) -> int:
        """:meth:`TransactionDirectory.last_begun_below`: the highest id
        of a transaction begun below ``lsn``. Reads no log."""
        with self.latch:
            return self._txn_dir.last_begun_below(lsn)

    def retained_span(self, txn_id: int) -> tuple[int, int | None] | None:
        """:meth:`transaction_span` for a reader that walks the
        transaction's chain back to its BEGIN: raises
        :class:`RetentionExceededError` when retention truncated that BEGIN
        or dropped the transaction whole, and returns ``None`` for an id
        the log never held. Ids follow BEGIN-LSN order, so an id no entry
        holds at or below the highest one retention dropped is one it
        dropped. Reads no log."""
        with self.latch:
            span = self._txn_dir.span(txn_id)
            dropped = span is None and txn_id <= self._txn_dir.dropped
        if dropped or (span is not None and span[0] < self._truncated_before):
            raise RetentionExceededError(
                f"transaction {txn_id} began below the retention horizon"
            )
        return span

    # ------------------------------------------------------------------
    # Append / flush
    # ------------------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Serialize ``record``, assign its LSN, and buffer it.

        A commit or checkpoint-begin record is stamped with the simulated
        wall clock here, under the latch with its LSN: the clock never runs
        backwards, so walls are non-decreasing in LSN order. Charges the
        per-record CPU cost (the log-manager synchronization the paper
        identifies as the throughput-sensitive term).
        """
        with self.latch:
            record.lsn = self._end()
            stamped = record.TYPE in _STAMPED_TYPES
            if stamped:
                record.wall_clock = self.env.clock.now()
            blob = record.serialize()
            self._data += blob
            self._append_hist.observe(len(blob))
            if stamped:
                if isinstance(record, CommitRecord):
                    self._commit_dir.note(record.lsn, record.wall_clock)
                else:
                    self._ckpt_dir.note(record.lsn, record.wall_clock)
                    for txn_id, _last in record.active_txns:
                        self._txn_dir.note(_BEGIN_TYPE, txn_id, NULL_LSN)
            if record.TYPE in _TXN_TYPES:
                self._txn_dir.note(record.TYPE, record.txn_id, record.lsn)
            stats = self.env.stats
            stats.log_records += 1
            if isinstance(record, PreformatPageRecord):
                stats.preformat_records += 1
                stats.preformat_bytes += len(blob)
            elif isinstance(record, PageImageRecord):
                stats.page_image_records += 1
                stats.page_image_bytes += len(blob)
            elif isinstance(record, ClrRecord):
                comp = record.comp
                undo_payload = getattr(comp, "row", None)
                if undo_payload is None:
                    undo_payload = getattr(comp, "old", None)
                if undo_payload is not None:
                    stats.clr_undo_bytes += len(undo_payload)
            self.env.charge_cpu(self.env.cost.log_record_cpu_s)
            return record.lsn

    def flush(self, up_to_lsn: int | None = None) -> None:
        """Make the log durable.

        Group-commit style: a flush always pushes the whole volatile tail
        (``up_to_lsn`` only lets callers skip the flush when already
        durable). Charges one sequential write for the flushed bytes.
        """
        with self.latch:
            end = self._end()
            if up_to_lsn is not None and up_to_lsn < self._durable_end:
                return
            if self._durable_end >= end:
                return
            nbytes = end - self._durable_end
            # Group commit: the caller waits for the submission, the
            # transfer drains asynchronously (accrues as log-device
            # utilization).
            self.env.log_device.write_seq_async(nbytes)
            self.env.stats.log_flushes += 1
            self.env.stats.log_write_bytes += nbytes
            self._durable_end = end

    # ------------------------------------------------------------------
    # Random reads (page-oriented undo's access path)
    # ------------------------------------------------------------------

    def _check_readable(self, lsn: int) -> None:
        """Raise unless ``lsn`` lies in the retained log; the caller holds
        the latch."""
        if lsn < self._truncated_before:
            raise LogTruncatedError(
                f"LSN {format_lsn(lsn)} is below the retention horizon "
                f"{format_lsn(self._truncated_before)}"
            )
        if lsn < self._base or lsn >= self._end():
            raise WalError(
                f"LSN {format_lsn(lsn)} out of log range "
                f"[{format_lsn(self._base)}, {format_lsn(self._end())})"
            )

    def _touch_block(self, lsn: int, *, sequential: bool, undo: bool) -> None:
        """Account (and charge) the block access containing ``lsn``; the
        caller holds the latch."""
        if lsn >= self._durable_end:
            return  # volatile tail: still in memory, free
        block = lsn // self.block_size
        stats = self.env.stats
        if block in self._cache:
            self._cache.move_to_end(block)
            if undo:
                stats.undo_log_cache_hits += 1
            return
        if sequential:
            self.env.log_device.read_seq(self.block_size)
            stats.log_scan_reads += 1
            stats.log_scan_bytes += self.block_size
        else:
            self.env.log_device.read_random(self.block_size)
            if undo:
                stats.undo_log_reads += 1
        self._cache[block] = None
        while len(self._cache) > self.cache_blocks:
            self._cache.popitem(last=False)

    def read(self, lsn: int, *, for_undo: bool = False) -> LogRecord:
        """Fetch the record at ``lsn`` (random access)."""
        with self.latch:
            self._check_readable(lsn)
            self._touch_block(lsn, sequential=False, undo=for_undo)
            record, _end = decode_record(self._data, lsn - self._base, lsn)
            return record

    def undo_fetch(self, lsn: int) -> LogRecord:
        """``read`` bound for undo paths: counted as an undo log access.

        The only way a chain walk reads the log. The frozen perflab's
        ``INCLUSIVE`` table still names a multi-record read on this class;
        it finds none, says so on stderr and reports 0 for that row.
        """
        return self.read(lsn, for_undo=True)

    # ------------------------------------------------------------------
    # Raw byte access (log shipping)
    # ------------------------------------------------------------------

    def read_bytes(self, from_lsn: int, to_lsn: int) -> bytes:
        """Raw log bytes ``[from_lsn, to_lsn)`` (the log-shipping read path).

        Charged like a sequential scan: one block read per block the range
        crosses, served from the block cache when possible. Callers are
        responsible for record alignment (:meth:`record_aligned_end`).
        """
        if from_lsn >= to_lsn:
            return b""
        with self.latch:
            self._check_readable(from_lsn)
            if to_lsn > self._end():
                raise WalError(
                    f"read_bytes end {format_lsn(to_lsn)} beyond log end "
                    f"{format_lsn(self._end())}"
                )
            block = (from_lsn // self.block_size) * self.block_size
            while block < to_lsn:
                self._touch_block(max(block, from_lsn), sequential=True, undo=False)
                block += self.block_size
            return bytes(self._data[from_lsn - self._base : to_lsn - self._base])

    def record_aligned_end(
        self, from_lsn: int, max_bytes: int, limit_lsn: int | None = None
    ) -> int:
        """Largest record boundary in ``(from_lsn, limit_lsn]`` within
        ``max_bytes`` of ``from_lsn``.

        Walks record boundaries only (each record starts with its u32
        total length), so a shipper can frame batches without decoding
        bodies. The first record always counts whole, however small
        ``max_bytes`` is, so a record larger than the budget still ships,
        alone. Returns ``from_lsn`` only when no record starts there, or
        the one that does ends past ``limit_lsn`` (or past the log end).
        """
        with self.latch:
            self._check_readable(from_lsn)
            limit = self._end() if limit_lsn is None else min(limit_lsn, self._end())
            end = from_lsn
            for lsn, total, _type in walk_boundaries(
                self._data, from_lsn - self._base, base_lsn=self._base
            ):
                next_lsn = lsn + total
                if next_lsn > limit:
                    break
                if next_lsn - from_lsn > max_bytes and end > from_lsn:
                    break
                end = next_lsn
            return end

    def ingest(self, start_lsn: int, data: bytes) -> None:
        """Land shipped log bytes on a standby's log (durable immediately).

        ``start_lsn`` must equal :attr:`end_lsn` — shipped frames arrive in
        order with no gaps (the shipper resumes from the standby's cursor).
        The bytes are validated to decode as whole records, each commit
        and checkpoint-begin stamped no earlier than the one of its kind
        before it (:meth:`append`'s order), and their commits,
        checkpoint-begins, begins and aborts enter the directories (wall
        clocks and txn ids read in place; a checkpoint-begin's body is
        the one decoded, for its active table). One sequential log write
        is charged (the standby lands the stream the same way the primary
        flushed it).
        """
        with self.latch:
            end = self._end()
            if start_lsn != end:
                raise WalError(
                    f"ingest at {format_lsn(start_lsn)} does not continue the "
                    f"log (end is {format_lsn(end)})"
                )
            if not data:
                return
            # Boundary walk: reject torn frames and walls out of order
            # (LogRecordDecodeError) before mutating any state.
            commit_dir, ckpt_dir = self._commit_dir, self._ckpt_dir
            commit_wall = commit_dir.walls[commit_dir.n - 1] if commit_dir.n else -inf
            ckpt_wall = ckpt_dir.walls[ckpt_dir.n - 1] if ckpt_dir.n else -inf
            commits, checkpoints, txns = [], [], []
            for lsn, total, record_type in walk_boundaries(data, base_lsn=start_lsn):
                if record_type == _COMMIT_TYPE:
                    if total != _COMMIT_SIZE:
                        raise LogRecordDecodeError(
                            f"commit at {format_lsn(lsn)} is {total} "
                            f"bytes, not {_COMMIT_SIZE}"
                        )
                    wall = _WALL.unpack_from(data, lsn - start_lsn + HEADER_SIZE)[0]
                    if wall < commit_wall:
                        raise LogRecordDecodeError(
                            f"commit at {format_lsn(lsn)} is stamped {wall!r}, "
                            f"before the commit preceding it ({commit_wall!r})"
                        )
                    commits.append((lsn, wall))
                    commit_wall = wall
                elif record_type == _CHECKPOINT_BEGIN_TYPE:
                    if total < _COMMIT_SIZE:
                        raise LogRecordDecodeError(
                            f"checkpoint at {format_lsn(lsn)} is {total} bytes"
                        )
                    wall = _WALL.unpack_from(data, lsn - start_lsn + HEADER_SIZE)[0]
                    if wall < ckpt_wall:
                        raise LogRecordDecodeError(
                            f"checkpoint at {format_lsn(lsn)} is stamped {wall!r}, "
                            f"before the checkpoint preceding it ({ckpt_wall!r})"
                        )
                    checkpoints.append((lsn, wall))
                    ckpt_wall = wall
                    active = decode_record(data, lsn - start_lsn, lsn)[0].active_txns
                    txns += [(_BEGIN_TYPE, txn_id, NULL_LSN) for txn_id, _last in active]
                if record_type in _TXN_TYPES:
                    txn_id = HEADER_TXN_ID.unpack_from(data, lsn - start_lsn)[0]
                    txns.append((record_type, txn_id, lsn))
            self._data += data
            self._durable_end = self._end()
            for entry in commits:
                commit_dir.note(*entry)
            for entry in checkpoints:
                ckpt_dir.note(*entry)
            for entry in txns:
                self._txn_dir.note(*entry)
            self.env.log_device.write_seq_async(len(data))
            self.env.stats.log_flushes += 1
            self.env.stats.log_write_bytes += len(data)

    def open_at(self, base_lsn: int, last_txn_id: int = 0) -> None:
        """Rebase a pristine, empty log so its next record lands at
        ``base_lsn``.

        The log stream of an archive-restored database copy — or of a
        standby seeded from a backup chain — starts mid-history: the first
        byte it will ever hold is the record at the seed LSN, and
        everything below that LSN lives in the backup pages (or the
        archive). ``last_txn_id`` is the highest transaction id the
        history began below ``base_lsn``: :meth:`retained_span` reads
        every id up to it as one retention dropped. Only a freshly
        constructed log (no appended records, no prior rebase) may be
        rebased; anything else would orphan LSNs.
        """
        with self.latch:
            if base_lsn < FIRST_LSN:
                raise WalError(
                    f"cannot open log at {format_lsn(base_lsn)}: below the "
                    f"first valid LSN {format_lsn(FIRST_LSN)}"
                )
            if (
                self._base != 0
                or self.end_lsn != FIRST_LSN
                or self._durable_end != FIRST_LSN
                or self._truncated_before != FIRST_LSN
            ):
                raise WalError(
                    f"open_at requires a pristine empty log "
                    f"(end={format_lsn(self.end_lsn)}, base={self._base})"
                )
            self._data = bytearray()
            self._base = base_lsn
            self._durable_end = base_lsn
            self._truncated_before = base_lsn
            self._txn_dir.dropped = last_txn_id

    def discard_after(self, lsn: int) -> None:
        """Throw away all records with LSN >= ``lsn`` (standby promotion).

        Point-in-time promotion of a replica stops applying at a SplitLSN
        and continues the timeline from there; shipped-but-unwanted records
        beyond the split must vanish so new writes append at the split.
        Only meaningful on a standby log — a primary never unwrites
        durable records.
        """
        with self.latch:
            if lsn > self.end_lsn:
                return
            if lsn < self._truncated_before:
                raise WalError(
                    f"cannot discard from {format_lsn(lsn)}: below the "
                    f"retention horizon {format_lsn(self._truncated_before)}"
                )
            del self._data[lsn - self._base :]
            self._durable_end = min(self._durable_end, lsn)
            self._cache.clear()
            self._commit_dir.cut(lsn)
            self._ckpt_dir.cut(lsn)
            self._txn_dir.cut(lsn)

    # ------------------------------------------------------------------
    # Sequential scans (recovery, SplitLSN search, roll-forward)
    # ------------------------------------------------------------------

    def scan(
        self,
        from_lsn: int,
        to_lsn: int | None = None,
        *,
        types=None,
        stop_on_torn_tail: bool = False,
    ):
        """Yield records with ``from_lsn <= record.lsn < to_lsn`` in order.

        ``types`` (an iterable of :class:`RecordType`) narrows what is
        *built*, never what is *checked*: every record in the range has
        its header bounds, CRC and type verified, the same log blocks are
        read and charged, and only records of a wanted type get a body
        decode and an object (``None``: all of them).

        With ``stop_on_torn_tail`` the scan ends silently at the first
        record that fails a check — the behavior recovery relies on to
        find the end of a crash-truncated log.
        """
        wanted = None if types is None else frozenset(map(int, types))
        return self._scan(from_lsn, to_lsn, stop_on_torn_tail, types=wanted)

    def scan_headers(
        self,
        from_lsn: int,
        to_lsn: int | None = None,
        *,
        raw=(),
        stop_on_torn_tail: bool = False,
    ):
        """:meth:`scan` for readers that need no bodies: yields
        ``(RecordHeader, bytes | None)`` for every record in the range —
        checked and charged exactly as :meth:`scan` does, with no body
        decoded. The second item is the whole serialized record when its
        type is in ``raw`` (for :func:`decode_record` later, should the
        reader turn out to need it), else ``None``.
        """
        return self._scan(from_lsn, to_lsn, stop_on_torn_tail, raw=frozenset(map(int, raw)))

    def _scan(self, from_lsn: int, to_lsn: int | None, stop_on_torn_tail: bool, **build):
        # One latch hold per log block, never across a yield: a suspended
        # generator must not wedge concurrent appenders. Every record that
        # starts in the block is checked and built under that hold; the
        # batch is handed out after the latch is released.
        with self.latch:
            if from_lsn < self._truncated_before:
                raise LogTruncatedError(
                    f"scan start {format_lsn(from_lsn)} is below the "
                    f"retention horizon {format_lsn(self._truncated_before)}"
                )
            limit = self._end() if to_lsn is None else min(to_lsn, self._end())
            lsn = max(from_lsn, FIRST_LSN, self._base)
        block_size = self.block_size
        while lsn < limit:
            batch: list = []
            torn = None
            with self.latch:
                base = self._base
                if lsn < self._truncated_before:
                    raise LogTruncatedError(
                        f"scan position {format_lsn(lsn)} fell below the "
                        f"retention horizon {format_lsn(self._truncated_before)}"
                    )
                stop = min((lsn // block_size + 1) * block_size, limit, self._end())
                if lsn >= stop:
                    return  # the log shrank under the scan (crash, discard_after)
                self._touch_block(lsn, sequential=True, undo=False)
                try:
                    lsn = base + decode_span(
                        self._data, lsn - base, stop - base, batch, base_lsn=base, **build
                    )
                except LogRecordDecodeError as exc:
                    torn = exc
            yield from batch
            if torn is not None:
                if stop_on_torn_tail:
                    return
                raise torn

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate a crash: the volatile tail and the cache vanish."""
        with self.latch:
            keep = self._durable_end - self._base
            del self._data[keep:]
            self._cache.clear()
            self._commit_dir.cut(self._durable_end)
            self._ckpt_dir.cut(self._durable_end)
            self._txn_dir.cut(self._durable_end)

    def close(self) -> None:
        """Release the log's bytes, block cache and directories: its
        database is being retired. Nothing is flushed
        and nothing is charged; the positions stay where they were, with
        every LSN now below the horizon."""
        with self.latch:
            self._base = self._truncated_before = self.end_lsn
            self._data = bytearray()
            self._cache.clear()
            self._commit_dir = WallDirectory()
            self._ckpt_dir = WallDirectory()
            self._txn_dir = TransactionDirectory()

    def truncate_before(self, lsn: int) -> None:
        """Drop all records with LSN < ``lsn`` (retention enforcement).

        Only durable prefixes may be truncated. The freed bytes are
        physically released.
        """
        with self.latch:
            if lsn <= self._truncated_before:
                return
            if lsn > self._durable_end:
                raise WalError(
                    f"cannot truncate at {format_lsn(lsn)} beyond durable "
                    f"boundary {format_lsn(self._durable_end)}"
                )
            cut = lsn - self._base
            del self._data[:cut]
            self._base = lsn
            self._truncated_before = lsn
            self._commit_dir.drop_below(lsn)
            self._ckpt_dir.drop_below(lsn)
            self._txn_dir.drop_below(lsn)

    def __repr__(self) -> str:
        return (
            f"LogManager(end={format_lsn(self.end_lsn)}, "
            f"durable={format_lsn(self._durable_end)}, "
            f"start={format_lsn(self._truncated_before)}, "
            f"bytes={len(self._data)})"
        )
