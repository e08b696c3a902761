"""Log manager tests: append/flush, reads, scans, truncation, crash."""

from __future__ import annotations

import collections
import random
import threading
import zlib

import pytest

from repro.config import SimEnv
from repro.errors import LogRecordDecodeError, LogTruncatedError, WalError
from repro.sim.device import SAS_10K, SLC_SSD
from repro.wal.log_manager import CommitDirectory, LogManager
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    HEADER_SIZE,
    BeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    InsertRowRecord,
    LogRecord,
    PageImageRecord,
    PreformatPageRecord,
    RecordType,
    decode_record,
    unpack_header,
    walk_boundaries,
    walk_headers,
)


def make_log(data_profile=None, log_profile=None, **kw) -> tuple[LogManager, SimEnv]:
    env = SimEnv(log_profile=log_profile or SLC_SSD) if log_profile else SimEnv.for_tests()
    log = LogManager(env, **kw)
    return log, env


class TestAppendFlush:
    def test_first_lsn(self):
        log, _env = make_log()
        rec = BeginRecord(txn_id=1)
        assert log.append(rec) == FIRST_LSN
        assert rec.lsn == FIRST_LSN

    def test_lsns_monotone(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_flush_moves_durable_boundary(self):
        log, _env = make_log()
        log.append(BeginRecord(txn_id=1))
        assert log.durable_lsn == FIRST_LSN
        log.flush()
        assert log.durable_lsn == log.end_lsn

    def test_flush_noop_when_durable(self):
        log, env = make_log(log_profile=SLC_SSD)
        lsn = log.append(BeginRecord(txn_id=1))
        log.flush()
        flushes = env.stats.log_flushes
        log.flush(lsn)
        assert env.stats.log_flushes == flushes

    def test_flush_charges_sequential_write(self):
        log, env = make_log(log_profile=SAS_10K)
        log.append(BeginRecord(txn_id=1))
        log.flush()
        assert env.clock.now() > 0
        assert env.stats.log_write_bytes > 0

    def test_record_counters(self):
        log, env = make_log()
        log.append(PreformatPageRecord(image=b"x" * 100, page_id=3))
        log.append(PageImageRecord(image=b"y" * 100, page_id=3))
        assert env.stats.preformat_records == 1
        assert env.stats.page_image_records == 1
        assert env.stats.preformat_bytes > 100
        assert env.stats.log_records == 2


class TestRead:
    def test_read_back(self):
        log, _env = make_log()
        lsn = log.append(InsertRowRecord(slot=2, row=b"data", page_id=9))
        rec = log.read(lsn)
        assert isinstance(rec, InsertRowRecord)
        assert rec.lsn == lsn
        assert rec.row == b"data"

    def test_read_below_start_raises(self):
        log, _env = make_log()
        with pytest.raises(WalError):
            log.read(FIRST_LSN - 1)

    def test_read_past_end_raises(self):
        log, _env = make_log()
        with pytest.raises(WalError):
            log.read(log.end_lsn)

    def test_volatile_tail_read_is_free(self):
        log, env = make_log(log_profile=SAS_10K)
        lsn = log.append(BeginRecord(txn_id=1))
        t0 = env.clock.now()
        log.read(lsn, for_undo=True)
        assert env.clock.now() == t0
        assert env.stats.undo_log_reads == 0

    def test_durable_read_charges_then_caches(self):
        log, env = make_log(log_profile=SAS_10K, block_size=4096, cache_blocks=4)
        lsn = log.append(BeginRecord(txn_id=1))
        log.flush()
        t0 = env.clock.now()
        log.read(lsn, for_undo=True)
        assert env.clock.now() > t0
        assert env.stats.undo_log_reads == 1
        t1 = env.clock.now()
        log.read(lsn, for_undo=True)
        assert env.clock.now() == t1  # cache hit
        assert env.stats.undo_log_cache_hits == 1

    def test_cache_eviction(self):
        log, env = make_log(log_profile=SAS_10K, block_size=256, cache_blocks=2)
        lsns = []
        for _ in range(40):
            lsns.append(log.append(InsertRowRecord(slot=0, row=bytes(50), page_id=1)))
        log.flush()
        log.read(lsns[0], for_undo=True)
        log.read(lsns[20], for_undo=True)
        log.read(lsns[-1], for_undo=True)
        reads_before = env.stats.undo_log_reads
        log.read(lsns[0], for_undo=True)  # evicted: charged again
        assert env.stats.undo_log_reads == reads_before + 1


class TestScan:
    def test_scan_all(self):
        log, _env = make_log()
        for i in range(10):
            log.append(BeginRecord(txn_id=i + 1))
        records = list(log.scan(FIRST_LSN))
        assert len(records) == 10
        assert [r.txn_id for r in records] == list(range(1, 11))

    def test_scan_range(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(10)]
        subset = list(log.scan(lsns[3], lsns[7]))
        assert [r.lsn for r in subset] == lsns[3:7]

    def test_scan_stops_at_torn_tail(self):
        log, _env = make_log()
        for i in range(5):
            log.append(BeginRecord(txn_id=i))
        log.flush()
        # Corrupt the tail: append garbage directly.
        log._data += b"\x99" * 10
        records = list(log.scan(FIRST_LSN, stop_on_torn_tail=True))
        assert len(records) == 5

    def test_scan_charges_sequentially(self):
        log, env = make_log(log_profile=SAS_10K, block_size=512, cache_blocks=64)
        for i in range(50):
            log.append(CommitRecord(wall_clock=float(i), txn_id=i))
        log.flush()
        list(log.scan(FIRST_LSN))
        assert env.stats.log_scan_reads > 0
        assert env.stats.undo_log_reads == 0


class TestCrashTruncate:
    def test_crash_discards_volatile(self):
        log, _env = make_log()
        log.append(BeginRecord(txn_id=1))
        log.flush()
        end_durable = log.end_lsn
        log.append(BeginRecord(txn_id=2))
        log.crash()
        assert log.end_lsn == end_durable
        assert len(list(log.scan(FIRST_LSN, stop_on_torn_tail=True))) == 1

    def test_truncate_frees_and_guards(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(10)]
        log.flush()
        size_before = log.total_bytes()
        log.truncate_before(lsns[5])
        assert log.total_bytes() < size_before
        assert log.start_lsn == lsns[5]
        with pytest.raises(LogTruncatedError):
            log.read(lsns[4])
        with pytest.raises(LogTruncatedError):
            list(log.scan(lsns[0]))
        # Retained records still readable.
        assert log.read(lsns[5]).txn_id == 5

    def test_truncate_beyond_durable_rejected(self):
        log, _env = make_log()
        log.append(BeginRecord(txn_id=1))
        log.flush()
        lsn = log.append(BeginRecord(txn_id=2))
        with pytest.raises(WalError):
            log.truncate_before(log.end_lsn)
        del lsn

    def test_truncate_backwards_is_noop(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(4)]
        log.flush()
        log.truncate_before(lsns[2])
        log.truncate_before(lsns[1])
        assert log.start_lsn == lsns[2]

    def test_reads_after_truncate_use_correct_offsets(self):
        log, _env = make_log()
        lsns = []
        for i in range(20):
            lsns.append(log.append(InsertRowRecord(slot=i, row=bytes([i] * 10), page_id=1)))
        log.flush()
        log.truncate_before(lsns[10])
        for idx in range(10, 20):
            assert log.read(lsns[idx]).slot == idx

    def test_truncating_every_commit_leaves_a_directory_that_grows_again(self):
        """Truncation past every commit of a full directory empties its
        arrays; the next commit must still find room."""
        log, _env = make_log()
        for txn in range(1, 65):
            log.append(CommitRecord(wall_clock=float(txn), txn_id=txn))
        log.flush()
        log.truncate_before(log.end_lsn)
        assert log.last_commit_lsn == NULL_LSN
        lsn = log.append(CommitRecord(wall_clock=100.0, txn_id=65))
        assert log.last_commit_lsn == lsn
        assert log.commit_split(70.0, log.start_lsn) == log.start_lsn
        assert log.commit_split(170.0, log.start_lsn) == lsn

    def test_crash_and_discard_at_every_record_keep_the_directory_of_the_kept_commits(self):
        """``CommitDirectory.cut`` deletes the entries past the cut and
        keeps the rest as they were: after a crash or ``discard_after`` at
        any record, the directory equals one noted afresh from the
        commits below the cut."""

        def build(flush_before: int) -> LogManager:
            # 40 begin/commit pairs in 512-byte blocks, walls out of LSN
            # order so that the running max is what an entry must get right.
            log, _env = make_log(block_size=512)
            for index in range(80):
                if index == flush_before:
                    log.flush()
                txn = index // 2 + 1
                if index % 2:
                    log.append(CommitRecord(wall_clock=float(txn * 7 % 13), txn_id=txn))
                else:
                    log.append(BeginRecord(txn_id=txn))
            return log

        records = list(build(80).scan(FIRST_LSN))
        commits = [(rec.lsn, rec.wall_clock) for rec in records if isinstance(rec, CommitRecord)]
        for index, rec in enumerate(records):
            expected = CommitDirectory()
            for lsn, wall in commits:
                if lsn < rec.lsn:
                    expected.note(lsn, wall)
            crashed = build(index)  # durable up to this record
            crashed.crash()
            discarded = build(80)
            discarded.discard_after(rec.lsn)
            for log in (crashed, discarded):
                assert log.end_lsn == rec.lsn
                kept, fresh = log._commit_dir, expected
                assert (kept._lsns[:kept._n], kept._walls[:kept._n]) == (
                    fresh._lsns[:fresh._n], fresh._walls[:fresh._n]
                ), (index, log is crashed)
                assert log.last_commit_lsn == expected.last


@pytest.fixture(scope="module")
def tpcc_log():
    """(log, record boundaries) of a small TPC-C run: every record type
    the workload emits, sizes from 42 bytes to a page image, a volatile
    tail past the last flush."""
    from repro import DatabaseConfig, Engine
    from repro.workload import TpccDriver, TpccScale, load_tpcc

    scale = TpccScale(warehouses=1, districts_per_warehouse=2, customers_per_district=10, items=40)
    db = Engine(SimEnv.for_tests()).create_database(
        "tpcc", DatabaseConfig(page_size=1024, buffer_pool_pages=64)
    )
    load_tpcc(db, scale)
    TpccDriver(db, scale, seed=3).run_transactions(40)
    log = db.log
    log.append(BeginRecord(txn_id=10**6))  # unflushed tail
    data = log.read_bytes(log.start_lsn, log.end_lsn)
    boundaries = [log.start_lsn]
    offset = 0
    while offset < len(data):  # the reference walk: a full decode of every record
        _record, offset = decode_record(data, offset)
        boundaries.append(log.start_lsn + offset)
    assert len(boundaries) > 1000
    return log, boundaries


class TestStreamWalk:
    """The header walker against a full ``decode_record`` loop, the
    boundary walker against the header walker, and the LogManager paths
    built on the boundary walker."""

    def test_walker_boundaries_equal_a_full_decode_loop(self, tpcc_log):
        log, boundaries = tpcc_log
        data = log.read_bytes(log.start_lsn, log.end_lsn)
        headers = list(walk_headers(data, base_lsn=log.start_lsn))
        assert [h.lsn for h in headers] == boundaries[:-1]
        assert [h.lsn + h.total for h in headers] == boundaries[1:]
        middle = boundaries[len(boundaries) // 2]
        resumed = walk_headers(data, middle - log.start_lsn, base_lsn=log.start_lsn)
        assert [h.lsn for h in resumed] == [b for b in boundaries[:-1] if b >= middle]
        for header in headers[:: len(headers) // 50]:
            assert header == unpack_header(data, header.lsn - log.start_lsn, header.lsn)
            record = log.read(header.lsn)
            assert (header.record_type, header.page_id, header.prev_page_lsn) == (
                record.TYPE, record.page_id, record.prev_page_lsn
            )

    def test_boundary_walk_equals_the_header_walk(self, tpcc_log):
        log, boundaries = tpcc_log
        base = log.start_lsn
        view = memoryview(log.read_bytes(base, log.end_lsn))
        offsets = [b - base for b in boundaries]
        last = len(offsets) - 1
        endings = collections.Counter()

        def same(start, cut):
            lean = walked(walk_boundaries, view[:cut], start, base)
            full = walked(walk_headers, view[:cut], start, base)
            assert lean == ([(h.lsn, h.total, h.record_type) for h in full[0]], full[1]), (
                start, cut
            )
            endings[lean[1] and lean[1].split(" at ")[0]] += 1

        # Every start boundary, cut on and off the boundaries just past it.
        for i, start in enumerate(offsets[:-1]):
            ahead = offsets[min(i + 3, last)]
            for cut in {offsets[i + 1], ahead, ahead - 1, start + 1, start + HEADER_SIZE - 1,
                        start + HEADER_SIZE}:
                same(start, cut)
        # Every cut of a stretch, from its first boundary and its middle one.
        for start in (offsets[0], offsets[20]):
            for cut in range(start + 1, offsets[40] + 1):
                same(start, cut)
        # Whole, from two boundaries; and off-boundary starts.
        same(offsets[0], len(view))
        same(offsets[last // 2], len(view))
        for i in range(0, last - 4, 40):
            for skew in (1, 5, HEADER_SIZE):
                same(offsets[i] + skew, offsets[i + 4])
        assert endings.keys() == {None, "truncated header", "truncated record"}
        assert endings.total() > 12000

    def test_record_aligned_end_agrees_with_the_boundary_oracle(self, tpcc_log):
        log, boundaries = tpcc_log
        end = boundaries[-1]
        rng = random.Random(5)
        starts = boundaries[:3] + rng.sample(boundaries[:-1], 25) + boundaries[-3:-1]
        for from_lsn in starts:
            later = [b for b in boundaries if b > from_lsn]
            limits = [None, from_lsn, later[0], later[0] - 1, later[len(later) // 2] + 7,
                      rng.choice(later), end, end + 10**6]
            for limit_lsn in limits:
                for max_bytes in (1, 41, 300, 5000, 1 << 20):
                    limit = end if limit_lsn is None else min(limit_lsn, end)
                    reachable = [b for b in later if b <= limit]
                    fitting = [b for b in reachable if b - from_lsn <= max_bytes]
                    # One record always ships, however small the budget.
                    expected = max(fitting) if fitting else (reachable or [from_lsn])[0]
                    assert log.record_aligned_end(from_lsn, max_bytes, limit_lsn) == expected, (
                        from_lsn, max_bytes, limit_lsn
                    )

    def test_ingest_rejects_every_cut_off_a_record_boundary(self, tpcc_log):
        source, boundaries = tpcc_log
        start, stop = boundaries[0], boundaries[60]
        data = source.read_bytes(start, stop)
        assert {CommitRecord.TYPE, BeginRecord.TYPE} <= {
            h.record_type for h in walk_headers(data)
        }
        standby, env = make_log()
        standby.open_at(start)
        pristine = (repr(standby), standby.last_commit_lsn, env.stats.snapshot())
        whole = {b - start for b in boundaries[:61]}
        for cut in range(len(data)):
            if cut in whole:
                continue
            with pytest.raises(LogRecordDecodeError):
                standby.ingest(start, data[:cut])
            assert (repr(standby), standby.last_commit_lsn, env.stats.snapshot()) == pristine
        # ... and lands the same bytes whole, at any boundary.
        for boundary in (boundaries[1], boundaries[30], stop):
            standby.ingest(standby.end_lsn, data[standby.end_lsn - start : boundary - start])
            assert standby.end_lsn == standby.durable_lsn == boundary
        assert standby.read_bytes(start, stop) == data
        commits = [h.lsn for h in walk_headers(data, base_lsn=start)
                   if h.record_type == CommitRecord.TYPE]
        assert standby.last_commit_lsn == commits[-1]


def walked(walk, data, start, base):
    """What ``walk`` yields from ``start`` until it stops, and the error
    it stops with (``None`` at the end of ``data``)."""
    got = []
    try:
        for item in walk(data, start, base_lsn=base):
            got.append(item)
    except LogRecordDecodeError as exc:
        return got, str(exc)
    return got, None


# ---------------------------------------------------------------------------
# The block-granular scan against the per-record loop it replaced
# ---------------------------------------------------------------------------


def reference_scan(log, from_lsn, to_lsn=None, *, stop_on_torn_tail=False):
    """The scan as it was before it went block-granular — one latch hold,
    one block touch and one full ``decode_record`` per record — kept as
    the oracle for what is yielded and what is charged."""
    with log.latch:
        limit = log.end_lsn if to_lsn is None else min(to_lsn, log.end_lsn)
        lsn = max(from_lsn, FIRST_LSN, log._base)
    while lsn < limit:
        with log.latch:
            if lsn >= log._base + len(log._data):
                return
            log._touch_block(lsn, sequential=True, undo=False)
            try:
                record, end_offset = decode_record(log._data, lsn - log._base, lsn)
            except LogRecordDecodeError:
                if stop_on_torn_tail:
                    return
                raise
            next_lsn = log._base + end_offset
        yield record
        lsn = next_lsn


def observed(log, env, scan, *args, **kwargs):
    """Run one scan from a cold block cache; returns what it yielded (and
    the error it ended with, if any) and everything it cost."""
    log._cache.clear()
    stats, device = env.stats, env.log_device
    before = (stats.log_scan_reads, stats.log_scan_bytes, device.busy_seconds, env.clock.now())
    got, error = [], None
    try:
        for item in scan(*args, **kwargs):
            got.append(item)
    except LogRecordDecodeError as exc:
        error = str(exc)
    after = (stats.log_scan_reads, stats.log_scan_bytes, device.busy_seconds, env.clock.now())
    # (Deltas of two float accumulators: equal up to where they started.)
    cost = tuple(round(b - a, 9) for a, b in zip(before, after, strict=True)) + (tuple(log._cache),)
    return got, error, cost


def wire(records):
    return [(rec.lsn, rec.serialize()) for rec in records]


@pytest.fixture()
def rebased_log(tpcc_log):
    """(log, env, record LSNs) of a log with everything a scan can meet:
    opened mid-history (``open_at``) on a priced device, blocks far
    smaller than a page image so records straddle and skip blocks, CLRs
    with nested records, a truncated prefix and a volatile tail."""
    source, boundaries = tpcc_log
    start = boundaries[len(boundaries) // 4]
    env = SimEnv(log_profile=SAS_10K)
    log = LogManager(env, block_size=512, cache_blocks=3)
    log.open_at(start)
    log.ingest(start, source.read_bytes(start, source.durable_lsn))
    for slot in range(6):
        comp = DeleteRowRecord(slot=slot, row=b"r" * 40, key_bytes=b"k", page_id=7)
        log.append(ClrRecord(compensated_lsn=start, comp=comp, txn_id=99, page_id=7))
        log.append(PageImageRecord(image=bytes([slot]) * 1200, page_id=7))  # skips a block
    log.flush()
    log.truncate_before(boundaries[len(boundaries) // 3])
    log.append(BeginRecord(txn_id=10**6))  # volatile from here
    log.append(InsertRowRecord(slot=1, row=b"tail", key_bytes=b"t", txn_id=10**6, page_id=9))
    log.append(CommitRecord(wall_clock=1.0, txn_id=10**6))
    lsns = [rec.lsn for rec in reference_scan(log, log.start_lsn)]
    assert log.start_lsn % log.block_size and log.durable_lsn == lsns[-3]
    return log, env, lsns


class TestBlockScan:
    """``scan`` / ``scan(types=…)`` / ``scan_headers``: same records, same
    charges, same errors as the per-record loop."""

    TYPE_SETS = (
        (RecordType.COMMIT,),
        (RecordType.CLR, RecordType.PAGE_IMAGE),
        (RecordType.INSERT_ROW, RecordType.DELETE_ROW, RecordType.UPDATE_ROW),
        (RecordType.CHECKPOINT_BEGIN, RecordType.BEGIN, RecordType.ABORT),
        (),
    )

    def ranges(self, log, lsns):
        rng = random.Random(11)
        mid_block = next(lsn for lsn in lsns[50:] if lsn % log.block_size > 100)
        yield log.start_lsn, None
        yield mid_block, None
        yield mid_block, lsns[-2]  # ends inside the volatile tail
        yield lsns[-3], None  # volatile tail only
        yield lsns[7], lsns[7]  # empty
        yield lsns[7], lsns[7] + 1  # one record
        for _ in range(6):
            lo, hi = sorted(rng.sample(range(len(lsns)), 2))
            yield lsns[lo], lsns[hi] + rng.choice((0, 1, 20))  # limits off a boundary too

    def test_filtered_unfiltered_and_reference_agree(self, rebased_log):
        log, env, lsns = rebased_log
        seen = set()
        for from_lsn, to_lsn in self.ranges(log, lsns):
            expected, _, expected_cost = observed(log, env, reference_scan, log, from_lsn, to_lsn)
            everything, _, cost = observed(log, env, log.scan, from_lsn, to_lsn)
            assert wire(everything) == wire(expected)
            assert cost == expected_cost, (from_lsn, to_lsn)
            headers, _, cost = observed(
                log, env, log.scan_headers, from_lsn, to_lsn, raw=(RecordType.CLR,)
            )
            assert cost == expected_cost
            assert [h for h, _raw in headers] == [
                unpack_header(r.serialize(), 0, r.lsn) for r in expected
            ]
            assert [raw for _h, raw in headers] == [
                r.serialize() if r.TYPE == RecordType.CLR else None for r in expected
            ]
            for types in self.TYPE_SETS:
                filtered, _, cost = observed(log, env, log.scan, from_lsn, to_lsn, types=types)
                assert wire(filtered) == wire(r for r in expected if r.TYPE in types)
                assert cost == expected_cost, (from_lsn, to_lsn, types)
            seen.update(type(r) for r in expected)
        assert {ClrRecord, PageImageRecord, CommitRecord, InsertRowRecord} <= seen

    def test_nested_records_survive_the_filter(self, rebased_log):
        log, _env, _lsns = rebased_log
        clrs = list(log.scan(log.start_lsn, types=(RecordType.CLR,)))
        assert [clr.comp.slot for clr in clrs[-6:]] == list(range(6))
        assert all(isinstance(clr.comp, LogRecord) for clr in clrs)

    @pytest.mark.parametrize("stop_on_torn_tail", [False, True])
    def test_crc_is_checked_for_records_the_reader_did_not_ask_for(
        self, rebased_log, stop_on_torn_tail
    ):
        """Flip one body byte of a row record in the middle of a block:
        a commits-only scan must fail (or stop) exactly where a full one
        does, having lost nothing it decoded earlier in that block."""
        log, env, _lsns = rebased_log
        records = list(log.scan(log.start_lsn))
        block = log.block_size
        victim = next(
            rec for i, rec in enumerate(records) if i > 200
            and rec.TYPE == RecordType.UPDATE_ROW
            and any(  # a commit earlier in the victim's own block
                r.TYPE == RecordType.COMMIT and r.lsn // block == rec.lsn // block
                for r in records[i - 5 : i]
            )
        )
        log._data[victim.lsn - log._base + HEADER_SIZE + 3] ^= 0x40
        how = {"stop_on_torn_tail": stop_on_torn_tail}
        expected, error, cost = observed(log, env, reference_scan, log, log.start_lsn, **how)
        assert expected[-1].lsn < victim.lsn and (error is None) == stop_on_torn_tail
        for types in (None, (RecordType.COMMIT,), (RecordType.CLR,)):
            got, got_error, got_cost = observed(
                log, env, log.scan, log.start_lsn, types=types, **how
            )
            assert wire(got) == wire(r for r in expected if types is None or r.TYPE in types)
            assert (got_error, got_cost) == (error, cost)
        headers, got_error, got_cost = observed(log, env, log.scan_headers, log.start_lsn, **how)
        assert [h.lsn for h, _raw in headers] == [r.lsn for r in expected]
        assert (got_error, got_cost) == (error, cost)

    def test_unknown_type_is_rejected_when_filtered_out(self):
        log, _env = make_log()
        log.append(BeginRecord(txn_id=1))
        foreign = bytearray(BeginRecord(txn_id=2).serialize())
        foreign[4] = 0x63
        foreign[HEADER_SIZE - 4 : HEADER_SIZE] = bytes(4)
        foreign[HEADER_SIZE - 4 : HEADER_SIZE] = zlib.crc32(foreign).to_bytes(4, "little")
        log._data += foreign
        log.append(CommitRecord(txn_id=1))
        with pytest.raises(LogRecordDecodeError, match="unknown record type 99"):
            list(log.scan(FIRST_LSN, types=(RecordType.COMMIT,)))
        assert list(log.scan(FIRST_LSN, types=(RecordType.COMMIT,), stop_on_torn_tail=True)) == []

    def test_latch_is_not_held_across_a_yield(self, rebased_log):
        log, _env, lsns = rebased_log
        limit = log.end_lsn
        scan = log.scan(log.start_lsn)
        first = next(scan)
        second_in_block = lsns[1] // log.block_size == lsns[0] // log.block_size
        assert first.lsn == lsns[0] and second_in_block  # suspended mid-block
        appended = []

        def writer():
            appended.append(log.append(BeginRecord(txn_id=7)))
            log.flush()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive() and appended == [limit]
        assert log.durable_lsn == log.end_lsn > limit
        rest = list(scan)
        # The scan keeps the limit it started with: it does not see the append.
        assert [first.lsn, *(r.lsn for r in rest)] == lsns

    def test_one_latch_acquisition_per_block(self, rebased_log):
        log, _env, lsns = rebased_log
        for scan, kwargs in (
            (log.scan, {}),
            (log.scan, {"types": (RecordType.COMMIT,)}),
            (log.scan_headers, {}),
        ):
            before = log.latch.acquisitions
            count = sum(1 for _ in scan(log.start_lsn, **kwargs))
            blocks = len({lsn // log.block_size for lsn in lsns})
            assert count and log.latch.acquisitions - before <= blocks + 2

    def test_scan_overtaken_by_truncation_is_a_typed_error(self, rebased_log):
        log, _env, lsns = rebased_log
        scan = log.scan(log.start_lsn)
        next(scan)
        log.truncate_before(lsns[len(lsns) // 2])
        with pytest.raises(LogTruncatedError):
            list(scan)

    def test_random_reads_take_the_latch_once(self, rebased_log):
        log, _env, lsns = rebased_log
        before = log.latch.acquisitions
        log.read(lsns[40])
        assert log.latch.acquisitions - before == 1
