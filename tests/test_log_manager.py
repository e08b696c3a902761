"""Log manager tests: append/flush, reads, scans, truncation, crash."""

from __future__ import annotations

import random

import pytest

from repro.config import SimEnv
from repro.errors import LogRecordDecodeError, LogTruncatedError, WalError
from repro.sim.device import SAS_10K, SLC_SSD
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN
from repro.wal.records import (
    BeginRecord,
    CommitRecord,
    InsertRowRecord,
    PageImageRecord,
    PreformatPageRecord,
    decode_record,
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


class TestBatchedReads:
    """read_header / read_many: the batched chain-walk access path."""

    def test_read_header_matches_record(self):
        log, _env = make_log()
        lsn = log.append(
            InsertRowRecord(
                slot=3, row=b"abc", page_id=9, prev_page_lsn=77, txn_id=5
            )
        )
        header = log.read_header(lsn)
        assert header.lsn == lsn
        assert header.page_id == 9
        assert header.prev_page_lsn == 77
        assert header.txn_id == 5

    def test_read_header_charges_sector_not_block(self):
        from repro.wal.log_manager import HEADER_READ_BYTES

        log, env = make_log(log_profile=SAS_10K, block_size=4096, cache_blocks=4)
        lsn = log.append(BeginRecord(txn_id=1))
        log.flush()
        t0 = env.clock.now()
        log.read_header(lsn)
        header_s = env.clock.now() - t0
        expected = SAS_10K.rand_read_time(HEADER_READ_BYTES)
        assert header_s == pytest.approx(expected)
        assert env.stats.undo_header_reads == 1
        # The block was never streamed: a full read still charges it.
        t1 = env.clock.now()
        log.read(lsn, for_undo=True)
        assert env.clock.now() > t1
        assert env.stats.undo_log_reads == 1
        # ... and once the block is cached, headers are free.
        t2 = env.clock.now()
        log.read_header(lsn)
        assert env.clock.now() == t2

    def test_read_many_returns_all_records(self):
        log, _env = make_log()
        lsns = [
            log.append(InsertRowRecord(slot=i, row=bytes([i] * 20), page_id=1))
            for i in range(10)
        ]
        log.flush()
        records = log.read_many([lsns[7], lsns[2], lsns[7], lsns[0]])
        assert set(records) == {lsns[0], lsns[2], lsns[7]}
        assert records[lsns[2]].slot == 2
        assert records[lsns[7]].slot == 7

    def test_read_many_coalesces_adjacent_blocks(self):
        # 10 records of ~72 bytes across 256-byte blocks: the LSN set
        # spans several adjacent blocks that one span must absorb.
        log, env = make_log(
            log_profile=SAS_10K, block_size=256, cache_blocks=16,
            coalesce_gap_blocks=1,
        )
        lsns = [
            log.append(InsertRowRecord(slot=i, row=bytes([i] * 30), page_id=1))
            for i in range(10)
        ]
        log.flush()
        records = log.read_many(lsns)
        assert len(records) == 10
        assert env.stats.undo_log_reads == 1  # one coalesced span
        assert env.stats.undo_reads_coalesced > 0
        # Spanned blocks are cached: re-reads are free.
        t0 = env.clock.now()
        log.read(lsns[0], for_undo=True)
        assert env.clock.now() == t0

    def test_read_many_respects_gap_limit(self):
        log, env = make_log(
            log_profile=SAS_10K, block_size=256, cache_blocks=32,
            coalesce_gap_blocks=0,
        )
        lsns = []
        for i in range(40):
            lsns.append(
                log.append(InsertRowRecord(slot=i, row=bytes([i]) * 30, page_id=1))
            )
        log.flush()
        # Two records far apart with gap 0: two separate spans.
        log.read_many([lsns[0], lsns[-1]])
        assert env.stats.undo_log_reads == 2

    def test_read_many_volatile_tail_free(self):
        log, env = make_log(log_profile=SAS_10K)
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(3)]
        t0 = env.clock.now()
        records = log.read_many(lsns)
        assert env.clock.now() == t0
        assert len(records) == 3
        assert env.stats.undo_log_reads == 0

    def test_read_many_below_horizon_raises(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(4)]
        log.flush()
        log.truncate_before(lsns[2])
        with pytest.raises(LogTruncatedError):
            log.read_many([lsns[0], lsns[3]])

    def test_read_header_below_horizon_raises(self):
        log, _env = make_log()
        lsns = [log.append(BeginRecord(txn_id=i)) for i in range(4)]
        log.flush()
        log.truncate_before(lsns[2])
        with pytest.raises(LogTruncatedError):
            log.read_header(lsns[0])


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
    """The header walker against a full ``decode_record`` loop, and the
    two LogManager paths built on it."""

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
            assert header == log.read_header(header.lsn)
            record = log.read(header.lsn)
            assert (header.record_type, header.page_id, header.prev_page_lsn) == (
                record.TYPE, record.page_id, record.prev_page_lsn
            )

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
