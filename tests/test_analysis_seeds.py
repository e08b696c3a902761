"""Analysis seeds: an AS OF window that starts at a remembered log-block
boundary finds what the window from the checkpoint finds, and costs one
block."""

from __future__ import annotations

import random
from types import SimpleNamespace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig
from repro.config import SimEnv
from repro.core.asof import AsOfSnapshot, collect_loser_locks, snapshot_analysis
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.recovery import analyze_log
from repro.errors import LogTruncatedError
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    FLAG_SMO,
    AbortRecord,
    AllocPageRecord,
    BeginRecord,
    CheckpointBeginRecord,
    ClrRecord,
    CommitRecord,
    DeleteRowRecord,
    InsertRowRecord,
)
from tests.conftest import ITEMS_SCHEMA
from tests.test_split_lsn import committed_marks


def checkpoint_seeded(db, split: int):
    """Section 5.2's window as it was before analysis seeds: from the
    newest checkpoint at or before the split."""
    base = analysis_base(db, split, db.log.start_lsn)
    analysis = analyze_log(db.log, base, split + 1)
    collect_loser_locks(db.log, analysis, base, min(base, split))
    return analysis


def memo_seeded(db, split: int):
    return snapshot_analysis(db, split)[0]


def outcome(analyse, db, split: int):
    """The losers and their lock sets, or the error (a seeded loser's
    chain reaching below the retained log)."""
    try:
        analysis = analyse(db, split)
    except LogTruncatedError as exc:
        return type(exc).__name__
    locks = {txn: set(keys) for txn, keys in analysis.loser_locks.items() if keys}
    return analysis.losers, locks


class _Txn:
    __slots__ = ("first", "last", "live")

    def __init__(self, lsn: int) -> None:
        self.first = self.last = lsn
        #: (lsn, prev_txn_lsn, object_id) of undoable records no CLR compensates.
        self.live: list[tuple[int, int, int]] = []


def _advance(open_txns: dict, rec) -> None:
    """Move the model of who is open past ``rec``."""
    txn = open_txns.get(rec.txn_id)
    if isinstance(rec, BeginRecord):
        open_txns[rec.txn_id] = _Txn(rec.lsn)
    elif isinstance(rec, (CommitRecord, AbortRecord)):
        open_txns.pop(rec.txn_id)
    elif isinstance(rec, ClrRecord):
        assert txn.live.pop()[0] == rec.compensated_lsn
        txn.last = rec.lsn
    elif txn is not None:
        txn.live.append((rec.lsn, rec.prev_txn_lsn, rec.object_id))
        txn.last = rec.lsn


class _History:
    """Up to three interleaved transactions over a db-shaped log (``env``,
    ``log``, ``last_checkpoint_lsn``), written record by record: rows with
    and without keys (some flagged SMO), allocations, partial rollbacks
    that log CLRs, commits, aborts, and checkpoints carrying the true
    active table."""

    BLOCK = 256

    def __init__(self, log_start: int) -> None:
        self.env = SimEnv.for_tests()
        self.log = LogManager(self.env, block_size=self.BLOCK, cache_blocks=2)
        if log_start != FIRST_LSN:
            self.log.open_at(log_start)
        self.db = SimpleNamespace(env=self.env, log=self.log, last_checkpoint_lsn=NULL_LSN)
        self.records: list = []  # every record the log still holds a byte of, or held
        self.open: dict[int, _Txn] = {}
        self.next_id = 1

    # -- the model: who is open, derived from the surviving records ------

    def _track(self, rec) -> None:
        _advance(self.open, rec)
        if isinstance(rec, CheckpointBeginRecord):
            self.db.last_checkpoint_lsn = rec.lsn

    def in_flight(self, split: int, floor: int):
        """The model's :func:`outcome` at ``split``: who the records up to
        it leave open, with the keys of their live non-SMO rows — or the
        error, when one of them began below the log's ``floor`` (the
        lock-collection walk follows every chain back to its begin)."""
        open_txns: dict[int, _Txn] = {}
        for rec in self.records:
            if rec.lsn > split:
                break
            _advance(open_txns, rec)
        if any(txn.first < floor for txn in open_txns.values()):
            return LogTruncatedError.__name__
        by_lsn = {rec.lsn: rec for rec in self.records}
        locks = {}
        for txn_id, txn in open_txns.items():
            rows = [by_lsn[lsn] for lsn, _prev, _object_id in txn.live]
            keys = {(rec.object_id, rec.key_bytes) for rec in rows
                    if getattr(rec, "key_bytes", b"") and not rec.is_smo}
            if keys:
                locks[txn_id] = keys
        return {txn_id: txn.last for txn_id, txn in open_txns.items()}, locks

    def append(self, rec) -> None:
        self.log.append(rec)
        self.records.append(rec)
        self._track(rec)

    def cut(self) -> None:
        """Replay the model over the records the log kept."""
        self.records = [rec for rec in self.records if rec.lsn < self.log.end_lsn]
        self.open, self.db.last_checkpoint_lsn = {}, NULL_LSN
        for rec in self.records:
            self._track(rec)

    def boundaries(self) -> list[int]:
        return [rec.lsn for rec in self.records if rec.lsn >= self.log.start_lsn]

    def pick(self, index: int, limit: int) -> int:
        bounds = [lsn for lsn in self.boundaries() if lsn <= limit] + [limit]
        return bounds[index % len(bounds)]

    # -- steps -------------------------------------------------------------

    def _txn(self, which: int):
        ids = sorted(self.open)
        return (ids[which % len(ids)], self.open[ids[which % len(ids)]]) if ids else (0, None)

    def rollback(self, txn_id: int, txn: _Txn, count: int) -> None:
        """Compensate the newest ``count`` live records, as rollback does."""
        for _ in range(min(count, len(txn.live))):
            lsn, prev, object_id = txn.live[-1]
            comp = DeleteRowRecord(key_bytes=b"comp", page_id=3, object_id=object_id)
            self.append(ClrRecord(
                compensated_lsn=lsn, undo_next_lsn=prev, comp=comp, txn_id=txn_id,
                prev_txn_lsn=txn.last, page_id=3, object_id=object_id,
            ))

    def run(self, step: int, op) -> None:
        log = self.log
        kind, arg = op
        if kind == "begin":
            if len(self.open) < 3:
                self.append(BeginRecord(txn_id=self.next_id))
                self.next_id += 1
        elif kind == "checkpoint":
            active = tuple((txn_id, txn.last) for txn_id, txn in self.open.items())
            self.append(CheckpointBeginRecord(
                wall_clock=float(step), prev_checkpoint_lsn=self.db.last_checkpoint_lsn,
                active_txns=active,
            ))
        elif kind == "flush":
            log.flush()
        elif kind == "crash":
            log.crash()
            self.cut()
        elif kind == "discard":
            log.discard_after(self.pick(arg, log.end_lsn))
            self.cut()
        elif kind == "truncate":
            # Where retention's pins can cut, and above the newest
            # checkpoint too: a checkpoint, an open transaction's begin or
            # chain, or a seed (a pin can land on one). The log may then
            # start at a seed, with no checkpoint kept below a split.
            log.flush()
            pins = {lsn for txn in self.open.values() for lsn in (txn.first, *(row[0] for row in txn.live))}
            pins.update(log._seeds._lsns)
            anchors = [
                rec.lsn for rec in self.records
                if log.start_lsn <= rec.lsn <= log.durable_lsn
                and (isinstance(rec, CheckpointBeginRecord) or rec.lsn in pins)
            ]
            if anchors:
                log.truncate_before(anchors[arg % len(anchors)])
        else:
            self.txn_step(step, kind, arg)

    def txn_step(self, step: int, kind: str, arg) -> None:
        txn_id, txn = self._txn(arg if isinstance(arg, int) else arg[0])
        if txn is None:
            return
        if kind == "row":
            _which, key, smo, size = arg
            self.append(InsertRowRecord(
                row=bytes(size), key_bytes=key, txn_id=txn_id, prev_txn_lsn=txn.last,
                page_id=3, object_id=5 + len(key) % 2, flags=FLAG_SMO if smo else 0,
            ))
        elif kind == "alloc":
            self.append(AllocPageRecord(
                target_page=7, txn_id=txn_id, prev_txn_lsn=txn.last, page_id=1,
            ))
        elif kind == "rollback_to":
            self.rollback(txn_id, txn, arg[1])
        elif kind == "commit":
            self.append(CommitRecord(wall_clock=float(step), txn_id=txn_id, prev_txn_lsn=txn.last))
        elif kind == "abort":
            self.rollback(txn_id, txn, len(txn.live))
            self.append(AbortRecord(txn_id=txn_id, prev_txn_lsn=txn.last))


def reference(db, split: int, model: _History):
    """What the seeded window must find at ``split``: what the window from
    the checkpoint finds. A log retention cut elsewhere than at a
    checkpoint may keep none at or before the split; the window from its
    bare floor then knows nobody in flight there, and a seed at or above
    the floor must find what the model says instead."""
    floor = db.log.start_lsn
    if analysis_base(db, split, None) is None and any(floor <= lsn <= split for lsn in db.log._seeds._lsns):
        event("a window with no checkpoint started at a seed")
        if floor in db.log._seeds._lsns:
            event("a window with no checkpoint started at a seed at the floor")
        return model.in_flight(split, floor)
    return outcome(checkpoint_seeded, db, split)


def assert_seeds_match_checkpoint(db, splits, rng: random.Random, model: _History) -> None:
    """Every split, in a random order, analysed from the log's seeds and
    from the checkpoint: the same losers, the same lock sets."""
    splits = list(splits)
    rng.shuffle(splits)
    for split in splits:
        base = analysis_base(db, split, db.log.start_lsn)
        if db.log.analysis_seed(base, split)[0] != base:
            event("a window started at a seed")
        want = reference(db, split, model)
        got = outcome(memo_seeded, db, split)
        assert got == want, split
        if isinstance(got, str):
            event("a seeded chain reached below the retained log")
        elif got[1]:
            event("losers holding locks at a split")
        elif got[0]:
            event("losers at a split")


_ROW_KEYS = st.sampled_from([b"", b"a", b"b", b"c", b"d", b"ee", b"ff"])
_SMO = st.sampled_from([False, False, False, True])
_ROW = st.tuples(st.just("row"), st.tuples(st.integers(0, 2), _ROW_KEYS, _SMO, st.integers(0, 90)))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), st.just(0)),
        st.tuples(st.just("begin"), st.just(0)),
        _ROW,
        _ROW,
        _ROW,
        st.tuples(st.just("alloc"), st.integers(0, 2)),
        st.tuples(st.just("rollback_to"), st.tuples(st.integers(0, 2), st.integers(1, 3))),
        st.tuples(st.sampled_from(["commit", "abort"]), st.integers(0, 2)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.sampled_from(["flush", "crash"]), st.just(0)),
        st.tuples(st.sampled_from(["discard", "truncate"]), st.integers(0, 1000)),
        st.tuples(st.just("query"), st.integers(0, 1000)),
        st.tuples(st.just("race"), st.tuples(st.integers(0, 1000), st.integers(0, 1000))),
    ),
    min_size=20,
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_OPS,
    log_start=st.sampled_from([FIRST_LSN, 300]),
    frames=st.lists(st.integers(1, 700), min_size=1, max_size=6),
    standby_from=st.integers(0, 1000),
    promote_at=st.integers(0, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_seeded_window_equals_checkpoint_window(ops, log_start, frames, standby_from, promote_at, seed):
    rng = random.Random(seed)
    primary = _History(log_start)
    primary.run(0, ("checkpoint", 0))
    for step, (kind, arg) in enumerate(ops, start=1):
        if kind == "query":  # warm the seeds part way through
            bounds = primary.boundaries()
            assert_seeds_match_checkpoint(primary.db, rng.sample(bounds, min(len(bounds), 1 + arg % 8)), rng, primary)
        elif kind == "race":  # an analysis the log is cut under
            log = primary.log
            split = primary.pick(arg[0], log.end_lsn)
            if split >= log.end_lsn:
                continue
            base = analysis_base(primary.db, split, log.start_lsn)
            start, seed_open, cuts = log.analysis_seed(base, split)
            crossed = analyze_log(log, start, split + 1, seed=seed_open).crossed
            if arg[1] % 2:
                log.discard_after(primary.pick(arg[1], split))
                primary.cut()
            else:
                primary.run(step, ("crash", 0))
            if any(lsn >= log.end_lsn for lsn, _open in crossed):
                event("an analysis crossed blocks the log then cut")
            log.remember_seeds(crossed, cuts)
            while log.end_lsn <= split:  # writing resumes past what it read
                primary.run(step, ("begin", 0))
                primary.txn_step(step, "row", (arg[0], b"r", False, 40))
        else:
            primary.run(step, (kind, arg))
    assert_seeds_match_checkpoint(primary.db, primary.boundaries(), rng, primary)

    # A standby of the durable log, opened mid-history and fed frames of
    # random size, asked about its log as it grows; then promoted.
    primary.log.flush()
    source = primary.log
    start = primary.pick(standby_from, source.durable_lsn)
    standby = SimpleNamespace(
        env=primary.env, log=LogManager(primary.env, block_size=_History.BLOCK, cache_blocks=2),
        last_checkpoint_lsn=NULL_LSN,
    )
    if start != FIRST_LSN:
        standby.log.open_at(start)
    held: list[int] = []
    position, sizes = start, iter(frames * 1000)
    while position < source.durable_lsn:
        end = source.record_aligned_end(position, next(sizes))
        ckpt = standby.log.ingest(position, source.read_bytes(position, end))
        if ckpt != NULL_LSN:
            standby.last_checkpoint_lsn = ckpt
        held += [lsn for lsn in primary.boundaries() if position <= lsn < end]
        position = end
        assert_seeds_match_checkpoint(standby, rng.sample(held, min(len(held), 3)), rng, primary)
    assert_seeds_match_checkpoint(standby, held, rng, primary)
    cut = (held + [standby.log.end_lsn])[promote_at % (len(held) + 1)]
    standby.log.discard_after(cut)  # promotion to a point in time
    held = [lsn for lsn in held if lsn < cut]
    standby.last_checkpoint_lsn = max(
        (rec.lsn for rec in primary.records
         if isinstance(rec, CheckpointBeginRecord) and start <= rec.lsn < cut),
        default=NULL_LSN,
    )
    assert_seeds_match_checkpoint(standby, held, rng, primary)


def test_a_loser_begun_before_the_seed_keeps_its_locks_from_both_sides():
    """One transaction past the checkpoint writes rows across several
    blocks. Started at a seed, the window sees only its later rows; the
    chain walk must add the ones below, as the window from the
    checkpoint saw them all."""
    history = _History(FIRST_LSN)
    history.run(0, ("checkpoint", 0))
    history.run(1, ("begin", 0))
    for key in (b"a", b"b", b"c", b"d", b"ee", b"ff"):
        history.txn_step(2, "row", (0, key, False, 90))
    splits = history.boundaries()
    memo_seeded(history.db, splits[-1])  # crosses every block
    starts = set()
    for split in splits[2:]:
        base = analysis_base(history.db, split, history.log.start_lsn)
        starts.add(history.log.analysis_seed(base, split)[0])
        assert outcome(memo_seeded, history.db, split) == outcome(checkpoint_seeded, history.db, split)
    assert len(starts) >= 3


def test_repeat_snapshot_reads_one_analysis_block(engine):
    """The first snapshot past a checkpoint scans from it, as section 5.2
    does; a second one further back in the same stretch starts at the
    seed of its split's block and reads at most that block."""
    db = engine.create_database("seeddb", DatabaseConfig(log_block_size=1024))
    db.create_table(ITEMS_SCHEMA)
    db.checkpoint()
    base = db.last_checkpoint_lsn
    marks = committed_marks(db, 60, gap_s=1.0)
    db.env.clock.advance(10)
    block = db.log.block_size
    first, second = (find_split_lsn(db, marks[i][0]) for i in (55, 45))
    assert second // block - base // block >= 8
    reads = []
    for name, split in (("first", first), ("second", second)):
        db.log._cache.clear()
        before = db.env.stats.log_scan_reads
        AsOfSnapshot.recover_at(db, name, split)
        reads.append(db.env.stats.log_scan_reads - before)
    assert reads[0] == first // block - base // block + 1
    assert reads[1] <= 1


class _OneBlock(_History):
    """A history whose log block holds every record the tests below write."""

    BLOCK = 4096


def _one_block_history(log_start: int = FIRST_LSN, checkpoint: bool = True) -> _OneBlock:
    """A checkpoint (unless not wanted), then two transactions writing a
    row each in turn, the first of them left open."""
    history = _OneBlock(log_start)
    if checkpoint:
        history.run(0, ("checkpoint", 0))
    history.run(1, ("begin", 0))
    history.run(2, ("begin", 0))
    for step, key in enumerate((b"a", b"b", b"c", b"d", b"ee", b"ff"), start=3):
        history.txn_step(step, "row", (step % 2, key, False, 20))
    history.txn_step(9, "commit", 1)
    history.txn_step(10, "row", (0, b"g", False, 20))
    return history


def test_a_second_split_in_the_block_analyses_only_the_records_past_the_first():
    """A window that reached its split leaves a seed just past it: a later
    split in the same block starts there, not at the checkpoint, and finds
    what the window from the checkpoint finds."""
    history = _one_block_history()
    log, splits = history.log, history.boundaries()
    assert splits[-1] // _OneBlock.BLOCK == splits[0] // _OneBlock.BLOCK
    first, second = splits[3], splits[-2]
    memo_seeded(history.db, first)
    base = analysis_base(history.db, second, log.start_lsn)
    assert base == splits[0]
    assert log.analysis_seed(base, second)[0] == splits[4]  # the record after the first split
    assert outcome(memo_seeded, history.db, second) == outcome(checkpoint_seeded, history.db, second)
    assert log.analysis_seed(base, splits[-1])[0] == splits[-1]
    assert outcome(memo_seeded, history.db, splits[-1]) == history.in_flight(splits[-1], log.start_lsn)


def test_a_window_cut_short_by_a_torn_tail_leaves_no_end_seed():
    history = _one_block_history()
    log, splits = history.log, history.boundaries()
    split = splits[-1]
    whole = analyze_log(log, splits[0], split + 1)
    assert [lsn for lsn, _open in whole.crossed] == [log.end_lsn]
    log._data[log.end_lsn - log._base - 1] ^= 1  # the split record fails its CRC
    torn = analyze_log(log, splits[0], split + 1)
    assert torn.end_lsn == splits[-2]
    assert torn.crossed == []
    snapshot_analysis(history.db, split)
    assert not log._seeds._lsns


def test_a_window_at_the_bare_floor_of_an_opened_log_leaves_no_end_seed():
    """No checkpoint and no seed: the window knows nobody in flight before
    the floor, so what it ends with is no checkpoint's table."""
    history = _one_block_history(log_start=300, checkpoint=False)
    log, splits = history.log, history.boundaries()
    assert splits[0] == log.start_lsn == 300
    for split in splits:
        assert analysis_base(history.db, split, log.start_lsn) == 300
        assert analyze_log(log, 300, split + 1).crossed == []
        snapshot_analysis(history.db, split)
    assert not log._seeds._lsns
