"""The transaction directory: who was in flight at an AS OF split is a
lookup. The analysis it starts at the oldest loser's BEGIN finds what the
window from the checkpoint, with a walk of every loser's whole chain,
finds; a split with nobody in flight reads no log."""

from __future__ import annotations

import random
import threading
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig
from repro.config import SimEnv
from repro.core.asof import AsOfSnapshot, snapshot_analysis
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.recovery import analyze_log
from repro.errors import LogTruncatedError
from repro.wal.log_manager import LogManager, TransactionDirectory
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
from tests.conftest import ITEMS_SCHEMA, MACHINE_EXAMPLES
from tests.test_split_lsn import committed_marks


def collect_loser_locks(log, analysis, pin: int) -> int:
    """Replace every loser's lock set with one found by walking its whole
    chain back to its BEGIN: the keys of its non-SMO row records that no
    CLR compensates. Returns ``pin`` deepened to the oldest LSN a walk
    reads."""
    locks = {}
    for txn_id, last_lsn in analysis.losers.items():
        keys = []
        cur = last_lsn
        while cur != NULL_LSN:
            pin = min(pin, cur)
            rec = log.read(cur)
            if isinstance(rec, BeginRecord):
                break
            if isinstance(rec, ClrRecord):
                cur = rec.undo_next_lsn
                continue
            key_bytes = getattr(rec, "key_bytes", b"")
            if key_bytes and not rec.is_smo:
                keys.append((rec.object_id, key_bytes))
            cur = rec.prev_txn_lsn
        locks[txn_id] = keys
    analysis.loser_locks = locks
    return pin


def checkpoint_window(db, split: int):
    """Section 5.2's analysis as the paper runs it: from the newest
    checkpoint at or before the split, then every loser's chain walked."""
    base = analysis_base(db.log, split, db.log.start_lsn)
    analysis = analyze_log(db.log, base, split + 1)
    return analysis, collect_loser_locks(db.log, analysis, min(base, split))


def outcome(analyse, db, split: int):
    """The losers, their lock sets and the retention pin, or the error (a
    loser begun below the retained log)."""
    try:
        analysis, pin = analyse(db, split)
    except LogTruncatedError as exc:
        return type(exc).__name__
    locks = {txn: set(keys) for txn, keys in analysis.loser_locks.items() if keys}
    return analysis.losers, locks, pin


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


def _named(rec) -> list[int]:
    """The transactions ``rec`` tells a log about: its own, when it is a
    BEGIN, COMMIT or ABORT, or a checkpoint's active table."""
    if isinstance(rec, CheckpointBeginRecord):
        return [txn_id for txn_id, _last in rec.active_txns]
    if isinstance(rec, (BeginRecord, CommitRecord, AbortRecord)):
        return [rec.txn_id]
    return []


class _History:
    """Up to four interleaved transactions over a db-shaped log (``env``,
    ``log``), written record by record: rows with
    and without keys (some flagged SMO), allocations, partial rollbacks
    that log CLRs, commits, aborts, and checkpoints carrying the true
    active table — sharp ones, and the forced records-only ones a pooled
    AS OF build writes."""

    BLOCK = 256

    def __init__(self, log_start: int) -> None:
        self.env = SimEnv.for_tests()
        self.log = LogManager(self.env, block_size=self.BLOCK, cache_blocks=2)
        if log_start != FIRST_LSN:
            self.log.open_at(log_start)
        self.db = SimpleNamespace(env=self.env, log=self.log)
        self.last_checkpoint = NULL_LSN
        self.records: list = []  # every record the log still holds a byte of, or held
        self.open: dict[int, _Txn] = {}
        self.next_id = 1

    # -- the model: who is open, derived from the surviving records ------

    def _track(self, rec) -> None:
        _advance(self.open, rec)
        if isinstance(rec, CheckpointBeginRecord):
            self.last_checkpoint = rec.lsn

    def open_at(self, split: int) -> dict[int, _Txn]:
        """The transactions the records up to ``split`` leave open."""
        open_txns: dict[int, _Txn] = {}
        for rec in self.records:
            if rec.lsn > split:
                break
            _advance(open_txns, rec)
        return open_txns

    def in_flight(self, split: int, floor: int):
        """The model's :func:`outcome` at ``split``: who the records up to
        it leave open, with the keys of their live non-SMO rows and the
        pin — or the error, when one of them began below the log's
        ``floor``."""
        open_txns = self.open_at(split)
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
        pin = min([floor, split, *(txn.first for txn in open_txns.values())])
        return {txn_id: txn.last for txn_id, txn in open_txns.items()}, locks, pin

    def append(self, rec) -> None:
        self.log.append(rec)
        self.records.append(rec)
        self._track(rec)

    def cut(self) -> None:
        """Replay the model over the records the log kept."""
        self.records = [rec for rec in self.records if rec.lsn < self.log.end_lsn]
        self.open, self.last_checkpoint = {}, NULL_LSN
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

    def run(self, op) -> None:
        log = self.log
        kind, arg = op
        if kind == "begin":
            if len(self.open) < 4:
                self.append(BeginRecord(txn_id=self.next_id))
                self.next_id += 1
        elif kind in ("checkpoint", "records_only"):
            active = tuple((txn_id, txn.last) for txn_id, txn in self.open.items())
            self.append(CheckpointBeginRecord(
                prev_checkpoint_lsn=self.last_checkpoint, active_txns=active,
            ))
            if kind == "records_only":  # a pooled AS OF build's: forced
                log.flush()
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
            # checkpoint too: a checkpoint, or an open transaction's begin
            # or chain. The log may then keep no checkpoint below a split.
            log.flush()
            pins = {lsn for txn in self.open.values() for lsn in (txn.first, *(row[0] for row in txn.live))}
            anchors = [
                rec.lsn for rec in self.records
                if log.start_lsn <= rec.lsn <= log.durable_lsn
                and (isinstance(rec, CheckpointBeginRecord) or rec.lsn in pins)
            ]
            if anchors:
                log.truncate_before(anchors[arg % len(anchors)])
        else:
            self.txn_step(kind, _args(kind, arg))

    def txn_step(self, kind: str, arg) -> None:
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
            self.append(CommitRecord(txn_id=txn_id, prev_txn_lsn=txn.last))
        elif kind == "abort":
            self.rollback(txn_id, txn, len(txn.live))
            self.append(AbortRecord(txn_id=txn_id, prev_txn_lsn=txn.last))


class _Standby:
    """A db-shaped standby log opened at ``start`` of ``primary``'s durable
    log and fed its frames, with what the records it ingested named."""

    def __init__(self, primary: _History, start: int) -> None:
        self.primary, self.start = primary, start
        self.env = primary.env
        self.log = LogManager(primary.env, block_size=_History.BLOCK, cache_blocks=2)
        if start != FIRST_LSN:
            self.log.open_at(start)
        #: Transactions named by a record this log ingested, cut or not.
        self.known: set[int] = set()
        self.held: list[int] = []

    def ingest(self, size: int) -> None:
        source, position = self.primary.log, self.log.end_lsn
        end = source.record_aligned_end(position, size)
        self.log.ingest(position, source.read_bytes(position, end))
        for rec in self.primary.records:
            if position <= rec.lsn < end:
                self.held.append(rec.lsn)
                self.known.update(_named(rec))

    def discard_after(self, cut: int) -> None:
        self.log.discard_after(cut)
        self.held = [lsn for lsn in self.held if lsn < cut]


def expected_in_flight(model: _History, split: int, opened: int, known) -> tuple[dict, set]:
    """What ``in_flight(split)`` must say of a log first opened at
    ``opened``, and the transactions it cannot know yet: begun below
    ``opened``, with neither their end nor a checkpoint naming them among
    the records the log took in (``known``; ``None``: it took in all)."""
    want, unknown = {}, set()
    for txn_id, txn in model.open_at(split).items():
        if txn.first >= opened:
            want[txn_id] = txn.first
        elif known is None or txn_id in known:
            want[txn_id] = NULL_LSN
        else:
            unknown.add(txn_id)
    return want, unknown


def assert_minima_exact(log) -> None:
    """Each ended entry's minimum is the least begin of it and every entry
    after it: a cut raises the minima the entries it took back lowered, so
    the second bisect of ``in_flight`` keeps narrowing."""
    directory = log._txn_dir
    begins = directory._begins[: directory._n]
    assert list(directory._least[: directory._n]) == list(accumulate(reversed(begins), min))[::-1]


def assert_directory_matches_checkpoint(db, splits, rng: random.Random, model: _History,
                                        opened: int, known=None) -> None:
    """Every split, in a random order, analysed from the directory and
    from the checkpoint (or, with no checkpoint kept at or before it, as
    the model says): the same losers, lock sets and pin."""
    splits = list(splits)
    rng.shuffle(splits)
    log = db.log
    assert_minima_exact(log)
    for split in splits:
        want_in_flight, unknown = expected_in_flight(model, split, opened, known)
        assert log.in_flight(split) == want_in_flight, split
        bare = analysis_base(log, split, None) is None
        if unknown:
            # Only a window with no checkpoint can miss one: a kept
            # checkpoint at or before the split names every transaction
            # open there that began before it.
            assert bare, split
            event("a transaction begun below a bare floor, not known yet")
            continue
        want = model.in_flight(split, log.start_lsn) if bare else outcome(checkpoint_window, db, split)
        got = outcome(snapshot_analysis, db, split)
        assert got == want, split
        if bare:
            event("a split with no checkpoint kept at or before it")
        if isinstance(got, str):
            event("a loser begun below the retained log")
        elif got[1]:
            event("losers holding locks at a split")
        elif got[0]:
            event("losers at a split")


_ROW_KEYS = (b"", b"a", b"b", b"c", b"d", b"ee", b"ff")
#: Each op is a kind, drawn by these weights, and one integer its step
#: derives every argument from (:func:`_args`): two draws per op keep
#: generation cheap enough for long histories.
_WEIGHTS = {
    "begin": 8, "row": 12, "alloc": 4, "rollback_to": 4, "commit": 2, "abort": 2,
    "checkpoint": 4, "flush": 3, "crash": 1, "discard": 1, "truncate": 3,
    "query": 2, "asof": 2,
}
_OPS = st.lists(
    st.tuples(
        st.sampled_from([kind for kind, weight in _WEIGHTS.items() for _ in range(weight)]),
        st.integers(0, 1000),
    ),
    min_size=25,
    max_size=140,
)


def _args(kind: str, n: int):
    """A step's arguments from its op's integer: which open transaction,
    and for a row its key, SMO flag and size, for a partial rollback how
    many records it compensates."""
    if kind == "row":
        return n % 4, _ROW_KEYS[n // 4 % 7], n // 28 % 4 == 3, n * 37 % 91
    if kind == "rollback_to":
        return n % 4, 1 + n // 4 % 3
    return n


_STANDBY = {
    "frames": st.lists(st.integers(1, 700), min_size=1, max_size=6),
    "standby_from": st.integers(0, 1000),
    "promote_at": st.integers(0, 1000),
}


def _write(ops, log_start: int, check=None) -> _History:
    """The primary history of ``ops`` after a first checkpoint; ``check``
    runs at each query step, and at each pooled AS OF read, which then
    writes its records-only checkpoint."""
    primary = _History(log_start)
    primary.run(("checkpoint", 0))
    for kind, arg in ops:
        if kind in ("query", "asof") and check is not None:
            check(primary, arg)
        if kind == "asof":
            primary.run(("records_only", 0))
        elif kind != "query":
            primary.run((kind, arg))
    primary.log.flush()
    return primary


def _standby_of(primary: _History, standby_from: int) -> _Standby:
    return _Standby(primary, primary.pick(standby_from, primary.log.durable_lsn))


@settings(max_examples=MACHINE_EXAMPLES, deadline=None)
@given(ops=_OPS, log_start=st.sampled_from([FIRST_LSN, 300]), seed=st.integers(0, 2**32 - 1), **_STANDBY)
def test_directory_window_equals_checkpoint_window(ops, log_start, frames, standby_from, promote_at, seed):
    rng = random.Random(seed)

    def query(primary: _History, arg: int) -> None:
        bounds = primary.boundaries()
        splits = rng.sample(bounds, min(len(bounds), 1 + arg % 8))
        assert_directory_matches_checkpoint(primary.db, splits, rng, primary, log_start)

    primary = _write(ops, log_start, query)
    assert_directory_matches_checkpoint(primary.db, primary.boundaries(), rng, primary, log_start)

    # A standby of the durable log, opened mid-history and fed frames of
    # random size, asked about its log as it grows; then promoted.
    standby = _standby_of(primary, standby_from)
    sizes = iter(frames * 1000)
    while standby.log.end_lsn < primary.log.durable_lsn:
        standby.ingest(next(sizes))
        splits = rng.sample(standby.held, min(len(standby.held), 3))
        assert_directory_matches_checkpoint(standby, splits, rng, primary, standby.start, standby.known)
    assert_directory_matches_checkpoint(standby, standby.held, rng, primary, standby.start, standby.known)
    standby.discard_after((standby.held + [standby.log.end_lsn])[promote_at % (len(standby.held) + 1)])
    assert_directory_matches_checkpoint(standby, standby.held, rng, primary, standby.start, standby.known)


@settings(max_examples=MACHINE_EXAMPLES, deadline=None)
@given(ops=_OPS, **_STANDBY)
def test_in_flight_equals_the_model_after_every_frame_and_discard(ops, frames, standby_from, promote_at):
    """The directory at every split a log holds: the primary's after its
    whole history, a standby's after each frame it ingests, and fully
    fed copies of that standby after ``discard_after`` at its start and
    at up to four held splits."""
    primary = _write(ops, FIRST_LSN)

    def check(log, splits, opened: int, known) -> None:
        assert_minima_exact(log)
        for split in splits:
            want, unknown = expected_in_flight(primary, split, opened, known)
            assert log.in_flight(split) == want, split
            if unknown:
                event("a transaction begun below the floor, not known yet")
            elif any(begin == NULL_LSN for begin in want.values()):
                event("a transaction known to have begun below the floor")

    check(primary.log, primary.boundaries(), FIRST_LSN, None)
    standby = _standby_of(primary, standby_from)
    sizes = iter(frames * 1000)
    while standby.log.end_lsn < primary.log.durable_lsn:
        standby.ingest(next(sizes))
        check(standby.log, standby.held, standby.start, standby.known)
    for cut in {standby.start, *random.Random(promote_at).sample(standby.held, min(len(standby.held), 4))}:
        copy = _Standby(primary, standby.start)
        while copy.log.end_lsn < primary.log.durable_lsn:
            copy.ingest(next(sizes))
        copy.discard_after(cut)
        check(copy.log, copy.held, copy.start, copy.known)
        if copy.held:
            event("a discard that left records")


def test_a_loser_begun_before_the_checkpoint_keeps_its_locks_from_both_sides():
    """One transaction writes rows across several blocks on both sides of
    a checkpoint. The window from its BEGIN holds every one of them: its
    lock set is what the checkpoint window plus the chain walk find, and
    the pin is its BEGIN."""
    history = _History(FIRST_LSN)
    history.run(("checkpoint", 0))
    history.run(("begin", 0))
    begin = history.records[-1].lsn
    for key in (b"a", b"b", b"c"):
        history.txn_step("row", (0, key, False, 90))
    history.run(("checkpoint", 0))
    checkpoint = history.records[-1].lsn
    for key in (b"d", b"ee", b"ff"):
        history.txn_step("row", (0, key, False, 90))
    assert checkpoint // _History.BLOCK - begin // _History.BLOCK >= 1
    split = history.records[-1].lsn
    losers, locks, pin = outcome(snapshot_analysis, history.db, split)
    assert outcome(checkpoint_window, history.db, split) == (losers, locks, pin)
    assert list(losers) == [1] and pin == begin
    assert {key for _object_id, key in locks[1]} == {b"a", b"b", b"c", b"d", b"ee", b"ff"}


def test_a_split_with_no_loser_reads_no_analysis_block(engine):
    """Section 5.2 scans from the checkpoint to learn who was in flight;
    with nobody in flight at the split, the directory says so and no log
    block is read, however far past the checkpoint the split lies. The
    pin is still that checkpoint."""
    db = engine.create_database("dirdb", DatabaseConfig(log_block_size=1024))
    db.create_table(ITEMS_SCHEMA)
    db.checkpoint()
    base = db.last_checkpoint_lsn
    marks = committed_marks(db, 60, gap_s=1.0)
    db.env.clock.advance(10)
    block = db.log.block_size
    for name, i in (("late", 55), ("early", 45)):
        split = find_split_lsn(db, marks[i][0])
        assert split // block - base // block >= 8
        assert db.log.in_flight(split) == {}
        db.log._cache.clear()
        before = db.env.stats.log_scan_reads
        snap = AsOfSnapshot.recover_at(db, name, split)
        assert db.env.stats.log_scan_reads == before
        assert snap.retention_pin_lsn == base



def test_a_cut_raises_the_minima_the_entries_it_took_back_lowered():
    """Transaction 2 ends first, then transaction 1, begun before it,
    lowers 2's minimum to 1's BEGIN. A cut between the two ends takes 1
    back and raises 2's minimum to its own BEGIN again."""
    directory = TransactionDirectory()
    for record_type, txn_id, lsn in ((BeginRecord, 1, 100), (BeginRecord, 2, 200),
                                     (CommitRecord, 2, 300), (CommitRecord, 1, 400)):
        directory.note(record_type.TYPE, txn_id, lsn)
    assert list(directory._least[: directory._n]) == [100, 100]
    directory.cut(350)
    assert_minima_exact(SimpleNamespace(_txn_dir=directory))
    assert directory.in_flight(350) == {1: 100}


def _race(monkeypatch, owner, name, when, racer) -> threading.Thread:
    """Wrap ``owner.name`` so that, the first time it returns for
    arguments ``when`` accepts, ``racer`` starts on another thread and is
    given 0.2 s to finish before the caller goes on."""
    call = getattr(owner, name)
    thread = threading.Thread(target=racer)

    def paused(*args):
        result = call(*args)
        if thread.ident is None and when(*args):
            thread.start()
            thread.join(timeout=0.2)
        return result

    monkeypatch.setattr(owner, name, paused)
    return thread


_STEP_RECORDS = {"begin": BeginRecord, "commit": CommitRecord, "rollback": AbortRecord}


@pytest.mark.parametrize("first", ["checkpoint", "step"])
@pytest.mark.parametrize("step", ["begin", "commit", "rollback"])
def test_a_checkpoint_names_exactly_the_transactions_open_at_it(items_db, monkeypatch, step, first):
    """A BEGIN, COMMIT or ABORT racing a checkpoint, from either side: the
    checkpoint has read its active table and not yet appended its record,
    or the step has appended its record and not yet entered or left the
    table. The record names the transaction exactly when it is open at
    the record's LSN. A named transaction already ended would be reopened
    by the directory as begun below the log, in flight at every later
    split, and every AS OF would then need log below the log's start; an
    open one left out would escape crash recovery's analysis, get no
    ABORT, and stay in flight for good."""
    db = items_db
    txns, checkpoints = [], []
    if step != "begin":
        txns.append(db.begin())
        db.insert(txns[0], "items", (1, "raced", 1))

    def run_step():
        if step == "begin":
            txns.append(db.begin())
        else:
            getattr(db, step)(txns[0])

    def run_checkpoint():
        checkpoints.append(db.checkpoint())

    if first == "checkpoint":
        racer = _race(monkeypatch, db.txns, "active_table", lambda: True, run_step)
        run_checkpoint()
    else:
        record_type = _STEP_RECORDS[step]
        racer = _race(monkeypatch, db.log, "append", lambda rec: isinstance(rec, record_type), run_checkpoint)
        run_step()
    racer.join()
    monkeypatch.undo()
    (txn,) = txns
    record = db.log.read(checkpoints[0])
    named = [txn_id for txn_id, _last in record.active_txns] == [txn.txn_id]
    assert named == (txn.first_lsn < record.lsn and (txn.is_active or txn.last_lsn > record.lsn))
    if step == "begin":
        db.log.flush()
        db.crash()
        db.recover()
    assert db.log.in_flight(db.log.end_lsn) == {}
    db.env.clock.advance(1.0)
    with db.transaction() as later:
        db.insert(later, "items", (2, "later", 2))
    analysis, _pin = snapshot_analysis(db, db.log.last_commit_lsn)
    assert analysis.losers == {}
