"""SplitLSN search and retention enforcement tests."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig
from repro.config import SimEnv
from repro.core.retention import enforce_retention, retention_horizon
from repro.core.split_lsn import checkpoint_chain, find_split_lsn
from repro.errors import RetentionExceededError
from repro.wal.log_manager import LogManager
from repro.wal.lsn import FIRST_LSN, NULL_LSN
from repro.wal.records import (
    CheckpointBeginRecord,
    CommitRecord,
    InsertRowRecord,
    RecordType,
)
from tests.conftest import ITEMS_SCHEMA, fill_items


def committed_marks(db, count, gap_s=10.0, start=0):
    """Commit one row per step, returning [(wall_time, key)] marks."""
    marks = []
    for i in range(start, start + count):
        db.env.clock.advance(gap_s)
        with db.transaction() as txn:
            db.insert(txn, "items", (i, f"t{i}", i))
        marks.append((db.env.clock.now(), i))
    return marks


class TestSplitSearch:
    def test_split_is_last_commit_at_or_before(self, items_db):
        db = items_db
        marks = committed_marks(db, 5)
        target = marks[2][0] + 1.0  # between commits 2 and 3
        split = find_split_lsn(db, target)
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)
        assert rec.wall_clock <= target
        # Every commit after the split record is after the target.
        later = [
            r for r in db.log.scan(split)
            if isinstance(r, CommitRecord) and r.lsn > split
        ]
        assert later
        assert all(r.wall_clock > target for r in later)

    def test_exact_commit_time_included(self, items_db):
        db = items_db
        marks = committed_marks(db, 3)
        split = find_split_lsn(db, marks[1][0])
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)
        assert rec.wall_clock == pytest.approx(marks[1][0])

    def test_future_target_means_now(self, items_db):
        db = items_db
        committed_marks(db, 2)
        split = find_split_lsn(db, db.env.clock.now() + 100)
        # The split must be a readable record LSN (not a raw byte offset
        # into the middle of the last record) — and the last commit.
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)
        assert not [
            r for r in db.log.scan(split)
            if isinstance(r, CommitRecord) and r.lsn > split
        ]

    def test_now_split_tracked_without_log_scan(self, items_db):
        """The common "as of now" path is O(1): the commit directory's
        tail is the last commit."""
        db = items_db
        committed_marks(db, 3)
        assert db.log.last_commit_lsn != 0
        reads = db.env.stats.log_scan_reads
        split = find_split_lsn(db, db.env.clock.now() + 1)
        assert split == db.log.last_commit_lsn
        assert db.env.stats.log_scan_reads == reads
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)

    def test_now_split_after_crash_is_the_last_durable_commit(self, items_db):
        """A crash trims the directory to the durable log: "as of now" is
        the newest surviving commit, found without a scan."""
        db = items_db
        committed_marks(db, 2)
        db.log.flush()
        durable = db.log.last_commit_lsn
        # A commit stuck in the volatile tail (never flushed), as a torn
        # group commit would leave it.
        db.log.append(CommitRecord(wall_clock=db.env.clock.now(), txn_id=999))
        assert db.log.last_commit_lsn > durable
        db.log.crash()
        assert db.log.last_commit_lsn == durable
        reads = db.env.stats.log_scan_reads
        split = find_split_lsn(db, db.env.clock.now() + 1)
        assert split == durable and db.env.stats.log_scan_reads == reads
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)

    def test_now_split_readable_without_checkpoint_narrowing(self, items_db):
        """Regression: "as of now" used to return end_lsn - 1, which is not
        a record boundary; log.read on the result must always succeed."""
        db = items_db
        committed_marks(db, 3)
        db.checkpoint()  # tail after the last checkpoint holds no commit
        split = find_split_lsn(db, db.env.clock.now())
        rec = db.log.read(split)
        assert isinstance(rec, CommitRecord)

    def test_checkpoint_narrowing_used(self, items_db):
        db = items_db
        committed_marks(db, 3)
        db.checkpoint()
        committed_marks(db, 3, start=3)
        db.checkpoint()
        marks = committed_marks(db, 3, start=6)
        target = marks[0][0]
        split = find_split_lsn(db, target)
        # The found split must be after the latest checkpoint before it.
        assert split > db.last_checkpoint_lsn or split > 0

    def test_checkpoint_chain_order(self, items_db):
        db = items_db
        lsns = [db.checkpoint() for _ in range(3)]
        chain = [lsn for lsn, _wall, _prev in checkpoint_chain(db)]
        assert chain[: len(lsns)] == list(reversed(lsns))

    def test_target_before_history_raises(self, items_db):
        db = items_db
        db.env.clock.advance(1000)
        committed_marks(db, 2)
        db.checkpoint()
        db.enforce_retention()
        with pytest.raises(RetentionExceededError):
            find_split_lsn(db, -500.0)


class TestRetention:
    def test_horizon_tracks_interval(self, items_db):
        db = items_db
        db.set_undo_interval(100)
        db.env.clock.advance(500)
        assert retention_horizon(db) == pytest.approx(db.env.clock.now() - 100)

    def test_enforcement_truncates_old_log(self, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 20)
        db.checkpoint()
        db.env.clock.advance(200)  # history now far outside retention
        fill_items(db, 20, start=20)
        db.checkpoint()
        start_before = db.log.start_lsn
        enforce_retention(db)
        assert db.log.start_lsn > start_before

    def test_enforcement_keeps_recent_log(self, items_db):
        db = items_db
        db.set_undo_interval(1_000_000)
        fill_items(db, 20)
        db.checkpoint()
        start_before = db.log.start_lsn
        enforce_retention(db)
        assert db.log.start_lsn == start_before

    def test_active_txn_pins_log(self, items_db):
        db = items_db
        db.set_undo_interval(10)
        txn = db.begin()
        db.insert(txn, "items", (1, "held", 1))
        first = txn.first_lsn
        db.env.clock.advance(1000)
        db.checkpoint()
        db.env.clock.advance(1000)
        db.checkpoint()
        enforce_retention(db)
        assert db.log.start_lsn <= first
        db.rollback(txn)

    def test_asof_within_retention_succeeds_after_enforcement(self, engine, items_db):
        db = items_db
        db.set_undo_interval(300)
        fill_items(db, 5)
        db.env.clock.advance(100)
        mark = db.env.clock.now()
        db.env.clock.advance(1)  # the oops happens strictly after the mark
        with db.transaction() as txn:
            db.update(txn, "items", (1,), {"qty": 777})
        db.env.clock.advance(100)
        db.checkpoint()
        enforce_retention(db)
        snap = engine.create_asof_snapshot("itemsdb", "ok", mark)
        assert snap.get("items", (1,))[2] == 10

    def test_asof_outside_retention_rejected(self, engine, items_db):
        db = items_db
        db.set_undo_interval(50)
        fill_items(db, 5)
        mark = db.env.clock.now()
        db.env.clock.advance(500)
        with pytest.raises(RetentionExceededError):
            engine.create_asof_snapshot("itemsdb", "tooold", mark)


# ---------------------------------------------------------------------------
# The commit directory against the forward scan of section 5.1
# ---------------------------------------------------------------------------


def forward_scan_split(db, target_wall):
    """Section 5.1 for a past time as it was implemented before the commit
    directory: checkpoint narrowing, then every commit from the base
    forward. Kept as the oracle for the commit directory's answer."""
    base_lsn = NULL_LSN
    oldest_seen = None
    for lsn, wall, _prev in checkpoint_chain(db):
        oldest_seen = (lsn, wall)
        if wall <= target_wall:
            base_lsn = lsn
            break
    if base_lsn == NULL_LSN:
        if oldest_seen is not None and oldest_seen[0] == db.log.start_lsn:
            base_lsn = oldest_seen[0]
            if oldest_seen[1] > target_wall:
                raise RetentionExceededError(
                    f"as-of time {target_wall:.3f}s precedes the retained "
                    f"log (oldest checkpoint at {oldest_seen[1]:.3f}s)"
                )
        else:
            raise RetentionExceededError(
                f"as-of time {target_wall:.3f}s precedes the retained log"
            )
    split = base_lsn
    for rec in db.log.scan(base_lsn, types=(RecordType.COMMIT,)):
        if rec.wall_clock > target_wall:
            break
        split = rec.lsn
    return split


def outcome(search, db, target_wall):
    try:
        return search(db, target_wall)
    except RetentionExceededError as exc:
        return str(exc)


class _History:
    """A db-shaped log (``env``, ``log``, ``last_checkpoint_lsn``, as the
    archive's log view is) driven by hand, tracking the record boundaries
    and checkpoints that survive each step."""

    BLOCK = 256

    def __init__(self, log_start: int) -> None:
        self.env = SimEnv.for_tests()
        self.log = LogManager(self.env, block_size=self.BLOCK, cache_blocks=2)
        if log_start != FIRST_LSN:
            self.log.open_at(log_start)
        self.db = SimpleNamespace(env=self.env, log=self.log, last_checkpoint_lsn=NULL_LSN)
        self.lsns: list[int] = []
        self.checkpoints: list[int] = []

    def append(self, record) -> None:
        self.lsns.append(self.log.append(record))
        if isinstance(record, CheckpointBeginRecord):
            self.checkpoints.append(record.lsn)
            self.db.last_checkpoint_lsn = record.lsn

    def checkpoint(self, wall: float) -> None:
        prev = self.db.last_checkpoint_lsn
        self.append(CheckpointBeginRecord(wall_clock=wall, prev_checkpoint_lsn=prev))

    def kept(self, lo: int, hi: int) -> None:
        """Only records in ``[lo, hi)`` remain."""
        self.lsns = [lsn for lsn in self.lsns if lo <= lsn < hi]
        self.checkpoints = [lsn for lsn in self.checkpoints if lo <= lsn < hi]
        self.db.last_checkpoint_lsn = self.checkpoints[-1] if self.checkpoints else NULL_LSN

    def pick(self, index: int, limit: int) -> int:
        """A surviving record boundary at or below ``limit``, or ``limit``."""
        bounds = [lsn for lsn in self.lsns if lsn <= limit] + [limit]
        return bounds[index % len(bounds)]

    def run(self, op) -> None:
        log = self.log
        kind, arg = op
        if kind == "commit":
            self.append(CommitRecord(wall_clock=arg, txn_id=1))
        elif kind == "row":
            self.append(InsertRowRecord(row=bytes(arg), key_bytes=b"k", page_id=3))
        elif kind == "checkpoint":
            self.checkpoint(arg)
        elif kind == "flush":
            log.flush()
        elif kind == "crash":
            log.crash()
            self.kept(log.start_lsn, log.end_lsn)
        elif kind == "discard":
            log.discard_after(self.pick(arg, log.end_lsn))
            self.kept(log.start_lsn, log.end_lsn)
        elif kind == "truncate":  # at a checkpoint, as retention does
            log.flush()
            anchors = [lsn for lsn in self.checkpoints if lsn <= log.durable_lsn]
            if anchors:
                log.truncate_before(anchors[arg % len(anchors)])
                self.kept(log.start_lsn, log.end_lsn)


def assert_directory_matches_scan(db, extra_walls) -> None:
    """Every sampled time resolves (or fails) as the forward scan does,
    and the directory's tail is the log's last commit."""
    log = db.log
    db.env.clock.advance(10_000 - db.env.clock.now())  # every sample is in the past
    commits = list(log.scan(log.start_lsn, types=(RecordType.COMMIT,)))
    assert log.last_commit_lsn == (commits[-1].lsn if commits else NULL_LSN)
    walls = sorted({rec.wall_clock for rec in commits} | set(extra_walls))
    samples = set(walls) | {walls[0] - 1, walls[-1] + 1} if walls else {0.0}
    samples |= {(a + b) / 2 for a, b in zip(walls, walls[1:])}
    for t in sorted(samples):
        assert outcome(find_split_lsn, db, t) == outcome(forward_scan_split, db, t), t


#: Walls drift upward with the step, up to 24 steps behind it or 4 ahead:
#: often out of LSN order (TxnManager.commit stamps before the latch).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(-24, 4)),
        st.tuples(st.just("commit"), st.integers(-24, 4)),
        st.tuples(st.just("row"), st.integers(0, 160)),
        st.tuples(st.just("checkpoint"), st.integers(-12, 0)),
        st.tuples(st.sampled_from(["flush", "crash"]), st.just(0)),
        st.tuples(st.sampled_from(["discard", "truncate"]), st.integers(0, 1000)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=_OPS,
    log_start=st.sampled_from([FIRST_LSN, FIRST_LSN + 1, 300, 777]),
    frames=st.lists(st.integers(1, 700), min_size=1, max_size=8),
    standby_from=st.integers(0, 1000),
    promote_at=st.integers(0, 1000),
)
def test_directory_split_equals_forward_scan(ops, log_start, frames, standby_from, promote_at):
    primary = _History(log_start)
    primary.checkpoint(-10.0)  # an anchor for the narrowing, until truncated away
    for step, (kind, arg) in enumerate(ops):
        if kind in ("commit", "checkpoint"):
            arg = float(step + arg)
        primary.run((kind, arg))
    ckpt_walls = [wall for _lsn, wall, _prev in checkpoint_chain(primary.db)]
    assert_directory_matches_scan(primary.db, ckpt_walls)

    # A standby of the durable log: opened mid-history, fed frames of
    # random size that split blocks (and a block's commits) between them.
    primary.log.flush()
    source = primary.log
    start = primary.pick(standby_from, source.durable_lsn)
    standby = _History(start)
    position, sizes = start, iter(frames * 1000)
    while position < source.durable_lsn:
        end = source.record_aligned_end(position, next(sizes))
        ckpt = standby.log.ingest(position, source.read_bytes(position, end))
        standby.lsns += [lsn for lsn in primary.lsns if position <= lsn < end]
        if ckpt != NULL_LSN:
            standby.checkpoints += [c for c in primary.checkpoints if position <= c < end]
            standby.db.last_checkpoint_lsn = ckpt
        position = end
    assert_directory_matches_scan(standby.db, ckpt_walls)
    standby.run(("discard", promote_at))  # promotion to a point in time
    assert_directory_matches_scan(standby.db, ckpt_walls)


def test_split_reads_no_log_block_after_a_checkpoint(engine):
    """The commit directory decides: resolving a split several blocks
    past the checkpoint reads no log block (the forward scan read every
    block from the checkpoint to the split)."""
    db = engine.create_database("costdb", DatabaseConfig(log_block_size=1024))
    db.create_table(ITEMS_SCHEMA)
    db.checkpoint()
    marks = committed_marks(db, 60, gap_s=1.0)
    db.env.clock.advance(10)
    block = db.log.block_size
    target = marks[50][0] + 0.5
    expected = forward_scan_split(db, target)
    assert expected // block - db.last_checkpoint_lsn // block >= 8
    assert db.log.durable_lsn > expected
    db.log._cache.clear()
    reads = db.env.stats.log_scan_reads
    assert find_split_lsn(db, target) == expected
    assert db.env.stats.log_scan_reads - reads == 0


def test_first_later_commit_below_the_base_is_left_to_the_scan():
    """A commit appended before the base checkpoint but stamped after the
    target: the directory's block holds it, yet the answer lies blocks
    further on, past the base — only the forward scan can say where."""
    history = _History(FIRST_LSN)
    history.checkpoint(0.0)
    history.run(("commit", 50.0))  # stamped late, appended early
    history.checkpoint(10.0)  # the base for t = 20
    for wall in (11.0, 12.0, 60.0):
        history.run(("row", 250))  # each commit in a block of its own
        history.run(("commit", wall))
    history.env.clock.advance(100)
    commits = {rec.wall_clock: rec.lsn for rec in history.log.scan(FIRST_LSN)
               if rec.TYPE == RecordType.COMMIT}
    assert find_split_lsn(history.db, 20.0) == commits[12.0]
    assert forward_scan_split(history.db, 20.0) == commits[12.0]


def test_a_maximum_inherited_from_a_truncated_commit_is_left_to_the_scan():
    """Truncation drops a commit stamped after the target but keeps the
    running maximum it raised: every kept commit then looks later than
    the target, yet the answer lies past the base — only the forward scan
    can say where."""
    history = _History(FIRST_LSN)
    history.checkpoint(0.0)
    history.run(("commit", 50.0))  # stamped late, appended early
    history.checkpoint(10.0)  # the base for t = 20, and the new log start
    for wall in (11.0, 12.0, 60.0):
        history.run(("row", 250))
        history.run(("commit", wall))
    history.run(("truncate", 1))
    assert history.log.start_lsn == history.checkpoints[0]
    history.env.clock.advance(100)
    commits = {rec.wall_clock: rec.lsn for rec in history.log.scan(history.log.start_lsn)
               if rec.TYPE == RecordType.COMMIT}
    assert history.log.commit_split(20.0, history.log.start_lsn) is None
    assert find_split_lsn(history.db, 20.0) == commits[12.0]
    assert forward_scan_split(history.db, 20.0) == commits[12.0]
