"""Checkpoints: bounded recovery and the wall-clock anchors of time travel.

A checkpoint-begin record carries the simulated wall-clock time — SplitLSN
search narrows by it (section 5.1), finding the record in the log's
checkpoint directory — a back-pointer to the previous sharp checkpoint,
which no engine path reads, and the active-transaction table that a
recovery's analysis pass starts from (section 5.2). A checkpoint comes in
two strengths:

* **Sharp** (:func:`take_checkpoint`'s default, SQL Server style): the
  records, the boot page's ``last_checkpoint_lsn`` moved to them, and
  every dirty page flushed, so crash recovery's redo never reaches behind
  it. ``CHECKPOINT``, the periodic :class:`Checkpointer`, backups,
  recovery, regular snapshots and named as-of snapshot DDL take this one.
* **Records only** (``sharp=False``): the begin and end records, forced,
  and nothing else. A pooled as-of snapshot writes one when it is
  built: it never reads the data file, so a flush buys it nothing, but the
  forced records are a split anchor and an analysis base for later
  snapshots. The boot page does not move, so crash recovery still starts
  at the last sharp checkpoint; the log's checkpoint directory lists both
  kinds, and never as a redo start.

:class:`Checkpointer` adds cadence: the paper's evaluation uses a
30-second target recovery interval, which is what bounds as-of snapshot
creation time in Figures 9/10.
"""

from __future__ import annotations

from repro.wal.records import CheckpointBeginRecord, CheckpointEndRecord


def take_checkpoint(db, *, sharp: bool = True) -> int:
    """Checkpoint ``db``, sharp or records only; returns the
    checkpoint-begin LSN.

    A records-only checkpoint flushes no page and leaves the boot page
    naming the last sharp one, so it is never a redo start: it is a split
    anchor and an analysis base only. Its records are forced all the
    same, so the anchor outlives a crash.
    """
    # The active table and the checkpoint-begin are one step under the
    # log latch, which every BEGIN, COMMIT and ABORT takes to enter or
    # leave the table: a transaction the record names has not ended below
    # it, and one it leaves out has no BEGIN below it while still open.
    with db.log.latch:
        begin = CheckpointBeginRecord(
            wall_clock=db.env.clock.now(),
            prev_checkpoint_lsn=db.last_checkpoint_lsn,
            active_txns=db.txns.active_table(),
        )
        begin_lsn = db.log.append(begin)
    db.log.append(CheckpointEndRecord(begin_lsn=begin_lsn))
    if sharp:
        db.update_boot(last_checkpoint_lsn=begin_lsn)
    db.log.flush()
    if sharp:
        db.buffer.flush_all()
        db.last_checkpoint_lsn = begin_lsn
        db.env.stats.checkpoints_taken += 1
    return begin_lsn


class Checkpointer:
    """Periodic checkpoint driver keyed to the simulated clock.

    Call :meth:`tick` between transactions (the workload driver does);
    a checkpoint is taken when the database's ``checkpoint_interval_s``
    has elapsed. Retention is enforced opportunistically right after each
    checkpoint.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.interval_s = db.config.checkpoint_interval_s
        self._last_wall = db.env.clock.now()

    def tick(self) -> bool:
        """Checkpoint if the interval elapsed; returns True when taken."""
        now = self.db.env.clock.now()
        if now - self._last_wall < self.interval_s:
            return False
        self.db.checkpoint()
        self.db.enforce_retention()
        self._last_wall = now
        return True
