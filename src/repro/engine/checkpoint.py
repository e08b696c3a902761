"""Checkpoints: bounded recovery and the wall-clock anchors of time travel.

A checkpoint here flushes all dirty pages (SQL Server style), so redo
never reaches behind the latest checkpoint. Checkpoint-begin records carry
the simulated wall-clock time — SplitLSN search narrows by it (section
5.1), finding the record in the log's checkpoint directory — a
back-pointer to the previous checkpoint, which no engine path reads, and
the active-transaction table that as-of snapshot recovery's analysis
pass starts from (section 5.2).

:class:`Checkpointer` adds cadence: the paper's evaluation uses a
30-second target recovery interval, which is what bounds as-of snapshot
creation time in Figures 9/10.
"""

from __future__ import annotations

from repro.wal.records import CheckpointBeginRecord, CheckpointEndRecord


def take_checkpoint(db) -> int:
    """Checkpoint ``db``; returns the checkpoint-begin LSN."""
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
    db.update_boot(last_checkpoint_lsn=begin_lsn)
    db.log.flush()
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
