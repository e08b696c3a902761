"""Wall-clock time → SplitLSN translation (paper section 5.1).

The SplitLSN for a time *t* is the last commit at or before *t*: the
snapshot's state is "every record with LSN ≤ SplitLSN applied, minus
transactions still in flight at that point" — the in-flight ones are what
snapshot recovery's logical undo removes.

Section 5.1 narrows the log region with the backward chain of checkpoint
records (which carry wall-clock stamps), then scans forward reading every
commit record from there. This module deviates on both steps and reads
**no log block**. The log stamps every commit and checkpoint-begin record
as it assigns the LSN, so walls are in LSN order, and it keeps a wall
directory of each kind (:class:`repro.wal.log_manager.WallDirectory`). It
narrows by the checkpoint directory, which holds every checkpoint-begin
record in the log, not only those the back-chain links: a checkpoint
whose boot-page update a crash lost is never on the chain, but its
active-transaction table is as good a seed as any. Then the commit
directory bisects for the newest commit stamped at or before *t*, and the
split is that commit, or the base checkpoint when it lies below it: the
forward scan's answer for every *t* (``docs/wal-format.md``, "Wall
directories").
"""

from __future__ import annotations

from repro.errors import RetentionExceededError
from repro.wal.lsn import NULL_LSN


def analysis_base(log, split: int, floor: int) -> int:
    """Where the analysis window of a recovery to ``split`` starts.

    The newest checkpoint in ``log`` at or before ``split`` — its
    active-transaction table seeds the scan, so nothing older has to be
    read to know who was in flight — else ``floor`` (the oldest LSN the
    caller's log and pages cover) when the log holds no such checkpoint.
    """
    base = log.checkpoint_before(split)
    return floor if base is None else base[0]


def find_split_lsn(db, target_wall: float) -> int:
    """The SplitLSN for a snapshot as of ``target_wall`` (simulated time).

    Raises :class:`RetentionExceededError` when the target precedes the
    retained log (section 4.3's retention period).
    """
    log = db.log
    if target_wall >= db.env.clock.now():
        # "As of now" (or future): everything committed so far. The split
        # must be a real record LSN (callers read it back and the analysis
        # window is bounded at split + 1), so it is the last commit
        # record's LSN — not a raw byte offset into the log tail. A log
        # with no commit answers like any time past its newest checkpoint.
        last = log.last_commit_lsn
        if last != NULL_LSN:
            return last

    # Narrow by checkpoint: the newest at or before the target.
    base = log.checkpoint_stamped(target_wall)
    if base is None:
        # Nothing below the log start is held: a checkpoint at or before
        # it is one the log starts at.
        oldest = log.checkpoint_before(log.start_lsn)
        suffix = "" if oldest is None else f" (oldest checkpoint at {oldest[1]:.3f}s)"
        raise RetentionExceededError(
            f"as-of time {target_wall:.3f}s precedes the retained log{suffix}"
        )
    # Every commit past the base stamped at or before the target lies at
    # or before the newest such commit: that one is the split, unless it
    # lies below the base.
    return log.commit_split(target_wall, base[0])
