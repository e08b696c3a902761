"""Wall-clock time → SplitLSN translation (paper section 5.1).

The SplitLSN for a time *t* is the last commit at or before *t*: the
snapshot's state is "every record with LSN ≤ SplitLSN applied, minus
transactions still in flight at that point" — the in-flight ones are what
snapshot recovery's logical undo removes.

Section 5.1 narrows the log region with the backward chain of checkpoint
records (which carry wall-clock stamps), then scans forward reading every
commit record from there. This module narrows by checkpoint the same way
and then reads **no log block**: the log's commit directory
(:class:`repro.wal.log_manager.CommitDirectory`) bisects its running
maximum of commit walls for the first commit stamped after *t*, and the
split is the commit before it. The answer is the forward scan's for every
*t* (``docs/wal-format.md``, "Commit directory"); the scan itself is left
only for the one case the directory cannot decide.
"""

from __future__ import annotations

from repro.errors import RetentionExceededError
from repro.wal.lsn import NULL_LSN
from repro.wal.records import CheckpointBeginRecord, RecordType

#: The forward scan reads commit records only; it still checks (and is
#: charged for) every record it passes over.
_COMMITS = (RecordType.COMMIT,)


def checkpoint_chain(db):
    """Yield (lsn, wall_clock, prev_lsn) for checkpoints, newest first.

    Walks the ``prev_checkpoint_lsn`` back-chain starting at the boot
    page's last checkpoint. Stops at the retention horizon.

    Entries are memoized per database (``db._ckpt_chain_cache``, keyed by
    checkpoint LSN): the chain is immutable once written — a new
    checkpoint only *prepends* an anchor, so cached entries stay valid —
    and every ``find_split_lsn`` / snapshot creation / retention pass
    re-walks it, each uncached hop costing a random-priced log read. The
    cache is invalidated wholesale when history can be rewritten (crash
    discarding the volatile tail, replica promotion discarding shipped
    records — both run ``invalidate_caches``) and pruned below the
    horizon on truncation. Databases without the cache attribute
    (ephemeral restore views) walk uncached.
    """
    lsn = db.last_checkpoint_lsn
    cache = getattr(db, "_ckpt_chain_cache", None)
    while lsn != NULL_LSN and lsn >= db.log.start_lsn:
        entry = cache.get(lsn) if cache is not None else None
        if entry is None:
            rec = db.log.read(lsn)
            if not isinstance(rec, CheckpointBeginRecord):
                break
            entry = (rec.wall_clock, rec.prev_checkpoint_lsn)
            if cache is not None:
                cache[lsn] = entry
        wall, prev = entry
        yield lsn, wall, prev
        lsn = prev


def analysis_base(db, split: int, floor: int) -> int:
    """Where the analysis window of a recovery to ``split`` starts.

    The newest checkpoint at or before ``split`` — its active-transaction
    table seeds the scan, so nothing older has to be read to know who was
    in flight — else ``floor`` (the oldest LSN the caller's log and pages
    cover) when the chain holds no such checkpoint. ``db`` is anything
    :func:`checkpoint_chain` walks: a database, a standby's shell, the
    archive's log view.
    """
    for lsn, _wall, _prev in checkpoint_chain(db):
        if lsn <= split:
            return lsn
    return floor


def find_split_lsn(db, target_wall: float) -> int:
    """The SplitLSN for a snapshot as of ``target_wall`` (simulated time).

    Raises :class:`RetentionExceededError` when the target precedes the
    retained log (section 4.3's retention period).
    """
    if target_wall >= db.env.clock.now():
        # "As of now" (or future): everything committed so far. The split
        # must be a real record LSN (callers read it back and the analysis
        # window is bounded at split + 1), so it is the last commit
        # record's LSN — not a raw byte offset into the log tail. A log
        # with no commit answers like any time past its newest checkpoint.
        last = db.log.last_commit_lsn
        if last != NULL_LSN:
            return last

    # Narrow using the checkpoint chain: newest checkpoint at/before target.
    base_lsn = NULL_LSN
    oldest_seen = None
    for lsn, wall, _prev in checkpoint_chain(db):
        oldest_seen = (lsn, wall)
        if wall <= target_wall:
            base_lsn = lsn
            break
    if base_lsn == NULL_LSN:
        if oldest_seen is not None and oldest_seen[0] == db.log.start_lsn:
            # The whole retained log is newer than the target only if even
            # the oldest retained checkpoint is newer.
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

    # The commit directory knows the first commit stamped after the
    # target; unless it lies below the base (walls out of LSN order, or a
    # maximum inherited from a truncated commit), the split is the commit
    # just before it.
    split = db.log.commit_split(target_wall, base_lsn)
    if split is not None:
        return split

    # Undecided: scan forward from the base for the last commit at or
    # before the target, as section 5.1 does.
    split = base_lsn
    for rec in db.log.scan(base_lsn, types=_COMMITS):
        if rec.wall_clock > target_wall:
            break
        split = rec.lsn
    return split
