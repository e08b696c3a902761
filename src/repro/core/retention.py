"""Retention period enforcement (paper section 4.3).

``ALTER DATABASE ... SET UNDO_INTERVAL = 24 HOURS`` keeps the transaction
log long enough to rewind any page that far back. Enforcement truncates
the log at checkpoint boundaries: we keep the newest checkpoint whose
wall-clock stamp is at or before the horizon (an as-of snapshot inside the
window needs the analysis scan to start at a checkpoint at or before its
SplitLSN), never truncating past the oldest active transaction or the
last completed checkpoint.
"""

from __future__ import annotations

from repro.wal.lsn import NULL_LSN


def retention_horizon(db) -> float:
    """Oldest wall-clock time the database must remain rewindable to."""
    return db.env.clock.now() - db.undo_interval_s


def enforce_retention(db) -> int:
    """Truncate log below the retention window; returns the log start LSN.

    Besides the wall-clock horizon, the oldest active transaction and the
    last checkpoint, enforcement consults the database's registered
    retention pins — pooled as-of splits and log-shipping cursors (which
    cover both lagging standbys and the archive tier's
    :class:`~repro.archive.archiver.LogArchiver`, whose cursor advances
    only once a segment is durably archived) — so a live pooled snapshot,
    a lagging standby, or not-yet-archived log never has the log
    truncated out from under it. A detached subscriber releases its pin
    and truncation resumes.
    """
    kept = db.log.checkpoint_stamped(retention_horizon(db))
    if kept is None:
        return db.log.start_lsn
    keep_lsn = kept[0]
    for txn in db.txns.active_transactions():
        if txn.first_lsn != NULL_LSN:
            keep_lsn = min(keep_lsn, txn.first_lsn)
    keep_lsn = min(keep_lsn, db.last_checkpoint_lsn)
    for pin in db.retention_pins:
        pinned = pin()
        if pinned is not None and pinned != NULL_LSN:
            keep_lsn = min(keep_lsn, pinned)
    if keep_lsn > db.log.start_lsn:
        db.log.flush()
        db.log.truncate_before(keep_lsn)
        # Truncation moved the reachability floor: drop stored page
        # versions whose whole interval fell below it (versions serving a
        # still-pooled split end above the floor — the entry's pin kept
        # keep_lsn at or below the split — so they survive).
        store = getattr(db, "version_store", None)
        if store is not None:
            store.gc(db.version_store_key, db.log.start_lsn)
    return db.log.start_lsn
