"""Point-in-time restore: copy the backup back, roll the log forward.

This is the workflow the paper's introduction describes as the only
traditional way to recover from a user error: restore the full baseline
backup, replay the retained transaction log up to a point just before the
mistake, undo transactions in flight at that point, then extract the data.
Every step's cost is charged (sequential page copy, sequential log scan,
random page fetches during redo), so the restore curve in Figures 7/8 —
flat with respect to the target time, huge with respect to the data
needed — emerges from the same accounting as the as-of numbers.

The building blocks (:func:`roll_forward`, :func:`undo_in_flight`) are
shared with the archive tier's restore planner
(:mod:`repro.archive.restore`), which runs the same recipe against an
*archived* log + incremental backup chain instead of the primary's
retained log.
"""

from __future__ import annotations

from repro.backup.backup import FullBackup
from repro.core.split_lsn import checkpoint_chain, find_split_lsn
from repro.engine.database import Database
from repro.engine.recovery import analyze_log
from repro.errors import BackupError
from repro.txn.transaction import RecoveredTransaction
from repro.txn.undo import LogicalUndo
from repro.wal.lsn import NULL_LSN
from repro.wal.records import FormatPageRecord, PageImageRecord


class _RestoreUndoContext:
    """Undo context stitching the restored database to the *source* log.

    Loser chains live in the source database's log; compensations apply to
    the restored database's pages (and are logged into its fresh log,
    which is harmless — the restored copy is handed out read-only).
    """

    def __init__(self, restored: Database, source_log) -> None:
        self.env = restored.env
        self.log = source_log
        self.modifier = restored.modifier
        self.fetch_page = restored.fetch_page
        self.tree_for_object = restored.tree_for_object


def roll_forward(restored: Database, log, from_lsn: int, split: int) -> int:
    """Replay ``log``'s page modifications in ``[from_lsn, split]`` onto
    ``restored``, gated by each page's pageLSN; returns records replayed.

    A format record is the first record of a page's (new) incarnation and
    erases whatever was there, so its redo never needs to read the
    restored file — pages born after the backup cost no I/O to
    materialize.
    """
    replayed = 0
    for rec in log.scan(from_lsn, split + 1):
        if not rec.IS_PAGE_MOD:
            continue
        create = isinstance(rec, FormatPageRecord)
        with restored.fetch_page(rec.page_id, create=create) as guard:
            page = guard.page
            if page.is_formatted() and page.page_lsn >= rec.lsn:
                continue
            rec.redo(page, fetch=log.undo_fetch)
            page.page_lsn = rec.lsn
            if isinstance(rec, PageImageRecord):
                page.last_image_lsn = rec.lsn
            guard.mark_dirty()
        restored.env.charge_cpu(restored.env.cost.redo_record_cpu_s)
        replayed += 1
    return replayed


def undo_in_flight(restored: Database, log, base: int, split: int) -> int:
    """Undo transactions in flight at ``split`` (standard restore undo).

    ``base`` is a checkpoint LSN at or before ``split`` (or the oldest
    covered LSN when no checkpoint qualifies) — the analysis scan starts
    there. Returns the number of transactions rolled back.
    """
    analysis = analyze_log(log, base, split + 1)
    ctx = _RestoreUndoContext(restored, log)
    undo = LogicalUndo(ctx)
    for txn_id, last_lsn in sorted(
        analysis.losers.items(), key=lambda item: item[1], reverse=True
    ):
        loser = RecoveredTransaction(txn_id)
        loser.last_lsn = last_lsn
        undo.rollback_chain(loser, last_lsn)
    return len(analysis.losers)


def restore_point_in_time(
    engine,
    backup: FullBackup,
    source_db: Database,
    target_wall: float,
    new_name: str,
) -> Database:
    """Restore ``backup`` as ``new_name`` rolled forward to ``target_wall``.

    Requires the source database's log to still cover the range from
    ``backup.backup_lsn`` to the target (otherwise the "log backup chain"
    is broken and :class:`BackupError` is raised). Returns a read-only
    database registered with the engine.
    """
    log = source_db.log
    if backup.backup_lsn < log.start_lsn:
        raise BackupError(
            f"log no longer covers backup LSN {backup.backup_lsn:#x} "
            f"(retained from {log.start_lsn:#x}); log backup chain broken"
        )
    split = find_split_lsn(source_db, target_wall)
    if split < backup.backup_lsn:
        raise BackupError(
            f"target time precedes the backup "
            f"(split {split:#x} < backup {backup.backup_lsn:#x})"
        )

    # 1. Lay the backup pages down as the new database files
    #    (``bootstrap=False``: the shell adopts them instead of
    #    formatting a fresh catalog).
    restored = Database(new_name, source_db.config, engine.env, bootstrap=False)
    restored.file_manager.write_sequential(backup.pages)
    restored.reload_boot()

    # 2. Roll forward: replay the source log from the backup LSN to the
    #    split.
    roll_forward(restored, log, backup.backup_lsn, split)

    # 3. Undo transactions in flight at the split.
    base = NULL_LSN
    for lsn, _wall, _prev in checkpoint_chain(source_db):
        if lsn <= split:
            base = lsn
            break
    if base == NULL_LSN:
        base = max(backup.backup_lsn, log.start_lsn)
    undo_in_flight(restored, log, base, split)

    # Initialization of the unused log portion: the restored database's
    # log file spans the full retained range, and the part past the
    # restore point must still be formatted. The paper names this cost as
    # one reason restore time is flat regardless of the restore point
    # (section 6.2).
    unused = max(0, log.end_lsn - split)
    if unused:
        restored.env.log_device.write_seq(unused)

    restored.buffer.flush_all()
    restored.read_only = True
    engine.databases[new_name] = restored
    return restored
