"""Point-in-time restore: copy the backup back, roll the log forward.

This is the workflow the paper's introduction describes as the only
traditional way to recover from a user error: restore the full baseline
backup, replay the retained transaction log up to a point just before the
mistake, undo transactions in flight at that point, then extract the data.
Every step's cost is charged (sequential page copy, sequential log scan,
random page fetches during redo), so the restore curve in Figures 7/8 —
flat with respect to the target time, huge with respect to the data
needed — emerges from the same accounting as the as-of numbers.

:func:`restore_at_split` is the skeleton this route shares with the
archive tier's restore planner (:mod:`repro.archive.restore`): the two
differ only in where the pages and the log come from. Its three stages —
redo, analysis window, loser rollback — are the ones crash recovery,
replica promotion and as-of snapshot recovery run (``docs/recovery.md``),
and its analysis window follows the rule AS OF's does: read only when
the log's transaction directory finds someone in flight at the split.
Nothing here replays or rolls back on its own.
"""

from __future__ import annotations

from repro.backup.backup import FullBackup
from repro.core.split_lsn import find_split_lsn
from repro.engine.database import Database
from repro.engine.recovery import analyze_in_flight
from repro.errors import BackupError
from repro.txn.undo import rollback_losers
from repro.wal.apply import PAGE_MOD_TYPES, RedoApplier


class _RestoreUndoContext:
    """Undo context stitching the restored database to the *source* log.

    Loser chains live in the source history's log; compensations apply to
    the restored database's pages and are logged into its own log, which
    :meth:`~repro.engine.database.Database.adopt_backup` opened just past
    the split — so the pageLSNs they stamp continue that history.
    """

    def __init__(self, restored: Database, source_log) -> None:
        self.env = restored.env
        self.log = source_log
        self.modifier = restored.modifier
        self.fetch_page = restored.fetch_page
        self.tree_for_object = restored.tree_for_object


def restore_at_split(
    name: str, config, env, pages: dict[int, bytes], log, roll_from: int, split: int
) -> Database:
    """Materialize the history in ``log`` at ``split`` from backup ``pages``.

    ``log`` is the live source database's, or the archive's.
    ``pages`` must be consistent with ``roll_from``, and the log must
    cover ``[roll_from, split]`` and the BEGIN of every transaction in
    flight at the split. Returns a read-only, unregistered database
    with no history of its own: its log starts past the split, so a
    point-in-time read against the copy is refused with
    :class:`~repro.errors.RetentionExceededError`.
    """
    restored = Database(name, config, env, bootstrap=False)
    restored.adopt_backup(pages, log.record_aligned_end(split, 1), log)
    # Narrowed to what redo applies: every record in the range is still
    # checked and charged, only the others are not built.
    RedoApplier(restored).apply(log.scan(roll_from, split + 1, types=PAGE_MOD_TYPES))
    # The directory rule AS OF applies: with nobody in flight at the
    # split there is nothing to roll back, and no window is read (redo
    # has already checked every record in it).
    analysis, _start = analyze_in_flight(log, split)
    if analysis.losers:
        rollback_losers(_RestoreUndoContext(restored, log), analysis.losers)
    restored.buffer.flush_all()
    restored.read_only = True
    return restored


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
    restored = restore_at_split(
        new_name,
        source_db.config,
        engine.env,
        backup.pages,
        log,
        backup.backup_lsn,
        split,
    )
    # Initialization of the unused log portion: the restored database's
    # log file spans the full retained range, and the part past the
    # restore point must still be formatted. The paper names this cost as
    # one reason restore time is flat regardless of the restore point
    # (section 6.2).
    unused = max(0, log.end_lsn - split)
    if unused:
        engine.env.log_device.write_seq(unused)
    return engine.register_database(restored)
