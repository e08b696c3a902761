"""Archive restore: materialize any archived time, past retention.

The primary's retention window bounds what page-oriented undo can reach;
the archive tier has no such bound. A restore lays down the newest
backup chain at or below the target's SplitLSN — the full backup and the
incrementals chained onto it — then rolls the *archived* log forward, in
the FineLine / instant-restore spirit: redo from an archived log replaces
ever touching the (possibly long gone) primary media. The newest chain
is always the one taken: each member it lays down beyond a shorter
prefix replaces replaying the log that member's pages already hold.

Only the planning lives here. Executing a plan is
:func:`repro.backup.restore.restore_at_split` — the skeleton the primary's
own point-in-time restore runs — fed the chain's pages and the archive's
log instead of a live database's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

from repro.backup.restore import restore_at_split
from repro.core.split_lsn import find_split_lsn
from repro.engine.database import Database
from repro.errors import ArchiveError
from repro.wal.lsn import NULL_LSN, format_lsn


@dataclass
class RestorePlan:
    """How to materialize ``db_name`` as of ``target_wall``."""

    db_name: str
    target_wall: float
    #: SplitLSN the restore rolls forward to.
    split_lsn: int
    #: Backups to lay down, oldest first (full, then incrementals).
    chain: list = field(default_factory=list)
    #: Roll-forward span over the archived log.
    roll_from_lsn: int = NULL_LSN

    @property
    def backup_bytes(self) -> int:
        return sum(b.size_bytes for b in self.chain)

    @property
    def replay_bytes(self) -> int:
        return max(0, self.split_lsn - self.roll_from_lsn)

    def __repr__(self) -> str:
        return (
            f"RestorePlan({self.db_name!r} @ {format_lsn(self.split_lsn)}, "
            f"chain={len(self.chain)}, replay={self.replay_bytes}B)"
        )


def plan_restore(store, db_name: str, target_wall: float) -> RestorePlan:
    """The newest backup chain at or below ``target_wall``'s SplitLSN,
    rolled forward over the archived log.

    Raises :class:`ArchiveError` when no archived chain and log range can
    cover the target (no backups, target before the first full backup, or
    the archived log does not reach the chain's end).
    """
    log = store.log(db_name)
    split = find_split_lsn(SimpleNamespace(env=store.env, log=log), target_wall)
    chain = store.newest_chain(db_name, up_to_lsn=split)
    if not chain or chain[-1].backup_lsn < log.start_lsn:
        raise ArchiveError(
            f"no archived backup chain of {db_name!r} can reach "
            f"{format_lsn(split)} (target {target_wall:.3f}s); take a "
            f"BACKUP DATABASE before the times you need to restore to"
        )
    return RestorePlan(db_name, target_wall, split, chain, chain[-1].backup_lsn)


def restore_from_archive(
    engine,
    store,
    db_name: str,
    target_wall: float,
    new_name: str,
    *,
    plan: RestorePlan | None = None,
) -> Database:
    """Materialize ``db_name`` as of ``target_wall`` from the archive.

    Runs the :func:`plan_restore` plan: lay the chain's pages down
    oldest-first, roll the archived log forward to the SplitLSN,
    undo transactions in flight there. The result is a read-only database
    named ``new_name`` that no engine knows yet:
    :meth:`Engine.restore_from_archive <repro.engine.engine.Engine
    .restore_from_archive>` registers it, the engine's archive-backed
    ``query_as_of`` fallback keeps its copies private. A caller that
    already planned (for the split, or to inspect the chain) passes
    ``plan`` to skip re-planning.
    """
    if plan is None:
        plan = plan_restore(store, db_name, target_wall)
    log = store.log(db_name)
    config = plan.chain[0].config
    if config is None:
        source = engine.databases.get(db_name)
        config = source.config if source is not None else engine.default_config
    return restore_at_split(
        new_name,
        config,
        engine.env,
        store.read_backup_pages(plan.chain),
        log,
        plan.roll_from_lsn,
        plan.split_lsn,
    )
