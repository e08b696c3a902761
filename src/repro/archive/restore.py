"""Archive restore: materialize any archived time, past retention.

The primary's retention window bounds what page-oriented undo can reach;
the archive tier has no such bound. A restore plans the cheapest path to
the target's SplitLSN — newest full backup, the incrementals chained onto
it, then roll the *archived* log forward — in the FineLine / instant-
restore spirit: redo from an archived log replaces ever touching the
(possibly long gone) primary media.

Cost is estimated through the device profiles before anything is copied:
laying down more chain members costs backup bytes but shortens log
replay, so the planner evaluates every chain prefix and picks the
cheapest (ties prefer the longer chain — less replay for the same
estimate).

Only the planning lives here. Executing a plan is
:func:`repro.backup.restore.restore_at_split` — the skeleton the primary's
own point-in-time restore runs — fed the chain's pages and the archive's
log view instead of a live database's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backup.restore import restore_at_split
from repro.core.split_lsn import find_split_lsn
from repro.engine.database import Database
from repro.errors import ArchiveError
from repro.wal.lsn import NULL_LSN, format_lsn


@dataclass
class RestorePlan:
    """One candidate way to materialize ``db_name`` as of ``target_wall``."""

    db_name: str
    target_wall: float
    #: SplitLSN the restore rolls forward to.
    split_lsn: int
    #: Backups to lay down, oldest first (full, then incrementals).
    chain: list = field(default_factory=list)
    #: Roll-forward span over the archived log.
    roll_from_lsn: int = NULL_LSN
    #: Device-model estimate of the restore's media time (seconds).
    estimated_s: float = 0.0

    @property
    def backup_bytes(self) -> int:
        return sum(b.size_bytes for b in self.chain)

    @property
    def replay_bytes(self) -> int:
        return max(0, self.split_lsn - self.roll_from_lsn)

    def __repr__(self) -> str:
        return (
            f"RestorePlan({self.db_name!r} @ {format_lsn(self.split_lsn)}, "
            f"chain={len(self.chain)}, replay={self.replay_bytes}B, "
            f"est={self.estimated_s:.3f}s)"
        )


def plan_restore(store, db_name: str, target_wall: float) -> RestorePlan:
    """Pick the cheapest backup chain + log replay reaching ``target_wall``.

    Raises :class:`ArchiveError` when no archived chain and log range can
    cover the target (no backups, target before the first full backup, or
    the archived log does not reach the chain's start).
    """
    view = store.log_view(db_name)
    split = find_split_lsn(view, target_wall)
    coverage = store.coverage(db_name)
    candidates: list[RestorePlan] = []
    for chain in store.chains(db_name, up_to_lsn=split):
        # Every prefix of the chain is a valid plan; laying fewer
        # incrementals trades backup bytes for log replay.
        for cut in range(1, len(chain) + 1):
            prefix = chain[:cut]
            roll_from = prefix[-1].backup_lsn
            if roll_from < coverage[0]:
                continue  # archived log cannot roll this prefix forward
            plan = RestorePlan(
                db_name=db_name,
                target_wall=target_wall,
                split_lsn=split,
                chain=prefix,
                roll_from_lsn=roll_from,
            )
            plan.estimated_s = _estimate_seconds(store, plan)
            candidates.append(plan)
    if not candidates:
        raise ArchiveError(
            f"no archived backup chain of {db_name!r} can reach "
            f"{format_lsn(split)} (target {target_wall:.3f}s); take a "
            f"BACKUP DATABASE before the times you need to restore to"
        )
    return min(
        candidates,
        key=lambda p: (p.estimated_s, -len(p.chain), -p.roll_from_lsn),
    )


def _estimate_seconds(store, plan: RestorePlan) -> float:
    """Media-time estimate: read the chain from archive media, write the
    pages to data media, stream-read the replay span from the archive."""
    archive = store.device.profile
    data = store.env.data_device.profile
    seconds = 0.0
    for backup in plan.chain:
        seconds += archive.seq_read_time(backup.size_bytes)
        seconds += data.seq_write_time(backup.size_bytes)
    if plan.replay_bytes:
        seconds += archive.seq_read_time(plan.replay_bytes)
    return seconds


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

    Runs the cheapest :func:`plan_restore` plan: lay the chain's pages
    down oldest-first, roll the archived log forward to the SplitLSN,
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
    view = store.log_view(db_name)
    config = plan.chain[0].config
    if config is None:
        source = engine.databases.get(db_name)
        config = source.config if source is not None else engine.default_config
    return restore_at_split(
        new_name,
        config,
        engine.env,
        store.read_backup_pages(plan.chain),
        view.log,
        plan.roll_from_lsn,
        plan.split_lsn,
    )
