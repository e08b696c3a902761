"""The archive tier: unbounded point-in-time recovery.

The paper's time travel ends at the retention horizon — past it, the
introduction's "restore a full backup, roll the log forward" workflow is
all that's left, and its cost scales with the whole database. This
package makes that workflow cheap, continuous and engine-owned:

* :class:`~repro.archive.store.ArchiveStore` — cold-tier store for
  the archived log (held once, as one log per database) and backup
  chains, priced through its own sim device.
* :class:`~repro.archive.archiver.LogArchiver` — tails the primary via
  the log shipper's framed stream and archives record-aligned segments
  *before* retention truncates them (the subscription cursor doubles as a
  retention pin until each segment is durable).
* :class:`~repro.archive.backup.IncrementalBackup` /
  :func:`~repro.archive.backup.take_incremental_backup` — page backups
  copying only pages modified since the chain's previous member.
* :mod:`~repro.archive.restore` — a planner that takes the newest
  chain at or below the target (full + incrementals + archived log
  replay) to materialize any archived time, and the restore that runs it.

Reaching any archived time also lifts two other limits: ``query_as_of``
falls back to an archive-backed copy when the pool's split crosses the
horizon, and ``add_replica(seed_from_backup=True)`` seeds a standby from
the newest chain instead of requiring an untruncated primary log.
"""

from repro.archive.archiver import ArchiverStats, LogArchiver
from repro.archive.backup import IncrementalBackup, take_incremental_backup
from repro.archive.restore import RestorePlan, plan_restore, restore_from_archive
from repro.archive.store import ArchivedSegment, ArchiveStore

__all__ = [
    "ArchiveStore",
    "ArchivedSegment",
    "LogArchiver",
    "ArchiverStats",
    "IncrementalBackup",
    "take_incremental_backup",
    "RestorePlan",
    "plan_restore",
    "restore_from_archive",
]
