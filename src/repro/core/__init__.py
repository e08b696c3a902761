"""The paper's contribution: page-oriented undo and as-of snapshots.

* :func:`~repro.core.page_undo.prepare_page_version` — section 4's
  ``PreparePageAsOf(page, asOfLSN)`` primitive.
* :func:`~repro.core.split_lsn.find_split_lsn` — section 5.1's wall-clock
  to SplitLSN translation.
* :class:`~repro.core.asof.AsOfSnapshot` — section 5's as-of database
  snapshots (creation, recovery, lazy page access).
* :class:`~repro.core.snapshot_pool.SnapshotPool` — pooled ephemeral
  snapshots backing inline ``SELECT ... AS OF`` queries and
  ``engine.query_as_of``: snapshots keyed by ``(database, split_lsn)``
  are reused across queries and sessions (refcounted) and evicted LRU
  under a side-file byte budget.
* :class:`~repro.core.version_store.PageVersionStore` — the
  cross-snapshot page version store: prepared page images keyed by the
  validity interval their chain walk proved, shared engine-wide so
  nearby/repeated AS OF reads skip the Figure 11 undo I/O entirely.
* :mod:`~repro.core.retention` — section 4.3's retention period.

The user-facing error-recovery workflow of the paper's introduction is
SQL: probe with ``CREATE DATABASE ... AS SNAPSHOT OF ... AS OF``, then
copy back with ``INSERT ... SELECT`` (``examples/recover_dropped_table.py``).
"""

from repro.core.asof import AsOfSnapshot
from repro.core.page_undo import PreparedVersion, prepare_page_version
from repro.core.retention import enforce_retention, retention_horizon
from repro.core.snapshot_pool import PoolStats, SnapshotPool
from repro.core.split_lsn import find_split_lsn
from repro.core.txn_undo import undo_transaction
from repro.core.version_store import PageVersionStore, VersionStoreStats

__all__ = [
    "prepare_page_version",
    "PreparedVersion",
    "find_split_lsn",
    "AsOfSnapshot",
    "SnapshotPool",
    "PoolStats",
    "PageVersionStore",
    "VersionStoreStats",
    "enforce_retention",
    "retention_horizon",
    "undo_transaction",
]
