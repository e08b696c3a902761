"""Log-shipping replication: warm standbys fed by the transaction log.

The paper's central observation — the transaction log already contains
everything needed to materialize any past state — extends naturally from
one node to many: the same stream that powers ``AS OF`` undo can be
shipped to standbys that absorb current and point-in-time reads.

* :class:`~repro.replication.stream.LogFrame` — the framed, checksummed
  wire format shipped between primary and standby.
* :class:`~repro.replication.shipper.LogShipper` — primary side: tails the
  :class:`~repro.wal.log_manager.LogManager`, frames durable records, and
  streams them to subscribed replicas, resumable from each replica's LSN
  cursor.
* :class:`~repro.replication.replica.Replica` — standby side: a full
  :class:`~repro.engine.database.Database` shell kept warm by continuous
  redo apply (the :class:`~repro.wal.apply.RedoApplier` shared with crash
  recovery), serving current reads, pooled ``AS OF`` reads leased from
  the engine's :class:`~repro.core.snapshot_pool.SnapshotPool` under the
  standby's name, and — with a configured ``apply_delay_s`` — acting as
  a delayed-apply safety net for application error recovery beyond the
  primary's retention window.
"""

from repro.replication.replica import Replica, ReplicaStats
from repro.replication.shipper import LogShipper, ShipperStats
from repro.replication.stream import LogFrame

__all__ = [
    "LogFrame",
    "LogShipper",
    "ShipperStats",
    "Replica",
    "ReplicaStats",
]
