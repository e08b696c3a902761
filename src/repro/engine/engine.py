"""The Engine: databases and snapshots on one simulated machine."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from datetime import datetime

from typing import TYPE_CHECKING, Iterator

from repro.chaos import FailoverCoordinator, FaultInjector, RetryPolicy
from repro.config import DatabaseConfig, MonitorConfig, SimEnv
from repro.engine.database import Database
from repro.engine.scheduler import DEFAULT_TIMEOUT_S, SessionScheduler
from repro.latch import Latch
from repro.errors import (
    BackupError,
    CatalogError,
    FaultInjectedError,
    ReplicationError,
    ReplicationFaultError,
    RetentionExceededError,
    SnapshotError,
)
from repro.obs.install import (
    forget_archiver_metrics,
    forget_database_metrics,
    forget_replica_metrics,
    forget_shipper_metrics,
    install_archiver_metrics,
    install_database_metrics,
    install_engine_metrics,
    install_replica_metrics,
    install_shipper_metrics,
)
from repro.obs.monitor import EngineMonitor
from repro.obs.slowlog import SlowQueryLog
from repro.sim.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.archive.archiver import LogArchiver
    from repro.core.asof import AsOfSnapshot
    from repro.core.snapshot_pool import SnapshotPool
    from repro.replication.replica import Replica
    from repro.replication.shipper import LogShipper
    from repro.snapshot.base import RegularSnapshot

#: A replica is routable for offloaded current reads only within this lag.
READ_OFFLOAD_MAX_LAG_BYTES = 1 << 20


class Engine:
    """Top-level entry point: owns databases and their snapshots.

    All databases share one :class:`~repro.config.SimEnv` (one simulated
    machine: one clock, shared data/log devices) — the paper's concurrent
    experiment (section 6.3) depends on snapshots and the OLTP workload
    competing for the same media.
    """

    def __init__(
        self,
        env: SimEnv | None = None,
        config: DatabaseConfig | None = None,
        snapshot_pool_budget: int | None = None,
        version_store_budget: int | None = None,
        monitor_config: MonitorConfig | None = None,
    ) -> None:
        from repro.core.snapshot_pool import DEFAULT_POOL_BUDGET_BYTES, SnapshotPool
        from repro.core.version_store import (
            DEFAULT_VERSION_STORE_BUDGET_BYTES,
            PageVersionStore,
        )

        self.env = env if env is not None else SimEnv.for_tests()
        #: Catalog latch: serializes create/drop/promote of databases,
        #: snapshots, replicas, shippers and archivers against each other
        #: and against sessions resolving names. Top of the engine's
        #: latch order (see docs/concurrency.md) — safe to hold across
        #: any subsystem call.
        self.latch = Latch("engine_catalog")
        self.default_config = config if config is not None else DatabaseConfig()
        self.databases: dict[str, Database] = {}
        self.snapshots: dict[str, "AsOfSnapshot"] = {}
        #: Cross-snapshot page version store: prepared page images keyed
        #: by their validity interval, shared by every database's pooled,
        #: named and replica-side snapshots (``0`` disables it).
        self.version_store = PageVersionStore(
            version_store_budget
            if version_store_budget is not None
            else DEFAULT_VERSION_STORE_BUDGET_BYTES
        )
        #: Ephemeral snapshots backing every ``AS OF`` lease: a
        #: primary's under the database name, a standby's under its own.
        self.snapshot_pool: "SnapshotPool" = SnapshotPool(
            snapshot_pool_budget
            if snapshot_pool_budget is not None
            else DEFAULT_POOL_BUDGET_BYTES
        )
        #: Warm standbys by name (see :mod:`repro.replication`).
        self.replicas: dict[str, "Replica"] = {}
        #: One outbound log shipper per primary database name.
        self._shippers: dict[str, "LogShipper"] = {}
        #: One log archiver per archived database name (see
        #: :mod:`repro.archive`). Entries outlive their database: the
        #: archive can still restore a dropped database's history.
        self.archives: dict[str, "LogArchiver"] = {}
        #: Archive-backed as-of readers: db name -> [(split_lsn, copy)],
        #: LRU-bounded (the ``query_as_of`` past-retention fallback).
        self._archive_reads: dict[str, list] = {}
        #: Route read-only SQL SELECTs to caught-up replicas when enabled.
        self.read_offload = False
        #: Continuous monitoring (see :mod:`repro.obs.monitor`): ``None``
        #: until :meth:`start_monitor` arms it.
        self.monitor_config = (
            monitor_config if monitor_config is not None else MonitorConfig()
        )
        self.monitor_config.validate()
        self.monitor: "EngineMonitor | None" = None
        #: Always-on slow-statement capture (``SHOW SLOW QUERIES``).
        self.slow_queries = SlowQueryLog(
            self.monitor_config.slow_query_sim_s,
            self.monitor_config.slow_query_capacity,
        )
        #: Seeded fault injector (``None`` until :meth:`enable_chaos`).
        self.chaos: FaultInjector | None = None
        #: Automatic failover (``None`` until :meth:`enable_auto_failover`).
        self.ha: FailoverCoordinator | None = None
        #: The HA timeline: crash / suspect / confirmed_down / failover
        #: events, seq-numbered and sim-timestamped (deterministic).
        self.ha_events: list[dict] = []
        #: Backoff for replica apply retries under injected faults.
        self._apply_retry = RetryPolicy()
        # Handles held here: fetched by name they cost a registry-latch
        # round trip on every statement and every AS OF pin.
        self.statement_sim_s = self.env.metrics.histogram(
            "sql.execute_sim_s", "sim-seconds per SQL statement"
        )
        self._pin_sim_s = self.env.metrics.histogram(
            "asof.pin_sim_s", "sim-seconds to lease an AS OF view"
        )
        install_engine_metrics(self)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------

    def _name_owner(self, name: str) -> str | None:
        """What holds ``name``. Databases, snapshots and replicas share
        one name space: ``USE`` and ``DROP DATABASE`` resolve a bare name."""
        if name in self.databases:
            return "database"
        if name in self.snapshots:
            return "snapshot"
        if name in self.replicas:
            return "replica"
        return None

    def _check_name_free(self, name: str) -> None:
        owner = self._name_owner(name)
        if owner == "database":
            raise CatalogError(f"database {name!r} already exists")
        if owner is not None:
            raise CatalogError(f"name {name!r} is in use by a {owner}")

    def create_database(self, name: str, config: DatabaseConfig | None = None) -> Database:
        with self.latch:
            self._check_name_free(name)
            # A dropped namesake's archive must not serve (or absorb) the
            # new incarnation's history: its LSN space is unrelated.
            # Reusing the name forfeits the old incarnation's archived
            # restorability. (Its fallback copies and stored page
            # versions already went when it retired.)
            self.archives.pop(name, None)
            return self.register_database(
                Database(name, config or self.default_config, self.env)
            )

    def register_database(self, db: Database) -> Database:
        """Take ``db`` into the engine under its own name; returns it.

        The one step every way of obtaining a database ends with — a
        fresh create, a promoted standby, a restored copy: the name must
        be free, pooled splits pin the database's log against retention,
        its snapshots share the engine's version store, and its
        ``log.<name>.*`` / ``retention.<name>.*`` gauges appear — all of
        it undone in one place, :meth:`_retire_database`.
        """
        with self.latch:
            self._check_name_free(db.name)
            self.databases[db.name] = db
            db.add_retention_pin(
                lambda name=db.name: self.snapshot_pool.min_pin_lsn(name)
            )
            db.version_store = self.version_store
            install_database_metrics(self, db)
            return db

    def _free_name(self, stem: str) -> str:
        """The first of ``<stem>1``, ``<stem>2``, ... nothing is using."""
        taken = self.databases.keys() | self.snapshots.keys() | self.replicas.keys()
        names = (f"{stem}{n}" for n in itertools.count(1))
        return next(name for name in names if name not in taken)

    def database(self, name: str) -> Database:
        db = self.databases.get(name)
        if db is None:
            raise CatalogError(f"no such database: {name!r}")
        return db

    def drop_database(self, name: str) -> None:
        with self.latch:
            db = self.database(name)
            for replica_name in [
                n for n, r in self.replicas.items() if r.primary is db
            ]:
                self.drop_replica(replica_name)
            archiver = self.archives.get(name)
            if archiver is not None:
                # Capture the durable tail before the archiver stops
                # following (a closed archiver polls nothing).
                archiver.poll()
            self._retire_database(name)

    def _retire_database(self, name: str) -> None:
        """The one way a database leaves the engine — ``DROP``, a dropped
        restored copy, a failed-over corpse (whose subscribers were
        re-pointed already).

        Everything wired to it at registration or since is undone here,
        dependents first, then its memory is released. ``archives[name]``
        stays: its *store* still serves ``restore_from_archive`` of the
        retired history.
        """
        with self.latch:
            db = self.database(name)
            for snap_name in [n for n, s in self.snapshots.items() if s.db is db]:
                self.drop_snapshot(snap_name)
            self._retire_archiver(name)
            if self._shippers.pop(name, None) is not None:
                forget_shipper_metrics(self, name)
            for _split, copy in self._archive_reads.pop(name, ()):
                copy.close()
            self.snapshot_pool.purge_database(name)
            self.version_store.purge(name)
            del self.databases[name]
            forget_database_metrics(self, name)
            db.close()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def resolve_as_of(self, as_of) -> float:
        """Normalize an as-of spec (simulated seconds, datetime, or an ISO
        string like the paper's ``'2012-03-22 17:26:25.473'``) to simulated
        seconds."""
        if isinstance(as_of, (int, float)):
            return float(as_of)
        if isinstance(as_of, datetime):
            return SimClock.from_datetime(as_of)
        if isinstance(as_of, str):
            try:
                moment = datetime.fromisoformat(as_of)
            except ValueError as err:
                raise ValueError(
                    f"cannot interpret as-of time {as_of!r}: expected an ISO "
                    f"timestamp like '2012-03-22 17:26:25.473'"
                ) from err
            return SimClock.from_datetime(moment)
        raise ValueError(f"cannot interpret as-of time {as_of!r}")

    def create_asof_snapshot(self, db_name: str, snap_name: str, as_of) -> "AsOfSnapshot":
        """``CREATE DATABASE snap AS SNAPSHOT OF db AS OF '...'``."""
        from repro.core.asof import AsOfSnapshot

        with self.latch:
            if self._name_owner(snap_name) is not None:
                raise SnapshotError(f"name {snap_name!r} already in use")
            db = self.database(db_name)
            try:
                snap = AsOfSnapshot.create(
                    db, snap_name, self.resolve_as_of(as_of)
                )
            except RetentionExceededError as err:
                raise self._retention_error(db_name, err) from err
            self.snapshots[snap_name] = snap
            db.snapshots[snap_name] = snap
            return snap

    def create_snapshot(self, db_name: str, snap_name: str) -> "RegularSnapshot":
        """``CREATE DATABASE snap AS SNAPSHOT OF db`` (copy-on-write)."""
        from repro.snapshot.base import RegularSnapshot

        with self.latch:
            if self._name_owner(snap_name) is not None:
                raise SnapshotError(f"name {snap_name!r} already in use")
            db = self.database(db_name)
            snap = RegularSnapshot.create_now(db, snap_name)
            self.snapshots[snap_name] = snap
            db.snapshots[snap_name] = snap
            return snap

    def snapshot(self, name: str) -> "AsOfSnapshot":
        snap = self.snapshots.get(name)
        if snap is None:
            raise SnapshotError(f"no such snapshot: {name!r}")
        return snap

    def drop_snapshot(self, name: str) -> None:
        with self.latch:
            snap = self.snapshot(name)
            snap.drop()
            snap.db.snapshots.pop(name, None)
            del self.snapshots[name]

    # ------------------------------------------------------------------
    # Replication (log-shipping standbys)
    # ------------------------------------------------------------------

    def shipper_for(self, db_name: str) -> "LogShipper":
        """The (lazily created) outbound log shipper for ``db_name``."""
        from repro.replication.shipper import LogShipper

        with self.latch:
            shipper = self._shippers.get(db_name)
            if shipper is None:
                shipper = LogShipper(self.database(db_name))
                self._shippers[db_name] = shipper
                install_shipper_metrics(self, shipper)
            return shipper

    def add_replica(
        self,
        db_name: str,
        name: str | None = None,
        *,
        apply_delay_s: float = 0.0,
        config: DatabaseConfig | None = None,
        seed_from_backup: bool = False,
    ) -> "Replica":
        """Create a warm standby of ``db_name`` and start shipping to it.

        By default the replica is seeded by replaying the primary's log
        from its very first record, so the primary's log must not have
        been truncated yet. With ``seed_from_backup`` the standby instead
        starts from the archive's newest backup chain: its pages are laid
        down, any gap between the chain's end and the primary's retained
        log is filled from archived segments, and the ship stream resumes
        from the end-of-restore LSN — a standby can attach long after the
        primary truncated. ``apply_delay_s`` holds received frames for
        that long before applying — the delayed-apply error-recovery
        window.
        """
        from repro.replication.replica import Replica
        from repro.wal.lsn import FIRST_LSN

        with self.latch:
            db = self.database(db_name)
            if name is None:
                name = self._free_name(f"{db_name}_replica")
            self._check_name_free(name)
            if db.log.start_lsn != FIRST_LSN and not seed_from_backup:
                raise ReplicationError(
                    f"primary {db_name!r} log already truncated at "
                    f"{db.log.start_lsn:#x}; a replica cannot be seeded from "
                    f"the log alone — use add_replica(seed_from_backup=True) "
                    f"with an archived backup chain"
                )
            replica = Replica(
                db,
                name,
                apply_delay_s=apply_delay_s,
                config=config,
            )
            # The standby replays the primary's exact log, so its prepared
            # page images are byte-identical to the primary's: both sides
            # share one version store under the primary's key (one budget,
            # mutual reuse across the primary pool and every replica pool).
            replica.db.version_store = self.version_store
            replica.db.version_store_key = db_name
            if seed_from_backup:
                archiver = self.archives.get(db_name)
                if archiver is None or not archiver.store.backups(db_name):
                    raise ReplicationError(
                        f"seed_from_backup needs an archived backup of "
                        f"{db_name!r}: call engine.backup_database({db_name!r}) "
                        f"(which enables archiving) first"
                    )
                archiver.poll()
                store = archiver.store
                chain = store.newest_chain(db_name)
                replica.seed(store.read_backup_pages(chain), chain[-1].backup_lsn)
                # Fill the gap between the chain's end and whatever the
                # primary still retains from archived segments; the shipper
                # takes over at the archive's edge.
                for blob in store.frames_from(db_name, replica.received_lsn):
                    replica.receive(blob)
            shipper = self.shipper_for(db_name)
            # Attach before registering: if the stream cannot resume (a
            # stale chain whose end the primary no longer retains), the
            # engine must not be left tracking a dead, never-attached
            # standby.
            shipper.attach(replica)
            self.replicas[name] = replica
            install_replica_metrics(self, replica)
            shipper.poll()
            replica.apply_ready()
            return replica

    def replica(self, name: str) -> "Replica":
        replica = self.replicas.get(name)
        if replica is None:
            raise CatalogError(f"no such replica: {name!r}")
        return replica

    def drop_replica(self, name: str) -> None:
        with self.latch:
            self._retire_replica(name).drop()
            self.snapshot_pool.purge_database(name)

    def _retire_replica(self, name: str) -> "Replica":
        """The one way a standby leaves the engine — ``DROP`` or
        promotion: its subscription ends, its instruments are forgotten,
        its name is free again. Returns it for the caller's last word:
        ``drop()`` releases its memory, a promoted one's database lives
        on under the same name."""
        with self.latch:
            replica = self.replica(name)
            shipper = self._shippers.get(replica.primary.name)
            if shipper is not None:
                shipper.detach(name)
            del self.replicas[name]
            forget_replica_metrics(self, name)
            return replica

    def replicas_of(self, db_name: str) -> list["Replica"]:
        return [
            r
            for r in self.replicas.values()
            if r.primary.name == db_name and not r.dropped
        ]

    def promote_replica(self, name: str, up_to=None) -> Database:
        """Promote a standby to a writable database registered under its
        own name (failover, or delayed-apply error recovery when ``up_to``
        stops the timeline just before the error)."""
        with self.latch:
            replica = self.replica(name)
            up_to_wall = None if up_to is None else self.resolve_as_of(up_to)
            # Promote first: if it refuses (unreachable point,
            # already-applied guard), the replica stays subscribed and
            # keeps following.
            db = replica.promote(up_to_wall, self.snapshot_pool)
            self._retire_replica(name)
            return self.register_database(db)

    def replication_tick(self) -> int:
        """Pump replication once: ship pending log, apply what's eligible.

        Returns the number of records applied across all replicas. The
        workload driver calls this between transactions (the simulated
        stand-in for the shipper/apply daemons of a real deployment).

        Under chaos this is also the engine's survival loop: scheduled
        primary crashes land here, a transient fault in one replica's
        apply is contained to that replica (recorded and retried under
        backoff — every other subscription keeps flowing), and the HA
        coordinator gets its detection/failover tick after the monitor
        has observed the settled state.
        """
        if self.chaos is not None:
            for target in self.chaos.due_crashes(self.env.clock.now()):
                if target in self.databases and not self.databases[target].crashed:
                    self.crash_database(target)
        for shipper in list(self._shippers.values()):
            shipper.poll()
        applied = 0
        now = self.env.clock.now()
        for replica in list(self.replicas.values()):
            if replica.dropped or now < replica.apply_retry_s:
                continue
            try:
                applied += replica.apply_ready()
            except (ReplicationFaultError, FaultInjectedError) as err:
                if not err.transient:
                    raise
                replica.note_apply_fault(err, now, self._apply_retry)
            else:
                replica.note_apply_ok()
        # Tick after shipping/applying: the monitor observes the settled
        # post-pump state, not the transient mid-poll lag.
        self.monitor_tick()
        if self.ha is not None:
            self.ha.tick()
        return applied

    def routing_replica(self, db_name: str) -> "Replica | None":
        """The replica current reads should be offloaded to, if any.

        Only non-delayed replicas within ``READ_OFFLOAD_MAX_LAG_BYTES`` of
        the primary qualify; among those, the most caught-up wins. Returns
        ``None`` when reads must stay on the primary.
        """
        if not self.read_offload:
            return None
        return self._most_applied_replica(
            db_name,
            lambda replica: replica.apply_delay_s <= 0
            and replica.lag_bytes() <= READ_OFFLOAD_MAX_LAG_BYTES,
        )

    def _most_applied_replica(self, db_name: str, eligible) -> "Replica | None":
        """The standby of ``db_name`` with the highest ``applied_lsn``
        among those ``eligible(replica)`` accepts, or ``None``. A faulted
        standby and one with no applied commit never qualify."""
        from repro.wal.lsn import NULL_LSN

        best = None
        for replica in self.replicas_of(db_name):
            if replica.is_faulted() or replica.applied_commit_lsn == NULL_LSN:
                continue  # degrade: route around a standby stuck in apply
            if eligible(replica) and (best is None or replica.applied_lsn > best.applied_lsn):
                best = replica
        return best

    def enable_read_offload(self) -> None:
        """Route read-only SQL SELECTs to caught-up replicas."""
        self.read_offload = True

    # ------------------------------------------------------------------
    # Chaos & high availability (see repro.chaos and docs/ha.md)
    # ------------------------------------------------------------------

    def enable_chaos(self, seed: int = 0, rules=()) -> FaultInjector:
        """Arm deterministic fault injection across the whole machine.

        One seeded :class:`~repro.chaos.injector.FaultInjector` is shared
        by every component (shippers, replicas, archivers, devices,
        backup/restore) through ``env.chaos``; ``rules`` are
        :class:`~repro.chaos.injector.FaultRule` schedules to start with
        (more can be added on the returned injector). Idempotent — a
        second call adds rules to the existing injector.
        """
        if self.chaos is None:
            self.chaos = FaultInjector(self.env.clock, seed=seed)
            self.env.chaos = self.chaos
            self.env.data_device.chaos = self.chaos
            self.env.log_device.chaos = self.chaos
            for archiver in self.archives.values():
                archiver.store.device.chaos = self.chaos
        for rule in rules:
            self.chaos.add_rule(rule)
        return self.chaos

    def fault_events(self) -> list[dict]:
        """The injector's deterministic fault log (``SHOW FAULTS``)."""
        if self.chaos is None:
            return []
        return self.chaos.events()

    def _record_ha(self, event: str, db: str, detail: str) -> None:
        with self.latch:
            self.ha_events.append(
                {
                    "seq": len(self.ha_events),
                    "t": self.env.clock.now(),
                    "event": event,
                    "db": db,
                    "detail": detail,
                }
            )

    def crash_database(self, name: str) -> None:
        """Halt ``name``: the process dies, durable media survive.

        The durable log tail is drained to subscribers first — the
        tail-log-backup step every failover story starts with; it carries
        no volatile state, only what the dead primary's log device already
        held. The volatile (unflushed) tail is lost, which costs no
        committed work: every commit flushes the log, so committed ⇒
        durable. From here every write raises
        :class:`~repro.errors.DatabaseUnavailableError` and ship polls
        fail until :meth:`failover_to_replica` (or the auto-failover
        coordinator) promotes a survivor.
        """
        with self.latch:
            db = self.database(name)
            if db.crashed:
                return
            shipper = self._shippers.get(name)
            if shipper is not None:
                shipper.poll()
            db.crashed = True
        self._record_ha(
            "crash", name, "primary halted; durable tail drained to subscribers"
        )

    def shipper_errors(self, db_name: str) -> dict[str, int]:
        """Consecutive ship-failure streak per subscriber of ``db_name``'s
        outbound stream (empty when it ships to nobody) — the failure
        detector's liveness read."""
        shipper = self._shippers.get(db_name)
        if shipper is None:
            return {}
        return shipper.subscriber_errors()

    def enable_auto_failover(self, confirm_s: float = 2.0) -> FailoverCoordinator:
        """Arm automatic failover: a failure detector on the monitor's
        ship-health alerts confirms primary death after ``confirm_s``
        sim-seconds of sustained no-progress, then the coordinator
        promotes the most-caught-up healthy replica and re-points the
        surviving topology (see :meth:`failover_to_replica`). Starts the
        monitor if it is not running. Idempotent."""
        if self.ha is not None:
            return self.ha
        if self.monitor is None:
            self.start_monitor()
        self.ha = FailoverCoordinator(self, confirm_s=confirm_s)
        return self.ha

    def failover_to_replica(
        self, db_name: str, replica_name: str | None = None
    ) -> Database:
        """Promote a survivor of ``db_name`` and re-point the topology.

        The winner is ``replica_name`` if given, else the most-caught-up
        (highest received LSN, name as deterministic tie-break) replica
        that is not itself faulted — falling back to faulted survivors
        when nothing healthy remains. Every *other* surviving replica is
        re-attached to the promoted primary's shipper (cursors resume
        LSN-checked — the shipped history is byte-identical), the
        archiver continues onto the same store under the new primary's
        name, the old primary is decommissioned, and read offload
        naturally follows the re-pointed replicas.
        """
        with self.latch:
            survivors = self.replicas_of(db_name)
            if not survivors:
                raise ReplicationError(
                    f"cannot fail over {db_name!r}: no surviving replica"
                )
            if replica_name is not None:
                winner = self.replica(replica_name)
                if winner.primary.name != db_name:
                    raise ReplicationError(
                        f"replica {replica_name!r} replicates "
                        f"{winner.primary.name!r}, not {db_name!r}"
                    )
            else:
                healthy = [r for r in survivors if not r.is_faulted()] or survivors
                winner = max(healthy, key=lambda r: (r.received_lsn, r.name))
            others = [r for r in survivors if r is not winner]
            old_shipper = self._shippers.get(db_name)
            archiver = self.archives.get(db_name)
            promoted = self.promote_replica(winner.name)
            new_shipper = self.shipper_for(promoted.name)
            for rep in others:
                if old_shipper is not None:
                    old_shipper.detach(rep.name)
                rep.primary = promoted
                rep.db.version_store_key = promoted.name
                new_shipper.attach(rep)
            rearchived = archiver is not None and not archiver.closed
            if rearchived:
                self._retire_archiver(db_name)
                self.enable_archiving(promoted.name, store=archiver.store)
            # Decommission the corpse: every subscription was re-pointed
            # above, so retiring it only unhooks what is left.
            self._retire_database(db_name)
            self._record_ha(
                "failover",
                db_name,
                f"promoted {promoted.name}; re-pointed {len(others)} standby(s)"
                + ("; archiving continued" if rearchived else ""),
            )
            new_shipper.poll()
            return promoted

    # ------------------------------------------------------------------
    # Archive tier (continuous log archiving + backup chains)
    # ------------------------------------------------------------------

    def enable_archiving(
        self,
        db_name: str,
        *,
        store=None,
        directory: str | None = None,
        profile=None,
    ) -> "LogArchiver":
        """Start continuously archiving ``db_name``'s log.

        The archiver subscribes to the database's log shipper, so every
        ``replication_tick`` (or explicit ``poll``) moves durable log into
        the archive *before* retention can truncate it — the subscription
        cursor pins the log until each segment is durably archived.
        ``store`` reuses an existing :class:`~repro.archive.store
        .ArchiveStore`; otherwise one is created (``directory`` persists
        segments as real files, ``profile`` prices the archive media).
        """
        from repro.archive.archiver import LogArchiver
        from repro.archive.store import ArchiveStore
        from repro.errors import ArchiveError

        with self.latch:
            existing = self.archives.get(db_name)
            if existing is not None and not existing.closed:
                # Idempotent re-enable is fine; a *different* requested
                # store configuration is not.
                same_store = store is None or store is existing.store
                same_dir = directory is None or directory == existing.store.directory
                same_profile = (
                    profile is None or profile is existing.store.device.profile
                )
                if not (same_store and same_dir and same_profile):
                    raise ArchiveError(
                        f"archiving is already enabled for {db_name!r} with a "
                        f"different store configuration; disable_archiving first"
                    )
                return existing
            db = self.database(db_name)
            if store is None:
                # Resume the previous store only when no explicit store
                # configuration was requested; silently dropping a
                # directory/profile argument would fake persistence the
                # caller asked for.
                if existing is not None and directory is None and profile is None:
                    store = existing.store
                else:
                    store = ArchiveStore(self.env, directory=directory, profile=profile)
            archiver = LogArchiver(db, store, self.shipper_for(db_name))
            self.archives[db_name] = archiver
            install_archiver_metrics(self, archiver)
            archiver.poll()
            return archiver

    def disable_archiving(self, db_name: str) -> None:
        """Stop archiving ``db_name`` (its retention hold is released).

        The archive store itself is kept: already-archived history stays
        restorable, and re-enabling resumes at the archive's edge.
        """
        with self.latch:
            archiver = self.archives.get(db_name)
            if archiver is not None:
                archiver.poll()
            self._retire_archiver(db_name)

    def _retire_archiver(self, db_name: str) -> None:
        """The one way an archiver stops following its database: the
        subscription (and with it the retention hold) ends and its
        instruments are forgotten — a switched-off archiver must not keep
        reporting lag, and its stale progress series would read as a ship
        stall. The ``archives`` entry and its store stay, for restores
        and for ``enable_archiving`` to resume. Not following: no-op."""
        archiver = self.archives.get(db_name)
        if archiver is not None and not archiver.closed:
            archiver.close()
            forget_archiver_metrics(self, archiver)

    def backup_database(self, db_name: str, *, full: bool = False):
        """``BACKUP DATABASE``: archive a backup chained onto the newest.

        The first backup of a database is always full; later ones copy
        only pages modified since the chain's last member (``full=True``
        forces a new full baseline). Enables archiving implicitly — a
        backup chain without the log to roll it forward is not
        restorable to arbitrary points.
        """
        from repro.archive.backup import take_incremental_backup
        from repro.backup.backup import take_full_backup

        archiver = self.enable_archiving(db_name)
        store = archiver.store
        db = self.database(db_name)
        chain = store.newest_chain(db_name)
        with self.env.tracer.span(
            "backup.database", db=db_name, full=bool(full or not chain)
        ):
            if self.chaos is not None:
                self.chaos.hit("backup.page_copy", target=db_name)
            # The backup media here IS the archive store (put_backup
            # charges the archive device), so the generic media charge
            # is off.
            while True:
                if full or not chain:
                    backup = take_full_backup(db, charge_media=False)
                else:
                    backup = take_incremental_backup(db, chain[-1], charge_media=False)
                try:
                    store.put_backup(backup)
                    break
                except BackupError:
                    # A concurrent BACKUP DATABASE chained onto the same
                    # base first: take the incremental again on the new tip.
                    moved = store.newest_chain(db_name)
                    if full or not chain or moved[-1] is chain[-1]:
                        raise
                    chain = moved
            # The backup's checkpoint records are in the log now; archive
            # them promptly so the chain is immediately restorable.
            archiver.poll()
        return backup

    def restore_from_archive(
        self, db_name: str, as_of, new_name: str | None = None
    ) -> Database:
        """Materialize ``db_name`` as of ``as_of`` from the archive.

        Works for any time the archive covers — including times older
        than the primary's retention horizon, and databases that no
        longer exist. Returns a read-only database registered under
        ``new_name`` (default ``<db>_restored<N>``).
        """
        from repro.archive.restore import restore_from_archive
        from repro.errors import ArchiveError

        archiver = self.archives.get(db_name)
        if archiver is None:
            raise ArchiveError(
                f"no archive for {db_name!r}: call "
                f"engine.backup_database({db_name!r}) (or enable_archiving) "
                f"while the history you need is still retained"
            )
        if not archiver.closed:
            archiver.poll()
        if new_name is None:
            new_name = self._free_name(f"{db_name}_restored")
        self._check_name_free(new_name)
        with self.env.tracer.span("archive.restore", db=db_name, target=new_name):
            if self.chaos is not None:
                self.chaos.hit("restore.page_copy", target=db_name)
            return self.register_database(
                restore_from_archive(
                    self, archiver.store, db_name, self.resolve_as_of(as_of), new_name
                )
            )

    def _retention_error(
        self, db_name: str, err, archive_failure=None
    ) -> RetentionExceededError:
        """Rebuild a retention failure so it names the ways out.

        ``archive_failure`` is the exception an attempted archive fallback
        died with — recommending ``restore_from_archive`` would then be a
        dead end, so the actual cause is surfaced instead.
        """
        if archive_failure is not None:
            archive_part = (
                f"the archive could not serve this time ({archive_failure})"
            )
        elif db_name in self.archives:
            archive_part = (
                f"restore from the archive (engine.restore_from_archive"
                f"({db_name!r}, t))"
            )
        else:
            archive_part = (
                f"an archive restore (engine.backup_database({db_name!r}) "
                f"ahead of time, then engine.restore_from_archive)"
            )
        return RetentionExceededError(
            f"{err}; options past the retention horizon: {archive_part}"
            f" or a delayed-apply replica (engine.add_replica({db_name!r}, "
            f"apply_delay_s=...), then query_as_of(replica=...)/promote within "
            f"its window)"
        )

    def _archive_fallback_reader(self, db_name: str, wall: float, err):
        """An archive-backed read-only copy covering ``wall``, or raise.

        Backs ``query_as_of``/``pin_as_of`` once the pool's split crosses
        the retention horizon: the engine keeps a tiny LRU of restored
        copies keyed by SplitLSN, so repeated reads at one past time pay
        for one restore. Raises the enriched retention error when no
        archive can serve the time.
        """
        from repro.errors import ArchiveError

        archive_failure = None
        archiver = self.archives.get(db_name)
        if archiver is not None:
            try:
                if not archiver.closed:
                    archiver.poll()
                from repro.archive.restore import plan_restore, restore_from_archive

                # One plan serves both the cache key (its SplitLSN) and,
                # on a miss, the restore itself.
                plan = plan_restore(archiver.store, db_name, wall)
                split = plan.split_lsn
                # pin_as_of runs on session threads: the cache is probed
                # and filled under the catalog latch, held across the
                # restore so one split is restored once and a concurrent
                # retire cannot pop the list mid-insert.
                with self.latch:
                    self.database(db_name)  # retired meanwhile: no ghost entry
                    cached = self._archive_reads.setdefault(db_name, [])
                    for index, (cached_split, reader) in enumerate(cached):
                        if cached_split == split:
                            cached.append(cached.pop(index))
                            return reader
                    reader = restore_from_archive(
                        self,
                        archiver.store,
                        db_name,
                        wall,
                        f"~archive:{db_name}@{split:#x}",
                        plan=plan,
                    )
                    cached.append((split, reader))
                    del cached[:-2]
                    return reader
            except (ArchiveError, BackupError, RetentionExceededError) as caught:
                archive_failure = caught
        raise self._retention_error(db_name, err, archive_failure) from err

    # ------------------------------------------------------------------
    # Inline point-in-time reads (pooled ephemeral snapshots)
    # ------------------------------------------------------------------

    def pin_as_of(self, db_name: str, as_of):
        """Lease a read-only view of ``db_name`` as of ``as_of``; returns
        the reader.

        The lease comes from :attr:`snapshot_pool`, over a caught-up
        standby when one exists (read scale-out: the primary's media
        never sees the snapshot's page preparation), else over the
        primary. When the requested time lies past the retention horizon
        and the database is archived, the reader is an archive-backed
        read-only copy instead. Hand every reader back to
        :meth:`unpin_as_of` (``USE ... AS OF`` sessions hold the lease
        across statements; :meth:`query_as_of` scopes it).
        """
        wall = self.resolve_as_of(as_of)
        tracer = self.env.tracer
        started = self.env.clock.now()
        with tracer.span("asof.pin", db=db_name) as span:
            try:
                # A standby serves ``wall`` without advancing its apply
                # cursor (a delayed one keeps its safety window) once it
                # has applied every commit at or before ``wall``: its last
                # applied commit is strictly newer, or it is fully caught
                # up (commits *at* ``wall`` may tie on the timestamp).
                replica = self._most_applied_replica(
                    db_name,
                    lambda replica: replica.applied_wall > wall or replica.lag_bytes() == 0,
                )
                if replica is not None:
                    span.set(route=replica.name)
                    db = replica.db
                else:
                    db = self.database(db_name)
                    span.set(route="primary")
                return self.snapshot_pool.acquire(db, wall)
            except RetentionExceededError as err:
                span.set(route="archive")
                with tracer.span("asof.archive_fallback", db=db_name):
                    return self._archive_fallback_reader(db_name, wall, err)
            finally:
                self._pin_sim_s.observe(self.env.clock.now() - started)

    def unpin_as_of(self, reader) -> None:
        """Return a reader :meth:`pin_as_of` handed out. An archive-backed
        copy needs nothing: the engine's small per-database cache owns
        it."""
        if not isinstance(reader, Database):
            self.snapshot_pool.release(reader)

    @contextmanager
    def query_as_of(
        self, db_name: str, as_of, *, replica: str | None = None
    ) -> Iterator["AsOfSnapshot"]:
        """Lease a read-only view of ``db_name`` as of ``as_of``.

        No DDL, no naming, no manual drop: the view comes from the
        engine's :class:`~repro.core.snapshot_pool.SnapshotPool`, so
        repeated queries at the same point in time share one snapshot and
        its already-prepared pages. When a caught-up standby exists the
        lease is over the standby's state, offloading the point-in-time
        read entirely.
        A time past the retention horizon is served from an archive-backed
        restored copy when the database is archived (the yielded reader is
        then a read-only :class:`~repro.engine.database.Database`).
        ``replica`` forces a specific standby (the delayed-recovery path:
        it applies forward as needed to cover ``as_of``). ``as_of``
        accepts simulated seconds, a :class:`datetime.datetime`, or an ISO
        timestamp string (anything :meth:`resolve_as_of` takes).

        ::

            with engine.query_as_of("shop", "2012-03-22 17:26:25") as snap:
                rows = list(snap.scan("items"))
        """
        if replica is not None:
            rep = self.replica(replica)
            if rep.primary.name != db_name:
                raise CatalogError(
                    f"replica {replica!r} replicates "
                    f"{rep.primary.name!r}, not {db_name!r}"
                )
            wall = self.resolve_as_of(as_of)
            rep.ensure_applied_through(wall)
            with self.snapshot_pool.lease(rep.db, wall) as snapshot:
                yield snapshot
            return
        reader = self.pin_as_of(db_name, as_of)
        try:
            yield reader
        finally:
            self.unpin_as_of(reader)

    def version_store_stats(self) -> dict:
        """The cross-snapshot version store's counters, as a plain dict
        (hit/miss/publish/eviction/invalidation plus byte occupancy) —
        the observability surface benchmarks and the CI perf gate read."""
        return self.version_store.as_dict()

    # ------------------------------------------------------------------
    # Observability (see repro.obs and docs/observability.md)
    # ------------------------------------------------------------------

    def metrics_snapshot(self, like: str | None = None) -> dict:
        """The canonical metrics document: counters, derived gauges and
        histograms for every subsystem, optionally filtered by the same
        glob ``SHOW METRICS LIKE`` accepts. Deterministic for seeded
        runs — timing is simulated, keys are sorted."""
        return self.env.metrics.snapshot(like)

    def reset_metrics(self) -> None:
        """Zero every counter and histogram (gauges are derived)."""
        self.env.metrics.reset()

    @contextmanager
    def trace(self, name: str = "trace"):
        """``with engine.trace() as t:`` — span-trace the block.

        While the block runs, every instrumented boundary (SQL execute,
        AS OF pin/resolve/prepare, pool acquire, version-store probe,
        chain walk, shipping/apply, archive) opens a
        nested span; after the block, ``t.root`` is the finished span
        tree (``t.render()`` renders it as text). Spans
        carry simulated elapsed time and per-span I/O-counter deltas.
        """
        handle = self.env.tracer.begin(name)
        try:
            yield handle
        finally:
            self.env.tracer.finish(handle)

    def set_version_store_budget(self, budget_bytes: int) -> None:
        """Resize (or, with ``0``, disable) the shared version store."""
        self.version_store.set_budget(budget_bytes)

    # ------------------------------------------------------------------
    # Continuous monitoring (see repro.obs.monitor)
    # ------------------------------------------------------------------

    def start_monitor(
        self,
        *,
        config: MonitorConfig | None = None,
        rules=None,
        like: str | None = None,
    ) -> "EngineMonitor":
        """Arm continuous monitoring: the recorder takes its first sample
        now and further samples on its sim-clock cadence from the
        engine's pump points (every SQL statement, every
        ``replication_tick``). Idempotent unless ``config``/``rules``
        ask for a different setup while a monitor is live."""
        if self.monitor is not None:
            if config is not None or rules is not None or like is not None:
                raise ValueError(
                    "monitor already started; stop_monitor() before "
                    "reconfiguring"
                )
            return self.monitor
        if config is not None:
            config.validate()
            self.monitor_config = config
        self.monitor = EngineMonitor(
            self.env.metrics,
            self.env.clock,
            self.monitor_config,
            rules=rules,
            like=like,
        )
        self.monitor.start()
        return self.monitor

    def stop_monitor(self) -> None:
        """Disarm monitoring; recorded history and alert state are
        discarded."""
        self.monitor = None

    def monitor_tick(self) -> bool:
        """One pump-point tick (no-op when the monitor is off); returns
        whether a sample+evaluation ran."""
        if self.monitor is None:
            return False
        return self.monitor.tick()

    def monitor_history(
        self, like: str | None = None, window_s: float | None = None
    ) -> dict:
        """Windowed per-series summaries from the recorder (empty when
        the monitor is off)."""
        if self.monitor is None:
            return {}
        return self.monitor.history(like, window_s)

    def active_alerts(self) -> list[dict]:
        """Currently-firing alert conditions (empty when the monitor is
        off)."""
        if self.monitor is None:
            return []
        return self.monitor.active_alerts()

    def alert_events(self) -> list[dict]:
        """The bounded firing/cleared event timeline, oldest first."""
        if self.monitor is None:
            return []
        return self.monitor.events()

    def health(self) -> dict:
        """Per-subsystem OK/DEGRADED/CRITICAL rollup of active alerts.

        With the monitor off this degrades gracefully to an overall OK
        with ``monitoring: False`` — callers can always read it.
        """
        from repro.obs.health import HEALTH_SCHEMA, OK

        if self.monitor is None:
            return {
                "schema": HEALTH_SCHEMA,
                "overall": OK,
                "monitoring": False,
                "subsystems": {},
            }
        doc = self.monitor.health()
        doc["monitoring"] = True
        return doc

    def on_alert(self, pattern: str, callback) -> None:
        """Subscribe ``callback(event)`` to firing/cleared transitions of
        rules matching ``pattern`` — the hook HA failover logic uses to
        react to ``repl.apply_lag``. Requires a started monitor."""
        if self.monitor is None:
            raise ValueError("start_monitor() before subscribing to alerts")
        self.monitor.on_alert(pattern, callback)

    # ------------------------------------------------------------------
    # Concurrent sessions (see repro.engine.scheduler)
    # ------------------------------------------------------------------

    def run_sessions(
        self,
        tasks,
        workers: int = 4,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> list:
        """Run session tasks concurrently against this engine.

        ``tasks`` is an iterable of callables — each one a whole session
        (open a SQL session, run a transaction mix, sweep AS OF reads,
        pump replication) executed entirely on one of ``workers`` threads.
        Results return in task order; the first task exception re-raises
        after all workers drain; a batch that outlives ``timeout_s``
        dumps every thread's stack and raises
        :class:`~repro.engine.scheduler.SchedulerTimeout` (the
        deadlock-fails-fast contract the stress suite relies on).

        Tasks taking an argument receive the engine::

            engine.run_sessions([
                lambda: engine.sql("INSERT ..."),
                lambda: engine.replication_tick(),
            ], workers=2)
        """
        return SessionScheduler(workers).run(tasks, timeout_s)

    # ------------------------------------------------------------------

    def sql(self, text: str, database: str | None = None):
        """Execute SQL against this engine (see :mod:`repro.sql`)."""
        from repro.sql.executor import Session

        session = Session(self, database)
        try:
            return session.execute(text)
        finally:
            # One-shot sessions release any AS OF pin immediately.
            session.close()

    def session(self, database: str | None = None):
        """An interactive SQL session bound to this engine.

        Sessions are context managers; ``USE <db> AS OF '<time>'`` pins a
        pooled snapshot for the session's lifetime, released by the next
        ``USE``, :meth:`~repro.sql.executor.Session.close`, or the
        ``with`` block's exit.
        """
        from repro.sql.executor import Session

        return Session(self, database)
