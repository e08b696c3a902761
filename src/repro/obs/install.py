"""Wiring subsystem stats sheets and derived gauges into the registry.

Each ``install_*`` function attaches one subsystem's stats dataclass as
a sheet (``registry.sheet(prefix, stats)`` — its fields are the
counters, the owner keeps bumping them as attributes) and registers its
derived gauges; the ``forget_*`` function beside it names the same
prefixes to :func:`forget` when the subsystem retires.
Instrument names are spelled here and nowhere else (save the shipper's
own per-subscriber ``repl.ship.<sub>.*``); the engine calls these as
subsystems come and go (``docs/observability.md``, "Lifecycle").

All gauges are *derived* — closures over live engine state, evaluated at
snapshot time — never sampled copies that could go stale.
"""

from __future__ import annotations


def forget(engine, *prefixes: str) -> None:
    """Retire every instrument under ``prefixes``: out of the registry
    and, when the monitor runs, out of its recorded series and alert
    conditions with them — an owner that left the engine leaves no gauge
    to sample and no ghost alert behind. Registry first: a tick landing
    in between finds nothing new to record."""
    for prefix in prefixes:
        engine.env.metrics.remove_prefix(prefix)
        if engine.monitor is not None:
            engine.monitor.remove_prefix(prefix)


def install_pool_metrics(registry, prefix: str, pool) -> None:
    """A :class:`~repro.core.snapshot_pool.SnapshotPool` under ``prefix``
    (``pool.engine`` for the engine pool, ``pool.<replica>`` per standby)."""
    registry.sheet(prefix, pool.stats)
    registry.gauge(
        f"{prefix}.bytes", pool.total_bytes, "page size x frames held by pooled snapshots"
    )
    registry.gauge(f"{prefix}.budget_bytes", lambda: pool.budget_bytes)
    registry.gauge(f"{prefix}.entries", lambda: len(pool))
    registry.gauge(f"{prefix}.leases", pool.active_leases)
    registry.gauge(
        f"{prefix}.hit_rate",
        lambda: (
            pool.stats.hits / (pool.stats.hits + pool.stats.misses)
            if (pool.stats.hits + pool.stats.misses)
            else 0.0
        ),
        "pooled-acquire hit rate",
    )
    registry.gauge(
        f"{prefix}.occupancy",
        lambda: (
            pool.total_bytes() / pool.budget_bytes if pool.budget_bytes else 0.0
        ),
        "pooled bytes as a fraction of the budget",
    )


def install_version_store_metrics(registry, store) -> None:
    """The engine-wide :class:`~repro.core.version_store.PageVersionStore`
    (``version_store.*``): its counters with occupancy and hit rate."""
    registry.sheet("version_store", store.stats)
    registry.gauge("version_store.bytes", store.total_bytes)
    registry.gauge("version_store.versions", store.version_count)
    registry.gauge("version_store.budget_bytes", lambda: store.budget_bytes)
    registry.gauge(
        "version_store.hit_rate",
        lambda: store.stats.hit_rate,
        "store-probe hit rate (chain walks skipped)",
    )
    registry.gauge(
        "version_store.lookups",
        lambda: store.stats.hits + store.stats.misses,
        "total store probes (alert guard for the hit-rate floor)",
    )


def install_engine_metrics(engine) -> None:
    """Engine-owned shared structures: the snapshot pool and the store."""
    registry = engine.env.metrics
    install_pool_metrics(registry, "pool.engine", engine.snapshot_pool)
    install_version_store_metrics(registry, engine.version_store)
    registry.gauge(
        "repl.subscriptions",
        lambda: sum(
            len(shipper.subscribers())
            for shipper in engine._shippers.values()
        ),
        "ship-stream subscriptions engine-wide (guards the stall alert)",
    )


def install_database_metrics(engine, db) -> None:
    """Per-database log and retention gauges (``log.<db>.*``,
    ``retention.<db>.*``)."""
    registry = engine.env.metrics
    prefix = f"log.{db.name}"
    registry.gauge(f"{prefix}.end_lsn", lambda: db.log.end_lsn)
    registry.gauge(f"{prefix}.durable_lsn", lambda: db.log.durable_lsn)
    registry.gauge(f"{prefix}.start_lsn", lambda: db.log.start_lsn)
    registry.gauge(
        f"{prefix}.retained_bytes",
        lambda: db.log.end_lsn - db.log.start_lsn,
        "log bytes between the retention floor and the tail",
    )

    def pin_lag_bytes() -> int:
        # Distance from the log tail back to the oldest live retention
        # pin (pooled splits, shipper/archiver cursors): how much log the
        # pins hold beyond what the time window alone would keep.
        from repro.wal.lsn import NULL_LSN

        pins = []
        for pin in db.retention_pins:
            lsn = pin()
            if lsn is not None and lsn > NULL_LSN:
                pins.append(lsn)
        if not pins:
            return 0
        return max(0, db.log.end_lsn - min(pins))

    registry.gauge(
        f"retention.{db.name}.pin_lag_bytes",
        pin_lag_bytes,
        "retention-pin horizon distance from the log tail",
    )


def forget_database_metrics(engine, name: str) -> None:
    forget(engine, f"log.{name}.", f"retention.{name}.")


def install_replica_metrics(engine, replica) -> None:
    """Per-standby apply/lag instruments (``replica.<name>.*``) and its
    own snapshot pool (``pool.<name>.*``)."""
    registry = engine.env.metrics
    prefix = f"replica.{replica.name}"
    registry.sheet(prefix, replica.stats)
    registry.gauge(f"{prefix}.applied_lsn", lambda: replica.applied_lsn)
    registry.gauge(f"{prefix}.received_lsn", lambda: replica.received_lsn)
    registry.gauge(
        f"{prefix}.apply_lag_bytes",
        replica.lag_bytes,
        "durable primary log not yet applied (LSN distance)",
    )
    registry.gauge(
        f"{prefix}.received_lag_bytes",
        replica.received_lag_bytes,
        "durable primary log not yet shipped here",
    )

    def apply_lag_s() -> float:
        # Seconds of history the applied state trails the primary: zero
        # when fully applied, otherwise the age of the last applied
        # commit. Derived — no sampling loop keeps this fresh.
        if replica.lag_bytes() == 0:
            return 0.0
        return max(0.0, engine.env.clock.now() - replica.applied_wall)

    registry.gauge(f"{prefix}.apply_lag_s", apply_lag_s, "apply lag in seconds")
    registry.gauge(
        f"{prefix}.consecutive_apply_errors",
        lambda: replica.consecutive_apply_errors,
        "consecutive faulted apply attempts (routing skips a faulted standby)",
    )
    install_pool_metrics(registry, f"pool.{replica.name}", replica.snapshot_pool)


def forget_replica_metrics(engine, name: str) -> None:
    """A standby's own instruments and its ship subscription's (the
    shipper unregistered those on detach; their recorded series go here)."""
    forget(engine, f"replica.{name}.", f"pool.{name}.", f"repl.ship.{name}.")


def install_shipper_metrics(engine, shipper) -> None:
    """Outbound shipping instruments (``shipper.<db>.*``)."""
    registry = engine.env.metrics
    prefix = f"shipper.{shipper.db.name}"
    registry.sheet(prefix, shipper.stats)
    registry.gauge(
        f"{prefix}.max_lag_bytes",
        shipper.max_lag_bytes,
        "largest unshipped byte count across subscribers",
    )
    registry.gauge(f"{prefix}.subscribers", lambda: len(shipper.subscribers()))
    # Per-subscriber health gauges (repl.ship.<subscriber>.*) are owned
    # by the shipper itself: it registers/unregisters the progress gauge
    # as subscriptions fail and recover.
    shipper.bind_registry(registry)


def forget_shipper_metrics(engine, db_name: str) -> None:
    forget(engine, f"shipper.{db_name}.")


def install_archiver_metrics(engine, archiver) -> None:
    """Archive-tier instruments (``archive.<db>.*``): the durable-cursor
    lag gauge is the archiver's health signal — log past it is only as
    safe as the primary's retention window."""
    registry = engine.env.metrics
    prefix = f"archive.{archiver.db.name}"
    registry.sheet(prefix, archiver.stats)
    registry.gauge(
        f"{prefix}.cursor_lag_bytes",
        archiver.lag_bytes,
        "durable primary log not yet durably archived",
    )
    registry.gauge(f"{prefix}.archived_lsn", lambda: archiver.received_lsn)


def forget_archiver_metrics(engine, archiver) -> None:
    """A closed archiver's instruments and its ship subscription's series
    (``enable_archiving`` installs a fresh set on resume)."""
    forget(engine, f"archive.{archiver.db.name}.", f"repl.ship.{archiver.name}.")
