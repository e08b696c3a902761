"""Primary-side log shipping: tail the WAL, frame it, stream it.

The :class:`LogShipper` owns one primary database's outbound replication.
Each subscribed replica has an LSN cursor; :meth:`poll` ships every
durable byte past each cursor as record-aligned, checksummed
:class:`~repro.replication.stream.LogFrame` batches. Cursors make the
stream resumable: a replica that reconnects (or a freshly constructed
shipper that attaches an existing replica) continues from the replica's
reported ``received_lsn`` — no state beyond the log itself is needed,
which is the whole appeal of log-shipping replication.

Shipping is fault-tolerant: a transient receive failure (CRC mismatch,
injected partition, archiver flush crash — anything raising
:class:`~repro.errors.ReplicationFaultError` or a transient
:class:`~repro.errors.FaultInjectedError`) marks only that subscription
failed and schedules a retry under an exponential-backoff
:class:`~repro.chaos.retry.RetryPolicy`. The cursor is NOT advanced on
failure and every successful receive re-reports the subscriber's durable
``received_lsn``, so a retried stream can neither skip nor double-apply
a record — resume is LSN-checked on both ends and CRC-checked per frame.
Per-subscriber health is exported as ``repl.ship.<name>.*`` gauges: a
``consecutive_errors`` count, and a ``progress_t`` gauge that is
*unregistered* while the subscription is failing — its recorded series
goes stale, which is exactly what the built-in ``repl.ship_stall``
absence alert (and the failure detector on top) watches for.

The shipper also registers a retention pin on the primary: the log below
the slowest subscriber's cursor is not truncated out from under it (see
:func:`repro.core.retention.enforce_retention`). A replica that detaches
releases the pin; if retention then truncates past its cursor, a later
re-attach fails with :class:`~repro.errors.ReplicationError` and the
replica must be reseeded (``add_replica(seed_from_backup=True)`` when an
archived backup chain exists). Subscribers need not be replicas: the
archive tier's :class:`~repro.archive.archiver.LogArchiver` consumes the
same stream, and its cursor-pin is what guarantees log is archived
*before* retention drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.retry import RetryPolicy
from repro.errors import (
    DatabaseUnavailableError,
    FaultInjectedError,
    ReplicationError,
    ReplicationFaultError,
)
from repro.latch import Latch
from repro.replication.stream import LogFrame
from repro.wal.lsn import format_lsn

#: Default frame payload budget. Frames are cut at record boundaries, so a
#: single oversized record still ships whole.
DEFAULT_BATCH_BYTES = 256 * 1024


@dataclass
class ShipperStats:
    """Observable shipping behavior (asserted on by tests/benchmarks)."""

    polls: int = 0
    frames_shipped: int = 0
    bytes_shipped: int = 0
    #: Cursor resyncs from a replica's reported position (reconnects).
    resyncs: int = 0
    #: Transient per-subscriber send failures (each schedules a retry).
    send_errors: int = 0
    #: Successful sends that followed at least one failure.
    retries: int = 0


class _Subscription:
    __slots__ = (
        "replica",
        "cursor",
        "consecutive_errors",
        "next_retry_s",
        "last_error",
        "last_progress_s",
    )

    def __init__(self, replica, cursor: int, now: float) -> None:
        self.replica = replica
        self.cursor = cursor
        #: Consecutive failed ship attempts (0 = healthy).
        self.consecutive_errors = 0
        #: Sim time before which poll() skips this subscription (backoff).
        self.next_retry_s = 0.0
        #: The last failure, as text (surfaced via subscriber_errors()).
        self.last_error: str | None = None
        #: Sim time of the last successful ship attempt.
        self.last_progress_s = now


class LogShipper:
    """Streams one primary's committed, durable log to its replicas."""

    def __init__(
        self,
        db,
        *,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        retry: RetryPolicy | None = None,
    ) -> None:
        if batch_bytes < 1:
            raise ValueError("batch_bytes must be positive")
        self.db = db
        self.batch_bytes = batch_bytes
        self.retry = retry if retry is not None else RetryPolicy()
        self.stats = ShipperStats()
        self._subs: dict[str, _Subscription] = {}
        self._registry = None
        #: One poll at a time: read-cursor, ship, advance-cursor is one
        #: step per subscriber. Past-retention readers poll the archiver
        #: from session threads beside whoever pumps replication.
        self.latch = Latch("log_shipper")
        db.add_retention_pin(self._retention_pin)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def _retention_pin(self) -> int | None:
        """The oldest LSN any subscriber still needs shipped."""
        if not self._subs:
            return None
        return min(sub.cursor for sub in self._subs.values())

    def attach(self, replica) -> None:
        """Subscribe ``replica``, resuming from its received-LSN cursor."""
        cursor = replica.received_lsn
        if cursor < self.db.log.start_lsn:
            raise ReplicationError(
                f"replica {replica.name!r} resumes at {format_lsn(cursor)} "
                f"but the primary log starts at "
                f"{format_lsn(self.db.log.start_lsn)}; reseed the replica"
            )
        self._subs[replica.name] = _Subscription(
            replica, cursor, self.db.env.clock.now()
        )
        self._install_sub_metrics(replica.name)

    def detach(self, name: str) -> None:
        self._subs.pop(name, None)
        if self._registry is not None:
            self._registry.remove_prefix(f"repl.ship.{name}.")

    def subscribers(self) -> list[str]:
        return list(self._subs)

    def subscriber_errors(self) -> dict[str, int]:
        """Consecutive ship failures per subscriber (0 = healthy) — the
        failure detector's liveness read."""
        return {
            name: sub.consecutive_errors for name, sub in self._subs.items()
        }

    # ------------------------------------------------------------------
    # Per-subscriber health metrics (repl.ship.<name>.*)
    # ------------------------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Export per-subscriber gauges into ``registry`` (the engine's
        metric install path calls this once per shipper)."""
        self._registry = registry
        for name in self._subs:
            self._install_sub_metrics(name)

    def _install_sub_metrics(self, name: str) -> None:
        if self._registry is None:
            return
        sub = self._subs[name]
        self._registry.gauge(
            f"repl.ship.{name}.consecutive_errors",
            lambda: sub.consecutive_errors,
            "consecutive failed ship attempts to this subscriber",
        )
        self._install_progress_gauge(name, sub)

    def _install_progress_gauge(self, name: str, sub: _Subscription) -> None:
        if self._registry is None:
            return
        self._registry.gauge(
            f"repl.ship.{name}.progress_t",
            lambda: sub.last_progress_s,
            "sim time of the last successful ship attempt; unregistered "
            "while the subscription is failing (absence = stall signal)",
        )

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------

    def poll(self) -> int:
        """Ship pending durable bytes to every subscriber.

        Returns the total payload bytes shipped. Only durable log is ever
        shipped — the volatile tail can still vanish in a crash, and a
        standby must never hold records its primary can lose.

        A transient fault on one subscription (typed stream fault or an
        injected one) is contained to it: the error state is recorded,
        the retry is scheduled, and every other subscriber still ships.
        Fatal faults (reseed-required cursor divergence, archiver races)
        propagate.
        """
        with self.latch:
            self.stats.polls += 1
            log = self.db.log
            now = self.db.env.clock.now()
            chaos = getattr(self.db.env, "chaos", None)
            total = 0
            with self.db.env.tracer.span("repl.ship.poll", db=self.db.name) as span:
                if getattr(self.db, "crashed", False):
                    down = DatabaseUnavailableError(
                        f"primary {self.db.name!r} is down"
                    )
                    for sub in self._subs.values():
                        if now >= sub.next_retry_s:
                            self._note_failure(sub, down, now)
                    span.set(bytes=0)
                    return 0
                target = log.durable_lsn
                for sub in list(self._subs.values()):
                    if now < sub.next_retry_s:
                        continue  # still backing off from the last failure
                    try:
                        if chaos is not None:
                            chaos.hit("repl.ship.poll", target=self.db.name)
                        total += self._ship_to(sub, log, target, now, chaos)
                    except (ReplicationFaultError, FaultInjectedError) as err:
                        if not err.transient:
                            raise
                        self._note_failure(sub, err, now)
                    else:
                        self._note_progress(sub, now)
                span.set(bytes=total)
            return total

    def _ship_to(self, sub, log, target: int, now: float, chaos) -> int:
        """Ship everything pending to one subscriber; returns bytes."""
        reported = sub.replica.received_lsn
        if reported != sub.cursor:
            # The replica's position moved under us (restart, manual
            # reseed, a retried frame that half-landed): trust the
            # replica, it owns the durable truth.
            if reported < log.start_lsn:
                raise ReplicationError(
                    f"replica {sub.replica.name!r} resumes at "
                    f"{format_lsn(reported)}, below the primary's "
                    f"retained log ({format_lsn(log.start_lsn)})"
                )
            sub.cursor = reported
            self.stats.resyncs += 1
        shipped = 0
        while sub.cursor < target:
            end = log.record_aligned_end(sub.cursor, self.batch_bytes, target)
            if end <= sub.cursor:
                break
            payload = log.read_bytes(sub.cursor, end)
            blob = LogFrame(sub.cursor, payload, now).encode()
            if chaos is not None:
                chaos.hit("repl.ship.send", target=sub.replica.name)
                blob = chaos.hit(
                    "repl.stream.frame", target=sub.replica.name, payload=blob
                )
            sub.replica.receive(blob)
            # Only now is the frame durably landed; a failure above left
            # the cursor put, so the retry resends the exact same range.
            sub.cursor = end
            self.stats.frames_shipped += 1
            self.stats.bytes_shipped += len(payload)
            shipped += len(payload)
        return shipped

    def _note_failure(self, sub: _Subscription, err, now: float) -> None:
        sub.consecutive_errors += 1
        sub.last_error = f"{type(err).__name__}: {err}"
        sub.next_retry_s = now + self.retry.delay(sub.consecutive_errors)
        self.stats.send_errors += 1
        if self._registry is not None:
            # Stop reporting progress: the recorded series goes stale and
            # the repl.ship_stall absence rule picks the outage up.
            self._registry.remove(
                f"repl.ship.{sub.replica.name}.progress_t"
            )

    def _note_progress(self, sub: _Subscription, now: float) -> None:
        if sub.consecutive_errors:
            self.stats.retries += 1
            sub.consecutive_errors = 0
            sub.last_error = None
            sub.next_retry_s = 0.0
            self._install_progress_gauge(sub.replica.name, sub)
        sub.last_progress_s = now

    def max_lag_bytes(self) -> int:
        """Largest unshipped byte count across subscribers."""
        target = self.db.log.durable_lsn
        if not self._subs:
            return 0
        return max(target - sub.cursor for sub in self._subs.values())

    def __repr__(self) -> str:
        return (
            f"LogShipper({self.db.name!r}, subscribers={len(self._subs)}, "
            f"shipped={self.stats.bytes_shipped}B)"
        )
