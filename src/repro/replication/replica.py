"""The standby: a database shell kept warm by continuous redo apply.

A :class:`Replica` owns a :class:`~repro.engine.database.Database` created
without bootstrap — every page of its state, including the boot page and
the system catalog, arrives by replaying the primary's log from its very
first record (the primary's own bootstrap is logged). Apply runs through
the :class:`~repro.wal.apply.RedoApplier` shared with ARIES crash
recovery and both restores, batched per page and costed as
partition-parallel redo (cf. *Fast Failure Recovery for Main-Memory DBMSs
on Multicores*); promotion finishes with the same analysis window and
loser rollback every other recovery route runs (``docs/recovery.md``).

The replica serves three kinds of reads:

* **current** — the reader protocol (``get``/``scan``/``table``) against
  the applied state; eventually consistent with the primary, bounded by
  the shipping/apply lag.
* **point in time** — ``AS OF`` leases over the replica's own shipped
  log, taken from the engine's one
  :class:`~repro.core.snapshot_pool.SnapshotPool` under the standby's
  name (``Engine.pin_as_of`` routes there, ``Engine.query_as_of(...,
  replica=)`` forces it); the primary is not involved at all. Because
  the shipped log is byte-identical to the primary's, prepared page
  images are too: standby snapshots probe and publish the engine's
  shared :class:`~repro.core.version_store.PageVersionStore` under the
  *primary's* key, so a chain walk paid on either side serves both.
* **delayed** — with ``apply_delay_s`` set, received frames are held in a
  staging queue and applied only once they are older than the delay. The
  window between applied and received state is an application-error
  safety net: any point inside it can be read (or promoted to) even after
  the primary's retention horizon has passed, because the replica keeps
  its entire shipped log.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.catalog.catalog import SYS_COLUMNS_ID, SYS_OBJECTS_ID
from repro.core.split_lsn import analysis_base, find_split_lsn
from repro.engine.boot import BOOT_PAGE_ID
from repro.engine.database import Database
from repro.engine.recovery import analyze_log, undo_pass
from repro.errors import ReplicationError, ReplicationFaultError
from repro.replication.stream import LogFrame
from repro.wal.apply import RedoApplier
from repro.wal.lsn import FIRST_LSN, NULL_LSN, format_lsn
from repro.wal.records import CommitRecord

#: Redo partitions a standby's apply is costed across (the
#: :class:`~repro.wal.apply.RedoApplier` multicore model).
APPLY_SLOTS = 4

#: Objects whose pages hold the catalog: redoing one reloads it.
_META_OBJECTS = frozenset((SYS_OBJECTS_ID, SYS_COLUMNS_ID))


@dataclass
class ReplicaStats:
    """Observable replica behavior."""

    frames_received: int = 0
    bytes_received: int = 0
    records_applied: int = 0
    apply_batches: int = 0
    #: High-water mark of received-but-unapplied bytes (delay + lag).
    peak_apply_backlog_bytes: int = 0


class Replica:
    """A warm standby for one primary database."""

    def __init__(
        self,
        primary,
        name: str,
        *,
        apply_delay_s: float = 0.0,
        config=None,
    ) -> None:
        if apply_delay_s < 0:
            raise ValueError("apply_delay_s must be >= 0")
        self.primary = primary
        self.name = name
        self.apply_delay_s = apply_delay_s
        self.db = Database(
            name,
            config if config is not None else primary.config,
            primary.env,
            bootstrap=False,
        )
        self.db.read_only = True
        # The replica never truncates its shipped log; reachability is
        # bounded by the log itself, not the primary's retention window.
        self.db.retention_override_s = float("inf")
        self.stats = ReplicaStats()
        self._applier = RedoApplier(self.db, parallel_slots=APPLY_SLOTS)
        #: Next LSN to apply (exclusive end of the applied prefix).
        self.applied_lsn = FIRST_LSN
        #: Wall clock / LSN of the last applied commit record.
        self.applied_wall = 0.0
        self.applied_commit_lsn = NULL_LSN
        #: Received frames awaiting their apply-delay: (ship_wall, end_lsn).
        self._delay_queue: deque[tuple[float, int]] = deque()
        self.dropped = False
        #: Consecutive faulted apply attempts (set by the engine's tick;
        #: read offload routes away from a faulted standby).
        self.consecutive_apply_errors = 0
        #: Sim time before which the engine skips apply retries here.
        self.apply_retry_s = 0.0
        #: The last apply fault, as text.
        self.last_apply_error: str | None = None

    # ------------------------------------------------------------------
    # Seeding (backup-seeded standbys; see the engine's archive tier)
    # ------------------------------------------------------------------

    def seed(self, pages: dict[int, bytes], seed_lsn: int) -> None:
        """Adopt a backup chain's pages as this standby's initial state.

        Instead of replaying the primary's log from its very first record
        — impossible once the primary has truncated — the standby starts
        from a restored backup chain: its pages are laid down, its log is
        rebased to start at ``seed_lsn`` (the chain's last checkpoint
        LSN), and shipping resumes from there: the first frame lands that
        checkpoint's record, the SplitLSN search anchor. Must run before
        any frame has been received.
        """
        if self.applied_lsn != FIRST_LSN or self.stats.frames_received:
            raise ReplicationError(
                f"replica {self.name!r} already has shipped state; seed "
                f"before attaching it to a shipper"
            )
        self.db.adopt_backup(pages, seed_lsn, self.primary.log)
        self.applied_lsn = seed_lsn
        self.db.publish_horizon_lsn = seed_lsn

    # ------------------------------------------------------------------
    # Receive (the shipper calls this)
    # ------------------------------------------------------------------

    @property
    def received_lsn(self) -> int:
        """End of the log landed on this standby (the resume cursor)."""
        return self.db.log.end_lsn

    def receive(self, blob: bytes) -> int:
        """Land one encoded frame; returns the new received LSN.

        Frames must arrive in order with no gaps; a mismatched start LSN
        raises :class:`ReplicationError` carrying the expected cursor, and
        the shipper resynchronizes from :attr:`received_lsn`.
        """
        self._check_alive()
        try:
            frame = LogFrame.decode(blob)
        except ReplicationFaultError:
            raise
        except ReplicationError as err:
            # Torn/corrupted/short frame on the wire: typed as a
            # transient stream fault carrying the exact resume cursor,
            # so the shipper's retry resends this range and nothing else.
            raise ReplicationFaultError(
                f"replica {self.name!r} rejected a frame at "
                f"{format_lsn(self.received_lsn)}: {err}",
                resume_lsn=self.received_lsn,
            ) from err
        if frame.start_lsn != self.received_lsn:
            raise ReplicationFaultError(
                f"replica {self.name!r} expected frame at "
                f"{format_lsn(self.received_lsn)}, got "
                f"{format_lsn(frame.start_lsn)}",
                resume_lsn=self.received_lsn,
            )
        self.db.log.ingest(frame.start_lsn, frame.payload)
        self._delay_queue.append((frame.ship_wall, frame.end_lsn))
        self.stats.frames_received += 1
        self.stats.bytes_received += len(frame.payload)
        backlog = self.received_lsn - self.applied_lsn
        if backlog > self.stats.peak_apply_backlog_bytes:
            self.stats.peak_apply_backlog_bytes = backlog
        return self.received_lsn

    # ------------------------------------------------------------------
    # Apply
    # ------------------------------------------------------------------

    def eligible_lsn(self) -> int:
        """How far apply may currently advance (delay-aware)."""
        if self.apply_delay_s <= 0:
            return self.received_lsn
        horizon = self.db.env.clock.now() - self.apply_delay_s
        eligible = self.applied_lsn
        for ship_wall, end_lsn in self._delay_queue:
            if ship_wall > horizon:
                break
            eligible = end_lsn
        return eligible

    def apply_ready(self) -> int:
        """Apply every received record whose delay has elapsed; returns
        the number of records redone."""
        self._check_alive()
        eligible = self.eligible_lsn()
        chaos = getattr(self.db.env, "chaos", None)
        if chaos is not None and eligible > self.applied_lsn:
            chaos.hit("repl.apply", target=self.name)
        # Redo mutates the standby's pages across records; offloaded
        # readers serialize against it on the standby's write latch.
        with self.db.write_latch:
            return self._apply_range(eligible)

    # -- apply fault state (the engine's tick drives retry/backoff) ----

    def note_apply_fault(self, err, now: float, retry) -> None:
        """Record a faulted apply attempt and schedule its retry."""
        self.consecutive_apply_errors += 1
        self.last_apply_error = f"{type(err).__name__}: {err}"
        self.apply_retry_s = now + retry.delay(self.consecutive_apply_errors)

    def note_apply_ok(self) -> None:
        if self.consecutive_apply_errors:
            self.consecutive_apply_errors = 0
            self.last_apply_error = None
            self.apply_retry_s = 0.0

    def is_faulted(self) -> bool:
        """Whether apply is currently failing (routing skips this
        standby until a successful retry clears the streak)."""
        return self.consecutive_apply_errors > 0

    def _apply_range(self, to_lsn: int) -> int:
        if to_lsn <= self.applied_lsn:
            return 0
        with self.db.env.tracer.span(
            "repl.apply", replica=self.name, to_lsn=to_lsn
        ) as span:
            applied = self._apply_range_traced(to_lsn)
            span.set(records=applied)
        return applied

    def _apply_range_traced(self, to_lsn: int) -> int:
        touched_meta = False
        state = {"wall": self.applied_wall, "commit": self.applied_commit_lsn}

        def records():
            nonlocal touched_meta
            for rec in self.db.log.scan(self.applied_lsn, to_lsn):
                if rec.IS_PAGE_MOD:
                    if rec.page_id == BOOT_PAGE_ID or rec.object_id in _META_OBJECTS:
                        touched_meta = True
                elif type(rec) is CommitRecord:
                    state["wall"] = rec.wall_clock
                    state["commit"] = rec.lsn
                yield rec

        applied = self._applier.apply(records())
        self.applied_lsn = to_lsn
        # Snapshot preparation on this replica may publish open-ended
        # page intervals; they are only proven up to the applied prefix
        # (received-but-unapplied records can touch any page).
        self.db.publish_horizon_lsn = to_lsn
        self.applied_wall = state["wall"]
        self.applied_commit_lsn = state["commit"]
        while self._delay_queue and self._delay_queue[0][1] <= self.applied_lsn:
            self._delay_queue.popleft()
        if touched_meta:
            self.db.invalidate_caches()
            with self.db.fetch_page(BOOT_PAGE_ID) as guard:
                boot_ready = guard.page.is_formatted()
            if boot_ready:
                self.db.reload_boot()
        if applied:
            self.stats.records_applied += applied
            self.stats.apply_batches += 1
        return applied

    def ensure_applied_through(self, as_of_wall: float) -> int:
        """Advance apply (delay notwithstanding) so ``as_of_wall`` is
        covered; returns the SplitLSN for that time.

        This is the delayed replica's recovery read path: any point inside
        the delay window can be materialized by applying forward to it —
        never backward, so pick the earliest interesting point first.
        """
        self._check_alive()
        split = find_split_lsn(self.db, as_of_wall)
        if split >= self.applied_lsn:
            self._apply_range(self.db.log.record_aligned_end(split, 1))
        return split

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    # Reader protocol passthrough: a replica quacks like a read-only
    # database, so drivers and the SQL layer can target it directly.

    def get(self, table: str, key):
        return self.db.get(table, key)

    def scan(self, table: str, lo=None, hi=None):
        return self.db.scan(table, lo, hi)

    def tables(self) -> list[str]:
        return self.db.tables()

    # ------------------------------------------------------------------
    # Lag
    # ------------------------------------------------------------------

    def lag_bytes(self) -> int:
        """Bytes of durable primary log not yet applied here."""
        return max(0, self.primary.log.durable_lsn - self.applied_lsn)

    def received_lag_bytes(self) -> int:
        """Bytes of durable primary log not yet shipped here."""
        return max(0, self.primary.log.durable_lsn - self.received_lsn)

    # ------------------------------------------------------------------
    # Promotion (the delayed-apply error-recovery endgame)
    # ------------------------------------------------------------------

    def promote(self, up_to_wall: float | None, pool) -> Database:
        """Turn this standby into a writable database; returns it.

        With ``up_to_wall`` the timeline stops at that point's SplitLSN —
        shipped records beyond it are discarded — which is how a delayed
        replica recovers from an application error: promote to just before
        the error, inside the delay window, regardless of the primary's
        retention horizon. Without it, everything received is applied
        (failover to the most recent shipped state).

        Transactions in flight at the promotion point are rolled back with
        the same logical-undo machinery crash recovery uses; the replica
        object itself is retired (``dropped``), the database lives on.
        Once the timeline is cut, ``pool`` (the engine's
        :class:`~repro.core.snapshot_pool.SnapshotPool`) drops this
        standby's entries: they were built over the shipped timeline.
        """
        self._check_alive()
        if up_to_wall is None:
            to_lsn = self.received_lsn
        else:
            split = find_split_lsn(self.db, up_to_wall)
            to_lsn = self.db.log.record_aligned_end(split, 1)
        if to_lsn < self.applied_lsn:
            # Redo only moves forward: pages already reflect records past
            # the requested point, and discarding their log would leave
            # page LSNs dangling beyond the log end. Rewinding is the
            # as-of machinery's job (Engine.query_as_of), not promotion's.
            raise ReplicationError(
                f"replica {self.name!r} already applied through "
                f"{format_lsn(self.applied_lsn)}; cannot promote back to "
                f"{format_lsn(to_lsn)}"
            )
        self._apply_range(to_lsn)
        self.db.log.discard_after(to_lsn)
        pool.purge_database(self.name)
        self.dropped = True
        self.db.read_only = False
        self.db.retention_override_s = None
        if self.db.version_store is not None:
            # The promoted timeline diverges from the primary's at the
            # discard point: stop sharing the primary's store key and
            # start a fresh history under this database's own name.
            # Versions published under the primary's key stay valid for
            # the primary — they describe the still-shared prefix.
            self.db.version_store.purge(self.db.name)
            self.db.version_store_key = self.db.name
        self.db.publish_horizon_lsn = None
        base = analysis_base(self.db.log, to_lsn, self.db.log.start_lsn)
        analysis = analyze_log(self.db.log, base)
        undo_pass(self.db, analysis)
        self.db.txns.adopt_txn_id_floor(analysis.max_txn_id)
        self.db.checkpoint()
        return self.db

    # ------------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dropped:
            raise ReplicationError(f"replica {self.name!r} was dropped")

    def drop(self) -> None:
        """Discard the standby: its staged frames and everything its
        database holds in memory."""
        self.dropped = True
        self._delay_queue.clear()
        self.db.close()

    def __repr__(self) -> str:
        return (
            f"Replica({self.name!r} of {self.primary.name!r}, "
            f"applied={format_lsn(self.applied_lsn)}, "
            f"received={format_lsn(self.received_lsn)}, "
            f"delay={self.apply_delay_s:.0f}s)"
        )
