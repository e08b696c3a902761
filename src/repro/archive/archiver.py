"""Continuous log archiving: tail the primary, archive before truncation.

The :class:`LogArchiver` is a subscriber on the primary's existing
:class:`~repro.replication.shipper.LogShipper` — the archive tier rides
the same framed, CRC-checksummed, record-aligned stream standbys consume,
and inherits the shipper's cursor-based retention pin for free: the
shipper never lets :func:`repro.core.retention.enforce_retention`
truncate below the slowest subscriber's cursor, and the archiver's cursor
only advances once a segment is *durably archived*. Log the retention
window is about to drop is therefore always in the archive first; closing
the archiver (:meth:`close`) detaches the subscription and truncation
resumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.archive.store import ArchiveStore
from repro.errors import (
    ArchiveError,
    FaultInjectedError,
    ReplicationError,
    ReplicationFaultError,
)
from repro.replication.stream import LogFrame
from repro.wal.lsn import format_lsn


@dataclass
class ArchiverStats:
    """Observable archiver behavior."""

    segments_archived: int = 0
    bytes_archived: int = 0
    #: Transient receive/flush faults (each left the cursor put; the
    #: shipper's retry resends the segment).
    receive_errors: int = 0


class LogArchiver:
    """Archives one primary database's log into an :class:`ArchiveStore`."""

    def __init__(self, db, store: ArchiveStore, shipper) -> None:
        self.db = db
        self.store = store
        self.shipper = shipper
        self.name = f"~archive:{db.name}"
        self.stats = ArchiverStats()
        self.closed = False
        coverage = store.coverage(db.name)
        if coverage is None:
            self._cursor = db.log.start_lsn
        elif coverage[1] >= db.log.start_lsn:
            # Resuming against an existing archive: continue where it ends
            # (re-archiving already-covered log would duplicate segments).
            # Guard against a *different incarnation* first — a database
            # dropped and recreated under the same name starts a fresh LSN
            # space, and appending its log to the old history would
            # corrupt every restore spanning the boundary.
            self._verify_continuation(coverage)
            self._cursor = coverage[1]
        else:
            raise ArchiveError(
                f"archive for {db.name!r} ends at "
                f"{format_lsn(coverage[1])} but the retained log starts at "
                f"{format_lsn(db.log.start_lsn)}: the archived history has "
                f"a gap; start a fresh store"
            )
        shipper.attach(self)

    def _verify_continuation(self, coverage: tuple[int, int]) -> None:
        """Refuse to resume unless the database's log *is* the archived
        history's continuation.

        Cheap structural check (the archive extends past everything this
        log has ever written → different incarnation) plus a content
        check: whatever of the newest archived segment the database still
        retains must match byte for byte.
        """
        log = self.db.log
        if coverage[1] > log.end_lsn:
            raise ArchiveError(
                f"archive for {self.db.name!r} covers through "
                f"{format_lsn(coverage[1])} but the database's log ends at "
                f"{format_lsn(log.end_lsn)}: this is a different "
                f"incarnation of the database; start a fresh store"
            )
        frame = self.store.frame(self.store.segments(self.db.name)[-1])
        lo = max(log.start_lsn, frame.start_lsn)
        hi = min(frame.end_lsn, log.end_lsn)
        if lo >= hi:
            return  # the retained log no longer overlaps the segment
        retained = log.read_bytes(lo, hi)
        archived = frame.payload[lo - frame.start_lsn : hi - frame.start_lsn]
        if retained != archived:
            raise ArchiveError(
                f"archive for {self.db.name!r} diverges from the retained "
                f"log in [{format_lsn(lo)}, {format_lsn(hi)}): this is a "
                f"different incarnation of the database; start a fresh store"
            )

    # ------------------------------------------------------------------
    # Shipper-subscriber protocol
    # ------------------------------------------------------------------

    @property
    def received_lsn(self) -> int:
        """End of the durably archived log (the shipper resume cursor)."""
        return self._cursor

    def receive(self, blob: bytes) -> int:
        """Durably archive one shipped frame; returns the new cursor.

        Transient faults — a torn/corrupt frame on the wire, an injected
        crash during the store flush — are re-raised typed with the
        archive cursor as the resume point: the cursor never advanced,
        so the shipper's retry resends exactly this segment and the
        archive stays gap-free (the store-then-advance ordering is the
        atomicity point).
        """
        if self.closed:
            raise ArchiveError(f"archiver {self.name!r} is closed")
        try:
            frame = LogFrame.decode(blob)
        except ReplicationFaultError:
            raise
        except ReplicationError as err:
            self.stats.receive_errors += 1
            raise ReplicationFaultError(
                f"archiver {self.name!r} rejected a frame at "
                f"{format_lsn(self._cursor)}: {err}",
                resume_lsn=self._cursor,
            ) from err
        if frame.start_lsn != self._cursor:
            raise ArchiveError(
                f"archiver {self.name!r} expected frame at "
                f"{format_lsn(self._cursor)}, got "
                f"{format_lsn(frame.start_lsn)}"
            )
        # Store first, then advance: the retention pin (the shipper-side
        # cursor) must keep covering the segment until it is durable.
        with self.db.env.tracer.span(
            "archive.receive", db=self.db.name, bytes=len(frame.payload)
        ):
            chaos = getattr(self.db.env, "chaos", None)
            if chaos is not None:
                chaos.hit("archive.receive", target=self.name)
            try:
                self.store.put_segment(self.db.name, frame)
            except FaultInjectedError:
                self.stats.receive_errors += 1
                raise
        self._cursor = frame.end_lsn
        self.stats.segments_archived += 1
        self.stats.bytes_archived += len(frame.payload)
        return self._cursor

    # ------------------------------------------------------------------

    def poll(self) -> int:
        """Archive all pending durable log now (drives the shared shipper,
        so other subscribers receive their backlog too)."""
        if self.closed:
            return 0
        return self.shipper.poll()

    def lag_bytes(self) -> int:
        """Durable primary log not yet archived."""
        return max(0, self.db.log.durable_lsn - self._cursor)

    def close(self) -> None:
        """Stop archiving and release the retention hold."""
        self.shipper.detach(self.name)
        self.closed = True

    def __repr__(self) -> str:
        return (
            f"LogArchiver({self.db.name!r}, cursor={format_lsn(self._cursor)}, "
            f"segments={self.stats.segments_archived}, closed={self.closed})"
        )
