"""The archive store: cold tier for log segments and backup chains.

An :class:`ArchiveStore` owns everything the engine needs to materialize
a database state *older than the primary's retained log*: the archived
log and page backups chained full → incremental → incremental. Each
database's archived log is held once, in one in-memory
:class:`~repro.wal.log_manager.LogManager` that every shipped frame is
ingested into as it lands; the segment index keeps only each frame's
extent, and a frame is rebuilt from the log when a standby or a tool
asks for it. The store is priced through the sim device model like every
other medium in the system — archive media is typically the cheapest,
slowest tier, so the store carries its own
:class:`~repro.sim.device.SimDevice` (defaulting to the log device's
profile) and every segment or backup read/write charges it.

Segments can optionally be persisted to a real directory (one ``.seg``
file per segment, containing the encoded frame) so operational tooling —
``python -m repro.tools.loginspect --archive <dir>`` — can inspect an
archive without an engine process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.config import SimEnv
from repro.errors import ArchiveError, BackupError, FaultInjectedError
from repro.latch import Latch
from repro.replication.stream import FRAME_HEADER_SIZE, LogFrame
from repro.sim import hostio
from repro.sim.device import DeviceProfile, SimDevice
from repro.wal.log_manager import LogManager
from repro.wal.lsn import format_lsn


@dataclass(frozen=True)
class ArchivedSegment:
    """One archived log segment's extent; its bytes live in the store's
    log for the database."""

    db_name: str
    start_lsn: int
    end_lsn: int
    ship_wall: float

    @property
    def frame_bytes(self) -> int:
        """Size of the encoded frame the segment was archived from."""
        return FRAME_HEADER_SIZE + self.end_lsn - self.start_lsn


class ArchiveStore:
    """Segment + backup store for one or more databases' archive tiers."""

    def __init__(
        self,
        env,
        *,
        profile: DeviceProfile | None = None,
        directory: str | None = None,
    ) -> None:
        self.env = env
        self.device = SimDevice(
            profile if profile is not None else env.log_device.profile,
            env.clock,
            env.stats,
        )
        self.device.chaos = getattr(env, "chaos", None)
        self.directory = directory
        if directory is not None:
            hostio.ensure_directory(directory)
        #: Guards the maps below: the archiver fills them from whoever
        #: pumps replication while session threads read past retention
        #: (``docs/concurrency.md``).
        self.latch = Latch("archive_store")
        self._segments: dict[str, list[ArchivedSegment]] = {}
        self._backups: dict[str, list] = {}
        #: Each database's archived log, the one copy of its bytes.
        self._logs: dict[str, LogManager] = {}
        #: How many of a database's segments a reader has been charged for.
        self._read_cursor: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Device accounting
    # ------------------------------------------------------------------

    def _charge_write(self, nbytes: int) -> None:
        self.device.write_seq(nbytes)
        self.env.stats.archive_write_bytes += nbytes

    def _charge_read(self, nbytes: int) -> None:
        self.device.read_seq(nbytes)
        self.env.stats.archive_read_bytes += nbytes

    # ------------------------------------------------------------------
    # Log segments
    # ------------------------------------------------------------------

    def put_segment(self, db_name: str, frame: LogFrame, source_log=None) -> ArchivedSegment:
        """Durably archive one decoded log frame.

        Frames must arrive in order with no gaps — the archiver's cursor
        only advances once the segment is durably stored, so a gap here
        means two archivers (or a cursor rewind) raced on one store. The
        payload lands in the database's archived log, which refuses one
        that is not whole records. ``source_log`` is the log the frame
        was shipped from: at the first frame, the archived log learns from
        it which transactions began below the archive, so it reads them
        as past retention, as the source does, not as never logged.
        """
        # Continuity check, ingest and append are one step: the index
        # never shows a gap or a segment twice, and never leads the log.
        with self.latch:
            segments = self._segments.setdefault(db_name, [])
            if segments and frame.start_lsn != segments[-1].end_lsn:
                raise ArchiveError(
                    f"segment for {db_name!r} starts at "
                    f"{format_lsn(frame.start_lsn)} but the archive ends at "
                    f"{format_lsn(segments[-1].end_lsn)}; refusing to leave a gap"
                )
            segment = ArchivedSegment(
                db_name, frame.start_lsn, frame.end_lsn, frame.ship_wall
            )
            path = blob = None
            if self.directory is not None:
                path = os.path.join(
                    self.directory,
                    f"{db_name}-{frame.start_lsn:016x}-{frame.end_lsn:016x}.seg",
                )
                blob = frame.encode()
            chaos = getattr(self.env, "chaos", None)
            if chaos is not None:
                try:
                    chaos.hit("archive.flush", target=db_name)
                except FaultInjectedError:
                    # A crash mid-flush leaves at most a torn partial file on
                    # the medium; neither the log nor the index sees the
                    # segment (the ingest and append below are the atomicity
                    # point), so the archive stays gap-free and the retried
                    # flush simply overwrites the torn artifact.
                    if path is not None:
                        self._charge_write(len(blob) // 2)
                        hostio.write_blob(path, blob[: max(1, len(blob) // 2)])
                    raise
            self._charge_write(segment.frame_bytes)
            log = self._logs.get(db_name)
            if log is None:
                # The copy lives in memory: the archive device is charged
                # above and on reads, so the log runs on a free-device env
                # sharing the real clock — its ingests and scans must not
                # bill phantom primary log-device traffic into the shared
                # stats.
                log = LogManager(SimEnv(clock=self.env.clock))
                below = 0 if source_log is None else source_log.last_txn_below(frame.start_lsn)
                log.open_at(frame.start_lsn, below)
            log.ingest(frame.start_lsn, frame.payload)
            self._logs[db_name] = log
            self._read_cursor.setdefault(db_name, 0)
            if path is not None:
                hostio.write_blob(path, blob)
            segments.append(segment)
            self.env.stats.archive_segments_written += 1
            return segment

    def segments(self, db_name: str) -> list[ArchivedSegment]:
        return list(self._segments.get(db_name, ()))

    def database_names(self) -> list[str]:
        """Every database with archived segments or backups, sorted."""
        return sorted(set(self._segments) | set(self._backups))

    def coverage(self, db_name: str) -> tuple[int, int] | None:
        """Archived log LSN range ``[start, end)``, or ``None`` if empty."""
        segments = self._segments.get(db_name)
        if not segments:
            return None
        return segments[0].start_lsn, segments[-1].end_lsn

    def frame(self, segment: ArchivedSegment, from_lsn: int | None = None) -> LogFrame:
        """The frame ``segment`` was archived from, rebuilt from the log
        (uncharged); from ``from_lsn`` on when that record boundary lies
        inside it."""
        start = segment.start_lsn if from_lsn is None else max(from_lsn, segment.start_lsn)
        payload = self._logs[segment.db_name].read_bytes(start, segment.end_lsn)
        return LogFrame(start, payload, segment.ship_wall)

    def frames_from(self, db_name: str, from_lsn: int):
        """Yield encoded frames covering ``[from_lsn, coverage end)``.

        ``from_lsn`` must be a record boundary; a segment straddling it is
        sliced (and re-framed) so the first yielded frame starts exactly
        there — the shape a standby's ``receive`` path expects. Each
        segment touched is charged at its full frame size.
        """
        coverage = self.coverage(db_name)
        if coverage is None:
            return
        start, end = coverage
        if from_lsn < start or from_lsn > end:
            raise ArchiveError(
                f"{db_name!r}: LSN {format_lsn(from_lsn)} outside the "
                f"archived range [{format_lsn(start)}, {format_lsn(end)})"
            )
        for segment in self._segments[db_name]:
            if segment.end_lsn <= from_lsn:
                continue
            self._charge_read(segment.frame_bytes)
            yield self.frame(segment, from_lsn).encode()

    def log(self, db_name: str) -> LogManager:
        """The archived log of ``db_name``; the archive device is charged
        for each segment the first time a reader reads it."""
        # Session threads reach this through past-retention reads: the
        # cursor test and advance are one step under the latch, or two
        # first readers both pay for segment 0.
        with self.latch:
            segments = self._segments.get(db_name)
            if not segments:
                raise ArchiveError(f"no archived log segments for {db_name!r}")
            for segment in segments[self._read_cursor[db_name]:]:
                self._charge_read(segment.frame_bytes)
                self._read_cursor[db_name] += 1
            return self._logs[db_name]

    # ------------------------------------------------------------------
    # Backups
    # ------------------------------------------------------------------

    def put_backup(self, backup) -> None:
        """Archive a full or incremental backup.

        Incrementals must chain onto an already-archived backup (their
        ``base_lsn`` names the predecessor's ``backup_lsn``) that has no
        successor yet: two incrementals on one base would fork the chain.
        """
        with self.latch:
            backups = self._backups.setdefault(backup.source_name, [])
            base_lsn = getattr(backup, "base_lsn", None)
            if base_lsn is not None and not any(
                b.backup_lsn == base_lsn for b in backups
            ):
                raise BackupError(
                    f"incremental backup of {backup.source_name!r} chains onto "
                    f"LSN {format_lsn(base_lsn)}, which is not in the archive"
                )
            if base_lsn is not None and any(
                getattr(b, "base_lsn", None) == base_lsn for b in backups
            ):
                raise BackupError(
                    f"incremental backup of {backup.source_name!r} chains onto "
                    f"LSN {format_lsn(base_lsn)}, which already has a successor"
                )
            if backups and backup.backup_lsn < backups[-1].backup_lsn:
                raise BackupError(
                    f"backup of {backup.source_name!r} at "
                    f"{format_lsn(backup.backup_lsn)} is older than the newest "
                    f"archived backup ({format_lsn(backups[-1].backup_lsn)})"
                )
            self._charge_write(backup.size_bytes)
            backups.append(backup)

    def backups(self, db_name: str) -> list:
        return list(self._backups.get(db_name, ()))

    def newest_chain(self, db_name: str, up_to_lsn: int | None = None) -> list:
        """The chain ending at the newest backup whose ``backup_lsn`` does
        not exceed ``up_to_lsn`` (any, without it), as ``[full, inc, inc,
        ...]``; ``[]`` if there is none.

        Follows ``base_lsn`` links back from that backup: each names the
        ``backup_lsn`` of the member it was taken against, which
        :meth:`put_backup` made sure is archived and older.
        """
        eligible = [
            b for b in self._backups.get(db_name, ())
            if up_to_lsn is None or b.backup_lsn <= up_to_lsn
        ]
        if not eligible:
            return []
        by_lsn = {b.backup_lsn: b for b in eligible}
        chain = [eligible[-1]]
        while getattr(chain[-1], "base_lsn", None) is not None:
            chain.append(by_lsn[chain[-1].base_lsn])
        return chain[::-1]

    def read_backup_pages(self, chain: list) -> dict[int, bytes]:
        """Merged page set of a chain, oldest layer first (reads charged)."""
        pages: dict[int, bytes] = {}
        for backup in chain:
            self._charge_read(backup.size_bytes)
            pages.update(backup.pages)
        return pages

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        seg_count = sum(len(s) for s in self._segments.values())
        bak_count = sum(len(b) for b in self._backups.values())
        return (
            f"ArchiveStore(databases={sorted(self._segments | self._backups)}, "
            f"segments={seg_count}, backups={bak_count})"
        )
