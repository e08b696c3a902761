"""The archive store: cold tier for log segments and backup chains.

An :class:`ArchiveStore` owns everything the engine needs to materialize
a database state *older than the primary's retained log*: record-aligned
archived log segments (the shipper's frame format, CRC and all) and page
backups chained full → incremental → incremental. It is priced through
the sim device model like every other medium in the system — archive
media is typically the cheapest, slowest tier, so the store carries its
own :class:`~repro.sim.device.SimDevice` (defaulting to the log device's
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
from repro.replication.stream import LogFrame
from repro.sim import hostio
from repro.sim.device import DeviceProfile, SimDevice
from repro.wal.log_manager import LogManager
from repro.wal.lsn import format_lsn


@dataclass(frozen=True)
class ArchivedSegment:
    """One archived log segment: the encoded frame plus its extent."""

    db_name: str
    start_lsn: int
    end_lsn: int
    ship_wall: float
    blob: bytes


class _ArchivedLogView:
    """Lazily materialized :class:`LogManager` over archived segments.

    Extended incrementally: each refresh ingests only segments archived
    since the last one, so repeated split searches and restores do not
    re-read the whole archive. The view doubles as the ``db``-shaped
    object SplitLSN search expects (``env``, ``log``).
    """

    def __init__(self, store: "ArchiveStore", db_name: str) -> None:
        self._store = store
        self.db_name = db_name
        self.env = store.env
        self.log: LogManager | None = None
        self._next_segment = 0

    def refresh(self) -> "_ArchivedLogView":
        # Session threads reach this through past-retention reads: the
        # ``log is None`` test, the segment cursor and the ingests are
        # one step under the store latch, or two first readers both
        # ingest segment 0.
        with self._store.latch:
            segments = self._store.segments(self.db_name)
            if not segments:
                raise ArchiveError(
                    f"no archived log segments for {self.db_name!r}"
                )
            if self.log is None:
                # The scratch copy lives in memory: the only real media
                # cost of materializing the view is the archive read
                # (charged per segment below), so the LogManager runs on
                # a free-device env sharing the real clock — ingest/scan
                # must not bill phantom primary log-device traffic into
                # the shared stats.
                self.log = LogManager(SimEnv(clock=self.env.clock))
                self.log.open_at(segments[0].start_lsn)
            for segment in segments[self._next_segment:]:
                self._store._charge_read(len(segment.blob))
                frame = LogFrame.decode(segment.blob)
                self.log.ingest(frame.start_lsn, frame.payload)
            self._next_segment = len(segments)
            return self


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
        #: Guards the three maps below and every log view's cursor: the
        #: archiver fills them from whoever pumps replication while
        #: session threads read past retention (``docs/concurrency.md``).
        self.latch = Latch("archive_store")
        self._segments: dict[str, list[ArchivedSegment]] = {}
        self._backups: dict[str, list] = {}
        self._log_views: dict[str, _ArchivedLogView] = {}

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

    def put_segment(self, db_name: str, blob: bytes) -> ArchivedSegment:
        """Durably archive one encoded log frame.

        Frames must arrive in order with no gaps — the archiver's cursor
        only advances once the segment is durably stored, so a gap here
        means two archivers (or a cursor rewind) raced on one store.
        """
        frame = LogFrame.decode(blob)
        # Continuity check and append are one step: the index never shows
        # a gap or a segment twice.
        with self.latch:
            segments = self._segments.setdefault(db_name, [])
            if segments and frame.start_lsn != segments[-1].end_lsn:
                raise ArchiveError(
                    f"segment for {db_name!r} starts at "
                    f"{format_lsn(frame.start_lsn)} but the archive ends at "
                    f"{format_lsn(segments[-1].end_lsn)}; refusing to leave a gap"
                )
            segment = ArchivedSegment(
                db_name=db_name,
                start_lsn=frame.start_lsn,
                end_lsn=frame.end_lsn,
                ship_wall=frame.ship_wall,
                blob=bytes(blob),
            )
            path = None
            if self.directory is not None:
                path = os.path.join(
                    self.directory,
                    f"{db_name}-{frame.start_lsn:016x}-{frame.end_lsn:016x}.seg",
                )
            chaos = getattr(self.env, "chaos", None)
            if chaos is not None:
                try:
                    chaos.hit("archive.flush", target=db_name)
                except FaultInjectedError:
                    # A crash mid-flush leaves at most a torn partial file on
                    # the medium; the in-memory index never sees the segment
                    # (the append below is the atomicity point), so the
                    # archive stays gap-free and the retried flush simply
                    # overwrites the torn artifact with the full frame.
                    if path is not None:
                        self._charge_write(len(blob) // 2)
                        hostio.write_blob(path, blob[: max(1, len(blob) // 2)])
                    raise
            self._charge_write(len(blob))
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

    def frames_from(self, db_name: str, from_lsn: int):
        """Yield encoded frames covering ``[from_lsn, coverage end)``.

        ``from_lsn`` must be a record boundary; a segment straddling it is
        sliced (and re-framed) so the first yielded frame starts exactly
        there — the shape a standby's ``receive`` path expects.
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
            self._charge_read(len(segment.blob))
            if segment.start_lsn >= from_lsn:
                yield segment.blob
                continue
            frame = LogFrame.decode(segment.blob)
            offset = from_lsn - frame.start_lsn
            yield LogFrame(
                from_lsn, frame.payload[offset:], frame.ship_wall
            ).encode()

    def log_view(self, db_name: str) -> _ArchivedLogView:
        """The materialized archived log for ``db_name`` (cached and
        extended incrementally as new segments land)."""
        with self.latch:
            view = self._log_views.get(db_name)
            if view is None:
                view = _ArchivedLogView(self, db_name)
                self._log_views[db_name] = view
            return view.refresh()

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

    def chains(self, db_name: str, up_to_lsn: int | None = None) -> list[list]:
        """Every restorable backup chain, as ``[full, inc, inc, ...]``.

        A chain starts at a full backup and extends through incrementals
        whose ``base_lsn`` links match; with ``up_to_lsn`` the chain is
        cut at the last member whose ``backup_lsn`` does not exceed it
        (the restore target's SplitLSN).
        """
        backups = self._backups.get(db_name, ())
        chains: list[list] = []
        for backup in backups:
            if getattr(backup, "base_lsn", None) is None:
                if up_to_lsn is not None and backup.backup_lsn > up_to_lsn:
                    continue
                chains.append([backup])
        for chain in chains:
            extended = True
            while extended:
                extended = False
                for backup in backups:
                    if getattr(backup, "base_lsn", None) != chain[-1].backup_lsn:
                        continue
                    if up_to_lsn is not None and backup.backup_lsn > up_to_lsn:
                        continue
                    chain.append(backup)
                    extended = True
                    break
        return chains

    def newest_chain(self, db_name: str) -> list:
        """The chain ending at the newest backup (``[]`` if none)."""
        chains = self.chains(db_name)
        if not chains:
            return []
        return max(chains, key=lambda chain: chain[-1].backup_lsn)

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
