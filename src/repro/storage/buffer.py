"""Buffer pool: cached page frames with pinning, WAL discipline, LRU.

Pin counts protect frames from eviction while a caller works on them;
``pool.latch`` serializes the frame table and the pin counters across
sessions (pin/unpin run under it, so eviction never races a pin landing
on the victim). The WAL rule lives in eviction and flushing: a dirty
page never reaches the data file before the log is durable up to its
``pageLSN``.

Latch order: the pool latch is held across ``_write_back``'s
``log.flush`` (buffer → log), never the other way around — the log
manager calls nothing back into the buffer pool.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import BufferPoolError
from repro.latch import Latch
from repro.sim.iostats import IoStats
from repro.storage.datafile import FileManager
from repro.storage.page import Page
from repro.wal.log_manager import LogManager


class Frame:
    """One buffered page."""

    __slots__ = ("page", "page_id", "dirty", "pin_count")

    def __init__(self, page: Page, page_id: int) -> None:
        self.page = page
        self.page_id = page_id
        self.dirty = False
        self.pin_count = 0

    def mark_dirty(self) -> None:
        self.dirty = True

    def unpin(self) -> None:
        """Drop one pin; the caller holds the latch of the source that
        pinned the frame."""
        if self.pin_count <= 0:
            raise BufferPoolError(
                f"frame {self.page_id} unpinned more times than pinned"
            )
        self.pin_count -= 1

    def __repr__(self) -> str:
        return (
            f"Frame(page={self.page_id}, dirty={self.dirty}, "
            f"pins={self.pin_count})"
        )


class FrameGuard:
    """One pin on a frame, released when the ``with`` block ends.

    The page source (a :class:`BufferPool`, or an AS OF snapshot) pins the
    frame under its own latch, in the acquisition that found it, before
    it hands out the guard; :meth:`unpin` takes that latch once more.
    """

    __slots__ = ("_source", "frame")

    def __init__(self, source, frame: Frame) -> None:
        self._source = source
        self.frame = frame

    @property
    def page(self) -> Page:
        return self.frame.page

    @property
    def page_id(self) -> int:
        return self.frame.page_id

    def mark_dirty(self) -> None:
        self.frame.mark_dirty()

    def __enter__(self) -> "FrameGuard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unpin()

    def unpin(self) -> None:
        with self._source.latch:
            self.frame.unpin()


class BufferPool:
    """LRU page cache over one database's file manager."""

    def __init__(
        self,
        file_manager: FileManager,
        capacity: int,
        stats: IoStats,
        log: LogManager | None = None,
    ) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self.latch = Latch("buffer_pool")
        self.file_manager = file_manager
        self.capacity = capacity
        self.stats = stats
        self.log = log
        self._frames: OrderedDict[int, Frame] = OrderedDict()

    def __len__(self) -> int:
        with self.latch:
            return len(self._frames)

    # ------------------------------------------------------------------
    # Fetch
    # ------------------------------------------------------------------

    def fetch(self, page_id: int, *, create: bool = False) -> FrameGuard:
        """Pin the page, reading it from the file on a miss.

        With ``create=True`` a miss materializes a zeroed frame without a
        disk read — the first-allocation path (a never-allocated page has
        no content worth reading; the paper's ever-allocated bit exists to
        tell these cases apart).
        """
        with self.latch:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                self.stats.buffer_hits += 1
                frame.pin_count += 1
                return FrameGuard(self, frame)
            self.stats.buffer_misses += 1
            self._make_room()
            if create:
                data = bytearray(self.file_manager.page_size)
            else:
                data = self.file_manager.read_page(page_id)
            frame = Frame(Page(data), page_id)
            frame.pin_count = 1
            self._frames[page_id] = frame
            return FrameGuard(self, frame)

    def peek(self, page_id: int) -> Frame | None:
        """The cached frame for ``page_id``, or None; no I/O, no pin."""
        with self.latch:
            return self._frames.get(page_id)

    # ------------------------------------------------------------------
    # Eviction and flushing
    # ------------------------------------------------------------------

    def _make_room(self) -> None:
        with self.latch:
            while len(self._frames) >= self.capacity:
                victim_id = None
                for page_id, frame in self._frames.items():
                    if frame.pin_count == 0:
                        victim_id = page_id
                        break
                if victim_id is None:
                    raise BufferPoolError(
                        f"all {len(self._frames)} frames pinned; cannot evict"
                    )
                frame = self._frames.pop(victim_id)
                if frame.dirty:
                    self._write_back(frame)
                self.stats.buffer_evictions += 1

    def _write_back(self, frame: Frame) -> None:
        with self.latch:
            if self.log is not None:
                self.log.flush(frame.page.page_lsn)
            self.file_manager.write_page(frame.page_id, bytes(frame.page.data))
            frame.dirty = False

    def flush_all(self) -> int:
        """Write every dirty page back (checkpoint); returns pages written."""
        with self.latch:
            if self.log is not None:
                self.log.flush()
            written = 0
            for frame in self._frames.values():
                if frame.dirty:
                    self._write_back(frame)
                    written += 1
            return written

    def dirty_page_ids(self) -> list[int]:
        with self.latch:
            return [pid for pid, frame in self._frames.items() if frame.dirty]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate power loss: all buffered state disappears."""
        with self.latch:
            self._frames.clear()

    def __repr__(self) -> str:
        with self.latch:
            dirty = sum(1 for f in self._frames.values() if f.dirty)
            return (
                f"BufferPool({len(self._frames)}/{self.capacity} frames, "
                f"{dirty} dirty)"
            )
