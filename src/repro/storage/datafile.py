"""Database data files and the file manager that prices their I/O.

A :class:`DataFile` is a dumb page store (read/write page bytes by id).
:class:`FileManager` layers policy on top: checksum stamping/verification
and simulated device charging. The buffer pool talks only to the file
manager, mirroring the paper's layering where "maintaining the
copy-on-write data and re-directing page reads ... are managed entirely in
the database file management subsystem".
"""

from __future__ import annotations

import os

from repro.errors import StorageError
from repro.sim import hostio
from repro.sim.device import SimDevice
from repro.sim.iostats import IoStats
from repro.storage.checksum import stamp_checksum, verify_and_clear_checksum


class DataFile:
    """Abstract page store."""

    page_size: int

    def read_page(self, page_id: int) -> bytearray:
        raise NotImplementedError

    def write_page(self, page_id: int, data: bytes) -> None:
        raise NotImplementedError

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def size_bytes(self) -> int:
        return self.page_count * self.page_size

    def flush(self) -> None:
        """Make buffered writes durable (no-op for memory files)."""

    def close(self) -> None:
        """Release what the store holds (its database is being retired):
        nothing is flushed, and the page count reads zero from here on.
        Idempotent."""


class MemoryDataFile(DataFile):
    """In-memory page store (the default test and benchmark backend).

    Unwritten pages read back as zeroes, like a freshly extended file.
    """

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._pages: dict[int, bytes] = {}
        self._page_count = 0

    def read_page(self, page_id: int) -> bytearray:
        if page_id < 0:
            raise StorageError(f"negative page id {page_id}")
        data = self._pages.get(page_id)
        if data is None:
            return bytearray(self.page_size)
        return bytearray(data)

    def write_page(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page {page_id}: write of {len(data)} bytes "
                f"(page size {self.page_size})"
            )
        self._pages[page_id] = bytes(data)
        if page_id >= self._page_count:
            self._page_count = page_id + 1

    @property
    def page_count(self) -> int:
        return self._page_count

    def close(self) -> None:
        self._pages = {}
        self._page_count = 0

    def copy_pages(self) -> dict[int, bytes]:
        """Snapshot of all written pages (used by backups)."""
        return dict(self._pages)


class OnDiskDataFile(DataFile):
    """Real-file page store, for examples that want durable artifacts."""

    def __init__(self, path: str, page_size: int) -> None:
        self.page_size = page_size
        self.path = path
        self._file = hostio.create_or_open(path)

    def read_page(self, page_id: int) -> bytearray:
        if page_id < 0:
            raise StorageError(f"negative page id {page_id}")
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) < self.page_size:
            data = data + bytes(self.page_size - len(data))
        return bytearray(data)

    def write_page(self, page_id: int, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page {page_id}: write of {len(data)} bytes "
                f"(page size {self.page_size})"
            )
        self._file.seek(page_id * self.page_size)
        self._file.write(data)

    @property
    def page_count(self) -> int:
        if self._file.closed:
            return 0
        self._file.seek(0, os.SEEK_END)
        return self._file.tell() // self.page_size

    def flush(self) -> None:
        hostio.fsync(self._file)

    def close(self) -> None:
        self._file.close()

    def copy_pages(self) -> dict[int, bytes]:
        """All pages currently in the file (used by backups)."""
        pages = {}
        for page_id in range(self.page_count):
            data = bytes(self.read_page(page_id))
            if any(data):
                pages[page_id] = data
        return pages


class FileManager:
    """Checksummed, device-priced access to one database's data file."""

    def __init__(
        self,
        datafile: DataFile,
        device: SimDevice,
        stats: IoStats,
    ) -> None:
        self.datafile = datafile
        self.device = device
        self.stats = stats

    @property
    def page_size(self) -> int:
        return self.datafile.page_size

    @property
    def page_count(self) -> int:
        return self.datafile.page_count

    def read_page(self, page_id: int) -> bytearray:
        """Random-read one page; verifies its checksum."""
        data = self.datafile.read_page(page_id)
        self.device.read_random(self.page_size)
        self.stats.page_reads += 1
        self.stats.page_read_bytes += self.page_size
        verify_and_clear_checksum(data, page_id)
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Random-write one page; stamps its checksum."""
        out = bytearray(data)
        stamp_checksum(out)
        self.datafile.write_page(page_id, bytes(out))
        self.device.write_random(self.page_size)
        self.stats.page_writes += 1
        self.stats.page_write_bytes += self.page_size

    def read_page_raw(self, page_id: int) -> bytearray:
        """Read page bytes without device charging or checksum handling.

        Used by crash simulation and by tests that inspect durable state;
        not a code path the engine's normal operation takes.
        """
        return self.datafile.read_page(page_id)

    def read_sequential(self, page_ids) -> list[bytearray]:
        """Stream-read many pages (backup scans), priced as sequential I/O."""
        pages = []
        total = 0
        for page_id in page_ids:
            data = self.datafile.read_page(page_id)
            verify_and_clear_checksum(data, page_id)
            pages.append(data)
            total += self.page_size
        if total:
            self.device.read_seq(total)
            self.stats.backup_read_bytes += total
        return pages

    def write_sequential(self, pages: dict[int, bytes]) -> None:
        """Stream-write many pages (restore), priced as sequential I/O."""
        total = 0
        for page_id, data in pages.items():
            out = bytearray(data)
            stamp_checksum(out)
            self.datafile.write_page(page_id, bytes(out))
            total += self.page_size
        if total:
            self.device.write_seq(total)
            self.stats.backup_write_bytes += total

    def flush(self) -> None:
        self.datafile.flush()
