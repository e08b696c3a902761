"""Database data files and the file manager that prices their I/O.

A :class:`MemoryDataFile` is a dumb page store (read/write page bytes by
id). :class:`FileManager` layers policy on top: checksum
stamping/verification and simulated device charging. The buffer pool
talks only to the file manager, mirroring the paper's layering where
"maintaining the copy-on-write data and re-directing page reads ... are
managed entirely in the database file management subsystem".
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.sim.device import SimDevice
from repro.sim.iostats import IoStats
from repro.storage.checksum import stamp_checksum, verify_and_clear_checksum


class MemoryDataFile:
    """In-memory page store, the engine's one data-file backend.

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
        """Release the pages (the database is being retired): the page
        count reads zero from here on. Idempotent."""
        self._pages = {}
        self._page_count = 0


class FileManager:
    """Checksummed, device-priced access to one database's data file."""

    def __init__(
        self,
        datafile: MemoryDataFile,
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
        """Stream-write many pages (a restore's lay-down), priced as
        sequential I/O and booked as restore writes."""
        total = 0
        for page_id, data in pages.items():
            out = bytearray(data)
            stamp_checksum(out)
            self.datafile.write_page(page_id, bytes(out))
            total += self.page_size
        if total:
            self.device.write_seq(total)
            self.stats.restore_write_bytes += total
