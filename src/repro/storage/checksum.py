"""Page checksums (torn-write and bit-rot detection).

The checksum is computed over the whole page with the header's checksum
field zeroed, stored into that field on write-out, verified and re-zeroed
on read-in — so in-memory pages always carry a zero checksum field and
full page images logged from memory compare bytewise.
"""

from __future__ import annotations

import zlib

from repro.errors import PageCorruptionError
from repro.storage.page import HEADER_FIELDS

#: Byte offset of the u32 checksum field inside the page header.
CHECKSUM_OFFSET = HEADER_FIELDS["checksum"][1]
_FIELD = slice(CHECKSUM_OFFSET, CHECKSUM_OFFSET + 4)


def crc32_zeroing(view: memoryview, start: int, stop: int, field: int) -> int:
    """CRC-32 of ``view[start:stop]`` with the u32 at offset ``field``
    read as zero — the checksum of anything that stores its own CRC
    inside the checksummed range (pages, log records, shipped frames).

    Takes a ``memoryview`` so the three pieces are hashed in place: no
    copy of the buffer is built with the field blanked out.
    """
    crc = zlib.crc32(view[start:field])
    crc = zlib.crc32(b"\0\0\0\0", crc)
    return zlib.crc32(view[field + 4 : stop], crc)


def compute_checksum(data: bytes | bytearray) -> int:
    """CRC-32 of ``data`` with the checksum field treated as zero."""
    return crc32_zeroing(memoryview(data), 0, len(data), CHECKSUM_OFFSET)


def stamp_checksum(data: bytearray) -> None:
    """Store the page checksum into the header field (before a disk write)."""
    crc = compute_checksum(data)
    data[_FIELD] = crc.to_bytes(4, "little")


def verify_and_clear_checksum(data: bytearray, page_id: int) -> None:
    """Validate the stored checksum and zero the field (after a disk read).

    All-zero pages (never written) are accepted: they represent pages that
    exist in the file's address space but were never formatted.

    Raises :class:`~repro.errors.PageCorruptionError` on mismatch.
    """
    stored = int.from_bytes(data[_FIELD], "little")
    if stored == 0 and not any(data):
        return
    actual = compute_checksum(data)
    data[_FIELD] = b"\0\0\0\0"
    if actual != stored:
        raise PageCorruptionError(
            f"page {page_id}: checksum mismatch "
            f"(stored {stored:#010x}, computed {actual:#010x})"
        )
