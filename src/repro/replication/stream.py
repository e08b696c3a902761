"""The log-shipping wire format: framed, checksummed batches of log bytes.

A frame carries a contiguous, record-aligned byte range of the primary's
log, stamped with the primary's wall clock at ship time (the anchor a
delayed-apply replica holds batches against). The CRC covers header and
payload, so a corrupt or torn frame is rejected before any byte lands on
the standby's log.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.errors import ReplicationError
from repro.storage.checksum import crc32_zeroing

#: Magic bytes opening every shipped frame.
FRAME_MAGIC = b"REPROSHP"

#: magic, start_lsn, ship_wall, payload length, crc32.
_FRAME_HEADER = struct.Struct("<8sQdII")
FRAME_HEADER_SIZE = _FRAME_HEADER.size


@dataclass(frozen=True)
class LogFrame:
    """One shipped batch: log bytes ``[start_lsn, end_lsn)``."""

    start_lsn: int
    payload: bytes
    ship_wall: float

    @property
    def end_lsn(self) -> int:
        return self.start_lsn + len(self.payload)

    def encode(self) -> bytes:
        header = _FRAME_HEADER.pack(
            FRAME_MAGIC, self.start_lsn, self.ship_wall, len(self.payload), 0
        )
        crc = zlib.crc32(header) & 0xFFFFFFFF
        crc = zlib.crc32(self.payload, crc) & 0xFFFFFFFF
        return header[:-4] + crc.to_bytes(4, "little") + self.payload

    @classmethod
    def decode(cls, blob: bytes) -> "LogFrame":
        if len(blob) < FRAME_HEADER_SIZE:
            raise ReplicationError(
                f"frame truncated: {len(blob)} bytes < header size "
                f"{FRAME_HEADER_SIZE}"
            )
        magic, start_lsn, ship_wall, length, crc = _FRAME_HEADER.unpack_from(blob, 0)
        if magic != FRAME_MAGIC:
            raise ReplicationError(f"bad frame magic {magic!r}")
        if len(blob) != FRAME_HEADER_SIZE + length:
            raise ReplicationError(
                f"frame length mismatch: header claims {length} payload "
                f"bytes, got {len(blob) - FRAME_HEADER_SIZE}"
            )
        if crc32_zeroing(memoryview(blob), 0, len(blob), FRAME_HEADER_SIZE - 4) != crc:
            raise ReplicationError(
                f"frame CRC mismatch for LSNs starting at {start_lsn:#x}"
            )
        return cls(start_lsn, bytes(blob[FRAME_HEADER_SIZE:]), ship_wall)
