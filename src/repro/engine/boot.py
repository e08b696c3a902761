"""The boot page (page 0): durable engine metadata.

Holds the last checkpoint LSN (where recovery starts) and the retention
period (section 4.3's ``UNDO_INTERVAL``). The boot record is an
ordinary slotted-page record updated through logged page modifications, so
even engine settings are as-of recoverable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro.errors import StorageError
from repro.storage.page import Page
from repro.wal.lsn import NULL_LSN

_BOOT = struct.Struct("<Qdd")

#: Page id of the boot page.
BOOT_PAGE_ID = 0
#: Slot of the boot record within the boot page.
BOOT_SLOT = 0


@dataclass(frozen=True)
class BootRecord:
    """Decoded boot-page record."""

    last_checkpoint_lsn: int = NULL_LSN
    undo_interval_s: float = 24 * 3600.0
    created_wall: float = 0.0

    def pack(self) -> bytes:
        return _BOOT.pack(
            self.last_checkpoint_lsn,
            self.undo_interval_s,
            self.created_wall,
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "BootRecord":
        if len(payload) < _BOOT.size:
            raise StorageError("boot record too short")
        last, interval, created = _BOOT.unpack_from(payload, 0)
        return cls(last, interval, created)

    def with_changes(self, **changes) -> "BootRecord":
        return replace(self, **changes)


def read_boot_record(page: Page) -> BootRecord:
    """Parse the boot record from a (formatted) boot page."""
    if not page.is_formatted() or page.slot_count <= BOOT_SLOT:
        raise StorageError("boot page is not initialized")
    return BootRecord.unpack(page.record(BOOT_SLOT))
