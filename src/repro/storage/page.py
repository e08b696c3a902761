"""Slotted data pages.

Every page starts with a fixed header whose two LSN fields drive the paper's
mechanism:

* ``page_lsn`` — LSN of the last log record that modified the page. Log
  records carry ``prev_page_lsn`` (the page's LSN before the modification),
  which back-links all modifications of a page into a chain that
  ``PreparePageAsOf`` walks.
* ``last_image_lsn`` — LSN of the most recent full page image logged for
  this page (section 6.1's optional every-Nth-modification images). Image
  records form their own back-chain so undo can skip log regions.

The record area grows up from the header; the slot directory grows down
from the page end (two bytes per slot holding the record offset). Record
payloads are opaque to this layer: the B-tree keeps slots in key order, the
heap appends. Modifications are *physiological* — logged as logical
operations within an identified page (insert at slot, delete at slot) — so
redo/undo replay operations rather than bytes, and internal compaction
needs no logging.
"""

from __future__ import annotations

import enum
import functools
import struct

from repro.errors import PageFullError, ReadOnlyPageError, StorageError

#: Slot directory entry: u16 record offset (0 = vacant, offsets are always
#: >= HEADER_SIZE for live records).
_SLOT = struct.Struct("<H")
#: Record framing: u16 payload length prefix at the record offset.
_RECLEN = struct.Struct("<H")

#: The header, field by field: the one place its layout is written.
_HEADER_LAYOUT = (
    ("magic", "H"), ("page_type", "B"), ("flags", "B"), ("page_id", "I"),
    ("page_lsn", "Q"), ("last_image_lsn", "Q"), ("object_id", "I"),
    ("index_id", "H"), ("level", "B"), ("pad", "B"), ("prev_page", "I"),
    ("next_page", "I"), ("slot_count", "H"), ("free_lower", "H"),
    ("free_upper", "H"), ("mods_since_image", "H"), ("checksum", "I"),
    ("reserved", "4s"),
)
_HEADER = struct.Struct("<" + "".join(code for _name, code in _HEADER_LAYOUT))

HEADER_SIZE = _HEADER.size  # 56 bytes
PAGE_MAGIC = 0xD81A
NULL_PAGE = 0

#: ``name -> (Struct, offset)`` per header field: a read is one
#: ``unpack_from`` of that field and a write one ``pack_into`` that
#: touches no other (``docs/storage-format.md`` is asserted against it).
HEADER_FIELDS: dict[str, tuple[struct.Struct, int]] = {}
for _name, _code in _HEADER_LAYOUT:
    HEADER_FIELDS[_name] = (
        struct.Struct("<" + _code),
        sum(plan.size for plan, _at in HEADER_FIELDS.values()),
    )

_MAGIC, _MAGIC_AT = HEADER_FIELDS["magic"]
_TYPE, _TYPE_AT = HEADER_FIELDS["page_type"]
_COUNT, _COUNT_AT = HEADER_FIELDS["slot_count"]
_LOWER, _LOWER_AT = HEADER_FIELDS["free_lower"]
_UPPER, _UPPER_AT = HEADER_FIELDS["free_upper"]
#: ``slot_count``, ``free_lower`` and ``free_upper`` are adjacent: an
#: insert reads and writes all three with one plan.
_SPACE = struct.Struct("<HHH")
assert _LOWER_AT == _COUNT_AT + _COUNT.size and _UPPER_AT == _LOWER_AT + _LOWER.size


@functools.cache
def _directory(count: int) -> struct.Struct:
    """The whole slot directory of a ``count``-slot page as one plan (at
    most a page's worth of distinct counts exist)."""
    return struct.Struct(f"<{count}H")


def _header_field(name: str, *, settable: bool = False, doc: str | None = None) -> property:
    """A ``Page`` property over the one header field ``name``."""
    plan, offset = HEADER_FIELDS[name]
    unpack_from, pack_into = plan.unpack_from, plan.pack_into

    def read(self):
        return unpack_from(self.data, offset)[0]

    def write(self, value) -> None:
        pack_into(self.data, offset, value)

    return property(read, write if settable else None, doc=doc)


class PageType(enum.IntEnum):
    """Discriminates how a page's body is interpreted."""

    UNFORMATTED = 0
    BOOT = 1
    ALLOC_MAP = 2
    HEAP = 3
    BTREE = 4


class Page:
    """A mutable view over one page-sized ``bytearray``.

    The constructor wraps existing bytes without validation; use
    :meth:`format` to initialize a fresh page and :meth:`is_formatted` to
    probe whether bytes hold a real page.

    ``separators`` is a B-tree interior page's decoded separator index,
    owned by ``access/btree.py`` (``None`` until a descent builds it).
    Every mutator that changes a slot's payload or the slot count
    (``format``, ``deformat`` and ``restore`` included) resets it to
    ``None`` once the page bytes are final.
    """

    __slots__ = ("data", "separators")

    def __init__(self, data: bytearray) -> None:
        if not isinstance(data, bytearray):
            data = bytearray(data)
        self.data = data
        self.separators = None

    # ------------------------------------------------------------------
    # Header accessors
    # ------------------------------------------------------------------

    @property
    def page_size(self) -> int:
        return len(self.data)

    @property
    def page_type(self) -> PageType:
        return PageType(_TYPE.unpack_from(self.data, _TYPE_AT)[0])

    magic = _header_field("magic")
    flags = _header_field("flags", settable=True)
    page_id = _header_field("page_id")
    page_lsn = _header_field("page_lsn", settable=True)
    last_image_lsn = _header_field("last_image_lsn", settable=True)
    object_id = _header_field("object_id")
    index_id = _header_field("index_id")
    level = _header_field("level", settable=True, doc="B-tree level; 0 means leaf.")
    prev_page = _header_field("prev_page", settable=True)
    next_page = _header_field("next_page", settable=True)
    slot_count = _header_field("slot_count")
    free_lower = _header_field("free_lower")
    free_upper = _header_field("free_upper")
    mods_since_image = _header_field("mods_since_image", settable=True)
    checksum = _header_field("checksum", settable=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def format(
        self,
        page_id: int,
        page_type: PageType,
        object_id: int = 0,
        index_id: int = 0,
        level: int = 0,
        prev_page: int = NULL_PAGE,
        next_page: int = NULL_PAGE,
    ) -> None:
        """Initialize this page as empty with the given identity.

        Zeroes the whole body: a formatted page has no trace of its prior
        incarnation (the paper's preformat record exists precisely to save
        that prior content in the log).
        """
        size = len(self.data)
        self.data[:] = bytes(size)
        _HEADER.pack_into(
            self.data,
            0,
            PAGE_MAGIC,
            int(page_type),
            0,
            page_id,
            0,
            0,
            object_id,
            index_id,
            level,
            0,
            prev_page,
            next_page,
            0,
            HEADER_SIZE,
            size,
            0,
            0,
            b"\0" * 4,
        )
        self.separators = None

    def deformat(self) -> None:
        """Return the page to the unformatted (all-zero) state.

        This is the physical undo of a first-time format: before its first
        allocation the page held nothing.
        """
        self.data[:] = bytes(len(self.data))
        self.separators = None

    def is_formatted(self) -> bool:
        return _MAGIC.unpack_from(self.data, _MAGIC_AT)[0] == PAGE_MAGIC

    def clone_bytes(self) -> bytes:
        """An immutable copy of the current page content."""
        return bytes(self.data)

    def restore(self, image: bytes) -> None:
        """Overwrite the page with a full image (page-image / preformat undo)."""
        if len(image) != len(self.data):
            raise StorageError(
                f"image size {len(image)} != page size {len(self.data)}"
            )
        self.data[:] = image
        self.separators = None

    # ------------------------------------------------------------------
    # Slot directory
    # ------------------------------------------------------------------

    def _check_slot(self, slot: int, *, insert: bool = False) -> int:
        """The slot count, once ``slot`` is known to address a record (or,
        for an insert, the position one past the last)."""
        count = _COUNT.unpack_from(self.data, _COUNT_AT)[0]
        if not 0 <= slot < count + insert:
            raise StorageError(
                f"slot {slot} out of range (page {self.page_id}, "
                f"{count} slots)"
            )
        return count

    def _slot_offsets(self, count: int) -> tuple[int, ...]:
        """Record offsets in slot order: the directory in one unpack (it
        is stored downward from the page end, so reversed)."""
        data = self.data
        return _directory(count).unpack_from(data, len(data) - _SLOT.size * count)[::-1]

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    def contiguous_free(self) -> int:
        """Bytes available between the record area and the slot directory."""
        data = self.data
        return _UPPER.unpack_from(data, _UPPER_AT)[0] - _LOWER.unpack_from(data, _LOWER_AT)[0]

    def live_bytes(self) -> int:
        """Bytes occupied by live records (length prefixes included)."""
        data = self.data
        count = _COUNT.unpack_from(data, _COUNT_AT)[0]
        length_at = _RECLEN.unpack_from
        return _RECLEN.size * count + sum(
            [length_at(data, offset)[0] for offset in self._slot_offsets(count)]
        )

    def total_free(self) -> int:
        """Free bytes counting reclaimable garbage (what compaction yields)."""
        used_by_slots = _SLOT.size * self.slot_count
        return len(self.data) - HEADER_SIZE - used_by_slots - self.live_bytes()

    def space_needed(self, payload_len: int) -> int:
        """Bytes an insert of ``payload_len`` consumes (record + new slot)."""
        return _RECLEN.size + payload_len + _SLOT.size

    def max_payload(self) -> int:
        """Largest payload an empty page of this size can hold."""
        return len(self.data) - HEADER_SIZE - _RECLEN.size - _SLOT.size

    def has_room_for(self, payload_len: int) -> bool:
        # Contiguous space never exceeds total free space, so the record
        # walk is needed only once the gap is too small.
        needed = self.space_needed(payload_len)
        return needed <= self.contiguous_free() or needed <= self.total_free()

    # ------------------------------------------------------------------
    # Record operations (physiological units that log records replay)
    # ------------------------------------------------------------------

    def record(self, slot: int) -> bytes:
        """The payload stored at ``slot``."""
        self._check_slot(slot)
        data = self.data
        offset = _SLOT.unpack_from(data, len(data) - _SLOT.size * (slot + 1))[0]
        start = offset + _RECLEN.size
        return bytes(data[start : start + _RECLEN.unpack_from(data, offset)[0]])

    def records(self, start: int = 0, stop: int | None = None) -> list[bytes]:
        """Payloads of slots ``[start, stop)`` (default: all) in slot order."""
        data = self.data
        length_at = _RECLEN.unpack_from
        head = _RECLEN.size
        offsets = self._slot_offsets(_COUNT.unpack_from(data, _COUNT_AT)[0])
        return [
            bytes(data[offset + head : offset + head + length_at(data, offset)[0]])
            for offset in offsets[start:stop]
        ]

    def search(self, key, key_at) -> tuple[int, bool]:
        """Binary search of every slot for ``key``.

        The caller keeps the slots in key order; ``key_at(data, start,
        end)`` decodes a payload's key in place, so no record is copied
        out. Returns ``(slot, True)`` on a match, else ``(insertion slot,
        False)``.
        """
        data = self.data
        slot_at, length_at = _SLOT.unpack_from, _RECLEN.unpack_from
        last = len(data) - _SLOT.size
        lo, hi = 0, _COUNT.unpack_from(data, _COUNT_AT)[0]
        while lo < hi:
            mid = (lo + hi) // 2
            offset = slot_at(data, last - _SLOT.size * mid)[0]
            start = offset + _RECLEN.size
            mid_key = key_at(data, start, start + length_at(data, offset)[0])
            if mid_key < key:
                lo = mid + 1
            elif mid_key > key:
                hi = mid
            else:
                return mid, True
        return lo, False

    def _place(self, payload: bytes) -> int:
        """Frame ``payload`` at ``free_lower`` and advance it; returns the
        record's offset. The caller has made sure it fits."""
        data = self.data
        offset = _LOWER.unpack_from(data, _LOWER_AT)[0]
        start = offset + _RECLEN.size
        end = start + len(payload)
        _RECLEN.pack_into(data, offset, len(payload))
        data[start:end] = payload
        _LOWER.pack_into(data, _LOWER_AT, end)
        return offset

    def insert_record(self, slot: int, payload: bytes) -> None:
        """Insert ``payload`` at position ``slot``, shifting later slots up.

        Compacts the page first when fragmented; raises
        :class:`PageFullError` when the record cannot fit even then.

        The redo hot path, so :meth:`_check_slot`, :meth:`space_needed`,
        :meth:`contiguous_free` and :meth:`_place` are run inline, over
        the three space fields read in one unpack and written in one pack.
        """
        data = self.data
        count, lower, upper = _SPACE.unpack_from(data, _COUNT_AT)
        if not 0 <= slot <= count:
            self._check_slot(slot, insert=True)  # raises, naming the slot
        size = _SLOT.size
        needed = _RECLEN.size + len(payload) + size
        if needed > upper - lower:
            if needed > self.total_free():
                raise PageFullError(
                    f"page {self.page_id}: need {needed} bytes, "
                    f"have {self.total_free()}"
                )
            self.compact()
            lower = _LOWER.unpack_from(data, _LOWER_AT)[0]
        # Frame the payload at free_lower.
        start = lower + _RECLEN.size
        end = start + len(payload)
        _RECLEN.pack_into(data, lower, len(payload))
        data[start:end] = payload
        # Shift slot directory entries [slot, count) one position down
        # (toward lower addresses, since the directory grows downward).
        dir_lo = len(data) - size * count
        slot_pos = len(data) - size * (slot + 1)
        if slot < count:
            data[dir_lo - size : slot_pos] = data[dir_lo : slot_pos + size]
        _SLOT.pack_into(data, slot_pos, lower)
        _SPACE.pack_into(data, _COUNT_AT, count + 1, end, dir_lo - size)
        self.separators = None

    def insert_records(self, slot: int, payloads) -> None:
        """Insert ``payloads`` at consecutive slots from ``slot``, in order.

        The page ends with exactly the bytes :meth:`insert_record` of each
        payload at ``slot``, ``slot + 1``, … leaves, and raises what that
        loop raises, after the inserts it would have made. The loop
        compacts at the first payload the contiguous gap cannot hold, and
        from then on the gap is the whole free space, so it compacts at
        most once; each side of that point is one payload write and one
        directory shift here.
        """
        if not payloads:
            return
        data = self.data
        count, lower, upper = _SPACE.unpack_from(data, _COUNT_AT)
        if not 0 <= slot <= count:
            self._check_slot(slot, insert=True)  # raises, naming the slot
        # The first payload past the contiguous gap is where the loop
        # compacts; the first past the whole free space is where it raises.
        overhead = _RECLEN.size + _SLOT.size
        gap = upper - lower
        free = None
        fits = compact_at = len(payloads)
        needed = 0
        for i, payload in enumerate(payloads):
            needed += overhead + len(payload)
            if free is None and needed > gap:
                compact_at, free = i, self.total_free()
            if free is not None and needed > free:
                fits = i
                break
        if compact_at < fits:
            self._insert_run(slot, payloads[:compact_at])
            self.compact()
            self._insert_run(slot + compact_at, payloads[compact_at:fits])
        else:
            self._insert_run(slot, payloads[:fits])
        if fits < len(payloads):
            raise PageFullError(
                f"page {self.page_id}: need {overhead + len(payloads[fits])} "
                f"bytes, have {self.total_free()}"
            )

    def _insert_run(self, slot: int, payloads) -> None:
        """Frame ``payloads`` at ``free_lower`` in one write and open their
        slots from ``slot`` in one directory shift; the caller has made
        sure they fit the contiguous gap."""
        if not payloads:
            return
        data = self.data
        count, lower, _upper = _SPACE.unpack_from(data, _COUNT_AT)
        offsets = []
        at = lower
        for payload in payloads:
            offsets.append(at)
            at += _RECLEN.size + len(payload)
        data[lower:at] = b"".join(
            [_RECLEN.pack(len(payload)) + payload for payload in payloads]
        )
        n = len(offsets)
        shift = _SLOT.size * n
        dir_lo = len(data) - _SLOT.size * count
        slot_end = len(data) - _SLOT.size * slot
        data[dir_lo - shift : slot_end - shift] = data[dir_lo:slot_end]
        offsets.reverse()
        _directory(n).pack_into(data, slot_end - shift, *offsets)
        _SPACE.pack_into(data, _COUNT_AT, count + n, at, dir_lo - shift)
        self.separators = None

    def delete_records(self, slot: int, count: int) -> None:
        """Remove the ``count`` records at consecutive slots from ``slot``.

        The page ends with exactly the bytes :meth:`delete_record` of each
        slot, the highest first, leaves — later slots shift down by
        ``count`` and the vacated directory entries read zero — in one
        directory shift; a range past the last slot raises what that
        loop's first delete raises, before any change (so does a negative
        ``slot``, which no log record holds).
        """
        if count <= 0:
            return
        data = self.data
        total = _COUNT.unpack_from(data, _COUNT_AT)[0]
        if slot + count > total:
            self._check_slot(slot + count - 1)  # raises, naming the slot
        if slot < 0:
            self._check_slot(slot)  # raises
        shift = _SLOT.size * count
        dir_lo = len(data) - _SLOT.size * total
        slot_end = len(data) - _SLOT.size * slot
        data[dir_lo + shift : slot_end] = data[dir_lo : slot_end - shift]
        data[dir_lo : dir_lo + shift] = bytes(shift)
        _COUNT.pack_into(data, _COUNT_AT, total - count)
        _UPPER.pack_into(data, _UPPER_AT, dir_lo + shift)
        self.separators = None

    def delete_record(self, slot: int) -> None:
        """Remove the record at ``slot``.

        Later slots shift down by one; the record bytes become reclaimable
        garbage.
        """
        count = self._check_slot(slot)
        data = self.data
        size = _SLOT.size
        dir_lo = len(data) - size * count
        slot_pos = len(data) - size * (slot + 1)
        if slot < count - 1:
            data[dir_lo + size : slot_pos + size] = data[dir_lo:slot_pos]
        _SLOT.pack_into(data, dir_lo, 0)
        _COUNT.pack_into(data, _COUNT_AT, count - 1)
        _UPPER.pack_into(data, _UPPER_AT, dir_lo + size)
        self.separators = None

    def update_record(self, slot: int, payload: bytes) -> None:
        """Replace the record at ``slot``."""
        self._check_slot(slot)
        data = self.data
        slot_pos = len(data) - _SLOT.size * (slot + 1)
        offset = _SLOT.unpack_from(data, slot_pos)[0]
        old_len = _RECLEN.unpack_from(data, offset)[0]
        if len(payload) <= old_len:
            _RECLEN.pack_into(data, offset, len(payload))
            start = offset + _RECLEN.size
            data[start : start + len(payload)] = payload
            self.separators = None
            return
        # Grow: relocate to fresh space (compacting first if necessary).
        extra = _RECLEN.size + len(payload)
        if extra > self.contiguous_free():
            if len(payload) - old_len > self.total_free():
                raise PageFullError(
                    f"page {self.page_id}: update needs {len(payload) - old_len} "
                    f"more bytes, have {self.total_free()}"
                )
            # Temporarily drop the old record so compaction reclaims it.
            _SLOT.pack_into(data, slot_pos, 0)
            self.compact(skip_vacant=True)
        _SLOT.pack_into(data, slot_pos, self._place(payload))
        self.separators = None

    def splice_record(self, slot: int, offset: int, span: bytes, length: int) -> None:
        """Write ``span`` at byte ``offset`` of the record at ``slot`` so
        that the record ends ``length`` bytes long: its bytes before
        ``offset`` and its last ``length - offset - len(span)`` bytes stay.

        In place when the length does not change; otherwise
        :meth:`update_record` of the spliced payload. Either way the page
        holds the bytes :meth:`update_record` of the whole new payload
        leaves.
        """
        data = self.data
        if not 0 <= slot < _COUNT.unpack_from(data, _COUNT_AT)[0]:
            self._check_slot(slot)  # raises, naming the slot
        at = _SLOT.unpack_from(data, len(data) - _SLOT.size * (slot + 1))[0]
        have = _RECLEN.unpack_from(data, at)[0]
        keep = length - offset - len(span)
        if keep < 0 or offset + keep > have:
            raise StorageError(
                f"page {self.page_id}: {len(span)}-byte splice at {offset} cannot "
                f"make the {have}-byte record at slot {slot} {length} bytes long"
            )
        start = at + _RECLEN.size
        if have == length:
            data[start + offset : start + offset + len(span)] = span
            self.separators = None
            return
        tail = start + have
        spliced = bytes(data[start : start + offset]) + span + bytes(data[tail - keep : tail])
        self.update_record(slot, spliced)

    def compact(self, skip_vacant: bool = False) -> None:
        """Rewrite live records densely from the header boundary.

        Physiological logging makes compaction invisible to the log: the
        logical content (slot → payload) is unchanged.
        """
        data = self.data
        count = _COUNT.unpack_from(data, _COUNT_AT)[0]
        live: list[tuple[int, bytes]] = []
        for slot, offset in enumerate(self._slot_offsets(count)):
            if offset == 0:
                if skip_vacant:
                    continue
                raise StorageError(f"page {self.page_id}: vacant slot {slot}")
            end = offset + _RECLEN.size + _RECLEN.unpack_from(data, offset)[0]
            live.append((slot, bytes(data[offset:end])))
        write_at = HEADER_SIZE
        for slot, framed in live:
            data[write_at : write_at + len(framed)] = framed
            _SLOT.pack_into(data, len(data) - _SLOT.size * (slot + 1), write_at)
            write_at += len(framed)
        _LOWER.pack_into(data, _LOWER_AT, write_at)

    # ------------------------------------------------------------------
    # Body bit access (allocation bitmaps)
    # ------------------------------------------------------------------

    def get_body_bit(self, bit_index: int) -> bool:
        """Read bit ``bit_index`` of the page body (after the header)."""
        byte = HEADER_SIZE + bit_index // 8
        if byte >= len(self.data):
            raise StorageError(f"bit {bit_index} beyond page body")
        return bool(self.data[byte] & (1 << (bit_index % 8)))

    def set_body_bit(self, bit_index: int, value: bool) -> None:
        """Write bit ``bit_index`` of the page body."""
        byte = HEADER_SIZE + bit_index // 8
        if byte >= len(self.data):
            raise StorageError(f"bit {bit_index} beyond page body")
        mask = 1 << (bit_index % 8)
        if value:
            self.data[byte] |= mask
        else:
            self.data[byte] &= ~mask & 0xFF

    def __repr__(self) -> str:
        if not self.is_formatted():
            return f"Page(unformatted, {len(self.data)} bytes)"
        return (
            f"Page(id={self.page_id}, type={self.page_type.name}, "
            f"lsn={self.page_lsn}, slots={self.slot_count}, "
            f"obj={self.object_id}, level={self.level})"
        )


class ReadOnlyPage(Page):
    """A page over an immutable ``bytes`` image that many readers share
    (an AS OF snapshot's frame over the version store's copy of a page).

    Every reader of :class:`Page` works unchanged. Every mutator — the
    settable header fields included — raises :class:`ReadOnlyPageError`
    before touching anything; a write that bypasses them fails on the
    ``bytes`` itself. ``separators`` stays writable: it caches a decode of
    the bytes, private to this ``Page`` object.
    """

    __slots__ = ()

    def __init__(self, data: bytes) -> None:
        if type(data) is not bytes:
            raise TypeError(f"a read-only page wraps bytes, not {type(data).__name__}")
        self.data = data
        self.separators = None


def _refuse(name: str):
    """A stand-in for mutator ``name`` that raises instead of writing."""

    def refuse(self, *_args, **_kwargs):
        raise ReadOnlyPageError(
            f"page {self.page_id} is a shared read-only image: {name} would write it"
        )

    refuse.__name__ = name
    return refuse


for _name in (
    "format", "deformat", "restore", "_place", "insert_record", "insert_records",
    "_insert_run", "delete_record", "delete_records", "update_record", "splice_record",
    "compact", "set_body_bit",
):
    setattr(ReadOnlyPage, _name, _refuse(_name))
for _name, _attr in list(vars(Page).items()):
    if isinstance(_attr, property) and _attr.fset is not None:
        _refused = property(_attr.fget, _refuse(f"setting {_name}"), doc=_attr.__doc__)
        setattr(ReadOnlyPage, _name, _refused)


def alloc_bitmap_geometry(page_size: int) -> int:
    """Number of pages one allocation-map page can track.

    The map body is split in two parallel bitmaps: *allocated* and
    *ever-allocated* (the paper's section 4.2 metadata distinguishing first
    allocation from re-allocation). Each tracked page therefore costs two
    bits, taken from separate halves of the body.
    """
    body_bits = (page_size - HEADER_SIZE) * 8
    return body_bits // 2


def ever_bit_offset(page_size: int) -> int:
    """Bit index where the ever-allocated bitmap begins."""
    return alloc_bitmap_geometry(page_size)
