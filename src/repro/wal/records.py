"""Log record types, their serialization, and their redo/undo semantics.

Every record that modifies a page carries ``prev_page_lsn`` — the page's
LSN before this modification — forming the per-page back-chain that
``PreparePageAsOf`` (paper section 4) walks. Records expose two operations:

* ``redo(page)`` — replay the modification (ARIES redo pass, restore
  roll-forward). Physiological: a logical operation on an identified page.
* ``physical_undo(page, fetch)`` — exactly invert the modification on the
  page, used by page-oriented undo while walking the chain in reverse.
  ``fetch`` is a callable ``lsn -> LogRecord`` used to *derive* undo
  information that the paper's section 4.2 extensions would have embedded:
  a structure-modification delete without a row image derives it from its
  paired insert; a CLR without undo info derives it from the record it
  compensates. Derivation costs extra log reads — the trade-off the paper
  calls out when it "chooses simplicity over optimizing the size".

Transaction rollback does **not** use ``physical_undo`` for ordinary row
operations; it performs *logical* undo (re-locating the row by key) because
other transactions may have shifted slots or structure modifications may
have moved rows to other pages. Rollback lives in
:mod:`repro.txn.manager`; the per-record payloads here (``key_bytes``,
``row``) are what it consumes.
"""

from __future__ import annotations

import enum
import operator
import struct
import zlib
from types import MappingProxyType
from typing import NamedTuple

from repro.errors import (
    LogRecordDecodeError,
    MissingUndoInfoError,
    WalError,
)
from repro.storage.checksum import crc32_zeroing
from repro.storage.page import (
    NULL_PAGE,
    Page,
    PageType,
    alloc_bitmap_geometry,
    ever_bit_offset,
)
from repro.wal.lsn import NULL_LSN, format_lsn

#: Magic bytes opening the log stream (LSN space starts after them).
LOG_HEADER_MAGIC = b"REPROLOG"

#: Record flag: part of a B-tree structure modification (system transaction).
FLAG_SMO = 0x01
#: Record flag: heap row (rollback tombstones instead of key lookup).
FLAG_HEAP = 0x02

#: total length, type, the six :data:`_HEADER_FIELDS`, crc32 (of the
#: whole record, with this field read as zero).
_HEADER = struct.Struct("<IBBQQIQII")
HEADER_SIZE = _HEADER.size  # 42 bytes
_CRC_OFFSET = HEADER_SIZE - 4
#: Header fields a record object carries, in wire order (``lsn`` is not on
#: the wire: it is the record's offset). All default to 0, the two LSNs'
#: ``NULL_LSN``.
_HEADER_FIELDS = ("flags", "txn_id", "prev_txn_lsn", "page_id", "prev_page_lsn", "object_id")
_header_values = operator.attrgetter(*_HEADER_FIELDS)


class RecordHeader(NamedTuple):
    """A decoded record header, without the body.

    The per-page back-chain (``prev_page_lsn``) and the per-transaction
    chain (``prev_txn_lsn``) both live in the fixed-size header, so chain
    *discovery* never needs record bodies: header scans
    (:meth:`repro.wal.log_manager.LogManager.scan_headers`) and the
    diagnostic tools follow them without building a record.
    """

    lsn: int
    total: int
    record_type: int
    flags: int
    txn_id: int
    prev_txn_lsn: int
    page_id: int
    prev_page_lsn: int
    object_id: int
    crc: int

    def __repr__(self) -> str:
        return (
            f"RecordHeader(lsn={format_lsn(self.lsn)}, "
            f"type={self.record_type}, page={self.page_id}, "
            f"prev_page={format_lsn(self.prev_page_lsn)})"
        )


def _parse_header(data, offset: int) -> tuple:
    """The header fields of the record at ``offset``, in wire order.

    The statement of the header rule: the header readers and the stream
    walk go through here, and :func:`decode_span` — which runs the same
    conditions inline — sends every record that fails them here to be
    rejected, so all of them refuse a record that does not lie whole
    within ``data`` the same way.
    """
    if offset + HEADER_SIZE > len(data):
        raise LogRecordDecodeError(f"truncated header at offset {offset}")
    fields = _HEADER.unpack_from(data, offset)
    total = fields[0]
    if total < HEADER_SIZE or offset + total > len(data):
        raise LogRecordDecodeError(
            f"truncated record at offset {offset} (claims {total} bytes)"
        )
    return fields


def unpack_header(data, offset: int, lsn: int = NULL_LSN) -> RecordHeader:
    """Decode only the fixed-size header of the record at ``offset``."""
    return RecordHeader(lsn, *_parse_header(data, offset))


def walk_headers(data, start: int = 0, *, base_lsn: int = NULL_LSN):
    """Yield the header of every record from ``data[start]`` to the end
    of ``data``, in order; each ``lsn`` is ``base_lsn`` plus its offset.

    Touches headers only (each record opens with its total length), so
    framing a shipping batch, validating an ingested frame or tiling an
    archived segment never decodes a body. Raises
    :class:`LogRecordDecodeError` where ``data`` stops being whole
    records — a consumer that breaks out earlier never sees it.
    """
    offset = start
    while offset < len(data):
        header = unpack_header(data, offset, base_lsn + offset)
        yield header
        offset += header.total


class RecordType(enum.IntEnum):
    """Wire discriminator for log records."""

    BEGIN = 1
    COMMIT = 2
    ABORT = 3
    CHECKPOINT_BEGIN = 4
    CHECKPOINT_END = 5
    FORMAT_PAGE = 6
    PREFORMAT_PAGE = 7
    PAGE_IMAGE = 8
    INSERT_ROW = 9
    DELETE_ROW = 10
    UPDATE_ROW = 11
    SET_LINKS = 12
    ALLOC_PAGE = 13
    DEALLOC_PAGE = 14
    DEFORMAT_PAGE = 15
    CLR = 16


# ---------------------------------------------------------------------------
# Body layout: one field spec per record type, compiled at import
# ---------------------------------------------------------------------------
#
# A record class declares its body once, as ``FIELDS``: ``(name, wire kind,
# default)`` per field, in wire order. ``__slots__``, the constructor, the
# encoder and the decoder all derive from it (``docs/wal-format.md``
# tabulates every type and shows the code generated for one).

#: Fixed-width wire kinds are their little-endian ``struct`` codes.
U8, U16, U32, U64, F64, BOOL = "B", "H", "I", "Q", "d", "?"
_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<QQ")


class _VarKind(NamedTuple):
    """A variable-length wire kind: a fixed-width prefix, then a payload.

    The prefix is packed by the same ``struct`` call as the fixed-width
    fields before it. The rest are source templates for the generated
    codec: ``{f}`` is the field's name (a local), ``n`` the decoded prefix,
    ``view``/``pos`` the buffer and read position, ``parts`` the encoder's
    output. A decoder never binds a slice of ``view`` to a name outside a
    ``with``: a traceback would keep it — and so the log's ``bytearray``,
    which cannot grow while exported — alive while the exception is held.
    """

    prefix: str  # struct code
    read: tuple  # decode: statements leaving the value in {f}, pos past it
    count: str = "len({f})"  # encode: the prefix value
    emit: str = "parts.append({f})"  # encode: statement appending the payload
    bind: str = "self.{f}"  # encode: what the local {f} is bound to
    store: str = "{f}"  # constructor: what the slot is set to


#: u32 length, then that many bytes.
BLOB = _VarKind(prefix="I", read=("{f} = bytes(view[pos : pos + n])", "pos += n"))
#: u8 presence flag; when 1, a :data:`BLOB` follows. ``None`` encodes as 0.
OPT_BLOB = _VarKind(
    prefix="B",
    count="{f} is not None",
    emit="if {f} is not None: parts += (_U32.pack(len({f})), {f})",
    read=(
        "{f} = None",
        "if n:",
        "    (n,) = _U32.unpack_from(view, pos)",
        "    {f} = bytes(view[pos + 4 : pos + 4 + n])",
        "    pos += 4 + n",
    ),
)
#: u32 count, then that many (u64, u64) pairs.
PAIRS = _VarKind(
    prefix="I",
    emit="parts += [_PAIR.pack(*pair) for pair in {f}]",
    read=("{f} = tuple(_PAIR.iter_unpack(view[pos : pos + 16 * n]))", "pos += 16 * n"),
    store="tuple({f})",
)
#: A :data:`BLOB` holding a whole serialized record (own header, own CRC,
#: verified again on decode). Never optional.
RECORD = BLOB._replace(
    read=("with view[pos : pos + n] as inner: {f} = decode_record(inner, 0)[0]", "pos += n"),
    bind="self.{f}.serialize()",
    store="_nested({f})",
)


def _nested(value):
    if not isinstance(value, LogRecord):
        raise WalError("CLR requires a compensation operation")
    return value


_REGISTRY: dict[int, type] = {}
#: Wire type -> record class, for readers that work from headers and need
#: a type's class attributes (``IS_PAGE_MOD``, ``FIELDS``) without a record.
RECORD_CLASSES = MappingProxyType(_REGISTRY)


def decode_span(
    data, offset: int, stop: int, out: list, *, base_lsn: int = NULL_LSN, types=None, raw=None
) -> int:
    """Check every record that starts in ``data[offset:stop]`` and append
    to ``out`` what the reader asked for; returns the offset of the first
    record that starts at or after ``stop``.

    *Checked*, for every record passed over: the header and its bounds
    (:func:`_parse_header` — the record lies whole within ``data``, which
    may reach past ``stop``), the CRC over the whole record, a known type.
    *Built* depends on the reader:

    * by default a record object for each record whose wire type is in
      ``types`` (``None``: all of them) — the body of any other record is
      checksummed and stepped over, never decoded;
    * with ``raw`` (a set of wire types, possibly empty) no record object
      at all: ``(RecordHeader, bytes)`` for every record, where ``bytes``
      is the whole serialized record when its type is in ``raw`` and
      ``None`` otherwise — for readers that need header fields of
      everything and may want a few bodies later.

    Each ``lsn`` is ``base_lsn`` plus the record's offset. Raises
    :class:`LogRecordDecodeError` at the first record that fails a check —
    the signal recovery uses to find the end of a torn log tail — with
    everything before it already in ``out``.
    """
    size = len(data)
    unpack = _HEADER.unpack_from
    with memoryview(data) as view:
        while offset < stop:
            # The header rule, run inline (this loop is the log read path's
            # hot spot): _parse_header states it, and is what raises —
            # naming the damage — for a record that fails it.
            if offset + HEADER_SIZE > size:
                _parse_header(view, offset)
            fields = unpack(view, offset)
            rtype = fields[1]
            end = offset + fields[0]
            if fields[0] < HEADER_SIZE or end > size:
                _parse_header(view, offset)
            if crc32_zeroing(view, offset, end, offset + _CRC_OFFSET) != fields[-1]:
                raise LogRecordDecodeError(f"CRC mismatch at offset {offset}")
            try:
                cls = _REGISTRY[rtype]
            except KeyError:
                raise LogRecordDecodeError(f"unknown record type {rtype} at {offset}") from None
            if raw is not None:
                header = RecordHeader(base_lsn + offset, *fields)
                out.append((header, bytes(view[offset:end]) if rtype in raw else None))
            elif types is None or rtype in types:
                try:
                    values, body_end = cls._decode_body(view, offset + HEADER_SIZE)
                except struct.error:
                    body_end = None  # ran off the end of ``data``
                if body_end != end:
                    raise LogRecordDecodeError(
                        f"{cls.__name__} at offset {offset}: "
                        f"body does not fill its {fields[0]} bytes"
                    )
                record = cls(*values, *fields[2:-1])
                record.lsn = base_lsn + offset
                out.append(record)
            offset = end
    return offset


def decode_record(data, offset: int, lsn: int = NULL_LSN) -> tuple[LogRecord, int]:
    """Decode one record at ``offset``; returns (record, end offset).

    The one-record use of :func:`decode_span`: same checks, same errors.
    """
    out: list = []
    end = decode_span(data, offset, offset + 1, out, base_lsn=lsn - offset)
    return out[0], end


def _compile_codec(fields) -> dict:
    """``__init__``, ``_encode_body`` and ``_decode_body`` for a body of
    ``fields``, as straight-line code over ``struct`` plans: each run of
    fixed-width fields, with the prefix of the variable-length field that
    ends it, is one precompiled ``Struct`` call."""
    scope = {"_U32": _U32, "_PAIR": _PAIR, "_nested": _nested, "decode_record": decode_record}
    init = [f"self.lsn = {NULL_LSN}", *(f"self.{name} = {name}" for name in _HEADER_FIELDS)]
    pack, unpack = ["parts = []"], []
    fmt, run = "<", []

    def end_run(kind=None, name="end"):
        """One Struct call for the pending run, which variable-length
        field ``name`` (or the end of the body) closes."""
        nonlocal fmt, run
        plan = f"_to_{name}"
        scope[plan] = struct.Struct(fmt + (kind.prefix if kind else ""))
        sources, targets = [f"self.{field}" for field in run], list(run)
        if kind:
            pack.append(f"{name} = {kind.bind.format(f=name)}")
            sources.append(kind.count.format(f=name))
            targets.append("n")
        pack.append(f"parts.append({plan}.pack({', '.join(sources)}))")
        unpack.append(f"{', '.join(targets)}, = {plan}.unpack_from(view, pos)")
        unpack.append(f"pos += {scope[plan].size}")
        if kind:
            pack.append(kind.emit.format(f=name))
            unpack.extend(line.format(f=name) for line in kind.read)
        fmt, run = "<", []

    for name, kind, default in fields:
        scope[f"_default_{name}"] = default
        if isinstance(kind, _VarKind):
            init.append(f"self.{name} = {kind.store.format(f=name)}")
            end_run(kind, name)
        else:
            init.append(f"self.{name} = {name}")
            fmt += kind
            run.append(name)
    if run:
        end_run()
    names = [name for name, _kind, _default in fields]
    params = [f"{name}=_default_{name}" for name in names] + [f"{h}=0" for h in _HEADER_FIELDS]
    pack.append("return b''.join(parts)")
    unpack.append(f"return ({''.join(f'{name}, ' for name in names)}), pos")
    source = (
        f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(init)
        + "\ndef _encode_body(self):\n    " + "\n    ".join(pack)
        + "\n@staticmethod\ndef _decode_body(view, pos):\n    " + "\n    ".join(unpack)
    )
    # Under this file's name, so a profile attributes the generated code to the codec.
    exec(compile(source, __file__, "exec"), scope)
    return {name: scope[name] for name in ("__init__", "_encode_body", "_decode_body")}


class _RecordType(type):
    """Derives a record class's ``__slots__``, constructor and codec from
    its ``FIELDS`` (slots cannot be added once a class exists, hence a
    metaclass) and registers concrete types for :func:`decode_record`."""

    def __new__(mcls, name, bases, namespace):
        fields = namespace.get("FIELDS", ())
        namespace.setdefault("__slots__", tuple(field[0] for field in fields))
        namespace.update(_compile_codec(fields))
        cls = super().__new__(mcls, name, bases, namespace)
        if "TYPE" in namespace:
            _REGISTRY[int(cls.TYPE)] = cls
        return cls


class LogRecord(metaclass=_RecordType):
    """Base class: common header fields plus redo/undo protocol."""

    TYPE: RecordType
    #: The body, in wire order: ``(name, wire kind, default)`` per field.
    FIELDS: tuple = ()
    #: Participates in a page's modification chain (has a meaningful
    #: page_id / prev_page_lsn). Note page 0 (boot) is a real page, so this
    #: cannot be inferred from ``page_id != 0``.
    IS_PAGE_MOD = False
    #: Transaction rollback generates a CLR for this record.
    UNDOABLE_IN_ROLLBACK = False

    __slots__ = ("lsn", *_HEADER_FIELDS)

    @property
    def is_smo(self) -> bool:
        return bool(self.flags & FLAG_SMO)

    @property
    def is_heap(self) -> bool:
        return bool(self.flags & FLAG_HEAP)

    def serialize(self) -> bytes:
        body = self._encode_body()
        header = _HEADER.pack(HEADER_SIZE + len(body), self.TYPE, *_header_values(self), 0)
        crc = zlib.crc32(body, zlib.crc32(header))
        return header[:_CRC_OFFSET] + crc.to_bytes(4, "little") + body

    # -- redo / physical undo -------------------------------------------

    def redo(self, page: Page) -> None:
        """Replay this modification on ``page``."""
        raise WalError(f"{type(self).__name__} is not redoable on a page")

    def physical_undo(self, page: Page, fetch=None) -> None:
        """Exactly invert this modification on ``page``.

        Called by page-oriented undo while walking a page's chain in
        strict reverse order, so slot references are valid by construction.
        """
        raise WalError(f"{type(self).__name__} is not physically undoable")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(lsn={format_lsn(self.lsn)}, "
            f"txn={self.txn_id}, page={self.page_id}, "
            f"prev_page={format_lsn(self.prev_page_lsn)})"
        )


# ---------------------------------------------------------------------------
# Transaction control records
# ---------------------------------------------------------------------------


class BeginRecord(LogRecord):
    """Transaction start."""

    TYPE = RecordType.BEGIN


class CommitRecord(LogRecord):
    """Transaction commit; carries the wall-clock time used by SplitLSN
    search (section 5.1)."""

    TYPE = RecordType.COMMIT
    FIELDS = (("wall_clock", F64, 0.0),)


class AbortRecord(LogRecord):
    """Transaction fully rolled back (end of its log chain)."""

    TYPE = RecordType.ABORT


class CheckpointBeginRecord(LogRecord):
    """Checkpoint start: wall clock, back-pointer to the previous
    checkpoint (navigated by SplitLSN search), and the active-transaction
    table (consumed by as-of snapshot recovery's analysis pass)."""

    TYPE = RecordType.CHECKPOINT_BEGIN
    FIELDS = (
        ("wall_clock", F64, 0.0),
        ("prev_checkpoint_lsn", U64, NULL_LSN),
        # (txn_id, last_lsn) of every transaction active at the checkpoint.
        ("active_txns", PAIRS, ()),
    )


class CheckpointEndRecord(LogRecord):
    """Checkpoint completion marker."""

    TYPE = RecordType.CHECKPOINT_END
    FIELDS = (("begin_lsn", U64, NULL_LSN),)


class FormatPageRecord(LogRecord):
    """Page formatted for an object (first write of an allocation).

    Starts a page's modification chain. On re-allocation the chain is
    preceded by a :class:`PreformatPageRecord` (``prev_page_lsn`` points at
    it) so page-oriented undo can cross into the prior incarnation — the
    fix for the broken chain of paper Figure 1.
    """

    TYPE = RecordType.FORMAT_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("page_type", U8, int(PageType.UNFORMATTED)),
        ("index_id", U16, 0),
        ("level", U8, 0),
        ("prev_page", U32, NULL_PAGE),
        ("next_page", U32, NULL_PAGE),
    )

    def redo(self, page: Page) -> None:
        page.format(
            self.page_id,
            PageType(self.page_type),
            object_id=self.object_id,
            index_id=self.index_id,
            level=self.level,
            prev_page=self.prev_page,
            next_page=self.next_page,
        )

    def physical_undo(self, page: Page, fetch=None) -> None:
        # Before a first-time format the page held nothing; before a
        # re-allocation format the preceding preformat record (next on the
        # chain walk) restores the prior image over these zeroes.
        page.deformat()


class PreformatPageRecord(LogRecord):
    """The paper's section 4.2 extension: logged when a page is
    *re-allocated*, storing the prior incarnation's full content.

    ``prev_page_lsn`` points at the prior content's pageLSN, splicing the
    old chain onto the new one (paper Figure 2). Redo is a no-op (the page
    is about to be formatted); physical undo restores the stored image,
    which is how as-of queries read dropped-and-overwritten tables.
    """

    TYPE = RecordType.PREFORMAT_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False
    FIELDS = (("image", BLOB, b""),)

    def redo(self, page: Page) -> None:
        """No page change: the record only preserves history."""

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.restore(self.image)


class PageImageRecord(LogRecord):
    """Optional full page image after every Nth modification (section 6.1).

    Image records form their own back-chain via ``prev_image_lsn`` (the
    page header stores ``last_image_lsn``), letting undo jump to the first
    image after the target LSN instead of undoing every modification.
    """

    TYPE = RecordType.PAGE_IMAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False
    FIELDS = (
        ("prev_image_lsn", U64, NULL_LSN),
        ("image", BLOB, b""),
    )

    def redo(self, page: Page) -> None:
        page.restore(self.image)

    def physical_undo(self, page: Page, fetch=None) -> None:
        """No-op: the image did not change the page, it recorded it."""


class DeformatPageRecord(LogRecord):
    """Compensation body for undoing a format (page returns to zeroes).

    Appears only nested inside CLRs; stores the original format parameters
    so the CLR itself stays physically undoable without derivation.
    """

    TYPE = RecordType.DEFORMAT_PAGE
    IS_PAGE_MOD = True
    FIELDS = (
        ("page_type", U8, 0),
        ("index_id", U16, 0),
        ("level", U8, 0),
    )

    def redo(self, page: Page) -> None:
        page.deformat()

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.format(
            self.page_id,
            PageType(self.page_type),
            object_id=self.object_id,
            index_id=self.index_id,
            level=self.level,
        )


# ---------------------------------------------------------------------------
# Row modification records
# ---------------------------------------------------------------------------


class InsertRowRecord(LogRecord):
    """Row (or index entry) inserted at a slot.

    Self-contained for undo: the inserted payload is the redo image, and
    its inverse is a plain slot delete.
    """

    TYPE = RecordType.INSERT_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("slot", U16, 0),
        ("row", BLOB, b""),
        ("key_bytes", BLOB, b""),
    )

    def redo(self, page: Page) -> None:
        page.insert_record(self.slot, self.row)

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.delete_record(self.slot)


class DeleteRowRecord(LogRecord):
    """Row (or index entry) deleted from a slot.

    Ordinary deletes always carry the row image (classic ARIES needs it
    for rollback). Structure-modification deletes (the delete half of a
    B-tree row move) are redo-only in the baseline; with the section 4.2
    extension (``smo_delete_undo_info``) they carry the row too, otherwise
    undo derives it from the paired insert via ``pair_lsn`` at the cost of
    an extra log read.
    """

    TYPE = RecordType.DELETE_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("slot", U16, 0),
        ("row", OPT_BLOB, None),
        ("key_bytes", BLOB, b""),
        ("pair_lsn", U64, NULL_LSN),
    )

    def redo(self, page: Page) -> None:
        page.delete_record(self.slot)

    def resolve_row(self, fetch=None) -> bytes:
        """The deleted payload: embedded, or derived from the paired insert."""
        if self.row is not None:
            return self.row
        if self.pair_lsn != NULL_LSN and fetch is not None:
            paired = fetch(self.pair_lsn)
            if isinstance(paired, InsertRowRecord):
                return paired.row
        raise MissingUndoInfoError(
            f"delete at lsn {format_lsn(self.lsn)} carries no row image "
            f"and it cannot be derived (pair_lsn={format_lsn(self.pair_lsn)})"
        )

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.insert_record(self.slot, self.resolve_row(fetch))


class UpdateRowRecord(LogRecord):
    """Row payload replaced in place (same slot, new bytes)."""

    TYPE = RecordType.UPDATE_ROW
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("slot", U16, 0),
        ("old", OPT_BLOB, None),
        ("new", BLOB, b""),
        ("key_bytes", BLOB, b""),
    )

    def redo(self, page: Page) -> None:
        page.update_record(self.slot, self.new)

    def physical_undo(self, page: Page, fetch=None) -> None:
        if self.old is None:
            raise MissingUndoInfoError(
                f"update at lsn {format_lsn(self.lsn)} carries no before-image"
            )
        page.update_record(self.slot, self.old)


class SetLinksRecord(LogRecord):
    """Sibling-chain pointer update (B-tree leaf chain during splits)."""

    TYPE = RecordType.SET_LINKS
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("old_prev", U32, NULL_PAGE),
        ("old_next", U32, NULL_PAGE),
        ("new_prev", U32, NULL_PAGE),
        ("new_next", U32, NULL_PAGE),
    )

    def redo(self, page: Page) -> None:
        page.prev_page = self.new_prev
        page.next_page = self.new_next

    def physical_undo(self, page: Page, fetch=None) -> None:
        page.prev_page = self.old_prev
        page.next_page = self.old_next


# ---------------------------------------------------------------------------
# Allocation map records
# ---------------------------------------------------------------------------


def _alloc_bit_indexes(page: Page, map_page_id: int, target_page: int) -> tuple[int, int]:
    """Bit positions (allocated, ever-allocated) of ``target_page`` within
    its allocation-map page body."""
    local = target_page - (map_page_id + 1)
    if local < 0 or local >= alloc_bitmap_geometry(page.page_size):
        raise WalError(
            f"page {target_page} not covered by allocation map {map_page_id}"
        )
    return local, ever_bit_offset(page.page_size) + local


class AllocPageRecord(LogRecord):
    """Allocation-map bit set: ``target_page`` becomes allocated.

    ``was_ever_allocated`` is the section 4.2 metadata distinguishing the
    first allocation (no preformat needed — the page never held data) from
    a re-allocation (preformat must preserve the prior content).
    """

    TYPE = RecordType.ALLOC_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("target_page", U32, 0),
        ("was_ever_allocated", BOOL, False),
    )

    def redo(self, page: Page) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, True)
        page.set_body_bit(ever_bit, True)

    def physical_undo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, False)
        page.set_body_bit(ever_bit, self.was_ever_allocated)


class DeallocPageRecord(LogRecord):
    """Allocation-map bit clear: ``target_page`` becomes free.

    The ever-allocated bit normally stays set — that is what tells a
    future re-allocation to log a preformat record first. ``clear_ever``
    is used only by compensations that undo a *first-time* allocation,
    restoring the page to never-allocated.
    """

    TYPE = RecordType.DEALLOC_PAGE
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = True
    FIELDS = (
        ("target_page", U32, 0),
        ("clear_ever", BOOL, False),
    )

    def redo(self, page: Page) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, False)
        if self.clear_ever:
            page.set_body_bit(ever_bit, False)

    def physical_undo(self, page: Page, fetch=None) -> None:
        alloc_bit, ever_bit = _alloc_bit_indexes(page, self.page_id, self.target_page)
        page.set_body_bit(alloc_bit, True)
        page.set_body_bit(ever_bit, True)


# ---------------------------------------------------------------------------
# Compensation log records
# ---------------------------------------------------------------------------


class ClrRecord(LogRecord):
    """Compensation log record written while undoing ``compensated_lsn``.

    ``comp`` is the nested operation the compensation performs (its redo).
    Classic ARIES CLRs are redo-only; the paper's section 4.2 extension
    makes them undoable so page-oriented undo can walk *through* a
    rollback. Here that works in two ways:

    * with ``clr_undo_info`` the nested ``comp`` record embeds the data
      needed to invert it (e.g. the row a compensating delete removed);
    * without it, :meth:`physical_undo` derives that data by fetching the
      compensated record — the derivation the paper deems possible but
      rejects for simplicity; it costs an extra (potentially stalling)
      log read, which the ablation benchmark measures.
    """

    TYPE = RecordType.CLR
    IS_PAGE_MOD = True
    UNDOABLE_IN_ROLLBACK = False  # CLRs are never compensated themselves
    FIELDS = (
        ("compensated_lsn", U64, NULL_LSN),
        ("undo_next_lsn", U64, NULL_LSN),
        ("comp", RECORD, None),
    )

    def redo(self, page: Page) -> None:
        self.comp.redo(page)

    def _fetch_compensated(self, fetch):
        if fetch is None:
            raise MissingUndoInfoError(
                f"CLR at {format_lsn(self.lsn)} has no undo info and no log "
                f"access to derive it"
            )
        return fetch(self.compensated_lsn)

    def physical_undo(self, page: Page, fetch=None) -> None:
        comp = self.comp
        if isinstance(comp, DeleteRowRecord):
            # Invert a compensating delete (which undid an insert): put the
            # row back. Derive it from the compensated insert if absent.
            if comp.row is not None:
                row = comp.row
            else:
                original = self._fetch_compensated(fetch)
                if not isinstance(original, InsertRowRecord):
                    raise MissingUndoInfoError(
                        f"CLR at {format_lsn(self.lsn)}: compensated record "
                        f"is {type(original).__name__}, cannot derive row"
                    )
                row = original.row
            page.insert_record(comp.slot, row)
        elif isinstance(comp, InsertRowRecord):
            # Invert a compensating insert (which undid a delete).
            page.delete_record(comp.slot)
        elif isinstance(comp, UpdateRowRecord):
            # Invert a compensating update: restore the value the page held
            # before the compensation, i.e. the original update's after-image.
            if comp.old is not None:
                value = comp.old
            else:
                original = self._fetch_compensated(fetch)
                if isinstance(original, UpdateRowRecord):
                    value = original.new
                elif isinstance(original, InsertRowRecord):
                    # Heap-insert rollback tombstones the slot with an
                    # update; the pre-tombstone value is the inserted row.
                    value = original.row
                else:
                    raise MissingUndoInfoError(
                        f"CLR at {format_lsn(self.lsn)}: compensated record "
                        f"is {type(original).__name__}, cannot derive value"
                    )
            page.update_record(comp.slot, value)
        elif isinstance(comp, PageImageRecord):
            # Compensation restored a pre-format image (root-split
            # rollback). Its inverse is the formatted-empty state the
            # compensated format record produces.
            original = self._fetch_compensated(fetch)
            original.redo(page)
        else:
            # Allocation, links, format compensations are self-inverting.
            comp.physical_undo(page, fetch)

    def __repr__(self) -> str:
        return (
            f"ClrRecord(lsn={format_lsn(self.lsn)}, txn={self.txn_id}, "
            f"page={self.page_id}, compensates={format_lsn(self.compensated_lsn)}, "
            f"comp={type(self.comp).__name__})"
        )
