"""Row serialization: schema-driven encoding of tuples to page payloads.

Layout: a null bitmap (one bit per column, set = NULL), followed by the
non-null column values in schema order. Fixed-width types are stored
inline; variable-length types carry a u16 length prefix.

The same codec also encodes bare key tuples (for B-tree interior entries
and lock keys) via :class:`KeyCodec`, which treats the key columns as a
mini-schema with no bitmap and no nullable columns.

Each schema shape is compiled once into straight-line source over
precompiled ``struct`` plans (``docs/storage-format.md``): a run of
adjacent NOT NULL fixed-width columns, with the length prefix of the
variable-length column that ends it, is one ``struct`` call, and the NULL
bitmap test and every bounds rule sit inside the same function. Decoders
take ``(data, pos=0, end=None)`` so a B-tree probe reads a key straight
off the page buffer at the record's span.
"""

from __future__ import annotations

import functools
import struct

from repro.catalog.schema import ColumnType, TableSchema
from repro.errors import StorageError

_FIXED = {ColumnType.INT: "q", ColumnType.FLOAT: "d", ColumnType.BOOL: "?"}


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _plan(scope: dict, fmt: str) -> str:
    """The name, in the generated code's ``scope``, of a new ``Struct``."""
    name = f"_plan{len(scope)}"
    scope[name] = struct.Struct("<" + fmt)
    return name


def _decoder(columns, wanted, bitmap_len: int, scope: dict) -> tuple[str, list[str]]:
    """Signature and body of a decoder: the values of the ``wanted`` column
    positions, in that order, from the payload spanning ``data[pos:end]``.
    Columns past the last wanted one are not read; unwanted ones before it
    are stepped over without being built."""
    body = ["if end is None:", "    end = len(data)"]
    if bitmap_len:
        not_null = sum(1 << i for i, (_ctype, nullable) in enumerate(columns) if not nullable)
        body += [
            "bits = data[pos]" if bitmap_len == 1
            else f"bits = int.from_bytes(data[pos:pos + {bitmap_len}], 'little')",
            f"pos += {bitmap_len}",
            f"if bits & {not_null}:",
            "    raise StorageError(f'{what}: NULL bit set on a NOT NULL column')",
        ]
    fmt, targets = "", []

    def end_run() -> None:
        """One ``unpack_from`` for the pending run of fixed-width fields."""
        nonlocal fmt, targets
        if fmt:
            plan = _plan(scope, fmt)
            if targets:
                body.append(f"{', '.join(targets)}, = {plan}.unpack_from(data, pos)")
            body.append(f"pos += {scope[plan].size}")
        fmt, targets = "", []

    for index, (ctype, nullable) in enumerate(columns[: max(wanted) + 1]):
        target = f"v{index}" if index in wanted else None
        code = _FIXED.get(ctype)
        if nullable:
            end_run()
        present = len(body)
        if code:
            fmt += code if target else f"{struct.calcsize(code)}x"
            targets += [target] if target else []
        else:
            fmt += "H"
            targets.append("n")
            end_run()
            if target:
                read = "data[pos:pos + n].decode()" if ctype is ColumnType.STR else "bytes(data[pos:pos + n])"
                body.append(f"{target} = {read}")
            body.append("pos += n")
        if nullable:
            end_run()
            mask = 1 << index
            body[present:] = (
                [f"if bits & {mask}:", f"    {target} = None", "else:", *_indent(body[present:])]
                if target else [f"if not bits & {mask}:", *_indent(body[present:])]
            )
    end_run()
    body += [
        "if pos > end:",
        "    raise IndexError  # a slice ran off the span: same handler as a short read",
        f"return ({''.join(f'v{index}, ' for index in wanted)})",
    ]
    return "data, pos=0, end=None", [
        "try:",
        *_indent(body),
        "except (struct.error, IndexError):",
        "    raise StorageError(f'{what}: payload shorter than its columns need') from None",
        "except UnicodeDecodeError as exc:",
        "    raise StorageError(f'{what}: {exc}') from None",
    ]


def _encoder(columns, bitmap_len: int, checks: list[str], scope: dict) -> tuple[str, list[str]]:
    """Signature and body of an encoder ``(values)``: the bitmap (when the
    layout has one) and the non-null values in one pass, after ``checks``."""
    names = [f"v{index}" for index in range(len(columns))]
    body = [*checks, f"{', '.join(names)}, = values", f"out = bytearray({bitmap_len})"]
    fmt, sources = "", []

    def end_run() -> None:
        nonlocal fmt, sources
        if fmt:
            body.append(f"out += {_plan(scope, fmt)}.pack({', '.join(sources)})")
        fmt, sources = "", []

    for index, (ctype, nullable) in enumerate(columns):
        value = names[index]
        code = _FIXED.get(ctype)
        if nullable:
            end_run()
        present = len(body)
        if code:
            fmt += code
            sources.append(value)
        else:
            if ctype is ColumnType.STR:
                body.append(f"{value} = {value}.encode()")
            fmt += "H"
            sources.append(f"len({value})")
            end_run()
            body.append(f"out += {value}")
        if nullable:
            end_run()
            body[present:] = [
                f"if {value} is None:",
                f"    out[{index // 8}] |= {1 << index % 8}",
                "else:",
                *_indent(body[present:]),
            ]
    end_run()
    body.append("return bytes(out)")
    return "values", body


def _compile(label: str, params: str, functions: dict[str, tuple[str, list[str]]], scope: dict):
    """``bind(<params>)`` -> the generated ``functions`` (name -> signature
    and body), closed over what they name in error messages. Compiled under
    the code filename ``rowcodec.py:<label>``, so a profile attributes the
    code to the codec and keys each plan's functions apart."""
    source = "\n".join([
        f"def bind({params}):",
        *(
            line
            for name, (signature, body) in functions.items()
            for line in _indent([f"def {name}({signature}):", *_indent(body)])
        ),
        f"    return {', '.join(functions)}",
    ])
    scope.update(struct=struct, StorageError=StorageError)
    exec(compile(source, f"{__file__}:<{label}>", "exec"), scope)
    return scope["bind"]


def _shape(columns) -> str:
    """``int,str?,...``: the column types of a plan, ``?`` marking a nullable one."""
    return ",".join(ctype.value + "?" * nullable for ctype, nullable in columns)


@functools.cache
def _row_plan(columns: tuple, key_positions: tuple):
    """The compiled ``decode``/``decode_key``/``encode`` of every schema
    with these ``(type, nullable)`` columns and key positions. Memoised:
    the B-trees an as-of snapshot opens per statement reuse the plan."""
    scope: dict = {}
    bitmap_len = (len(columns) + 7) // 8
    label = f"row {_shape(columns)} key {','.join(map(str, key_positions))}"
    return _compile(label, "what, check_row", {
        "decode": _decoder(columns, tuple(range(len(columns))), bitmap_len, scope),
        "decode_key": _decoder(columns, key_positions, bitmap_len, scope),
        "encode": _encoder(columns, bitmap_len, ["check_row(values)"], scope),
    }, scope)


@functools.cache
def _key_plan(ctypes: tuple):
    """The compiled ``decode``/``encode`` of bare key tuples of ``ctypes``."""
    scope: dict = {}
    columns = tuple((ctype, False) for ctype in ctypes)
    count = len(columns)
    checks = [
        f"if len(values) != {count}:",
        f"    raise StorageError(f'key arity mismatch: expected {count}, got {{len(values)}}')",
        "if None in values:",
        "    raise StorageError('key values cannot be NULL')",
    ]
    return _compile(f"key {_shape(columns)}", "what", {
        "decode": _decoder(columns, tuple(range(count)), 0, scope),
        "encode": _encoder(columns, 0, checks, scope),
    }, scope)


class RowCodec:
    """Encode/decode full rows for one :class:`TableSchema`.

    The operations are the schema's compiled plan bound to its name:

    * ``encode(row)`` — serialize a row tuple, validated by
      ``schema.check_row`` first.
    * ``decode(data, pos=0, end=None)`` — the row tuple of a payload
      produced by ``encode`` (the one spanning ``data[pos:end]``).
    * ``decode_key(data, pos=0, end=None)`` — only the primary-key tuple:
      reads no column past the last key column and builds no value that
      is not part of the key.

    A payload shorter than its columns need, or one with the NULL bit of
    a NOT NULL column set, raises :class:`StorageError` naming the table.
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        columns = tuple((col.ctype, col.nullable) for col in schema.columns)
        bind = _row_plan(columns, schema.key_positions)
        self.decode, self.decode_key, self.encode = bind(
            f"row for {schema.name!r}", schema.check_row
        )


class KeyCodec:
    """Encode/decode bare key tuples given the key columns' types.

    Used for B-tree separator keys and for the lock keys embedded in DML
    log records (which as-of snapshot recovery re-acquires during its redo
    pass). ``encode(key)`` rejects a wrong arity and NULLs;
    ``decode(data, pos=0, end=None)`` raises :class:`StorageError` for
    key bytes shorter than the columns need.
    """

    def __init__(self, ctypes) -> None:
        self.ctypes = tuple(ctypes)
        names = ", ".join(ctype.value for ctype in self.ctypes)
        self.decode, self.encode = _key_plan(self.ctypes)(f"key ({names})")

    @classmethod
    def for_schema(cls, schema: TableSchema) -> "KeyCodec":
        return cls(
            schema.columns[pos].ctype for pos in schema.key_positions
        )


