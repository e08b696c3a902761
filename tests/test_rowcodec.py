"""Row/key codec tests: schema validation and round-trips."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.errors import StorageError
from repro.storage import rowcodec
from repro.storage.rowcodec import KeyCodec, RowCodec


def make_schema() -> TableSchema:
    return TableSchema(
        "t",
        (
            Column("i", ColumnType.INT),
            Column("f", ColumnType.FLOAT),
            Column("s", ColumnType.STR, max_len=100, nullable=True),
            Column("b", ColumnType.BOOL),
            Column("raw", ColumnType.BYTES, max_len=100, nullable=True),
        ),
        key=("i",),
    )


class TestSchemaValidation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT), Column("a", ColumnType.INT)),
                key=("a",),
            )

    def test_missing_key_column_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", ColumnType.INT),), key=("b",))

    def test_nullable_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT, nullable=True),),
                key=("a",),
            )

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema("t", (Column("a", ColumnType.INT),), key=())

    def test_repeated_key_rejected(self):
        with pytest.raises(ValueError):
            TableSchema(
                "t",
                (Column("a", ColumnType.INT), Column("b", ColumnType.INT)),
                key=("a", "a"),
            )

    def test_key_positions(self):
        schema = TableSchema(
            "t",
            (
                Column("a", ColumnType.INT),
                Column("b", ColumnType.STR),
                Column("c", ColumnType.INT),
            ),
            key=("c", "a"),
        )
        assert schema.key_positions == (2, 0)
        assert schema.key_of((1, "x", 3)) == (3, 1)

    def test_row_from_dict_defaults_nullable(self):
        schema = make_schema()
        row = schema.row_from_dict({"i": 1, "f": 2.0, "b": True})
        assert row == (1, 2.0, None, True, None)

    def test_row_from_dict_missing_required(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.row_from_dict({"i": 1})

    def test_row_from_dict_unknown_column(self):
        schema = make_schema()
        with pytest.raises(ValueError):
            schema.row_from_dict({"i": 1, "f": 1.0, "b": False, "zzz": 2})

    def test_check_row_arity(self):
        with pytest.raises(ValueError):
            make_schema().check_row((1, 2.0))

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(TypeError):
            make_schema().check_row((True, 1.0, None, False, None))

    def test_int_accepted_as_float(self):
        make_schema().check_row((1, 2, None, False, None))

    def test_string_too_long(self):
        with pytest.raises(ValueError):
            make_schema().check_row((1, 1.0, "x" * 101, False, None))

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            make_schema().check_row((2**63, 1.0, None, False, None))


class TestRowCodec:
    def test_roundtrip_simple(self):
        codec = RowCodec(make_schema())
        row = (42, 3.25, "hello", True, b"\x00\xff")
        assert codec.decode(codec.encode(row)) == row

    def test_roundtrip_nulls(self):
        codec = RowCodec(make_schema())
        row = (1, -0.5, None, False, None)
        assert codec.decode(codec.encode(row)) == row

    def test_roundtrip_unicode(self):
        codec = RowCodec(make_schema())
        row = (7, 0.0, "héllo wörld ☃", True, b"")
        assert codec.decode(codec.encode(row)) == row

    def test_decode_key(self):
        codec = RowCodec(make_schema())
        payload = codec.encode((99, 1.0, "a", False, None))
        assert codec.decode_key(payload) == (99,)

    def test_short_payload_rejected(self):
        codec = RowCodec(make_schema())
        with pytest.raises(StorageError):
            codec.decode(b"")

    def test_truncated_payload_names_the_table(self):
        codec = RowCodec(make_schema())
        payload = codec.encode((42, 3.25, "hello", True, b"\x00\xff"))
        for cut in range(len(payload)):
            with pytest.raises(StorageError, match="row for 't'"):
                codec.decode(payload[:cut])
        for cut in range(9):  # bitmap + the INT key
            with pytest.raises(StorageError, match="row for 't'"):
                codec.decode_key(payload[:cut])
        assert codec.decode_key(payload[:9]) == (42,)

    def test_span_shorter_than_its_columns_inside_a_larger_buffer(self):
        """In place on a page buffer the bytes after a record are readable,
        so the span's end is the bound, not the buffer's."""
        codec = RowCodec(make_schema())
        payload = codec.encode((42, 3.25, "hello", True, None))
        buffer = b"\xee" * 7 + payload + b"\xee" * 50
        assert codec.decode(buffer, 7, 7 + len(payload)) == (42, 3.25, "hello", True, None)
        with pytest.raises(StorageError, match="shorter"):
            codec.decode(buffer, 7, 7 + len(payload) - 1)
        with pytest.raises(StorageError, match="shorter"):
            codec.decode_key(buffer, 7, 7 + 8)

    def test_null_bit_on_not_null_column_rejected(self):
        codec = RowCodec(make_schema())
        payload = bytearray(codec.encode((1, 2.0, None, False, None)))
        payload[0] |= 1 << 3  # "b" is NOT NULL
        with pytest.raises(StorageError, match="row for 't'.*NOT NULL"):
            codec.decode(bytes(payload))
        with pytest.raises(StorageError, match="NOT NULL"):
            codec.decode_key(bytes(payload))

    def test_malformed_utf8_rejected(self):
        codec = RowCodec(make_schema())
        payload = codec.encode((1, 2.0, "ab", False, None)).replace(b"ab", b"\xff\xfe")
        with pytest.raises(StorageError, match="row for 't'"):
            codec.decode(payload)

    def test_int_as_float_column_roundtrip(self):
        codec = RowCodec(make_schema())
        decoded = codec.decode(codec.encode((1, 5, None, False, None)))
        assert decoded[1] == 5.0
        assert isinstance(decoded[1], float)


class TestKeyCodec:
    def test_roundtrip_composite(self):
        codec = KeyCodec((ColumnType.INT, ColumnType.STR))
        key = (12, "abc")
        assert codec.decode(codec.encode(key)) == key

    def test_for_schema(self):
        schema = TableSchema(
            "t",
            (
                Column("a", ColumnType.INT),
                Column("b", ColumnType.STR),
            ),
            key=("b", "a"),
        )
        codec = KeyCodec.for_schema(schema)
        assert codec.decode(codec.encode(("x", 1))) == ("x", 1)

    def test_arity_mismatch(self):
        codec = KeyCodec((ColumnType.INT,))
        with pytest.raises(StorageError):
            codec.encode((1, 2))

    def test_null_key_rejected(self):
        codec = KeyCodec((ColumnType.INT,))
        with pytest.raises(StorageError):
            codec.encode((None,))

    def test_short_key_bytes_rejected(self):
        codec = KeyCodec((ColumnType.INT, ColumnType.STR))
        key_bytes = codec.encode((12, "abc"))
        for cut in range(len(key_bytes)):
            with pytest.raises(StorageError, match=r"key \(int, str\)"):
                codec.decode(key_bytes[:cut])
        # At an offset inside an interior entry: child pointer, flag, key.
        entry = b"\x07\0\0\0\x01" + key_bytes
        assert codec.decode(entry, 5, len(entry)) == (12, "abc")
        with pytest.raises(StorageError):
            codec.decode(entry + b"tail", 5, len(entry) - 1)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_row_strategy = st.tuples(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.none(), st.text(max_size=30)),
    st.booleans(),
    st.one_of(st.none(), st.binary(max_size=30)),
)


@settings(max_examples=300, deadline=None)
@given(_row_strategy)
def test_codec_roundtrip_property(row):
    schema = TableSchema(
        "p",
        (
            Column("i", ColumnType.INT),
            Column("f", ColumnType.FLOAT),
            Column("s", ColumnType.STR, max_len=200, nullable=True),
            Column("b", ColumnType.BOOL),
            Column("raw", ColumnType.BYTES, max_len=200, nullable=True),
        ),
        key=("i",),
    )
    codec = RowCodec(schema)
    assert codec.decode(codec.encode(row)) == row


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.text(max_size=20),
)
def test_key_codec_roundtrip_property(num, text):
    codec = KeyCodec((ColumnType.INT, ColumnType.STR))
    assert codec.decode(codec.encode((num, text))) == (num, text)


# ---------------------------------------------------------------------------
# Reference model: the interpretive codec the compiled plans replaced
# (commit 318c06a), one value at a time through ``_encode_value`` /
# ``_decode_value``. Kept here as the oracle: compiled ``encode`` must
# produce the same bytes, ``decode`` / ``decode_key`` the same tuples.
# ---------------------------------------------------------------------------

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")


def _encode_value(ctype: ColumnType, value, out: bytearray) -> None:
    if ctype is ColumnType.INT:
        out += _I64.pack(value)
    elif ctype is ColumnType.FLOAT:
        out += _F64.pack(float(value))
    elif ctype is ColumnType.BOOL:
        out.append(1 if value else 0)
    elif ctype is ColumnType.STR:
        raw = value.encode("utf-8")
        out += _U16.pack(len(raw))
        out += raw
    else:
        out += _U16.pack(len(value))
        out += value


def _decode_value(ctype: ColumnType, data: bytes, pos: int):
    if ctype is ColumnType.INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if ctype is ColumnType.FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if ctype is ColumnType.BOOL:
        return bool(data[pos]), pos + 1
    (length,) = _U16.unpack_from(data, pos)
    start = pos + 2
    raw = data[start : start + length]
    return (raw.decode("utf-8") if ctype is ColumnType.STR else bytes(raw)), start + length


def reference_encode(schema: TableSchema, row: tuple) -> bytes:
    schema.check_row(row)
    bitmap = bytearray((len(schema.columns) + 7) // 8)
    body = bytearray()
    for index, (col, value) in enumerate(zip(schema.columns, row, strict=True)):
        if value is None:
            bitmap[index // 8] |= 1 << (index % 8)
        else:
            _encode_value(col.ctype, value, body)
    return bytes(bitmap) + bytes(body)


def reference_decode(schema: TableSchema, data: bytes) -> tuple:
    bitmap_len = (len(schema.columns) + 7) // 8
    pos = bitmap_len
    values = []
    for index, col in enumerate(schema.columns):
        if data[index // 8] & (1 << (index % 8)):
            values.append(None)
        else:
            value, pos = _decode_value(col.ctype, data, pos)
            values.append(value)
    return tuple(values)


def reference_decode_key(schema: TableSchema, data: bytes) -> tuple:
    row = reference_decode(schema, data)
    return tuple(row[schema.column_names.index(name)] for name in schema.key)


def reference_encode_key(ctypes, key: tuple) -> bytes:
    out = bytearray()
    for ctype, value in zip(ctypes, key, strict=True):
        _encode_value(ctype, value, out)
    return bytes(out)


_MAX_LEN = 12

_VALUES = {
    ColumnType.INT: st.one_of(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
    ),
    # An int in a FLOAT column is stored as a double.
    ColumnType.FLOAT: st.one_of(
        st.floats(allow_nan=False), st.integers(min_value=-(2**53), max_value=2**53)
    ),
    ColumnType.BOOL: st.booleans(),
    # Empty, multi-byte UTF-8 and exactly ``max_len`` encoded bytes.
    ColumnType.STR: st.one_of(
        st.text(max_size=_MAX_LEN).filter(lambda s: len(s.encode()) <= _MAX_LEN),
        st.sampled_from(["", "x" * _MAX_LEN, "é" * (_MAX_LEN // 2), "☃" * (_MAX_LEN // 3)]),
    ),
    ColumnType.BYTES: st.one_of(
        st.binary(max_size=_MAX_LEN), st.sampled_from([b"", b"\0" * _MAX_LEN])
    ),
}


@st.composite
def schemas_and_rows(draw):
    """A random schema — all five types, nullable columns anywhere, key
    columns first / last / interleaved / single, 1–20 columns so the
    bitmap spans 1–3 bytes — and a few rows of it."""
    count = draw(st.integers(min_value=1, max_value=20))
    key_size = draw(st.integers(min_value=1, max_value=min(count, 4)))
    key_positions = draw(st.permutations(range(count)))[:key_size]
    columns = []
    for index in range(count):
        ctype = draw(st.sampled_from(list(ColumnType)))
        nullable = index not in key_positions and draw(st.booleans())
        columns.append(Column(f"c{index}", ctype, nullable=nullable, max_len=_MAX_LEN))
    schema = TableSchema("m", columns, key=[f"c{pos}" for pos in key_positions])
    row = st.tuples(*(
        st.one_of(st.none(), _VALUES[col.ctype]) if col.nullable else _VALUES[col.ctype]
        for col in columns
    ))
    return schema, draw(st.lists(row, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(schemas_and_rows(), st.binary(max_size=9), st.binary(max_size=9))
def test_compiled_codec_matches_reference_model(case, before, after):
    schema, rows = case
    codec = RowCodec(schema)
    key_codec = KeyCodec.for_schema(schema)
    for row in rows:
        payload = codec.encode(row)
        assert payload == reference_encode(schema, row)
        assert codec.decode(payload) == reference_decode(schema, payload)
        key = reference_decode_key(schema, payload)
        assert codec.decode_key(payload) == key == schema.key_of(codec.decode(payload))
        # In place inside a larger buffer, as a probe reads it off a page.
        buffer = before + payload + after
        span = (len(before), len(before) + len(payload))
        assert codec.decode_key(buffer, *span) == key
        assert codec.decode(bytearray(buffer), *span) == codec.decode(payload)
        key_bytes = key_codec.encode(key)
        assert key_bytes == reference_encode_key(key_codec.ctypes, key)
        assert key_codec.decode(before + key_bytes, len(before)) == key
        # One byte short is always noticed (every column but a trailing
        # NULL occupies at least one).
        if row[-1] is not None:
            with pytest.raises(StorageError):
                codec.decode(payload[:-1])


def test_equal_schemas_share_one_compiled_plan():
    one = RowCodec(make_schema())
    other = RowCodec(TableSchema("elsewhere", [
        Column("k", ColumnType.INT),
        Column("x", ColumnType.FLOAT),
        Column("name", ColumnType.STR, max_len=7, nullable=True),
        Column("flag", ColumnType.BOOL),
        Column("blob", ColumnType.BYTES, nullable=True),
    ], key=["k"]))
    for name in ("encode", "decode", "decode_key"):
        assert getattr(one, name).__code__ is getattr(other, name).__code__
        assert getattr(one, name) is not getattr(other, name)  # bound to its own table name
    with pytest.raises(StorageError, match="row for 'elsewhere'"):
        other.decode(b"")
    different_key = RowCodec(TableSchema("t", make_schema().columns, key=("i", "b")))
    assert different_key.decode_key.__code__ is not one.decode_key.__code__
    assert (
        KeyCodec((ColumnType.INT, ColumnType.STR)).decode.__code__
        is KeyCodec([ColumnType.INT, ColumnType.STR]).decode.__code__
    )


def reference_check_value(col: Column, value) -> None:
    """The per-column check ``check_row`` ran once per value before it
    was compiled per schema."""
    if value is None:
        if not col.nullable:
            raise ValueError(f"column {col.name!r} is NOT NULL")
        return
    expected = {ColumnType.INT: int, ColumnType.FLOAT: float, ColumnType.STR: str,
                ColumnType.BYTES: bytes, ColumnType.BOOL: bool}[col.ctype]
    if col.ctype is ColumnType.INT and isinstance(value, bool):
        raise TypeError(f"column {col.name!r}: bool given for INT")
    if col.ctype is ColumnType.FLOAT and isinstance(value, int) and not isinstance(value, bool):
        return
    if not isinstance(value, expected):
        raise TypeError(
            f"column {col.name!r} expects {expected.__name__}, got {type(value).__name__}"
        )
    if col.ctype is ColumnType.STR and len(value.encode("utf-8")) > col.max_len:
        raise ValueError(f"column {col.name!r}: string exceeds max_len {col.max_len}")
    if col.ctype is ColumnType.BYTES and len(value) > col.max_len:
        raise ValueError(f"column {col.name!r}: bytes exceed max_len {col.max_len}")
    if col.ctype is ColumnType.INT and not -(2**63) <= value < 2**63:
        raise ValueError(f"column {col.name!r}: integer out of 64-bit range")


def _outcome(check, *args):
    try:
        check(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


#: Any value of any column type, in range or not, plus a few strangers.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**64), 2**64), st.floats(allow_nan=False),
    st.text(max_size=_MAX_LEN + 2), st.binary(max_size=_MAX_LEN + 2), st.just(bytearray(b"x")),
)


@settings(max_examples=100, deadline=None)
@given(schemas_and_rows(), st.data())
def test_compiled_check_row_matches_the_per_column_checks(case, data):
    """Same verdict, exception type and message as checking each value
    with the per-column reference in order, arity first."""
    schema, _rows = case
    row = tuple(data.draw(_ANY_VALUE) for _ in range(len(schema.columns)))
    expected = None
    for col, value in zip(schema.columns, row, strict=True):
        expected = _outcome(reference_check_value, col, value)
        if expected is not None:
            break
    assert _outcome(schema.check_row, row) == expected
    for col, value in zip(schema.columns, row, strict=True):
        assert _outcome(col.check_value, value) == _outcome(reference_check_value, col, value)
    assert _outcome(schema.check_row, row[:-1]) == (
        ValueError, f"table 'm' expects {len(row)} values, got {len(row) - 1}"
    )


def test_each_plan_compiles_under_its_own_code_filename():
    """cProfile keys a function by ``(filename, line, name)``: plans of two
    shapes must not share a key, or a profile keeps only one of them."""
    one = RowCodec(make_schema())
    other = RowCodec(TableSchema("t", make_schema().columns, key=("i", "b")))
    keys = set()
    for codec in (one, other, KeyCodec((ColumnType.INT,)), KeyCodec((ColumnType.STR,))):
        for function in (codec.decode, codec.encode):
            code = function.__code__
            assert code.co_filename.startswith(rowcodec.__file__ + ":<")
            keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    assert len(keys) == 8
