"""Table schemas: typed columns and primary keys.

A :class:`TableSchema` drives the row codec (how tuples serialize onto
pages) and the B-tree (which prefix of the row is the clustering key).
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Callable
from dataclasses import dataclass, field


class ColumnType(enum.Enum):
    """Supported column types and their storage classes."""

    INT = "int"        # 64-bit signed integer
    FLOAT = "float"    # IEEE-754 double
    STR = "str"        # variable-length UTF-8 (bounded by max_len)
    BYTES = "bytes"    # variable-length binary
    BOOL = "bool"      # single byte


_PYTHON_TYPES = {
    ColumnType.INT: int,
    ColumnType.FLOAT: float,
    ColumnType.STR: str,
    ColumnType.BYTES: bytes,
    ColumnType.BOOL: bool,
}


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    ctype: ColumnType
    nullable: bool = False
    #: Maximum encoded length for var-len types (bytes of UTF-8 / binary).
    max_len: int = 255

    def check_value(self, value: object) -> None:
        """Validate a Python value against this column; raise ``TypeError``
        or ``ValueError`` on mismatch."""
        _value_checker(self)(value)


#: The test past the type test, per column type: ``(failing condition,
#: message)`` over the value ``{v}`` and the column's ``{max_len}``.
_BOUNDS = {
    ColumnType.STR: ("len({v}.encode('utf-8')) > {max_len}", "string exceeds max_len {max_len}"),
    ColumnType.BYTES: ("len({v}) > {max_len}", "bytes exceed max_len {max_len}"),
    ColumnType.INT: (f"not {-(2**63)} <= {{v}} < {2**63}", "integer out of 64-bit range"),
}


def _value_check(col: Column, var: str, scope: dict) -> list[str]:
    """Source lines validating the value in ``var`` against ``col``: one
    ``if``/``elif`` chain that raises ``TypeError`` or ``ValueError``."""
    scope[f"{var}_name"] = col.name
    ctype, expected = col.ctype, _PYTHON_TYPES[col.ctype].__name__
    # (failing condition, exception raised or None to accept, message)
    tests = [(f"{var} is None", None if col.nullable else "ValueError", " is NOT NULL")]
    if ctype is ColumnType.INT:  # bool is a subclass of int; keep the two distinct
        tests.append((f"isinstance({var}, bool)", "TypeError", ": bool given for INT"))
    wrong_type = (  # ints are acceptable floats
        f"isinstance({var}, bool) or not isinstance({var}, (int, float))"
        if ctype is ColumnType.FLOAT else f"not isinstance({var}, {expected})"
    )
    tests.append((wrong_type, "TypeError", f" expects {expected}, got {{type({var}).__name__}}"))
    if ctype in _BOUNDS:
        test, message = _BOUNDS[ctype]
        tests.append((test.format(v=var, max_len=col.max_len), "ValueError",
                      ": " + message.format(max_len=col.max_len)))
    lines = []
    for index, (test, error, message) in enumerate(tests):
        action = f'raise {error}(f"column {{{var}_name!r}}{message}")' if error else "pass"
        lines += [f"{'elif' if index else 'if'} {test}:", f"    {action}"]
    return lines


def _compile(label: str, signature: str, body: list[str], scope: dict) -> Callable:
    """The function ``def check(<signature>): <body>``, closed over
    ``scope``, compiled under this file's name (a profile attributes it to
    the catalog) and named ``label`` (a profile keys functions by file,
    line and name, so each schema's check counts its own calls)."""
    source = "\n".join([f"def check({signature}):", *("    " + line for line in body)])
    exec(compile(source, __file__, "exec"), scope)
    check = scope["check"]
    check.__code__ = check.__code__.replace(co_name=label, co_qualname=label)
    return check


@functools.cache
def _value_checker(col: Column) -> Callable[[object], None]:
    scope: dict = {}
    return _compile(f"check_value[{col.name}]", "value", _value_check(col, "value", scope), scope)


@functools.cache
def _row_checker(table: str, columns: tuple[Column, ...]) -> Callable[[tuple], None]:
    """``check_row`` of a table: the arity test, then every column's
    checks in order, straight-line over the unpacked row."""
    scope: dict = {"table": table}
    names = [f"v{index}" for index in range(len(columns))]
    count = len(columns)
    body = [
        f"if len(row) != {count}:",
        f'    raise ValueError(f"table {{table!r}} expects {count} values, got {{len(row)}}")',
        f"{', '.join(names)}, = row",
    ]
    for col, var in zip(columns, names, strict=True):
        body += _value_check(col, var, scope)
    return _compile(f"check_row[{table}]", "row", body, scope)


def _key_getter(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """``row -> key tuple`` for the key columns at ``positions``."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    (only,) = positions  # itemgetter would return the bare value, not a 1-tuple
    return lambda row: (row[only],)


@dataclass(frozen=True)
class TableSchema:
    """A named table: ordered columns plus a primary-key column list.

    The primary key columns must be a set of non-nullable columns; rows are
    clustered on the key tuple in primary-key column order.
    """

    name: str
    columns: tuple[Column, ...]
    key: tuple[str, ...]
    #: Positions of the key columns within the row tuple.
    key_positions: tuple[int, ...] = field(init=False, compare=False, repr=False)
    #: ``key_of(row)``: the primary-key tuple of a full row tuple.
    key_of: Callable[[tuple], tuple] = field(init=False, compare=False, repr=False)
    #: ``column name -> position`` within the row tuple.
    positions: dict[str, int] = field(init=False, compare=False, repr=False)
    #: ``check_row(row)``: validate arity and every value of ``row``
    #: (``ValueError`` / ``TypeError``, as :meth:`Column.check_value`).
    check_row: Callable[[tuple], None] = field(init=False, compare=False, repr=False)

    def __init__(self, name: str, columns, key) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(
            self,
            "positions",
            {col.name: pos for pos, col in enumerate(self.columns)},
        )
        self._validate()
        key_positions = tuple(self.positions[k] for k in self.key)
        object.__setattr__(self, "key_positions", key_positions)
        object.__setattr__(self, "key_of", _key_getter(key_positions))
        object.__setattr__(self, "check_row", _row_checker(self.name, self.columns))

    def _validate(self) -> None:
        if not self.name:
            raise ValueError("table name must be non-empty")
        if not self.columns:
            raise ValueError(f"table {self.name!r} needs at least one column")
        if len(self.positions) != len(self.columns):
            raise ValueError(f"table {self.name!r} has duplicate column names")
        if not self.key:
            raise ValueError(f"table {self.name!r} needs a primary key")
        for key_col in self.key:
            if key_col not in self.positions:
                raise ValueError(f"key column {key_col!r} not in table {self.name!r}")
            if self.columns[self.positions[key_col]].nullable:
                raise ValueError(f"key column {key_col!r} must be NOT NULL")
        if len(set(self.key)) != len(self.key):
            raise ValueError(f"table {self.name!r} repeats a key column")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def row_from_dict(self, values: dict) -> tuple:
        """Build a row tuple from a column-name→value mapping.

        Missing nullable columns default to ``None``; missing non-nullable
        columns raise ``ValueError``.
        """
        unknown = set(values) - set(self.positions)
        if unknown:
            raise ValueError(f"unknown columns for {self.name!r}: {sorted(unknown)}")
        row = []
        for col in self.columns:
            if col.name in values:
                row.append(values[col.name])
            elif col.nullable:
                row.append(None)
            else:
                raise ValueError(f"missing NOT NULL column {col.name!r}")
        return tuple(row)
