"""Table schemas: typed columns and primary keys.

A :class:`TableSchema` drives the row codec (how tuples serialize onto
pages) and the B-tree (which prefix of the row is the clustering key).
"""

from __future__ import annotations

import enum
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
        if value is None:
            if not self.nullable:
                raise ValueError(f"column {self.name!r} is NOT NULL")
            return
        expected = _PYTHON_TYPES[self.ctype]
        # bool is a subclass of int; keep the two distinct.
        if self.ctype is ColumnType.INT and isinstance(value, bool):
            raise TypeError(f"column {self.name!r}: bool given for INT")
        if self.ctype is ColumnType.FLOAT and isinstance(value, int) and not isinstance(value, bool):
            return  # ints are acceptable floats
        if not isinstance(value, expected):
            raise TypeError(
                f"column {self.name!r} expects {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        if self.ctype is ColumnType.STR and len(value.encode("utf-8")) > self.max_len:
            raise ValueError(f"column {self.name!r}: string exceeds max_len {self.max_len}")
        if self.ctype is ColumnType.BYTES and len(value) > self.max_len:
            raise ValueError(f"column {self.name!r}: bytes exceed max_len {self.max_len}")
        if self.ctype is ColumnType.INT and not -(2**63) <= value < 2**63:
            raise ValueError(f"column {self.name!r}: integer out of 64-bit range")


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
    _index_by_name: dict = field(default_factory=dict, compare=False, repr=False)

    def __init__(self, name: str, columns, key) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(
            self,
            "_index_by_name",
            {col.name: pos for pos, col in enumerate(self.columns)},
        )
        self._validate()
        positions = tuple(self._index_by_name[k] for k in self.key)
        object.__setattr__(self, "key_positions", positions)
        object.__setattr__(self, "key_of", _key_getter(positions))

    def _validate(self) -> None:
        if not self.name:
            raise ValueError("table name must be non-empty")
        if not self.columns:
            raise ValueError(f"table {self.name!r} needs at least one column")
        if len(self._index_by_name) != len(self.columns):
            raise ValueError(f"table {self.name!r} has duplicate column names")
        if not self.key:
            raise ValueError(f"table {self.name!r} needs a primary key")
        for key_col in self.key:
            if key_col not in self._index_by_name:
                raise ValueError(f"key column {key_col!r} not in table {self.name!r}")
            if self.columns[self._index_by_name[key_col]].nullable:
                raise ValueError(f"key column {key_col!r} must be NOT NULL")
        if len(set(self.key)) != len(self.key):
            raise ValueError(f"table {self.name!r} repeats a key column")

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)

    def check_row(self, row: tuple) -> None:
        """Validate arity and every value of ``row``."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(row)}"
            )
        for col, value in zip(self.columns, row, strict=True):
            col.check_value(value)

    def row_from_dict(self, values: dict) -> tuple:
        """Build a row tuple from a column-name→value mapping.

        Missing nullable columns default to ``None``; missing non-nullable
        columns raise ``ValueError``.
        """
        unknown = set(values) - set(self._index_by_name)
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

    def row_as_dict(self, row: tuple) -> dict:
        """Render a row tuple as a column-name→value dict."""
        return dict(zip(self.column_names, row, strict=True))
