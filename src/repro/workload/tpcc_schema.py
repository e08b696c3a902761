"""TPC-C table schemas and the scale configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Column, ColumnType, TableSchema

#: New-order transactions pick their line count in this range (TPC-C).
MIN_ORDER_LINES = 5
MAX_ORDER_LINES = 15


@dataclass(frozen=True)
class TpccScale:
    """Workload scale knobs (the paper used 800 warehouses / 40 GB; the
    defaults here are laptop-sized while preserving per-page update
    rates)."""

    warehouses: int = 2
    districts_per_warehouse: int = 4
    customers_per_district: int = 30
    items: int = 200
    #: Fraction of new-order transactions that roll back (TPC-C mandates
    #: 1% — it keeps CLRs present in the log stream).
    abort_rate: float = 0.01


def _schema(name: str, cols, key) -> TableSchema:
    return TableSchema(name, cols, key)


WAREHOUSE = _schema(
    "warehouse",
    (
        Column("w_id", ColumnType.INT),
        Column("w_name", ColumnType.STR, max_len=12),
        Column("w_ytd", ColumnType.FLOAT),
    ),
    ("w_id",),
)

DISTRICT = _schema(
    "district",
    (
        Column("w_id", ColumnType.INT),
        Column("d_id", ColumnType.INT),
        Column("d_name", ColumnType.STR, max_len=12),
        Column("d_next_o_id", ColumnType.INT),
        Column("d_ytd", ColumnType.FLOAT),
    ),
    ("w_id", "d_id"),
)

CUSTOMER = _schema(
    "customer",
    (
        Column("w_id", ColumnType.INT),
        Column("d_id", ColumnType.INT),
        Column("c_id", ColumnType.INT),
        Column("c_name", ColumnType.STR, max_len=24),
        Column("c_balance", ColumnType.FLOAT),
        Column("c_ytd_payment", ColumnType.FLOAT),
        Column("c_payment_cnt", ColumnType.INT),
        Column("c_data", ColumnType.STR, max_len=120),
    ),
    ("w_id", "d_id", "c_id"),
)

ITEM = _schema(
    "item",
    (
        Column("i_id", ColumnType.INT),
        Column("i_name", ColumnType.STR, max_len=24),
        Column("i_price", ColumnType.FLOAT),
    ),
    ("i_id",),
)

STOCK = _schema(
    "stock",
    (
        Column("w_id", ColumnType.INT),
        Column("i_id", ColumnType.INT),
        Column("s_quantity", ColumnType.INT),
        Column("s_ytd", ColumnType.INT),
        Column("s_order_cnt", ColumnType.INT),
        Column("s_data", ColumnType.STR, max_len=30),
    ),
    ("w_id", "i_id"),
)

ORDERS = _schema(
    "orders",
    (
        Column("w_id", ColumnType.INT),
        Column("d_id", ColumnType.INT),
        Column("o_id", ColumnType.INT),
        Column("o_c_id", ColumnType.INT),
        Column("o_entry_d", ColumnType.FLOAT),
        Column("o_ol_cnt", ColumnType.INT),
        Column("o_delivered", ColumnType.BOOL),
    ),
    ("w_id", "d_id", "o_id"),
)

NEW_ORDER = _schema(
    "new_order",
    (
        Column("w_id", ColumnType.INT),
        Column("d_id", ColumnType.INT),
        Column("o_id", ColumnType.INT),
    ),
    ("w_id", "d_id", "o_id"),
)

ORDER_LINE = _schema(
    "order_line",
    (
        Column("w_id", ColumnType.INT),
        Column("d_id", ColumnType.INT),
        Column("o_id", ColumnType.INT),
        Column("ol_number", ColumnType.INT),
        Column("ol_i_id", ColumnType.INT),
        Column("ol_quantity", ColumnType.INT),
        Column("ol_amount", ColumnType.FLOAT),
    ),
    ("w_id", "d_id", "o_id", "ol_number"),
)

#: Payment audit trail — a heap, demonstrating the paper's claim that the
#: mechanism covers non-B-tree structures with no special code.
HISTORY = _schema(
    "history",
    (
        Column("h_seq", ColumnType.INT),
        Column("h_w_id", ColumnType.INT),
        Column("h_d_id", ColumnType.INT),
        Column("h_c_id", ColumnType.INT),
        Column("h_amount", ColumnType.FLOAT),
        Column("h_date", ColumnType.FLOAT),
    ),
    ("h_seq",),
)

#: (schema, is_heap) in load order.
TPCC_SCHEMAS: tuple[tuple[TableSchema, bool], ...] = (
    (ITEM, False),
    (WAREHOUSE, False),
    (DISTRICT, False),
    (CUSTOMER, False),
    (STOCK, False),
    (ORDERS, False),
    (NEW_ORDER, False),
    (ORDER_LINE, False),
    (HISTORY, True),
)
