"""TPC-C transaction implementations.

Write transactions take a database; the read-only procedures
(``stock_level``, ``order_status``) take anything implementing the reader
protocol (``get``/``scan``) — a live database, an as-of snapshot, or a
restored copy — which is exactly how the paper runs its stock-level
queries "as of" the past.
"""

from __future__ import annotations

import random

from repro.errors import TransactionError
from repro.workload.tpcc_schema import MAX_ORDER_LINES, MIN_ORDER_LINES

#: Stock-level looks at the district's last this many orders (TPC-C).
RECENT_ORDERS = 20


class TpccAborted(TransactionError):
    """Raised internally to drive the mandated 1% new-order rollbacks."""


def new_order(db, rng: random.Random, scale, w_id: int | None = None) -> bool:
    """One new-order transaction; returns False when it rolled back."""
    w_id = w_id or rng.randint(1, scale.warehouses)
    d_id = rng.randint(1, scale.districts_per_warehouse)
    c_id = rng.randint(1, scale.customers_per_district)
    line_count = rng.randint(MIN_ORDER_LINES, MAX_ORDER_LINES)
    abort = rng.random() < scale.abort_rate
    try:
        with db.transaction() as txn:
            district = db.get("district", (w_id, d_id), txn)
            o_id = district[3]
            db.update(txn, "district", (w_id, d_id), {"d_next_o_id": o_id + 1})
            total = 0.0
            for line in range(1, line_count + 1):
                i_id = rng.randint(1, scale.items)
                item = db.get("item", (i_id,), txn)
                stock = db.get("stock", (w_id, i_id), txn)
                quantity = rng.randint(1, 10)
                new_qty = stock[2] - quantity
                if new_qty < 10:
                    new_qty += 91
                db.update(
                    txn,
                    "stock",
                    (w_id, i_id),
                    {
                        "s_quantity": new_qty,
                        "s_ytd": stock[3] + quantity,
                        "s_order_cnt": stock[4] + 1,
                    },
                )
                amount = quantity * item[2]
                total += amount
                db.insert(
                    txn,
                    "order_line",
                    (w_id, d_id, o_id, line, i_id, quantity, amount),
                )
            db.insert(
                txn,
                "orders",
                (w_id, d_id, o_id, c_id, db.env.clock.now(), line_count, False),
            )
            db.insert(txn, "new_order", (w_id, d_id, o_id))
            if abort:
                # TPC-C: 1% of new-orders abort at the last item.
                raise TpccAborted("simulated user abort")
    except TpccAborted:
        return False
    return True


def payment(db, rng: random.Random, scale, seq: int) -> None:
    """One payment transaction (updates + a heap history append)."""
    w_id = rng.randint(1, scale.warehouses)
    d_id = rng.randint(1, scale.districts_per_warehouse)
    c_id = rng.randint(1, scale.customers_per_district)
    amount = round(rng.uniform(1.0, 5000.0), 2)
    with db.transaction() as txn:
        warehouse = db.get("warehouse", (w_id,), txn)
        db.update(txn, "warehouse", (w_id,), {"w_ytd": warehouse[2] + amount})
        district = db.get("district", (w_id, d_id), txn)
        db.update(txn, "district", (w_id, d_id), {"d_ytd": district[4] + amount})
        customer = db.get("customer", (w_id, d_id, c_id), txn)
        db.update(
            txn,
            "customer",
            (w_id, d_id, c_id),
            {
                "c_balance": customer[4] - amount,
                "c_ytd_payment": customer[5] + amount,
                "c_payment_cnt": customer[6] + 1,
            },
        )
        db.insert(
            txn,
            "history",
            (seq, w_id, d_id, c_id, amount, db.env.clock.now()),
        )


def delivery(db, rng: random.Random, scale) -> int:
    """Deliver the oldest undelivered order per district; returns count."""
    w_id = rng.randint(1, scale.warehouses)
    delivered = 0
    with db.transaction() as txn:
        for d_id in range(1, scale.districts_per_warehouse + 1):
            pending = list(
                db.scan("new_order", (w_id, d_id, 0), (w_id, d_id, 2**31))
            )
            if not pending:
                continue
            o_id = pending[0][2]
            db.delete(txn, "new_order", (w_id, d_id, o_id))
            order = db.get("orders", (w_id, d_id, o_id), txn)
            db.update(txn, "orders", (w_id, d_id, o_id), {"o_delivered": True})
            total = sum(
                line[6]
                for line in db.scan(
                    "order_line", (w_id, d_id, o_id, 0), (w_id, d_id, o_id, 2**31)
                )
            )
            customer = db.get("customer", (w_id, d_id, order[3]), txn)
            db.update(
                txn,
                "customer",
                (w_id, d_id, order[3]),
                {"c_balance": customer[4] + total},
            )
            delivered += 1
    return delivered


def order_status(reader, rng: random.Random, scale) -> tuple | None:
    """Read-only: a customer's latest order and its lines."""
    w_id = rng.randint(1, scale.warehouses)
    d_id = rng.randint(1, scale.districts_per_warehouse)
    c_id = rng.randint(1, scale.customers_per_district)
    customer = reader.get("customer", (w_id, d_id, c_id))
    if customer is None:
        return None
    latest = None
    for order in reader.scan("orders", (w_id, d_id, 0), (w_id, d_id, 2**31)):
        if order[3] == c_id:
            latest = order
    if latest is None:
        return customer, None, []
    lines = list(
        reader.scan(
            "order_line",
            (w_id, d_id, latest[2], 0),
            (w_id, d_id, latest[2], 2**31),
        )
    )
    return customer, latest, lines


def stock_level(reader, w_id: int, d_id: int, threshold: int) -> int:
    """The TPC-C stock-level procedure (the paper's as-of query).

    Counts distinct items from the district's last ``RECENT_ORDERS``
    orders whose stock quantity is below ``threshold``. Runs against a
    live database or an as-of snapshot unchanged.
    """
    district = reader.get("district", (w_id, d_id))
    if district is None:
        return 0
    next_o_id = district[3]
    lo_order = max(1, next_o_id - RECENT_ORDERS)
    item_ids = {
        line[4]
        for line in reader.scan(
            "order_line",
            (w_id, d_id, lo_order, 0),
            (w_id, d_id, next_o_id, 0),
        )
    }
    low = 0
    for i_id in sorted(item_ids):
        stock = reader.get("stock", (w_id, i_id))
        if stock is not None and stock[2] < threshold:
            low += 1
    return low
