"""Application error recovery by transaction: see what a bad transaction
did, take it back, and check the rows against the database as it was.

Run with::

    python examples/undo_bad_transaction.py

A buggy batch job marks down every price by 90 % in one transaction,
among ordinary traffic before and after it. The steps:

1. *See what it did* — ``transaction_history`` lists the transaction's
   log records, newest first. The log's transaction directory names its
   COMMIT, so finding it reads that one record, not the log.
2. *Take it back* — ``undo_transaction`` compensates exactly its row
   changes, as a new, logged transaction. A later write to the same row
   is a conflict, reported here (``conflict_policy="skip"``) and kept.
3. *Check* — every row the bad transaction touched and nothing later
   changed now equals the row AS OF just before it ran.
"""

from repro import Engine
from repro.core.txn_undo import undo_transaction
from repro.tools import describe_record, transaction_history


def prices(sql, table: str = "products") -> dict:
    return dict(sql.execute(f"SELECT id, price FROM {table} ORDER BY id").rows)


def main() -> None:
    engine = Engine()
    db = engine.create_database("shop")
    clock = engine.env.clock
    sql = engine.session("shop")
    sql.execute(
        "CREATE TABLE products (id INT NOT NULL, name VARCHAR(40) NOT NULL, "
        "price FLOAT NOT NULL, PRIMARY KEY (id))"
    )
    sql.execute(
        "INSERT INTO products VALUES (1,'kettle',30.0),(2,'toaster',45.0),"
        "(3,'blender',80.0),(4,'grinder',25.0)"
    )
    sql.execute("ALTER DATABASE shop SET UNDO_INTERVAL = 24 HOURS")
    clock.advance(600)

    # The bad batch job, as one transaction.
    before_bad = clock.now()
    clock.advance(1)
    with db.transaction() as bad:
        for product_id in (1, 2, 3, 4):
            old = db.get("products", (product_id,))
            db.update(bad, "products", (product_id,), {"price": round(old[2] * 0.1, 2)})
    clock.advance(300)
    # Later traffic: a new product, and a deliberate repricing of one the
    # bad job had touched.
    sql.execute("INSERT INTO products VALUES (5,'scale',15.0)")
    sql.execute("UPDATE products SET price = 7.5 WHERE id = 4")
    clock.advance(300)
    print("prices now:", prices(sql))

    # --- Step 1: what did transaction `bad` do?
    history = transaction_history(db, bad.txn_id)
    print(f"\ntransaction {bad.txn_id}, newest record first:")
    for record in history:
        print("  " + describe_record(record))
    assert type(history[0]).__name__ == "CommitRecord"
    assert type(history[-1]).__name__ == "BeginRecord"
    assert len(history) == 6  # BEGIN, four updates, COMMIT

    # --- Step 2: take it back; the later repricing of 4 is kept.
    report = undo_transaction(db, bad.txn_id, conflict_policy="skip")
    print(f"\nundone: {report.undone} rows, kept: {report.conflicts}")
    assert report.undone == 3 and len(report.conflicts) == 1
    clock.advance(60)

    # --- Step 3: the rows as they were just before the bad job.
    stamp = clock.to_datetime(before_bad).replace(tzinfo=None).isoformat(sep=" ")
    sql.execute(f"CREATE DATABASE shop_before AS SNAPSHOT OF shop AS OF '{stamp}'")
    then, now = prices(sql, "shop_before.products"), prices(sql)
    print("prices before the bad job:", then)
    print("prices after the undo:    ", now)
    assert all(now[product_id] == then[product_id] for product_id in (1, 2, 3))
    assert now[4] == 7.5 and now[5] == 15.0
    sql.execute("DROP DATABASE shop_before")


if __name__ == "__main__":
    main()
