"""Inline time travel: point-in-time SQL with no snapshot ceremony.

Run with::

    python examples/inline_time_travel.py

The seed engine could already answer "what did this row look like at
12:05?" — but only through named-snapshot DDL the user had to create,
``USE`` and drop by hand. With the snapshot pool, any read can time-travel
inline::

    SELECT * FROM accounts AS OF '2012-03-22 17:26:25'

Repeated queries at the same instant share one pooled ephemeral snapshot
(its frames share the version store's copy of each page, prepared once),
concurrent sessions refcount it, and the pool evicts least-recently-used
snapshots under a byte budget.
This example walks an "oops" recovery end to end in SQL: accidental
deletes, inline historical reads to find the good state, and the
reconcile ``INSERT ... SELECT ... AS OF`` — all without a single
``CREATE DATABASE ... AS SNAPSHOT`` statement.
"""

from repro import Engine


def main() -> None:
    engine = Engine()
    clock = engine.env.clock
    session = engine.session()
    session.execute("CREATE DATABASE bank")
    session.execute("USE bank")
    session.execute(
        """
        CREATE TABLE accounts (
            id INT NOT NULL,
            owner VARCHAR(64) NOT NULL,
            balance FLOAT NOT NULL,
            PRIMARY KEY (id)
        )
        """
    )
    for i in range(8):
        session.execute(
            f"INSERT INTO accounts VALUES ({i}, 'owner-{i}', {100.0 * (i + 1)})"
        )

    clock.advance(60)
    t_good = clock.now()
    print(f"t_good = {t_good:.0f}s: "
          f"{session.execute('SELECT COUNT(*) FROM accounts').scalar()} accounts")

    # The application error: a sloppy DELETE wipes most of the table.
    clock.advance(60)
    session.execute("DELETE FROM accounts WHERE id > 1")
    remaining = session.execute("SELECT COUNT(*) FROM accounts").scalar()
    print(f"after the oops: {remaining} accounts remain")

    # Inline historical reads — no DDL, no USE, no DROP.
    total_then = session.execute(
        f"SELECT SUM(balance) FROM accounts AS OF {t_good}"
    ).scalar()
    print(f"inline AS OF {t_good:.0f}: total balance was {total_then:.2f}")

    # Repeated queries at the same instant hit the pool.
    for account_id in (5, 6, 7):
        row = session.execute(
            f"SELECT owner, balance FROM accounts AS OF {t_good} "
            f"WHERE id = {account_id}"
        ).rows[0]
        print(f"  as-of id={account_id}: {row[0]} {row[1]:.2f}")
    stats = engine.snapshot_pool.stats
    print(f"pool: {stats.misses} snapshot created, {stats.hits} reuses, "
          f"{engine.snapshot_pool.total_bytes()} bytes of frames")
    assert stats.misses == 1, "every query shared one pooled snapshot"

    # Reconcile: pull the lost rows back from the past, inline.
    session.execute(
        f"INSERT INTO accounts SELECT * FROM accounts AS OF {t_good} "
        f"WHERE id > 1"
    )
    total_now = session.execute("SELECT SUM(balance) FROM accounts").scalar()
    print(f"after reconcile: total balance {total_now:.2f}")
    assert abs(total_now - total_then) < 1e-6

    # The programmatic twin of the SQL above.
    with engine.query_as_of("bank", t_good) as snapshot:
        rows = list(snapshot.scan("accounts"))
    print(f"query_as_of lease saw {len(rows)} historical rows; "
          f"pool now: {engine.snapshot_pool!r}")

    # --- the repeated-audit loop -------------------------------------
    # An auditor re-checks several past instants over and over (think a
    # compliance dashboard). Pooled snapshots make the *same* instant
    # cheap; the cross-snapshot version store makes *nearby* instants
    # cheap too: each page image prepared once is keyed by the validity
    # interval its chain walk proved, so every audit point whose split
    # falls in the interval reuses it — even after the pool itself was
    # dropped under memory pressure.
    audit_points = []
    for step in range(4):
        clock.advance(30)
        audit_points.append(clock.now())
        session.execute(
            f"UPDATE accounts SET balance = balance + {step + 1} WHERE id = 0"
        )
    for audit_round in range(3):
        if audit_round:
            # Simulate pool-tier memory pressure between audit rounds.
            engine.snapshot_pool.clear()
        for when in audit_points:
            total = session.execute(
                f"SELECT SUM(balance) FROM accounts AS OF {when}"
            ).scalar()
            assert total is not None
    store = engine.version_store_stats()
    print(
        f"audit loop over {len(audit_points)} instants x3 rounds: "
        f"version store hit rate {store['hit_rate']:.0%} "
        f"({store['hits']} hits, {store['misses']} misses, "
        f"{store['versions']} stored versions, {store['bytes']} bytes)"
    )


if __name__ == "__main__":
    main()
