"""Read scale-out and delayed-apply error recovery with log shipping.

Run with::

    python examples/replication_read_scaleout.py

The transaction log already contains everything needed to materialize any
state of the database — so shipping that one stream to standbys gives
read scale-out and a safety net in a single mechanism. This example walks
both halves:

1. **Read offload.** A warm standby follows the primary by continuous
   redo apply. Current ``SELECT``\\ s route to it once offload is enabled,
   and inline ``AS OF`` reads are served from the *standby's* snapshot
   pool — the primary's media never sees the time-travel work.
2. **Delayed apply.** A second standby applies the stream on a delay.
   When an "oops" (a dropped table) slips past the primary's retention
   horizon, the delayed standby still holds the whole timeline: read the
   pre-drop state from inside its window, or promote it into a writable
   database cut just before the error.
"""

from repro import Engine


def main() -> None:
    engine = Engine()
    clock = engine.env.clock
    session = engine.session()
    session.execute("CREATE DATABASE shop")
    session.execute("USE shop")
    session.execute(
        """
        CREATE TABLE orders (
            id INT NOT NULL,
            customer VARCHAR(64) NOT NULL,
            total FLOAT NOT NULL,
            PRIMARY KEY (id)
        )
        """
    )
    session.execute("ALTER DATABASE shop SET UNDO_INTERVAL = 2 MINUTES")
    for i in range(10):
        session.execute(
            f"INSERT INTO orders VALUES ({i}, 'cust-{i % 3}', {25.0 * (i + 1)})"
        )

    # -- 1. a warm standby absorbing reads -----------------------------
    standby = engine.add_replica("shop", "shop_standby")
    print(f"standby attached: {standby!r}")

    engine.enable_read_offload()
    count = session.execute("SELECT COUNT(*) FROM orders").scalar()
    print(f"offloaded SELECT sees {count} orders (lag {standby.lag_bytes()}B)")

    clock.advance(30)
    session.execute("INSERT INTO orders VALUES (10, 'cust-0', 999.0)")
    engine.replication_tick()  # the shipping/apply daemons' heartbeat
    t_good = clock.now()
    clock.advance(5)

    # Inline time travel served by the standby: the engine's pool leases a
    # snapshot over the standby's state, not the primary's.
    with engine.query_as_of("shop", t_good) as snap:
        historical = sum(1 for _ in snap.scan("orders"))
        served_by = snap.db.name
    print(
        f"AS OF {t_good:.0f}s saw {historical} orders — served by "
        f"{served_by} (engine pool misses: {engine.snapshot_pool.stats.misses})"
    )

    # -- 2. the delayed-apply safety net -------------------------------
    delayed = engine.add_replica(
        "shop", "shop_delayed", apply_delay_s=10 * 60.0
    )
    clock.advance(20)
    t_before_oops = clock.now()
    clock.advance(1)
    session.execute("DROP TABLE orders")  # the application error
    engine.replication_tick()

    # Time passes; the primary's 2-minute retention crosses the drop.
    db = engine.database("shop")
    for _ in range(4):
        clock.advance(60)
        db.checkpoint()
        engine.replication_tick()
    db.enforce_retention()

    # The primary's own pool can no longer rewind past the horizon. (The
    # engine's query_as_of would transparently fall over to a standby —
    # any standby extends the reachable history — so probe the primary
    # pool directly to see the paper's retention limit bite.)
    from repro.errors import RetentionExceededError

    try:
        with engine.snapshot_pool.lease(db, t_before_oops):
            pass
        raise AssertionError("primary should no longer reach before the drop")
    except RetentionExceededError as err:
        print(f"primary rewind fails as expected: {type(err).__name__}")

    # The delayed standby still holds the whole shipped timeline.
    with engine.query_as_of("shop", t_before_oops, replica="shop_delayed") as snap:
        rescued = list(snap.scan("orders"))
    print(f"delayed standby reads {len(rescued)} orders from before the drop")

    # Or cut a writable database just before the error.
    recovered = engine.promote_replica("shop_delayed", up_to=t_before_oops)
    rows = session.execute("SELECT COUNT(*) FROM shop_delayed.orders").scalar()
    print(f"promoted {recovered.name!r}: {rows} orders on the recovered timeline")
    assert rows == len(rescued) == 11


if __name__ == "__main__":
    main()
