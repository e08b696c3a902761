"""Race-hunting stress suite for the concurrent multi-session engine.

The tentpole test: N worker threads hammer one engine with a mixed
TPC-C write / current-read / AS OF load through
``engine.run_sessions``, then the storm's wake is audited — checkdb
must come back clean, the snapshot pool must hold zero leases, and
every byte budget must balance. Failures here are races: a torn latch,
a lease leaked on an exception path, a dict mutated mid-iteration.

Discipline (enforced by reprolint): no ``time.sleep`` — threads
rendezvous on :class:`threading.Barrier` and the scheduler's blocking
joins do all waiting; the scheduler's faulthandler-armed timeout turns
a deadlock into a stack dump instead of a hung CI job.

Seeds are fixed so the workload *content* is reproducible; thread
interleavings of course are not, which is exactly what makes repeated
CI runs of this file a race hunt.
"""

from __future__ import annotations

import threading

import pytest

from repro.config import DatabaseConfig, SimEnv
from repro.core.split_lsn import find_split_lsn
from repro.engine.engine import Engine
from repro.engine.scheduler import SchedulerTimeout, SessionScheduler
from repro.tools.checkdb import check_database
from repro.wal.records import RecordType
from repro.workload import TpccDriver, TpccScale, load_tpcc
from tests.test_split_lsn import assert_walls_in_lsn_order, forward_scan_split
from tests.test_split_lsn import outcome as split_or_error

#: Small enough to storm quickly, large enough that writers collide on
#: real pages (two warehouses -> shared stock/district b-trees).
STRESS_SCALE = TpccScale(
    warehouses=2,
    districts_per_warehouse=2,
    customers_per_district=6,
    items=40,
)

#: Wall-clock budget per storm: far above any healthy run, low enough
#: that a deadlock fails the suite promptly (with thread stacks).
STORM_TIMEOUT_S = 90.0


def build_stress_engine(seed: int = 7):
    """(engine, db) with TPC-C loaded, monitor armed, ready to storm."""
    engine = Engine(SimEnv.for_tests())
    db = engine.create_database(
        "tpcc", DatabaseConfig(log_cache_blocks=16)
    )
    load_tpcc(db, STRESS_SCALE, seed=seed)
    engine.start_monitor()
    return engine, db


def make_mixed_tasks(engine, db, *, writers, readers, asof_sweeps, txns):
    """The mixed-session task list the storms run.

    Every task blocks on one barrier so the threads genuinely collide
    instead of draining sequentially through the queue.
    """
    total = writers + readers + asof_sweeps + 1
    barrier = threading.Barrier(total)
    results: dict[str, list] = {"writer": [], "reader": [], "asof": []}
    tally = threading.Lock()

    def writer_task(seed):
        def run():
            # Think time moves the shared clock between commits, so
            # concurrent commits race for the log with walls apart.
            driver = TpccDriver(db, STRESS_SCALE, seed=seed, think_time_s=0.001)
            barrier.wait(STORM_TIMEOUT_S)
            outcome = driver.run_transactions(txns)
            with tally:
                results["writer"].append(outcome)
            return outcome

        return run

    def reader_task(seed):
        def run():
            barrier.wait(STORM_TIMEOUT_S)
            seen = 0
            with engine.session("tpcc") as session:
                for _ in range(txns):
                    seen += session.execute(
                        "SELECT COUNT(*) FROM district"
                    ).scalar()
            with tally:
                results["reader"].append(seen)
            return seen

        return run

    def asof_task(seed):
        def run():
            driver = TpccDriver(db, STRESS_SCALE, seed=seed)
            barrier.wait(STORM_TIMEOUT_S)
            total_stock = 0
            for _ in range(max(2, txns // 4)):
                # "Now" moves with the writers' think time: each sweep
                # splits at the log's tip, with writers in flight as
                # losers and, on a pool miss, a fresh snapshot.
                now = engine.env.clock.now()
                total_stock += driver.stock_level_as_of(engine, now)
            with tally:
                results["asof"].append(total_stock)
            return total_stock

        return run

    def pump_task():
        barrier.wait(STORM_TIMEOUT_S)
        ticks = 0
        for _ in range(txns):
            engine.replication_tick()
            ticks += 1
        return ticks

    tasks = [writer_task(100 + i) for i in range(writers)]
    tasks += [reader_task(200 + i) for i in range(readers)]
    tasks += [asof_task(300 + i) for i in range(asof_sweeps)]
    tasks.append(pump_task)
    return tasks, results


def assert_storm_clean(engine, db, results, *, writers):
    """The post-storm audit every stress variant shares."""
    report = check_database(db)
    assert report.ok, f"checkdb found corruption after the storm: {report}"

    pool = engine.snapshot_pool
    assert pool.active_leases() == 0, "a session leaked a pooled lease"
    assert 0 <= pool.total_bytes() <= pool.budget_bytes
    store = engine.version_store
    assert 0 <= store.total_bytes() <= store.budget_bytes

    committed = sum(r.committed for r in results["writer"])
    rolled_back = sum(r.rolled_back for r in results["writer"])
    attempted = sum(r.transactions for r in results["writer"])
    assert len(results["writer"]) == writers
    assert committed + rolled_back == attempted
    assert committed > 0, "the storm never committed anything"


class TestMixedStorm:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_mixed_load_storm_leaves_engine_clean(self, workers):
        engine, db = build_stress_engine()
        writers = max(1, workers // 2)
        readers = max(1, workers // 4)
        asof_sweeps = max(1, workers // 4)
        tasks, results = make_mixed_tasks(
            engine,
            db,
            writers=writers,
            readers=readers,
            asof_sweeps=asof_sweeps,
            txns=25,
        )
        engine.run_sessions(
            tasks, workers=max(workers, len(tasks)), timeout_s=STORM_TIMEOUT_S
        )
        assert_storm_clean(engine, db, results, writers=writers)
        # The log stamps each wall with its LSN: in order whatever the
        # interleaving, so the directories answer every commit's time as
        # section 5.1's forward scan does.
        assert_walls_in_lsn_order(db.log)
        commits = db.log.scan(db.log.start_lsn, types=(RecordType.COMMIT,))
        walls = sorted({rec.wall_clock for rec in commits})
        assert len(walls) > writers
        db.env.clock.advance(1.0)  # every wall in the past
        for wall in walls:
            assert split_or_error(find_split_lsn, db, wall) == split_or_error(
                forward_scan_split, db, wall
            ), wall

    def test_storm_with_concurrent_pool_pressure(self):
        """AS OF sweeps under a tiny pool budget force eviction races:
        leases must survive concurrent evict_to_budget storms."""
        engine, db = build_stress_engine()
        engine.snapshot_pool.set_budget(1 << 16)
        tasks, results = make_mixed_tasks(
            engine, db, writers=2, readers=1, asof_sweeps=4, txns=12
        )
        engine.run_sessions(tasks, workers=8, timeout_s=STORM_TIMEOUT_S)
        assert_storm_clean(engine, db, results, writers=2)

    def test_results_come_back_in_task_order(self):
        engine, _db = build_stress_engine()
        tasks = [lambda i=i: i * i for i in range(20)]
        assert engine.run_sessions(tasks, workers=6) == [
            i * i for i in range(20)
        ]

    def test_first_task_exception_reraises(self):
        engine, _db = build_stress_engine()

        def boom():
            raise ValueError("task 3 exploded")

        tasks = [lambda: 1, lambda: 2, lambda: 3, boom]
        with pytest.raises(ValueError, match="task 3 exploded"):
            engine.run_sessions(tasks, workers=4)


class TestSchedulerContract:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SessionScheduler(0)

    def test_empty_batch_is_a_noop(self):
        assert SessionScheduler(4).run([]) == []

    def test_timeout_dumps_and_raises(self):
        """A wedged worker (here: parked on an Event nobody sets until
        after the timeout) must raise SchedulerTimeout, not hang."""
        release = threading.Event()

        def wedged():
            release.wait(30.0)

        try:
            with pytest.raises(SchedulerTimeout):
                SessionScheduler(1).run([wedged], timeout_s=0.25)
        finally:
            release.set()


class TestWriteSerialization:
    def test_explicit_sessions_interleave_atomically(self):
        """Two sessions running explicit BEGIN..COMMIT batches against
        one table: every batch's rows land contiguously committed (the
        write latch spans the whole explicit transaction)."""
        engine = Engine(SimEnv.for_tests())
        db = engine.create_database("bank")
        engine.sql(
            "CREATE TABLE accounts (id INT NOT NULL, balance INT, PRIMARY KEY (id))",
            database="bank",
        )
        with db.transaction() as txn:
            for i in range(4):
                db.insert(txn, "accounts", (i, 100))
        barrier = threading.Barrier(2)

        def transfer(amount, rounds):
            def run():
                barrier.wait(STORM_TIMEOUT_S)
                with engine.session("bank") as session:
                    for _ in range(rounds):
                        session.execute("BEGIN")
                        a = session.execute(
                            "SELECT balance FROM accounts WHERE id = 0"
                        ).scalar()
                        b = session.execute(
                            "SELECT balance FROM accounts WHERE id = 1"
                        ).scalar()
                        session.execute(
                            f"UPDATE accounts SET balance = {a - amount} "
                            f"WHERE id = 0"
                        )
                        session.execute(
                            f"UPDATE accounts SET balance = {b + amount} "
                            f"WHERE id = 1"
                        )
                        session.execute("COMMIT")

            return run

        engine.run_sessions(
            [transfer(5, 20), transfer(-3, 20)],
            workers=2,
            timeout_s=STORM_TIMEOUT_S,
        )
        rows = engine.sql(
            "SELECT balance FROM accounts ORDER BY id", database="bank"
        ).rows
        total = sum(r[0] for r in rows)
        assert total == 400, "a transfer tore: money was created/destroyed"
        assert check_database(db).ok

    def test_session_close_releases_write_latch(self):
        """An abandoned explicit transaction must not wedge the engine:
        close() rolls it back and releases the write latch."""
        engine = Engine(SimEnv.for_tests())
        db = engine.create_database("shop")
        engine.sql(
            "CREATE TABLE t (id INT NOT NULL, v INT, PRIMARY KEY (id))", database="shop"
        )
        session = engine.session("shop")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, 1)")
        session.close()  # rollback + latch release, no COMMIT
        # Another session can immediately write; the abandoned insert
        # is gone.
        engine.sql("INSERT INTO t VALUES (2, 2)", database="shop")
        rows = engine.sql("SELECT id FROM t", database="shop").rows
        assert rows == [(2,)]
        assert db.write_latch.acquisitions > 0


class TestLatchCounters:
    def test_contention_is_observable(self):
        """The storm's latch traffic shows up in the Latch counters the
        concurrency bench reports."""
        engine, db = build_stress_engine()
        tasks, results = make_mixed_tasks(
            engine, db, writers=2, readers=2, asof_sweeps=2, txns=10
        )
        engine.run_sessions(tasks, workers=7, timeout_s=STORM_TIMEOUT_S)
        assert db.write_latch.acquisitions > 0
        assert engine.snapshot_pool.latch.acquisitions > 0
        assert db.log.latch.acquisitions > 0
        for latch in (db.write_latch, engine.snapshot_pool.latch):
            assert 0.0 <= latch.contention_ratio() <= 1.0
            stats = latch.stats()
            assert stats["acquisitions"] >= stats["contentions"]
