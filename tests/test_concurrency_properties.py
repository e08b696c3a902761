"""Property-based concurrency invariants for the pooled shared structures.

Hypothesis draws a *schedule* — which thread acquires which as-of point,
when budgets shrink, which version-store pages get published and
collected — and a barrier releases all threads at once so the drawn
operations genuinely interleave. The invariants under test are the
accounting laws the latches exist to protect:

* snapshot-pool bytes and refcounts never go negative, every lease is
  returned, and after all releases + a ``clear()`` the pool holds zero
  bytes and zero leases;
* version-store bytes equal the sum of resident version payloads at all
  times a thread can observe them, never exceed the budget after an
  evict, and drain to zero after ``purge``.

Schedules are short (threads are expensive) but every example runs a
real multi-threaded collision; no ``time.sleep`` anywhere — barriers
only (RL003).
"""

from __future__ import annotations

import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimEnv
from repro.core.version_store import PageVersionStore
from repro.engine.engine import Engine
from tests.conftest import ITEMS_SCHEMA, fill_items, pool_entries

BARRIER_TIMEOUT_S = 30.0

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _build_history(engine):
    """A small database with three distinct as-of points."""
    db = engine.create_database("histdb")
    db.create_table(ITEMS_SCHEMA)
    points = []
    for round_no in range(3):
        fill_items(db, 5, start=round_no * 5)
        points.append(db.env.clock.now())
        db.env.clock.advance(10)
    return db, points


# ---------------------------------------------------------------------------
# SnapshotPool: concurrent acquire/release/evict schedules
# ---------------------------------------------------------------------------

#: Per-thread schedule: a list of (point_index, evict_after?) rounds.
_pool_schedule = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.booleans()),
    min_size=1,
    max_size=4,
)


class TestSnapshotPoolSchedules:
    @_SETTINGS
    @given(
        schedules=st.lists(_pool_schedule, min_size=2, max_size=4),
        budget=st.integers(min_value=1 << 12, max_value=1 << 22),
    )
    def test_concurrent_lease_storms_balance(self, schedules, budget):
        engine = Engine(SimEnv.for_tests())
        db, points = _build_history(engine)
        pool = engine.snapshot_pool
        pool.set_budget(budget)
        barrier = threading.Barrier(len(schedules))
        failures = []

        def run_schedule(schedule):
            def run():
                barrier.wait(BARRIER_TIMEOUT_S)
                for point_idx, evict_after in schedule:
                    snapshot = pool.acquire(db, points[point_idx])
                    try:
                        # A leased snapshot must stay readable even while
                        # other threads evict around it.
                        assert snapshot.get("items", (0,)) is not None
                        observed = pool.total_bytes()
                        if not 0 <= observed:
                            failures.append(f"negative bytes: {observed}")
                    finally:
                        pool.release(snapshot)
                    if evict_after:
                        pool.evict_to_budget()

            return run

        engine.run_sessions(
            [run_schedule(s) for s in schedules],
            workers=len(schedules),
            timeout_s=BARRIER_TIMEOUT_S,
        )
        assert failures == []
        assert pool.active_leases() == 0
        assert pool.total_bytes() >= 0
        pool.evict_to_budget()
        assert pool.total_bytes() <= pool.budget_bytes
        pool.clear()
        assert pool.total_bytes() == 0
        assert len(pool) == 0

    @_SETTINGS
    @given(schedules=st.lists(_pool_schedule, min_size=2, max_size=3))
    def test_refcounts_never_strand_an_entry(self, schedules):
        """After every thread balances its acquires with releases, no
        pooled entry may report a nonzero refcount."""
        engine = Engine(SimEnv.for_tests())
        db, points = _build_history(engine)
        pool = engine.snapshot_pool
        barrier = threading.Barrier(len(schedules))

        def run_schedule(schedule):
            def run():
                barrier.wait(BARRIER_TIMEOUT_S)
                held = []
                for point_idx, release_now in schedule:
                    held.append(pool.acquire(db, points[point_idx]))
                    if release_now:
                        pool.release(held.pop())
                # Balance whatever is still held, in LIFO order.
                while held:
                    pool.release(held.pop())

            return run

        engine.run_sessions(
            [run_schedule(s) for s in schedules],
            workers=len(schedules),
            timeout_s=BARRIER_TIMEOUT_S,
        )
        assert pool.active_leases() == 0
        for _name, _split, refcount, _bytes in pool_entries(pool):
            assert refcount == 0


# ---------------------------------------------------------------------------
# PageVersionStore: concurrent publish/lookup/gc schedules
# ---------------------------------------------------------------------------

#: Per-thread schedule: (page_id, version_lsn, do_gc?) rounds. The limit
#: LSN is derived as version_lsn + 10 so every publish is admissible.
_store_schedule = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=100),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


class TestVersionStoreSchedules:
    @_SETTINGS
    @given(
        schedules=st.lists(_store_schedule, min_size=2, max_size=4),
        budget=st.integers(min_value=256, max_value=1 << 16),
    )
    def test_concurrent_publish_gc_accounting(self, schedules, budget):
        store = PageVersionStore(budget_bytes=budget)
        barrier = threading.Barrier(len(schedules))
        payload = bytes(64)
        failures = []

        def run_schedule(thread_no, schedule):
            def run():
                barrier.wait(BARRIER_TIMEOUT_S)
                key = f"history-{thread_no % 2}"
                for page_id, version_lsn, do_gc in schedule:
                    store.publish(
                        key, page_id, version_lsn, version_lsn + 10, payload
                    )
                    hit = store.lookup(key, page_id, version_lsn + 5)
                    if hit is not None and hit != payload:
                        failures.append("lookup returned a torn payload")
                    observed = store.total_bytes()
                    if observed < 0:
                        failures.append(f"negative bytes: {observed}")
                    if do_gc:
                        store.gc(key, version_lsn)

            return run

        threads = [
            threading.Thread(target=run_schedule(i, s), daemon=True)
            for i, s in enumerate(schedules)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(BARRIER_TIMEOUT_S)
            assert not thread.is_alive(), "version-store schedule wedged"
        assert failures == []
        # Every payload is the same 64 bytes, so the byte ledger must be
        # exactly 64 * resident-version-count — any drift is a lost or
        # double-counted eviction.
        assert store.total_bytes() == store.version_count() * len(payload)
        assert store.total_bytes() <= store.budget_bytes
        store.evict_to_budget()
        assert store.total_bytes() <= store.budget_bytes
        store.purge("history-0")
        store.purge("history-1")
        assert store.total_bytes() == 0
        assert store.version_count() == 0
