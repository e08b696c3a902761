"""Engine-level session scheduler (ROADMAP item 1).

Dispatches a batch of session tasks — SQL sessions, replication ticks,
AS OF sweeps — across a pool of worker threads against one engine.
``Engine.run_sessions`` is the public surface; this module owns the
thread plumbing.

Design constraints:

* **Tasks are callables**, each run entirely on one worker thread, so a
  task may open a SQL session, BEGIN/COMMIT explicit transactions, and
  hold the per-database write latch across statements (RLocks are
  thread-affine).
* **Results come back in task order**, exceptions included: the first
  task exception is re-raised on the caller's thread after every worker
  drains, so a stress run can't silently swallow a torn invariant.
* **Deadlocks fail fast.** The join takes a wall-clock timeout; on
  expiry the scheduler dumps every thread's stack via :mod:`faulthandler`
  and raises, instead of hanging the runner. (No polling sleeps — the
  engine's replay-determinism lint bans ``time.sleep`` engine-wide;
  blocking queue gets and joins do the waiting.)
"""

from __future__ import annotations

import faulthandler
import queue
import sys
import threading

#: Default per-run wall-clock budget before the scheduler declares a
#: hang, dumps stacks, and raises (seconds, host clock — failure path
#: only, never part of simulated results).
DEFAULT_TIMEOUT_S = 120.0


class SchedulerTimeout(RuntimeError):
    """A session batch did not finish inside the wall-clock budget."""


class SessionScheduler:
    """Runs batches of callables on ``workers`` threads."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers

    def run(self, tasks, timeout_s: float = DEFAULT_TIMEOUT_S) -> list:
        """Run every task; return their results in task order.

        Tasks start in submission order and run concurrently, up to
        ``workers`` at a time. If any task raised, the first (by task
        index) exception is re-raised after all workers finish.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        work: queue.Queue = queue.Queue()
        for idx, task in enumerate(tasks):
            work.put((idx, task))
        results: list = [None] * len(tasks)
        failures: list = [None] * len(tasks)

        def worker() -> None:
            while True:
                try:
                    idx, task = work.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[idx] = task()
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    failures[idx] = exc

        threads = [
            threading.Thread(target=worker, name=f"session-{i}", daemon=True)
            for i in range(min(self.workers, len(tasks)))
        ]
        for thread in threads:
            thread.start()
        self._join(threads, timeout_s)
        for exc in failures:
            if exc is not None:
                raise exc
        return results

    def _join(self, threads, timeout_s: float) -> None:
        for thread in threads:
            thread.join(timeout_s)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        if stuck:
            # A worker is wedged — almost certainly a latch-ordering
            # deadlock. Dump every thread's stack so CI shows *where*
            # instead of timing out silently, then raise.
            faulthandler.dump_traceback(file=sys.stderr)
            raise SchedulerTimeout(
                f"session workers still running after {timeout_s:.0f}s: "
                f"{', '.join(stuck)}"
            )
