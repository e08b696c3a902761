"""The TPC-C workload driver: transaction mix, pacing, throughput.

Runs the standard mix against a database while the simulated clock
advances through per-transaction CPU costs, log-manager costs and device
I/O — so ``tpm`` (transactions per simulated minute) is an output of the
cost model, exactly like the paper's tpmC is an output of their hardware.
A periodic :class:`~repro.engine.checkpoint.Checkpointer` keeps the
30-second recovery interval of the paper's section 6 configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.engine.checkpoint import Checkpointer
from repro.obs.timing import host_timing
from repro.workload.tpcc_schema import TpccScale
from repro.workload.tpcc_txns import (
    delivery,
    new_order,
    order_status,
    payment,
    stock_level,
)

#: The classic TPC-C mix.
DEFAULT_MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)
_NAMES = [name for name, _weight in DEFAULT_MIX]
_WEIGHTS = [weight for _name, weight in DEFAULT_MIX]


@dataclass
class TpccResult:
    """Outcome of one driver run."""

    transactions: int = 0
    committed: int = 0
    rolled_back: int = 0
    sim_seconds: float = 0.0
    real_seconds: float = 0.0
    checkpoints: int = 0
    by_type: dict = field(default_factory=dict)

    @property
    def tpm(self) -> float:
        """Transactions per simulated minute (the paper's tpmC analogue)."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.committed * 60.0 / self.sim_seconds

    @property
    def real_tps(self) -> float:
        """Engine throughput in real (host) transactions per second."""
        if self.real_seconds <= 0:
            return 0.0
        return self.committed / self.real_seconds


class TpccDriver:
    """Runs the TPC-C mix against one database."""

    def __init__(
        self,
        db,
        scale: TpccScale,
        seed: int = 1,
        #: Simulated per-transaction think/parse overhead.
        think_time_s: float = 0.0,
    ) -> None:
        self.db = db
        self.scale = scale
        self.rng = random.Random(seed)
        self.checkpointer = Checkpointer(db)
        self.think_time_s = think_time_s
        #: Called once per transaction when set (e.g.
        #: ``engine.replication_tick``) — the simulated stand-in for the
        #: shipper/apply daemons running alongside the workload.
        self.pump = None
        self._history_seq = 0

    def _run_one(self, result: TpccResult) -> None:
        kind = self.rng.choices(_NAMES, weights=_WEIGHTS)[0]
        result.by_type[kind] = result.by_type.get(kind, 0) + 1
        if self.think_time_s:
            self.db.env.clock.advance(self.think_time_s)
        committed = True
        if kind == "new_order":
            committed = new_order(self.db, self.rng, self.scale)
        elif kind == "payment":
            self._history_seq += 1
            payment(self.db, self.rng, self.scale, self._history_seq)
        elif kind == "order_status":
            with self.db.write_latch:
                order_status(self.db, self.rng, self.scale)
        elif kind == "delivery":
            delivery(self.db, self.rng, self.scale)
        elif kind == "stock_level":
            w_id = self.rng.randint(1, self.scale.warehouses)
            d_id = self.rng.randint(1, self.scale.districts_per_warehouse)
            with self.db.write_latch:
                stock_level(self.db, w_id, d_id, threshold=60)
        result.transactions += 1
        if committed:
            result.committed += 1
        else:
            result.rolled_back += 1
        if self.checkpointer.tick():
            result.checkpoints += 1
        if self.pump is not None:
            self.pump()

    def run_transactions(self, count: int) -> TpccResult:
        """Run exactly ``count`` transactions of the mix."""
        result = TpccResult()
        sim_start = self.db.env.clock.now()
        with host_timing() as timer:
            for _ in range(count):
                self._run_one(result)
        result.sim_seconds = self.db.env.clock.now() - sim_start
        result.real_seconds = timer.elapsed
        return result

    def run_for(self, sim_seconds: float) -> TpccResult:
        """Run until the simulated clock has advanced by ``sim_seconds``.

        Requires a cost model or think time that actually advances the
        clock (a zero-cost environment would never terminate).
        """
        result = TpccResult()
        sim_start = self.db.env.clock.now()
        deadline = sim_start + sim_seconds
        with host_timing() as timer:
            while self.db.env.clock.now() < deadline:
                before = self.db.env.clock.now()
                self._run_one(result)
                if self.db.env.clock.now() <= before and not self.think_time_s:
                    raise RuntimeError(
                        "run_for needs a cost model that advances the clock"
                    )
        result.sim_seconds = self.db.env.clock.now() - sim_start
        result.real_seconds = timer.elapsed
        return result

    def stock_level_as_of(
        self,
        engine,
        as_of,
        w_id: int = 1,
        d_id: int = 1,
        threshold: int = 60,
    ) -> int:
        """The paper's as-of query through the inline pooled path: no
        snapshot DDL, the view is leased from ``engine.snapshot_pool`` and
        released when the query returns."""
        with engine.query_as_of(self.db.name, as_of) as snapshot:
            return stock_level(snapshot, w_id, d_id, threshold)
