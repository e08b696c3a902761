"""The five workloads: what each builds, what an op is, and its oracle.

All are single-threaded closed loops with one client: an op starts when
the previous one returns. Every fixture is a fresh simulated machine on
SLC-SSD pricing with the default CPU cost model, one database named
``tpcc``, and the engine's default flush policy (every commit forces
the log). Inputs come from ``seed`` alone; op counts are fixed, so the
sim clock and every counter repeat exactly.

The oracle lives inside the run: while a history is built, the answer
each later AS OF / restore / standby read must give is recorded at the
moment its instant is "now". An op raises :class:`WrongAnswer` when the
engine disagrees.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from repro import SAS_10K, SLC_SSD, DatabaseConfig, Engine
from repro.bench.harness import BENCH_SCALE, make_perf_env
from repro.tools.checkdb import check_database
from repro.workload import TpccDriver, TpccScale, add_filler_table, load_tpcc, stock_level

DB = "tpcc"
THRESHOLD = 60  # stock-level threshold, the paper's query
HISTORY_THINK_S = 0.05  # sim think per history txn: 20 txn per sim second

TINY_SCALE = TpccScale(warehouses=1, districts_per_warehouse=2, customers_per_district=8, items=40)

#: Sizes per scale. Op counts are fixed, so that the sim clock and every
#: counter repeat exactly; at ``full`` they are sized from seed probes on
#: 2 shared cores so that the measured phase takes 11 to 20 host seconds
#: and a whole run about 20. Histories are shorter than the issue's:
#: on its 3000-transaction history one ``asof_cold`` run took 40 s, and
#: the driver's 114 runs have 3420 s between them.
SIZES = {
    "full": {
        "tpcc_oltp": {
            "scale": TpccScale(warehouses=8, districts_per_warehouse=10,
                               customers_per_district=60, items=1000),
            "pool_pages": 128, "think_s": 0.05, "ops": 4000,
        },
        "tpcc_asof_mix": {
            "scale": BENCH_SCALE, "warmup_ops": 520, "think_s": 0.05, "asof_every": 12,
            "back_s": 20.0, "budget_bytes": 4 << 20, "ops": 2500,
        },
        "asof_cold": {"scale": BENCH_SCALE, "history": 800, "log_cache_blocks": 4, "ops": 200},
        "sql_audit": {
            "scale": BENCH_SCALE, "history": 800, "log_cache_blocks": 4, "pinned": 8,
            "per_pin": 8, "ops": 300,
        },
        "recover_routes": {
            "scale": BENCH_SCALE, "history": 800, "filler_pages": 400, "ops": 60,
        },
    },
    "tiny": {
        "tpcc_oltp": {"scale": TINY_SCALE, "pool_pages": 16, "think_s": 0.05, "ops": 40},
        "tpcc_asof_mix": {
            "scale": TINY_SCALE, "warmup_ops": 40, "think_s": 0.05, "asof_every": 10,
            "back_s": 1.0, "budget_bytes": 64 << 10, "ops": 30,
        },
        "asof_cold": {"scale": TINY_SCALE, "history": 60, "log_cache_blocks": 2, "ops": 12},
        "sql_audit": {
            "scale": TINY_SCALE, "history": 60, "log_cache_blocks": 2, "pinned": 2,
            "per_pin": 4, "ops": 20,
        },
        "recover_routes": {"scale": TINY_SCALE, "history": 40, "filler_pages": 8, "ops": 6},
    },
}

#: The two counters only ``recover_routes`` has (the shipper's registry
#: entry, and the standby redo count no registry keeps past the op).
#: The other fixtures carry them as zeros, so that a counter sheet
#: without a key it is asked for is an error, not a silent 0.
NO_RECOVERY = {"shipper.tpcc.bytes_shipped": 0, "perflab.standby_records_applied": 0}


class WrongAnswer(Exception):
    """The engine answered, and the oracle disagrees."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, oracle says {want!r}")


class Op(NamedTuple):
    kind: str  # one of metrics.OP_KINDS
    run: Callable[[], None]
    think_s: float = 0.0  # sim think inside the op, excluded from sim_s_per_op


@dataclass
class Fixture:
    engine: Engine
    db: object
    ops: list[Op]
    #: Problems found after the measured phase (empty list = clean).
    verify: Callable[[], list[str]]
    #: Hash of the seed-derived inputs, to show two seeds differ.
    digest: str = ""
    #: Counters the metrics registry does not hold; see ``NO_RECOVERY``.
    extra: dict = field(default_factory=NO_RECOVERY.copy)


class Mark(NamedTuple):
    """An instant, and what a stock-level of (w, d) returned when it was now."""

    t: float
    w: int
    d: int
    answer: int


class DealtMix(random.Random):
    """The driver's generator, except that ``choices`` — which the driver
    calls once per transaction to pick its type — deals from a shuffled
    deck holding the population in the exact shares of its weights.

    Drawn independently, the standard mix's 45 % new-orders alone moved
    ``log_bytes_per_op`` and ``sim_s_per_op`` by 4 % between seeds (ten
    seeds, 2500 transactions each); dealt, a seed changes the order and
    the keys but not how much work the mix is.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._deck: list = []

    def choices(self, population, weights=None, *, cum_weights=None, k=1):
        if weights is None or k != 1:
            return super().choices(population, weights, cum_weights=cum_weights, k=k)
        if not self._deck:
            self._deck = [
                item for item, weight in zip(population, weights, strict=True)
                for _ in range(round(weight * 100))
            ]
            self.shuffle(self._deck)
        return [self._deck.pop()]


def _driver(db, scale: TpccScale, seed: int, think_s: float) -> TpccDriver:
    driver = TpccDriver(db, scale, seed=seed, think_time_s=think_s)
    driver.rng = DealtMix(seed)
    return driver


def _digest(db, *plan) -> str:
    return hashlib.sha1(repr((db.log.end_lsn, plan)).encode()).hexdigest()[:16]


def _spread_instants(history: int, count: int) -> list[int]:
    """``count`` distinct transaction indices spread evenly over the
    history past its first tenth: the seed picks districts and order,
    not how far back the ops reach."""
    first = history // 10
    return [first + i * (history - first) // count for i in range(count)]


def _district(rng: random.Random, scale: TpccScale) -> tuple[int, int]:
    return rng.randint(1, scale.warehouses), rng.randint(1, scale.districts_per_warehouse)


def _checkdb(target, label: str) -> list[str]:
    return [f"{label}: {problem}" for problem in check_database(target).problems]


def _history_with_marks(driver, db, txns: int, mark_after: dict[int, tuple[int, int]]) -> list:
    """Run ``txns`` transactions; after transaction ``i`` in ``mark_after``
    record a :class:`Mark` for that district. The next transaction starts
    with think time, so every later commit is strictly after the mark."""
    marks = []
    done = 0
    for index in sorted(mark_after):
        driver.run_transactions(index - done)
        done = index
        w, d = mark_after[index]
        now = db.env.clock.now()
        marks.append(Mark(now, w, d, stock_level(db, w, d, THRESHOLD)))
    driver.run_transactions(txns - done)
    return marks


# ----------------------------------------------------------------------
# tpcc_oltp — larger-than-memory OLTP; the AS OF layers do nothing
# ----------------------------------------------------------------------

def tpcc_oltp(seed: int, size: dict) -> Fixture:
    scale = size["scale"]
    engine = Engine(make_perf_env(SLC_SSD))
    db = engine.create_database(DB, DatabaseConfig(buffer_pool_pages=size["pool_pages"]))
    load_tpcc(db, scale, seed=seed)
    driver = _driver(db, scale, seed, size["think_s"])
    mix: Counter = Counter()

    def txn() -> None:
        mix.update(driver.run_transactions(1).by_type)

    def verify() -> list[str]:
        # TPC-C consistency conditions on the final state, then checkdb.
        problems = _checkdb(db, "live")
        for w in range(1, scale.warehouses + 1):
            w_ytd = db.get("warehouse", (w,))[2]
            d_ytd = 0.0
            for d in range(1, scale.districts_per_warehouse + 1):
                district = db.get("district", (w, d))
                d_ytd += district[4]
                orders = [row[2] for row in db.scan("orders", (w, d, 0), (w, d, 2**31))]
                if orders != list(range(1, district[3])):
                    problems.append(f"district ({w},{d}): order ids do not tile 1..next_o_id")
            if abs(w_ytd - d_ytd) > 1e-6 * max(1.0, abs(w_ytd)):
                problems.append(f"warehouse {w}: w_ytd {w_ytd} != sum(d_ytd) {d_ytd}")
        if db.table("history").count() != mix["payment"]:
            problems.append("history rows != payments run")
        return problems

    plan = [Op("txn", txn, size["think_s"])] * size["ops"]
    return Fixture(engine, db, plan, verify, _digest(db))


# ----------------------------------------------------------------------
# tpcc_asof_mix — the same mix with AS OF reads against a moving log
# ----------------------------------------------------------------------

def tpcc_asof_mix(seed: int, size: dict) -> Fixture:
    """Section 6.3's loop. Op ``i`` is a TPC-C transaction, except:
    ``i % every == every // 2`` reads the current stock-level of a seeded
    district and keeps it as a mark; ``i % every == every - 1`` asks the
    same question AS OF the newest mark at least ``back_s`` sim-seconds
    old. The warm-up (part of set-up) runs ``warmup_ops`` of the same
    stream without its AS OF reads: long enough that such a mark exists
    (an op without one fails with ``StopIteration``)."""
    scale, every = size["scale"], size["asof_every"]
    engine = Engine(
        make_perf_env(SLC_SSD),
        snapshot_pool_budget=size["budget_bytes"],
        version_store_budget=size["budget_bytes"],
    )
    db = engine.create_database(DB)
    load_tpcc(db, scale, seed=seed)
    driver = _driver(db, scale, seed, size["think_s"])
    rng = random.Random(f"tpcc_asof_mix:{seed}")
    clock = db.env.clock
    marks: list[Mark] = []

    def txn() -> None:
        driver.run_transactions(1)

    def take_mark() -> None:
        w, d = _district(rng, scale)
        marks.append(Mark(clock.now(), w, d, stock_level(db, w, d, THRESHOLD)))

    def asof() -> None:
        horizon = clock.now() - size["back_s"]
        mark = next(m for m in reversed(marks) if m.t <= horizon)
        got = driver.stock_level_as_of(engine, mark.t, mark.w, mark.d, THRESHOLD)
        expect(got, mark.answer, f"stock-level of ({mark.w},{mark.d}) as of {mark.t:.3f}")

    def op(index: int) -> Op:
        if index % every == every // 2:
            return Op("txn", take_mark)
        if index % every == every - 1:
            return Op("asof", asof)
        return Op("txn", txn, size["think_s"])

    warmup = size["warmup_ops"]
    for index in range(warmup):
        if index % every != every - 1:
            op(index).run()
    return Fixture(
        engine, db, [op(warmup + index) for index in range(size["ops"])],
        lambda: _checkdb(db, "live"), _digest(db, marks),
    )


# ----------------------------------------------------------------------
# asof_cold — every op a pool miss on a static history
# ----------------------------------------------------------------------

#: The static history is one database, the same for every seed: the
#: seed draws the questions put to it. Seeded histories of equal length
#: differed by a quarter in the undo chain of their hottest page (every
#: district shares one), which moved ``sim_s_per_op`` by up to 20 %
#: between seeds and hid everything else.
HISTORY_SEED = 7


def _static_history(size: dict):
    engine = Engine(make_perf_env(SLC_SSD))
    config = DatabaseConfig(log_cache_blocks=size["log_cache_blocks"])
    db = engine.create_database(DB, config)
    load_tpcc(db, size["scale"], seed=HISTORY_SEED)
    return engine, db, _driver(db, size["scale"], HISTORY_SEED, HISTORY_THINK_S)


def asof_cold(seed: int, size: dict) -> Fixture:
    """Each op is one ``stock_level_as_of`` at an instant no other op
    asks about, for a seeded district, in seeded order."""
    scale, history = size["scale"], size["history"]
    engine, db, driver = _static_history(size)
    rng = random.Random(f"asof_cold:{seed}")
    # Distinct instants: one pool entry each, so no lease is ever reused.
    marks = _history_with_marks(
        driver, db, history,
        {index: _district(rng, scale) for index in _spread_instants(history, size["ops"])},
    )
    db.log.flush()
    rng.shuffle(marks)

    def asof(mark: Mark) -> None:
        got = driver.stock_level_as_of(engine, mark.t, mark.w, mark.d, THRESHOLD)
        expect(got, mark.answer, f"stock-level of ({mark.w},{mark.d}) as of {mark.t:.3f}")

    return Fixture(
        engine, db, [Op("asof", partial(asof, mark)) for mark in marks],
        lambda: _checkdb(db, "live"), _digest(db, marks),
    )


# ----------------------------------------------------------------------
# sql_audit — the warm path, through Session._dispatch
# ----------------------------------------------------------------------

def _audit_statement(rng: random.Random, scale: TpccScale, turn: int) -> str:
    """One audit question with ``{asof}`` where the AS OF clause goes:
    point, point, range-count, aggregate in turn (the tables differ in
    size twentyfold, so the kinds are dealt, not drawn), seeded keys."""
    w, d = _district(rng, scale)
    return (
        f"SELECT d_next_o_id, d_ytd FROM district{{asof}} WHERE w_id = {w} AND d_id = {d}",
        f"SELECT w_ytd FROM warehouse{{asof}} WHERE w_id = {w}",
        f"SELECT COUNT(*) FROM stock{{asof}} WHERE w_id = {w} "
        f"AND s_quantity < {rng.randint(20, 80)}",
        f"SELECT SUM(c_balance), MIN(c_balance), COUNT(*) FROM customer{{asof}} "
        f"WHERE w_id = {w} AND d_id = {d}",
    )[turn % 4]


#: Twenty statements in sql_audit's shares, dealt in shuffled rounds so
#: that every slice of the phase holds the same mix (shuffled over the
#: whole phase, the slices' shares of near-instant statements, each
#: several times the cost of a pinned one, moved ``ops_per_s`` by a
#: tenth between seeds).
AUDIT_ROUND = ("pinned",) * 12 + ("near",) * 3 + ("now",) * 3 + ("update",) * 2


def sql_audit(seed: int, size: dict) -> Fixture:
    """Statement shares: 60 % AS OF one of ``pinned`` instants (pool
    hits after the first), 15 % AS OF an instant a few transactions after
    a pinned one, used once (pool miss, store hits), 15 % current-time
    SELECT, 10 % current-time single-row UPDATE of ``warehouse.w_ytd``."""
    scale, history, ops = size["scale"], size["history"], size["ops"]
    engine, db, driver = _static_history(size)
    rng = random.Random(f"sql_audit:{seed}")
    session = engine.session(DB)
    clock = db.env.clock
    rounds = ops // len(AUDIT_ROUND)  # ops is a multiple of the round
    near_per_pin = -(-rounds * AUDIT_ROUND.count("near") // size["pinned"])

    # (as-of sql, oracle rows), recorded while each instant is now.
    asked: dict[str, list] = {"pinned": [], "near": []}

    def record(group: str) -> None:
        statement = _audit_statement(rng, scale, len(asked[group]))
        now = clock.now()
        rows = session.execute(statement.format(asof="")).rows
        asked[group].append((statement.format(asof=f" AS OF {now!r}"), rows))

    first = history // 4
    stride = (history - first - near_per_pin) // size["pinned"]
    done = 0
    for pin in range(size["pinned"]):
        driver.run_transactions(first + pin * stride - done)
        done = first + pin * stride
        for _ in range(size["per_pin"]):
            record("pinned")
        for _ in range(near_per_pin):
            driver.run_transactions(1)
            done += 1
            record("near")
    driver.run_transactions(history - done)
    db.log.flush()

    def select(sql: str, rows: list) -> None:
        expect(session.execute(sql).rows, rows, sql)

    def update(sql: str) -> None:
        expect(session.execute(sql).rowcount, 1, sql)

    # Current-time statements see the plan's own updates; a model of
    # warehouse.w_ytd gives their answers.
    w_ytd = {w: db.get("warehouse", (w,))[2] for w in range(1, scale.warehouses + 1)}
    deck = [kind for _ in range(rounds) for kind in rng.sample(AUDIT_ROUND, len(AUDIT_ROUND))]
    rng.shuffle(asked["pinned"])
    pinned = itertools.cycle(asked["pinned"])
    near = iter(asked["near"])
    plan = []
    for kind in deck:
        if kind == "pinned":
            plan.append(Op("asof", partial(select, *next(pinned))))
        elif kind == "near":
            plan.append(Op("asof", partial(select, *next(near))))
        elif kind == "now":
            w = rng.randint(1, scale.warehouses)
            sql = f"SELECT w_ytd FROM warehouse WHERE w_id = {w}"
            plan.append(Op("txn", partial(select, sql, [(w_ytd[w],)])))
        else:
            w = rng.randint(1, scale.warehouses)
            w_ytd[w] = round(rng.uniform(1.0, 5000.0), 2)
            sql = f"UPDATE warehouse SET w_ytd = {w_ytd[w]!r} WHERE w_id = {w}"
            plan.append(Op("txn", partial(update, sql)))

    def verify() -> list[str]:
        session.close()
        return _checkdb(db, "live")

    return Fixture(engine, db, plan, verify, _digest(db, asked, deck))


# ----------------------------------------------------------------------
# recover_routes — the shared redo path: archive restore and catch-up
# ----------------------------------------------------------------------

def recover_routes(seed: int, size: dict) -> Fixture:
    """Two ops in three restore the archive to a seeded instant, read,
    and drop; every third attaches a standby late (full catch-up from the
    first log record), reads on it, and drops it. Two to one, so that
    the median op is a restore and the 95th percentile a catch-up."""
    scale, history, ops = size["scale"], size["history"], size["ops"]
    engine = Engine(make_perf_env(SLC_SSD))
    db = engine.create_database(DB)
    load_tpcc(db, scale, seed=seed)
    add_filler_table(db, size["filler_pages"])
    # The archive rides the cold tier; the primary stays on SSD.
    archiver = engine.enable_archiving(DB, profile=SAS_10K)
    engine.backup_database(DB)  # full
    driver = _driver(db, scale, seed, HISTORY_THINK_S)
    rng = random.Random(f"recover_routes:{seed}")
    restores = ops - ops // 3
    mark_after = {
        index: _district(rng, scale) for index in _spread_instants(history, restores)
    }
    half = history // 2
    marks = _history_with_marks(
        driver, db, half, {i: wd for i, wd in mark_after.items() if i <= half}
    )
    engine.backup_database(DB)  # incremental: restores past it take the longer chain
    marks += _history_with_marks(
        driver, db, history - half, {i - half: wd for i, wd in mark_after.items() if i > half}
    )
    final = Mark(db.env.clock.now(), *_district(rng, scale), 0)
    final = final._replace(answer=stock_level(db, final.w, final.d, THRESHOLD))
    db.log.flush()
    archiver.poll()
    rng.shuffle(marks)
    extra = Counter({"perflab.standby_records_applied": 0})

    def restore(mark: Mark, check: bool = False) -> list[str]:
        copy = engine.restore_from_archive(DB, mark.t)
        try:
            got = stock_level(copy, mark.w, mark.d, THRESHOLD)
            expect(got, mark.answer, f"restored stock-level of ({mark.w},{mark.d}) at {mark.t:.3f}")
            return _checkdb(copy, f"restored@{mark.t:.3f}") if check else []
        finally:
            engine.drop_database(copy.name)

    def catchup() -> None:
        standby = engine.add_replica(DB)
        try:
            got = stock_level(standby, final.w, final.d, THRESHOLD)
            expect(got, final.answer, f"standby stock-level of ({final.w},{final.d})")
            # The replica's registry entries go with it; keep its redo count.
            extra["perflab.standby_records_applied"] += standby.stats.records_applied
        finally:
            engine.drop_replica(standby.name)

    def verify() -> list[str]:
        # checkdb every 10th restored copy, on a fresh restore so the
        # check's page reads stay out of the measured counters.
        problems = _checkdb(db, "live")
        for mark in marks[::10]:
            problems += restore(mark, check=True)
        return problems

    restore_marks = iter(marks)
    plan = [
        Op("catchup", catchup) if index % 3 == 2
        else Op("restore", partial(restore, next(restore_marks)))
        for index in range(ops)
    ]
    return Fixture(engine, db, plan, verify, _digest(db, marks, final), extra)


WORKLOADS: dict[str, tuple[Callable[[int, dict], Fixture], str]] = {
    "tpcc_oltp": (
        tpcc_oltp,
        "larger-than-memory OLTP: codec, page, B-tree, buffer eviction, WAL append, locks and "
        "latches do all the work; the AS OF layers do none",
    ),
    "tpcc_asof_mix": (
        tpcc_asof_mix,
        "AS OF reads against a moving log beside writes (section 6.3): snapshot-forced "
        "checkpoints, publishes, eviction; a cache gain that taxes the write path shows",
    ),
    "asof_cold": (
        asof_cold,
        "every op a snapshot-pool miss on a static history: split search, chain walk, "
        "read_many, WAL decode and page undo dominate; no write path",
    ),
    "sql_audit": (
        sql_audit,
        "the warm path through Session dispatch: parse, per-statement auto-trace, split "
        "resolution, pool and store hits; the bypass for asof_cold optimisations",
    ),
    "recover_routes": (
        recover_routes,
        "archive restore and late-standby catch-up: the shared redo path, log scan and decode, "
        "backup page copy, stream framing; AS OF layers idle",
    ),
}


def build(name: str, scale: str, seed: int) -> Fixture:
    return WORKLOADS[name][0](seed, SIZES[scale][name])
