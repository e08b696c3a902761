"""Application error recovery by transaction: locate, history, undo.

The paper's title use: the user names a bad transaction, sees what it did
and takes it back. The log's transaction directory names the named
transaction's COMMIT, so *locating* it (``txn_undo._find_transaction``)
reads that one record whatever the log's length; ``transaction_history``
and ``undo_transaction`` then read its chain.

Grid: log length L (1, 4 and 16 MB; 0.25, 0.5 and 1 MB under ``--smoke``)
× the target transaction near the tip or at mid-log. A database per
length. Its table is filled first with ``FILLER_ROWS`` rows, and the log
grows by filler transactions that rewrite ``ROWS_PER_TXN`` of those rows
each, in turn, so the table does not grow with L and neither does the
part of it the buffer pool must hold. The targets are 20-row insert
transactions: the mid one once the log holds L/2, the tip one once it
holds L, then ``TIP_DISTANCE`` more filler transactions. So a target is
undone in a table of the same size at every L. In each database the tip
target is located, its history read and it is undone, then the same for
the mid target. Nothing reads the log while it grows, so each target's
first read finds its block cold. Each step is measured on the sim clock
(SLC SSD timing and the default cost model) and on the host clock.

Asserted: locating reads no log sequentially (0 scan bytes), and its sim
cost and the undo's are each flat in L within 5 % (ROADMAP item 17's
exit); every history is the whole chain (BEGIN, 20 inserts, COMMIT) and
every undo compensates all 20 rows. The sim numbers and counts are saved
to ``bench_results/app_recovery.json`` and reproduce byte for byte; the
host milliseconds are printed only.
"""

from __future__ import annotations

import time

from repro import Column, ColumnType, DatabaseConfig, Engine, TableSchema
from repro.bench import ReportTable
from repro.bench.harness import make_perf_env
from repro.core.txn_undo import _find_transaction, undo_transaction
from repro.sim.device import SLC_SSD
from repro.tools import transaction_history

MB = 1 << 20
SIZES_MB = (1, 4, 16)
SMOKE_SIZES_MB = (0.25, 0.5, 1)
ROWS_PER_TXN = 20
#: Rows the filler transactions rewrite; written before any target.
FILLER_ROWS = 400
#: First key of the targets' rows, above every filler row.
TARGET_KEYS = 1_000_000
#: Filler transactions written after the tip target, so it is not the newest.
TIP_DISTANCE = 5
#: Largest spread of locating's, and of undo's, sim cost across log lengths.
FLAT = 0.05

SCHEMA = TableSchema(
    "items",
    (
        Column("id", ColumnType.INT),
        Column("name", ColumnType.STR, max_len=64),
        Column("qty", ColumnType.INT),
    ),
    key=("id",),
)


class _Log:
    """A database whose log grows by filler transactions over a table of
    ``FILLER_ROWS`` rows, and the 20-row insert transactions it holds."""

    def __init__(self) -> None:
        self.env = make_perf_env(SLC_SSD)
        self.db = Engine(self.env).create_database("apprec", DatabaseConfig())
        self.db.create_table(SCHEMA)
        with self.db.transaction() as txn:
            for key in range(FILLER_ROWS):
                self.db.insert(txn, "items", (key, _filler_name(key), key))
        self.fills = 0
        self.next_key = TARGET_KEYS

    def fill(self) -> None:
        """One filler transaction: the next ``ROWS_PER_TXN`` filler rows,
        in turn, get a new name."""
        db = self.db
        with db.transaction() as txn:
            for _ in range(ROWS_PER_TXN):
                self.fills += 1
                key = self.fills % FILLER_ROWS
                db.update(txn, "items", (key,), {"name": _filler_name(self.fills)})

    def fill_to(self, nbytes: int) -> None:
        while self.db.log.end_lsn - self.db.log.start_lsn < nbytes:
            self.fill()

    def insert(self) -> int:
        """One 20-row insert transaction; returns its id."""
        db, key = self.db, self.next_key
        with db.transaction() as txn:
            for k in range(key, key + ROWS_PER_TXN):
                db.insert(txn, "items", (k, f"row-{k:08d}", k))
        self.next_key += ROWS_PER_TXN
        return txn.txn_id

    def grow_to(self, nbytes: int) -> tuple[int, int]:
        """Fill to half of ``nbytes`` and write the mid target, fill to
        ``nbytes`` and write the tip target, then ``TIP_DISTANCE`` more
        fillers; returns (tip, mid)."""
        self.fill_to(nbytes // 2)
        mid = self.insert()
        self.fill_to(nbytes)
        tip = self.insert()
        for _ in range(TIP_DISTANCE):
            self.fill()
        return tip, mid


def _filler_name(n: int) -> str:
    """A 60-character name that differs from ``n - 1``'s across its length."""
    return f"fill-{n:010d}" * 4


def _measure(env, step) -> tuple[object, float, float, int]:
    """``step()``'s result, sim seconds, host ms and log scan bytes."""
    scanned, sim0, host0 = env.stats.log_scan_bytes, env.clock.now(), time.perf_counter()
    result = step()
    host_ms = (time.perf_counter() - host0) * 1e3
    return result, env.clock.now() - sim0, host_ms, env.stats.log_scan_bytes - scanned


def run_app_recovery(sizes_mb) -> tuple[list[dict], list[dict]]:
    """One cell per (L, target): its sim numbers and counts, and its host
    milliseconds apart."""
    cells, host = [], []
    for size_mb in sizes_mb:
        log = _Log()
        env, db = log.env, log.db
        tip, mid = log.grow_to(int(size_mb * MB))
        log_bytes = db.log.end_lsn - db.log.start_lsn
        for where, txn_id in (("tip", tip), ("mid", mid)):
            commit, locate_s, locate_ms, locate_scan = _measure(
                env, lambda txn_id=txn_id: _find_transaction(db, txn_id)
            )
            chain, history_s, history_ms, history_scan = _measure(
                env, lambda txn_id=txn_id: transaction_history(db, txn_id)
            )
            report, undo_s, undo_ms, undo_scan = _measure(
                env, lambda txn_id=txn_id: undo_transaction(db, txn_id)
            )
            assert chain[0].lsn == commit.lsn and len(chain) == ROWS_PER_TXN + 2, where
            assert report.undone == ROWS_PER_TXN and not report.conflicts, where
            cells.append({
                "log_mb": size_mb,
                "target": where,
                "log_bytes": log_bytes,
                "tip_distance_bytes": db.log.end_lsn - commit.lsn,
                "locate_sim_s": locate_s,
                "locate_scan_bytes": locate_scan,
                "history_sim_s": history_s,
                "history_records": len(chain),
                "history_scan_bytes": history_scan,
                "undo_sim_s": undo_s,
                "undo_rows": report.undone,
                "undo_scan_bytes": undo_scan,
            })
            host.append({"locate_ms": locate_ms, "history_ms": history_ms, "undo_ms": undo_ms})
    return cells, host


def test_app_recovery(bench):
    sizes = SMOKE_SIZES_MB if bench.smoke else SIZES_MB
    cells, host = run_app_recovery(sizes)
    table = ReportTable(
        "Application error recovery by transaction id (sim s | host ms)",
        ["L MB", "target", "locate sim", "locate ms", "scan B",
         "history sim", "history ms", "undo sim", "undo ms"],
    )
    for cell, ms in zip(cells, host, strict=True):
        table.add(cell["log_mb"], cell["target"], cell["locate_sim_s"], ms["locate_ms"],
                  cell["locate_scan_bytes"], cell["history_sim_s"], ms["history_ms"],
                  cell["undo_sim_s"], ms["undo_ms"])
    payload = {"rows_per_txn": ROWS_PER_TXN, "filler_rows": FILLER_ROWS, "cells": cells}
    bench.report("app_recovery", payload, table)

    for where in ("tip", "mid"):
        for step in ("locate_sim_s", "undo_sim_s"):
            costs = [cell[step] for cell in cells if cell["target"] == where]
            assert max(costs) <= min(costs) * (1 + FLAT), (where, step, costs)
    assert all(cell["locate_scan_bytes"] == 0 for cell in cells)
