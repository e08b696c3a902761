"""Application error recovery by transaction: locate, history, undo.

The paper's title use: the user names a bad transaction, sees what it did
and takes it back. The log's transaction directory names the named
transaction's COMMIT, so *locating* it (``txn_undo._find_transaction``)
reads that one record whatever the log's length; ``transaction_history``
and ``undo_transaction`` then read its chain.

Grid: log length L (1, 4 and 16 MB of 20-row insert transactions; 0.25,
0.5 and 1 MB under ``--smoke``) × the target transaction near the tip or
at mid-log. A database per length; in it the tip target is located,
its history read and it is undone, then the same for the mid target.
Nothing reads the log while it grows, so each target's first read finds
its block cold. Each step is measured on the sim clock (SLC SSD timing
and the default cost model) and on the host clock.

Asserted: locating reads no log sequentially (0 scan bytes) and its sim
cost is flat in L within 5 %; every history is the whole chain (BEGIN,
20 inserts, COMMIT) and every undo compensates all 20 rows. The sim
numbers and counts are saved to ``bench_results/app_recovery.json`` and
reproduce byte for byte; the host milliseconds are printed only.
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
#: Transactions written after the tip target, so it is not the newest.
TIP_DISTANCE = 5
#: Largest spread of locating's sim cost across log lengths.
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
    """A database grown by 20-row insert transactions, each noted with the
    log position its COMMIT left."""

    def __init__(self) -> None:
        self.env = make_perf_env(SLC_SSD)
        self.db = Engine(self.env).create_database("apprec", DatabaseConfig())
        self.db.create_table(SCHEMA)
        self.txns: list[tuple[int, int]] = []  # (log end after COMMIT, txn id)
        self.next_key = 0

    def write(self) -> int:
        db, key = self.db, self.next_key
        with db.transaction() as txn:
            for k in range(key, key + ROWS_PER_TXN):
                db.insert(txn, "items", (k, f"row-{k:08d}", k))
        self.next_key += ROWS_PER_TXN
        self.txns.append((db.log.end_lsn, txn.txn_id))
        return txn.txn_id

    def grow_to(self, nbytes: int) -> int:
        """Write until the log holds ``nbytes``, then the tip target and
        ``TIP_DISTANCE`` more; returns the tip target."""
        while self.db.log.end_lsn - self.db.log.start_lsn < nbytes:
            self.write()
        tip = self.write()
        for _ in range(TIP_DISTANCE):
            self.write()
        return tip

    def at(self, lsn: int) -> int:
        """The first transaction whose COMMIT ends at or past ``lsn``."""
        return next(txn_id for end, txn_id in self.txns if end >= lsn)


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
        tip = log.grow_to(int(size_mb * MB))
        log_bytes = db.log.end_lsn - db.log.start_lsn
        targets = (("tip", tip), ("mid", log.at(db.log.start_lsn + log_bytes // 2)))
        for where, txn_id in targets:
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
    bench.report("app_recovery", {"rows_per_txn": ROWS_PER_TXN, "cells": cells}, table)

    for where in ("tip", "mid"):
        located = [cell["locate_sim_s"] for cell in cells if cell["target"] == where]
        assert max(located) <= min(located) * (1 + FLAT), (where, located)
    assert all(cell["locate_scan_bytes"] == 0 for cell in cells)
