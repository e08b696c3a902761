"""Transaction manager: begin/commit/rollback and the active table."""

from __future__ import annotations

from repro.config import SimEnv
from repro.errors import TransactionError
from repro.txn.locks import LockManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.log_manager import LogManager
from repro.wal.records import AbortRecord, BeginRecord, CommitRecord


class TransactionManager:
    """Transaction lifecycle for one database.

    ``undo_context`` (set by the owning database once its access paths
    exist) supplies the logical-undo machinery rollback needs: page
    fetches, the logged page modifier, and key-addressable trees.
    """

    def __init__(self, env: SimEnv, log: LogManager, locks: LockManager) -> None:
        self.env = env
        self.log = log
        self.locks = locks
        self._next_txn_id = 1
        self._active: dict[int, Transaction] = {}
        #: Installed by Database; see :mod:`repro.txn.undo`.
        self.undo_context = None

    # ------------------------------------------------------------------

    def begin(self, *, system: bool = False) -> Transaction:
        """Start a transaction (system transactions wrap SMOs and
        housekeeping; they commit immediately after their work)."""
        # Entering and leaving the active table is one step with the
        # BEGIN, COMMIT or ABORT under the log latch, as reading it for a
        # checkpoint is with the checkpoint-begin: a checkpoint names
        # exactly the transactions open at its LSN. The id is handed out
        # in the same step, so ids follow BEGIN-LSN order: the log's
        # transaction directory tells an id retention dropped by it.
        with self.log.latch:
            txn = Transaction(
                self._next_txn_id,
                is_system=system,
                began_wall=self.env.clock.now(),
            )
            self._next_txn_id += 1
            txn.last_lsn = self.log.append(BeginRecord(txn_id=txn.txn_id))
            self._active[txn.txn_id] = txn
        txn.first_lsn = txn.last_lsn
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit: log the commit record (the log stamps it with the
        simulated wall clock as it assigns the LSN, for SplitLSN search),
        force the log, release locks.

        System transactions skip the log force — their durability rides on
        the WAL rule like any other record, and an unforced system commit
        that loses a crash race is simply rolled back by recovery.
        """
        txn.require_active()
        rec = CommitRecord(txn_id=txn.txn_id, prev_txn_lsn=txn.last_lsn)
        with self.log.latch:
            txn.last_lsn = self.log.append(rec)
            self._active.pop(txn.txn_id, None)
        if not txn.is_system:
            self.log.flush()
            self.env.charge_cpu(self.env.cost.txn_overhead_cpu_s)
            self.env.stats.transactions_committed += 1
        txn.state = TxnState.COMMITTED
        self.locks.release_all(txn)

    def rollback(self, txn: Transaction) -> None:
        """Logically undo everything the transaction did, then log ABORT."""
        txn.require_active()
        if self.undo_context is None:
            raise TransactionError("no undo context installed")
        from repro.txn.undo import LogicalUndo

        LogicalUndo(self.undo_context).rollback_chain(txn, txn.last_lsn)
        rec = AbortRecord(txn_id=txn.txn_id, prev_txn_lsn=txn.last_lsn)
        with self.log.latch:
            txn.last_lsn = self.log.append(rec)
            self._active.pop(txn.txn_id, None)
        txn.state = TxnState.ABORTED
        self.locks.release_all(txn)
        if not txn.is_system:
            self.env.stats.transactions_aborted += 1

    # ------------------------------------------------------------------
    # Savepoints (ARIES partial rollback)
    # ------------------------------------------------------------------

    def savepoint(self, txn: Transaction, name: str) -> None:
        """Mark a savepoint: a later partial rollback returns here."""
        txn.require_active()
        txn.savepoints[name] = txn.last_lsn

    def rollback_to_savepoint(self, txn: Transaction, name: str) -> None:
        """Logically undo everything the transaction did after ``name``.

        The transaction stays active and keeps its locks (standard ARIES
        savepoint semantics); compensations are CLRs, so a crash mid-way
        resumes correctly and as-of queries can rewind through it.
        """
        txn.require_active()
        target = txn.savepoints.get(name)
        if target is None:
            raise TransactionError(
                f"transaction {txn.txn_id} has no savepoint {name!r}"
            )
        if self.undo_context is None:
            raise TransactionError("no undo context installed")
        from repro.txn.undo import LogicalUndo

        LogicalUndo(self.undo_context).rollback_chain(
            txn, txn.last_lsn, stop_before_lsn=target + 1
        )
        # Later savepoints are invalidated by the rollback.
        txn.savepoints = {
            sp_name: lsn
            for sp_name, lsn in txn.savepoints.items()
            if lsn <= target
        }

    # ------------------------------------------------------------------

    def active_transactions(self) -> list[Transaction]:
        return list(self._active.values())

    def active_table(self) -> tuple:
        """(txn_id, last_lsn) pairs for the checkpoint record; read under
        the log latch, with the checkpoint-begin appended before it is
        released."""
        return tuple(
            (txn.txn_id, txn.last_lsn) for txn in self._active.values()
        )

    def adopt_txn_id_floor(self, floor: int) -> None:
        """Ensure future transaction ids exceed ``floor`` (after recovery)."""
        if floor >= self._next_txn_id:
            self._next_txn_id = floor + 1
