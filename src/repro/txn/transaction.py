"""Transaction objects: identity, state, log chain head, lock set."""

from __future__ import annotations

import enum

from repro.errors import TransactionError
from repro.wal.lsn import NULL_LSN


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction's volatile state.

    ``last_lsn`` heads the backward chain (via each record's
    ``prev_txn_lsn``) that rollback and recovery undo walk. System
    transactions (``is_system``) wrap B-tree structure modifications and
    engine housekeeping; they commit immediately and are undone
    *physically* if they lose at a crash.
    """

    __slots__ = (
        "txn_id",
        "state",
        "last_lsn",
        "first_lsn",
        "locks",
        "is_system",
        "began_wall",
        "savepoints",
        "created_tables",
    )

    def __init__(self, txn_id: int, *, is_system: bool = False, began_wall: float = 0.0) -> None:
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.last_lsn = NULL_LSN
        #: LSN of the BEGIN record; retention never truncates past the
        #: oldest active transaction's first_lsn.
        self.first_lsn = NULL_LSN
        self.locks: set[tuple] = set()
        self.is_system = is_system
        self.began_wall = began_wall
        #: Savepoint name -> last_lsn at the time of the savepoint.
        self.savepoints: dict[str, int] = {}
        #: (name, object_id) of each table this transaction created: a
        #: rollback must drop the database's cached handles to them.
        self.created_tables: tuple = ()

    @property
    def is_active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def __repr__(self) -> str:
        kind = "system " if self.is_system else ""
        return (
            f"Transaction({kind}id={self.txn_id}, state={self.state.value}, "
            f"last_lsn={self.last_lsn:#x})"
        )


class RecoveredTransaction(Transaction):
    """A loser transaction reconstructed by recovery's analysis pass.

    Behaves like an active transaction for the undo machinery; its
    ``last_lsn`` comes from the log scan rather than live execution.
    """

    __slots__ = ()
