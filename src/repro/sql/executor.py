"""SQL execution over the engine (databases and snapshots).

A :class:`Session` is bound to an engine plus a current target — a live
database or a snapshot (``USE snap_name``). Reads work against either;
writes require a live database. The paper's reconcile step is a plain
``INSERT INTO t SELECT ... FROM snap.t`` across the two.

A SELECT source may carry an inline point-in-time qualifier
(``SELECT ... FROM t AS OF '<time>'``): the scan then runs against an
ephemeral snapshot leased from the engine's snapshot pool for the duration
of the statement — no snapshot DDL, naming, or cleanup involved. The
reconcile step works inline too:
``INSERT INTO t SELECT * FROM t AS OF '<time>'``.

**What a statement reads.** SELECT, UPDATE and DELETE share one row
source (:func:`_matching_rows`). It scans only the key range the WHERE
clause pins: the top-level ``AND`` conjuncts ``key_col = literal`` (either
operand order) that cover a leading prefix of the primary key become the
scan's ``(lo, hi)`` bounds. A literal pins its column only if the column
accepts it (:meth:`~repro.catalog.schema.Column.check_value`), so ``NULL``,
``'1'`` or ``1.0`` against an INT key column and ``TRUE`` anywhere but a
BOOL column pin nothing; anything else (no such prefix, a heap table)
scans the whole table. The full WHERE is still applied to every row read,
so a narrowed scan only ever drops rows the clause rejects. Under AS OF,
only the pages in that range are prepared — the paper's "prior versions
are produced only for data that is accessed".

Expressions (WHERE, projections, aggregate arguments, SET values) are
compiled once per statement into closures over the row tuple, with
column positions resolved at compile time (:func:`_compile`). NULL
propagates through operators, ``AND``/``OR`` take their operands'
truth, and an unknown column raises only when a row is evaluated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from operator import itemgetter

from repro.access.btree import KEY_TOP
from repro.catalog.schema import TableSchema
from repro.errors import (
    SnapshotReadOnlyError,
    SqlExecutionError,
)
from repro.obs.export import flatten_snapshot
from repro.sql.parser import (
    STAR,
    Aggregate,
    AlterUndoInterval,
    BackupDatabase,
    Binary,
    Checkpoint,
    ColumnRef,
    CreateDatabase,
    CreateSnapshot,
    CreateTable,
    Delete,
    DropDatabase,
    DropTable,
    Insert,
    IsNull,
    Literal,
    RestoreDatabase,
    Select,
    Show,
    TableRef,
    Trace,
    TxnControl,
    Unary,
    Update,
    Use,
    parse_script,
)


@dataclass
class Result:
    """Outcome of one statement."""

    columns: tuple = ()
    rows: list = field(default_factory=list)
    rowcount: int = 0
    message: str = ""

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise SqlExecutionError("result is not a single scalar")
        return self.rows[0][0]

    def __repr__(self) -> str:
        if self.columns:
            return f"Result({len(self.rows)} rows, columns={self.columns})"
        return f"Result(rowcount={self.rowcount}, message={self.message!r})"


#: Binary operators other than AND/OR: NULL on either side gives NULL.
_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _failing(message: str):
    """An expression that raises ``message`` when a row is evaluated."""

    def fail(row):
        raise SqlExecutionError(message)

    return fail


def _compile(expr, positions: dict[str, int]):
    """``row -> value`` for ``expr`` over a row tuple whose columns sit at
    ``positions`` (NULL-propagating)."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        if expr.name not in positions:
            return _failing(f"unknown column {expr.name!r}")
        return itemgetter(positions[expr.name])
    if isinstance(expr, Unary):
        operand = _compile(expr.operand, positions)
        if expr.op == "-":
            def negate(row):
                value = operand(row)
                return None if value is None else -value

            return negate
        if expr.op == "NOT":
            def invert(row):
                value = operand(row)
                return None if value is None else (not value)

            return invert
        return _failing(f"unknown unary operator {expr.op}")
    if isinstance(expr, IsNull):
        operand = _compile(expr.operand, positions)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expr, Binary):
        left = _compile(expr.left, positions)
        right = _compile(expr.right, positions)
        if expr.op == "AND":
            return lambda row: bool(left(row)) and bool(right(row))
        if expr.op == "OR":
            return lambda row: bool(left(row)) or bool(right(row))
        op = _OPERATORS.get(expr.op)
        if op is None:
            return _failing(f"unknown operator {expr.op}")

        def apply(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return op(a, b)

        return apply
    return _failing(f"cannot evaluate {expr!r}")


def _conjuncts(expr) -> list:
    """The top-level ``AND`` operands of ``expr``."""
    if isinstance(expr, Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _key_range(where, schema: TableSchema) -> tuple[tuple | None, tuple | None]:
    """Scan bounds ``(lo, hi)`` for the leading key prefix ``where`` pins
    by equality, or ``(None, None)`` (the whole table)."""
    pinned: dict[str, object] = {}
    for conjunct in _conjuncts(where):
        if not (isinstance(conjunct, Binary) and conjunct.op == "="):
            continue
        column, literal = conjunct.left, conjunct.right
        if isinstance(literal, ColumnRef):
            column, literal = literal, column
        if not (isinstance(column, ColumnRef) and isinstance(literal, Literal)):
            continue
        if column.name not in schema.key or column.name in pinned:
            continue
        try:
            schema.columns[schema.positions[column.name]].check_value(literal.value)
        except (TypeError, ValueError):
            continue
        pinned[column.name] = literal.value
    prefix = []
    for name in schema.key:
        if name not in pinned:
            break
        prefix.append(pinned[name])
    if not prefix:
        return None, None
    lo = tuple(prefix)
    return lo, (lo if len(lo) == len(schema.key) else lo + (KEY_TOP,))


def _matching_rows(reader, table: str, where) -> tuple[list, TableSchema]:
    """The row tuples of ``table`` that ``where`` selects, in scan order,
    reading only the key range it pins (the module docstring's rule)."""
    schema = reader.table(table).schema
    rows = reader.scan(table, *_key_range(where, schema))
    if where is None:
        return list(rows), schema
    test = _compile(where, schema.positions)
    return [row for row in rows if test(row)], schema


def _expr_name(expr, alias, index) -> str:
    if alias:
        return alias
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Aggregate):
        return expr.func.lower()
    return f"col{index}"


class Session:
    """One SQL session against an engine.

    A session can be *pinned* to a point in time (``USE <db> AS OF
    '<time>'``): unqualified reads then run against one pooled snapshot
    across statements until the next ``USE`` (or :meth:`close`) releases
    the lease. Sessions are context managers; use ``with engine.session()
    as s:`` when pinning, so the lease always unwinds.
    """

    def __init__(self, engine, database: str | None = None) -> None:
        self.engine = engine
        self.current = database
        self.txn = None
        #: The reader ``USE ... AS OF`` pinned (``Engine.pin_as_of``).
        self._pinned = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the session's pinned snapshot lease and roll back any
        still-open explicit transaction (its write latch must not outlive
        the session)."""
        if self.txn is not None:
            db = self.engine.databases.get(self.current)
            try:
                if db is not None and self.txn.is_active:
                    db.rollback(self.txn)
            finally:
                self.txn = None
                if db is not None:
                    db.write_latch.release()
        self._unpin()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _unpin(self) -> None:
        if self._pinned is not None:
            self.engine.unpin_as_of(self._pinned)
            self._pinned = None

    # ------------------------------------------------------------------
    # Target resolution
    # ------------------------------------------------------------------

    def _reader_for(self, ref: TableRef, *, for_write: bool = False):
        """Database, snapshot or replica serving reads for ``ref``."""
        name = ref.database or self.current
        if name is None:
            raise SqlExecutionError("no database selected (USE <name>)")
        if ref.database is None and self._pinned is not None:
            return self._pinned
        if name in self.engine.databases:
            db = self.engine.databases[name]
            if not for_write and self.txn is None:
                replica = self.engine.routing_replica(name)
                if replica is not None:
                    return replica.db
            return db
        if name in self.engine.snapshots:
            return self.engine.snapshots[name]
        if name in self.engine.replicas:
            if for_write:
                raise SnapshotReadOnlyError("replicas are read-only")
            return self.engine.replicas[name].db
        raise SqlExecutionError(
            f"unknown database, snapshot or replica {name!r}"
        )

    def _writer_for(self, ref: TableRef):
        if ref.as_of is not None:
            raise SnapshotReadOnlyError("AS OF table references are read-only")
        if ref.database is None and self._pinned is not None:
            raise SnapshotReadOnlyError(
                "session is pinned AS OF a past time and is read-only"
            )
        target = self._reader_for(ref, for_write=True)
        if ref.database is None and self.current in self.engine.snapshots:
            raise SnapshotReadOnlyError("snapshots are read-only")
        if target not in self.engine.databases.values():
            raise SnapshotReadOnlyError("snapshots are read-only")
        return target

    def _schema_of(self, reader, table: str) -> TableSchema:
        handle = reader.table(table)
        return handle.schema

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def execute(self, text: str) -> Result:
        """Execute a script; returns the last statement's result."""
        result = Result()
        for statement in parse_script(text):
            result = self._dispatch(statement)
        return result

    def _dispatch(self, stmt) -> Result:
        handler = {
            Select: self._do_select,
            Insert: self._do_insert,
            Update: self._do_update,
            Delete: self._do_delete,
            CreateTable: self._do_create_table,
            DropTable: self._do_drop_table,
            CreateSnapshot: self._do_create_snapshot,
            CreateDatabase: self._do_create_database,
            DropDatabase: self._do_drop_database,
            AlterUndoInterval: self._do_alter,
            BackupDatabase: self._do_backup,
            RestoreDatabase: self._do_restore,
            TxnControl: self._do_txn,
            Checkpoint: self._do_checkpoint,
            Use: self._do_use,
            Show: self._do_show,
            Trace: self._do_trace,
        }.get(type(stmt))
        if handler is None:
            raise SqlExecutionError(f"unsupported statement {type(stmt).__name__}")
        env = self.engine.env
        # Slow-statement capture needs a live trace to retain the span
        # tree — but the tracer is exclusive, so auto-trace only when
        # nothing else (an outer TRACE, a caller's engine.trace) owns it.
        slow_log = self.engine.slow_queries
        capture = (
            slow_log.enabled and not env.tracer.active and type(stmt) is not Trace
        )
        handle = env.tracer.begin("sql.statement") if capture else None
        started = env.clock.now()
        try:
            with env.tracer.span("sql.execute", stmt=type(stmt).__name__) as span:
                result = handler(stmt)
                span.set(rows=result.rowcount)
        finally:
            elapsed = env.clock.now() - started
            if handle is not None:
                env.tracer.finish(handle)
                if elapsed >= slow_log.threshold_s:
                    slow_log.record(
                        t_s=started,
                        statement=type(stmt).__name__,
                        sim_s=elapsed,
                        spans=handle.render(),
                    )
        self.engine.statement_sim_s.observe(elapsed)
        self.engine.monitor_tick()
        return result

    # ------------------------------------------------------------------
    # Write transaction plumbing (autocommit unless BEGIN is open)
    # ------------------------------------------------------------------

    def _write(self, db, fn) -> Result:
        if self.txn is not None:
            return fn(self.txn)
        with db.transaction() as txn:
            return fn(txn)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _select_rows(self, stmt: Select):
        ref = stmt.table
        if ref.as_of is not None:
            # Inline point-in-time read: lease an ephemeral snapshot from
            # the engine's pool for the duration of the scan. The target
            # must be a live database — a named snapshot is already a
            # fixed point in time.
            name = ref.database or self.current
            if name is None:
                raise SqlExecutionError("no database selected (USE <name>)")
            if name not in self.engine.databases:
                raise SqlExecutionError(
                    f"AS OF requires a live database, not {name!r}"
                )
            with self.engine.query_as_of(name, ref.as_of) as snapshot:
                return self._filter_rows(snapshot, stmt)
        return self._filter_rows(self._reader_for(ref), stmt)

    def _filter_rows(self, reader, stmt: Select):
        # A multi-page scan of a live database must not observe another
        # session's transaction mid-flight (half-applied b-tree splits),
        # so it holds the database's write latch — reentrant, so reads
        # inside an explicit transaction just re-enter. Snapshots and
        # replicas' point-in-time views have no write latch; their own
        # snapshot latch covers page preparation.
        guard = getattr(reader, "write_latch", None)
        if guard is None:
            return _matching_rows(reader, stmt.table.name, stmt.where)
        with guard:
            return _matching_rows(reader, stmt.table.name, stmt.where)

    def _do_select(self, stmt: Select) -> Result:
        filtered, schema = self._select_rows(stmt)
        positions = schema.positions
        aggregates = [
            item for item, _alias in stmt.items if isinstance(item, Aggregate)
        ]
        if aggregates:
            if len(aggregates) != len(stmt.items):
                raise SqlExecutionError(
                    "aggregate queries cannot mix plain columns (no GROUP BY)"
                )
            values = []
            columns = []
            for index, (agg, alias) in enumerate(stmt.items):
                values.append(self._aggregate(agg, filtered, positions))
                columns.append(_expr_name(agg, alias, index))
            return Result(tuple(columns), [tuple(values)], rowcount=1)

        if stmt.order_by:
            for col, ascending in reversed(stmt.order_by):
                if col not in positions:
                    raise SqlExecutionError(f"unknown ORDER BY column {col!r}")
                filtered.sort(key=itemgetter(positions[col]), reverse=not ascending)

        columns: list[str] = []
        projections = []
        for index, (item, alias) in enumerate(stmt.items):
            if item is STAR:
                columns.extend(schema.column_names)
                projections.append(None)
            else:
                columns.append(_expr_name(item, alias, index))
                projections.append(_compile(item, positions))
        rows = []
        for row in filtered:
            row_out = []
            for project in projections:
                if project is None:
                    row_out.extend(row)
                else:
                    row_out.append(project(row))
            rows.append(tuple(row_out))
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return Result(tuple(columns), rows, rowcount=len(rows))

    @staticmethod
    def _aggregate(agg: Aggregate, rows: list, positions: dict[str, int]) -> object:
        if agg.func == "COUNT" and agg.arg is None:
            return len(rows)
        arg = _compile(agg.arg, positions)
        values = [value for row in rows if (value := arg(row)) is not None]
        if agg.func == "COUNT":
            return len(values)
        if not values:
            return None
        if agg.func == "SUM":
            return sum(values)
        if agg.func == "AVG":
            return sum(values) / len(values)
        if agg.func == "MIN":
            return min(values)
        if agg.func == "MAX":
            return max(values)
        raise SqlExecutionError(f"unknown aggregate {agg.func}")

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def _do_insert(self, stmt: Insert) -> Result:
        db = self._writer_for(stmt.table)
        schema = self._schema_of(db, stmt.table.name)
        if stmt.source is not None:
            source_result = self._do_select(stmt.source)
            raw_rows = source_result.rows
        else:
            raw_rows = [
                tuple(_compile(expr, {})(()) for expr in row) for row in stmt.rows
            ]
        columns = stmt.columns or schema.column_names
        if len(columns) != len(set(columns)):
            raise SqlExecutionError("duplicate column in INSERT list")

        def run(txn) -> Result:
            inserted = 0
            for values in raw_rows:
                if len(values) != len(columns):
                    raise SqlExecutionError(
                        f"INSERT expects {len(columns)} values, got {len(values)}"
                    )
                db.insert(txn, stmt.table.name, dict(zip(columns, values, strict=True)))
                inserted += 1
            return Result(rowcount=inserted, message=f"INSERT {inserted}")

        return self._write(db, run)

    def _do_update(self, stmt: Update) -> Result:
        db = self._writer_for(stmt.table)
        schema = self._schema_of(db, stmt.table.name)
        setters = [
            (col, _compile(expr, schema.positions)) for col, expr in stmt.assignments
        ]
        bad_keys = sorted({col for col, _expr in stmt.assignments} & set(schema.key))

        def run(txn) -> Result:
            matched, _schema = _matching_rows(db, stmt.table.name, stmt.where)
            for row in matched:
                changes = {col: value_of(row) for col, value_of in setters}
                if bad_keys:
                    raise SqlExecutionError(f"cannot UPDATE key columns {bad_keys}")
                db.update(txn, stmt.table.name, schema.key_of(row), changes)
            return Result(rowcount=len(matched), message=f"UPDATE {len(matched)}")

        return self._write(db, run)

    def _do_delete(self, stmt: Delete) -> Result:
        db = self._writer_for(stmt.table)
        schema = self._schema_of(db, stmt.table.name)

        def run(txn) -> Result:
            matched, _schema = _matching_rows(db, stmt.table.name, stmt.where)
            for row in matched:
                db.delete(txn, stmt.table.name, schema.key_of(row))
            return Result(rowcount=len(matched), message=f"DELETE {len(matched)}")

        return self._write(db, run)

    # ------------------------------------------------------------------
    # DDL and control
    # ------------------------------------------------------------------

    def _do_create_table(self, stmt: CreateTable) -> Result:
        db = self._writer_for(TableRef(stmt.name))
        schema = TableSchema(stmt.name, stmt.columns, stmt.key)
        db.create_table(schema, heap=stmt.heap)
        return Result(message=f"CREATE TABLE {stmt.name}")

    def _do_drop_table(self, stmt: DropTable) -> Result:
        db = self._writer_for(TableRef(stmt.name))
        db.drop_table(stmt.name)
        return Result(message=f"DROP TABLE {stmt.name}")

    def _do_create_snapshot(self, stmt: CreateSnapshot) -> Result:
        if stmt.as_of is None:
            self.engine.create_snapshot(stmt.source, stmt.name)
        else:
            self.engine.create_asof_snapshot(stmt.source, stmt.name, stmt.as_of)
        return Result(message=f"CREATE SNAPSHOT {stmt.name}")

    def _do_create_database(self, stmt: CreateDatabase) -> Result:
        self.engine.create_database(stmt.name)
        return Result(message=f"CREATE DATABASE {stmt.name}")

    def _do_drop_database(self, stmt: DropDatabase) -> Result:
        if stmt.name in self.engine.snapshots:
            self.engine.drop_snapshot(stmt.name)
        else:
            self.engine.drop_database(stmt.name)
        if self.current == stmt.name:
            self.current = None
        return Result(message=f"DROP {stmt.name}")

    def _do_backup(self, stmt: BackupDatabase) -> Result:
        backup = self.engine.backup_database(stmt.name, full=stmt.full)
        kind = "full" if not hasattr(backup, "base_lsn") else "incremental"
        return Result(
            message=(
                f"BACKUP DATABASE {stmt.name} ({kind}, "
                f"{len(backup.pages)} pages, lsn={backup.backup_lsn:#x})"
            )
        )

    def _do_restore(self, stmt: RestoreDatabase) -> Result:
        restored = self.engine.restore_from_archive(
            stmt.source, stmt.as_of, stmt.new_name
        )
        return Result(
            message=f"RESTORE DATABASE {restored.name} AS OF {stmt.as_of}"
        )

    def _do_alter(self, stmt: AlterUndoInterval) -> Result:
        db = self.engine.database(stmt.database)
        db.set_undo_interval(stmt.seconds)
        return Result(
            message=f"ALTER DATABASE {stmt.database} UNDO_INTERVAL={stmt.seconds:.0f}s"
        )

    def _do_txn(self, stmt: TxnControl) -> Result:
        if stmt.action in ("SAVEPOINT", "ROLLBACK_TO"):
            if self.txn is None:
                raise SqlExecutionError(f"{stmt.action} without BEGIN")
            db = self.engine.databases[self.current]
            if stmt.action == "SAVEPOINT":
                db.savepoint(self.txn, stmt.savepoint)
                return Result(message=f"SAVEPOINT {stmt.savepoint}")
            db.rollback_to(self.txn, stmt.savepoint)
            return Result(message=f"ROLLBACK TO {stmt.savepoint}")
        if stmt.action == "BEGIN":
            if self.txn is not None:
                raise SqlExecutionError("transaction already open")
            if self._pinned is not None:
                raise SqlExecutionError(
                    "session is pinned AS OF a past time (read-only)"
                )
            if self.current is None or self.current not in self.engine.databases:
                raise SqlExecutionError("BEGIN requires a current database")
            db = self.engine.databases[self.current]
            # An explicit transaction holds the database write latch
            # across statements (released by COMMIT/ROLLBACK below, or
            # by close()): the begin→commit span is one write-serialized
            # unit, exactly like ``db.transaction()``. Non-lexical
            # acquire/release is safe because a session runs wholly on
            # one scheduler worker thread (RLocks are thread-affine).
            db.write_latch.acquire()
            try:
                self.txn = db.begin()
            except BaseException:
                db.write_latch.release()
                raise
            return Result(message="BEGIN")
        if self.txn is None:
            raise SqlExecutionError(f"{stmt.action} without BEGIN")
        db = self.engine.databases[self.current]
        try:
            if stmt.action == "COMMIT":
                db.commit(self.txn)
            else:
                db.rollback(self.txn)
        finally:
            self.txn = None
            db.write_latch.release()
        return Result(message=stmt.action)

    def _do_checkpoint(self, stmt: Checkpoint) -> Result:
        if self.current is None or self.current not in self.engine.databases:
            raise SqlExecutionError("CHECKPOINT requires a current database")
        lsn = self.engine.databases[self.current].checkpoint()
        return Result(message=f"CHECKPOINT {lsn:#x}")

    def _do_use(self, stmt: Use) -> Result:
        known = (
            stmt.name in self.engine.databases
            or stmt.name in self.engine.snapshots
            or stmt.name in self.engine.replicas
        )
        if not known:
            raise SqlExecutionError(
                f"unknown database, snapshot or replica {stmt.name!r}"
            )
        if stmt.as_of is not None and stmt.name not in self.engine.databases:
            raise SqlExecutionError(
                f"USE ... AS OF requires a live database, not {stmt.name!r}"
            )
        if self.txn is not None:
            raise SqlExecutionError("cannot USE while a transaction is open")
        self._unpin()
        self.current = stmt.name
        if stmt.as_of is None:
            return Result(message=f"USE {stmt.name}")
        self._pinned = self.engine.pin_as_of(stmt.name, stmt.as_of)
        return Result(message=f"USE {stmt.name} AS OF {stmt.as_of}")

    def _do_show(self, stmt: Show) -> Result:
        if stmt.what == "TABLES":
            reader = self._reader_for(TableRef("_"))
            rows = [(name,) for name in sorted(reader.tables())]
            return Result(("name",), rows, rowcount=len(rows))
        if stmt.what == "METRICS":
            snap = self.engine.metrics_snapshot(stmt.like)
            rows = list(flatten_snapshot(snap).items())
            return Result(("name", "value"), rows, rowcount=len(rows))
        if stmt.what == "HEALTH":
            doc = self.engine.health()
            rows = [("overall", doc["overall"], "")]
            for name, entry in doc["subsystems"].items():
                alerts = ", ".join(
                    f"{a['rule']}({a['metric']})" for a in entry["alerts"]
                )
                rows.append((name, entry["verdict"], alerts))
            return Result(("subsystem", "verdict", "alerts"), rows, rowcount=len(rows))
        if stmt.what == "ALERTS":
            monitor = self.engine.monitor
            condition_rows = monitor.alert_rows() if monitor is not None else []
            rows = [
                (
                    row["rule"],
                    row["metric"],
                    row["state"],
                    row["severity"],
                    row["value"],
                    row["fired_at"],
                    row["cleared_at"],
                    row["fired_count"],
                )
                for row in condition_rows
            ]
            return Result(
                (
                    "rule",
                    "metric",
                    "state",
                    "severity",
                    "value",
                    "fired_at",
                    "cleared_at",
                    "fired_count",
                ),
                rows,
                rowcount=len(rows),
            )
        if stmt.what == "FAULTS":
            rows = [
                (
                    row["seq"],
                    row["t"],
                    row["point"],
                    row["kind"],
                    row["target"],
                    row["detail"],
                )
                for row in self.engine.fault_events()
            ]
            return Result(
                ("seq", "t", "point", "kind", "target", "detail"),
                rows,
                rowcount=len(rows),
            )
        if stmt.what == "HISTORY":
            history = self.engine.monitor_history(stmt.like)
            rows = [
                (
                    name,
                    summary["points"],
                    summary["last"],
                    summary["min"],
                    summary["max"],
                    summary["mean"],
                    summary["rate_per_s"],
                )
                for name, summary in history.items()
            ]
            return Result(
                ("metric", "points", "last", "min", "max", "mean", "rate_per_s"),
                rows,
                rowcount=len(rows),
            )
        if stmt.what == "SLOW QUERIES":
            rows = [
                (row["t_s"], row["statement"], row["sim_s"], row["spans"])
                for row in self.engine.slow_queries.rows()
            ]
            return Result(
                ("t_s", "statement", "sim_s", "spans"), rows, rowcount=len(rows)
            )
        rows = [(name,) for name in sorted(self.engine.snapshots)]
        return Result(("name",), rows, rowcount=len(rows))

    def _do_trace(self, stmt: Trace) -> Result:
        with self.engine.trace("sql.trace") as handle:
            self._dispatch(stmt.statement)
        rows = [(line,) for line in handle.render()]
        return Result(("span",), rows, rowcount=len(rows))
