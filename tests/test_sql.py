"""SQL layer tests: lexer, parser, execution, the paper's workflows."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DatabaseConfig, Engine
from repro.config import SimEnv
from repro.errors import (
    CatalogError,
    SnapshotReadOnlyError,
    SqlExecutionError,
    SqlSyntaxError,
)
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import (
    Binary,
    CreateSnapshot,
    Select,
    parse_script,
)


@pytest.fixture
def session(engine):
    engine.create_database("shop")
    session = engine.session("shop")
    session.execute(
        """
        CREATE TABLE items (
            id INT NOT NULL,
            name VARCHAR(64) NOT NULL,
            qty INT NOT NULL,
            note TEXT NULL,
            PRIMARY KEY (id)
        )
        """
    )
    return session


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].ttype is TokenType.STRING
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert [t.value for t in tokens[:-1]] == ["42", "3.5"]

    def test_qualified_name_dots(self):
        tokens = tokenize("snap.items")
        assert [t.ttype for t in tokens[:-1]] == [
            TokenType.IDENT,
            TokenType.PUNCT,
            TokenType.IDENT,
        ]

    def test_comment_skipped(self):
        tokens = tokenize("SELECT -- nothing here\n 1")
        assert len(tokens) == 3  # SELECT, 1, END

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_bad_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")


class TestParser:
    def test_select_structure(self):
        (stmt,) = parse_script(
            "SELECT id, qty FROM items WHERE qty > 5 AND id < 10 "
            "ORDER BY id DESC LIMIT 3"
        )
        assert isinstance(stmt, Select)
        assert stmt.table.name == "items"
        assert stmt.limit == 3
        assert stmt.order_by == (("id", False),)
        assert isinstance(stmt.where, Binary) and stmt.where.op == "AND"

    def test_qualified_table(self):
        (stmt,) = parse_script("SELECT * FROM snap.items")
        assert stmt.table.database == "snap"

    def test_create_snapshot_as_of(self):
        (stmt,) = parse_script(
            "CREATE DATABASE s AS SNAPSHOT OF shop AS OF '2012-03-22 17:26:25'"
        )
        assert isinstance(stmt, CreateSnapshot)
        assert stmt.source == "shop"
        assert stmt.as_of == "2012-03-22 17:26:25"

    def test_expression_precedence(self):
        (stmt,) = parse_script("SELECT 1 + 2 * 3 FROM t")
        expr = stmt.items[0][0]
        assert isinstance(expr, Binary) and expr.op == "+"
        assert isinstance(expr.right, Binary) and expr.right.op == "*"

    def test_missing_primary_key_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_script("CREATE TABLE t (a INT NOT NULL)")

    def test_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_script("FLY ME TO THE MOON")

    def test_empty_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_script("   ")

    def test_multi_statement_script(self):
        statements = parse_script("BEGIN; COMMIT;")
        assert len(statements) == 2


class TestCrudExecution:
    def test_insert_and_select(self, session):
        session.execute("INSERT INTO items VALUES (1, 'anvil', 3, NULL)")
        result = session.execute("SELECT * FROM items")
        assert result.rows == [(1, "anvil", 3, None)]
        assert result.columns == ("id", "name", "qty", "note")

    def test_insert_column_list(self, session):
        session.execute("INSERT INTO items (id, name, qty) VALUES (2, 'rope', 7)")
        result = session.execute("SELECT note FROM items WHERE id = 2")
        assert result.rows == [(None,)]

    def test_multi_row_insert(self, session):
        session.execute(
            "INSERT INTO items VALUES (1,'a',1,NULL),(2,'b',2,NULL),(3,'c',3,NULL)"
        )
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 3

    def test_where_and_projection(self, session):
        session.execute(
            "INSERT INTO items VALUES (1,'a',5,NULL),(2,'b',15,NULL),(3,'c',25,NULL)"
        )
        result = session.execute(
            "SELECT name, qty * 2 AS dbl FROM items WHERE qty >= 15 ORDER BY qty"
        )
        assert result.columns == ("name", "dbl")
        assert result.rows == [("b", 30), ("c", 50)]

    def test_update(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',5,NULL),(2,'b',6,NULL)")
        result = session.execute("UPDATE items SET qty = qty + 100 WHERE id = 2")
        assert result.rowcount == 1
        assert session.execute("SELECT qty FROM items WHERE id = 2").scalar() == 106

    def test_update_key_rejected(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',5,NULL)")
        with pytest.raises(SqlExecutionError):
            session.execute("UPDATE items SET id = 9")

    def test_delete(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',5,NULL),(2,'b',6,NULL)")
        assert session.execute("DELETE FROM items WHERE id = 1").rowcount == 1
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 1

    def test_aggregates(self, session):
        session.execute(
            "INSERT INTO items VALUES (1,'a',10,NULL),(2,'b',20,NULL),(3,'c',30,NULL)"
        )
        result = session.execute(
            "SELECT COUNT(*), SUM(qty), AVG(qty), MIN(qty), MAX(qty) FROM items"
        )
        assert result.rows == [(3, 60, 20.0, 10, 30)]

    def test_is_null(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',1,'x'),(2,'b',2,NULL)")
        assert (
            session.execute("SELECT COUNT(*) FROM items WHERE note IS NULL").scalar()
            == 1
        )
        assert (
            session.execute(
                "SELECT COUNT(*) FROM items WHERE note IS NOT NULL"
            ).scalar()
            == 1
        )

    def test_explicit_transaction(self, session):
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        session.execute("ROLLBACK")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 0
        session.execute("BEGIN")
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        session.execute("COMMIT")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 1

    def test_show_tables(self, session):
        result = session.execute("SHOW TABLES")
        assert ("items",) in result.rows


class TestSnapshotSql:
    def test_paper_workflow_in_sql(self, session):
        """The full dropped-table recovery, end to end, in SQL."""
        engine = session.engine
        session.execute(
            "INSERT INTO items VALUES (1,'anvil',3,NULL),(2,'rope',7,NULL)"
        )
        t_good = engine.env.clock.to_datetime().replace(tzinfo=None)
        engine.env.clock.advance(60)
        session.execute("DROP TABLE items")
        assert session.execute("SHOW TABLES").rows == []

        session.execute(
            f"CREATE DATABASE shop_past AS SNAPSHOT OF shop "
            f"AS OF '{t_good.isoformat(sep=' ')}'"
        )
        # Inspect the snapshot's catalog, then reconcile via INSERT..SELECT.
        probe = engine.session("shop_past")
        assert probe.execute("SHOW TABLES").rows == [("items",)]
        session.execute(
            """
            CREATE TABLE items (
                id INT NOT NULL, name VARCHAR(64) NOT NULL,
                qty INT NOT NULL, note TEXT NULL,
                PRIMARY KEY (id)
            )
            """
        )
        result = session.execute("INSERT INTO items SELECT * FROM shop_past.items")
        assert result.rowcount == 2
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 2
        session.execute("DROP DATABASE shop_past")

    def test_alter_undo_interval(self, session):
        session.execute("ALTER DATABASE shop SET UNDO_INTERVAL = 24 HOURS")
        assert session.engine.database("shop").undo_interval_s == 24 * 3600
        session.execute("ALTER DATABASE shop SET UNDO_INTERVAL = 90 MINUTES")
        assert session.engine.database("shop").undo_interval_s == 90 * 60

    def test_snapshot_is_read_only_via_sql(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        session.execute("CREATE DATABASE snap AS SNAPSHOT OF shop")
        snap_session = session.engine.session("snap")
        with pytest.raises(SnapshotReadOnlyError):
            snap_session.execute("INSERT INTO items VALUES (2,'b',2,NULL)")
        with pytest.raises(SnapshotReadOnlyError):
            snap_session.execute("DELETE FROM items")

    def test_use_switches_target(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        session.execute("CREATE DATABASE snap AS SNAPSHOT OF shop")
        session.execute("INSERT INTO items VALUES (2,'b',2,NULL)")
        session.execute("USE snap")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 1
        session.execute("USE shop")
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 2

    def test_show_snapshots(self, session):
        session.execute("CREATE DATABASE s1 AS SNAPSHOT OF shop")
        result = session.execute("SHOW SNAPSHOTS")
        assert result.rows == [("s1",)]

    def test_checkpoint_statement(self, session):
        result = session.execute("CHECKPOINT")
        assert result.message.startswith("CHECKPOINT")

    def test_engine_sql_shortcut(self):
        engine = Engine()
        engine.create_database("quick")
        engine.sql(
            "CREATE TABLE t (a INT NOT NULL, PRIMARY KEY (a))", database="quick"
        )
        engine.sql("INSERT INTO t VALUES (1)", database="quick")
        result = engine.sql("SELECT * FROM t", database="quick")
        assert result.rows == [(1,)]

    def test_cross_snapshot_select_without_use(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        session.execute("CREATE DATABASE snap2 AS SNAPSHOT OF shop")
        session.execute("UPDATE items SET qty = 99")
        live = session.execute("SELECT qty FROM items").scalar()
        past = session.execute("SELECT qty FROM snap2.items").scalar()
        assert (live, past) == (99, 1)


class TestErrors:
    def test_unknown_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM ghost")

    def test_unknown_column(self, session):
        session.execute("INSERT INTO items VALUES (1,'a',1,NULL)")
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT wat FROM items")

    def test_unknown_database(self, engine):
        session = engine.session("nope")
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT * FROM t")

    def test_commit_without_begin(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("COMMIT")

    def test_mixed_aggregate_and_plain(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("SELECT COUNT(*), id FROM items")

    def test_arity_mismatch(self, session):
        with pytest.raises(SqlExecutionError):
            session.execute("INSERT INTO items (id, name) VALUES (1)")


# ---------------------------------------------------------------------------
# Key-range narrowing: every statement equals a brute-force filter
# ---------------------------------------------------------------------------

_COLUMNS = ("a", "b", "v", "s")
_TABLE_DDL = (
    "CREATE {kind} {name} (a INT NOT NULL, b INT NOT NULL, v INT NULL, "
    "s VARCHAR(40) NULL, PRIMARY KEY (a, b))"
)


def _audit_row(a: int, b: int) -> tuple:
    v = None if (a + b) % 5 == 0 else a * 10 + b
    s = None if b % 4 == 0 else "x" * (10 + b % 7)
    return (a, b, v, s)


class _Audit:
    """A shop whose composite-key table ``t`` spans many 1 KiB leaves
    and changed after ``mark``, a heap twin ``h``, and a session pinned
    to ``mark``."""

    def __init__(self) -> None:
        self.engine = Engine(
            SimEnv.for_tests(), config=DatabaseConfig(page_size=1024, buffer_pool_pages=64)
        )
        self.db = self.engine.create_database("shop")
        self.session = self.engine.session("shop")
        for kind, name in (("TABLE", "t"), ("HEAP TABLE", "h")):
            self.session.execute(_TABLE_DDL.format(kind=kind, name=name))
        rows = ", ".join(
            _literal_sql(_audit_row(a, b)) for a in range(5) for b in range(12)
        )
        self.session.execute(f"INSERT INTO t VALUES {rows}")
        self.session.execute(f"INSERT INTO h VALUES {rows}")
        clock = self.engine.env.clock
        self.mark = clock.now()
        clock.advance(1.0)
        self.session.execute("UPDATE t SET v = 7 WHERE b = 3")
        self.session.execute("DELETE FROM t WHERE a = 2 AND b > 8")
        self.session.execute("INSERT INTO t VALUES (9, 0, 1, 'late')")
        clock.advance(1.0)
        self.pinned = self.engine.session("shop")
        self.pinned.execute(f"USE shop AS OF {self.mark!r}")


@pytest.fixture(scope="module")
def audit():
    shop = _Audit()
    yield shop
    shop.pinned.close()


def _sql_value(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)  # a negative number parses as unary minus


def _literal_sql(row: tuple) -> str:
    return "(" + ", ".join(_sql_value(value) for value in row) + ")"


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_ints = st.integers(-1, 13)
#: Literals an INT column may meet: matching, NULL, and ones no INT
#: equals or that do not pin a key column ('1', 1.0, TRUE).
_int_literals = st.one_of(
    _ints, _ints, st.none(), _ints.map(str), _ints.map(float), st.booleans()
)
_str_literals = st.one_of(
    st.text("xy", min_size=9, max_size=17), st.none(), _ints
)


@st.composite
def _comparison(draw, columns=("a", "b", "v", "s"), ops=tuple(_OPS)):
    column = draw(st.sampled_from(columns))
    op = draw(st.sampled_from(ops))
    if column == "s":
        # An ordering between a string and a number is a TypeError on
        # both sides of the equation; compare strings with strings.
        literal = draw(_str_literals if op in ("=", "!=") else st.text("xy", max_size=17))
    elif op in ("=", "!="):
        literal = draw(_int_literals)
    else:
        literal = draw(st.one_of(_ints, st.none(), _ints.map(float), st.booleans()))
    return ("cmp", column, op, literal, draw(st.booleans()))


_leaves = st.one_of(
    _comparison(),
    st.tuples(st.just("null"), st.sampled_from(_COLUMNS), st.booleans()),
    st.tuples(
        st.just("cols"),
        st.sampled_from(("a", "b", "v")),
        st.sampled_from(tuple(_OPS)),
        st.sampled_from(("a", "b", "v")),
    ),
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.just("and"), inner, inner),
        st.tuples(st.just("or"), inner, inner),
        st.tuples(st.just("not"), inner),
    ),
    max_leaves=6,
)
#: Key equalities ANDed on top (so most statements pin a prefix), then a
#: random tree: the pins may repeat a column with another value, or carry
#: a literal the column does not accept.
_pins = st.lists(_comparison(columns=("a", "b"), ops=("=",)), max_size=3)


@st.composite
def _wheres(draw):
    where = draw(st.one_of(st.none(), _trees))
    for pin in draw(_pins):
        where = pin if where is None else ("and", pin, where)
    return where


def _where_sql(node) -> str:
    kind = node[0]
    if kind == "cmp":
        _kind, column, op, literal, flipped = node
        left, right = column, _sql_value(literal)
        if flipped:
            left, right = right, left
        return f"({left} {op} {right})"
    if kind == "cols":
        return f"({node[1]} {node[2]} {node[3]})"
    if kind == "null":
        return f"({node[1]} IS {'NOT ' if node[2] else ''}NULL)"
    if kind == "not":
        return f"(NOT {_where_sql(node[1])})"
    return f"({_where_sql(node[1])} {kind.upper()} {_where_sql(node[2])})"


def _holds(node, row: dict):
    """SQL's value of ``node`` for ``row``: NULL propagates through a
    comparison and NOT; AND and OR take their operands' truth."""
    kind = node[0]
    if kind in ("cmp", "cols"):
        if kind == "cmp":
            _kind, column, op, literal, flipped = node
            left, right = row[column], literal
            if flipped:
                left, right = right, left
        else:
            left, op, right = row[node[1]], node[2], row[node[3]]
        return None if left is None or right is None else _OPS[op](left, right)
    if kind == "null":
        return (row[node[1]] is not None) if node[2] else (row[node[1]] is None)
    if kind == "not":
        value = _holds(node[1], row)
        return None if value is None else not value
    if kind == "and":
        return bool(_holds(node[1], row)) and bool(_holds(node[2], row))
    return bool(_holds(node[1], row)) or bool(_holds(node[2], row))


def _brute(reader, table: str, where) -> list:
    rows = list(reader.scan(table))
    if where is None:
        return rows
    return [row for row in rows if _holds(where, dict(zip(_COLUMNS, row, strict=True)))]


def _aggregates(rows: list) -> tuple:
    vs = [row[2] for row in rows if row[2] is not None]
    ss = [row[3] for row in rows if row[3] is not None]
    return (
        len(rows),
        len(vs),
        sum(vs) if vs else None,
        min((row[1] for row in rows), default=None),
        max(ss) if ss else None,
    )


@settings(max_examples=60, deadline=None)
@given(where=_wheres())
def test_where_equals_a_brute_force_filter(audit, where):
    """SELECT, aggregate, UPDATE and DELETE against the live table, its
    heap twin, an inline AS OF and a pinned session return what a Python
    filter over the whole scan returns, whatever key range the WHERE pins."""
    clause = "" if where is None else f" WHERE {_where_sql(where)}"
    aggregate = "SELECT COUNT(*), COUNT(v), SUM(v), MIN(b), MAX(s) FROM "
    session, db = audit.session, audit.db
    with audit.engine.query_as_of("shop", audit.mark) as then:
        targets = [
            (session, "t", db, "t"),
            (session, "h", db, "h"),
            (session, f"t AS OF {audit.mark!r}", then, "t"),
            (audit.pinned, "t", then, "t"),
        ]
        for runner, source, reader, table in targets:
            expected = _brute(reader, table, where)
            assert runner.execute(f"SELECT * FROM {source}{clause}").rows == expected
            assert runner.execute(f"{aggregate}{source}{clause}").rows == [
                _aggregates(expected)
            ]

    before = list(db.scan("t"))
    matched = _brute(db, "t", where)
    session.execute("BEGIN")
    try:
        assert session.execute(f"UPDATE t SET v = b + 100{clause}").rowcount == len(matched)
        hit = set(matched)
        assert list(db.scan("t")) == [
            (a, b, b + 100, s) if (a, b, v, s) in hit else (a, b, v, s)
            for a, b, v, s in before
        ]
    finally:
        session.execute("ROLLBACK")
    session.execute("BEGIN")
    try:
        assert session.execute(f"DELETE FROM t{clause}").rowcount == len(matched)
        assert list(db.scan("t")) == [row for row in before if row not in hit]
    finally:
        session.execute("ROLLBACK")
    assert list(db.scan("t")) == before


def test_asof_point_query_prepares_only_its_leaf():
    """An AS OF read whose WHERE pins the whole key prepares the one leaf
    holding it: the full scan after it, on the same pinned snapshot,
    still finds every other leaf unprepared."""
    engine = Engine(
        SimEnv.for_tests(), config=DatabaseConfig(page_size=1024, buffer_pool_pages=64)
    )
    db = engine.create_database("shop")
    session = engine.session("shop")
    session.execute(
        "CREATE TABLE t (id INT NOT NULL, qty INT NOT NULL, pad VARCHAR(64) NOT NULL, "
        "PRIMARY KEY (id))"
    )
    rows = ", ".join(f"({i}, {i}, '{'p' * 40}')" for i in range(200))
    session.execute(f"INSERT INTO t VALUES {rows}")
    mark = engine.env.clock.now()
    engine.env.clock.advance(1.0)
    session.execute("UPDATE t SET qty = qty + 1")
    tree = db.table("t").accessor
    leaves = 0
    for pid in tree.page_ids():
        with tree.services.fetch(pid) as guard:
            leaves += guard.page.level == 0
    assert leaves > 5

    stats = engine.env.stats
    with engine.session("shop") as pinned:
        pinned.execute(f"USE shop AS OF {mark!r}")
        assert pinned.execute("SELECT qty FROM t WHERE id = 1").rows == [(1,)]
        before = stats.pages_prepared_asof
        assert pinned.execute("SELECT COUNT(*) FROM t").scalar() == 200
        assert stats.pages_prepared_asof - before == leaves - 1
