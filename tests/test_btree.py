"""B-tree tests: CRUD, splits across levels, scans, invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.access.btree import BTree, decode_entry, encode_entry
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.config import CostModel, SimEnv
from repro.errors import DuplicateKeyError, KeyNotFoundError
from tests.conftest import ITEMS_SCHEMA, WIDE_SCHEMA, fill_items


def tree_of(db, name="items") -> BTree:
    return db.table(name).accessor


def height(tree: BTree) -> int:
    """Levels of ``tree``: its root's level plus one."""
    with tree.services.fetch(tree.root_page_id) as guard:
        return guard.page.level + 1


class TestEntryCodec:
    def test_inf_entry(self):
        child, key = decode_entry(encode_entry(42, None))
        assert child == 42
        assert key is None

    def test_keyed_entry(self):
        child, key = decode_entry(encode_entry(7, b"\x01\x02"))
        assert child == 7
        assert key == b"\x01\x02"


class TestCrud:
    def test_get_missing(self, items_db):
        assert items_db.get("items", (1,)) is None

    def test_insert_get(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "one", 10))
        assert items_db.get("items", (1,)) == (1, "one", 10)

    def test_duplicate_rejected(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "one", 10))
        with pytest.raises(DuplicateKeyError):
            with items_db.transaction() as txn:
                items_db.insert(txn, "items", (1, "again", 0))
        # The failed transaction rolled back cleanly.
        assert items_db.get("items", (1,)) == (1, "one", 10)

    def test_delete_missing_raises(self, items_db):
        with pytest.raises(KeyNotFoundError):
            with items_db.transaction() as txn:
                items_db.delete(txn, "items", (404,))

    def test_update_missing_raises(self, items_db):
        with pytest.raises(KeyNotFoundError):
            with items_db.transaction() as txn:
                items_db.update(txn, "items", (404,), {"qty": 1})

    def test_update_key_change_rejected(self, items_db):
        from repro.errors import StorageError

        with items_db.transaction() as txn:
            items_db.insert(txn, "items", (1, "one", 10))
        with pytest.raises(StorageError):
            with items_db.transaction() as txn:
                items_db.update(txn, "items", (1,), {"id": 2})
        assert items_db.get("items", (1,)) == (1, "one", 10)
        assert items_db.get("items", (2,)) is None

    def test_dict_row_insert(self, items_db):
        with items_db.transaction() as txn:
            items_db.insert(txn, "items", {"id": 5, "name": "five", "qty": 50})
        assert items_db.get("items", (5,)) == (5, "five", 50)


class TestSplits:
    def test_leaf_splits_preserve_all_rows(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 300)
        assert height(tree_of(db)) >= 2
        rows = list(db.scan("items"))
        assert len(rows) == 300
        assert [r[0] for r in rows] == list(range(300))

    def test_multi_level_tree(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 2000)
        tree = tree_of(db)
        assert height(tree) >= 3
        assert tree.count() == 2000
        # Spot-check point queries after deep splits.
        for key in (0, 999, 1999, 1234):
            assert db.get("items", (key,))[0] == key

    def test_reverse_insert_order(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        with db.transaction() as txn:
            for i in range(500, 0, -1):
                db.insert(txn, "items", (i, f"i{i}", i))
        rows = [r[0] for r in db.scan("items")]
        assert rows == list(range(1, 501))

    def test_random_insert_order(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        keys = list(range(800))
        random.Random(7).shuffle(keys)
        with db.transaction() as txn:
            for k in keys:
                db.insert(txn, "items", (k, f"i{k}", k))
        assert [r[0] for r in db.scan("items")] == list(range(800))

    def test_growing_updates_force_splits(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 60)
        with db.transaction() as txn:
            for i in range(60):
                db.update(txn, "items", (i,), {"name": "x" * 60})
        rows = list(db.scan("items"))
        assert len(rows) == 60
        assert all(r[1] == "x" * 60 for r in rows)

    def test_page_ids_covers_tree(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 500)
        tree = tree_of(db)
        pids = tree.page_ids()
        assert tree.root_page_id in pids
        assert len(pids) == len(set(pids))
        assert len(pids) > 3


class TestScans:
    def test_range_scan(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 200)
        rows = list(db.scan("items", lo=(50,), hi=(59,)))
        assert [r[0] for r in rows] == list(range(50, 60))

    def test_scan_open_ended(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 100)
        assert [r[0] for r in db.scan("items", lo=(90,))] == list(range(90, 100))
        assert [r[0] for r in db.scan("items", hi=(9,))] == list(range(10))

    def test_scan_empty_table(self, items_db):
        assert list(items_db.scan("items")) == []

    def test_scan_after_deletes(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 150)
        with db.transaction() as txn:
            for i in range(0, 150, 3):
                db.delete(txn, "items", (i,))
        rows = [r[0] for r in db.scan("items")]
        assert rows == [i for i in range(150) if i % 3]

    def test_composite_key_ordering(self, engine, wide_schema):
        db = engine.create_database("wide_db")
        db.create_table(wide_schema)
        with db.transaction() as txn:
            for k1 in (2, 1):
                for k2 in ("b", "a"):
                    db.insert(txn, "wide", (k1, k2, 0.0, False, None, None))
        keys = [(r[0], r[1]) for r in db.scan("wide")]
        assert keys == [(1, "a"), (1, "b"), (2, "a"), (2, "b")]


def pages_of(tree: BTree):
    """(page, is_leaf) for every page of ``tree``, each under its pin."""
    for pid in tree.page_ids():
        with tree.services.fetch(pid) as guard:
            yield guard.page, guard.page.level == 0


def probes_around(keys: list[tuple]) -> list[tuple]:
    """Every present key, a key in every gap and one off each end; for
    composite keys also the bare prefixes, which sort before every key
    they begin."""
    probes = list(keys)
    for key in keys:
        *head, last = key
        after = last + 1 if isinstance(last, int) else last + "!"
        probes.append((*head, after))
        probes.append(tuple(head))
    first, last = keys[0], keys[-1]
    low = first[0] - 1 if isinstance(first[0], int) else ""
    high = last[0] + 1 if isinstance(last[0], int) else last[0] + "~"
    return [*probes, (low,), (high,)]


@pytest.fixture(params=["int_key", "composite_key", "string_key"])
def probe_tree(request, engine, small_config) -> BTree:
    """A three-level-or-so tree with gaps between its keys."""
    db = engine.create_database("probes", small_config)
    if request.param == "int_key":
        db.create_table(ITEMS_SCHEMA)
        with db.transaction() as txn:
            for i in range(0, 800, 2):
                db.insert(txn, "items", (i, f"item-{i}", i))
        return tree_of(db)
    if request.param == "composite_key":
        db.create_table(WIDE_SCHEMA)
        with db.transaction() as txn:
            for k1 in range(0, 40, 2):
                for k2 in ("", "b", "bb", "d", "é", "☃☃"):
                    db.insert(txn, "wide", (k1, k2, 0.5, True, None, "n" * 60))
        return tree_of(db, "wide")
    schema = TableSchema("names", [
        Column("pad", ColumnType.BYTES, max_len=8, nullable=True),
        Column("name", ColumnType.STR, max_len=24),
        Column("n", ColumnType.INT),
    ], key=["name"])
    db.create_table(schema)
    with db.transaction() as txn:
        for i in range(300):
            db.insert(txn, "names", (None if i % 3 else b"pad", f"name-{i:05d}" * (1 + i % 2), i))
    return tree_of(db, "names")


class TestProbes:
    """``_find_slot`` / ``_child_index`` decode keys in place; a linear
    scan over the copied-out records is the oracle."""

    def test_tree_is_deep_enough_to_matter(self, probe_tree):
        assert height(probe_tree) >= 2

    def test_find_slot_agrees_with_linear_scan(self, probe_tree):
        tree = probe_tree
        for page, is_leaf in pages_of(tree):
            if not is_leaf:
                continue
            keys = [tree.schema.key_of(tree.codec.decode(p)) for p in page.records()]
            assert keys == sorted(keys)
            for probe in probes_around(keys):
                slot, found = tree._find_slot(page, probe)
                assert found == (probe in keys)
                assert slot == sum(1 for key in keys if key < probe)
                if found:
                    assert tree.codec.decode_key(page.record(slot)) == probe

    def test_child_index_agrees_with_linear_scan(self, probe_tree):
        tree = probe_tree
        interiors = 0
        for page, is_leaf in pages_of(tree):
            if is_leaf:
                continue
            interiors += 1
            entries = [decode_entry(payload) for payload in page.records()]
            # Entry 0 is -inf whatever it stores.
            keys = [tree.key_codec.decode(kb) for _child, kb in entries[1:]]
            for probe in probes_around(keys):
                expected = sum(1 for key in keys if key <= probe)
                assert tree._child_index(page, probe) == expected
        assert interiors


def scan_bounds(tree: BTree) -> list[tuple | None]:
    """``None``, keys before/after the tree, and around every leaf
    boundary (first and last key of each leaf, and the gaps beside them)."""
    bounds: list[tuple | None] = [None]
    for page, is_leaf in pages_of(tree):
        if is_leaf and page.slot_count:
            edge_keys = [tree.codec.decode_key(page.record(slot)) for slot in (0, page.slot_count - 1)]
            bounds.extend(probes_around(edge_keys))
    return bounds


class TestScanBounds:
    def test_scan_yields_what_the_full_decode_filter_yields(self, probe_tree):
        tree = probe_tree
        everything = [(tree.schema.key_of(row), row) for row in tree.scan()]
        assert [key for key, _row in everything] == sorted(key for key, _row in everything)
        bounds = scan_bounds(tree)
        rng = random.Random(5)
        pairs = [(lo, hi) for lo in bounds[:12] for hi in bounds[:12]]
        pairs += [(rng.choice(bounds), rng.choice(bounds)) for _ in range(300)]
        for lo, hi in pairs:
            expected = [
                row for key, row in everything
                if (lo is None or key >= lo) and (hi is None or key <= hi)
            ]
            assert list(tree.scan(lo, hi)) == expected, (lo, hi)

    def test_scan_over_emptied_leaves(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 300)
        with db.transaction() as txn:
            for i in range(40, 260):
                db.delete(txn, "items", (i,))
        tree = tree_of(db)
        assert any(is_leaf and page.slot_count == 0 for page, is_leaf in pages_of(tree))
        assert [r[0] for r in tree.scan((30,), (270,))] == [*range(30, 40), *range(260, 271)]
        assert [r[0] for r in tree.scan((100,), (200,))] == []

    def test_scan_charges_the_rows_it_yields_and_decodes_no_others(self, small_config):
        """The sim clock must not notice the key-only probes: one
        ``query_row_cpu_s`` per row yielded, nothing else; and no row
        outside ``[lo, hi]`` is fully decoded."""
        env = SimEnv(cost=CostModel())
        db = Engine(env).create_database("priced", small_config)
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 400)
        tree = tree_of(db)
        decoded = []
        real_decode = tree.codec.decode

        def counting_decode(*args):
            row = real_decode(*args)
            decoded.append(row[0])
            return row

        tree.codec.decode = counting_decode
        charges = []
        real_charge = env.charge_cpu
        env.charge_cpu = lambda seconds: (charges.append(seconds), real_charge(seconds))
        for lo, hi in [((120,), (135,)), (None, (3,)), ((390,), None), ((500,), None), ((7,), (7,))]:
            decoded.clear()
            charges.clear()
            before = env.clock.now()
            rows = list(tree.scan(lo, hi))
            keys = [row[0] for row in rows]
            assert keys == [
                k for k in range(400) if (lo is None or k >= lo[0]) and (hi is None or k <= hi[0])
            ]
            assert decoded == keys
            assert charges == [env.cost.query_row_cpu_s] * len(rows)
            assert env.clock.now() - before == pytest.approx(sum(charges), abs=1e-12)


class TestDeleteChurn:
    def test_empty_then_refill(self, small_db):
        db = small_db
        db.create_table(ITEMS_SCHEMA)
        fill_items(db, 300)
        with db.transaction() as txn:
            for i in range(300):
                db.delete(txn, "items", (i,))
        assert list(db.scan("items")) == []
        fill_items(db, 100, start=1000)
        assert tree_of(db).count() == 100


# ---------------------------------------------------------------------------
# Property: random op sequences match a dict model.
# ---------------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "get"]),
        st.integers(min_value=0, max_value=120),
        st.text(min_size=0, max_size=24),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(_ops)
def test_btree_matches_dict_model(ops):
    from repro import DatabaseConfig, Engine

    engine = Engine(config=DatabaseConfig(page_size=1024, buffer_pool_pages=64))
    db = engine.create_database("prop")
    db.create_table(ITEMS_SCHEMA)
    model: dict[int, tuple] = {}
    with db.transaction() as txn:
        for op, key, text in ops:
            if op == "insert" and key not in model:
                row = (key, text, key * 2)
                db.insert(txn, "items", row)
                model[key] = row
            elif op == "delete" and key in model:
                db.delete(txn, "items", (key,))
                del model[key]
            elif op == "update" and key in model:
                row = db.update(txn, "items", (key,), {"name": text})
                model[key] = row
            elif op == "get":
                assert db.get("items", (key,), txn) == model.get(key)
    assert {r[0]: r for r in db.scan("items")} == model
