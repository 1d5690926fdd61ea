"""Tests for the index probe and the B+Tree it is measured against.

The engine's index is a cached sort of one column probed with
``np.searchsorted`` (``index_row_ids``); the B+Tree is the paper's E9
baseline and lives in ``repro.ai4db.design``.
"""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ai4db.design.btree import BPlusTree
from repro.common import CatalogError, ExecutionError
from repro.engine.catalog import Catalog
from repro.engine.operators.scan import WINDOWS, index_row_ids
from repro.engine.query import Predicate


class TestBPlusTreeBasics:
    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        for i, key in enumerate([5, 3, 8, 1, 9, 7]):
            tree.insert(key, i)
        assert list(tree.search(8)) == [2]
        assert len(tree.search(42)) == 0

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert(5, 1)
        tree.insert(5, 2)
        assert sorted(tree.search(5)) == [1, 2]
        assert tree.n_keys == 1
        assert len(tree) == 2

    def test_range_search_inclusive_bounds(self):
        tree = BPlusTree.bulk_load([(i, i) for i in range(10)], order=4)
        assert sorted(tree.range_search(3, 6)) == [3, 4, 5, 6]
        assert sorted(tree.range_search(3, 6, inclusive=(False, False))) == [4, 5]

    def test_range_search_open_bounds(self):
        tree = BPlusTree.bulk_load([(i, i) for i in range(10)], order=4)
        assert sorted(tree.range_search(high=2)) == [0, 1, 2]
        assert sorted(tree.range_search(low=8)) == [8, 9]
        assert sorted(tree.range_search()) == list(range(10))

    def test_items_in_key_order(self):
        tree = BPlusTree(order=4)
        keys = [9, 2, 7, 4, 1, 8, 3]
        for k in keys:
            tree.insert(k, k)
        assert [k for k, __ in tree.items()] == sorted(keys)

    def test_splits_increase_height(self):
        tree = BPlusTree(order=3)
        for i in range(100):
            tree.insert(i, i)
        assert tree.height > 1
        # Everything still findable after many splits.
        for i in range(100):
            assert list(tree.search(i)) == [i]

    def test_order_validation(self):
        with pytest.raises(CatalogError):
            BPlusTree(order=2)

    def test_size_bytes_grows(self):
        small = BPlusTree.bulk_load([(i, i) for i in range(10)])
        big = BPlusTree.bulk_load([(i, i) for i in range(1000)])
        assert big.size_bytes() > small.size_bytes()

    def test_text_keys(self):
        tree = BPlusTree(order=4)
        for i, w in enumerate(["pear", "apple", "mango", "fig"]):
            tree.insert(w, i)
        assert list(tree.search("apple")) == [1]
        assert sorted(tree.range_search("apple", "mango")) == [1, 2, 3]


class TestProbeArrayReturns:
    def test_btree_probes_return_int64_arrays(self):
        tree = BPlusTree.bulk_load([(i, i) for i in range(10)], order=4)
        for ids in (tree.search(3), tree.search(99), tree.range_search(2, 5)):
            assert isinstance(ids, np.ndarray)
            assert ids.dtype == np.int64


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1,
                max_size=300),
       st.integers(min_value=3, max_value=16))
def test_btree_matches_dict_reference(keys, order):
    """Property: B+Tree search agrees with a dict-of-lists reference."""
    tree = BPlusTree(order=order)
    reference = {}
    for row_id, key in enumerate(keys):
        tree.insert(key, row_id)
        reference.setdefault(key, []).append(row_id)
    for key, ids in reference.items():
        assert sorted(tree.search(key)) == sorted(ids)
    assert tree.n_keys == len(reference)
    assert len(tree) == len(keys)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=200),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_btree_range_matches_filter(keys, lo, hi):
    """Property: range_search equals brute-force filtering."""
    if lo > hi:
        lo, hi = hi, lo
    tree = BPlusTree.bulk_load([(k, i) for i, k in enumerate(keys)], order=5)
    expected = sorted(i for i, k in enumerate(keys) if lo <= k <= hi)
    assert sorted(tree.range_search(lo, hi)) == expected


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                max_size=150))
def test_btree_items_sorted_and_complete(keys):
    """Property: items() yields every key exactly once, in order."""
    tree = BPlusTree.bulk_load([(k, i) for i, k in enumerate(keys)], order=4)
    emitted = [k for k, __ in tree.items()]
    assert emitted == sorted(set(keys))
    total = sum(len(ids) for __, ids in tree.items())
    assert total == len(keys)


# ----------------------------------------------------------------------
# The engine's probe: searchsorted over the snapshot's column sort
# ----------------------------------------------------------------------
_OPS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}

_INT_KEYS = st.integers(min_value=-20, max_value=20)
_FLOAT_KEYS = st.one_of(
    st.none(), st.integers(min_value=-20, max_value=20).map(lambda i: i / 2))
_TEXT_KEYS = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "b", "n1"]))


def _probe(catalog, op, value, index="ix"):
    return index_row_ids(catalog, "t", index, Predicate("t", "k", op, value),
                         WINDOWS.get(op))[1]


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just("INT"), st.lists(_INT_KEYS, max_size=60), _INT_KEYS),
    st.tuples(st.just("FLOAT"), st.lists(_FLOAT_KEYS, max_size=60),
              _FLOAT_KEYS.filter(lambda v: v is not None)),
    st.tuples(st.just("TEXT"), st.lists(_TEXT_KEYS, max_size=60),
              _TEXT_KEYS.filter(lambda v: v is not None)),
))
def test_index_probe_matches_brute_force_filter(case):
    """Property: every operator through ``index_row_ids`` equals filtering
    the valid (non-NULL) keys by hand — duplicates, NaN and None included."""
    dtype, keys, value = case
    catalog = Catalog(segment_rows=16)
    catalog.create_table("t", [("k", dtype)]).insert_rows([(k,) for k in keys])
    catalog.create_index("ix", "t", "k")
    for op, fn in _OPS.items():
        expected = [i for i, k in enumerate(keys)
                    if k is not None and fn(k, value)]
        row_ids = _probe(catalog, op, value)
        assert row_ids.dtype == np.int64
        assert row_ids.tolist() == expected, op


class TestIndexProbe:
    def _catalog(self, kind="btree"):
        catalog = Catalog()
        catalog.create_table("t", [("k", "FLOAT")]).insert_rows(
            [(3.0,), (None,), (1.0,), (3.0,), (math.nan,)])
        catalog.create_index("ix", "t", "k", kind=kind)
        return catalog

    def test_sort_holds_valid_keys_only_and_is_stable(self):
        keys, row_ids = self._catalog().table("t").sorted_column("k")
        assert keys.tolist() == [1.0, 3.0, 3.0]
        assert row_ids.tolist() == [2, 0, 3]

    def test_sort_is_cached_on_the_snapshot_and_dropped_by_a_write(self):
        table = self._catalog().table("t")
        pinned = table.snapshot()
        first = table.sorted_column("k")
        assert table.sorted_column("k") is first
        assert pinned.sorted_column("k") is first
        table.insert_rows([(0.5,)])
        assert table.sorted_column("k")[0].tolist() == [0.5, 1.0, 3.0, 3.0]
        assert pinned.sorted_column("k") is first

    def test_hash_answers_only_equality(self):
        catalog = self._catalog(kind="hash")
        assert _probe(catalog, "=", 3.0).tolist() == [0, 3]
        with pytest.raises(ExecutionError, match="only equality"):
            _probe(catalog, "<", 3.0)

    def test_unknown_index_and_operator_rejected(self):
        catalog = self._catalog()
        with pytest.raises(ExecutionError, match="not found"):
            _probe(catalog, "=", 3.0, index="nope")
        with pytest.raises(ExecutionError, match="cannot evaluate"):
            _probe(catalog, "!=", 3.0)


# ----------------------------------------------------------------------
# Keys that already ascend are their own stable sort
# ----------------------------------------------------------------------
def _stable_argsort(values, dtype):
    """``sorted_column`` as it always sorted: drop NULLs, stable argsort."""
    values = np.asarray(values, dtype=object if dtype == "TEXT" else None)
    if dtype == "TEXT":
        row_ids = np.flatnonzero([v is not None for v in values])
    elif dtype == "FLOAT":
        values = values.astype(float)
        row_ids = np.flatnonzero(~np.isnan(values))
    else:
        values = values.astype(np.int64)
        row_ids = np.arange(len(values))
    values = values[row_ids]
    order = np.argsort(values, kind="stable")
    return values[order], row_ids[order]


def _assert_sorted_like_argsort(table, dtype, keys):
    got, want = table.sorted_column("k"), _stable_argsort(keys, dtype)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        if a.dtype == object:
            assert a.tolist() == b.tolist()
        else:
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype, keys", [
    ("INT", [-5, -5, 0, 3, 3, 3, 9]),
    ("FLOAT", [-1.5, -0.0, 0.0, -0.0, 0.0, 2.5, 2.5]),
    ("FLOAT", [0.0, -0.0, 1.0, math.nan, 1.0, math.nan, 4.0]),
    ("INT", [9, 7, 7, 2, -1]),
    ("FLOAT", [3.0, 1.0, -0.0, 0.0, 2.0]),
    ("INT", [4, 1, 3, 1, 2]),
    ("INT", []),
    ("FLOAT", []),
    ("TEXT", ["a", None, "b", "b"]),
], ids=["int-ties", "float-zero-ties", "float-nan", "int-descending",
        "float-unsorted", "int-unsorted", "int-empty", "float-empty", "text"])
@pytest.mark.parametrize("segment_rows", [3, 1000])
def test_sorted_column_equals_the_stable_argsort(dtype, keys, segment_rows):
    catalog = Catalog(segment_rows=segment_rows)
    table = catalog.create_table("t", [("k", dtype)])
    if keys:
        table.insert_rows([(k,) for k in keys])
    _assert_sorted_like_argsort(table, dtype, keys)


@pytest.mark.parametrize("appended, ascending", [
    ([10, 10, 12], True), ([4, 11], False)])
def test_probes_after_an_append_that_keeps_or_breaks_the_order(appended,
                                                              ascending):
    keys = [0, 1, 1, 3, 5, 8]
    catalog = Catalog(segment_rows=4)
    table = catalog.create_table("t", [("k", "INT")])
    table.insert_rows([(k,) for k in keys])
    catalog.create_index("ix", "t", "k")
    assert _probe(catalog, ">=", 3).tolist() == [3, 4, 5]
    table.insert_rows([(k,) for k in appended])
    keys += appended
    sorted_keys = table.sorted_column("k")[0]
    assert bool((np.diff(table.column_array("k")) >= 0).all()) == ascending
    assert sorted_keys.tolist() == sorted(keys)
    _assert_sorted_like_argsort(table, "INT", keys)
    for op, fn in _OPS.items():
        for value in (1, 4, 10, 11):
            expected = [i for i, k in enumerate(keys) if fn(k, value)]
            assert _probe(catalog, op, value).tolist() == expected, (op, value)
