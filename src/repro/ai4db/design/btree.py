"""B+Tree: the traditional index the learned indexes are measured against.

The paper's E9 baseline (with :class:`~repro.ai4db.design.learned_index.
BinarySearchIndex`), not an engine part: the engine's IndexScan probes a
cached sort of the column (``TableSnapshot.sorted_column``). Keys map to
lists of row ids (duplicates allowed); ``search``/``range_search`` return
NumPy ``int64`` row-id arrays.
"""

import bisect

import numpy as np

from repro.common import CatalogError

_EMPTY_IDS = np.empty(0, dtype=np.int64)


def _as_ids(row_ids):
    """Row ids as an int64 array (copying, so callers may sort in place)."""
    if not row_ids:
        return _EMPTY_IDS.copy()
    return np.asarray(row_ids, dtype=np.int64)


class _LeafNode:
    __slots__ = ("keys", "values", "next")

    def __init__(self):
        self.keys = []
        self.values = []  # list of lists of row ids, aligned with keys
        self.next = None


class _InnerNode:
    __slots__ = ("keys", "children")

    def __init__(self):
        self.keys = []
        self.children = []


class BPlusTree:
    """A B+Tree mapping orderable keys to lists of row ids.

    Args:
        order: maximum number of keys per node before a split (>= 3).
    """

    def __init__(self, order=64):
        if order < 3:
            raise CatalogError("B+Tree order must be >= 3")
        self.order = order
        self._root = _LeafNode()
        self._height = 1
        self._n_keys = 0
        self._n_entries = 0

    def __len__(self):
        return self._n_entries

    @property
    def n_keys(self):
        """Number of distinct keys."""
        return self._n_keys

    @property
    def height(self):
        """Tree height in levels (1 = a single leaf)."""
        return self._height

    def insert(self, key, row_id):
        """Insert one (key, row_id) pair."""
        result = self._insert(self._root, key, row_id)
        if result is not None:
            sep, right = result
            new_root = _InnerNode()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._n_entries += 1

    def _insert(self, node, key, row_id):
        if isinstance(node, _LeafNode):
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i].append(row_id)
                return None
            node.keys.insert(i, key)
            node.values.insert(i, [row_id])
            self._n_keys += 1
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, key)
        result = self._insert(node.children[i], key, row_id)
        if result is None:
            return None
        sep, right = result
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.keys) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, node):
        mid = len(node.keys) // 2
        right = _LeafNode()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        return right.keys[0], right

    def _split_inner(self, node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _InnerNode()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    def _find_leaf(self, key):
        node = self._root
        while isinstance(node, _InnerNode):
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        return node

    def search(self, key):
        """Row ids for an exact key match (int64 array, empty when absent)."""
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return _as_ids(leaf.values[i])
        return _EMPTY_IDS.copy()

    def range_search(self, low=None, high=None, inclusive=(True, True)):
        """Row ids for keys in ``[low, high]`` (bounds optional).

        Args:
            low: lower bound or ``None`` for open.
            high: upper bound or ``None`` for open.
            inclusive: pair of booleans for the two bounds.
        """
        lo_inc, hi_inc = inclusive
        if low is not None:
            leaf = self._find_leaf(low)
            i = (
                bisect.bisect_left(leaf.keys, low)
                if lo_inc
                else bisect.bisect_right(leaf.keys, low)
            )
        else:
            leaf = self._leftmost_leaf()
            i = 0
        out = []
        while leaf is not None:
            while i < len(leaf.keys):
                k = leaf.keys[i]
                if high is not None:
                    if hi_inc and k > high:
                        return _as_ids(out)
                    if not hi_inc and k >= high:
                        return _as_ids(out)
                out.extend(leaf.values[i])
                i += 1
            leaf = leaf.next
            i = 0
        return _as_ids(out)

    def _leftmost_leaf(self):
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        return node

    def items(self):
        """Iterate ``(key, [row_ids])`` in key order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            for k, v in zip(leaf.keys, leaf.values):
                yield k, list(v)
            leaf = leaf.next

    def keys(self):
        """All distinct keys in order."""
        return [k for k, __ in self.items()]

    def size_bytes(self, key_bytes=8, ptr_bytes=8):
        """Modeled in-memory size: keys + row-id pointers + fanout pointers."""
        n_inner_keys = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if isinstance(node, _InnerNode):
                n_inner_keys += len(node.keys)
                stack.extend(node.children)
        return (
            self._n_keys * key_bytes
            + self._n_entries * ptr_bytes
            + n_inner_keys * (key_bytes + ptr_bytes)
        )

    @classmethod
    def bulk_load(cls, pairs, order=64):
        """Build from an iterable of (key, row_id) pairs (any order)."""
        tree = cls(order=order)
        for key, row_id in sorted(pairs, key=lambda kv: kv[0]):
            tree.insert(key, row_id)
        return tree
