"""B+ tree used for TPC-C's coordinator-local tables (§5.2).

TPC-C keeps ORDER / NEW-ORDER / ORDER-LINE and friends in B+ trees local
to their coordinator; manipulating them is the compute-heavy host work
that dominates Xenic's TPC-C host-thread budget (Table 3).  This is a
textbook in-memory B+ tree with ordered iteration; the workload charges
its operations to host cores (``hw.params.TPCC_BTREE_OP_US``).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[Any] = []
        self.children: List["_Node"] = []  # internal nodes
        self.values: List[Any] = []  # leaves
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """In-memory B+ tree with linked leaves for range scans."""

    def __init__(self, order: int = 32):
        if order < 4:
            raise ValueError("order must be >= 4")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._height = 1
        self.size = 0

    def __len__(self) -> int:
        return self.size

    @property
    def height(self) -> int:
        return self._height

    # -- point ops ------------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite."""
        path: List[Tuple[_Node, int]] = []
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value
            return
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self.size += 1
        # split up the path as needed
        while len(node.keys) > self.order:
            mid = len(node.keys) // 2
            right = _Node(node.is_leaf)
            if node.is_leaf:
                right.keys = node.keys[mid:]
                right.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                right.next_leaf = node.next_leaf
                node.next_leaf = right
                up_key = right.keys[0]
            else:
                up_key = node.keys[mid]
                right.keys = node.keys[mid + 1 :]
                right.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]
            if path:
                parent, pidx = path.pop()
                parent.keys.insert(pidx, up_key)
                parent.children.insert(pidx + 1, right)
                node = parent
            else:
                new_root = _Node(is_leaf=False)
                new_root.keys = [up_key]
                new_root.children = [node, right]
                self._root = new_root
                self._height += 1
                return

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns False if absent.  Leaves may underflow
        (lazy deletion) — acceptable for the workload's delete rate."""
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.keys.pop(idx)
            node.values.pop(idx)
            self.size -= 1
            return True
        return False

    # -- scans ------------------------------------------------------------

    def _leftmost_leaf_for(self, key: Any) -> Tuple[_Node, int]:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            # descend to the child that may contain `key`
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node, bisect.bisect_left(node.keys, key)

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) for lo <= key < hi in order."""
        node, idx = self._leftmost_leaf_for(lo)
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if key >= hi:
                    return
                yield key, node.values[idx]
                idx += 1
            node = node.next_leaf
            idx = 0

    def items(self) -> Iterator[Tuple[Any, Any]]:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        while node is not None:
            for k, v in zip(node.keys, node.values):
                yield k, v
            node = node.next_leaf
