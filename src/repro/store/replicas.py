"""Keys by the shard that owns them, and loading one shard's replica
set (primary + backups, §4.2)."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .object import VersionedObject, share

__all__ = ["group_keys", "group_values", "group_by_shard", "load_replicas"]


def group_keys(
    read_keys: Iterable[int], write_keys: Iterable[int],
    shard_of: Callable[[int], int],
) -> Dict[int, Tuple[List[int], List[int]]]:
    """A transaction's key sets as ``shard -> (read keys, write keys)``,
    shards in first-touched order."""
    # get-then-insert instead of setdefault: avoids building a
    # throwaway ([], []) pair per key on this per-transaction path
    groups: Dict[int, Tuple[List[int], List[int]]] = {}
    for k in read_keys:
        s = shard_of(k)
        g = groups.get(s)
        if g is None:
            g = groups[s] = ([], [])
        g[0].append(k)
    for k in write_keys:
        s = shard_of(k)
        g = groups.get(s)
        if g is None:
            g = groups[s] = ([], [])
        g[1].append(k)
    return groups


def group_values(values: Dict[int, Any],
                 shard_of: Callable[[int], int]) -> Dict[int, Dict[int, Any]]:
    """A ``key -> value`` map (a write set, the versions to validate) as
    ``shard -> {key: value}``."""
    groups: Dict[int, Dict[int, Any]] = {}
    for k, v in values.items():
        s = shard_of(k)
        g = groups.get(s)
        if g is None:
            g = groups[s] = {}
        g[k] = v
    return groups


def group_by_shard(
    items: Iterable[Tuple[int, Any, Optional[int]]],
    shard_of: Callable[[int], int],
    default_size: int,
) -> Dict[int, List[VersionedObject]]:
    """Turn ``(key, value, size)`` load items (``size`` None:
    ``default_size``) into fresh objects per shard, order preserved."""
    by_shard: Dict[int, List[VersionedObject]] = defaultdict(list)
    for key, value, size in items:
        by_shard[shard_of(key)].append(VersionedObject(
            key, value, default_size if size is None else size))
    return by_shard


def load_replicas(primary, backups: Sequence,
                  objs: Sequence[VersionedObject]) -> None:
    """Insert ``objs``, in order, into ``primary`` and bring every table
    in ``backups`` to the same contents.

    A shard's replica tables are built with the same parameters and see
    the same insert sequence, so they end up equal slot for slot.  When
    that is observable — ``primary`` blank before this call, a backup
    blank with the primary's parameters, neither layout built yet — the
    backup copies the primary's key -> object map instead of replaying
    the inserts, and builds its own layout on first use; any other
    backup has the same objects inserted in the same order.  Either way
    every replica holds the one object loaded per key, marked
    ``shared``, until it first writes that key and takes its own copy
    (:meth:`~repro.store.object.ObjectTable.writable`).  Works on any
    table with ``is_blank`` / ``insert_many`` / ``clone_from``
    (:class:`RobinhoodTable`, :class:`ChainedTable`).
    """
    replay = not primary.is_blank()
    primary.insert_many(objs)
    for table in backups:
        if replay or not table.clone_from(primary):
            share(objs)
            table.insert_many(objs)
