"""Loading one shard's replica set (primary + backups, §4.2)."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .object import VersionedObject

__all__ = ["group_by_shard", "load_replicas"]


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
    blank with the primary's parameters — the backup is cloned from the
    finished primary instead of replaying the inserts; any other backup
    gets its own copies of the objects, inserted in the same order.
    Works on any table with ``is_blank`` / ``insert_many`` /
    ``clone_from`` (:class:`RobinhoodTable`, :class:`ChainedTable`).
    """
    replay = not primary.is_blank()
    primary.insert_many(objs)
    for table in backups:
        if replay or not table.clone_from(primary):
            table.insert_many(obj.copy() for obj in objs)
