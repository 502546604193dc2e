"""Data stores: Robinhood/Hopscotch/chained tables, NIC index, log."""

from .chained import ChainedLookup, ChainedTable
from .hopscotch import HopscotchLookup, HopscotchTable
from .log import HostLog, LogRecord, record_size_bytes
from .nic_index import DmaLookupCost, NicIndex, TxnMeta
from .object import LARGE_OBJECT_THRESHOLD, ObjectTable, VersionedObject, mix64
from .replicas import group_by_shard, group_keys, group_values, load_replicas
from .robinhood import DeleteResult, InsertResult, LookupResult, RobinhoodTable

__all__ = [
    "VersionedObject",
    "ObjectTable",
    "mix64",
    "LARGE_OBJECT_THRESHOLD",
    "RobinhoodTable",
    "InsertResult",
    "LookupResult",
    "DeleteResult",
    "group_by_shard",
    "group_keys",
    "group_values",
    "load_replicas",
    "HopscotchTable",
    "HopscotchLookup",
    "ChainedTable",
    "ChainedLookup",
    "NicIndex",
    "TxnMeta",
    "DmaLookupCost",
    "HostLog",
    "LogRecord",
    "record_size_bytes",
]
