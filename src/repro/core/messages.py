"""Protocol message kinds and wire-size accounting.

Wire sizes matter: three of the four benchmarks are network-bandwidth
bound at peak (§5), so per-message header economy is where Xenic's
aggregated, software-defined messaging beats per-op RDMA framing.  One
sizer per direction (:func:`request_size`, :func:`response_size`)
counts every field a message carries; a field a kind does not use is
empty and adds nothing.

:class:`Request`/:class:`Response` are plain values: hand-written
``__slots__`` classes (not dataclasses — the CI floor is Python 3.9,
which lacks ``@dataclass(slots=True)``), built fresh for each message
and freed by reference count.  Empty collection defaults are shared
immutable-by-convention singletons instead of per-instance allocations;
nothing in the codebase mutates an empty default in place.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "MsgKind",
    "Request",
    "Response",
    "request_size",
    "response_size",
    "EXECUTE",
    "VALIDATE",
    "LOG",
    "COMMIT",
    "UNLOCK",
    "EXEC_SHIP",
    "LOG_ACK_TO",
]

# message kinds
EXECUTE = "execute"  # read values + lock write keys at a primary
VALIDATE = "validate"  # re-check versions at a primary
LOG = "log"  # replicate write set to a backup
COMMIT = "commit"  # apply write set at the primary
UNLOCK = "unlock"  # abort path: release locks
EXEC_SHIP = "exec_ship"  # multi-hop: ship execution to a remote primary
LOG_ACK_TO = "log_ack_to"  # backup ack redirected to the coordinator NIC

MsgKind = str

APP_HEADER = 18  # txn id, kind, shard, flags, count
PER_KEY = 10  # key + per-key flags
PER_VERSION = 6
ACK = 10

# Shared empty defaults: treat as immutable.  (``dict.pop`` with a
# default and ``len``/iteration are fine; in-place mutation is not.)
_EMPTY_LIST: List = []
_EMPTY_DICT: Dict = {}


class Request:
    __slots__ = ("kind", "txn_id", "shard", "coord_node", "read_keys",
                 "write_keys", "versions", "write_values", "spec",
                 "pre_read", "reply_to", "value_bytes")

    def __init__(
        self,
        kind: MsgKind,
        txn_id: int,
        shard: int,
        coord_node: int,
        read_keys: Optional[List[int]] = None,
        write_keys: Optional[List[int]] = None,
        versions: Optional[Dict[int, int]] = None,
        write_values: Optional[Dict[int, Any]] = None,
        spec: Any = None,  # TxnSpec for shipped execution
        pre_read: Optional[Dict[int, Tuple[Any, int]]] = None,
        reply_to: Optional[int] = None,  # node to send the (final) ack to
        value_bytes: Optional[int] = None,  # per-write payload size override
    ):
        self.kind = kind
        self.txn_id = txn_id
        self.shard = shard
        self.coord_node = coord_node
        self.read_keys = _EMPTY_LIST if read_keys is None else read_keys
        self.write_keys = _EMPTY_LIST if write_keys is None else write_keys
        self.versions = _EMPTY_DICT if versions is None else versions
        self.write_values = (_EMPTY_DICT if write_values is None
                             else write_values)
        self.spec = spec
        self.pre_read = _EMPTY_DICT if pre_read is None else pre_read
        self.reply_to = reply_to
        self.value_bytes = value_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("Request(%s, txn=%d, shard=%d, r=%r, w=%r)"
                % (self.kind, self.txn_id, self.shard, self.read_keys,
                   list(self.write_values) or self.write_keys))


class Response:
    __slots__ = ("kind", "txn_id", "shard", "ok", "read_values",
                 "versions", "write_values", "reason")

    def __init__(
        self,
        kind: MsgKind,
        txn_id: int,
        shard: int,
        ok: bool,
        read_values: Optional[Dict[int, Tuple[Any, int]]] = None,
        versions: Optional[Dict[int, int]] = None,  # write-key versions
        write_values: Optional[Dict[int, Any]] = None,  # multi-hop
        reason: Optional[str] = None,
    ):
        self.kind = kind
        self.txn_id = txn_id
        self.shard = shard
        self.ok = ok
        self.read_values = (_EMPTY_DICT if read_values is None
                            else read_values)
        self.versions = _EMPTY_DICT if versions is None else versions
        self.write_values = (_EMPTY_DICT if write_values is None
                             else write_values)
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("Response(%s, txn=%d, shard=%d, ok=%r%s)"
                % (self.kind, self.txn_id, self.shard, self.ok,
                   ", reason=%r" % self.reason if self.reason else ""))


def request_size(req: Request, value_size: int) -> int:
    """Bytes of an outbound request on the wire."""
    size = APP_HEADER
    vb = req.value_bytes if req.value_bytes is not None else value_size
    size += PER_KEY * (len(req.read_keys) + len(req.write_keys))
    size += PER_VERSION * len(req.versions)
    size += (PER_KEY + vb) * len(req.write_values)
    size += (PER_KEY + PER_VERSION + value_size) * len(req.pre_read)
    if req.spec is not None:
        size += getattr(req.spec, "external_state_bytes", 0) + 8
    return size


def response_size(resp: Response, value_size: int) -> int:
    """Bytes of a response on the wire."""
    size = ACK
    size += (PER_KEY + PER_VERSION + value_size) * len(resp.read_values)
    size += PER_VERSION * len(resp.versions)
    size += (PER_KEY + value_size) * len(resp.write_values)
    return size
