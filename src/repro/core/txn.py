"""Transaction state: read/write sets, OCC bookkeeping, function shipping.

A transaction is specified by a :class:`TxnSpec` (what the workload wants)
and carried through the commit protocol as a :class:`Transaction` (what
the system tracks).  Transaction IDs pack (node, sequence) so any replica
can identify the coordinator.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..hw.params import ABORT_BACKOFF_US
from ..sim.core import Event
from ..sim.stats import Counter

__all__ = [
    "TxnStatus",
    "TxnLogic",
    "TxnSpec",
    "Transaction",
    "Coordinator",
    "NeedMoreKeys",
    "TOMBSTONE",
    "make_txn_id",
    "abort_backoff_us",
]


class _Tombstone:
    """Sentinel write value that deletes the key at commit time (§4.1.3:
    deletions ride the transaction protocol like any other write)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()

_NODE_BITS = 12


def make_txn_id(node_id: int, seq: int) -> int:
    """Pack (node, sequence) into a transaction id."""
    return (seq << _NODE_BITS) | node_id


def abort_backoff_us(attempts: int) -> float:
    """How long a coordinator waits before attempt number ``attempts``
    (the aborted attempts so far plus one), on every system."""
    return ABORT_BACKOFF_US * min(attempts, 16)


class TxnStatus(enum.Enum):
    PENDING = "pending"
    EXECUTING = "executing"
    VALIDATING = "validating"
    LOGGING = "logging"
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTED = "aborted"


# A transaction's execution logic: given the values read, produce the
# write-set values.  ``state`` is the application's external state shipped
# with the transaction (§4.2.2).  Multi-shot logic (§4.2 step 3) may
# instead return :class:`NeedMoreKeys` to request further execution
# rounds; it is re-invoked once the new keys have been read/locked.
TxnLogic = Callable[[Dict[int, Any], Any], Dict[int, Any]]


class NeedMoreKeys:
    """Returned by multi-shot transaction logic to extend the read/write
    sets; the coordinator issues additional EXECUTE requests and calls the
    logic again with the merged read values (§4.2 step 3)."""

    __slots__ = ("read_keys", "write_keys")

    def __init__(self, read_keys=(), write_keys=()):
        self.read_keys = list(read_keys)
        self.write_keys = list(write_keys)

    def __repr__(self) -> str:  # pragma: no cover
        return "<NeedMoreKeys r=%r w=%r>" % (self.read_keys, self.write_keys)


class TxnSpec:
    """What the workload asks for: keys, logic, and shipping hints.

    Hand-written ``__slots__`` class (CI floor is Python 3.9, no
    ``@dataclass(slots=True)``): specs are built per transaction by the
    workload generators, so construction cost and per-instance dict
    overhead sit directly on the benchmark hot path.  The key lists are
    fixed after construction (multi-shot rounds extend the
    *transaction's* extra-key lists, never the spec), so ``all_keys()``
    memoizes its result.
    """

    __slots__ = ("read_keys", "write_keys", "logic", "external_state",
                 "external_state_bytes", "ship_execution", "single_round",
                 "logic_cost_us", "write_bytes", "local_compute_us",
                 "read_only", "label", "post_commit", "_all_keys")

    def __init__(
        self,
        read_keys: List[int],
        write_keys: List[int],
        logic: Optional[TxnLogic] = None,
        external_state: Any = None,
        external_state_bytes: int = 0,
        # user annotation (§4.3.3): allow shipping execution to NIC cores
        ship_execution: bool = True,
        # multi-shot transactions (logic may return NeedMoreKeys) cannot
        # use the multi-hop remote-execution pattern (§4.2.3: single
        # round only)
        single_round: bool = True,
        # reference-Xeon µs of application compute in the logic function
        logic_cost_us: float = 0.1,
        # bytes per written value on the wire / in log records (defaults
        # to the workload's full object size; workloads that modify a few
        # fields replicate deltas, e.g. TPC-C stock updates)
        write_bytes: Optional[int] = None,
        # host-side compute before the transaction starts (e.g. B+ tree)
        local_compute_us: float = 0.0,
        read_only: bool = False,
        label: str = "txn",
        # host-side callback after commit (no workload sets one; the
        # benchmark audit still calls it)
        post_commit: Optional[Callable[[], None]] = None,
    ):
        self.read_keys = read_keys
        self.write_keys = write_keys
        self.logic = logic
        self.external_state = external_state
        self.external_state_bytes = external_state_bytes
        self.ship_execution = ship_execution
        self.single_round = single_round
        self.logic_cost_us = logic_cost_us
        self.write_bytes = write_bytes
        self.local_compute_us = local_compute_us
        self.read_only = read_only
        self.label = label
        self.post_commit = post_commit
        self._all_keys: Optional[List[int]] = None

    def all_keys(self) -> List[int]:
        keys = self._all_keys
        if keys is None:
            seen = dict.fromkeys(self.read_keys)
            for k in self.write_keys:
                seen.setdefault(k)
            keys = self._all_keys = list(seen)
        return keys

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("TxnSpec(%s, r=%r, w=%r)"
                % (self.label, self.read_keys, self.write_keys))


class Transaction:
    """In-flight transaction state (slotted: one per in-flight txn on the
    benchmark hot path)."""

    __slots__ = ("txn_id", "coord_node", "spec", "status", "read_values",
                 "write_values", "locked", "extra_read_keys",
                 "extra_write_keys", "attempts", "started_at",
                 "committed_at", "abort_reason")

    def __init__(
        self,
        txn_id: int,
        coord_node: int,
        spec: TxnSpec,
        status: TxnStatus = TxnStatus.PENDING,
    ):
        self.txn_id = txn_id
        self.coord_node = coord_node
        self.spec = spec
        self.status = status
        # key -> (value, version) captured during EXECUTE
        self.read_values: Dict[int, Tuple[Any, int]] = {}
        # key -> new value, produced by the logic function
        self.write_values: Dict[int, Any] = {}
        # shard -> keys locked there (for abort cleanup)
        self.locked: Dict[int, List[int]] = {}
        # keys added by multi-shot execution rounds (§4.2 step 3)
        self.extra_read_keys: List[int] = []
        self.extra_write_keys: List[int] = []
        self.attempts = 1
        self.started_at = 0.0
        self.committed_at = 0.0
        self.abort_reason: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return ("Transaction(txn=%d, coord=%d, %s)"
                % (self.txn_id, self.coord_node, self.status.value))

    @property
    def read_only(self) -> bool:
        return not self.spec.write_keys and not self.extra_write_keys

    def effective_read_keys(self) -> List[int]:
        return list(dict.fromkeys(self.spec.read_keys + self.extra_read_keys))

    def effective_write_keys(self) -> List[int]:
        return list(dict.fromkeys(self.spec.write_keys + self.extra_write_keys))

    def add_keys(self, more: "NeedMoreKeys") -> None:
        seen_r = set(self.spec.read_keys) | set(self.extra_read_keys)
        seen_w = set(self.spec.write_keys) | set(self.extra_write_keys)
        self.extra_read_keys.extend(
            k for k in more.read_keys if k not in seen_r)
        self.extra_write_keys.extend(
            k for k in more.write_keys if k not in seen_w)

    def record_lock(self, shard: int, key: int) -> None:
        self.locked.setdefault(shard, []).append(key)

    def clear_locks(self) -> None:
        self.locked.clear()

    def run_logic(self) -> Dict[int, Any]:
        """Invoke the application logic over the captured read values."""
        values = {k: v for k, (v, _ver) in self.read_values.items()}
        if self.spec.logic is None:
            # default logic: write a tagged tuple (deterministic, testable)
            return {k: ("w", self.txn_id) for k in self.spec.write_keys}
        return self.spec.logic(values, self.spec.external_state)

    def reset_for_retry(self) -> None:
        self.status = TxnStatus.PENDING
        self.read_values.clear()
        self.write_values.clear()
        self.clear_locks()
        self.extra_read_keys.clear()
        self.extra_write_keys.clear()
        self.attempts += 1
        self.abort_reason = None


class Coordinator:
    """What the coordinators of all five systems share (§2.2.1): the
    retry driver around one OCC attempt.  A system supplies
    ``_attempt(txn, then)``, a callback chain that reports
    ``then(committed)``."""

    def __init__(self, cluster, node):
        self.cluster = cluster
        self.node = node
        self.sim = node.sim
        self.stats = Counter()
        # Observability sink (repro.obs.Observer); None disables span
        # emission at the cost of one branch per transaction outcome.
        self.obs = None
        # Optional abort callback (bench harnesses record abort latencies
        # through it); called with the Transaction on every aborted attempt.
        self.on_abort = None

    def run_transaction(self, spec: TxnSpec):
        """Coordinator entry point for a client process (generator):
        ``txn = yield from coord.run_transaction(spec)``.  Retries on
        abort; returns the committed :class:`Transaction`.

        The one event this builds is the one the client yields: every
        model call below it takes a continuation."""
        done = Event(self.sim, "txn")
        _Retries(self, spec, done.succeed)
        txn = yield done
        return txn

    def _attempt(self, txn: Transaction, then) -> None:  # pragma: no cover
        raise NotImplementedError


class _Retries:
    """The retry driver, reporting ``then(committed Transaction)``.

    A callback chain: one attempt; on abort the statistics, the abort
    hooks and the backoff entry, which starts the next attempt; on
    commit the accounting, then ``then``.  Each push happens at the
    instant and in the same-instant position the generator form gave
    it, without a generator to resume."""

    __slots__ = ("c", "txn", "then", "t0")

    def __init__(self, c: Coordinator, spec: TxnSpec, then):
        self.c = c
        self.then = then
        self.txn = txn = Transaction(c.node.next_txn_id(), c.node.node_id,
                                     spec)
        txn.started_at = c.sim._now
        c._attempt(txn, self._attempted)

    def _attempted(self, ok: bool) -> None:
        c, txn = self.c, self.txn
        obs = c.obs
        if ok:
            txn.committed_at = c.sim._now
            txn.status = TxnStatus.COMMITTED
            c.stats.inc("commits")
            if obs is not None:
                obs.txn_commit(c.node.node_id, txn)
            self.then(txn)
            return
        c.stats.inc("aborts")
        if obs is not None:
            obs.txn_abort(c.node.node_id, txn)
        if c.on_abort is not None:
            c.on_abort(txn)
        txn.reset_for_retry()
        self.t0 = c.sim._now
        c.sim.call_after(abort_backoff_us(txn.attempts), self._retry)

    def _retry(self, _arg: None) -> None:
        c, txn = self.c, self.txn
        if c.obs is not None:
            c.obs.attrib_span("backoff", c.node.node_id, self.t0, c.sim._now,
                              txn.txn_id)
        c._attempt(txn, self._attempted)
