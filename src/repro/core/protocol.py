"""Xenic's distributed OCC commit protocol (§4.2).

One :class:`XenicProtocol` instance per node plays three roles:

* **host coordinator** (``run_transaction``) — admits transactions from
  the application, runs the local fast path (§4.2.4), or hands the
  transaction state to the coordinator-side NIC over PCIe;
* **coordinator-side NIC** — drives EXECUTE / VALIDATE / LOG / COMMIT
  against remote primaries and backups, runs shipped execution logic
  (§4.2.2), and applies the multi-hop patterns of Figure 7b (§4.2.3);
* **server-side NIC** — handles inbound requests against the local
  NIC index and host table, with locks and authoritative versions living
  in NIC memory.

Nothing here is a generator.  The host coordinator's attempt
(:class:`_HostAttempt`) and the shared retry driver
(:class:`~repro.core.txn.Coordinator`) are callback chains, and so is
everything on the NIC (:mod:`repro.core.nic_handlers`): the NIC runtime
is a run-to-completion handler loop (§4.3), in which a DMA completion, a
response or a core grant simply continues the handler that waited on
it.

All compute is charged to the owning core groups; all data movement goes
through the modeled DMA engine, PCIe channel, and Ethernet fabric.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from ..hw.network import NetMessage
from ..hw.params import HOST_COMPLETE_US, HOST_PER_KEY_US, NIC_PER_KEY_US
from .messages import Request, Response, request_size, response_size
from .nic_handlers import _INBOUND
from .nic_runtime import NicRuntime, PendingTable
from .txn import Coordinator, NeedMoreKeys, TOMBSTONE, Transaction, TxnSpec

__all__ = ["XenicProtocol"]

# Small PCIe payloads (control messages).
DONE_MSG_BYTES = 24
# Duplicate suppression: how many wire ids from one peer may arrive ahead
# of a missing one before it is written off as lost rather than late.
WIRE_REORDER_WINDOW = 4096


def _coordinator_reports(_result) -> None:
    """``then`` of the PCIe entries: nothing waits on a coordination, it
    reports to the host itself (``_notify_host``)."""


class XenicProtocol(Coordinator):
    """Protocol engine for one node."""

    def __init__(self, cluster, node):
        super().__init__(cluster, node)
        self.config = node.config
        self.runtime = NicRuntime(self.sim, node.nic, node.config)
        self.host_pending = PendingTable()
        self._req_seq = 0
        # Transport-level exactly-once delivery, the way an RC transport
        # dedups PSNs: outbound messages carry a per-(sender, receiver)
        # sequence number, and the receiver keeps, per peer, the highest
        # id below which everything has arrived plus the set of ids that
        # arrived ahead of a gap.  Without faults the fabric is FIFO per
        # pair, so the sets stay empty and the state is one int per peer
        # however long the run; a delayed or reordered message parks its
        # successors in the set only until it lands, and one that never
        # lands (crash-dropped) until WIRE_REORDER_WINDOW have passed it.
        n_nodes = node.n_nodes
        self._wire_seq = [0] * n_nodes
        self._wire_seen_upto = [0] * n_nodes
        self._wire_seen_ahead = [set() for _ in range(n_nodes)]
        # outbound messages go straight to the NIC's Ethernet port, and
        # the fabric calls _on_wire directly
        self._port = node.nic.port
        node.nic.set_handler(self._on_wire)
        node.pcie.set_handlers(self._on_pcie_host, self._on_pcie_nic)
        node.protocol = self

    # ------------------------------------------------------------------
    # latency attribution (repro.obs.attrib)
    # ------------------------------------------------------------------

    def _t0(self) -> float:
        """Timestamp for an attribution span; 0.0 on the unobserved fast
        path (never read: `_attrib` is a no-op without a sink)."""
        return self.sim.now if self.obs is not None else 0.0

    def _attrib(self, phase: str, t0: float, txn_id: int) -> None:
        obs = self.obs
        if obs is not None:
            obs.attrib_span(phase, self.node.node_id, t0, self.sim.now,
                            txn_id)

    # ------------------------------------------------------------------
    # host-side API (``run_transaction``: the shared retry driver)
    # ------------------------------------------------------------------

    def _attempt(self, txn: Transaction, then) -> None:
        _HostAttempt(self, txn, then)

    def _txn_state_bytes(self, spec: TxnSpec) -> int:
        return 18 + 10 * len(spec.all_keys()) + spec.external_state_bytes

    # ------------------------------------------------------------------
    # NIC side: what the handlers (repro.core.nic_handlers) share
    # ------------------------------------------------------------------

    def _per_key_us(self, n_keys: int) -> float:
        """NIC-core wall-µs of the per-key index work of one request."""
        return NIC_PER_KEY_US * max(1, n_keys)

    def _write_versions(self, txn: Transaction, keys) -> Dict[int, int]:
        versions = {}
        for k in keys:
            captured = txn.read_values.get(k)
            versions[k] = captured[1] if captured is not None else 0
        return versions

    def _multihop_shards(self, txn: Transaction,
                         by_shard) -> Optional[Tuple[int, int]]:
        """``(local, remote)`` when the multi-hop pattern (§4.2.3) applies
        to ``txn``: one remote shard, at most one local one.  A shard is
        local iff its primary is this node, which after a failover may
        be a shard other than the node's own; with no local shard,
        ``local`` is the node's own (it holds none of the keys)."""
        if not self.config.multihop_occ:
            return None
        spec = txn.spec
        if txn.read_only or not spec.ship_execution or not spec.single_round:
            return None
        own = self.node.node_id
        primary_of = self.cluster.primary_node_id
        local = remote = None
        for shard in by_shard:
            if primary_of(shard) != own:
                if remote is not None:
                    return None
                remote = shard
            elif local is not None:
                return None
            else:
                local = shard
        if remote is None:
            return None
        return (own if local is None else local), remote

    def _deliver_log_ack(self, target: int, txn_id: int, resp: Response) -> None:
        if target == self.node.node_id:
            self._resolve_mh_ack(txn_id, resp)
        else:
            msg = NetMessage(
                self.node.node_id, target, "log_ack",
                response_size(resp, self.cluster.value_size),
                ("log_ack", txn_id, resp),
                wire_id=self._next_wire_id(target),
            )
            self._port.send(msg)

    def _resolve_mh_ack(self, txn_id: int, resp: Response) -> None:
        # keyed by transaction alone: the backup does not know the attempt
        # number, and an attempt collects all its acks before it can retry
        if not self.runtime.pending.resolve_one(("mh_log", txn_id), resp):
            self.stats.inc("stray_log_acks")

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def _send_request(self, dst: int, req: Request, then) -> None:
        """Send a request; ``then(response)`` runs when its Response
        lands.

        Open-coded ``PendingTable.expect``: request ids are plain
        per-node-unique ints (the response resolves in *this* node's
        table, so no node qualifier is needed), stored directly in
        ``_waiting`` — int keys cannot collide with the tuple keys other
        subsystems use."""
        self._req_seq += 1
        rid = self._req_seq
        self.runtime.pending._waiting[rid] = then
        msg = NetMessage(
            self.node.node_id, dst, req.kind,
            request_size(req, self.cluster.value_size),
            ("req", rid, req),
            wire_id=self._next_wire_id(dst),
        )
        self._port.send(msg)
        self.stats.inc("requests_sent")

    def _send_oneway(self, dst: int, req: Request) -> None:
        msg = NetMessage(
            self.node.node_id, dst, req.kind,
            request_size(req, self.cluster.value_size),
            ("oneway", req),
            wire_id=self._next_wire_id(dst),
        )
        self._port.send(msg)

    def _next_wire_id(self, dst: int) -> int:
        seq = self._wire_seq
        seq[dst] = wire_id = seq[dst] + 1
        return wire_id

    def _on_wire(self, msg: NetMessage) -> None:
        wire_id = msg.wire_id
        if wire_id is not None:
            src = msg.src
            upto = self._wire_seen_upto
            if wire_id == upto[src] + 1 and not self._wire_seen_ahead[src]:
                upto[src] = wire_id  # in order, nothing parked: the norm
            elif self._wire_out_of_order(src, wire_id):
                self.stats.inc("dup_wire_dropped")
                return
        tag = msg.payload[0]
        if tag == "req":
            _tag, rid, req = msg.payload
            self._dispatch(req.kind, req,
                           partial(self._respond, msg.src, rid))
        elif tag == "resp":
            _tag, rid, resp = msg.payload
            self._charge_rx_then(self._resolve_response, rid, resp)
        elif tag == "oneway":
            # the only one-ways are multi-hop LOGs (_ExecShip)
            req = msg.payload[1]
            self._dispatch(req.kind, req, partial(self._redirect_log_ack, req))
        elif tag == "log_ack":
            _tag, txn_id, resp = msg.payload
            self._charge_rx_then(self._resolve_mh_ack, txn_id, resp)
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown wire tag %r" % (tag,))

    def _wire_out_of_order(self, src: int, wire_id: int) -> bool:
        """Record a ``wire_id`` that did not simply extend ``src``'s
        contiguous prefix; True if it had already been delivered."""
        upto = self._wire_seen_upto
        ahead = self._wire_seen_ahead[src]
        if wire_id <= upto[src] or wire_id in ahead:
            return True
        ahead.add(wire_id)
        nxt = upto[src] + 1
        if nxt not in ahead and len(ahead) > WIRE_REORDER_WINDOW:
            # a window's worth of traffic has overtaken the gap: what it
            # waits for was dropped with a crashed node, not delayed
            nxt = min(ahead)
        # absorb the parked run that now extends the prefix, if any
        while nxt in ahead:
            ahead.remove(nxt)
            nxt += 1
        upto[src] = nxt - 1
        return False

    def _charge_rx_then(self, fn, a, b) -> None:
        """Charge one NIC core for inbound-message handling, then run
        ``fn(a, b)``: one ``call_at`` entry on a free core, else a FIFO
        grant and then that entry."""
        cores = self.node.nic.cores
        walls = (self.runtime.msg_handle_us + self.runtime._stall_us(),)

        def then(_e):
            cores.pool.release()
            fn(a, b)

        end = cores.try_hold(walls)
        if end is not None:
            self.sim.call_at(end, then)
        else:
            cores.pool.acquire(
                lambda _e: self.sim.call_at(cores.hold(walls), then))

    def _resolve_response(self, rid, resp: Response) -> None:
        then = self.runtime.pending._waiting.pop(rid, None)
        if then is None:
            self.stats.inc("stray_responses")
        else:
            then(resp)

    def _respond(self, src: int, rid, resp: Response) -> None:
        msg = NetMessage(
            self.node.node_id, src, "resp",
            response_size(resp, self.cluster.value_size),
            ("resp", rid, resp),
            wire_id=self._next_wire_id(src),
        )
        self._port.send(msg)

    # -- inbound dispatch -----------------------------------------------------

    def _msg_then_keys(self, n_keys: int) -> Tuple[float, float]:
        return (self.runtime.msg_handle_us, self._per_key_us(n_keys))

    def _msg_with_keys(self, n_keys: int) -> Tuple[float]:
        return (self.runtime.msg_handle_us
                + n_keys * NIC_PER_KEY_US,)

    def _dispatch(self, kind, msg, then) -> None:
        """Take one inbound message — a wire kind, or a PCIe entry from
        the host — through its kind's ``_INBOUND`` row: the handler pays
        the leading charges (:meth:`_Handler._inbound`), runs, and
        replies through ``then(result)``."""
        charges, handler = _INBOUND[kind]
        handler(self, msg, then)._inbound(charges(self, msg))

    def _redirect_log_ack(self, req: Request, resp: Response) -> None:
        """Reply of a multi-hop LOG: the ack goes to the coordinator NIC
        (``reply_to``), not back to the shipping primary."""
        self._deliver_log_ack(req.reply_to, req.txn_id, resp)

    # -- PCIe handlers ------------------------------------------------------------

    def _on_pcie_nic(self, payload) -> None:
        tag = payload[0]
        if tag == "start" or tag == "local_commit":
            self._dispatch(tag, payload[1], _coordinator_reports)
        elif tag == "logic_resp":
            _tag, txn_id, attempt, round_no, result = payload
            self.runtime.pending.resolve(
                ("logic", txn_id, attempt, round_no), result)
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown pcie->nic tag %r" % (tag,))

    def _on_pcie_host(self, payload) -> None:
        tag = payload[0]
        if tag == "done":
            _tag, txn_id, attempt, ok, reason = payload
            if not self.host_pending.resolve(("done", txn_id, attempt),
                                             (ok, reason)):
                self.stats.inc("stray_done")
        elif tag == "logic_req":
            self._host_logic(payload[1], payload[2])
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown pcie->host tag %r" % (tag,))

    def _host_logic(self, txn: Transaction, round_no: int) -> None:
        """Run the transaction's logic on a host app core, then ship the
        result to the NIC.  A free core is held for the (known) cost and
        one ``call_at`` entry ends it; otherwise, and for zero-cost
        logic, the :meth:`CoreGroup.execute` job runs it with the
        continuation as its ``then`` — the job's start entry, FIFO grant
        and single ``call_after`` are the contended and zero-cost
        instants."""
        cores = self.node.host_app_cores
        cost = txn.spec.logic_cost_us
        service = cores.service_us(cost)
        t0 = self._t0()

        def then(_e):
            self._attrib("host", t0, txn.txn_id)
            self._host_logic_done(txn, round_no)

        if service > 0 and cores.pool.try_acquire():
            def release_then(e):
                cores.pool.release()
                then(e)

            self.sim.call_at(cores.hold((service,)), release_then)
        else:
            cores.execute(cost, then)

    def _host_logic_done(self, txn: Transaction, round_no: int) -> None:
        result = txn.run_logic()
        if isinstance(result, NeedMoreKeys):
            nbytes = 16 + 10 * (len(result.read_keys) + len(result.write_keys))
        else:
            nbytes = sum(10 + self._value_bytes(k) for k in result) + 16
        self.node.pcie.host_to_nic(
            nbytes, ("logic_resp", txn.txn_id, txn.attempts, round_no, result)
        )

    def _notify_host(self, txn: Transaction, ok: bool, reason: Optional[str]) -> None:
        if not ok:
            self.stats.inc("abort:%s" % reason)
        self.node.pcie.nic_to_host(
            DONE_MSG_BYTES, ("done", txn.txn_id, txn.attempts, ok, reason)
        )

    # -- helpers ------------------------------------------------------------

    def _value_bytes(self, key: int) -> int:
        return self.cluster.value_size


class _HostAttempt:
    """One attempt of the host coordinator, in the application thread.

    A callback chain like the NIC's handlers: each stage is the
    continuation of what it waits on — an app-core job (``run_then`` /
    ``run_wall_then``) or the ``host_pending`` key the NIC's ``done``
    resolves — and the attempt reports ``then(committed)``.  The
    ``host`` attribution spans run from the instant a job was entered to
    the instant its stage runs.  A transaction whose keys all live on
    this node's own shard, single round, takes the local fast path
    (§4.2.4); any other hands its state to the coordinator NIC."""

    __slots__ = ("p", "txn", "then", "t0", "ok")

    def __init__(self, p: XenicProtocol, txn: Transaction, then):
        self.p = p
        self.txn = txn
        self.then = then
        spec = txn.spec
        if spec.local_compute_us > 0:
            self.t0 = p._t0()
            p.node.host_app_cores.run_then(spec.local_compute_us,
                                           self._computed)
        else:
            self._route()

    def _computed(self, _arg: None) -> None:
        self.p._attrib("host", self.t0, self.txn.txn_id)
        self._route()

    def _route(self) -> None:
        p, txn = self.p, self.txn
        spec = txn.spec
        shards = {p.cluster.shard_of(k) for k in spec.all_keys()}
        own = p.node.node_id
        if (spec.single_round and shards <= {own}
                and p.cluster.primary_node_id(own) == own):
            self._local()
            return
        # distributed: hand the transaction state to the coordinator NIC
        p.host_pending.expect(("done", txn.txn_id, txn.attempts), self._done)
        p.node.pcie.host_to_nic(p._txn_state_bytes(spec), ("start", txn))

    def _done(self, outcome) -> None:
        p = self.p
        self.ok, reason = outcome
        self.txn.abort_reason = None if self.ok else (reason or "unknown")
        self.t0 = p._t0()
        p.node.host_app_cores.run_wall_then(HOST_COMPLETE_US,
                                            self._completed)

    def _completed(self, _arg: None) -> None:
        self.p._attrib("host", self.t0, self.txn.txn_id)
        self.then(self.ok)

    # -- local fast path (§4.2.4) ---------------------------------------------

    def _local(self) -> None:
        # optimistic execution on the host against the host-side table
        p = self.p
        n_keys = len(self.txn.spec.all_keys())
        self.t0 = p._t0()
        p.node.host_app_cores.run_wall_then(
            HOST_PER_KEY_US * max(1, n_keys), self._executed)

    def _executed(self, _arg: None) -> None:
        p, txn = self.p, self.txn
        spec = txn.spec
        p._attrib("host", self.t0, txn.txn_id)
        for k in spec.read_keys:
            value, version = p.node.read_local(k)
            if value is TOMBSTONE:
                value = None
            txn.read_values[k] = (value, version)
        if txn.read_only:
            # no PCIe, no network: validate against host versions (atomic
            # within this handler activation)
            p.stats.inc("local_readonly")
            self.then(True)
        elif spec.logic_cost_us > 0:
            self.t0 = p._t0()
            p.node.host_app_cores.run_then(spec.logic_cost_us, self._ran)
        else:
            self._commit_local()

    def _ran(self, _arg: None) -> None:
        self.p._attrib("host", self.t0, self.txn.txn_id)
        self._commit_local()

    def _commit_local(self) -> None:
        p, txn = self.p, self.txn
        txn.write_values = txn.run_logic()
        p.host_pending.expect(("done", txn.txn_id, txn.attempts),
                              self._local_done)
        state_bytes = p._txn_state_bytes(txn.spec) + sum(
            10 + p._value_bytes(k) for k in txn.write_values
        )
        p.node.pcie.host_to_nic(state_bytes, ("local_commit", txn))

    def _local_done(self, outcome) -> None:
        ok, reason = outcome
        self.txn.abort_reason = None if ok else (reason or "unknown")
        self.then(ok)
