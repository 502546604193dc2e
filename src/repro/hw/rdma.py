"""Mellanox CX5 RDMA NIC model used by the baseline systems (§2.1, §3.2).

One-sided verbs (READ / WRITE / ATOMIC) complete without any target host
CPU involvement; two-sided RPCs consume a host core at the target.  Both
directions share the NIC's op-rate ceiling (doorbell-batched small ops
measure 13.5-15.0 Mops/s, §3.4) and the wire bandwidth, with per-op RoCE
header overhead — the read-amplification cost that the paper's Table 2 and
Figure 8 comparisons hinge on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..sim.core import Simulator
from ..sim.link import SerialLink
from .cpu import CoreGroup
from .params import HOST, HostParams, RdmaParams

__all__ = ["RdmaNic", "OneSidedVerb"]

READ = "read"
WRITE = "write"
ATOMIC = "atomic"
SEND = "send"

OneSidedVerb = str

# Request descriptor sizes on the wire (bytes of payload direction-dependent
# data are added on top).
_REQ_DESC = 28  # address + rkey + length
_ATOMIC_DESC = 48  # address + compare + swap operands
_ACK_BYTES = 12


class RdmaNic:
    """Per-node RDMA NIC.

    NICs are not registered anywhere: each verb call names the target NIC
    object directly.  ``host`` is the server the NIC sits in; a two-sided
    RPC charges its ``rpc_handle_us`` to the target's ``host_cores``.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: RdmaParams = None,
        host_cores: Optional[CoreGroup] = None,
        host: HostParams = HOST,
        name: str = "",
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params or RdmaParams()
        self.name = name or ("rdma%d" % node_id)
        # Op-rate ceilings: the measured 13.5-15 Mops/s (§3.4) is the
        # per-NIC, per-direction processing rate — separate TX (initiator)
        # and RX (target) pipes, so inbound load does not steal outbound
        # descriptor slots.
        self._tx_pipe = SerialLink(
            sim,
            bandwidth_gbps=1e9,  # rate modeled via per-op overhead only
            overhead_us=1.0 / self.params.max_ops_per_us,
            name="%s.tx" % self.name,
        )
        self._rx_pipe = SerialLink(
            sim,
            bandwidth_gbps=1e9,
            overhead_us=1.0 / self.params.max_ops_per_us,
            name="%s.rx" % self.name,
        )
        self._wire = SerialLink(
            sim,
            bandwidth_gbps=self.params.bandwidth_gbps,
            overhead_us=0.0,
            name="%s.wire" % self.name,
        )
        self.host_cores = host_cores
        self.host = host
        # fixed processing latency so an unloaded verb matches the measured
        # RTT after subtracting two propagation delays
        self._fixed = {
            READ: max(0.0, self.params.read_rtt_us - 2 * self.params.propagation_us),
            WRITE: max(0.0, self.params.write_rtt_us - 2 * self.params.propagation_us),
            ATOMIC: max(0.0, self.params.atomic_rtt_us - 2 * self.params.propagation_us),
            # The RPC RTT already includes one host handling cost, which is
            # charged explicitly against a host core; keep the remainder.
            SEND: max(
                0.0,
                self.params.rpc_rtt_us
                - 2 * self.params.propagation_us
                - host.rpc_handle_us,
            ),
        }
        self.ops = {READ: 0, WRITE: 0, ATOMIC: 0, SEND: 0}
        # Optional fault injector (repro.sim.faults): transient verb
        # failures retried by the RC transport, each paying a timeout
        # (``_Verb._draw``).
        self.injector = None
        self.retries = 0
        # Verbs issued but not yet completed (gauge source for repro.obs).
        self.inflight = 0

    # -- introspection ----------------------------------------------------

    def utilization(self, since: float = 0.0) -> float:
        """Mean wire (payload-bandwidth) utilization over [since, now] —
        the public accessor benches and observers should use instead of
        reaching into the private ``_wire`` link."""
        return self._wire.utilization(since)

    @property
    def wire_bytes(self) -> int:
        """Total payload bytes this NIC has put on the wire."""
        return self._wire.bytes_transferred

    # -- one-sided verbs ---------------------------------------------------

    def one_sided(
        self,
        target: "RdmaNic",
        verb: OneSidedVerb,
        size: int,
        then: Callable[[Any], None],
        on_target=None,
    ) -> None:
        """Issue a one-sided verb against ``target``'s host memory.

        ``then(value)`` runs at the initiator when the response/ack
        arrives, ``value`` being whatever ``on_target`` returned.
        ``on_target`` (if given) runs at the moment the target NIC
        touches host memory — the linearization point of the verb — so
        reads/CASes are atomic in simulated time.  ``size`` is the
        payload length.
        """
        if verb not in (READ, WRITE, ATOMIC):
            raise ValueError("not a one-sided verb: %r" % verb)
        self.ops[verb] += 1
        if verb == READ:
            out_bytes = _REQ_DESC + self.params.per_op_wire_bytes
            back_bytes = size + self.params.per_op_wire_bytes
        elif verb == WRITE:
            out_bytes = size + _REQ_DESC + self.params.per_op_wire_bytes
            back_bytes = _ACK_BYTES + self.params.per_op_wire_bytes
        else:  # ATOMIC
            out_bytes = _ATOMIC_DESC + self.params.per_op_wire_bytes
            back_bytes = size + self.params.per_op_wire_bytes
        _Verb(self, target, verb, out_bytes, back_bytes, self._fixed[verb],
              on_target, then)

    def read(self, target: "RdmaNic", size: int, then: Callable[[Any], None],
             on_target=None) -> None:
        self.one_sided(target, READ, size, then, on_target)

    def write(self, target: "RdmaNic", size: int, then: Callable[[Any], None],
              on_target=None) -> None:
        self.one_sided(target, WRITE, size, then, on_target)

    def atomic(self, target: "RdmaNic", size: int,
               then: Callable[[Any], None], on_target=None) -> None:
        self.one_sided(target, ATOMIC, size, then, on_target)

    # -- two-sided RPC ------------------------------------------------------

    def rpc(
        self,
        target: "RdmaNic",
        req_size: int,
        resp_size: int,
        then: Callable[[Any], None],
        handler_ref_us: float = 0.0,
        on_target=None,
    ) -> None:
        """Two-sided SEND/RECV RPC: consumes a host core at the target for
        the message handling cost plus ``handler_ref_us`` of application
        work (reference-Xeon µs).  ``on_target`` runs on the target host
        right after the handler cost is paid; ``then`` gets its return
        value when the response lands at the initiator."""
        if target.host_cores is None:
            raise RuntimeError("target %s has no host cores attached" % target.name)
        self.ops[SEND] += 1
        per_op = self.params.per_op_wire_bytes
        _Rpc(self, target, req_size + per_op, resp_size + per_op,
             self._fixed[SEND], on_target, then,
             target.host.rpc_handle_us + handler_ref_us)


class _Verb:
    """A one-sided verb in flight, calling ``then`` at the initiator
    when the response or ack lands (value: ``on_target``'s).

    A callback chain, not a process: each stage is the continuation of
    one queue entry — an entry at now (where a spawned process's start
    event goes), TX pipe, wire + propagation, the target's RX pipe, fixed
    budget, response wire + propagation — so every push happens at the
    instant and in the same-instant position a process yielding those
    events would give it.  Each wire + propagation pair is one entry
    (``SerialLink.transfer_then``): each link reservation still happens
    at its own instant (wire at TX-done, RX pipe at arrival, response
    wire after the budget) and ``on_target`` runs at the linearization
    point.  Do NOT merge the RX-pipe stage with the fixed budget: that
    pushes the ``on_target``-carrying entry earlier, and a same-float
    collision with an event pushed in the moved window flips CAS
    linearization order (observed: one abort<->commit flip on a DrTM+R
    smallbank point).

    Under a fault injector the TX-done stage is :meth:`_draw`, which
    puts one retry wait per transient failure in front of the wire;
    with none attached the chain is the one above, call for call."""

    __slots__ = ("sim", "nic", "target", "verb", "out_bytes", "back_bytes",
                 "budget", "on_target", "then", "result", "left")

    def __init__(self, nic: RdmaNic, target: RdmaNic, verb: str,
                 out_bytes: int, back_bytes: int, budget: float, on_target,
                 then: Callable[[Any], None]):
        self.sim = sim = nic.sim
        self.nic = nic
        self.target = target
        self.verb = verb
        self.out_bytes = out_bytes
        self.back_bytes = back_bytes
        self.budget = budget
        self.on_target = on_target
        self.then = then
        self.result = None
        sim.call_at(sim._now, self._start)

    def _start(self, _arg: None) -> None:
        nic = self.nic
        nic.inflight += 1
        # initiator NIC descriptor processing
        nic._tx_pipe.transfer(
            0, self._send if nic.injector is None else self._draw)

    def _draw(self, _arg: None) -> None:
        """TX done under a fault plan: draw this verb's transient
        failures, once, before the linearization point.  The RC transport
        retries each after a timeout, so the verb goes out late but
        exactly once."""
        nic = self.nic
        self.left = nic.injector.rdma_retries(nic, self.verb)
        self._retry(None)

    def _retry(self, _arg: None) -> None:
        if not self.left:
            self._send(None)
            return
        self.left -= 1
        nic = self.nic
        nic.retries += 1
        self.sim.call_after(nic.injector.spec.rdma_retry_us, self._retry)

    def _send(self, _arg: None) -> None:
        nic = self.nic
        nic._wire.transfer_then(
            self.out_bytes, nic.params.propagation_us, self._arrive)

    def _arrive(self, _arg: None) -> None:
        # target NIC descriptor processing (incl. PCIe DMA to host memory)
        self.target._rx_pipe.transfer(0, self._serve)

    def _serve(self, _arg: None) -> None:
        # fixed processing budget reproduces the measured RTT floor
        self.sim.call_after(self.budget, self._touch)

    def _touch(self, _arg: None) -> None:
        if self.on_target is not None:
            self.result = self.on_target()
        # response over the target's wire
        self.target._wire.transfer_then(
            self.back_bytes, self.nic.params.propagation_us, self._land)

    def _land(self, _arg: None) -> None:
        self.nic.inflight -= 1
        self.then(self.result)


class _Rpc(_Verb):
    """A two-sided RPC in flight: the :class:`_Verb` chain (retries
    included) with the target's host cores between RX pipe and
    linearization point — the handler job (:meth:`CoreGroup.execute`),
    then ``on_target``, then the fixed budget, then the response.  The
    RX-pipe stage and the core grant stay separate events, and so do the
    handler's end and the budget: the grant at RX-done and the budget
    start at handler-done are both contended instants."""

    __slots__ = ("handler_us",)

    def __init__(self, nic: RdmaNic, target: RdmaNic, out_bytes: int,
                 back_bytes: int, budget: float, on_target,
                 then: Callable[[Any], None], handler_us: float):
        self.handler_us = handler_us
        _Verb.__init__(self, nic, target, SEND, out_bytes, back_bytes,
                       budget, on_target, then)

    def _serve(self, _arg: None) -> None:
        # host CPU polls, handles the buffer, runs the handler
        self.target.host_cores.execute(self.handler_us, self._touch)

    def _touch(self, _arg: None) -> None:
        if self.on_target is not None:
            self.result = self.on_target()
        self.sim.call_after(self.budget, self._respond)

    def _respond(self, _arg: None) -> None:
        self.target._wire.transfer_then(
            self.back_bytes, self.nic.params.propagation_us, self._land)
