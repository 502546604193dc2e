"""Network fabric: a full-bisection switch connecting node Ethernet ports.

Messages are delivered to the destination node's registered handler after
egress serialization (modeled by the sender's :class:`EthernetPort`) plus
switch propagation.  Ingress processing cost is charged by the receiver
(NIC cores for Xenic, host/RDMA NIC for the baselines), not here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from ..sim.core import Simulator

__all__ = ["Fabric", "NetMessage"]


class NetMessage:
    """An application-level message on the wire.

    ``size`` is the app payload plus app header bytes; wire-level framing
    (Ethernet/IP/UDP) is added by the port, once per aggregated packet.
    """

    __slots__ = ("src", "dst", "kind", "size", "payload", "sent_at", "wire_id")

    def __init__(self, src: int, dst: int, kind: str, size: int, payload: Any = None,
                 wire_id: Any = None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.size = size
        self.payload = payload
        self.sent_at = 0.0
        # Transport-level sequence number, counted per (src, dst) pair by
        # the sender's protocol engine: receivers suppress duplicate
        # deliveries by it, the way RC transports dedup retransmitted
        # PSNs.  None disables dedup (e.g. raw messages in unit tests).
        self.wire_id = wire_id

    def __repr__(self) -> str:  # pragma: no cover
        return "<NetMessage %s %d->%d %dB>" % (self.kind, self.src, self.dst, self.size)


class Fabric:
    """Registry of node message handlers, keyed by node id.

    An optional fault injector (see :mod:`repro.sim.faults`) may
    intercept deliveries to drop, delay, duplicate, or reorder them;
    without one every message is delivered exactly once, immediately.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._handlers: Dict[int, Callable[[NetMessage], None]] = {}
        self._ports: Dict[int, object] = {}
        self.injector = None
        self.messages_delivered = 0
        self.bytes_delivered = 0

    def set_injector(self, injector) -> None:
        self.injector = injector

    def register(self, node_id: int, handler: Callable[[NetMessage], None]) -> None:
        if node_id in self._handlers:
            raise ValueError("node %d already registered" % node_id)
        self._handlers[node_id] = handler

    def replace_handler(self, node_id: int,
                        handler: Callable[[NetMessage], None]) -> None:
        """Swap the handler of an already registered node."""
        if node_id not in self._handlers:
            raise KeyError("no handler registered for node %d" % node_id)
        self._handlers[node_id] = handler

    def register_port(self, node_id: int, port) -> None:
        self._ports[node_id] = port

    def rx_packet(self, node_id: int, msgs) -> None:
        """Deliver one wire packet carrying ``msgs`` to the destination.
        If the destination has a registered port, the packet first passes
        its per-packet RX pipeline; otherwise it is delivered directly."""
        port = self._ports.get(node_id)
        if port is not None:
            port.receive_packet(msgs)
        else:
            for msg in msgs:
                self.deliver(node_id, msg)

    def deliver(self, node_id: int, msg: NetMessage) -> None:
        if self.injector is not None and \
                self.injector.intercept_delivery(self, node_id, msg):
            return
        # _deliver_now, inlined: this runs once per delivered message
        handler = self._handlers.get(node_id)
        if handler is None:
            raise KeyError("no handler registered for node %d" % node_id)
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        handler(msg)

    def _deliver_now(self, node_id: int, msg: NetMessage) -> None:
        handler = self._handlers.get(node_id)
        if handler is None:
            raise KeyError("no handler registered for node %d" % node_id)
        self.messages_delivered += 1
        self.bytes_delivered += msg.size
        handler(msg)
