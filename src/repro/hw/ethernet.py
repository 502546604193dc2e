"""Ethernet port model with gather-list aggregation (§3.4, §4.3.2).

Each node owns one port.  Outbound messages are queued and a drain loop
groups everything pending by destination into one wire packet per
destination, paying the per-packet framing overhead once — the mechanism
behind both the Figure 3 batching gains and Xenic's Ethernet aggregation
ablation (Figure 9a).  With ``aggregation=False`` every message is its own
packet.
"""

from __future__ import annotations

from ..sim.core import Simulator
from ..sim.link import BatchingLink, SerialLink
from .network import Fabric, NetMessage
from .params import EthernetParams

__all__ = ["EthernetPort"]


class EthernetPort:
    """A node's (possibly bonded) Ethernet interface."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: int,
        params: EthernetParams = None,
        aggregation: bool = True,
        name: str = "",
    ):
        self.sim = sim
        self.fabric = fabric
        self.node_id = node_id
        self.params = params or EthernetParams()
        self.name = name or ("eth%d" % node_id)
        self._link = BatchingLink(
            sim,
            bandwidth_gbps=self.params.bandwidth_gbps,
            overhead_us=self.params.per_packet_overhead_us,
            propagation_us=self.params.propagation_us,
            deliver=self._deliver,
            aggregation=aggregation,
            max_batch_bytes=self.params.mtu_bytes,
            name=self.name,
        )
        # Inbound per-packet RX pipeline: packet-buffer allocation and
        # dispatch serialize at ~1/overhead packets/s (the target-side
        # half of the §3.4 unbatched ceiling).
        self._rx_pipe = SerialLink(
            sim,
            bandwidth_gbps=self.params.bandwidth_gbps,
            overhead_us=self.params.per_packet_overhead_us,
            name="%s.rx" % self.name,
        )
        self._rx_done_cb = self._rx_done
        fabric.register_port(node_id, self)
        self.messages_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0

    @property
    def aggregation(self) -> bool:
        return self._link.aggregation

    def send(self, msg: NetMessage) -> None:
        """Queue a message for transmission; delivery is asynchronous."""
        if msg.dst == self.node_id:
            raise ValueError("loopback send on the wire is not modeled")
        msg.sent_at = self.sim._now
        self.messages_sent += 1
        self.bytes_sent += msg.size
        # Per-message bytes on the wire; the per-packet header is charged
        # once per aggregated packet by the link's overhead model, so we
        # account only a small per-message framing residue here.
        self._link.send(msg.dst, msg.size, msg)

    def _deliver(self, dst: int, msgs) -> None:
        port = self.fabric._ports.get(dst)
        if port is None:
            self.fabric.rx_packet(dst, msgs)
        else:
            port.receive_packet(msgs)

    def receive_packet(self, msgs) -> None:
        """Serialize one inbound packet through the RX pipeline, then hand
        its messages to the node's handler."""
        self.packets_received += 1
        # an unbatched packet (the common case off-peak) skips the sum
        nbytes = msgs[0].size if len(msgs) == 1 else sum(m.size for m in msgs)
        self._rx_pipe.transfer(nbytes, self._rx_done_cb, msgs)

    def _rx_done(self, msgs) -> None:
        deliver = self.fabric.deliver
        node_id = self.node_id
        for msg in msgs:
            deliver(node_id, msg)

    # Introspection for benches -------------------------------------------

    @property
    def packets_sent(self) -> int:
        return self._link.packets_sent

    @property
    def mean_batch(self) -> float:
        return self._link.mean_batch

    def utilization(self, since: float = 0.0) -> float:
        return self._link.link.utilization(since)
