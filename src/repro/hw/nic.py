"""SmartNIC device assemblies.

:class:`SmartNic` is the on-path LiquidIO model: ARM cores on the packet
data path, on-board DRAM, a vectored DMA engine to host memory, and the
node's Ethernet port.  All inbound wire traffic lands on NIC cores.

:class:`OffPathNic` exists for the §3.1 architecture comparison: its SoC
sits behind an internal switch and reaches host memory only through
RDMA-like network requests, which is what makes off-path offload
unattractive for Xenic (the measured BlueField/Stingray latencies).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim.core import Simulator
from .cpu import CoreGroup
from .dma import DmaEngine
from .ethernet import EthernetPort
from .network import Fabric, NetMessage
from .params import OffPathParams, SmartNicParams

__all__ = ["SmartNic", "OffPathNic"]


class SmartNic:
    """On-path SmartNIC: cores + NIC DRAM + DMA engine + Ethernet port."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        node_id: int,
        params: SmartNicParams = None,
        nic_threads: Optional[int] = None,
        aggregation: bool = True,
        name: str = "",
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params or SmartNicParams()
        self.name = name or ("nic%d" % node_id)
        self.cores = CoreGroup(
            sim,
            self.params.cpu,
            cores=nic_threads,
            name="%s.cores" % self.name,
        )
        self.dma = DmaEngine(sim, self.params.dma, name="%s.dma" % self.name)
        self.port = EthernetPort(
            sim,
            fabric,
            node_id,
            params=self.params.eth,
            aggregation=aggregation,
            name="%s.eth" % self.name,
        )
        # The fabric calls the firmware's handler directly; until one is
        # installed, a delivery raises.
        self.fabric = fabric
        fabric.register(node_id, self._no_handler)

    def set_handler(self, handler: Callable[[NetMessage], None]) -> None:
        """Install the firmware's message handler (the protocol engine)."""
        self.fabric.replace_handler(self.node_id, handler)

    def _no_handler(self, msg: NetMessage) -> None:
        raise RuntimeError("%s has no firmware handler installed" % self.name)

    def send(self, msg: NetMessage) -> None:
        self.port.send(msg)

    # Convenience costs used by the protocol engine ------------------------

    def nic_dram_access(self, then: Callable[[None], None]) -> None:
        """NIC-local DRAM access (cache hit path): ``then(None)`` runs
        after a cheap fixed latency."""
        self.sim.call_after(self.params.local_dram_us, then)


class OffPathNic:
    """Off-path SmartNIC latency model (§3.1 measurements only).

    The measured medians for the BlueField/Stingray show the SoC-to-host
    path costing *more* than a remote RDMA write straight to host memory —
    the observation that rules out off-path devices for Xenic.
    """

    def __init__(self, sim: Simulator, params: OffPathParams):
        self.sim = sim
        self.params = params

    def offload_penalty_us(self) -> float:
        """Extra latency of handling a remote request on the SoC and then
        touching host memory, vs. RDMA straight to the host."""
        soc_path = self.params.remote_to_soc_write_us + self.params.soc_to_host_write_us
        return soc_path - self.params.remote_to_host_write_us
