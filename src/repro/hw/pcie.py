"""Host <-> SmartNIC PCIe message channel (coordinator hand-off path).

Distinct from the DMA engine (which moves data store bytes), this channel
models the PCIe TX/RX queue crossing that carries transaction state between
the host coordinator application and the NIC firmware (§4.2 step 1/3, the
"PCIe RX/TX" path in Figure 6).  Crossings are batched the same way as
Ethernet output when Xenic's aggregation is enabled.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.core import Simulator
from ..sim.link import BatchingLink
from .params import PCIE_DOORBELL_US, PCIE_MAX_BATCH_BYTES, SmartNicParams

__all__ = ["PcieChannel"]

_HOST = "host"
_NIC = "nic"


class PcieChannel:
    """Bidirectional host<->NIC message path over the PCIe interface of
    the SmartNIC ``params`` describes (its crossing latency and its DMA
    engine's PCIe bandwidth)."""

    def __init__(
        self,
        sim: Simulator,
        params: SmartNicParams,
        deliver_to_host: Callable[[Any], None] = None,
        deliver_to_nic: Callable[[Any], None] = None,
        aggregation: bool = True,
        name: str = "pcie",
    ):
        self.sim = sim
        self._deliver_to_host = deliver_to_host
        self._deliver_to_nic = deliver_to_nic
        # The crossing cost is mostly *latency* (DPDK submit + PCIe + pickup
        # at the other side), not queue occupancy: transfers pipeline.  A
        # small per-transfer overhead models the doorbell/descriptor work.
        self._link = BatchingLink(
            sim,
            bandwidth_gbps=params.dma.pcie_bandwidth_gbps,
            overhead_us=PCIE_DOORBELL_US,
            propagation_us=max(0.0, params.pcie_crossing_us - PCIE_DOORBELL_US),
            deliver=self._deliver,
            aggregation=aggregation,
            max_batch_bytes=PCIE_MAX_BATCH_BYTES,
            name=name,
        )
        self.to_nic_count = 0
        self.to_host_count = 0

    def set_handlers(
        self,
        deliver_to_host: Callable[[Any], None],
        deliver_to_nic: Callable[[Any], None],
    ) -> None:
        self._deliver_to_host = deliver_to_host
        self._deliver_to_nic = deliver_to_nic

    def host_to_nic(self, nbytes: int, payload: Any) -> None:
        self.to_nic_count += 1
        self._link.send(_NIC, nbytes, payload)

    def nic_to_host(self, nbytes: int, payload: Any) -> None:
        self.to_host_count += 1
        self._link.send(_HOST, nbytes, payload)

    def _deliver(self, dest: str, payloads) -> None:
        if dest == _NIC:
            if self._deliver_to_nic is None:
                raise RuntimeError("no NIC-side handler set")
            for payload in payloads:
                self._deliver_to_nic(payload)
        else:
            if self._deliver_to_host is None:
                raise RuntimeError("no host-side handler set")
            for payload in payloads:
                self._deliver_to_host(payload)

    @property
    def mean_batch(self) -> float:
        return self._link.mean_batch
