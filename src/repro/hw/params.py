"""The cost model: every modelled time, measured or chosen, stated once.

Two kinds of value live here, and no other module defines a cost
constant (the one exception is each workload's per-transaction
``logic_cost_us``, stated in its ``TxnSpec``):

* The §3 measurements are fields of the :class:`HardwareParams` bundle
  (with the values read straight off one measurement, such as a
  per-thread rate), each commented with its source.  A run
  takes its bundle through ``Bench(hardware=...)`` or
  ``XenicConfig(hardware=...)``, so a measurement can be overridden per
  run.
* Costs no §3 figure fixes are module constants below the bundle.  Each
  carries a provenance tag as the first word of the comment above it:
  *measured* (section and figure), *derived* (a formula over measured
  values, stated in the comment) or *free* (a modelling choice, with its
  reason).  They are constants, not fields, so each is stated once and
  none is settable; ``tests/test_hw_params.py`` checks the tags.

All times are microseconds, sizes bytes, rates Gbit/s unless noted.  A
*wall-µs* cost is charged as is on the core that runs it; a
*reference-Xeon µs* cost is scaled by the running core's Table 1 speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "CpuParams",
    "DmaParams",
    "EthernetParams",
    "RdmaParams",
    "SmartNicParams",
    "HostParams",
    "OffPathParams",
    "HardwareParams",
    "XEON_GOLD_5218",
    "LIQUIDIO3_CPU",
    "LIQUIDIO3_DMA",
    "LIQUIDIO3_ETH",
    "CX5_RDMA",
    "LIQUIDIO3",
    "HOST",
    "BLUEFIELD_OFFPATH",
    "STINGRAY_OFFPATH",
    "TESTBED",
    "testbed_params",
]


@dataclass(frozen=True)
class CpuParams:
    """A group of identical cores.

    ``coremark_per_thread`` values come from Table 1 and normalize compute
    costs across the host Xeon and NIC ARM cores: a task costing ``w`` µs
    on the reference Xeon costs ``w / relative_speed`` on these cores.
    """

    name: str
    cores: int
    freq_ghz: float
    coremark_per_thread: float  # all-cores-active per-thread score (Table 1)
    coremark_single: float  # single-thread score (Table 1)


@dataclass(frozen=True)
class DmaParams:
    """LiquidIO PCIe DMA engine characteristics (§3.5, Figure 4)."""

    queues: int = 8  # hardware request queues
    max_vector: int = 15  # reads/writes per vectored submission
    submission_us: float = 0.190  # per-submission cost, amortized by vectors
    read_completion_us: float = 1.295  # typical completion latency, reads
    write_completion_us: float = 0.570  # typical completion latency, writes
    max_ops_per_us: float = 8.7  # hardware ceiling, Mops/s == ops/us
    pcie_bandwidth_gbps: float = 63.0  # PCIe 3.0 x8 usable


@dataclass(frozen=True)
class EthernetParams:
    """Wire model for a NIC port (or bonded ports)."""

    bandwidth_gbps: float = 100.0  # 2 x 50GbE bonded (testbed, §5)
    # Per-packet processing/framing overhead.  Calibrated against §3.4:
    # unbatched remote writes measure 9.0-10.4 Mops/s regardless of target
    # memory, i.e. the sender's per-packet path is the bottleneck at ~0.1us.
    per_packet_overhead_us: float = 0.100
    per_packet_header_bytes: int = 50  # Eth+IP+UDP headers per wire packet
    propagation_us: float = 0.85  # one-way switch + wire latency
    mtu_bytes: int = 9000  # jumbo frames; caps gather-list size


@dataclass(frozen=True)
class RdmaParams:
    """Mellanox CX5 RDMA NIC model (§2.1, §3.2, §3.4).

    RTTs are end-to-end medians from Figure 2(b) at 256 B; the ops/s
    ceiling is the doorbell-batched small-write limit from §3.4.
    """

    read_rtt_us: float = 3.0  # one-sided READ roundtrip
    write_rtt_us: float = 3.5  # one-sided WRITE roundtrip (§3.1 text)
    atomic_rtt_us: float = 3.9  # one-sided CAS/FAA roundtrip
    rpc_rtt_us: float = 5.6  # two-sided SEND/RECV RPC (DrTM+H framework)
    max_ops_per_us: float = 15.0  # 13.5-15.0 Mops/s doorbell-batched (§3.4)
    per_op_wire_bytes: int = 66  # RoCE per-op header overhead
    bandwidth_gbps: float = 100.0
    propagation_us: float = 0.85


@dataclass(frozen=True)
class SmartNicParams:
    """Marvell LiquidIO 3 CN3380 on-path SmartNIC (§3, §5)."""

    cpu: CpuParams = field(default_factory=lambda: LIQUIDIO3_CPU)
    dma: DmaParams = field(default_factory=lambda: LIQUIDIO3_DMA)
    eth: EthernetParams = field(default_factory=lambda: LIQUIDIO3_ETH)
    dram_bytes: int = 16 << 30  # 16 GB on-board DDR4
    # Per-message handling cost on a NIC core, from §3.3: 71.8 Mops/s
    # over 16 threads -> 0.223 us per RPC per thread.
    rpc_handle_us: float = 16.0 / 71.8
    # NIC-local DRAM access adds negligible latency relative to PCIe.
    local_dram_us: float = 0.10
    # Host <-> NIC PCIe message hand-off (coordinator-side crossing):
    # host DPDK submit + PCIe + NIC pickup.  Derived from Figure 2(a):
    # ops initiated from the host cost ~2.5us more than from the NIC.
    pcie_crossing_us: float = 1.25


@dataclass(frozen=True)
class HostParams:
    """Host server (§5 testbed)."""

    cpu: CpuParams = field(default_factory=lambda: XEON_GOLD_5218)
    dram_bytes: int = 96 << 30
    # Per-message handling cost of a host DPDK RPC thread, from §3.3:
    # 23.0 Mops/s over 16 threads -> 0.696 us per RPC per thread.
    rpc_handle_us: float = 16.0 / 23.0
    # Extra latency of traversing the host network stack vs NIC handling
    # (Figure 2: Host RPC sits well above NIC RPC).
    rpc_stack_us: float = 1.5


@dataclass(frozen=True)
class OffPathParams:
    """Off-path SmartNIC latency measurements (§3.1)."""

    name: str = "bluefield"
    remote_to_host_write_us: float = 3.5  # RDMA write to host memory
    remote_to_soc_write_us: float = 4.5  # remote write to SoC memory
    soc_to_host_write_us: float = 5.1  # local SoC write to host memory


XEON_GOLD_5218 = CpuParams(
    name="xeon-gold-5218",
    cores=32,  # 16 cores, 32 hyperthreads
    freq_ghz=2.3,
    coremark_per_thread=14771.0,  # Table 1, multi
    coremark_single=29193.0,  # Table 1, single
)

LIQUIDIO3_CPU = CpuParams(
    name="liquidio3-arm",
    cores=24,
    freq_ghz=2.2,
    coremark_per_thread=4530.0,  # Table 1, multi
    coremark_single=14294.0,  # Table 1, single
)

LIQUIDIO3_DMA = DmaParams()
LIQUIDIO3_ETH = EthernetParams()
CX5_RDMA = RdmaParams()

LIQUIDIO3 = SmartNicParams()
HOST = HostParams()

BLUEFIELD_OFFPATH = OffPathParams(
    name="bluefield-1m322a",
    remote_to_host_write_us=3.5,
    remote_to_soc_write_us=4.5,
    soc_to_host_write_us=5.1,
)

STINGRAY_OFFPATH = OffPathParams(
    name="stingray-ps225",
    remote_to_host_write_us=7.6,
    remote_to_soc_write_us=8.5,  # figure quoted as "8.5us from the local SoC"
    soc_to_host_write_us=8.5,
)

# derived (Table 1): Coremark-normalized NIC/host per-thread ratio,
# LIQUIDIO3_CPU / XEON_GOLD_5218 all-cores-active scores, used in Table 3
# (§5.6).
NIC_HOST_CORE_RATIO = LIQUIDIO3_CPU.coremark_per_thread / XEON_GOLD_5218.coremark_per_thread

@dataclass(frozen=True)
class HardwareParams:
    """The full per-server hardware bundle used to build simulated nodes."""

    host: HostParams = field(default_factory=lambda: HOST)
    nic: SmartNicParams = field(default_factory=lambda: LIQUIDIO3)
    rdma: RdmaParams = field(default_factory=lambda: CX5_RDMA)

    def with_network_gbps(self, gbps: float) -> "HardwareParams":
        """Derive a bundle with a different wire bandwidth (e.g. the single
        50 Gbps link used for the DrTM+R comparison in §5.3)."""
        return replace(
            self,
            nic=replace(self.nic, eth=replace(self.nic.eth, bandwidth_gbps=gbps)),
            rdma=replace(self.rdma, bandwidth_gbps=gbps),
        )


TESTBED = HardwareParams()


def testbed_params(network_gbps: float = 100.0) -> HardwareParams:
    """The §5 testbed bundle, optionally at a reduced link speed."""
    if network_gbps == 100.0:
        return TESTBED
    return TESTBED.with_network_gbps(network_gbps)


# ---------------------------------------------------------------------------
# Derived and free costs (module constants; see the module docstring)
# ---------------------------------------------------------------------------

# -- SmartNIC ----------------------------------------------------------------

# free: per-message handling cost on a NIC core under Ethernet aggregation,
# in place of ``SmartNicParams.rpc_handle_us`` (wall-µs).  Burst RX
# processing (§4.3.2) amortizes the per-packet share of the standalone
# cost over the payloads a packet carries; no §3 figure measures it.
NIC_RPC_HANDLE_US_AGGREGATED = 0.12

# free: admitting a new transaction on a NIC core (wall-µs).  No §3 figure
# isolates it; chosen below one message's handling cost.
NIC_ADMIT_US = 0.08

# free: index lookup / lock per key on a NIC core (wall-µs).  No §3 figure
# isolates it; chosen below one message's handling cost.
NIC_PER_KEY_US = 0.05

# free: end-of-burst flush interval for partially filled DMA vectors: the
# burst loop (§4.3.2) submits pending vectors once per iteration.  The
# paper gives no loop period; chosen near one DMA submission (0.19 µs).
BURST_INTERVAL_US = 0.25

# free: interval at which a NIC handler retries a log append while the host
# log is full (back-pressure).  A polling period, not a device cost.
LOG_RETRY_US = 2.0

# free: per-submission occupancy of a DMA queue (§3.5).  Chosen so a
# single-op submission keeps the sub-2 µs latency of Figure 4b.
DMA_ENGINE_SUBMIT_US = 0.25

# derived (§3.5, Figure 4a): per-op occupancy of a DMA queue, solved so
# that 8 queues of full 15-op vectors reach the 8.7 Mops/s ceiling:
#   8 * 15 / (DMA_ENGINE_SUBMIT_US + 15 p) = 8.7.
# The solution is 0.9029; the stated 0.9027 is kept so no result moves.
DMA_ENGINE_PER_OP_US = 0.9027

# free: per-transfer doorbell / descriptor occupancy of the host <-> NIC
# PCIe message channel.  The crossing is mostly latency
# (``SmartNicParams.pcie_crossing_us``); this share occupies the channel.
PCIE_DOORBELL_US = 0.10

# free: the most bytes one aggregated PCIe channel transfer carries (not a
# time; the batch cap for the channel's aggregation).
PCIE_MAX_BATCH_BYTES = 32768

# -- Host ----------------------------------------------------------------------

# free: host-side completion handling of one transaction on an app core
# (wall-µs).  No §3 figure isolates it.
HOST_COMPLETE_US = 0.15

# free: one table operation per key on a host core, in Xenic's host
# execution and in every baseline's local work and RPC handler (µs on the
# reference Xeon, where wall and reference µs coincide).
HOST_PER_KEY_US = 0.10

# free: a Xenic host worker applying one log write (wall-µs).  Bounded by
# Table 3: 3 workers sustain Smallbank's peak of ~12 Mtxn/s/server x 3
# records/txn, so an applied write costs under 3 / 36 = 0.083 µs.
WORKER_APPLY_US = 0.06

# free: host core cost of issuing one RDMA verb in the baselines: doorbell
# write, WQE build, completion-poll amortization (wall-µs).  FaSST / HERD
# report 0.2-0.4 µs per verb; not measured in §3.
RDMA_ISSUE_US = 0.15

# free: a baseline backup's host core applying one replicated write
# (wall-µs).  Not measured in §3.
BASELINE_APPLY_US = 0.30

# free: linear abort backoff step, per attempt, on every system
# (``core.txn.abort_backoff_us``).  A policy, not a device cost.
ABORT_BACKOFF_US = 1.5

# -- TPC-C coordinator-local work (reference-Xeon µs) ---------------------------

# free: one read-only ITEM catalog access.  The paper gives no per-table
# costs; each TPC-C value below is sized to its transaction's work.
TPCC_ITEM_LOOKUP_US = 0.10

# free: one B+ tree insert or lookup.
TPCC_BTREE_OP_US = 0.35

# free: Payment's history insert and the rest of its local work.
TPCC_PAYMENT_LOCAL_US = 1.2

# free: Order-Status's customer-by-name lookup and order scan.
TPCC_ORDER_STATUS_US = 2.5

# free: Delivery's new-order scan and order updates, per district (chopped).
TPCC_DELIVERY_US = 4.0

# free: Stock-Level's recent-order scan.
TPCC_STOCK_LEVEL_US = 3.0
