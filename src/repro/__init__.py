"""Xenic: SmartNIC-Accelerated Distributed Transactions (SOSP '21) —
a simulation-based reproduction.

Public API tour:

* :mod:`repro.sim` — deterministic discrete-event engine (µs clock).
* :mod:`repro.hw` — simulated hardware: SmartNICs, RDMA NICs, DMA engines,
  PCIe, Ethernet fabric, parameterized from the paper's §3 measurements.
* :mod:`repro.store` — Robinhood / Hopscotch / chained hash tables, the
  SmartNIC caching index, and the host-memory log.
* :mod:`repro.core` — the Xenic system: OCC commit protocol, function
  shipping, multi-hop OCC, local fast paths, recovery.
* :mod:`repro.baselines` — DrTM+H, DrTM+H-NC, FaSST, DrTM+R.
* :mod:`repro.workloads` — TPC-C, Retwis, Smallbank.
* :mod:`repro.bench` — per-table/figure experiment harness.

Quickstart::

    from repro import Simulator, XenicCluster, XenicConfig, TxnSpec

    sim = Simulator()
    cluster = XenicCluster(sim, n_nodes=3)
    for key in range(256):
        cluster.load_key(key, value=0)
    cluster.start()

    spec = TxnSpec(read_keys=[1], write_keys=[1],
                   logic=lambda reads, state: {1: reads[1] + 1})
    txn = sim.run_until_event(
        sim.spawn(cluster.protocols[0].run_transaction(spec)))
    sim.run()  # drain the background COMMIT/log application
    print(txn.status, cluster.read_committed_value(1))
"""

from .baselines import SYSTEMS, BaselineCluster, DrTMH, DrTMH_NC, DrTMR, FaSST
from .core import (
    RecoveryManager,
    Transaction,
    TxnSpec,
    TxnStatus,
    XenicCluster,
    XenicConfig,
)
from .sim import Simulator
from .workloads import WORKLOADS, Retwis, Smallbank, TpccFull, TpccNewOrder

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "XenicCluster",
    "XenicConfig",
    "TxnSpec",
    "Transaction",
    "TxnStatus",
    "RecoveryManager",
    "BaselineCluster",
    "DrTMH",
    "DrTMH_NC",
    "FaSST",
    "DrTMR",
    "SYSTEMS",
    "TpccNewOrder",
    "TpccFull",
    "Retwis",
    "Smallbank",
    "WORKLOADS",
    "__version__",
]
