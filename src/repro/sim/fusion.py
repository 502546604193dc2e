"""Delay-fusion feature flag (``REPRO_FUSION``).

Delay fusion collapses stepwise delay chains — a spawned generator
yielding ``timeout(a) → timeout(b) → timeout(c)`` for what is, absent
faults and contention, one known-length delay — into a single
callback-based event (the pattern PR 5 introduced with
``_charge_rx_then``).  Fused fast paths live in ``repro.core.protocol``,
``repro.core.nic_runtime``, ``repro.sim.link``, and ``repro.hw.rdma``;
each one falls back to the stepwise path whenever a fault injector,
observer annotation point, or resource contention needs the intermediate
timestamps.  Simulated results are identical between the legs while NIC
cores have no waiters (``tests/test_golden_digest.py`` pins this at 16
contexts per node on both legs) and are known to differ under core
queueing: ``XenicProtocol._fused_dispatch`` takes a NIC core inside the
delivery callback and holds it across the c1|c2 split, where the
stepwise leg asks one scheduler step later and re-queues in between
(``tests/test_fusion_ab.py`` records the 64-context numbers).

Selection mirrors ``REPRO_QUEUE`` (:mod:`repro.sim.equeue`): the
``REPRO_FUSION`` environment variable is read at *model construction*
time (each component captures the flag in ``__init__``), so flipping the
variable between runs inside one process works, but flipping it
mid-simulation does not retroactively change built components.  The
default is ``on``; ``off`` keeps every chain stepwise and is the A/B
reference (``perf --ab-fusion``).
"""

from __future__ import annotations

import os

__all__ = ["FUSION_KINDS", "DEFAULT_FUSION", "selected_fusion",
           "fusion_enabled"]

DEFAULT_FUSION = "on"
FUSION_KINDS = ("on", "off")


def selected_fusion() -> str:
    """The fusion leg a component built right now would use; a value
    other than ``on`` / ``off`` is a ``ValueError``, not the default."""
    kind = os.environ.get("REPRO_FUSION", DEFAULT_FUSION)
    if kind not in FUSION_KINDS:
        raise ValueError("REPRO_FUSION=%r: expected one of %s"
                         % (kind, ", ".join(FUSION_KINDS)))
    return kind


def fusion_enabled() -> bool:
    """True when components built right now should install fused paths."""
    return selected_fusion() == "on"
