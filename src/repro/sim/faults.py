"""Deterministic fault injection for the simulated hardware/cluster.

A :class:`FaultPlan` binds a :class:`FaultSpec` (what can go wrong, how
often) to a named :class:`~repro.sim.rng.RngStream`, so a fault schedule
is a pure function of the root seed: two runs with the same seed and spec
inject byte-identical fault sequences and produce byte-identical
:class:`FaultTrace`\\ s.  The plan hooks into the existing hardware
models rather than replacing them:

* **messages** (``hw.network.Fabric``) — drop, delay, duplicate, and
  reorder at the delivery boundary.  A *drop* is modeled as a reliable
  transport would experience it: the wire packet is lost and the message
  arrives only after one or more retransmission timeouts (exactly-once,
  but late).  True loss is reserved for crashed nodes, where recovery —
  not retransmission — is the answer;
* **links** (``sim.link.SerialLink``) — transient per-transfer stalls
  (PFC pauses, arbitration hiccups) that stretch a transfer's duration;
* **RDMA verbs** (``hw.rdma.RdmaNic``) — transient completion failures
  retried by the (modeled) reliable-connection transport, each retry
  paying a timeout;
* **SmartNIC cores** (``core.nic_runtime.NicRuntime``) — scheduling
  stalls that inflate a compute slice's wall time;
* **nodes** — scheduled fail-stop crashes: inbound and outbound traffic
  is blackholed, its membership is revoked, and (when wired to a
  ``RecoveryManager``) the crashed node's primary shard is re-covered by
  backup promotion; an optional restart re-admits the node as a backup.

Every injected fault is appended to the plan's :class:`FaultTrace` with
its simulated timestamp, making failing seeds replayable postmortems.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from .rng import RngStream, sha256

__all__ = ["FaultSpec", "CrashEvent", "FaultTrace", "FaultEvent", "FaultPlan"]

# Cap on consecutive geometric re-draws (retransmits / verb retries) so a
# pathological probability near 1.0 cannot loop forever.
_MAX_REPEATS = 16


@dataclass(frozen=True)
class CrashEvent:
    """A scheduled fail-stop crash (and optional restart)."""

    at_us: float
    node: int
    down_us: Optional[float] = None  # None: never restarts


@dataclass(frozen=True)
class FaultSpec:
    """Probabilities and magnitudes of every fault primitive.

    All probabilities are per-decision (per delivered message, per
    transfer, per verb, per compute slice) and must lie in ``[0, 1)``.
    """

    # message faults (Fabric delivery boundary)
    drop: float = 0.0          # wire loss -> retransmission timeout(s)
    drop_rto_us: float = 30.0  # retransmission timeout per lost copy
    delay: float = 0.0         # extra queueing delay
    delay_mean_us: float = 5.0  # exponential mean of the extra delay
    dup: float = 0.0           # transport-level duplicate delivery
    dup_gap_us: float = 4.0    # duplicate arrives this long after original
    reorder: float = 0.0       # hold a message behind its successor
    reorder_hold_us: float = 10.0  # flush deadline if no successor arrives

    # serial-link stalls (Ethernet wire / RX pipe)
    stall: float = 0.0
    stall_us: float = 2.0

    # RDMA verb transient failures (baseline systems)
    rdma_fail: float = 0.0
    rdma_retry_us: float = 8.0

    # SmartNIC core scheduling stalls
    nic_stall: float = 0.0
    nic_stall_us: float = 1.5

    # scheduled crashes
    crashes: Tuple[CrashEvent, ...] = ()
    recovery_delay_us: float = 200.0  # failure detection -> promotion

    def __post_init__(self):
        for name in ("drop", "delay", "dup", "reorder", "stall",
                     "rdma_fail", "nic_stall"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError("%s must be in [0, 1): %r" % (name, p))

    # -- spec grammar -----------------------------------------------------

    _ALIASES = {
        "drop": ("drop", "drop_rto_us"),
        "delay": ("delay", "delay_mean_us"),
        "dup": ("dup", "dup_gap_us"),
        "reorder": ("reorder", "reorder_hold_us"),
        "stall": ("stall", "stall_us"),
        "rdma": ("rdma_fail", "rdma_retry_us"),
        "nic": ("nic_stall", "nic_stall_us"),
    }

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse a compact CLI spec, e.g.::

            drop=0.02,dup=0.01,delay=0.05:8,crash=800@1:2000

        Each field is ``name=prob[:magnitude_us]``; ``crash=T@NODE[:DOWN]``
        may repeat.  Unknown names raise ``ValueError``.
        """
        kwargs: Dict[str, Any] = {}
        crashes: List[CrashEvent] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError("bad fault field %r (want name=value)" % part)
            name, value = part.split("=", 1)
            name = name.strip()
            if name == "crash":
                crashes.append(cls._parse_crash(value))
                continue
            if name == "recovery_delay":
                kwargs["recovery_delay_us"] = float(value)
                continue
            if name not in cls._ALIASES:
                raise ValueError("unknown fault primitive %r" % name)
            prob_field, mag_field = cls._ALIASES[name]
            if ":" in value:
                prob, mag = value.split(":", 1)
                kwargs[prob_field] = float(prob)
                kwargs[mag_field] = float(mag)
            else:
                kwargs[prob_field] = float(value)
        if crashes:
            kwargs["crashes"] = tuple(crashes)
        return cls(**kwargs)

    @staticmethod
    def _parse_crash(value: str) -> CrashEvent:
        if "@" not in value:
            raise ValueError("crash wants T@NODE[:DOWN_US], got %r" % value)
        at, rest = value.split("@", 1)
        if ":" in rest:
            node, down = rest.split(":", 1)
            return CrashEvent(float(at), int(node), float(down))
        return CrashEvent(float(at), int(rest), None)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, stamped with its simulated time."""

    t_us: float
    kind: str
    site: str
    detail: str = ""

    def format(self) -> str:
        if self.detail:
            return "%.3f %s %s %s" % (self.t_us, self.kind, self.site,
                                      self.detail)
        return "%.3f %s %s" % (self.t_us, self.kind, self.site)


class FaultTrace:
    """Append-only record of every injected fault (the postmortem log)."""

    def __init__(self):
        self.events: List[FaultEvent] = []
        self.counts: Dict[str, int] = {}

    def record(self, t_us: float, kind: str, site: str, detail: str = "") -> None:
        self.events.append(FaultEvent(t_us, kind, site, detail))
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def __len__(self) -> int:
        return len(self.events)

    def format(self) -> str:
        """Canonical text form; byte-identical across same-seed runs."""
        return "\n".join(ev.format() for ev in self.events)

    def digest(self) -> str:
        """SHA-256 of the canonical text form."""
        return sha256(self.format().encode()).hexdigest()

    def summary(self) -> str:
        if not self.counts:
            return "no faults injected"
        return " ".join(
            "%s=%d" % (k, self.counts[k]) for k in sorted(self.counts)
        )


class FaultPlan:
    """A seeded fault schedule, installable on a cluster.

    Independent RNG child streams per fault category keep categories from
    perturbing each other: enabling NIC stalls never changes which
    messages get dropped under the same seed.
    """

    def __init__(self, spec: FaultSpec, rng: RngStream,
                 trace: Optional[FaultTrace] = None):
        self.spec = spec
        self.trace = trace if trace is not None else FaultTrace()
        self._msg_rng = rng.split("messages")
        self._link_rng = rng.split("links")
        self._rdma_rng = rng.split("rdma")
        self._nic_rng = rng.split("nic-cores")
        self.sim = None
        self.crashed: set = set()
        self.recovery = None  # RecoveryManager, when crashes are scheduled
        self.recovery_reports: List[Any] = []
        self._held: Dict[int, Any] = {}  # dst -> reordered message in limbo

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, cluster, recovery=None) -> "FaultPlan":
        """Attach this plan to a Xenic or baseline cluster, at each site
        whose fault kind the spec enables: a site the plan cannot fire
        at keeps no injector, so it runs the schedule it runs with no
        plan at all, and an empty spec changes nothing.

        ``recovery`` may supply an existing
        :class:`~repro.core.recovery.RecoveryManager`; one is created on
        demand when the spec schedules crashes on a Xenic cluster.
        """
        self.sim = cluster.sim
        spec = self.spec
        if hasattr(cluster, "fabric"):  # XenicCluster
            # message faults and crash drops: every delivery asks
            cluster.fabric.set_injector(self)
            if spec.stall:
                for node in cluster.nodes:
                    node.nic.port._link.link.injector = self
                    node.nic.port._rx_pipe.injector = self
            if spec.nic_stall:
                for proto in cluster.protocols:
                    proto.runtime.injector = self
            if spec.crashes and recovery is None:
                from ..core.recovery import RecoveryManager

                recovery = RecoveryManager(cluster)
            self.recovery = recovery
        else:  # BaselineCluster
            if spec.rdma_fail:
                for node in cluster.nodes:
                    node.rdma.injector = self
            if spec.stall:
                for node in cluster.nodes:
                    node.rdma._wire.injector = self
            if spec.crashes:
                raise ValueError(
                    "crash scheduling requires a Xenic cluster "
                    "(baselines model no recovery path)")
        self._cluster = cluster
        for crash in self.spec.crashes:
            _CrashChain(self, crash)
        return self

    # ------------------------------------------------------------------
    # message faults (called by Fabric.deliver)
    # ------------------------------------------------------------------

    def intercept_delivery(self, fabric, node_id: int, msg) -> bool:
        """Decide the fate of one message delivery.

        Returns True when the plan took over delivery (the fabric must not
        deliver now); False for an unperturbed (or merely duplicated)
        message.
        """
        site = self._msg_site(node_id, msg)
        if node_id in self.crashed or getattr(msg, "src", None) in self.crashed:
            self.trace.record(self.sim.now, "crash-drop", site)
            return True
        # A held (reordered) message is released right behind its
        # successor: scheduled at the current instant, so FIFO tie-break
        # delivers it immediately after this one.
        held = self._held.pop(node_id, None)
        if held is not None and held is not msg:
            self._deliver_later(fabric, node_id, held, 0.0)
        spec = self.spec
        rng = self._msg_rng
        if spec.drop and rng.random() < spec.drop:
            copies = 1
            while copies < _MAX_REPEATS and rng.random() < spec.drop:
                copies += 1
            delay = copies * spec.drop_rto_us
            self.trace.record(self.sim.now, "drop", site,
                              "lost=%d retransmit+%.1fus" % (copies, delay))
            self._deliver_later(fabric, node_id, msg, delay)
            return True
        if spec.dup and rng.random() < spec.dup:
            self.trace.record(self.sim.now, "dup", site,
                              "+%.1fus" % spec.dup_gap_us)
            self._deliver_later(fabric, node_id, msg, spec.dup_gap_us)
            # the original still goes through now
        if spec.delay and rng.random() < spec.delay:
            extra = rng.expovariate(1.0 / spec.delay_mean_us)
            self.trace.record(self.sim.now, "delay", site, "+%.3fus" % extra)
            self._deliver_later(fabric, node_id, msg, extra)
            return True
        if spec.reorder and node_id not in self._held \
                and rng.random() < spec.reorder:
            self.trace.record(self.sim.now, "reorder", site,
                              "held<=%.1fus" % spec.reorder_hold_us)
            self._held[node_id] = msg
            self.sim.call_after(spec.reorder_hold_us,
                                partial(self._flush_held, fabric, node_id),
                                msg)
            return True
        return False

    def _msg_site(self, node_id: int, msg) -> str:
        kind = getattr(msg, "kind", "?")
        src = getattr(msg, "src", "?")
        return "msg:%s %s->%d" % (kind, src, node_id)

    def _deliver_later(self, fabric, node_id: int, msg, delay: float) -> None:
        self.sim.call_after(delay,
                            partial(self._deliver_checked, fabric, node_id),
                            msg)

    def _deliver_checked(self, fabric, node_id: int, msg) -> None:
        # the destination (or source) may have crashed while in flight
        if node_id in self.crashed or getattr(msg, "src", None) in self.crashed:
            self.trace.record(self.sim.now, "crash-drop",
                              self._msg_site(node_id, msg))
            return
        fabric._deliver_now(node_id, msg)

    def _flush_held(self, fabric, node_id: int, msg) -> None:
        if self._held.get(node_id) is msg:
            del self._held[node_id]
            self._deliver_checked(fabric, node_id, msg)

    # ------------------------------------------------------------------
    # link / verb / core faults
    # ------------------------------------------------------------------

    def link_stall_us(self, link) -> float:
        spec = self.spec
        if not spec.stall or self._link_rng.random() >= spec.stall:
            return 0.0
        self.trace.record(self.sim.now, "link-stall",
                          "link:%s" % (link.name or "?"),
                          "+%.1fus" % spec.stall_us)
        return spec.stall_us

    def rdma_retries(self, nic, verb: str) -> int:
        spec = self.spec
        if not spec.rdma_fail:
            return 0
        rng = self._rdma_rng
        retries = 0
        while retries < _MAX_REPEATS and rng.random() < spec.rdma_fail:
            retries += 1
        if retries:
            self.trace.record(self.sim.now, "rdma-fail",
                              "verb:%s.%s" % (nic.name, verb),
                              "retries=%d" % retries)
        return retries

    def nic_stall_us(self, runtime) -> float:
        spec = self.spec
        if not spec.nic_stall or self._nic_rng.random() >= spec.nic_stall:
            return 0.0
        self.trace.record(self.sim.now, "nic-stall",
                          "nic:%s" % runtime.nic.name,
                          "+%.1fus" % spec.nic_stall_us)
        return spec.nic_stall_us

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------

    def crash_node(self, node_id: int) -> None:
        """Fail-stop ``node_id`` now: blackhole its traffic and revoke its
        membership.  Processes already running inside the node become zombies
        whose outward effects are suppressed at the fabric boundary."""
        if node_id in self.crashed:
            return
        self.crashed.add(node_id)
        self.trace.record(self.sim.now, "crash", "node:%d" % node_id)
        if self.recovery is not None:
            self.recovery.fail_node(node_id)
        elif hasattr(self._cluster, "failed"):
            self._cluster.failed.add(node_id)

    def restart_node(self, node_id: int) -> None:
        """Re-admit a crashed node as a backup (durable state intact; its
        replicas catch up from subsequent versioned log records)."""
        if node_id not in self.crashed:
            return
        self.crashed.discard(node_id)
        self.trace.record(self.sim.now, "restart", "node:%d" % node_id)
        if hasattr(self._cluster, "failed"):
            self._cluster.failed.discard(node_id)
        if self.recovery is not None:
            self.recovery.manager.register(node_id)


class _CrashChain:
    """One scheduled crash as a callback chain: the crash instant, the
    recovery delay, the restart.  Each stage is the continuation of the
    entry it waits on, and the chain starts from an entry at now (where
    a spawned process's start event would sit), so every push keeps the
    instant and same-instant position a crash process would give it."""

    __slots__ = ("plan", "crash")

    def __init__(self, plan: FaultPlan, crash: CrashEvent):
        self.plan = plan
        self.crash = crash
        plan.sim.call_at(plan.sim.now, self._start)

    def _start(self, _ev) -> None:
        sim = self.plan.sim
        if self.crash.at_us > sim.now:
            sim.call_after(self.crash.at_us - sim.now, self._crashed)
        else:
            self._crashed(None)

    def _crashed(self, _ev) -> None:
        plan = self.plan
        plan.crash_node(self.crash.node)
        if plan.recovery is not None:
            plan.sim.call_after(plan.spec.recovery_delay_us, self._recover)
        else:
            self._schedule_restart()

    def _recover(self, _ev) -> None:
        plan = self.plan
        cluster = plan._cluster
        for shard in range(cluster.n_nodes):
            if cluster.primary_node_id(shard) == self.crash.node:
                report = plan.recovery.recover_shard(shard)
                plan.recovery_reports.append(report)
                plan.trace.record(
                    plan.sim.now, "recover", "shard:%d" % shard,
                    "new_primary=%d committed=%d aborted=%d" % (
                        report.new_primary, len(report.committed),
                        len(report.aborted)))
        self._schedule_restart()

    def _schedule_restart(self) -> None:
        if self.crash.down_us is not None:
            self.plan.sim.call_after(self.crash.down_us, self._restart)

    def _restart(self, _ev) -> None:
        self.plan.restart_node(self.crash.node)
