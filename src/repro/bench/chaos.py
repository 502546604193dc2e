"""Chaos harness: randomized fault schedules + global invariant checks.

``run_chaos`` builds a small cluster (Xenic or a baseline), installs a
seeded :class:`~repro.sim.faults.FaultPlan`, drives a deterministic
commuting-increment workload through it, and checks the invariants that
must hold no matter what the fault layer did:

* **no limbo** — every admitted transaction reaches commit (the
  coordinator retries aborts), so every driver process finishes;
* **serializability** — increments commute, so the final committed value
  of every key must equal the reference ledger sum exactly; any lost
  update, double-apply, or phantom commit breaks the equality;
* **conservation** — the number of commits reported by the protocol
  equals the number of driver processes that finished.

Both the workload and the fault schedule derive from the single ``seed``
through independent named RNG streams, so a failing seed reproduces
byte-identically (see ``docs/FAULTS.md``).

When the spec schedules crashes the ledger/no-limbo checks are skipped:
transactions with an attempt in flight at a crashed node block forever
(the protocol has no request timeouts; recovery, not retransmission,
resolves them), which the dedicated recovery tests assert precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..baselines import SYSTEMS, BaselineCluster
from ..core import TxnSpec, XenicCluster, XenicConfig
from ..obs import Observer
from ..sim import RngStream, Simulator, collector_quiet
from ..sim.faults import FaultPlan, FaultSpec, FaultTrace

__all__ = ["ChaosResult", "run_chaos", "DEFAULT_CHAOS_FAULTS"]

XENIC = "xenic"

# The CI smoke spec: every message primitive enabled at once.
DEFAULT_CHAOS_FAULTS = "drop=0.02,dup=0.01,delay=0.05:8,reorder=0.02"


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos run."""

    system: str
    seed: int
    spec: FaultSpec
    commits: int
    aborts: int
    limbo: int
    violations: List[str] = field(default_factory=list)
    trace: Optional[FaultTrace] = None
    sim_time_us: float = 0.0
    observer: Optional[Observer] = None
    # simulated end-state + engine work, surfaced for golden-digest checks
    # (events_scheduled is the real event count, not a commit-count proxy).
    final_values: Dict[int, object] = field(default_factory=dict)
    events_scheduled: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:  # pragma: no cover - convenience
        status = "OK" if self.ok else "VIOLATION"
        line = (
            "%s seed=%d: %s commits=%d aborts=%d faults[%s]"
            % (self.system, self.seed, status, self.commits, self.aborts,
               self.trace.summary() if self.trace else "-")
        )
        for v in self.violations:
            line += "\n  !! %s" % v
        return line


def _build_cluster(system: str, sim: Simulator, n_nodes: int, keys: int,
                   config: Optional[XenicConfig], rf: int):
    if system == XENIC:
        cfg = config or XenicConfig(replication_factor=rf)
        cluster = XenicCluster(sim, n_nodes, config=cfg,
                               keys_per_shard=max(128, keys),
                               value_size=16)
    elif system in SYSTEMS:
        cluster = BaselineCluster(sim, n_nodes, SYSTEMS[system],
                                  host_threads=4,
                                  keys_per_shard=max(128, keys),
                                  value_size=16,
                                  replication_factor=rf)
    else:
        raise ValueError("unknown system %r" % system)
    cluster.load_keys((k, 0, None) for k in range(keys))
    cluster.start()
    return cluster


def run_chaos(
    system: str = XENIC,
    seed: int = 1,
    faults: Union[str, FaultSpec] = DEFAULT_CHAOS_FAULTS,
    n_txns: int = 40,
    n_nodes: int = 3,
    keys: int = 24,
    rf: int = 3,
    span_us: float = 300.0,
    limit_us: float = 500_000.0,
    config: Optional[XenicConfig] = None,
    obs: bool = False,
) -> ChaosResult:
    """One seeded chaos run; see the module docstring for the invariants.

    With ``obs=True`` an :class:`~repro.obs.Observer` is installed before
    the workload and returned in ``ChaosResult.observer``, ready for
    trace export (fault injections from the plan land on the same
    timeline as instant events)."""
    spec = FaultSpec.parse(faults) if isinstance(faults, str) else faults
    with collector_quiet:
        sim = Simulator()
        cluster = _build_cluster(system, sim, n_nodes, keys, config, rf)
        plan = FaultPlan(spec, RngStream(seed, "faults")).install(cluster)
        observer = Observer(sim).install(cluster) if obs else None

        # deterministic commuting-increment workload, independent RNG stream
        wl = RngStream(seed, "workload")
        crashing = {c.node for c in spec.crashes}
        coords = [n for n in range(n_nodes) if n not in crashing] or [0]
        ops = []
        for _ in range(n_txns):
            coord = coords[wl.randrange(len(coords))]
            n_keys = wl.randint(1, 3)
            op_keys = tuple(sorted(wl.sample(range(keys), n_keys)))
            amount = wl.randint(1, 9)
            start = wl.uniform(0.0, span_us)
            ops.append((coord, op_keys, amount, start))
        reference: Dict[int, int] = {k: 0 for k in range(keys)}
        for _coord, op_keys, amount, _start in ops:
            for k in op_keys:
                reference[k] += amount

        done: List[int] = []

        def run_op(i, coord, op_keys, amount, start):
            yield sim.timeout(start)

            def logic(reads, state, keys=op_keys, amount=amount):
                return {k: (reads[k] or 0) + amount for k in keys}

            spec_ = TxnSpec(read_keys=list(op_keys), write_keys=list(op_keys),
                            logic=logic)
            yield from cluster.protocols[coord].run_transaction(spec_)
            done.append(i)

        for i, (coord, op_keys, amount, start) in enumerate(ops):
            sim.spawn(run_op(i, coord, op_keys, amount, start),
                      name="chaos-txn-%d" % i)
        sim.run(until=limit_us)

        commits = sum(p.stats.get("commits") for p in cluster.protocols)
        aborts = sum(p.stats.get("aborts") for p in cluster.protocols)
        limbo = n_txns - len(done)
        result = ChaosResult(system=system, seed=seed, spec=spec,
                             commits=commits, aborts=aborts, limbo=limbo,
                             trace=plan.trace, sim_time_us=sim.now,
                             observer=observer,
                             final_values={k: cluster.read_committed_value(k)
                                           for k in range(keys)},
                             events_scheduled=sim.events_scheduled)
        if not spec.crashes:
            if limbo:
                result.violations.append(
                    "limbo: %d/%d transactions never resolved"
                    % (limbo, n_txns))
            if commits != n_txns:
                result.violations.append(
                    "commit conservation: %d commits for %d transactions"
                    % (commits, n_txns))
            for k in range(keys):
                got = cluster.read_committed_value(k)
                if got != reference[k]:
                    result.violations.append(
                        "serializability: key %d = %r, reference %d"
                        % (k, got, reference[k]))
        return result
