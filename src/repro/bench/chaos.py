"""Chaos harness: randomized fault schedules + global invariant checks.

``run_chaos`` is a :class:`~repro.bench.runner.Bench` run of the
:class:`Increments` workload on a small cluster (Xenic or a baseline)
under a seeded :class:`~repro.sim.faults.FaultPlan`.  It starts each
increment once, at a drawn time, runs to a fixed horizon and checks the
invariants that must hold no matter what the fault layer did:

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
from typing import Dict, List, Optional, Tuple, Union

from ..core import TxnSpec
from ..obs import Observer
from ..sim import RngStream, collector_quiet
from ..sim.faults import FaultSpec, FaultTrace
from ..workloads.base import Workload
from .runner import XENIC, Bench

__all__ = ["ChaosResult", "Increments", "run_chaos", "DEFAULT_CHAOS_FAULTS"]

# The CI smoke spec: every message primitive enabled at once.
DEFAULT_CHAOS_FAULTS = "drop=0.02,dup=0.01,delay=0.05:8,reorder=0.02"

KEYS = 24  # the keyspace the increments touch
START_SPAN = 300.0  # µs: each increment starts at a time drawn from [0, this)
HORIZON = 500_000.0  # µs: the run's end, ample for every retry to resolve


def increment(keys: Tuple[int, ...], amount: int) -> TxnSpec:
    """A transaction that adds ``amount`` to each of ``keys``."""

    def logic(reads, state):
        return {k: (reads[k] or 0) + amount for k in keys}

    return TxnSpec(read_keys=list(keys), write_keys=list(keys), logic=logic)


class Increments(Workload):
    """Commuting increments over ``KEYS`` keys: whatever order they
    serialize in, each key ends at the sum of the amounts added to it.
    Not in ``WORKLOADS``: :func:`run_chaos` schedules its transactions."""

    name = "increments"
    value_size = 16
    baseline_host_threads = 4
    prewarm = False

    def keys_per_shard(self) -> int:
        return max(128, KEYS)

    def partition(self, key: int) -> int:
        return key % self.n_nodes

    def load(self, cluster) -> None:
        cluster.load_keys((k, 0, None) for k in range(KEYS))

    def draw(self, rng: RngStream) -> Tuple[Tuple[int, ...], int]:
        """One increment: its sorted keys (one to three) and amount."""
        n_keys = rng.randint(1, 3)
        keys = tuple(sorted(rng.sample(range(KEYS), n_keys)))
        return keys, rng.randint(1, 9)

    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        return increment(*self.draw(rng))


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


def run_chaos(
    system: str = XENIC,
    seed: int = 1,
    faults: Union[str, FaultSpec] = DEFAULT_CHAOS_FAULTS,
    n_txns: int = 40,
    n_nodes: int = 3,
    obs: bool = False,
) -> ChaosResult:
    """One seeded chaos run; see the module docstring for the invariants.

    With ``obs=True`` an :class:`~repro.obs.Observer` is installed before
    the workload and returned in ``ChaosResult.observer``, ready for
    trace export (fault injections from the plan land on the same
    timeline as instant events)."""
    spec = FaultSpec.parse(faults) if isinstance(faults, str) else faults
    with collector_quiet:
        bench = Bench(system, Increments(n_nodes), n_nodes=n_nodes,
                      faults=(spec, seed), obs=obs)
        sim, cluster = bench.sim, bench.cluster

        # each increment's coordinator, keys, amount and start time, from
        # a stream of its own
        rng = RngStream(seed, "workload")
        crashing = {c.node for c in spec.crashes}
        coords = [n for n in range(n_nodes) if n not in crashing] or [0]
        ops = []
        for _ in range(n_txns):
            coord = coords[rng.randrange(len(coords))]
            keys, amount = bench.workload.draw(rng)
            ops.append((coord, keys, amount, rng.uniform(0.0, START_SPAN)))
        reference: Dict[int, int] = {k: 0 for k in range(KEYS)}
        for _coord, keys, amount, _start in ops:
            for k in keys:
                reference[k] += amount

        done: List[int] = []

        def run_op(i, coord, keys, amount, start):
            yield sim.timeout(start)
            yield from cluster.protocols[coord].run_transaction(
                increment(keys, amount))
            done.append(i)

        for i, op in enumerate(ops):
            sim.spawn(run_op(i, *op), name="chaos-txn-%d" % i)
        sim.run(until=HORIZON)

        commits = bench.total_commits()
        limbo = n_txns - len(done)
        result = ChaosResult(system=system, seed=seed, spec=spec,
                             commits=commits, aborts=bench.total_aborts(),
                             limbo=limbo, trace=bench.fault_plan.trace,
                             sim_time_us=sim.now, observer=bench.observer,
                             final_values={k: cluster.read_committed_value(k)
                                           for k in range(KEYS)},
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
            for k, got in result.final_values.items():
                if got != reference[k]:
                    result.violations.append(
                        "serializability: key %d = %r, reference %d"
                        % (k, got, reference[k]))
        return result
