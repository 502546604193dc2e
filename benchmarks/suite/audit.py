"""Correctness check: a finite closed loop run to completion, then audited.

On a fresh cluster of the workload's configuration, ``contexts`` closed
loop contexts per node each run ``txns`` transactions.  A transaction
counts as failed when it has not committed by the simulated deadline, or
when it is implicated in a broken invariant: a lock still held after the
cluster went quiet, a backup replica diverging from its primary (Xenic),
or Smallbank money not conserved (bounds as in
``examples/smallbank_audit.py``; this one cannot be pinned on a
transaction, so it fails them all).

A negative Smallbank balance is *not* a violation: ``write_check``
overdraws by design (amount + fee off a checking account that
``amalgamate`` has just emptied), and one seed in three produces one.
"""

from __future__ import annotations

from typing import Dict, List

from counters import is_xenic
from repro.workloads.smallbank import INITIAL_BALANCE

_SLICE_US = 200.0
_SETTLE_US = 1000.0
# deposit_checking adds 10, transact_savings adds 20, write_check takes
# at most amount + fee = 6; send_payment and amalgamate conserve money.
_ADDED = {"deposit_checking": 10, "transact_savings": 20}
_CHECK_MAX = 6


def run_audit(bench, contexts: int, txns: int, deadline_us: float) -> Dict:
    sim, cluster, workload = bench.sim, bench.cluster, bench.workload
    attempted = bench.n_nodes * contexts * txns
    committed: List[str] = []

    def context(node_id: int, ctx: int):
        stream = workload.generator_for(node_id, "audit%d" % ctx)
        proto = cluster.protocols[node_id]
        for _ in range(txns):
            spec = stream.next()
            yield from proto.run_transaction(spec)
            if spec.post_commit is not None:
                spec.post_commit()
            committed.append(spec.label)

    for node_id in range(bench.n_nodes):
        for ctx in range(contexts):
            sim.spawn(context(node_id, ctx), name="audit-%d-%d" % (node_id, ctx))
    # host worker loops never exit, so run in bounded slices
    deadline = sim.now + deadline_us
    while len(committed) < attempted and sim.now < deadline:
        sim.run(until=sim.now + _SLICE_US)
    # commits are reported before the COMMIT phase applies at primaries
    sim.run(until=sim.now + _SETTLE_US)
    if is_xenic(bench):
        cluster.drain_logs()

    violations = []
    failed = attempted - len(committed)
    if failed:
        violations.append("%d of %d transactions not committed by the "
                          "deadline" % (failed, attempted))
    leaked = _leaked_locks(bench)
    if leaked:
        violations.append("%d locks still held" % leaked)
        failed += leaked
    if is_xenic(bench):
        lagging = sum(cluster.replica_divergence().values())
        if lagging:
            violations.append("%d backup keys diverge from their primary"
                              % lagging)
            failed += lagging
    if workload.name == "smallbank":
        added = sum(_ADDED.get(label, 0) for label in committed)
        checks = sum(1 for label in committed if label == "write_check")
        initial = 2 * workload.total_accounts * INITIAL_BALANCE
        total = workload.total_money(cluster)
        if not initial + added - checks * _CHECK_MAX <= total <= initial + added:
            violations.append(
                "money not conserved: total %d outside [%d, %d]"
                % (total, initial + added - checks * _CHECK_MAX,
                   initial + added))
            failed = attempted
    return {"attempted": attempted, "failed": min(failed, attempted),
            "violations": violations}


def _leaked_locks(bench) -> int:
    leaked = 0
    for node in bench.cluster.nodes:
        if is_xenic(bench):
            for shard, index in node.indexes.items():
                leaked += sum(1 for obj in node.tables[shard].objects()
                              if index.is_locked(obj.key))
        else:
            for table in node.tables.values():
                leaked += sum(1 for obj in table.objects() if obj.locked)
    return leaked
