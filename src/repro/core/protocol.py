"""Xenic's distributed OCC commit protocol (§4.2).

One :class:`XenicProtocol` instance per node plays three roles:

* **host coordinator** (``run_transaction``) — admits transactions from
  the application, runs the local fast path (§4.2.4), or hands the
  transaction state to the coordinator-side NIC over PCIe;
* **coordinator-side NIC** — drives EXECUTE / VALIDATE / LOG / COMMIT
  against remote primaries and backups, runs shipped execution logic
  (§4.2.2), and applies the multi-hop patterns of Figure 7b (§4.2.3);
* **server-side NIC** — handles inbound requests against the local
  NIC index and host table, with locks and authoritative versions living
  in NIC memory.

All compute is charged to the owning core groups; all data movement goes
through the modeled DMA engine, PCIe channel, and Ethernet fabric.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..hw.network import NetMessage
from ..store.log import LogRecord, record_size_bytes
from ..store.replicas import group_keys, group_values
from .messages import (
    COMMIT,
    EXEC_SHIP,
    EXECUTE,
    LOG,
    UNLOCK,
    VALIDATE,
    Request,
    Response,
    recycle_request,
    recycle_response,
    request_size,
    response_size,
    take_request,
    take_response,
)
from .nic_runtime import NicRuntime, PendingTable
from .txn import (Coordinator, NeedMoreKeys, TOMBSTONE, Transaction, TxnSpec,
                  TxnStatus)

__all__ = ["XenicProtocol"]

# NIC-side admission cost for a new transaction (wall-µs on a NIC core).
NIC_ADMIT_US = 0.08
# Host-side completion handling per transaction (wall-µs on an app core).
HOST_COMPLETE_US = 0.15
# Log-append retry interval when the host log is full (back-pressure).
LOG_RETRY_US = 2.0
# Small PCIe payloads (control messages).
DONE_MSG_BYTES = 24
# Duplicate suppression: how many wire ids from one peer may arrive ahead
# of a missing one before it is written off as lost rather than late.
WIRE_REORDER_WINDOW = 4096


def _execute_args(req: Request):
    """``_execute_core`` / ``_execute_rest`` arguments of an EXECUTE."""
    return (req.shard, req.txn_id, req.read_keys, req.write_keys,
            bool(req.versions.pop("inline", None)))


def _versions(read_values):
    """The ``(key, version)`` pairs of a ``key -> (value, version)`` map."""
    return ((k, vv[1]) for k, vv in read_values.items())


def _whole(msg):
    """Arguments of a handler that takes the message itself."""
    return (msg,)


def _coordinator_reports(_txn, _result) -> None:
    """``done`` of the PCIe entries: nothing waits on a coordination, it
    reports to the host itself (``_notify_host``)."""


class XenicProtocol(Coordinator):
    """Protocol engine for one node."""

    def __init__(self, cluster, node):
        super().__init__(cluster, node)
        self.config = node.config
        self.runtime = NicRuntime(self.sim, node.nic, node.config)
        self.host_pending = PendingTable(self.sim)
        self._req_seq = 0
        # Transport-level exactly-once delivery, the way an RC transport
        # dedups PSNs: outbound messages carry a per-(sender, receiver)
        # sequence number, and the receiver keeps, per peer, the highest
        # id below which everything has arrived plus the set of ids that
        # arrived ahead of a gap.  Without faults the fabric is FIFO per
        # pair, so the sets stay empty and the state is one int per peer
        # however long the run; a delayed or reordered message parks its
        # successors in the set only until it lands, and one that never
        # lands (crash-dropped) until WIRE_REORDER_WINDOW have passed it.
        n_nodes = node.n_nodes
        self._wire_seq = [0] * n_nodes
        self._wire_seen_upto = [0] * n_nodes
        self._wire_seen_ahead = [set() for _ in range(n_nodes)]
        # Delay fusion: fan-out generators start immediately (sim.start)
        # instead of spawning a start event.
        self._launch = self.sim.start
        node.nic.set_handler(self._on_wire)
        node.pcie.set_handlers(self._on_pcie_host, self._on_pcie_nic)
        node.protocol = self

    # ------------------------------------------------------------------
    # latency attribution (repro.obs.attrib)
    # ------------------------------------------------------------------

    def _t0(self) -> float:
        """Timestamp for an attribution span; 0.0 on the unobserved fast
        path (never read: `_attrib` is a no-op without a sink)."""
        return self.sim.now if self.obs is not None else 0.0

    def _attrib(self, phase: str, t0: float, txn_id: int) -> None:
        obs = self.obs
        if obs is not None:
            obs.attrib_span(phase, self.node.node_id, t0, self.sim.now,
                            txn_id)

    # ------------------------------------------------------------------
    # host-side API (``run_transaction``: the shared retry driver)
    # ------------------------------------------------------------------

    def _attempt(self, txn: Transaction):
        spec = txn.spec
        if spec.local_compute_us > 0:
            t0 = self._t0()
            yield from self.node.host_app_cores.run(spec.local_compute_us)
            self._attrib("host", t0, txn.txn_id)
        shards = {self.cluster.shard_of(k) for k in spec.all_keys()}
        own = self.node.node_id
        if (spec.single_round and shards <= {own}
                and self.cluster.primary_node_id(own) == own):
            ok = yield from self._local_attempt(txn)
            return ok
        # distributed: hand the transaction state to the coordinator NIC
        fut = self.host_pending.expect(("done", txn.txn_id, txn.attempts))
        self.node.pcie.host_to_nic(self._txn_state_bytes(spec), ("start", txn))
        ok, reason = yield fut
        txn.abort_reason = None if ok else (reason or "unknown")
        t0 = self._t0()
        yield from self.node.host_app_cores.run_wall(HOST_COMPLETE_US)
        self._attrib("host", t0, txn.txn_id)
        return ok

    def _txn_state_bytes(self, spec: TxnSpec) -> int:
        return 18 + 10 * len(spec.all_keys()) + spec.external_state_bytes

    # ------------------------------------------------------------------
    # local fast path (§4.2.4)
    # ------------------------------------------------------------------

    def _local_attempt(self, txn: Transaction):
        spec = txn.spec
        shard = self.node.node_id
        table = self.node.tables[shard]
        n_keys = len(spec.all_keys())
        # optimistic execution on the host against the host-side table
        t0 = self._t0()
        yield from self.node.host_app_cores.run_wall(
            self.config.host_per_key_us * max(1, n_keys)
        )
        self._attrib("host", t0, txn.txn_id)
        for k in spec.read_keys:
            value, version = self.node.read_local(k)
            if value is TOMBSTONE:
                value = None
            txn.read_values[k] = (value, version)
        if txn.read_only:
            # no PCIe, no network: validate against host versions (atomic
            # within this handler activation)
            self.stats.inc("local_readonly")
            return True
        if spec.logic_cost_us > 0:
            t0 = self._t0()
            yield from self.node.host_app_cores.run(spec.logic_cost_us)
            self._attrib("host", t0, txn.txn_id)
        txn.write_values = txn.run_logic()
        fut = self.host_pending.expect(("done", txn.txn_id, txn.attempts))
        state_bytes = self._txn_state_bytes(spec) + sum(
            10 + self._value_bytes(k) for k in txn.write_values
        )
        self.node.pcie.host_to_nic(state_bytes, ("local_commit", txn))
        ok, reason = yield fut
        txn.abort_reason = None if ok else (reason or "unknown")
        return ok

    def _nic_local_commit(self, txn: Transaction):
        """Coordinator-NIC side of a local write transaction: lock,
        validate against the authoritative NIC versions, replicate, commit.
        Entered through ``_dispatch``, which has charged the message and
        per-key handling."""
        index = self.node.index
        shard = self.node.node_id
        writes = txn.write_values
        ok = index.lock_all(writes, txn.txn_id)
        # the host may have read stale (not-yet-applied) values, so the
        # versions it saw of the keys it writes must match too (those are
        # now locked by this transaction, which reads_current allows)
        if ok and not index.reads_current(_versions(txn.read_values),
                                          txn.txn_id):
            index.unlock_all(writes, txn.txn_id)
            ok = False
        if not ok:
            self._notify_host(txn, False, "local-conflict")
            return
        for k in writes:
            txn.record_lock(shard, k)
        versions = {k: index.read_version(k) for k in writes}
        ok = yield from self._replicate_shard(txn, shard, writes, versions)
        if not ok:
            index.unlock_all(writes, txn.txn_id)
            self._notify_host(txn, False, "log-failed")
            return
        self._notify_host(txn, True, None)
        yield from self._commit_local(txn, shard, writes)

    # ------------------------------------------------------------------
    # coordinator-side NIC
    # ------------------------------------------------------------------

    def _nic_coordinate(self, txn: Transaction):
        """Coordinate one distributed attempt.  Entered through
        ``_dispatch``, which has charged NIC_ADMIT_US."""
        spec = txn.spec
        shard_of = self.cluster.shard_of
        by_shard = group_keys(spec.read_keys, spec.write_keys, shard_of)
        if self._multihop_applicable(txn, by_shard):
            yield from self._multihop(txn, by_shard)
            return
        ok, reason = yield from self._phase_execute(txn, by_shard)
        # execution rounds: multi-shot logic may extend the key sets and
        # re-run until it produces the final write set (§4.2 step 3)
        if ok and (spec.logic is not None or not txn.read_only):
            round_no = 0
            while True:
                result = yield from self._run_logic(txn, round_no)
                if not isinstance(result, NeedMoreKeys):
                    txn.write_values = result or {}
                    break
                self.stats.inc("multi_shot_rounds")
                txn.add_keys(result)
                ok, reason = yield from self._phase_execute(
                    txn, group_keys(result.read_keys, result.write_keys,
                                    shard_of))
                if not ok:
                    break
                round_no += 1
        if ok:
            if txn.extra_read_keys or txn.extra_write_keys:
                # multi-shot rounds may have pulled in new shards; regroup.
                # (Single-shot transactions reuse the EXECUTE grouping:
                # _phase_validate only consults the shard count and
                # regroups the version checks itself from read_values.)
                by_shard = group_keys(txn.effective_read_keys(),
                                      txn.effective_write_keys(), shard_of)
            ok, reason = yield from self._phase_validate(txn, by_shard)
        writes_by_shard = None
        if ok and not txn.read_only:
            writes_by_shard = group_values(txn.write_values, shard_of)
            ok = yield from self._phase_log(txn, writes_by_shard)
            reason = "log-failed"
        if not ok:
            yield from self._abort_cleanup(txn)
            self._notify_host(txn, False, reason)
            return
        # Committed: report to the host, then apply at the primaries.
        self._notify_host(txn, True, None)
        if writes_by_shard is not None:
            yield from self._phase_commit(txn, writes_by_shard)

    def _run_logic(self, txn: Transaction, round_no: int = 0):
        """Run one execution round; returns the logic result (a final
        write-value dict, or NeedMoreKeys for multi-shot logic)."""
        spec = txn.spec
        if self.config.nic_execution and spec.ship_execution:
            # execute on the coordinator-side NIC (§4.2.2): reference cost
            # scaled by the wimpy-core ratio
            t0 = self._t0()
            yield from self.node.nic.cores.run(spec.logic_cost_us)
            obs = self.obs
            if obs is not None:
                obs.attrib_span(
                    "nic", self.node.node_id, t0, self.sim.now, txn.txn_id,
                    svc=self.node.nic.cores.service_us(spec.logic_cost_us))
            self.stats.inc("nic_executions")
            return txn.run_logic()
        # PCIe roundtrip to the host for application execution
        fut = self.runtime.pending.expect(
            ("logic", txn.txn_id, txn.attempts, round_no))
        read_bytes = sum(
            16 + self._value_bytes(k) for k in txn.read_values
        )
        self.node.pcie.nic_to_host(read_bytes, ("logic_req", txn, round_no))
        result = yield fut
        self.stats.inc("host_executions")
        return result

    def _gather(self, evs, txn_id: int):
        """Wait for every event of one fan-out (remote responses and
        launched local cores alike); returns their values in order.  The
        wait is attributed to ``wire``."""
        t0 = self._t0()
        if len(evs) == 1:
            values = ((yield evs[0]),)
        else:
            values = yield self.sim.all_of(evs)
        self._attrib("wire", t0, txn_id)
        return values

    # -- EXECUTE ------------------------------------------------------------

    def _phase_execute(self, txn: Transaction, by_shard):
        txn.status = TxnStatus.EXECUTING
        evs = []
        smart = self.config.smart_remote_ops
        own = self.node.node_id
        primary_of = self.cluster.primary_node_id
        single_shard = len(by_shard) == 1
        inline = smart and single_shard and txn.read_only
        for shard, (rkeys, wkeys) in by_shard.items():
            primary = primary_of(shard)
            if primary == own:
                # in the ablation baseline, local locks move to wave 2 too
                w1_wkeys = wkeys if smart else []
                evs.append(
                    self._launch(
                        self._execute_core(shard, txn.txn_id, rkeys,
                                           w1_wkeys, inline),
                        name="exec-local",
                    )
                )
            elif smart:
                req = take_request(
                    EXECUTE, txn.txn_id, shard, txn.coord_node,
                    read_keys=rkeys, write_keys=wkeys,
                )
                if inline:
                    req.versions = {"inline": 1}  # flag: validate inline
                evs.append(self._send_request(primary, req))
            else:
                # ablation baseline: per-key read requests now; per-key
                # lock requests follow in a second wave, mirroring the
                # one-sided read -> lock -> validate sequence (§5.7)
                for k in rkeys:
                    evs.append(
                        self._send_request(
                            primary,
                            take_request(EXECUTE, txn.txn_id, shard,
                                         txn.coord_node, read_keys=[k]),
                        )
                    )
        responses = yield from self._gather(evs, txn.txn_id)
        if not smart:
            lock_evs = []
            for shard, (_rkeys, wkeys) in by_shard.items():
                primary = primary_of(shard)
                for k in wkeys:
                    if primary == own:
                        lock_evs.append(self._launch(
                            self._execute_core(shard, txn.txn_id, [], [k]),
                            name="lock-local"))
                    else:
                        lock_evs.append(self._send_request(
                            primary,
                            take_request(EXECUTE, txn.txn_id, shard,
                                         txn.coord_node, write_keys=[k])))
            if lock_evs:
                lock_responses = yield from self._gather(lock_evs,
                                                         txn.txn_id)
                responses = list(responses) + list(lock_responses)
        ok = True
        reason = None
        read_values = txn.read_values
        for resp in responses:
            if resp.ok:
                read_values.update(resp.read_values)
                # resp.versions holds exactly the write keys this request
                # locked
                for k, ver in resp.versions.items():
                    read_values.setdefault(k, (None, ver))
                    txn.record_lock(resp.shard, k)
            else:
                ok = False
                reason = resp.reason or "execute-abort"
            recycle_response(resp)
        if ok and single_shard and txn.read_only and smart:
            txn.status = TxnStatus.VALIDATING  # validated inline
        return ok, reason

    # -- VALIDATE ------------------------------------------------------------

    def _phase_validate(self, txn: Transaction, by_shard):
        txn.status = TxnStatus.VALIDATING
        write_set = set(txn.write_values) | set(txn.effective_write_keys())
        to_check = [k for k in txn.effective_read_keys()
                    if k not in write_set]
        if not to_check:
            return True, None
        if (
            self.config.smart_remote_ops
            and txn.read_only
            and len(by_shard) == 1
        ):
            return True, None  # validated inline during EXECUTE
        read_values = txn.read_values
        groups = group_values({k: read_values[k][1] for k in to_check},
                              self.cluster.shard_of)
        evs = []
        for shard, versions in groups.items():
            primary = self.cluster.primary_node_id(shard)
            if primary == self.node.node_id:
                evs.append(
                    self._launch(
                        self._validate_core(shard, txn.txn_id, versions),
                        name="validate-local",
                    )
                )
            elif self.config.smart_remote_ops:
                evs.append(
                    self._send_request(
                        primary,
                        take_request(VALIDATE, txn.txn_id, shard,
                                     txn.coord_node, versions=versions),
                    )
                )
            else:
                for k, ver in versions.items():
                    evs.append(
                        self._send_request(
                            primary,
                            take_request(VALIDATE, txn.txn_id, shard,
                                         txn.coord_node, versions={k: ver}),
                        )
                    )
        responses = yield from self._gather(evs, txn.txn_id)
        ok = True
        reason = None
        for resp in responses:
            if not resp.ok and ok:
                ok = False
                reason = resp.reason or "validate-abort"
            recycle_response(resp)
        return ok, reason

    # -- LOG ------------------------------------------------------------

    def _write_versions(self, txn: Transaction, keys) -> Dict[int, int]:
        versions = {}
        for k in keys:
            captured = txn.read_values.get(k)
            versions[k] = captured[1] if captured is not None else 0
        return versions

    def _phase_log(self, txn: Transaction, writes_by_shard):
        txn.status = TxnStatus.LOGGING
        evs = []
        for shard, writes in writes_by_shard.items():
            versions = self._write_versions(txn, writes)
            evs.append(
                self._launch(
                    self._replicate_shard(txn, shard, writes, versions),
                    name="log-shard",
                )
            )
        results = yield self.sim.all_of(evs)
        return all(results)

    def _replicate_shard(self, txn, shard: int, writes, versions):
        """Send LOG records for one shard's write set to all its backups;
        completes when every backup has acknowledged the durable append.

        ``writes``/``versions`` are shared (not copied) into the LOG
        requests: no handler mutates a request's dict fields, and pool
        recycling only reassigns them."""
        evs = []
        own = self.node.node_id
        for backup in self.cluster.backups_of(shard):
            if backup == own:
                # plain Request: consumed by the spawned generator itself
                # (no _respond to recycle it), so keep it off the pool
                req = Request(
                    LOG, txn.txn_id, shard, txn.coord_node,
                    write_values=writes, versions=versions,
                    value_bytes=txn.spec.write_bytes,
                )
                evs.append(
                    self._launch(self._log_core(req), name="log-local")
                )
            else:
                req = take_request(
                    LOG, txn.txn_id, shard, txn.coord_node,
                    write_values=writes, versions=versions,
                    value_bytes=txn.spec.write_bytes,
                )
                evs.append(self._send_request(backup, req))
        responses = yield from self._gather(evs, txn.txn_id)
        ok = True
        for r in responses:
            if not r.ok:
                ok = False
            recycle_response(r)
        return ok

    # -- COMMIT ------------------------------------------------------------

    def _phase_commit(self, txn: Transaction, writes_by_shard):
        txn.status = TxnStatus.COMMITTING
        own = self.node.node_id
        evs = []
        for shard, writes in writes_by_shard.items():
            primary = self.cluster.primary_node_id(shard)
            if primary == own:
                evs.append(
                    self._launch(
                        self._commit_local(txn, shard, writes),
                        name="commit-local",
                    )
                )
            else:
                evs.append(
                    self._send_request(
                        primary,
                        take_request(COMMIT, txn.txn_id, shard,
                                     txn.coord_node, write_values=writes,
                                     value_bytes=txn.spec.write_bytes),
                    )
                )
        for r in (yield from self._gather(evs, txn.txn_id)):
            # local commits (_commit_local) recycle their own response
            # and resolve to None
            if r is not None:
                recycle_response(r)

    def _commit_local(self, txn: Transaction, shard: int, writes):
        req = take_request(COMMIT, txn.txn_id, shard, txn.coord_node,
                           write_values=writes,
                           value_bytes=txn.spec.write_bytes)
        resp = yield from self._commit_core(req)
        recycle_request(req)
        recycle_response(resp)

    # -- abort cleanup ------------------------------------------------------------

    def _abort_cleanup(self, txn: Transaction):
        """Release locks acquired at primaries during EXECUTE.

        Remote releases are *awaited* requests, not fire-and-forget: a
        delayed oneway UNLOCK could land after a later attempt of the same
        transaction re-locked the key (same txn_id) and silently steal the
        fresh lock.  Waiting for the ack orders the release before the
        retry's next EXECUTE round."""
        evs = []
        for shard, keys in list(txn.locked.items()):
            if not keys:
                continue
            primary = self.cluster.primary_node_id(shard)
            if primary == self.node.node_id:
                self.node.index_for(shard).unlock_all(keys, txn.txn_id)
            else:
                req = take_request(UNLOCK, txn.txn_id, shard, txn.coord_node,
                                   write_keys=list(keys))
                evs.append(self._send_request(primary, req))
        if evs:
            for r in (yield from self._gather(evs, txn.txn_id)):
                recycle_response(r)
        txn.clear_locks()

    # ------------------------------------------------------------------
    # multi-hop OCC (§4.2.3, Figure 7b)
    # ------------------------------------------------------------------

    def _multihop_applicable(self, txn: Transaction, by_shard) -> bool:
        if not self.config.multihop_occ:
            return False
        spec = txn.spec
        if txn.read_only or not spec.ship_execution or not spec.single_round:
            return False
        local = self.node.node_id
        remote = [s for s in by_shard if s != local]
        # single remote shard, or local + one remote shard
        return len(remote) == 1

    def _multihop(self, txn: Transaction, by_shard):
        spec = txn.spec
        local = self.node.node_id
        remote = [s for s in by_shard if s != local][0]
        remote_primary = self.cluster.primary_node_id(remote)
        index = self.node.index
        self.stats.inc("multihop")

        local_rkeys, local_wkeys = by_shard.get(local, ((), ()))
        local_keys = list(dict.fromkeys(local_rkeys + local_wkeys))
        # Lock every local key (reads too: execution happens remotely, so
        # the lock stands in for validation) and gather local read values.
        yield from self.runtime.nic_compute(
            NIC_ADMIT_US + self.config.nic_per_key_us * len(local_keys),
            txn.txn_id,
        )
        if not index.lock_all(local_keys, txn.txn_id):
            self._notify_host(txn, False, "multihop-local-conflict")
            return
        pre_read = yield from self._fetch_many(local, local_rkeys, txn.txn_id)
        for k in local_wkeys:
            if k not in pre_read:
                pre_read[k] = (None, index.read_version(k))

        # The remote primary LOGs to the backups of the shards its logic
        # *writes*, acks redirected here.  Which shards those are is known
        # only from its response, and an ack can overtake the response:
        # collect them from now, fix the count when the response lands.
        ack_key = ("mh_log", txn.txn_id)
        fut_acks = self.runtime.pending.expect_count(ack_key)

        rkeys, wkeys = by_shard[remote]
        req = take_request(
            EXEC_SHIP, txn.txn_id, remote, txn.coord_node,
            read_keys=rkeys, write_keys=wkeys,
            spec=spec, pre_read=pre_read, reply_to=self.node.node_id,
        )
        t0 = self._t0()
        resp = yield self._send_request(remote_primary, req)
        self._attrib("wire", t0, txn.txn_id)
        if not resp.ok:
            self.runtime.pending.cancel(ack_key)
            index.unlock_all(local_keys, txn.txn_id)
            self._notify_host(txn, False, resp.reason or "multihop-remote-conflict")
            recycle_response(resp)
            return
        # take the write-value dict over (the response is recycled; its
        # fields are reassigned, never cleared in place)
        txn.write_values = resp.write_values
        recycle_response(resp)
        writes_by_shard = group_values(txn.write_values,
                                       self.cluster.shard_of)
        self.runtime.pending.set_count(ack_key, sum(
            len(self.cluster.backups_of(s)) for s in writes_by_shard))
        t0 = self._t0()
        acks = yield fut_acks
        self._attrib("wire", t0, txn.txn_id)
        ok = True
        for a in acks:
            if not a.ok:
                ok = False
            recycle_response(a)
        if not ok:
            # a backup failed the append: release and retry
            index.unlock_all(local_keys, txn.txn_id)
            # awaited so a delayed release can't outlive this attempt and
            # steal the lock from the retry (same txn_id re-locks)
            t0 = self._t0()
            uresp = yield self._send_request(
                remote_primary,
                take_request(UNLOCK, txn.txn_id, remote, txn.coord_node,
                             write_keys=rkeys + wkeys))
            self._attrib("wire", t0, txn.txn_id)
            recycle_response(uresp)
            self._notify_host(txn, False, "multihop-log-failed")
            return
        self._notify_host(txn, True, None)
        # commit the local shard writes, release local read locks
        local_writes = writes_by_shard.get(local)
        if local_writes:
            yield from self._commit_local(txn, local, local_writes)
        index.unlock_all(local_keys, txn.txn_id)
        # commit the remote shard (unlocks its read locks too; versions are
        # assigned by the primary from its own metadata)
        remote_writes = writes_by_shard.get(remote, {})
        req = take_request(COMMIT, txn.txn_id, remote, txn.coord_node,
                           write_values=remote_writes,
                           value_bytes=txn.spec.write_bytes)
        req.read_keys = [k for k in rkeys if k not in remote_writes]
        t0 = self._t0()
        cresp = yield self._send_request(remote_primary, req)
        self._attrib("wire", t0, txn.txn_id)
        recycle_response(cresp)

    def _handle_exec_ship(self, req: Request):
        """Remote-primary execution (P2 in Figure 7b).

        Write keys are locked; read-only keys are fetched optimistically
        and re-validated after the fetches complete (FaRM-style: lock,
        read, validate, then log), so reads never block other readers.
        Entered through ``_dispatch``, which has charged the message and
        per-key handling."""
        index = self.node.index_for(req.shard)
        if not index.lock_all(req.write_keys, req.txn_id):
            return take_response(EXEC_SHIP, req.txn_id, req.shard, False,
                                 reason="ship-lock-conflict")
        read_values = yield from self._fetch_many(req.shard, req.read_keys,
                                                  req.txn_id)
        # inline validation of unlocked reads (no yields below until the
        # LOGs are issued, so this is the serialization point)
        if not index.reads_current(_versions(read_values), req.txn_id,
                                   skip=req.write_keys):
            index.unlock_all(req.write_keys, req.txn_id)
            return take_response(EXEC_SHIP, req.txn_id, req.shard, False,
                                 reason="ship-validate")
        # merge coordinator-side pre-read values and run the logic here
        spec: TxnSpec = req.spec
        shadow = Transaction(req.txn_id, req.coord_node, spec)
        shadow.read_values.update(req.pre_read)
        shadow.read_values.update(read_values)
        t0 = self._t0()
        yield from self.node.nic.cores.run(spec.logic_cost_us)
        obs = self.obs
        if obs is not None:
            obs.attrib_span(
                "nic", self.node.node_id, t0, self.sim.now, req.txn_id,
                svc=self.node.nic.cores.service_us(spec.logic_cost_us))
        write_values = shadow.run_logic()
        self.stats.inc("shipped_executions")

        # issue LOG records for every involved shard's writes, acks
        # redirected to the coordinator NIC
        for shard, writes in group_values(write_values,
                                          self.cluster.shard_of).items():
            versions = {}
            for k in writes:
                if k in read_values:
                    versions[k] = read_values[k][1]
                elif k in req.pre_read:
                    versions[k] = req.pre_read[k][1]
                elif shard == req.shard:
                    versions[k] = index.read_version(k)
                else:
                    versions[k] = 0
            for backup in self.cluster.backups_of(shard):
                log_req = take_request(LOG, req.txn_id, shard, req.coord_node,
                                       write_values=writes,
                                       versions=versions,
                                       reply_to=req.reply_to,
                                       value_bytes=spec.write_bytes)
                if backup == self.node.node_id:
                    self._launch(self._log_core_redirect(log_req),
                                   name="mh-log-local")
                else:
                    self._send_oneway(backup, log_req)
        return take_response(EXEC_SHIP, req.txn_id, req.shard, True,
                             read_values=read_values,
                             write_values=write_values)

    def _log_core_redirect(self, req: Request):
        self._redirect_log_ack(req, (yield from self._log_core(req)))

    def _deliver_log_ack(self, target: int, txn_id: int, resp: Response) -> None:
        if target == self.node.node_id:
            self._resolve_mh_ack(txn_id, resp)
        else:
            msg = NetMessage(
                self.node.node_id, target, "log_ack",
                response_size(resp, self.cluster.value_size),
                ("log_ack", txn_id, resp),
                wire_id=self._next_wire_id(target),
            )
            self.node.nic.send(msg)

    def _resolve_mh_ack(self, txn_id: int, resp: Response) -> None:
        # keyed by transaction alone: the backup does not know the attempt
        # number, and an attempt collects all its acks before it can retry
        if not self.runtime.pending.resolve_one(("mh_log", txn_id), resp):
            self.stats.inc("stray_log_acks")

    # ------------------------------------------------------------------
    # server-side request handlers
    # ------------------------------------------------------------------

    def _execute_core(self, shard: int, txn_id: int, read_keys, write_keys,
                      validate_inline: bool = False):
        """EXECUTE at the primary NIC: lock write keys, fetch read values
        (NIC cache or DMA), return values + versions."""
        n_keys = len(read_keys) + len(write_keys)
        yield from self.runtime.nic_compute(
            self.config.nic_per_key_us * max(1, n_keys), txn_id
        )
        resp = yield from self._execute_rest(shard, txn_id, read_keys,
                                             write_keys, validate_inline)
        return resp

    def _execute_rest(self, shard: int, txn_id: int, read_keys, write_keys,
                      validate_inline: bool = False):
        """Post-charge half of EXECUTE (the fused dispatch enters here
        after its single combined core charge)."""
        index = self.node.index_for(shard)
        if not index.lock_all(write_keys, txn_id):
            self.stats.inc("lock_conflicts")
            return take_response(EXECUTE, txn_id, shard, False,
                                 reason="lock-conflict")
        read_values = yield from self._fetch_many(shard, read_keys, txn_id)
        if validate_inline and not index.reads_current(
                _versions(read_values), txn_id, skip=write_keys):
            index.unlock_all(write_keys, txn_id)
            return take_response(EXECUTE, txn_id, shard, False,
                                 reason="inline-validate")
        versions = {k: index.read_version(k) for k in write_keys}
        return take_response(EXECUTE, txn_id, shard, True,
                             read_values=read_values, versions=versions)

    def _fetch_many(self, shard: int, keys, txn_id: int):
        """Fetch ``keys`` at this (primary) NIC in parallel; returns
        ``key -> (value, version)``."""
        if len(keys) == 1:
            # single fetch: run inline in this frame — no Process spawn,
            # no start event, no completion event
            return {keys[0]: (yield from self._fetch_value(shard, keys[0],
                                                           txn_id))}
        if not keys:
            return {}
        fetched = yield self.sim.all_of([
            self._launch(self._fetch_value(shard, k, txn_id), name="fetch")
            for k in keys
        ])
        return dict(zip(keys, fetched))

    def _fetch_value(self, shard: int, key: int, txn_id=None):
        """Fetch one object's (value, version) at this (primary) NIC:
        cache hit from NIC DRAM, else DMA read(s) sized by the index hints.

        The value and its version are read in the same synchronous step
        *after* all waits complete, mirroring the NIC's atomic access to
        its own DRAM — otherwise a commit applying during the wait could
        pair a stale value with a fresh version."""
        index = self.node.index_for(shard)
        if index.cache_contains(key):
            yield self.node.nic.nic_dram_access()
            hit, value = index.cache_lookup(key)
            if hit:
                if value is TOMBSTONE:
                    value = None
                return value, index.read_version(key)
        cost = index.miss_cost(key)
        t0 = self._t0()
        yield self.runtime.dma_read(cost.first_read_bytes)
        if cost.second_read_bytes:
            yield self.runtime.dma_read(cost.second_read_bytes)
        if cost.extra_object_bytes:
            yield self.runtime.dma_read(cost.extra_object_bytes)
        if txn_id is not None:
            self._attrib("dma", t0, txn_id)
        # a commit may have landed while the DMA was in flight, in which
        # case the fresh value is pinned in the cache — prefer it
        hit, value = index.cache_lookup(key)
        if not hit:
            obj = self.node.tables[shard].get_object(key)
            value = obj.value if obj is not None else None
            index.install_cache(key, value)
        if value is TOMBSTONE:
            value = None
        return value, index.read_version(key)

    def _validate_core(self, shard: int, txn_id: int,
                       versions: Dict[int, int]):
        yield from self.runtime.nic_compute(
            self.config.nic_per_key_us * max(1, len(versions)), txn_id
        )
        return self._validate_sync(shard, txn_id, versions)

    def _validate_sync(self, shard: int, txn_id: int,
                       versions: Dict[int, int]) -> Response:
        """Post-charge half of VALIDATE — fully synchronous, so the fused
        dispatch runs it straight from its charge callback."""
        if self.node.index_for(shard).reads_current(versions.items(), txn_id):
            return take_response(VALIDATE, txn_id, shard, True)
        self.stats.inc("validate_conflicts")
        return take_response(VALIDATE, txn_id, shard, False,
                             reason="version-changed")

    def _dma_append(self, req: Request, n_writes: int):
        """The durable append of ``req``'s record: wait out a full host
        log (back-pressure), then DMA-write the record's bytes."""
        log = self.node.log
        if log.full:
            t0 = self._t0()
            while log.full:
                self.stats.inc("log_backpressure")
                yield self.sim.timeout(LOG_RETRY_US)
            self._attrib("log_wait", t0, req.txn_id)
        vb = req.value_bytes if req.value_bytes is not None \
            else self.cluster.value_size
        t0 = self._t0()
        yield self.runtime.dma_log_append(record_size_bytes(n_writes, vb))
        self._attrib("dma", t0, req.txn_id)

    def _log_core(self, req: Request):
        """LOG at a backup: durably append the record via DMA write."""
        writes = [
            (k, v, req.versions.get(k, 0) + 1) for k, v in req.write_values.items()
        ]
        record = LogRecord(req.txn_id, "log", req.shard, writes)
        # the DMA write IS the append: the record only becomes visible to
        # the host workers once the bytes land in host memory
        yield from self._dma_append(req, len(writes))
        self.node.append_log(record)
        return take_response(LOG, req.txn_id, req.shard, True)

    def _commit_core(self, req: Request):
        """COMMIT at the primary: append the commit record, refresh the
        cache, bump versions, release locks (§4.2 step 6).

        New versions are derived from the NIC's authoritative metadata
        (current version + 1); the write locks held since EXECUTE guarantee
        they match the versions the coordinator captured."""
        index = self.node.index_for(req.shard)
        writes = [
            (k, v, index.read_version(k) + 1)
            for k, v in req.write_values.items()
        ]
        record = LogRecord(req.txn_id, "commit", req.shard, writes)
        yield from self._dma_append(req, len(writes))
        # apply to the NIC cache (pinning) before the host can see the
        # record, so the unpin ack can never race ahead of the pin
        for k, v, _ver in writes:
            index.apply_commit(k, v)
        self.node.append_log(record)
        self.node.note_pending_commit(record)
        # a lock rebuilt/reassigned since EXECUTE (e.g. recovery resolved
        # this txn while the COMMIT was in flight) is not ours to release
        missed = len(writes) - index.unlock_all(req.write_values, req.txn_id)
        if missed:
            self.stats.inc("commit_unlock_mismatch", missed)
        # multi-hop: read keys locked during shipped execution release here
        index.unlock_all(req.read_keys, req.txn_id)
        return take_response(COMMIT, req.txn_id, req.shard, True)

    def _unlock_core(self, req: Request):
        yield from self.runtime.nic_compute(
            self.config.nic_per_key_us * max(1, len(req.write_keys)),
            req.txn_id,
        )
        return self._unlock_sync(req)

    def _unlock_sync(self, req: Request) -> Response:
        """Post-charge half of UNLOCK — fully synchronous."""
        self.node.index_for(req.shard).unlock_all(req.write_keys, req.txn_id)
        return take_response(UNLOCK, req.txn_id, req.shard, True)

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def _send_request(self, dst: int, req: Request):
        """Send a request; returns an event resolving to its Response.

        Open-coded ``PendingTable`` single-waiter fast path: request ids
        are plain per-node-unique ints (the response resolves in *this*
        node's table, so no node qualifier is needed), stored directly in
        ``_futures`` — int keys cannot collide with the tuple keys other
        subsystems use."""
        self._req_seq += 1
        rid = self._req_seq
        fut = self.sim.event(name="pending")
        self.runtime.pending._futures[rid] = fut
        msg = NetMessage(
            self.node.node_id, dst, req.kind,
            request_size(req, self.cluster.value_size),
            ("req", rid, req),
            wire_id=self._next_wire_id(dst),
        )
        self.node.nic.send(msg)
        self.stats.inc("requests_sent")
        return fut

    def _send_oneway(self, dst: int, req: Request) -> None:
        msg = NetMessage(
            self.node.node_id, dst, req.kind,
            request_size(req, self.cluster.value_size),
            ("oneway", req),
            wire_id=self._next_wire_id(dst),
        )
        self.node.nic.send(msg)

    def _next_wire_id(self, dst: int) -> int:
        seq = self._wire_seq
        seq[dst] = wire_id = seq[dst] + 1
        return wire_id

    def _on_wire(self, msg: NetMessage) -> None:
        wire_id = msg.wire_id
        if wire_id is not None:
            src = msg.src
            upto = self._wire_seen_upto
            if wire_id == upto[src] + 1 and not self._wire_seen_ahead[src]:
                upto[src] = wire_id  # in order, nothing parked: the norm
            elif self._wire_out_of_order(src, wire_id):
                self.stats.inc("dup_wire_dropped")
                return
        tag = msg.payload[0]
        if tag == "req":
            _tag, rid, req = msg.payload
            src = msg.src
            self._dispatch(
                req.kind, req,
                lambda req, resp: self._respond(src, rid, req, resp), "serve")
        elif tag == "resp":
            _tag, rid, resp = msg.payload
            self._charge_rx_then(self._resolve_response, rid, resp)
        elif tag == "oneway":
            # the only one-ways are multi-hop LOGs (_handle_exec_ship)
            req = msg.payload[1]
            self._dispatch(req.kind, req, self._redirect_log_ack, "oneway")
        elif tag == "log_ack":
            _tag, txn_id, resp = msg.payload
            self._charge_rx_then(self._resolve_mh_ack, txn_id, resp)
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown wire tag %r" % (tag,))

    def _wire_out_of_order(self, src: int, wire_id: int) -> bool:
        """Record a ``wire_id`` that did not simply extend ``src``'s
        contiguous prefix; True if it had already been delivered."""
        upto = self._wire_seen_upto
        ahead = self._wire_seen_ahead[src]
        if wire_id <= upto[src] or wire_id in ahead:
            return True
        ahead.add(wire_id)
        nxt = upto[src] + 1
        if nxt not in ahead and len(ahead) > WIRE_REORDER_WINDOW:
            # a window's worth of traffic has overtaken the gap: what it
            # waits for was dropped with a crashed node, not delayed
            nxt = min(ahead)
        # absorb the parked run that now extends the prefix, if any
        while nxt in ahead:
            ahead.remove(nxt)
            nxt += 1
        upto[src] = nxt - 1
        return False

    def _charge_rx_then(self, fn, a, b) -> None:
        """Charge one NIC core for inbound-message handling, then run
        ``fn(a, b)`` — the no-Process form of ``yield from
        handle_message_cost(0)`` followed by a synchronous action:
        one callback event instead of a spawned two-step generator
        (Process + start event + core-run machinery)."""
        cores = self.node.nic.cores
        walls = (self.runtime.msg_handle_us + self.runtime._stall_us(),)

        def then(_e):
            cores.pool.release()
            fn(a, b)

        end = cores.try_hold(walls)
        if end is not None:
            self.sim.call_at(end, then)
        else:
            cores.pool.acquire().add_callback(
                lambda _e: self.sim.call_at(cores.hold(walls), then))

    def _resolve_response(self, rid, resp: Response) -> None:
        fut = self.runtime.pending._futures.pop(rid, None)
        if fut is None:
            self.stats.inc("stray_responses")
        else:
            fut.succeed(resp)

    def _respond(self, src: int, rid, req: Request, resp: Response) -> None:
        msg = NetMessage(
            self.node.node_id, src, "resp",
            response_size(resp, self.cluster.value_size),
            ("resp", rid, resp),
            wire_id=self._next_wire_id(src),
        )
        self.node.nic.send(msg)
        # the request's single consumption point: any duplicate delivery
        # was already dropped by wire id before the payload is read
        recycle_request(req)

    # -- inbound dispatch -----------------------------------------------------
    #
    # The NIC runtime has one burst loop that takes every inbound message
    # to its handler (§4.3.2): ``_dispatch``.  Each message kind — the six
    # wire kinds and the two PCIe entries from the host — is one row of
    # ``_INBOUND``, ``(charges, args, core, rest, sync)`` over the protocol
    # ``p`` and the message ``m`` (a Request; a Transaction for PCIe
    # entries):
    #
    # * ``charges(p, m)`` — the handler's leading NIC-core charges in
    #   wall-µs: ``(msg, keys)`` where message handling and per-key index
    #   work are two back-to-back core jobs (EXECUTE / VALIDATE / UNLOCK),
    #   one element where the keys fold into the message charge;
    # * ``args(m)`` — the arguments ``core`` and ``rest`` both take;
    # * ``core`` — name of the generator method entered once the *first*
    #   charge is paid; it pays the second and produces the result.  None
    #   when there is no second charge (``rest`` is entered either way).
    #   These are the interposable ``*_core`` methods the coordinator also
    #   runs for its local shards, and the fast form names the server span
    #   it emits after them, so server spans cover remote and local,
    #   fast and contended forms alike;
    # * ``rest`` — name of the body entered once *all* charges are paid;
    # * ``sync`` — ``rest`` returns the result itself (it never waits)
    #   instead of being a generator.
    #
    # Methods are looked up on ``p`` at call time, so an Observer's
    # instance-level span wrappers are honoured.

    def _msg_then_keys(self, n_keys: int) -> Tuple[float, float]:
        return (self.runtime.msg_handle_us,
                self.config.nic_per_key_us * max(1, n_keys))

    def _msg_with_keys(self, n_keys: int) -> Tuple[float]:
        return (self.runtime.msg_handle_us
                + n_keys * self.config.nic_per_key_us,)

    _INBOUND = {
        EXECUTE: (
            lambda p, r: p._msg_then_keys(len(r.read_keys)
                                          + len(r.write_keys)),
            _execute_args, "_execute_core", "_execute_rest", False),
        VALIDATE: (
            lambda p, r: p._msg_then_keys(len(r.versions)),
            lambda r: (r.shard, r.txn_id, r.versions),
            "_validate_core", "_validate_sync", True),
        UNLOCK: (
            lambda p, r: p._msg_then_keys(len(r.write_keys)),
            _whole, "_unlock_core", "_unlock_sync", True),
        LOG: (
            lambda p, r: p._msg_with_keys(len(r.write_values)),
            _whole, None, "_log_core", False),
        COMMIT: (
            lambda p, r: p._msg_with_keys(len(r.write_values)),
            _whole, None, "_commit_core", False),
        EXEC_SHIP: (
            lambda p, r: p._msg_with_keys(
                len(dict.fromkeys(r.read_keys + r.write_keys))),
            _whole, None, "_handle_exec_ship", False),
        "local_commit": (
            lambda p, t: p._msg_with_keys(len(t.spec.all_keys())),
            _whole, None, "_nic_local_commit", False),
        "start": (
            lambda p, t: (NIC_ADMIT_US,),
            _whole, None, "_nic_coordinate", False),
    }

    def _dispatch(self, kind, msg, done, name: str) -> None:
        """Take one inbound message to its kind's handler and pass the
        handler's result to ``done(msg, result)``.

        Fast form, whenever a NIC core is free: the leading charges are
        held as ONE core occupancy ending in ONE callback event, which
        releases the core and enters the post-charge body — no Process,
        no start event, and for the synchronous bodies no generator at
        all.  The core is taken here, inside the delivery callback, and
        held across the split between two charges; ``CoreGroup.hold``
        keeps the timestamps and core accounting those of two jobs run
        back to back, and an observer gets their spans from them
        (``_log_hold``).  Under a fault plan that stalls NIC cores, each
        charge draws its stall once the core is taken.

        Contended form, when no core is free: one spawned generator, the
        same for every kind — start event, the first charge as its own
        core job (its stall drawn then), and ``core`` making the second
        one after the first completes, on a core it queues for again."""
        charges, args, core, rest, sync = self._INBOUND[kind]
        walls = charges(self, msg)
        cores = self.node.nic.cores
        if cores.pool.try_acquire():
            runtime = self.runtime
            if runtime.injector is not None:
                walls = tuple(w + runtime._stall_us() for w in walls)
            start = self.sim._now
            end = cores.hold(walls)

            def enter(_e):
                cores.pool.release()
                then = done if self.obs is None else self._log_hold(
                    walls, core, start, msg.txn_id, done)
                if sync:
                    then(msg, getattr(self, rest)(*args(msg)))
                else:
                    self.sim.start(self._handle(rest, args, msg, then),
                                   name=name)
            self.sim.call_at(end, enter)
            return
        self.stats.inc("stepwise_dispatches")
        self.sim.spawn(self._handle(core or rest, args, msg, done, walls[0]),
                       name=name)

    def _handle(self, body: str, args, msg, done,
                c1: Optional[float] = None):
        """Generator behind ``_dispatch``: the contended form's own first
        charge ``c1`` if given, then a kind's ``body``, then ``done``."""
        if c1 is not None:
            yield from self.runtime.nic_compute(c1, msg.txn_id)
        done(msg, (yield from getattr(self, body)(*args(msg))))

    def _log_hold(self, walls, core: Optional[str], start: float,
                  txn_id: int, done):
        """At the end of an observed fast-form hold taken at ``start``:
        log each charge's ``nic`` attribution span from the instants the
        hold computed and, for a two-charge kind, return ``done`` wrapped
        to log the ``server`` span from the c1|c2 split to the body's
        completion — what the contended form logs at its events there
        (``NicRuntime._attrib_run``, the Observer's ``core`` wrapper)."""
        obs, node, cores = self.obs, self.node.node_id, self.node.nic.cores
        edges = [start]
        for wall in walls:
            edges.append(edges[-1] + cores.service_us(wall / cores.slowdown))
            obs.attrib_span("nic", node, edges[-2], edges[-1], txn_id,
                            svc=wall)
        if core is None:
            return done
        split = edges[1]

        def spanned(msg, result):
            obs.span(core.lstrip("_"), "server", node, "nicrt", split,
                     self.sim._now - split, txn_id=txn_id)
            done(msg, result)
        return spanned

    def _redirect_log_ack(self, req: Request, resp: Response) -> None:
        """``done`` of a multi-hop LOG: the ack goes to the coordinator
        NIC (``reply_to``), not back to the shipping primary."""
        self._deliver_log_ack(req.reply_to, req.txn_id, resp)
        recycle_request(req)

    # -- PCIe handlers ------------------------------------------------------------

    def _on_pcie_nic(self, payload) -> None:
        tag = payload[0]
        if tag == "start":
            self._dispatch(tag, payload[1], _coordinator_reports, "nic-coord")
        elif tag == "local_commit":
            self._dispatch(tag, payload[1], _coordinator_reports, "nic-local")
        elif tag == "logic_resp":
            _tag, txn_id, attempt, round_no, result = payload
            self.runtime.pending.resolve(
                ("logic", txn_id, attempt, round_no), result)
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown pcie->nic tag %r" % (tag,))

    def _on_pcie_host(self, payload) -> None:
        tag = payload[0]
        if tag == "done":
            _tag, txn_id, attempt, ok, reason = payload
            if not self.host_pending.resolve(("done", txn_id, attempt),
                                             (ok, reason)):
                self.stats.inc("stray_done")
        elif tag == "logic_req":
            self._host_logic(payload[1], payload[2])
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown pcie->host tag %r" % (tag,))

    def _host_logic(self, txn: Transaction, round_no: int) -> None:
        """Run the transaction's logic on a host app core, then ship the
        result to the NIC.  A free core is held for the (known) cost and
        one callback event ends it; otherwise, and for zero-cost logic,
        the :meth:`CoreGroup.execute` job runs it with the continuation
        as its callback — the job's start entry, FIFO grant and single
        timeout are the contended and zero-cost instants."""
        cores = self.node.host_app_cores
        cost = txn.spec.logic_cost_us
        service = cores.service_us(cost)
        t0 = self._t0()

        def then(_e):
            self._attrib("host", t0, txn.txn_id)
            self._host_logic_done(txn, round_no)

        if service > 0 and cores.pool.try_acquire():
            def release_then(e):
                cores.pool.release()
                then(e)

            self.sim.call_at(cores.hold((service,)), release_then)
        else:
            cores.execute(cost)._cb0 = then

    def _host_logic_done(self, txn: Transaction, round_no: int) -> None:
        result = txn.run_logic()
        if isinstance(result, NeedMoreKeys):
            nbytes = 16 + 10 * (len(result.read_keys) + len(result.write_keys))
        else:
            nbytes = sum(10 + self._value_bytes(k) for k in result) + 16
        self.node.pcie.host_to_nic(
            nbytes, ("logic_resp", txn.txn_id, txn.attempts, round_no, result)
        )

    def _notify_host(self, txn: Transaction, ok: bool, reason: Optional[str]) -> None:
        if not ok:
            self.stats.inc("abort:%s" % reason)
        self.node.pcie.nic_to_host(
            DONE_MSG_BYTES, ("done", txn.txn_id, txn.attempts, ok, reason)
        )

    # -- helpers ------------------------------------------------------------

    def _value_bytes(self, key: int) -> int:
        return self.cluster.value_size
