"""The SmartNIC's handlers (§4.3) as callback chains.

Xenic's NIC runtime is a run-to-completion handler loop: a DMA
completion, a response or a core grant continues the handler that
waited on it.  Each handler here is a slotted :class:`_Handler` whose
stages are methods, one per event it waits on: one object per inbound
message, and one per coordinated attempt (:class:`_Coordination` runs
every phase), with a separate object only per fan-out branch (a
:class:`_Replicate` per shard, a :class:`_Fetch` per key, a participant
handler per local shard).  The inbound table (``_INBOUND``) maps each
message kind that reaches a NIC — the six wire kinds and the two PCIe
entries from the host — to its leading core charges and its handler.
:class:`~repro.core.protocol.XenicProtocol` owns the state they act on
(node, cluster, runtime, statistics) and dispatches the messages
(``_dispatch``).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Optional

from ..hw.params import LOG_RETRY_US, NIC_ADMIT_US, NIC_PER_KEY_US
from ..sim.core import Gather
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
)
from .txn import NeedMoreKeys, TOMBSTONE, Transaction, TxnSpec, TxnStatus

if TYPE_CHECKING:
    from .protocol import XenicProtocol


def _versions(read_values):
    """The ``(key, version)`` pairs of a ``key -> (value, version)`` map."""
    return ((k, vv[1]) for k, vv in read_values.items())


def _execute_core(p: XenicProtocol, shard: int, txn_id: int, read_keys,
                  write_keys, inline: bool, then) -> None:
    """EXECUTE on one of the coordinator's own shards from its per-key
    charge on, replying through ``then`` (a fan-out's gather slot)."""
    _Execute(p, shard, txn_id, read_keys, write_keys, inline,
             then)._core(p._per_key_us(len(read_keys) + len(write_keys)))


def _validate_core(p: XenicProtocol, shard: int, txn_id: int,
                   versions: Dict[int, int], then) -> None:
    """VALIDATE on one of the coordinator's own shards from its per-key
    charge on, replying through ``then`` (a fan-out's gather slot)."""
    _Validate(p, shard, txn_id, versions, then)._core(
        p._per_key_us(len(versions)))


class _Handler:
    """One NIC-side handler in flight: an inbound message's, an
    attempt's coordination, or one branch of a fan-out.

    Each stage is a method that runs where the handler's wait ends: the
    ``then`` of what it waits on (a core job, a DMA, a response), a
    fan-out's continuation, or the ``call_at`` / ``call_after`` entry of
    a fixed wait (a NIC DRAM access, a log retry) — so every push
    happens at the instant and in the same-instant order a generator
    yielding those waits would give it, without the generator, its
    resumes or a ``Process``.  A constructor only stores the arguments;
    the handler starts where its caller enters it — :meth:`_inbound`
    for an inbound message's charges, :meth:`_core` for a two-charge
    kind's per-key charge, else ``_body`` — and runs its first stage
    right there, in the caller's frame, with no start entry.  It ends
    by calling ``then(result)``: a parent handler's stage, a fan-out's
    :class:`~repro.sim.core.Gather` slot, or an inbound message's
    reply.

    A handler with a ``span`` logs it from ``t_span`` to its result
    (:meth:`_reply`): a ``server`` span at the primary or backup, a
    ``phase`` span at the coordinator, whose phases log their own.
    Handlers are freed by reference count (``repro.sim.collector``): no
    stage is a closure, and no handler keeps a reference to a join
    whose continuation leads back to it."""

    __slots__ = ("p", "txn_id", "then", "t0", "wall", "walls", "t_span",
                 "fetching")
    span: Optional[str] = None
    cat, track = "server", "nicrt"
    # a two-charge kind (EXECUTE, VALIDATE, UNLOCK): its span starts at
    # the per-key charge, not at the body
    keyed = False

    # -- an inbound message's leading charges ------------------------------

    def _inbound(self, walls) -> None:
        """The NIC runtime's burst loop (§4.3.2) taking one inbound
        message: its leading charges (``walls``), then ``_body``.

        Fast form, whenever a NIC core is free: the charges are held as
        ONE core occupancy ending in ONE ``call_at`` entry, which releases
        the core and enters the body.  The core is taken here, inside the
        delivery callback, and held across the split between two charges;
        ``CoreGroup.hold`` keeps the timestamps and core accounting those
        of jobs run back to back, and an observer gets their spans from
        them (:meth:`_log_hold`).  Under a fault plan that stalls NIC
        cores, each charge draws its stall once the core is taken.

        Contended form, when no core is free: the start entry a spawned
        handler pushed, then the message charge as its own core job (its
        stall drawn then), then for a two-charge kind :meth:`_core`,
        whose per-key charge queues for a core again — the core is
        released between the two charges.  That *is* the model under
        contention, not the fast form's hold-across."""
        p = self.p
        sim = p.sim
        cores = p.node.nic.cores
        self.t_span = None
        if cores.pool.try_acquire():
            runtime = p.runtime
            if runtime.injector is not None:
                walls = tuple(w + runtime._stall_us() for w in walls)
            self.walls = walls
            self.t0 = sim._now
            sim.call_at(cores.hold(walls), self._enter)
        else:
            p.stats.inc("stepwise_dispatches")
            self.walls = walls
            sim.call_at(sim._now, self._arrive)

    def _enter(self, _arg: None) -> None:
        p = self.p
        p.node.nic.cores.pool.release()
        if p.obs is not None:
            self._log_hold()
        self._body()

    def _log_hold(self) -> None:
        """Each held charge's ``nic`` span, and where a two-charge kind's
        span starts: the instants the hold computed."""
        p = self.p
        obs, node, cores = p.obs, p.node.node_id, p.node.nic.cores
        edges = [self.t0]
        for wall in self.walls:
            edges.append(edges[-1] + cores.service_us(wall / cores.slowdown))
            obs.attrib_span("nic", node, edges[-2], edges[-1], self.txn_id,
                            svc=wall)
        if self.keyed:
            self.t_span = edges[1]

    def _arrive(self, _arg: None) -> None:
        self._charge(self.walls[0], self._charged_msg)

    def _charged_msg(self, _arg: None) -> None:
        if self.p.obs is not None:
            self._log_charge()
        if self.keyed:
            self._core(self.walls[1])
        else:
            self._body()

    def _core(self, wall_us: float) -> None:
        """A two-charge kind from its per-key charge on — the contended
        form's second step, and the whole of it on the coordinator's own
        shards: the charge on a core it queues for, then ``_body``; its
        span starts here."""
        self.t_span = self.p.sim._now
        self._charge(wall_us, self._charged_keys)

    def _charged_keys(self, _arg: None) -> None:
        if self.p.obs is not None:
            self._log_charge()
        self._body()

    def _charge(self, wall_us: float, stage) -> None:
        """Charge one NIC core ``wall_us`` plus a stall drawn now, then
        ``stage``."""
        p = self.p
        self.t0 = p.sim._now
        self.wall = wall = wall_us + p.runtime._stall_us()
        p.node.nic.cores.run_wall_then(wall, stage)

    def _log_charge(self) -> None:
        """The charge's ``nic`` span: queueing + service, ``svc`` the
        service (stall included)."""
        p = self.p
        p.obs.attrib_span("nic", p.node.node_id, self.t0, p.sim._now,
                          self.txn_id, svc=self.wall)

    # -- the result ---------------------------------------------------------

    def _reply(self, result) -> None:
        p = self.p
        obs = p.obs
        if obs is not None and self.t_span is not None:
            t = self.t_span
            obs.span(self.span, self.cat, p.node.node_id, self.track, t,
                     p.sim._now - t, txn_id=self.txn_id)
        self.then(result)

    def _attrib(self, phase: str, t0: float) -> None:
        """An attribution span from ``t0`` to now (observed runs only)."""
        p = self.p
        p.obs.attrib_span(phase, p.node.node_id, t0, p.sim._now,
                          self.txn_id)

    # -- reads at this primary, fan-outs ------------------------------------

    def _fetch(self, shard: int, keys) -> None:
        """Fetch ``keys`` at this (primary) NIC in parallel, then
        ``self._fetched(key -> (value, version))``."""
        gather = Gather()
        for k in keys:
            _Fetch(self.p, shard, k, self.txn_id, gather.slot())
        self.fetching = keys
        gather.wait(self._fetched_all)

    def _fetched_all(self, pairs) -> None:
        self._fetched(dict(zip(self.fetching, pairs)))

    def _gather(self, gather: Gather) -> None:
        """Wait on one fan-out's join (remote responses and local
        handlers alike), then ``self._gathered(values in order)``.  The
        wait is attributed to ``wire``."""
        self.t0 = self.p.sim._now
        gather.wait(self._gathered_wire)

    def _gathered_wire(self, values) -> None:
        if self.p.obs is not None:
            self._attrib("wire", self.t0)
        self._gathered(values)


class _Fetch(_Handler):
    """Fetch one object at this (primary) NIC: a cache hit from NIC DRAM,
    else DMA read(s) sized by the index hints.  Starts at once; ``then``
    gets the pair ``(value, version)``.

    The value and its version are read in the same synchronous step
    *after* all waits complete, mirroring the NIC's atomic access to its
    own DRAM — otherwise a commit applying during the wait could pair a
    stale value with a fresh version."""

    __slots__ = ("index", "shard", "key", "cost")

    def __init__(self, p: XenicProtocol, shard: int, key: int, txn_id: int,
                 then):
        self.p = p
        self.txn_id = txn_id
        self.then = then
        self.shard = shard
        self.key = key
        self.index = index = p.node.index_for(shard)
        if index.cache_contains(key):
            p.node.nic.nic_dram_access(self._cached)
        else:
            self._miss()

    def _cached(self, _arg: None) -> None:
        hit, value = self.index.cache_lookup(self.key)
        if hit:
            self._found(value)
        else:
            self._miss()

    def _miss(self) -> None:
        p = self.p
        self.cost = cost = self.index.miss_cost(self.key)
        self.t0 = p.sim._now
        p.runtime.dma_read(cost.first_read_bytes, self._read_first)

    def _read_first(self, _arg: None) -> None:
        if self.cost.second_read_bytes:
            self.p.runtime.dma_read(self.cost.second_read_bytes,
                                    self._read_second)
        else:
            self._read_second(None)

    def _read_second(self, _arg: None) -> None:
        if self.cost.extra_object_bytes:
            self.p.runtime.dma_read(self.cost.extra_object_bytes, self._read)
        else:
            self._read(None)

    def _read(self, _arg: None) -> None:
        p = self.p
        if p.obs is not None:
            self._attrib("dma", self.t0)
        # a commit may have landed while the DMA was in flight, in which
        # case the fresh value is pinned in the cache — prefer it
        index, key = self.index, self.key
        hit, value = index.cache_lookup(key)
        if not hit:
            obj = p.node.tables[self.shard].get_object(key)
            value = obj.value if obj is not None else None
            index.install_cache(key, value)
        self._found(value)

    def _found(self, value) -> None:
        if value is TOMBSTONE:
            value = None
        self.then((value, self.index.read_version(self.key)))


# -- server side: the six wire kinds ------------------------------------------


class _Execute(_Handler):
    """EXECUTE at the primary NIC: lock the write keys, fetch the read
    values (NIC cache or DMA), validate them inline when asked; replies
    the Response."""

    __slots__ = ("shard", "read_keys", "write_keys", "inline", "index")
    span, keyed = "execute_core", True

    def __init__(self, p: XenicProtocol, shard: int, txn_id: int, read_keys,
                 write_keys, inline: bool, then):
        self.p = p
        self.txn_id = txn_id
        self.then = then
        self.shard = shard
        self.read_keys = read_keys
        self.write_keys = write_keys
        self.inline = inline

    def _body(self) -> None:
        p, txn_id = self.p, self.txn_id
        self.index = index = p.node.index_for(self.shard)
        if not index.lock_all(self.write_keys, txn_id):
            p.stats.inc("lock_conflicts")
            self._reply(Response(EXECUTE, txn_id, self.shard, False,
                                 reason="lock-conflict"))
            return
        self._fetch(self.shard, self.read_keys)

    def _fetched(self, read_values) -> None:
        index, txn_id, shard = self.index, self.txn_id, self.shard
        write_keys = self.write_keys
        if self.inline and not index.reads_current(
                _versions(read_values), txn_id, skip=write_keys):
            index.unlock_all(write_keys, txn_id)
            self._reply(Response(EXECUTE, txn_id, shard, False,
                                 reason="inline-validate"))
            return
        versions = {k: index.read_version(k) for k in write_keys}
        self._reply(Response(EXECUTE, txn_id, shard, True,
                             read_values=read_values,
                             versions=versions))


class _Validate(_Handler):
    """VALIDATE at the primary NIC: the read versions against the
    authoritative ones, synchronously."""

    __slots__ = ("shard", "versions")
    span, keyed = "validate_core", True

    def __init__(self, p: XenicProtocol, shard: int, txn_id: int,
                 versions: Dict[int, int], then):
        self.p = p
        self.txn_id = txn_id
        self.then = then
        self.shard = shard
        self.versions = versions

    def _body(self) -> None:
        p, txn_id, shard = self.p, self.txn_id, self.shard
        if p.node.index_for(shard).reads_current(self.versions.items(),
                                                 txn_id):
            self._reply(Response(VALIDATE, txn_id, shard, True))
            return
        p.stats.inc("validate_conflicts")
        self._reply(Response(VALIDATE, txn_id, shard, False,
                             reason="version-changed"))


class _Unlock(_Handler):
    """UNLOCK at the primary NIC: release what the transaction holds."""

    __slots__ = ("req",)
    span, keyed = "unlock_core", True

    def __init__(self, p: XenicProtocol, req: Request, then):
        self.p = p
        self.txn_id = req.txn_id
        self.then = then
        self.req = req

    def _body(self) -> None:
        req = self.req
        self.p.node.index_for(req.shard).unlock_all(req.write_keys,
                                                    req.txn_id)
        self._reply(Response(UNLOCK, req.txn_id, req.shard, True))


class _Append(_Handler):
    """A record's durable append to the host log, then ``_written``: wait
    out a full host log (back-pressure), reserve the record's space, then
    DMA-write the record's bytes.  The DMA write IS the append: the
    record only becomes visible to the host workers once the bytes land
    in host memory, into the space reserved for it, so an append that
    found room cannot find the log full when it lands."""

    __slots__ = ("req", "record")

    def __init__(self, p: XenicProtocol, req: Request, then):
        self.p = p
        self.txn_id = req.txn_id
        self.then = then
        self.req = req

    def _append(self, record: LogRecord) -> None:
        self.record = record
        p = self.p
        if p.node.log.full:
            self.t0 = p.sim._now
            self._wait_log(None)
        else:
            self._write()

    def _wait_log(self, _arg: None) -> None:
        p = self.p
        if p.node.log.full:
            p.stats.inc("log_backpressure")
            p.sim.call_after(LOG_RETRY_US, self._wait_log)
            return
        if p.obs is not None:
            self._attrib("log_wait", self.t0)
        self._write()

    def _write(self) -> None:
        p, req = self.p, self.req
        p.node.log.reserve()
        vb = req.value_bytes if req.value_bytes is not None \
            else p.cluster.value_size
        self.t0 = p.sim._now
        p.runtime.dma_log_append(
            record_size_bytes(len(self.record.writes), vb), self._written)


class _Log(_Append):
    """LOG at a backup: durably append the record."""

    __slots__ = ()
    span = "log_core"

    def _body(self) -> None:
        req = self.req
        self.t_span = self.p.sim._now
        writes = [(k, v, req.versions.get(k, 0) + 1)
                  for k, v in req.write_values.items()]
        self._append(LogRecord(req.txn_id, "log", req.shard, writes))

    def _written(self, _arg: None) -> None:
        p, req = self.p, self.req
        if p.obs is not None:
            self._attrib("dma", self.t0)
        p.node.append_log(self.record)
        self._reply(Response(LOG, req.txn_id, req.shard, True))


class _Commit(_Append):
    """COMMIT at the primary: append the commit record, refresh the
    cache, bump versions, release locks (§4.2 step 6).

    New versions are derived from the NIC's authoritative metadata
    (current version + 1); the write locks held since EXECUTE guarantee
    they match the versions the coordinator captured."""

    __slots__ = ("index",)
    span = "commit_core"

    def _body(self) -> None:
        p, req = self.p, self.req
        self.t_span = p.sim._now
        self.index = index = p.node.index_for(req.shard)
        writes = [(k, v, index.read_version(k) + 1)
                  for k, v in req.write_values.items()]
        self._append(LogRecord(req.txn_id, "commit", req.shard, writes))

    def _written(self, _arg: None) -> None:
        p, req, index, record = self.p, self.req, self.index, self.record
        if p.obs is not None:
            self._attrib("dma", self.t0)
        # apply to the NIC cache (pinning) before the host can see the
        # record, so the unpin ack can never race ahead of the pin
        for k, v, _ver in record.writes:
            index.apply_commit(k, v)
        p.node.append_log(record)
        p.node.note_pending_commit(record)
        # a lock rebuilt/reassigned since EXECUTE (e.g. recovery resolved
        # this txn while the COMMIT was in flight) is not ours to release
        missed = len(record.writes) - index.unlock_all(req.write_values,
                                                       req.txn_id)
        if missed:
            p.stats.inc("commit_unlock_mismatch", missed)
        # multi-hop: read keys locked during shipped execution release here
        index.unlock_all(req.read_keys, req.txn_id)
        self._reply(Response(COMMIT, req.txn_id, req.shard, True))


def _commit_request(txn: Transaction, shard: int, writes,
                    read_keys=None) -> Request:
    """The COMMIT of ``txn``'s ``writes`` on ``shard``: sent to a remote
    primary, or handed to a :class:`_Commit` on this NIC's own shard."""
    return Request(COMMIT, txn.txn_id, shard, txn.coord_node,
                   read_keys=read_keys, write_values=writes,
                   value_bytes=txn.spec.write_bytes)


class _ExecShip(_Handler):
    """Remote-primary execution (P2 in Figure 7b).

    Write keys are locked; read-only keys are fetched optimistically and
    re-validated after the fetches complete (FaRM-style: lock, read,
    validate, then log), so reads never block other readers."""

    __slots__ = ("req", "index", "read_values", "shadow")
    span = "handle_exec_ship"

    def __init__(self, p: XenicProtocol, req: Request, then):
        self.p = p
        self.txn_id = req.txn_id
        self.then = then
        self.req = req

    def _body(self) -> None:
        p, req = self.p, self.req
        self.t_span = p.sim._now
        self.index = index = p.node.index_for(req.shard)
        if not index.lock_all(req.write_keys, req.txn_id):
            self._reply(Response(EXEC_SHIP, req.txn_id, req.shard,
                                 False, reason="ship-lock-conflict"))
            return
        self._fetch(req.shard, req.read_keys)

    def _fetched(self, read_values) -> None:
        p, req, index = self.p, self.req, self.index
        # inline validation of the unlocked reads
        if not index.reads_current(_versions(read_values), req.txn_id,
                                   skip=req.write_keys):
            index.unlock_all(req.write_keys, req.txn_id)
            self._reply(Response(EXEC_SHIP, req.txn_id, req.shard,
                                 False, reason="ship-validate"))
            return
        # merge coordinator-side pre-read values and run the logic here
        spec: TxnSpec = req.spec
        shadow = Transaction(req.txn_id, req.coord_node, spec)
        shadow.read_values.update(req.pre_read)
        shadow.read_values.update(read_values)
        self.read_values = read_values
        self.shadow = shadow
        self.t0 = p.sim._now
        p.node.nic.cores.run_then(spec.logic_cost_us, self._ran)

    def _ran(self, _arg: None) -> None:
        p, req, read_values = self.p, self.req, self.read_values
        spec: TxnSpec = req.spec
        obs = p.obs
        if obs is not None:
            obs.attrib_span(
                "nic", p.node.node_id, self.t0, p.sim._now, req.txn_id,
                svc=p.node.nic.cores.service_us(spec.logic_cost_us))
        write_values = self.shadow.run_logic()
        p.stats.inc("shipped_executions")

        # issue LOG records for every involved shard's writes, acks
        # redirected to the coordinator NIC
        own = p.node.node_id
        for shard, writes in group_values(write_values,
                                          p.cluster.shard_of).items():
            versions = {}
            for k in writes:
                if k in read_values:
                    versions[k] = read_values[k][1]
                elif k in req.pre_read:
                    versions[k] = req.pre_read[k][1]
                elif shard == req.shard:
                    versions[k] = self.index.read_version(k)
                else:
                    versions[k] = 0
            log_req = Request(LOG, req.txn_id, shard, req.coord_node,
                              write_values=writes, versions=versions,
                              reply_to=req.reply_to,
                              value_bytes=spec.write_bytes)
            for backup in p.cluster.backups_of(shard):
                if backup == own:
                    _Log(p, log_req,
                         partial(p._redirect_log_ack, log_req))._body()
                else:
                    p._send_oneway(backup, log_req)
        self._reply(Response(EXEC_SHIP, req.txn_id, req.shard, True,
                             read_values=read_values,
                             write_values=write_values))


class _Replicate(_Handler):
    """Send LOG records for one shard's write set to all its backups;
    replies once every backup acknowledged the durable append (an append
    waits out a full log rather than fail).

    Every backup gets the same LOG request, which shares (does not copy)
    ``writes``/``versions``: a LOG handler reads its request and never
    mutates it."""

    __slots__ = ("txn", "shard", "writes", "versions")

    def __init__(self, p: XenicProtocol, txn: Transaction, shard: int,
                 writes, versions, then):
        self.p = p
        self.txn_id = txn.txn_id
        self.then = then
        self.txn = txn
        self.shard = shard
        self.writes = writes
        self.versions = versions

    def _body(self) -> None:
        p, txn, shard = self.p, self.txn, self.shard
        req = Request(LOG, txn.txn_id, shard, txn.coord_node,
                      write_values=self.writes, versions=self.versions,
                      value_bytes=txn.spec.write_bytes)
        gather = Gather()
        own = p.node.node_id
        for backup in p.cluster.backups_of(shard):
            if backup == own:
                _Log(p, req, gather.slot())._body()
            else:
                p._send_request(backup, req, gather.slot())
        self._gather(gather)

    def _gathered(self, _responses) -> None:
        self.then(None)


# -- coordinator side: the two PCIe entries ------------------------------------


class _LocalCommit(_Handler):
    """Coordinator-NIC side of a local write transaction (the
    ``local_commit`` entry): lock, validate against the authoritative NIC
    versions, replicate, commit."""

    __slots__ = ("txn",)
    span = "nic_local_commit"
    cat, track = "phase", "proto"

    def __init__(self, p: XenicProtocol, txn: Transaction, then):
        self.p = p
        self.txn_id = txn.txn_id
        self.then = then
        self.txn = txn

    def _body(self) -> None:
        p, txn = self.p, self.txn
        self.t_span = p.sim._now
        index = p.node.index
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
            p._notify_host(txn, False, "local-conflict")
            self._reply(None)
            return
        shard = p.node.node_id
        for k in writes:
            txn.record_lock(shard, k)
        versions = {k: index.read_version(k) for k in writes}
        _Replicate(p, txn, shard, writes, versions, self._replicated)._body()

    def _replicated(self, _arg: None) -> None:
        p, txn = self.p, self.txn
        p._notify_host(txn, True, None)
        _Commit(p, _commit_request(txn, p.node.node_id, txn.write_values),
                self._reply)._body()


class _Coordination(_Handler):
    """Coordinate one distributed attempt (the ``start`` entry): the
    multi-hop pattern where it applies, else EXECUTE — in rounds, for
    multi-shot logic — VALIDATE and LOG; then report to the host and
    COMMIT, or release the locks and report the abort.

    One object runs every phase of the attempt; each fan-out branch (a
    shard's EXECUTE or VALIDATE, a :class:`_Replicate`, a COMMIT) is its
    own handler or request.  A phase logs its ``phase`` span from
    ``t_phase`` to its result, and a fan-out's join continues at the
    stage its phase set in ``join`` before the wait: a plain function,
    so the object holds nothing that leads back to it."""

    __slots__ = ("txn", "by_shard", "executing", "first", "round_no",
                 "reason", "writes_by_shard", "t_phase", "join")
    span = "nic_coordinate"
    cat, track = "phase", "proto"

    def __init__(self, p: XenicProtocol, txn: Transaction, then):
        self.p = p
        self.txn_id = txn.txn_id
        self.then = then
        self.txn = txn

    def _body(self) -> None:
        p, txn = self.p, self.txn
        self.t_span = p.sim._now
        self.writes_by_shard = None
        spec = txn.spec
        by_shard = group_keys(spec.read_keys, spec.write_keys,
                              p.cluster.shard_of)
        shards = p._multihop_shards(txn, by_shard)
        if shards is not None:
            _Multihop(p, txn, by_shard, shards[0], shards[1],
                      self._reply)._body()
            return
        self.by_shard = by_shard
        self.round_no = -1
        self._execute(by_shard)

    def _gathered(self, values) -> None:
        self.join(self, values)

    def _phase_span(self, name: str) -> None:
        """The ``phase`` span ``name`` from ``t_phase`` to now."""
        p = self.p
        if p.obs is not None:
            t = self.t_phase
            p.obs.span(name, "phase", p.node.node_id, "proto", t,
                       p.sim._now - t, txn_id=self.txn_id)

    # -- EXECUTE, at every primary of one round's keys ----------------------

    def _execute(self, by_shard) -> None:
        p, txn = self.p, self.txn
        self.t_phase = p.sim._now
        txn.status = TxnStatus.EXECUTING
        self.executing = by_shard
        self.first = None
        gather = Gather()
        smart = p.config.smart_remote_ops
        own = p.node.node_id
        primary_of = p.cluster.primary_node_id
        inline = smart and len(by_shard) == 1 and txn.read_only
        for shard, (rkeys, wkeys) in by_shard.items():
            primary = primary_of(shard)
            if primary == own:
                # in the ablation baseline, local locks move to wave 2 too
                _execute_core(p, shard, txn.txn_id, rkeys,
                              wkeys if smart else [], inline, gather.slot())
            elif smart:
                req = Request(
                    EXECUTE, txn.txn_id, shard, txn.coord_node,
                    read_keys=rkeys, write_keys=wkeys,
                )
                if inline:
                    req.versions = {"inline": 1}  # flag: validate inline
                p._send_request(primary, req, gather.slot())
            else:
                # ablation baseline: per-key read requests now; per-key
                # lock requests follow in a second wave, mirroring the
                # one-sided read -> lock -> validate sequence (§5.7)
                for k in rkeys:
                    p._send_request(primary, Request(
                        EXECUTE, txn.txn_id, shard, txn.coord_node,
                        read_keys=[k]), gather.slot())
        self.join = _Coordination._execute_joined
        self._gather(gather)

    def _lock_wave(self, responses) -> bool:
        """Ablation baseline: the per-key lock requests of the round's
        keys, once the reads are in; False when there are none."""
        p, txn = self.p, self.txn
        own = p.node.node_id
        gather = Gather()
        for shard, (_rkeys, wkeys) in self.executing.items():
            primary = p.cluster.primary_node_id(shard)
            for k in wkeys:
                if primary == own:
                    _execute_core(p, shard, txn.txn_id, [], [k], False,
                                  gather.slot())
                else:
                    p._send_request(primary, Request(
                        EXECUTE, txn.txn_id, shard, txn.coord_node,
                        write_keys=[k]), gather.slot())
        if not gather.values:
            return False
        self.first = responses
        self._gather(gather)
        return True

    def _execute_joined(self, responses) -> None:
        p, txn = self.p, self.txn
        smart = p.config.smart_remote_ops
        if self.first is not None:
            responses = list(self.first) + list(responses)
        elif not smart and self._lock_wave(responses):
            return
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
        if ok and len(self.executing) == 1 and txn.read_only and smart:
            txn.status = TxnStatus.VALIDATING  # validated inline
        self._phase_span("phase_execute")
        # execution rounds: multi-shot logic may extend the key sets and
        # re-run until it produces the final write set (§4.2 step 3); a
        # later round's EXECUTE (round_no >= 0) always runs it again
        if ok and (self.round_no >= 0 or txn.spec.logic is not None
                   or not txn.read_only):
            self.round_no += 1
            self._run_logic()
        else:
            self._validate(ok, reason)

    # -- one execution round's logic ----------------------------------------

    def _run_logic(self) -> None:
        p, txn = self.p, self.txn
        self.t_phase = p.sim._now
        spec = txn.spec
        if p.config.nic_execution and spec.ship_execution:
            # execute on the coordinator-side NIC (§4.2.2): reference cost
            # scaled by the wimpy-core ratio
            self.t0 = p.sim._now
            p.node.nic.cores.run_then(spec.logic_cost_us, self._ran_on_nic)
            return
        # PCIe roundtrip to the host for application execution
        p.runtime.pending.expect(
            ("logic", txn.txn_id, txn.attempts, self.round_no),
            self._ran_on_host)
        read_bytes = sum(16 + p._value_bytes(k) for k in txn.read_values)
        p.node.pcie.nic_to_host(read_bytes,
                                ("logic_req", txn, self.round_no))

    def _ran_on_nic(self, _arg: None) -> None:
        p = self.p
        obs = p.obs
        if obs is not None:
            obs.attrib_span(
                "nic", p.node.node_id, self.t0, p.sim._now, self.txn_id,
                svc=p.node.nic.cores.service_us(self.txn.spec.logic_cost_us))
        p.stats.inc("nic_executions")
        self._logic_ran(self.txn.run_logic())

    def _ran_on_host(self, result) -> None:
        self.p.stats.inc("host_executions")
        self._logic_ran(result)

    def _logic_ran(self, result) -> None:
        """The round's result: a final write-value dict, or NeedMoreKeys
        for multi-shot logic, whose keys the next round EXECUTEs."""
        self._phase_span("run_logic")
        txn = self.txn
        if not isinstance(result, NeedMoreKeys):
            txn.write_values = result or {}
            self._validate(True, None)
            return
        p = self.p
        p.stats.inc("multi_shot_rounds")
        txn.add_keys(result)
        self._execute(group_keys(result.read_keys, result.write_keys,
                                 p.cluster.shard_of))

    # -- VALIDATE the read set at every primary -----------------------------

    def _validate(self, ok: bool, reason) -> None:
        if not ok:
            self._log(ok, reason)
            return
        p, txn = self.p, self.txn
        if txn.extra_read_keys or txn.extra_write_keys:
            # multi-shot rounds may have pulled in new shards; regroup.
            # (Single-shot transactions reuse the EXECUTE grouping: only
            # its shard count is consulted here, and the version checks
            # regroup from read_values.)
            self.by_shard = group_keys(txn.effective_read_keys(),
                                       txn.effective_write_keys(),
                                       p.cluster.shard_of)
        self.t_phase = p.sim._now
        txn.status = TxnStatus.VALIDATING
        write_set = set(txn.write_values) | set(txn.effective_write_keys())
        to_check = [k for k in txn.effective_read_keys()
                    if k not in write_set]
        smart = p.config.smart_remote_ops
        if not to_check or (smart and txn.read_only
                            and len(self.by_shard) == 1):
            # nothing to check, or validated inline during EXECUTE
            self._phase_span("phase_validate")
            self._log(True, None)
            return
        read_values = txn.read_values
        groups = group_values({k: read_values[k][1] for k in to_check},
                              p.cluster.shard_of)
        gather = Gather()
        for shard, versions in groups.items():
            primary = p.cluster.primary_node_id(shard)
            if primary == p.node.node_id:
                _validate_core(p, shard, txn.txn_id, versions, gather.slot())
            elif smart:
                p._send_request(primary, Request(
                    VALIDATE, txn.txn_id, shard, txn.coord_node,
                    versions=versions), gather.slot())
            else:
                for k, ver in versions.items():
                    p._send_request(primary, Request(
                        VALIDATE, txn.txn_id, shard, txn.coord_node,
                        versions={k: ver}), gather.slot())
        self.join = _Coordination._validate_joined
        self._gather(gather)

    def _validate_joined(self, responses) -> None:
        ok = True
        reason = None
        for resp in responses:
            if not resp.ok and ok:
                ok = False
                reason = resp.reason or "validate-abort"
        self._phase_span("phase_validate")
        self._log(ok, reason)

    # -- LOG every shard's writes at its backups ----------------------------

    def _log(self, ok: bool, reason) -> None:
        txn = self.txn
        if not ok or txn.read_only:
            self._decide(ok, reason)
            return
        p = self.p
        self.writes_by_shard = writes_by_shard = group_values(
            txn.write_values, p.cluster.shard_of)
        self.t_phase = p.sim._now
        txn.status = TxnStatus.LOGGING
        gather = Gather()
        for shard, writes in writes_by_shard.items():
            _Replicate(p, txn, shard, writes, p._write_versions(txn, writes),
                       gather.slot())._body()
        gather.wait(self._logged)

    def _logged(self, _acks) -> None:
        self._phase_span("phase_log")
        self._decide(True, None)

    # -- the decision: COMMIT at every primary, or the abort cleanup --------

    def _decide(self, ok: bool, reason) -> None:
        p, txn = self.p, self.txn
        if not ok:
            self.reason = reason
            self._abort()
            return
        # Committed: report to the host, then apply at the primaries.
        p._notify_host(txn, True, None)
        if self.writes_by_shard is None:
            self._reply(None)
            return
        self.t_phase = p.sim._now
        txn.status = TxnStatus.COMMITTING
        own = p.node.node_id
        gather = Gather()
        for shard, writes in self.writes_by_shard.items():
            primary = p.cluster.primary_node_id(shard)
            req = _commit_request(txn, shard, writes)
            if primary == own:
                _Commit(p, req, gather.slot())._body()
            else:
                p._send_request(primary, req, gather.slot())
        self.join = _Coordination._committed
        self._gather(gather)

    def _committed(self, _responses) -> None:
        self._phase_span("phase_commit")
        self._reply(None)

    def _abort(self) -> None:
        """Release the locks EXECUTE took at the primaries.

        Remote releases are *awaited* requests, not fire-and-forget: a
        delayed oneway UNLOCK could land after a later attempt of the
        same transaction re-locked the key (same txn_id) and silently
        steal the fresh lock.  Waiting for the ack orders the release
        before the retry's next EXECUTE round."""
        p, txn = self.p, self.txn
        gather = Gather()
        for shard, keys in list(txn.locked.items()):
            if not keys:
                continue
            primary = p.cluster.primary_node_id(shard)
            if primary == p.node.node_id:
                p.node.index_for(shard).unlock_all(keys, txn.txn_id)
            else:
                p._send_request(primary, Request(
                    UNLOCK, txn.txn_id, shard, txn.coord_node,
                    write_keys=list(keys)), gather.slot())
        if gather.values:
            self.join = _Coordination._cleaned
            self._gather(gather)
        else:
            self._cleaned(())

    def _cleaned(self, _responses) -> None:
        txn = self.txn
        txn.clear_locks()
        self.p._notify_host(txn, False, self.reason)
        self._reply(None)


class _Multihop(_Handler):
    """Multi-hop OCC (§4.2.3, Figure 7b) over one ``remote`` shard and
    this node's ``local`` one: lock and read the local keys, ship
    execution to the remote primary, which LOGs to the backups with the
    acks redirected here; then commit the local writes and the remote
    shard.  Replies None."""

    __slots__ = ("txn", "by_shard", "local", "remote", "remote_primary",
                 "index", "local_keys", "writes_by_shard")
    span = "multihop"
    cat, track = "phase", "proto"

    def __init__(self, p: XenicProtocol, txn: Transaction, by_shard,
                 local: int, remote: int, then):
        self.p = p
        self.txn_id = txn.txn_id
        self.then = then
        self.txn = txn
        self.by_shard = by_shard
        self.local = local
        self.remote = remote

    def _body(self) -> None:
        p, local = self.p, self.local
        self.t_span = p.sim._now
        self.remote_primary = p.cluster.primary_node_id(self.remote)
        self.index = p.node.index_for(local)
        p.stats.inc("multihop")
        local_rkeys, local_wkeys = self.by_shard.get(local, ((), ()))
        self.local_keys = local_keys = list(
            dict.fromkeys(local_rkeys + local_wkeys))
        # Lock every local key (reads too: execution happens remotely, so
        # the lock stands in for validation) and gather local read values.
        self._charge(NIC_ADMIT_US + NIC_PER_KEY_US * len(local_keys),
                     self._admitted)

    def _admitted(self, _arg: None) -> None:
        p = self.p
        if p.obs is not None:
            self._log_charge()
        if not self.index.lock_all(self.local_keys, self.txn_id):
            p._notify_host(self.txn, False, "multihop-local-conflict")
            self._reply(None)
            return
        self._fetch(self.local, self.by_shard.get(self.local, ((), ()))[0])

    def _fetched(self, pre_read) -> None:
        p, txn, index = self.p, self.txn, self.index
        for k in self.by_shard.get(self.local, ((), ()))[1]:
            if k not in pre_read:
                pre_read[k] = (None, index.read_version(k))
        txn.read_values.update(pre_read)
        # The remote primary LOGs to the backups of the shards its logic
        # *writes*, acks redirected here.  Which shards those are is known
        # only from its response, and an ack can overtake the response:
        # collect them from now, fix the count when the response lands.
        p.runtime.pending.expect_count(("mh_log", txn.txn_id), self._acked)
        rkeys, wkeys = self.by_shard[self.remote]
        req = Request(
            EXEC_SHIP, txn.txn_id, self.remote, txn.coord_node,
            read_keys=rkeys, write_keys=wkeys,
            spec=txn.spec, pre_read=pre_read, reply_to=p.node.node_id,
        )
        self.t0 = p.sim._now
        p._send_request(self.remote_primary, req, self._shipped)

    def _shipped(self, resp: Response) -> None:
        p, txn = self.p, self.txn
        if p.obs is not None:
            self._attrib("wire", self.t0)
        if not resp.ok:
            p.runtime.pending.cancel(("mh_log", txn.txn_id))
            self.index.unlock_all(self.local_keys, txn.txn_id)
            p._notify_host(txn, False,
                           resp.reason or "multihop-remote-conflict")
            self._reply(None)
            return
        txn.read_values.update(resp.read_values)
        txn.write_values = resp.write_values
        self.writes_by_shard = writes_by_shard = group_values(
            txn.write_values, p.cluster.shard_of)
        self.t0 = p.sim._now
        # every ack may be in already: then fixing the count runs
        # _acked right here
        p.runtime.pending.set_count(("mh_log", txn.txn_id), sum(
            len(p.cluster.backups_of(s)) for s in writes_by_shard))

    def _acked(self, _acks) -> None:
        p, txn = self.p, self.txn
        if p.obs is not None:
            self._attrib("wire", self.t0)
        p._notify_host(txn, True, None)
        # commit the local shard writes, release local read locks
        local_writes = self.writes_by_shard.get(self.local)
        if local_writes:
            _Commit(p, _commit_request(txn, self.local, local_writes),
                    self._committed_local)._body()
        else:
            self._committed_local(None)

    def _committed_local(self, _result) -> None:
        p, txn = self.p, self.txn
        self.index.unlock_all(self.local_keys, txn.txn_id)
        # commit the remote shard (unlocks its read locks too; versions are
        # assigned by the primary from its own metadata)
        remote_writes = self.writes_by_shard.get(self.remote, {})
        req = _commit_request(
            txn, self.remote, remote_writes,
            read_keys=[k for k in self.by_shard[self.remote][0]
                       if k not in remote_writes])
        self.t0 = p.sim._now
        p._send_request(self.remote_primary, req, self._committed)

    def _committed(self, _resp: Response) -> None:
        p = self.p
        if p.obs is not None:
            self._attrib("wire", self.t0)
        self._reply(None)


# The NIC runtime's inbound table (``XenicProtocol._dispatch``): one row
# per message kind — the six wire kinds and the two PCIe entries from the
# host — ``(charges, handler)`` over the protocol ``p`` and the message
# ``m`` (a Request; a Transaction for the PCIe entries):
#
# * ``charges(p, m)`` — the handler's leading NIC-core charges in wall-µs:
#   ``(msg, keys)`` where message handling and per-key index work are two
#   back-to-back core jobs (EXECUTE / VALIDATE / UNLOCK: the handler is
#   ``keyed``), one element where the keys fold into the message charge;
# * ``handler(p, m, then)`` — the :class:`_Handler` that runs once the
#   charges are paid and replies through ``then``.
_INBOUND = {
    EXECUTE: (
        lambda p, r: p._msg_then_keys(len(r.read_keys) + len(r.write_keys)),
        lambda p, r, then: _Execute(
            p, r.shard, r.txn_id, r.read_keys, r.write_keys,
            bool(r.versions.pop("inline", None)), then)),
    VALIDATE: (
        lambda p, r: p._msg_then_keys(len(r.versions)),
        lambda p, r, then: _Validate(p, r.shard, r.txn_id, r.versions,
                                     then)),
    UNLOCK: (lambda p, r: p._msg_then_keys(len(r.write_keys)), _Unlock),
    LOG: (lambda p, r: p._msg_with_keys(len(r.write_values)), _Log),
    COMMIT: (lambda p, r: p._msg_with_keys(len(r.write_values)), _Commit),
    EXEC_SHIP: (
        lambda p, r: p._msg_with_keys(
            len(dict.fromkeys(r.read_keys + r.write_keys))),
        _ExecShip),
    "local_commit": (
        lambda p, t: p._msg_with_keys(len(t.spec.all_keys())), _LocalCommit),
    "start": (lambda p, t: (NIC_ADMIT_US,), _Coordination),
}
