"""The OCC participant, written once (§2.2.1): the lock / validate /
release verbs behave the same on every lock holder — the NIC index Xenic
uses and the host tables the baselines use — and the retry driver is the
same on every system."""

import pytest

from repro.baselines import SYSTEMS, BaselineCluster
from repro.core import TxnSpec, XenicCluster
from repro.core.txn import abort_backoff_us
from repro.sim import Simulator
from repro.store import ChainedTable, NicIndex, RobinhoodTable, VersionedObject

A, B = 101, 202          # two transactions
MISSING = 9999           # a key no holder stores


class Holder:
    """One lock holder over keys 0..7 at version 0, plus the one thing
    the verbs do not cover: committing a write (to move a version)."""

    def __init__(self, kind):
        self.kind = kind
        if kind == "chained":
            self.table = ChainedTable(8)
        else:
            self.table = RobinhoodTable(64, dm=8, segment_size=8)
        for k in range(8):
            self.table.insert(k, VersionedObject(k, value=k, size=64))
        self.verbs = (NicIndex(self.table) if kind == "nic_index"
                      else self.table)

    def commit(self, key):
        if self.kind == "nic_index":
            self.verbs.apply_commit(key, "new")
        else:
            self.table.get_object(key).commit_write("new")

    def owner_is(self, key, txn_id):
        """``txn_id`` (None: nobody) holds ``key``, as the verbs see it."""
        probe = A + B
        if self.verbs.try_lock(key, probe):
            self.verbs.unlock_if_held(key, probe)
            return txn_id is None
        # held by someone: by ``txn_id`` iff it can re-enter
        return txn_id is not None and self.verbs.try_lock(key, txn_id)


KINDS = ["nic_index", "robinhood", "chained"]


@pytest.fixture(params=KINDS)
def holder(request):
    return Holder(request.param)


def test_lock_all_is_all_or_nothing_and_reentrant(holder):
    verbs = holder.verbs
    assert verbs.try_lock(3, B)
    # a conflict on the third key leaves none of the first two held
    assert not verbs.lock_all([1, 2, 3, 4], A)
    for k in (1, 2, 4):
        assert holder.owner_is(k, None)
    assert holder.owner_is(3, B)
    verbs.unlock_if_held(3, B)
    assert verbs.lock_all([1, 2, 3], A)
    assert verbs.lock_all([2, 3, 4], A)          # re-entrant for A
    assert not verbs.lock_all([5, 1], B)
    assert holder.owner_is(5, None)
    assert verbs.unlock_all([1, 2, 3, 4], A) == 4
    assert verbs.unlock_all([1, 2, 3, 4], A) == 0


# (case, set-up on key 1, pairs to validate for A, skip, verdict) — the
# verdict on a key the holder does not store is the one place the two
# differ: the NIC index fronts the transactional insert path and sees it
# unlocked at version 0, a host table cannot validate what it lacks.
CURRENT = [
    ("unlocked, same version", None, [(1, 0)], (), True),
    ("locked by self", ("lock", A), [(1, 0)], (), True),
    ("locked by other", ("lock", B), [(1, 0)], (), False),
    ("version moved", ("commit", None), [(1, 0)], (), False),
    ("one stale pair among current ones", ("commit", None),
     [(2, 0), (1, 0), (3, 0)], (), False),
    ("missing key", None, [(MISSING, 0)], (),
     {"nic_index": True, "robinhood": False, "chained": False}),
    ("locked key in skip", ("lock", B), [(1, 0), (2, 0)], [1], True),
    ("stale key in skip", ("commit", None), [(1, 0)], {1: "w"}, True),
]


@pytest.mark.parametrize("case", CURRENT, ids=[c[0] for c in CURRENT])
def test_reads_current_verdicts(holder, case):
    _name, setup, pairs, skip, verdict = case
    if setup is not None:
        op, txn_id = setup
        if op == "lock":
            assert holder.verbs.try_lock(1, txn_id)
        else:
            holder.commit(1)
    if isinstance(verdict, dict):
        verdict = verdict[holder.kind]
    assert holder.verbs.reads_current(iter(pairs), A, skip=skip) is verdict


def test_release_leaves_a_lock_recovery_reassigned(holder):
    """A late release by the old owner (an abort or COMMIT that raced a
    recovery resolving the transaction) must not free the new owner."""
    verbs = holder.verbs
    assert verbs.lock_all([1, 2], A)
    # recovery resolves A and hands key 1 to B
    assert verbs.unlock_if_held(1, A) and verbs.try_lock(1, B)
    assert not verbs.unlock_if_held(1, A)
    assert verbs.unlock_all([1, 2, MISSING], A) == 1
    assert holder.owner_is(1, B) and holder.owner_is(2, None)


def _cluster(system):
    sim = Simulator()
    if system == "xenic":
        return sim, XenicCluster(sim, 2, keys_per_shard=64)
    return sim, BaselineCluster(sim, 2, SYSTEMS[system], keys_per_shard=64)


def test_backoff_helper_is_linear_then_capped():
    assert [abort_backoff_us(n) for n in (1, 16, 40)] == [1.5, 24.0, 24.0]


@pytest.mark.parametrize("system", ["xenic"] + sorted(SYSTEMS))
def test_every_system_retries_on_the_shared_schedule(system):
    """One driver: an attempt that aborts 40 times waits
    ``abort_backoff_us`` before each retry and reports each abort once,
    whichever system coordinates."""
    sim, cluster = _cluster(system)
    coord = cluster.protocols[0]
    aborted = []
    coord.on_abort = lambda txn: aborted.append((txn.attempts, sim.now))

    def attempt(txn, then):
        then(txn.attempts > 40)

    coord._attempt = attempt
    txn = sim.run_until_event(
        sim.spawn(coord.run_transaction(TxnSpec([0], [0]))), limit=1e6)
    waits, now = [], 0.0
    for n in range(1, 41):
        waits.append((n, now))
        now += abort_backoff_us(n + 1)
    assert aborted == waits
    assert (txn.attempts, txn.committed_at) == (41, now)
    assert (coord.stats.get("aborts"), coord.stats.get("commits")) == (40, 1)
