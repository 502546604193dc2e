"""Workload interface shared by the benchmark suites.

A workload owns the keyspace layout (including the key→shard partition),
loads the initial database into a cluster, and generates :class:`TxnSpec`s
for coordinator threads.  The same workload object drives Xenic and every
baseline, which is what makes the Figure 8 comparisons apples-to-apples.

Scale note: the paper's full datasets (e.g. 2.4 M Smallbank accounts per
server) are larger than a pure-Python table can hold comfortably; every
workload takes a ``scale`` knob and defaults to a reduced keyspace.  The
access *distributions* (Zipf exponents, hotspot fractions, remote-access
probabilities, keys per transaction) are kept exactly as specified, so
contention and communication patterns are preserved.
"""

from __future__ import annotations

import abc
from typing import Iterable

from ..core.txn import TxnSpec
from ..sim.rng import RngStream

__all__ = ["Workload", "SHARD_STRIDE", "make_key", "shard_of_key"]

# Keys are laid out as shard * SHARD_STRIDE + local_index, so the partition
# function is a shift and any shard can hold up to 4M keys.
SHARD_STRIDE = 1 << 22


def make_key(shard: int, local_index: int) -> int:
    if not 0 <= local_index < SHARD_STRIDE:
        raise ValueError("local index out of range: %d" % local_index)
    return shard * SHARD_STRIDE + local_index


def shard_of_key(key: int) -> int:
    return key // SHARD_STRIDE


class Workload(abc.ABC):
    """Base class for benchmark workloads."""

    name = "workload"
    value_size = 64  # representative object size for message accounting
    # Table 3-style provisioning hints: how many host threads each system
    # needs for this workload (Xenic splits app/worker; baselines pool).
    xenic_app_threads = 2
    xenic_worker_threads = 3
    baseline_host_threads = 16
    # warm Xenic's NIC caches before the run (``Bench``)
    prewarm = True

    def __init__(self, n_nodes: int, seed: int = 1):
        self.n_nodes = n_nodes
        self.rng = RngStream(seed, self.name)

    # -- cluster construction ----------------------------------------------

    def partition(self, key: int) -> int:
        return shard_of_key(key)

    @abc.abstractmethod
    def keys_per_shard(self) -> int:
        """Upper bound on keys stored per shard (sizes the hash tables)."""

    @abc.abstractmethod
    def load(self, cluster) -> None:
        """Populate the cluster's replicated stores."""

    # -- transaction generation ----------------------------------------------

    @abc.abstractmethod
    def next_spec(self, rng: RngStream, node_id: int) -> TxnSpec:
        """Generate the next transaction for a coordinator on ``node_id``."""

    def generator_for(self, node_id: int, stream: str) -> "SpecStream":
        return SpecStream(self, node_id, self.rng.split("%s/%d" % (stream, node_id)))


class SpecStream:
    """Per-coordinator-context stream of transaction specs."""

    def __init__(self, workload: Workload, node_id: int, rng: RngStream):
        self.workload = workload
        self.node_id = node_id
        self.rng = rng

    def next(self) -> TxnSpec:
        return self.workload.next_spec(self.rng, self.node_id)

    def __iter__(self) -> Iterable[TxnSpec]:
        while True:
            yield self.next()
