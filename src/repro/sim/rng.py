"""Deterministic random streams and workload-distribution samplers.

Every simulation component takes an explicit :class:`RngStream` so runs are
exactly reproducible and independent components draw from independent
streams (split by name from a root seed).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence

# The interpreter's built-in SHA-256, as random.py takes its SHA-512:
# hashlib would map OpenSSL into every run only to seed its streams.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.9-3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["RngStream", "ZipfGenerator", "HotspotGenerator"]


class RngStream:
    """A named, seeded random stream.

    Child streams derive their seed from the parent seed and the child
    name, so adding a new consumer never perturbs existing ones.
    """

    def __init__(self, seed: int, name: str = "root"):
        self.seed = seed
        self.name = name
        self._rng = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = sha256(("%d/%s" % (seed, name)).encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def split(self, name: str) -> "RngStream":
        return RngStream(self._derive(self.seed, self.name + "/" + name), name)

    # Thin pass-throughs -------------------------------------------------

    def random(self) -> float:
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def randrange(self, n: int) -> int:
        return self._rng.randrange(n)

    def sample(self, seq: Sequence, k: int) -> List:
        return self._rng.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)


class ZipfGenerator:
    """O(1) Zipf(alpha) sampler over {0, .., n-1} by rejection inversion.

    Implements Hörmann's rejection-inversion method (the same approach used
    by YCSB-style generators), which needs no O(n) precomputation and so
    scales to the multi-million-key Retwis and Smallbank keyspaces.

    For ``alpha == 0`` this degenerates to a uniform generator.
    """

    def __init__(self, n: int, alpha: float, rng: RngStream):
        if n < 1:
            raise ValueError("n must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.n = n
        self.alpha = alpha
        self.rng = rng
        # Bound methods of the underlying random.Random: one frame per
        # draw instead of two.  Draw sequence is identical to going
        # through the RngStream pass-throughs.
        self._random = rng._rng.random
        self._randrange = rng._rng.randrange
        if alpha > 0:
            self._q = alpha
            self._h_x1 = self._h(1.5) - 1.0
            self._h_n = self._h(n + 0.5)
            self._s = 2.0 - self._h_inv(self._h(2.5) - self._pow(2.0))

    # H(x) = integral of x^-q; closed forms split on q == 1.
    def _h(self, x: float) -> float:
        if self._q == 1.0:
            return math.log(x)
        return (x ** (1.0 - self._q) - 1.0) / (1.0 - self._q)

    def _h_inv(self, x: float) -> float:
        if self._q == 1.0:
            return math.exp(x)
        return (1.0 + x * (1.0 - self._q)) ** (1.0 / (1.0 - self._q))

    def _pow(self, x: float) -> float:
        return x ** -self._q

    def next(self) -> int:
        """Draw a rank in [0, n); rank 0 is the most popular key."""
        if self.alpha == 0:
            return self._randrange(self.n)
        # Hot loop: every transaction draws 1-10 ranks.  Hoist the
        # precomputed constants and bound methods into locals; the
        # rejection test usually passes on the first draw.
        rand = self._random
        h_n = self._h_n
        span = self._h_x1 - h_n
        s = self._s
        n = self.n
        floor = math.floor
        h = self._h
        h_inv = self._h_inv
        powq = self._pow
        while True:
            u = h_n + rand() * span
            x = h_inv(u)
            k = floor(x + 0.5)
            if k < 1:
                k = 1
            elif k > n:
                k = n
            if k - x <= s or u >= h(k + 0.5) - powq(k):
                return int(k) - 1


class HotspotGenerator:
    """Smallbank-style hotspot: ``hot_fraction_ops`` of draws fall uniformly
    in the first ``hot_fraction_keys`` of the keyspace (e.g. 90% of accesses
    to 4% of accounts)."""

    def __init__(
        self,
        n: int,
        hot_fraction_keys: float,
        hot_fraction_ops: float,
        rng: RngStream,
    ):
        if not 0.0 < hot_fraction_keys <= 1.0:
            raise ValueError("hot_fraction_keys must be in (0, 1]")
        if not 0.0 <= hot_fraction_ops <= 1.0:
            raise ValueError("hot_fraction_ops must be in [0, 1]")
        self.n = n
        self.hot_n = max(1, int(n * hot_fraction_keys))
        self.hot_fraction_ops = hot_fraction_ops
        self.rng = rng
        # Bound methods of the underlying random.Random (draw-identical
        # to the RngStream pass-throughs, one frame cheaper per draw).
        self._random = rng._rng.random
        self._randrange = rng._rng.randrange

    def next(self) -> int:
        if self._random() < self.hot_fraction_ops:
            return self._randrange(self.hot_n)
        if self.hot_n >= self.n:
            return self._randrange(self.n)
        return self.hot_n + self._randrange(self.n - self.hot_n)
