"""Golden-digest determinism pins: one committed seed per experiment family.

These digests hash *every simulated metric* of a committed-seed run
(committed state, counters, latencies, simulated clock — never
wall-clock), and must never change under a wall-clock-only
optimization: if a change here fails, the "optimization" altered
simulated behaviour (RNG draw order, event interleaving, or protocol
logic) and must be fixed or reclassified as a modeling change (with an
explicit re-pin, ``python -m tests.pins``, and a note in EXPERIMENTS.md).

Observer neutrality rides on the same pins: the ``--obs`` variants must
produce the *same* digest as the bare runs.
"""

from .golden import canonical_digest, chaos_payload, golden_point
from .pins import pinned


def test_fig8d_point_digest_pinned():
    pinned("golden.c16.digest", canonical_digest(golden_point(16)[1]))


def test_fig8d_point_digest_observer_neutral():
    pinned("golden.c16.digest", canonical_digest(golden_point(16, obs=True)[1]))


def test_chaos_seed_digest_pinned():
    pinned("chaos.digest", canonical_digest(chaos_payload()))


def test_chaos_seed_digest_observer_neutral():
    pinned("chaos.digest", canonical_digest(chaos_payload(obs=True)))


def test_micro_benchmarks_digest_pinned():
    """The four hardware micro-benchmarks at reduced sizes (about 1 s in
    all).  Figure 2 feeds the benchmark's ``hw.ref_fig2_err_max``; the
    pin holds every number they report."""
    from repro.bench.experiments import (figure2_latency, figure3_batching,
                                         figure4_dma, offpath_comparison)
    payload = {
        "fig2": figure2_latency(),
        "fig3": figure3_batching(sizes=(16, 64, 256), ops_per_sender=250),
        "fig4": figure4_dma(sizes=(16, 64, 256), total_ops=1200),
        "offpath": offpath_comparison(),
    }
    pinned("micro.digest", canonical_digest(payload))
