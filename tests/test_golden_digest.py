"""Golden-digest determinism pins: one committed seed per experiment family.

These digests hash *every simulated metric* of a committed-seed run
(committed state, counters, latencies, simulated clock — never
wall-clock).  They were captured before the model-layer fast-path pass
and must never change under a wall-clock-only optimization: if a change
here fails, the "optimization" altered simulated behaviour (RNG draw
order, event interleaving, or protocol logic) and must be fixed or
reclassified as a modeling change (with an explicit digest re-pin and a
note in EXPERIMENTS.md).

Observer neutrality rides on the same pins: the ``--obs`` variants must
produce the *same* digest as the bare runs.
"""

from repro.bench.golden import (
    canonical_digest,
    chaos_payload,
    fig8d_point_payload,
)

# Captured from the pre-optimization model layer (PR 4 tree); simulated
# results are frozen at these values for the committed seeds.
FIG8D_DIGEST = "4829497d19fcb834dabcd8f6df4f856c1e012a07f14171c651dcb765841ed7af"
CHAOS_DIGEST = "261dcd150aeaee14626773601d2b4aeead9bfe1633c1491f43acf2137d30cfe1"


def test_fig8d_point_digest_pinned():
    assert canonical_digest(fig8d_point_payload()) == FIG8D_DIGEST


def test_fig8d_point_digest_observer_neutral():
    assert canonical_digest(fig8d_point_payload(obs=True)) == FIG8D_DIGEST


def test_chaos_seed_digest_pinned():
    assert canonical_digest(chaos_payload()) == CHAOS_DIGEST


def test_chaos_seed_digest_observer_neutral():
    assert canonical_digest(chaos_payload(obs=True)) == CHAOS_DIGEST


# The four hardware micro-benchmarks at reduced sizes (about 1 s in all).
# Figure 2 feeds the benchmark's ``hw.ref_fig2_err_max``; the pin holds
# every number they report.
MICRO_DIGEST = "9b0cd34d39d99b93943b97797f5b91585ec5e615da9cfd54266bcd3960dffed8"


def test_micro_benchmarks_digest_pinned():
    from repro.bench.experiments import (figure2_latency, figure3_batching,
                                         figure4_dma, offpath_comparison)
    payload = {
        "fig2": figure2_latency(),
        "fig3": figure3_batching(sizes=(16, 64, 256), ops_per_sender=250),
        "fig4": figure4_dma(sizes=(16, 64, 256), total_ops=1200),
        "offpath": offpath_comparison(),
    }
    assert canonical_digest(payload) == MICRO_DIGEST
