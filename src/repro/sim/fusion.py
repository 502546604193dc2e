"""Delay fusion is the model, not an option: stepwise delay chains whose
length is known up front run as one callback event, and each fused site
falls back to its stepwise form from the traffic and the fault plan (no
free core, a fault kind that can fire at the site) — docs/PERFORMANCE.md,
"Delay fusion".  This reporter stays for the ``info`` block of result files."""

__all__ = ["selected_fusion"]


def selected_fusion() -> str:
    return "on"
