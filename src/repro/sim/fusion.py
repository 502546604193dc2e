"""Delay fusion is the model, not an option: stepwise delay chains whose
length is known up front run as one callback event, a site takes its
contended form only when no core is free, and a fault plan's draws are
stages of the same chains — docs/PERFORMANCE.md, "Delay fusion".  This
reporter stays for the ``info`` block of result files."""

__all__ = ["selected_fusion"]


def selected_fusion() -> str:
    return "on"
