"""The engine's event queue is a binary heap kept on the ``Simulator``
itself (``repro.sim.core``; docs/PERFORMANCE.md, "The event queue").
This reporter stays for the ``info`` block of result files."""

__all__ = ["selected_queue_kind"]


def selected_queue_kind() -> str:
    return "heap"
