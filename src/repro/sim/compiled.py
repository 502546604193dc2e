"""There is no compiled engine core (removed in PR 19; the trade is in
docs/PERFORMANCE.md).  These reporters stay for the ``info`` block of
result files, whose readers expect the fields."""

__all__ = ["selected_compiled", "compiled_available"]


def selected_compiled() -> str:
    return "off"


def compiled_available() -> bool:
    return False
