"""Fixed-width table and series printers for benchmark output."""

from __future__ import annotations

import contextlib
import io
import json
import math
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

__all__ = ["print_table", "print_curves", "format_table", "run_row",
           "diff_lines"]


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if math.isnan(cell):
            return "nan"
        if math.isinf(cell):
            return "inf" if cell > 0 else "-inf"
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return "%.0f" % cell
        if abs(cell) >= 10:
            return "%.1f" % cell
        return "%.2f" % cell
    return str(cell)


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    print()
    print("== %s ==" % title)
    print(format_table(headers, rows))


def print_curves(title: str, curves: Dict[str, List]) -> None:
    """Print throughput/latency curves: {system: [RunResult, ...]}."""
    print()
    print("== %s ==" % title)
    headers = ["system", "concurrency", "tput/server (txn/s)",
               "median lat (us)", "p99 (us)", "aborts"]
    rows = []
    for system, results in curves.items():
        for r in results:
            rows.append([system, r.concurrency,
                         "%.0f" % r.throughput_per_server,
                         r.median_latency_us, r.p99_latency_us, r.aborts])
    print(format_table(headers, rows))


def run_row(fn: Callable[..., Any]) -> Tuple[str, Any]:
    """Run one experiment entry point, ``fn(verbose=True)``, capturing
    the table it prints; returns ``(that text, its rows)``.  Lives in an
    importable module so a spawned worker can run it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rows = fn(verbose=True)
    return out.getvalue(), rows


_NONE = object()


def diff_lines(before: Any, after: Any, path: str = "",
               depth: Optional[int] = None) -> List[str]:
    """One ``path: before -> after`` line per value that differs between
    two JSON documents, descending ``depth`` levels (``None``: all) into
    objects and into lists of equal length; a key on one side only reads
    ``(none)`` on the other."""
    pairs = []
    if depth != 0 and type(before) is type(after) is dict:
        pairs = [("%s.%s" % (path, k) if path else k,
                  before.get(k, _NONE), after.get(k, _NONE))
                 for k in sorted(before.keys() | after.keys())]
    elif (depth != 0 and type(before) is type(after) is list
          and len(before) == len(after)):
        pairs = [("%s[%d]" % (path, i), a, b)
                 for i, (a, b) in enumerate(zip(before, after))]
    elif before is _NONE or after is _NONE or before != after:
        return ["%s: %s -> %s" % (path, _show(before), _show(after))]
    sub = None if depth is None else depth - 1
    return [line for p, a, b in pairs for line in diff_lines(a, b, p, sub)]


def _show(value: Any) -> str:
    return "(none)" if value is _NONE else json.dumps(value, sort_keys=True)
