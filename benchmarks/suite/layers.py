"""Host self-time per layer from a cProfile pass.

A layer is a package under ``src/repro/``.  Each profiled function's
``tottime`` goes to the layer of the file that defines it; the suite's
own files count as ``bench``.  Builtins and stdlib functions have no
layer of their own, so their self-time goes to the repo layer that
called them (the pstats caller table gives self-time per calling edge);
what is called from no repo function stays unattributed.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional, Tuple

import repro
from spec import LAYERS, SUITE_DIR

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_SUITE_DIR = SUITE_DIR + os.sep


def layer_of(filename: str) -> Optional[str]:
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        # repro/__init__.py and __main__.py are glue, like the runner
        return package if package in LAYERS else "bench"
    if filename.startswith(_SUITE_DIR):
        return "bench"
    return None


def stats_of(profile) -> Dict[Tuple, Tuple]:
    """The pstats table of a finished cProfile run:
    ``{(file, line, name): (cc, nc, tottime, cumtime, callers)}``."""
    return pstats.Stats(profile).stats


def bucket(stats) -> Dict[str, float]:
    """``{layer: self_s, ..., "unattributed": s, "total": s}``."""
    out = {layer: 0.0 for layer in LAYERS}
    out["unattributed"] = 0.0
    total = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        layer = layer_of(func[0])
        if layer is not None:
            out[layer] += tt
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            caller_layer = layer_of(caller[0])
            if caller_layer is not None:
                out[caller_layer] += edge[2]
                attributed += edge[2]
        out["unattributed"] += tt - attributed
    out["total"] = total
    return out


def cumulative_s(stats, function) -> float:
    """Cumulative seconds the profile saw inside ``function``."""
    code = function.__code__
    where = (code.co_filename, code.co_firstlineno)
    for func, entry in stats.items():
        if func[:2] == where:
            return entry[3]
    return 0.0
