"""``REPRO_COMPILED`` leg selection: the optional compiled engine core.

The extension module :mod:`repro.sim._ckern` (hand-written CPython C
API; see ``setup.py``) reimplements the scheduler hot loop — event
dispatch, the riding push, ``Timeout``/``call_at``, process resume,
both :mod:`repro.sim.equeue` queues, and the ``Request``/``Response``
constructors behind the :mod:`repro.core.messages` free-lists — as a
line-for-line transliteration of the pure-Python code.  This module is
the switch:

* ``REPRO_COMPILED=auto`` (default): use the extension if importable,
  silently fall back to pure Python otherwise.
* ``REPRO_COMPILED=on``: require the extension; :class:`RuntimeError`
  if it is not importable.
* ``REPRO_COMPILED=off``: pure Python, even when the extension exists.

Selection is re-evaluated at every ``Simulator()`` construction
(:func:`ensure_leg`), which is what makes the same-process
``perf --ab-compiled`` harness possible: activation installs the
compiled methods on the pure-Python classes (via the extension's
``patches()`` map) and deactivation restores the saved originals.

The pure-Python classes remain the single source of truth for object
layout — the extension reads their ``__slots__`` offsets at bind time
and drives the same objects, so the legs cannot disagree structurally
and the golden digests (byte-identical simulated results) gate every
compiled × fusion × queue combination.
"""

import os
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_COMPILED",
    "COMPILED_KINDS",
    "selected_compiled",
    "compiled_available",
    "compiled_active",
    "active_kernel",
    "ensure_leg",
]

DEFAULT_COMPILED = "auto"
COMPILED_KINDS = ("auto", "on", "off")

_kern: Optional[Any] = None  # the imported extension module, if any
_import_failed = False
_bound = False
_active = False
# "Class.method" -> (owner class, method name, original function)
_ORIG: Dict[str, Tuple[type, str, Any]] = {}


def selected_compiled() -> str:
    """The ``REPRO_COMPILED`` leg a ``Simulator()`` built right now
    would request (before availability is considered); a value other
    than ``auto`` / ``on`` / ``off`` (any case) is a ``ValueError``,
    not the default."""
    kind = os.environ.get("REPRO_COMPILED", DEFAULT_COMPILED).lower()
    if kind not in COMPILED_KINDS:
        raise ValueError("REPRO_COMPILED=%r: expected one of %s"
                         % (kind, ", ".join(COMPILED_KINDS)))
    return kind


def compiled_available() -> bool:
    """True if the :mod:`repro.sim._ckern` extension is importable.
    The first failed import is cached — a build appearing mid-process
    is not picked up (the A/B harness relies on flip consistency)."""
    global _kern, _import_failed
    if _kern is not None:
        return True
    if _import_failed:
        return False
    try:
        from . import _ckern as mod
    except ImportError:
        _import_failed = True
        return False
    _kern = mod
    return True


def compiled_active() -> bool:
    """True while the compiled methods are installed."""
    return _active


def active_kernel() -> Optional[Any]:
    """The extension module when the compiled leg is active, else
    ``None`` (how :func:`repro.sim.equeue.make_queue` and
    ``Simulator.__init__`` pick their compiled counterparts)."""
    return _kern if _active else None


def ensure_leg() -> bool:
    """Align process state with ``REPRO_COMPILED`` and report whether
    the compiled leg is active.  Cheap when nothing changes (one env
    read and two flag checks); called per ``Simulator()``."""
    kind = selected_compiled()
    if kind == "off":
        _deactivate()
        return False
    if not compiled_available():
        if kind == "on":
            raise RuntimeError(
                "REPRO_COMPILED=on but repro.sim._ckern is not importable"
                " — build it with `python setup.py build_ext --inplace`"
                " (pure-Python fallback: REPRO_COMPILED=auto|off)")
        return False
    _activate()
    return True


def _activate() -> None:
    global _active, _bound
    if _active:
        return
    from . import core
    from ..core import messages

    assert _kern is not None
    if not _bound:
        _kern.bind(core, messages)  # raises RuntimeError on layout drift
        _bound = True
    owners = {
        "Event": core.Event,
        "Timeout": core.Timeout,
        "Process": core.Process,
        "Simulator": core.Simulator,
        "Request": messages.Request,
        "Response": messages.Response,
    }
    for key, fn in _kern.patches().items():
        cls_name, _, meth = key.partition(".")
        cls = owners[cls_name]
        if key not in _ORIG:
            _ORIG[key] = (cls, meth, cls.__dict__[meth])
        setattr(cls, meth, fn)
    _active = True


def _deactivate() -> None:
    global _active
    if not _active:
        return
    for cls, meth, orig in _ORIG.values():
        setattr(cls, meth, orig)
    _active = False
