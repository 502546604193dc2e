"""Compiled-engine leg (``REPRO_COMPILED``, PR 10).

Covers the selection contract (auto/on/off, invalid values, the
``on``-without-extension error), the same-process flip the
``perf --ab-compiled`` harness relies on, the compiled queue twins
behind ``make_queue``, and — most importantly — behavioural identity:
the compiled methods must produce the same simulated results, the same
exceptions, and the same counters as the pure-Python originals.

Everything guarded by ``needs_ckern`` is skipped when the extension is
not built (the pure-Python fallback leg); the selection tests run
everywhere.
"""

import pytest

from repro.sim import compiled
from repro.sim.compiled import (
    COMPILED_KINDS,
    compiled_active,
    compiled_available,
    ensure_leg,
    selected_compiled,
)
from repro.sim.core import (AnyOf, Event, SimulationError, Simulator,
                            Timeout)
from repro.sim.equeue import make_queue

needs_ckern = pytest.mark.skipif(
    not compiled_available(),
    reason="repro.sim._ckern extension not built")


@pytest.fixture
def leg(monkeypatch):
    """Set REPRO_COMPILED for the test; realign process state after
    (monkeypatch restores the env, ensure_leg applies it)."""

    def set_leg(kind):
        monkeypatch.setenv("REPRO_COMPILED", kind)

    yield set_leg
    monkeypatch.undo()
    try:
        ensure_leg()
    except RuntimeError:
        pass


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_selected_compiled_env(leg):
    for kind in COMPILED_KINDS:
        leg(kind)
        assert selected_compiled() == kind
    leg("ON")  # case-insensitive
    assert selected_compiled() == "on"
    leg("not-a-leg")  # fails loud, like REPRO_QUEUE / REPRO_FUSION
    with pytest.raises(ValueError, match="REPRO_COMPILED='not-a-leg'"):
        selected_compiled()
    with pytest.raises(ValueError, match="auto, on, off"):
        Simulator()


def test_off_leg_is_pure_python(leg):
    leg("off")
    sim = Simulator()
    assert not compiled_active()
    fired = []
    Timeout(sim, 1.0).add_callback(lambda _e: fired.append(sim.now))
    sim.run()
    assert fired == [1.0]


def test_on_without_extension_raises(leg):
    # Simulate a build-less environment regardless of whether the
    # extension actually exists here.
    leg("off")
    Simulator()  # deactivate first so state stays consistent
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiled, "_kern", None)
        mp.setattr(compiled, "_import_failed", True)
        mp.setenv("REPRO_COMPILED", "on")
        with pytest.raises(RuntimeError, match="REPRO_COMPILED=on"):
            ensure_leg()
        # auto degrades silently in the same situation.
        mp.setenv("REPRO_COMPILED", "auto")
        assert ensure_leg() is False


def test_fallback_import_is_clean(leg):
    # The selection module itself must never require the extension.
    leg("off")
    assert ensure_leg() is False
    assert compiled_active() is False


# ---------------------------------------------------------------------------
# the compiled leg proper
# ---------------------------------------------------------------------------


@needs_ckern
def test_on_leg_activates_and_flips_back(leg):
    leg("on")
    Simulator()
    assert compiled_active()
    leg("off")
    Simulator()  # construction re-reads the env and deactivates
    assert not compiled_active()
    leg("on")
    Simulator()
    assert compiled_active()


@needs_ckern
def test_make_queue_returns_compiled_twins(leg):
    leg("on")
    Simulator()
    heap, cal = make_queue("heap"), make_queue("calendar")
    assert heap.kind == "heap" and cal.kind == "calendar"
    assert type(heap).__module__ == "repro.sim._ckern"
    assert type(cal).__module__ == "repro.sim._ckern"


@needs_ckern
def test_compiled_error_semantics(leg):
    leg("on")
    sim = Simulator()
    e = Event(sim)
    e.succeed(1)
    with pytest.raises(SimulationError, match="already triggered"):
        e.succeed(2)
    with pytest.raises(ValueError, match="negative timeout delay"):
        Timeout(sim, -1.0)


@needs_ckern
def test_compiled_non_event_yield_fails_process(leg):
    leg("on")
    sim = Simulator()

    def bad():
        yield 42

    p = sim.spawn(bad())
    sim.run()
    assert p._ok is False
    assert isinstance(p._value, SimulationError)


# ---------------------------------------------------------------------------
# behavioural identity across legs
# ---------------------------------------------------------------------------


def _trace(queue_kind):
    """A small but busy workload: timeouts, AnyOf cancellation storms,
    process chaining, call_at — every compiled fast path fires."""
    sim = Simulator(queue=queue_kind)
    log = []

    def racer(tag):
        for i in range(40):
            got = yield AnyOf(sim, [Timeout(sim, 0.5 + i % 3, value="near"),
                                    Timeout(sim, 100.0 + i, value="far")])
            log.append((tag, sim.now, got[1]))

    def chained():
        for i in range(25):
            yield Timeout(sim, 1.5)
            log.append(("chain", sim.now, i))
        return "done"

    sim.spawn(racer("a"))
    sim.spawn(racer("b"))
    p = sim.spawn(chained())
    p.add_callback(lambda e: log.append(("end", sim.now, e._value)))
    for i in range(10):
        sim.call_at(3.0 + i, lambda _ev, i=i: log.append(("at", sim.now, i)))
    sim.run(until=37.5)
    sim.run()
    return log, sim.now, sim.events_scheduled


@needs_ckern
@pytest.mark.parametrize("queue_kind", ["heap", "calendar"])
def test_trace_identical_across_legs(leg, queue_kind):
    leg("off")
    off = _trace(queue_kind)
    leg("on")
    on = _trace(queue_kind)
    assert off == on


@needs_ckern
@pytest.mark.parametrize("fusion", ["off", "on"])
def test_trace_identical_across_legs_per_fusion(leg, monkeypatch, fusion):
    monkeypatch.setenv("REPRO_FUSION", fusion)
    leg("off")
    off = _trace("calendar")
    leg("on")
    on = _trace("calendar")
    assert off == on


@needs_ckern
def test_message_defaults_identical(leg):
    from repro.core import messages
    from repro.core.messages import Request, Response

    def probe():
        req = Request("read", 7, 3, 0, read_keys=[5], versions=None)
        resp = Response("read_ok", 7, 3, True, reason=None)
        # The None-default fields must land on the shared singletons
        # (identity, not just equality — the free-list reuse contract).
        assert req.write_keys is messages._EMPTY_LIST
        assert req.versions is messages._EMPTY_DICT
        assert resp.read_values is messages._EMPTY_DICT
        return ([getattr(req, s) for s in Request.__slots__],
                [getattr(resp, s) for s in Response.__slots__])

    leg("off")
    Simulator()
    off = probe()
    leg("on")
    Simulator()
    on = probe()
    assert off == on
