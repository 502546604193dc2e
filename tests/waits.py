"""How a test process waits on a model call.

Every model call takes a continuation and builds no event, so a process
that waits on one builds the event it yields and passes its ``succeed``
as the call's ``then``."""

from repro.sim import Gather


def waited(sim, call, *args, **kwargs):
    """The event a process yields to wait on ``call(*args, then,
    **kwargs)``; it fires with the value the call reports."""
    ev = sim.event()
    call(*args, ev.succeed, **kwargs)
    return ev


def vector_waited(sim, engine, ops):
    """Submit ``ops`` to the DMA ``engine`` as one vector; the event
    fires once every op has landed, joined through one :class:`Gather`."""
    join = Gather()
    for op in ops:
        op.then = join.slot()
    engine.submit(ops)
    ev = sim.event()
    join.wait(ev.succeed)
    return ev
