"""Every exact pin of the suite, read from ``tests/pins.json``.

A test calls ``pinned(name, got)``: ``got``, in its JSON form, must
equal the file's value for ``name`` exactly.  A bound is not a pin and
stays a literal in its test.  ``PYTHONPATH=src python -m tests.pins``
re-takes every pin: it runs tier-1 in this process with each ``pinned``
call recording instead of comparing, and writes nothing if a name is
recorded with two values or a name is in the record or the file but not
both; otherwise it rewrites the file and prints ``name: before ->
after`` per moved pin (docs/PERFORMANCE.md, "Digest-gated
optimization").
"""

import json
import pathlib
import sys

from repro.bench.report import diff_lines

PIN_FILE = pathlib.Path(__file__).with_name("pins.json")
PINS = json.loads(PIN_FILE.read_text())
# name -> the distinct values recorded for it while ``retake`` runs the
# suite; ``None``: pins are compared.
recorded = None


def canonical(pins):
    """The file's one form: one pin per line, in name order."""
    return "{\n%s\n}\n" % ",\n".join(
        "  %s: %s" % (json.dumps(name), json.dumps(pins[name], sort_keys=True))
        for name in sorted(pins))


def pinned(name, got):
    """``got`` equals the pin ``name`` exactly."""
    got = json.loads(json.dumps(got))
    if recorded is not None:
        return _record(name, got)
    assert name in PINS, "no pin named %r in %s" % (name, PIN_FILE.name)
    assert got == PINS[name], "pin %s is %s, got %s" % (
        name, json.dumps(PINS[name]), json.dumps(got))


def pinned_floor(name, got, slack):
    """``got`` lies between the pin ``name`` and ``slack`` (a fraction)
    above it; recording keeps the pin while it does."""
    floor = PINS.get(name)
    inside = floor is not None and floor <= got <= floor * (1 + slack)
    if recorded is not None:
        return _record(name, floor if inside else got)
    assert name in PINS, "no pin named %r in %s" % (name, PIN_FILE.name)
    assert inside, "pin %s: %s is not within %g above %s" % (
        name, got, slack, floor)


def _record(name, value):
    values = recorded.setdefault(name, [])
    if value not in values:
        values.append(value)
    assert len(values) == 1, "pin %s recorded as %s" % (
        name, " and ".join(json.dumps(v) for v in values))


def retake():
    import pytest

    global recorded
    recorded = {}
    status = pytest.main(["-q", str(PIN_FILE.parent)])
    problems = sorted(
        [(name, "recorded with two values")
         for name, values in recorded.items() if len(values) > 1]
        + [(name, "produced, not in the file")
           for name in recorded.keys() - PINS.keys()]
        + [(name, "in the file, never produced")
           for name in PINS.keys() - recorded.keys()])
    for problem in problems:
        print("%s: %s" % problem)
    if problems:
        print("%s not written" % PIN_FILE)
        return 1
    taken = {name: values[0] for name, values in recorded.items()}
    PIN_FILE.write_text(canonical(taken))
    for line in diff_lines(PINS, taken, depth=1):
        print(line)
    print("%d of %d pins moved; wrote %s" % (
        sum(PINS[name] != taken[name] for name in taken), len(taken),
        PIN_FILE))
    if status:
        print("pytest exit status %d: the failures are not pins" % status)
    return int(status != 0)


if __name__ == "__main__":
    from tests import pins

    sys.exit(pins.retake())
