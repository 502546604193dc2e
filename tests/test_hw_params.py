"""The cost model has one home: every modelled cost is defined once, in
``repro.hw.params``, and each of its module constants says where its
value comes from (*measured*, *derived* or *free*)."""

import ast
import pathlib
import re

from repro.hw import params

SRC = pathlib.Path(params.__file__).resolve().parents[1]
PARAMS = SRC / "hw" / "params.py"
DOCS = SRC.parents[1] / "docs" / "SIMULATOR.md"
TAG = re.compile(r"#\s*(measured|derived|free)\b")
US_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*_US$")


def _module_assignments(path):
    """``(name, line)`` of every module-level assignment in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno


def _tags():
    """``name -> tag`` for every numeric module constant of hw.params; the
    tag is the first word of the comment block right above it (None when
    there is none)."""
    lines = PARAMS.read_text().splitlines()
    tags = {}
    for name, lineno in _module_assignments(PARAMS):
        value = getattr(params, name)
        if not name.isupper() or isinstance(value, bool) \
                or not isinstance(value, (int, float)):
            continue
        i = lineno - 2
        while i >= 0 and lines[i].lstrip().startswith("#"):
            i -= 1
        block = lines[i + 1:lineno - 1]
        match = TAG.match(block[0].strip()) if block else None
        tags[name] = match.group(1) if match else None
    return tags


def test_every_numeric_constant_in_hw_params_is_tagged():
    tags = _tags()
    assert "NIC_HOST_CORE_RATIO" in tags and "ABORT_BACKOFF_US" in tags
    assert [name for name, tag in tags.items() if tag is None] == []


def test_no_cost_constant_is_defined_outside_hw_params():
    found = [
        "%s:%d %s" % (path.relative_to(SRC), lineno, name)
        for path in sorted(SRC.rglob("*.py")) if path != PARAMS
        for name, lineno in _module_assignments(path)
        if US_NAME.match(name)
    ]
    assert found == []


def test_simulator_doc_lists_every_constant_with_its_tag():
    row = re.compile(r"^\| `([A-Z][A-Z0-9_]*)` \|[^|]*\| \*(measured|derived"
                     r"|free)\* \|", re.M)
    assert dict(row.findall(DOCS.read_text())) == _tags()
