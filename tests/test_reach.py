"""The reachability probe's compare stage (``tests/reach.py``), fed a
made-up reached set: no entry point runs here."""

import textwrap

from . import reach


def make_tree(root, source):
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(textwrap.dedent(source))
    return set(reach.definitions(root).values())


SOURCE = """
    def used():
        def inner():
            pass
        return inner


    class Thing:
        @property
        def size(self):
            return 1

        def planted(self):
            pass
"""


def test_definitions_are_qualified_and_nested(tmp_path):
    assert make_tree(tmp_path, SOURCE) == {
        "src/repro/mod.py::used", "src/repro/mod.py::used.inner",
        "src/repro/mod.py::Thing.size", "src/repro/mod.py::Thing.planted"}


def test_first_line_is_the_first_decorators(tmp_path):
    make_tree(tmp_path, SOURCE)
    lines = {name: line for (_file, line), name
             in reach.definitions(tmp_path).items()}
    assert lines["src/repro/mod.py::Thing.size"] == 9


def test_reports_a_planted_unreached_def(tmp_path):
    defined = make_tree(tmp_path, SOURCE)
    reached = defined - {"src/repro/mod.py::Thing.planted"}
    assert reach.compare(defined, reached, {}) == [
        "src/repro/mod.py::Thing.planted: no entry point calls it and "
        "unreached.txt does not list it"]
    listed = {"src/repro/mod.py::Thing.planted": "a reason"}
    assert reach.compare(defined, reached, listed) == []


def test_reports_a_listed_def_that_is_reached(tmp_path):
    defined = make_tree(tmp_path, SOURCE)
    listed = {"src/repro/mod.py::used.inner": "a reason"}
    assert reach.compare(defined, defined, listed) == [
        "src/repro/mod.py::used.inner: listed in unreached.txt, but an "
        "entry point calls it"]


def test_reports_a_listed_name_that_is_gone(tmp_path):
    defined = make_tree(tmp_path, SOURCE)
    listed = {"src/repro/mod.py::Thing.deleted": "a reason"}
    assert reach.compare(defined, defined, listed) == [
        "src/repro/mod.py::Thing.deleted: listed in unreached.txt, but no "
        "such definition"]


def test_reports_a_listed_def_with_no_reason(tmp_path):
    defined = make_tree(tmp_path, SOURCE)
    reached = defined - {"src/repro/mod.py::Thing.planted"}
    listed = {"src/repro/mod.py::Thing.planted": ""}
    assert reach.compare(defined, reached, listed) == [
        "src/repro/mod.py::Thing.planted: listed in unreached.txt with no "
        "reason"]


def test_every_listed_name_is_defined_with_a_reason():
    defined = set(reach.definitions().values())
    listed = reach.read_list()
    assert listed
    assert sorted(set(listed) - defined) == []
    assert [name for name, reason in listed.items() if not reason] == []
