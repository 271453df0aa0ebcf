"""Exact work counts of the library, pinned as upper bounds.

Timings on a shared two-CPU host cannot see one layer do a little more
work; a call count can, exactly.  Each test wraps program functions
in-process with monkeypatch, runs one fixed input and compares what it
counted with its pins.  A count above its pin fails, and the failure
names it.  A change that earns a lower count lowers the pin with it; one
that raises a pin gives the reason in CHANGES.md.
"""

import sys
from collections import Counter

import pytest

from hilbstab import K3Surface, MukaiVector, SearchQuery, build_certificate, enumerate_hits
from hilbstab.cli import main
from hilbstab.conditions import admissibility_report
from hilbstab.lattice import Value, mukai_square
from hilbstab.search import _scan_cell

# build_certificate(K3Surface(50), MukaiVector(3, 1, 8), 2), whose two
# inputs cost two stores more before it is called
CERTIFICATE_PINS = {
    "_set Certificate": 1,
    "_set AdmissibilityReport": 1,
    "_set MukaiVector": 3,
    "_set HilbNSClass": 3,
    "_set ProductClass": 1,
    "_set GradedDims": 2,
    "mukai_square": 3,
    "admissibility_report": 1,
}
# enumerate_hits on one worker over 296 cells with 1495 hits: the scan
# tests each of 40856 candidates with one vector and one report, and each
# hit's certificate adds four vectors and one report
SEARCH_BOX = SearchQuery((2, 200), (1, 3))
SEARCH_PINS = {
    "_scan_cell": 296,
    "admissibility_report": 42351,
    "_set MukaiVector": 46836,
    "_set AdmissibilityReport": 42351,
    "_set K3Surface": 592,
    "_set Certificate": 1495,
    "_set GradedDims": 2990,
    "_set HilbNSClass": 1803,
    "_set ProductClass": 601,
}

# _scan_cell per (h^2, k) cell: one surface, then one vector and one
# report per candidate
CELL_PINS = {
    (186, 3): {"_set K3Surface": 1, "_set MukaiVector": 174, "_set AdmissibilityReport": 174,
               "admissibility_report": 174},
    (1000, 2): {"_set K3Surface": 1, "_set MukaiVector": 1565, "_set AdmissibilityReport": 1565,
                "admissibility_report": 1565},
}
# one cli.main run each
CERTIFY_PINS = {
    "_set K3Surface": 1,
    "_set MukaiVector": 4,
    "_set AdmissibilityReport": 1,
    "_set HilbNSClass": 3,
    "_set ProductClass": 1,
    "_set GradedDims": 2,
    "_set Certificate": 1,
    "mukai_square": 3,
    "admissibility_report": 1,
}
CLI_PINS = {
    "check 50 2 3 1 8": CERTIFY_PINS,
    "report 186 3 5 1 18 --csv": CERTIFY_PINS,
    "ext 50 2 3 1 8 --distinct": {"_set K3Surface": 1, "_set MukaiVector": 1, "_set GradedDims": 2},
    # one cell of 39 candidates, and a certificate for each of its three hits
    "search 50 2": {
        "_set SearchQuery": 1,
        "_set K3Surface": 4,
        "_set MukaiVector": 51,
        "_set AdmissibilityReport": 42,
        "_set HilbNSClass": 9,
        "_set ProductClass": 3,
        "_set GradedDims": 6,
        "_set Certificate": 3,
        "mukai_square": 48,
        "admissibility_report": 42,
    },
}


def count_work(monkeypatch, *functions) -> Counter:
    """A Counter that each later call of Value._set (by class) and of each
    function (by name, wherever a hilbstab module binds it) adds one to."""
    counts: Counter = Counter()
    store = Value._set

    def counted_store(self, *values):
        counts[f"_set {type(self).__name__}"] += 1
        store(self, *values)

    monkeypatch.setattr(Value, "_set", counted_store)
    for function in functions:
        def counted(*args, _function=function, **kwargs):
            counts[_function.__name__] += 1
            return _function(*args, **kwargs)

        homes = [
            (module, name)
            for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "hilbstab"
            for name, value in vars(module).items()
            if value is function
        ]
        for module, name in homes:
            monkeypatch.setattr(module, name, counted)
    return counts


def over_pin(counts: Counter, pins: dict) -> dict:
    """Each count above its pin, as name: (count, pin); unpinned counts have pin 0."""
    return {name: (n, pins.get(name, 0)) for name, n in counts.items() if n > pins.get(name, 0)}


def test_build_certificate_work(monkeypatch):
    surface, v = K3Surface(50), MukaiVector(3, 1, 8)
    counts = count_work(monkeypatch, mukai_square, admissibility_report)
    build_certificate(surface, v, 2)
    assert counts, "nothing was counted"
    assert over_pin(counts, CERTIFICATE_PINS) == {}


def test_search_box_work(monkeypatch):
    counts = count_work(monkeypatch, _scan_cell, admissibility_report)
    assert len(enumerate_hits(SEARCH_BOX)) == 1495
    assert counts, "nothing was counted"
    assert over_pin(counts, SEARCH_PINS) == {}


@pytest.mark.parametrize("cell", CELL_PINS, ids=str)
def test_scan_cell_work(monkeypatch, cell):
    counts = count_work(monkeypatch, admissibility_report)
    _scan_cell((*cell, None))
    assert counts, "nothing was counted"
    assert over_pin(counts, CELL_PINS[cell]) == {}


@pytest.mark.parametrize("command", CLI_PINS)
def test_cli_run_work(monkeypatch, capsys, command):
    counts = count_work(monkeypatch, mukai_square, admissibility_report)
    assert main(command.split()) == 0
    assert capsys.readouterr().out
    assert counts, "nothing was counted"
    assert over_pin(counts, CLI_PINS[command]) == {}
