"""Pinned verification reports.

tests/golden/verify_l2_se3.json holds the four verify_conjecture(l_max=2)
reports (ega, cga, pga, pga with the join; all se3), one SliceEntry per
line; tests/golden/verify_l3_long_se3.json holds the eight reports of
verify_conjecture(l_max=3, long=True) the same way, and
tests/golden/verify_l4_long_se3.json the arity-4 reports of ega, pga and
pga with the join from algebra_span_dim(..., 4).  All of them are compared
on every run.  Those reports are all se3, so
tests/golden/null_dims_e3.json pins the e3 null-space dimension of every
sorted slice of arity 1 to 3 of the three algebras (909 slices, at most
10 000 entries each), one slice per line.  Every solver change has to
reproduce all three byte for byte, with no rank decision close enough to
its cut to raise RankAmbiguityWarning.

Regenerate (only when the reported dimensions are meant to change) with

    PYTHONPATH=src python tests/test_verify_golden.py [--long | --l4 | --e3]
"""

import itertools
import json
import pathlib
import sys

import pytest

from gaeq.algebra import get_algebra
from gaeq.solver import (
    GradeSlice,
    algebra_span_dim,
    solve_multilinear_dim,
    verify_conjecture,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_l2_se3.json"
GOLDEN_L3 = pathlib.Path(__file__).parent / "golden" / "verify_l3_long_se3.json"
GOLDEN_L4 = pathlib.Path(__file__).parent / "golden" / "verify_l4_long_se3.json"
GOLDEN_E3 = pathlib.Path(__file__).parent / "golden" / "null_dims_e3.json"


def render(reports):
    """The reports as a JSON list, each slice entry on a line of its own."""
    parts = []
    for report in reports:
        head = report.to_dict()
        slices = head.pop("slices")
        rows = ",\n".join("  " + json.dumps(s) for s in slices)
        parts.append(json.dumps(head)[:-1] + ', "slices": [\n' + rows + "\n]}")
    return "[\n" + ",\n".join(parts) + "\n]\n"


def l4_reports():
    """The arity-4 se3 reports of ega, pga and pga with the join."""
    return [
        algebra_span_dim(name, 4, with_join=wj)
        for name, wj in (("ega", False), ("pga", False), ("pga", True))
    ]


def render_e3_null_dims():
    """The e3 null-space dimension of every sorted slice of arity 1 to 3,
    algebra by algebra, as a JSON list with one slice per line."""
    rows = []
    for name in ("ega", "pga", "cga"):
        grades = range(get_algebra(name).n + 1)
        for arity in (1, 2, 3):
            for ins in itertools.combinations_with_replacement(grades, arity):
                for out in grades:
                    dim = solve_multilinear_dim(name, "e3", GradeSlice(ins, out))
                    entry = {"algebra": name, "inputs": list(ins), "output": out}
                    rows.append(json.dumps({**entry, "nullspace_dim": dim}))
    return "[\n" + ",\n".join(rows) + "\n]\n"


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_verify_l2_report_matches_golden(verify_l2_reports):
    got = render(verify_l2_reports)
    assert got == GOLDEN.read_text()


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_e3_null_dims_match_golden():
    assert render_e3_null_dims() == GOLDEN_E3.read_text()


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_verify_l3_long_report_matches_golden(verify_l3_long_reports):
    assert render(verify_l3_long_reports) == GOLDEN_L3.read_text()


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_l4_long_report_matches_golden():
    assert render(l4_reports()) == GOLDEN_L4.read_text()


if __name__ == "__main__":
    if "--long" in sys.argv[1:]:
        path, text = GOLDEN_L3, render(verify_conjecture(l_max=3, long=True))
    elif "--l4" in sys.argv[1:]:
        path, text = GOLDEN_L4, render(l4_reports())
    elif "--e3" in sys.argv[1:]:
        path, text = GOLDEN_E3, render_e3_null_dims()
    else:
        path, text = GOLDEN, render(verify_conjecture(l_max=2))
    path.write_text(text)
    print(f"wrote {path}")
