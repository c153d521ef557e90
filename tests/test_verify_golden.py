"""Pinned verification reports.

tests/golden/verify_l2_se3.json holds the four verify_conjecture(l_max=2)
reports (ega, cga, pga, pga with the join; all se3), one SliceEntry per
line; tests/golden/verify_l3_long_se3.json holds the eight reports of
verify_conjecture(l_max=3, long=True) the same way, and is compared only
with GAEQ_LONG=1 because it takes minutes.  Every solver tier change has to
reproduce both byte for byte, with no rank decision close enough to its cut
to raise RankAmbiguityWarning.

Regenerate (only when the reported dimensions are meant to change) with

    PYTHONPATH=src python tests/test_verify_golden.py [--long]
"""

import json
import os
import pathlib
import sys

import pytest

from gaeq.solver import verify_conjecture

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_l2_se3.json"
GOLDEN_L3 = pathlib.Path(__file__).parent / "golden" / "verify_l3_long_se3.json"


def render(reports):
    """The reports as a JSON list, each slice entry on a line of its own."""
    parts = []
    for report in reports:
        head = report.to_dict()
        slices = head.pop("slices")
        rows = ",\n".join("  " + json.dumps(s) for s in slices)
        parts.append(json.dumps(head)[:-1] + ', "slices": [\n' + rows + "\n]}")
    return "[\n" + ",\n".join(parts) + "\n]\n"


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_verify_l2_report_matches_golden(verify_l2_reports):
    got = render(verify_l2_reports)
    assert got == GOLDEN.read_text()


@pytest.mark.skipif(
    os.environ.get("GAEQ_LONG") != "1", reason="minutes long; set GAEQ_LONG=1"
)
@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_verify_l3_long_report_matches_golden():
    got = render(verify_conjecture(l_max=3, long=True))
    assert got == GOLDEN_L3.read_text()


if __name__ == "__main__":
    if "--long" in sys.argv[1:]:
        path, reports = GOLDEN_L3, verify_conjecture(l_max=3, long=True)
    else:
        path, reports = GOLDEN, verify_conjecture(l_max=2)
    path.write_text(render(reports))
    print(f"wrote {path}")
