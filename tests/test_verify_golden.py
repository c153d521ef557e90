"""Pinned arity-2 verification report.

tests/golden/verify_l2_se3.json holds the four verify_conjecture(l_max=2)
reports (ega, cga, pga, pga with the join; all se3), one SliceEntry per
line.  Every solver tier change has to reproduce it byte for byte, with no
rank decision close enough to its cut to raise RankAmbiguityWarning.

Regenerate (only when the reported dimensions are meant to change) with

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import json
import pathlib

import pytest

from gaeq.solver import verify_conjecture

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_l2_se3.json"


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
def test_verify_l2_report_matches_golden():
    got = render(verify_conjecture(l_max=2))
    assert got == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render(verify_conjecture(l_max=2)))
    print(f"wrote {GOLDEN}")
