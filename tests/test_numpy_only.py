"""The default paths run on numpy alone: scipy is imported only by the
matrix-free eigensolver tier of the solver.

The check needs a fresh interpreter, because other tests import scipy into
the pytest process."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import gaeq, gaeq.cli
from gaeq.solver import verify_conjecture
from gaeq.transformer import (
    VARIANTS, ModelConfig, TokenBatch, build_model, center_of_mass, forward,
)

assert all(r.passed for r in verify_conjecture(l_max=2))
pts = np.random.default_rng(0).normal(size=(4, 3))
for variant in VARIANTS:
    center = center_of_mass(pts) if variant == "E" else None
    forward(build_model(ModelConfig(variant)), TokenBatch(pts, center=center))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_default_paths_do_not_import_scipy():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
