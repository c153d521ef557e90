"""Pinned forward outputs of the four default models.

Each tests/golden/forward_<variant>.json holds the default
ModelConfig(variant) forward on eight seeded tokens (points, vectors and
one scalar per token; E centred on the centre of mass): the inputs, the
output points and scalars, and the per-block max-coefficient trace.  Any
kernel rewrite has to reproduce them to 1e-12 relative.

Regenerate (only when the model itself is meant to change) with

    PYTHONPATH=src python tests/test_forward_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

from gaeq.transformer import VARIANTS, ModelConfig, TokenBatch, build_model, center_of_mass, forward

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
TOKENS = 8
SEED = 7
REL_TOL = 1e-12


def golden_batch(variant):
    rng = np.random.default_rng(SEED)
    pts = rng.normal(size=(TOKENS, 3))
    vecs = rng.normal(size=(TOKENS, 3))
    scal = rng.normal(size=(TOKENS, 1))
    center = center_of_mass(pts) if variant == "E" else None
    return TokenBatch(pts, vectors=vecs, scalars=scal, center=center)


def run_golden(variant):
    batch = golden_batch(variant)
    points, scalars, trace = forward(build_model(ModelConfig(variant)), batch, return_trace=True)
    return {
        "variant": variant,
        "inputs": {
            "points": batch.points.tolist(),
            "vectors": batch.vectors.tolist(),
            "scalars": batch.scalars.tolist(),
            "center": None if batch.center is None else batch.center.tolist(),
        },
        "points": points.tolist(),
        "scalars": scalars.tolist(),
        "trace": trace,
    }


def _relative_gap(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_forward_matches_golden(variant):
    want = json.loads((GOLDEN_DIR / f"forward_{variant}.json").read_text())
    got = run_golden(variant)
    assert got["inputs"] == want["inputs"], "the seeded golden tokens changed"
    for key in ("points", "scalars", "trace"):
        gap = _relative_gap(got[key], want[key])
        assert gap <= REL_TOL, f"{variant} {key} drifted by {gap:.2e} relative"


if __name__ == "__main__":
    for v in sorted(VARIANTS):
        path = GOLDEN_DIR / f"forward_{v}.json"
        path.write_text(json.dumps(run_golden(v), indent=1) + "\n")
        print(f"wrote {path}")
