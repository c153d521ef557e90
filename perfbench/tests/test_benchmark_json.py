"""BENCHMARK.json lists exactly what run.py measures and prints."""

import json
import os

import run


def load():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in load()["workloads"]] == list(run.WORKLOADS)


def test_metrics_match():
    bench = load()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    traced = [(name, unit) for name, unit, _, _ in run.PER_LAYER] + [("trace.overhead_ms", "ms")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == traced
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
