"""Benchmark for gaeq: forward latency per variant, verification time and memory.

Run from the repository root:

    python3 perfbench/run.py --workload fwd-long --seed 0 --seconds 40 --trace 0

Workloads (see README.md for why each is there):
  fwd-long    256-token clouds through the E, C, P and iP models
  verify-l2   verify_conjecture(l_max=2), one fresh interpreter per round
  slices-l3   four conformal arity-3 grade slices on the Gram tier, one
              fresh interpreter per round

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 a separate traced run gives the
per-layer metrics and the tracing overhead.  The lines before it are for
people.  Results and spans are written under .perfbench/ in the root.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# a run must end well inside the 180 s a harness allows it
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
# BLAS libraries run one thread; the solver's pool keeps its default of
# min(4, nproc) workers, as one `gaeq verify-conjecture` run has it, so no
# run uses more threads than there are cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "fwd-long": {"mode": "forward", "tokens": 256},
    "verify-l2": {"mode": "verify"},
    "slices-l3": {"mode": "slices"},
}

# what op k is on each workload
OP_LABELS = {
    "forward": ("forward E", "forward C", "forward P", "forward iP"),
    "verify": ("case ega", "case cga", "case pga", "case pga+join"),
    "slices": ("(1,1,2)->2", "(1,2,2)->1", "(1,1,3)->3", "(1,2,2)->2"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("op1_ms", "ms"),
    ("op2_ms", "ms"),
    ("op3_ms", "ms"),
    ("op4_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, layer span, field): field is the index into a layer's
# (self seconds, calls, summed counts) per round, "wall" for the pool wall
# time, or "setup" for self time during set-up
PER_LAYER = (
    ("algebra.geometric_product.ms", "ms", "algebra.geometric_product", 0),
    ("algebra.geometric_product.calls", "count", "algebra.geometric_product", 1),
    ("algebra.geometric_product.products", "count", "algebra.geometric_product", 2),
    ("algebra.join.ms", "ms", "algebra.join", 0),
    ("algebra.join.calls", "count", "algebra.join", 1),
    ("layers.EquiLinear.apply.ms", "ms", "layers.EquiLinear.apply", 0),
    ("layers.EquiLinear.apply.calls", "count", "layers.EquiLinear.apply", 1),
    ("layers.GeometricBilinear.apply.ms", "ms", "layers.GeometricBilinear.apply", 0),
    ("layers.equi_norm.ms", "ms", "layers.equi_norm", 0),
    ("layers.gated_nonlinearity.ms", "ms", "layers.gated_nonlinearity", 0),
    ("layers.attn_logits.ms", "ms", "layers.attn_logits", 0),
    ("layers.attention.ms", "ms", "layers.attention", 0),
    ("embeddings.pga_point_to_cga_point.ms", "ms", "embeddings.pga_point_to_cga_point", 0),
    ("embeddings.pga_point_to_cga_point.calls", "count", "embeddings.pga_point_to_cga_point", 1),
    ("embeddings.embed_point.ms", "ms", "embeddings.embed_point", 0),
    ("embeddings.embed_point.calls", "count", "embeddings.embed_point", 1),
    ("embeddings.extract_point.ms", "ms", "embeddings.extract_point", 0),
    ("embeddings.extract_point.calls", "count", "embeddings.extract_point", 1),
    ("transformer.embed_batch.ms", "ms", "transformer.embed_batch", 0),
    ("transformer.forward.ms", "ms", "transformer.forward", 0),
    ("algebra.get_algebra.ms", "ms", "algebra.get_algebra", "setup"),
    ("transformer.build_model.ms", "ms", "transformer.build_model", "setup"),
    ("solver.solve_linear_basis.ms", "ms", "solver.solve_linear_basis", 0),
    ("solver.solve_linear_basis.calls", "count", "solver.solve_linear_basis", 1),
    ("solver.span.ms", "ms", "solver.span", 0),
    ("solver.null.dense.ms", "ms", "solver.null.dense", 0),
    ("solver.null.dense.calls", "count", "solver.null.dense", 1),
    ("groups.constraint_rows.ms", "ms", "groups.constraint_rows", 0),
    ("groups.constraint_rows.calls", "count", "groups.constraint_rows", 1),
    ("solver.null.wall_ms", "ms", None, "wall"),
    ("solver.null.gram.ms", "ms", "solver.null.gram", 0),
    ("solver.null.gram.calls", "count", "solver.null.gram", 1),
)


class BenchError(RuntimeError):
    """The benchmark could not run to its end."""


def say(line=""):
    print(line, flush=True)


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("GAEQ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child interpreters one at a time, each bounded by the run's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def child(self, spec):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next child process")
        try:
            # subprocess.run kills and reaps the child when the timeout expires
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{spec['mode']} child ran past the deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{spec['mode']} child exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        if os.path.commonpath([os.path.abspath(result["gaeq_file"]), SRC]) != SRC:
            raise BenchError(f"imported gaeq from {result['gaeq_file']}, not from {SRC}")
        return result


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(label, value) of the highest percentile with ten samples beyond it, or None."""
    n = len(values)
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100)[q - 1]
    return None


def op_line(k, label, samples):
    line = f"op{k + 1}_ms  {label:<14} median {1e3 * median(samples):10.3f} ms"
    got = tail(samples)
    if got:
        line += f"  {got[0]} {1e3 * got[1]:10.3f} ms"
    return line + f"  n={len(samples)}"


def run_forward(runner, spec, args):
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [runner.child({**spec, "mode": "setup"})["setup_s"] for _ in range(extra)]
    res = runner.child(spec)
    res["setup_samples"] = setups + [res["setup_s"]]
    res["op_sample_lists"] = res.pop("op_samples")
    tokens = spec["tokens"] * res["ops_per_round"]
    say(f"throughput   {tokens / median(res['rounds']):12.1f} tokens/s "
        f"({tokens} tokens per round / round_s)")
    checks = res["checks"]
    equi, perm = (", ".join(f"{v} {gap:.1e}" for v, gap in checks[k].items())
                  for k in ("equivariance", "permutation"))
    say(f"checks       equivariance gap max {equi} over {checks['equivariance_pairs']} pairs; "
        f"permutation gap {perm}; oracle gap {checks['oracle']:.1e} over "
        f"{checks['oracle_calls']} product calls")
    if args.trace:
        res["trace_summaries"] = [res.pop("trace")]
        res["traced_round_s"] = res.pop("traced_rounds")
    return res


def run_solver(runner, spec, args):
    """Fresh interpreter per round until --seconds have passed; traced and untraced alternate with --trace 1."""
    start = time.monotonic()
    rounds, traced = [], []
    last = 0.0
    # whole rounds only: the next one starts if it should end within --seconds
    while not rounds or (args.trace and not traced) or time.monotonic() - start + last <= args.seconds:
        tracing = bool(args.trace) and len(traced) < len(rounds)
        label = f"round{len(rounds) + len(traced)}"
        began = time.monotonic()
        res = runner.child({**spec, "trace": tracing, "label": label,
                            "check_bases": not rounds and not traced})
        last = time.monotonic() - began
        (traced if tracing else rounds).append(res)
    setups = [r["setup_s"] for r in rounds + traced]
    while len(setups) < SETUP_SAMPLES and not args.trace:
        setups.append(runner.child({**spec, "mode": "setup"})["setup_s"])

    def ok(rs):
        return [r for r in rs if not r["failed"]]

    merged = {
        "setup_samples": setups,
        "rounds": [r["round_s"] for r in ok(rounds)],
        "op_sample_lists": [
            [r["op_seconds"][k] for r in rounds if r["op_seconds"][k] is not None]
            for k in range(4)
        ],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "attempted": sum(r["attempted"] for r in rounds + traced),
        "failed": sum(r["failed"] for r in rounds + traced),
        "correct": all(r["correct"] for r in rounds + traced),
        "problems": [p for r in rounds + traced for p in r["problems"]],
    }
    if args.trace:
        merged["trace_summaries"] = [r["trace"] for r in traced]
        merged["traced_round_s"] = [r["round_s"] for r in ok(traced)]
    return merged


def end_to_end(res, mode):
    if not res["rounds"] or not all(res["op_sample_lists"]):
        raise BenchError("no round, or no sample of some op, completed without a failure")
    values = {
        "setup_s": median(res["setup_samples"]),
        "round_s": median(res["rounds"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    say(f"setup_s      {values['setup_s']:12.4f} s   median of {len(res['setup_samples'])} fresh interpreters")
    say(f"round_s      {values['round_s']:12.4f} s   median of {len(res['rounds'])} rounds")
    for k, samples in enumerate(res["op_sample_lists"]):
        values[f"op{k + 1}_ms"] = 1e3 * median(samples)
        say(op_line(k, OP_LABELS[mode][k], samples))
    say(f"peak_rss_mb  {values['peak_rss_mb']:12.1f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(res):
    summaries = res["trace_summaries"]
    rounds = sum(s["rounds"] for s in summaries)
    if not rounds:
        raise BenchError("no traced round completed")
    sums, setup = {}, {}
    for s in summaries:
        for name, row in s["sums"].items():
            acc = sums.setdefault(name, [0.0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, row in s["setup"].items():
            setup[name] = row
    metrics = {}
    for name, unit, layer, field in PER_LAYER:
        if field == "wall":
            value = 1e3 * sum(s["null_wall_s"] for s in summaries) / rounds
        elif field == "setup":
            value = 1e3 * setup.get(layer, (0.0,))[0]
        else:
            value = sums.get(layer, (0.0, 0, 0))[field] / rounds
            if unit == "ms":
                value *= 1e3
        metrics[name] = {"value": value, "unit": unit}
        say(f"{name:<42} {value:14.3f} {unit}")
    traced, plain = median(res["traced_round_s"]), median(res["rounds"])
    overhead = 1e3 * (traced - plain)
    metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    say(f"{'trace.overhead_ms':<42} {overhead:14.3f} ms  (traced round {traced:.4f} s, "
        f"untraced {plain:.4f} s, {rounds} traced rounds)")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "gaeq", "__init__.py")):
        print(f"gaeq sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join(SRC, "gaeq"), quiet=1)
    tag = f"{args.workload}-seed{args.seed}"
    trace_path = os.path.join(OUT, f"trace-{tag}.jsonl")
    if args.trace and os.path.exists(trace_path):
        os.remove(trace_path)
    spec = dict(WORKLOADS[args.workload], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=bool(args.trace), trace_path=trace_path)
    mode = spec["mode"]
    say(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
        "BLAS threads 1, solver pool at its default")
    runner = Runner(deadline)
    try:
        res = (run_forward if mode == "forward" else run_solver)(runner, spec, args)
        metrics = per_layer(res) if args.trace else end_to_end(res, mode)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in res["problems"]:
        say(f"check failed: {problem}")
    say(f"attempted {res['attempted']}  failed {res['failed']}  correct {str(res['correct']).lower()}")
    result = {
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh)
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
