"""One benchmark process: set-up, rounds and checks for one workload.

run.py starts this file in a fresh interpreter, with the thread
environment pinned and PYTHONPATH at the checkout's src, and passes a JSON
spec as the only argument.  The last line of standard output is one JSON
object with what was measured.

Modes:
  setup    import gaeq and build what the workload needs, nothing else
  forward  set-up, untimed warm-up and checks, then timed rounds of
           forwards in this one warm process
  verify   one round: verify_conjecture(l_max=2)
  slices   one round: the fixed conformal arity-3 grade slices
"""

from time import perf_counter

import json
import math
import os
import resource
import sys
import traceback

from recorder import Patches, Recorder, layer_totals, wall_seconds

# op k of every workload: forward of VARIANTS[k], verify case CASES[k], slice SLICES[k]
VARIANTS = ("E", "C", "P", "iP")
CASES = (("ega", False), ("cga", False), ("pga", False), ("pga", True))
SLICE_ALGEBRA = "cga"
SLICE_GROUP = "se3"
# 2500, 2500, 2500 and 5000 map entries: all on the Gram tier
SLICES = (((1, 1, 2), 2), ((1, 2, 2), 1), ((1, 1, 3), 3), ((1, 2, 2), 2))

E3_DIMS = {"ega": 4, "pga": 9, "cga": 20}
SE3_DIMS = {"ega": 8, "pga": 16, "cga": 40}

# iP's attention divides its bridged points by their e123 weight and its
# logits reach 1e6 (32 tokens) to 1e8 (512 tokens), so rounding alone moves
# its outputs: on unit-scale 256-token clouds its equivariance gap reached
# 1.9e-10 and its permutation gap 1.2e-11, while E, C and P stay below 3e-12
EQUIVARIANCE_TOL = {"E": 1e-10, "C": 1e-10, "P": 1e-10, "iP": 1e-9}
PERMUTATION_TOL = {"E": 1e-12, "C": 1e-12, "P": 1e-12, "iP": 1e-10}
ORACLE_TOL = 1e-12
ORACLE_TOKENS = 4

HERE = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(workload, after_import=None):
    """Seconds to import gaeq and build what the workload needs, and the models."""
    start = perf_counter()
    import gaeq  # noqa: F401  (the import is what is timed)

    if after_import is not None:
        after_import()
    models = None
    if workload.startswith("fwd"):
        from gaeq import transformer

        models = {v: transformer.build_model(transformer.ModelConfig(v)) for v in VARIANTS}
    return perf_counter() - start, models


# -- tracing -----------------------------------------------------------------


def null_span_name(algebra, group, grade_slice, *, method=None, **_):
    """The tier solve_multilinear_dim picks, from the solver's own boundaries."""
    from gaeq import solver

    if method is None:
        if not isinstance(grade_slice, solver.GradeSlice):
            grade_slice = solver.GradeSlice(*grade_slice)
        ins, n_out = grade_slice.subspace_dims(solver._algebra(algebra))
        entries = n_out * math.prod(ins)
        if entries <= solver._DENSE_MAX_VEC:
            method = "dense"
        elif entries <= solver._GRAM_MAX_VEC:
            method = "gram"
        else:
            method = "iterative"
    return f"solver.null.{method}"


def products(result):
    return result.size // result.shape[-1]


def install_tracer(rec, patches):
    """Wrap the public functions of every layer the per-layer table names."""
    from gaeq import algebra, embeddings, groups, layers, solver, transformer

    def wrap(module, attr, name, count=None):
        patches.function(module, attr, lambda f: rec.traced(f, name, count))

    wrap(algebra, "geometric_product", "algebra.geometric_product", products)
    wrap(algebra, "join", "algebra.join", products)
    wrap(algebra, "get_algebra", "algebra.get_algebra")
    for attr in ("embed_point_ega", "embed_point_pga", "embed_point_cga"):
        wrap(embeddings, attr, "embeddings.embed_point")
    wrap(embeddings, "extract_point", "embeddings.extract_point")
    wrap(embeddings, "pga_point_to_cga_point", "embeddings.pga_point_to_cga_point")
    for cls in (layers.EquiLinear, layers.GeometricBilinear):
        patches.method(cls, "apply", lambda f, n=cls.__name__: rec.traced(f, f"layers.{n}.apply"))
    for attr in ("equi_norm", "gated_nonlinearity", "attn_logits", "attention"):
        wrap(layers, attr, f"layers.{attr}")
    for attr in ("embed_batch", "forward", "build_model"):
        wrap(transformer, attr, f"transformer.{attr}")
    wrap(groups, "constraint_rows", "groups.constraint_rows")
    wrap(solver, "solve_linear_basis", "solver.solve_linear_basis")
    wrap(solver, "algebra_span_dim", "solver.span")
    wrap(solver, "solve_multilinear_dim", null_span_name)
    rec.follow_threads(patches)


class Trace:
    """Per-round layer totals and the spans behind them."""

    def __init__(self, label):
        self.label = label
        self.rec = Recorder()
        self.spans = []
        self.rounds = 0
        self.sums = {}
        self.null_wall = 0.0
        self.setup = {}

    def close_setup(self):
        spans = self._keep("setup")
        self.setup = {k: list(v) for k, v in layer_totals(spans).items()}

    def close_round(self):
        spans = self._keep(f"round{self.rounds}")
        self.rounds += 1
        for name, row in layer_totals(spans).items():
            acc = self.sums.setdefault(name, [0.0, 0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        self.null_wall += wall_seconds(spans, "solver.null.")

    def _keep(self, phase):
        spans = self.rec.drain()
        self.spans.extend((phase, s) for s in spans)
        return spans

    def write(self, path):
        with open(path, "a") as fh:
            for phase, s in self.spans:
                fh.write(json.dumps([self.label, phase, *s]) + "\n")

    def summary(self):
        return {
            "rounds": self.rounds,
            "sums": self.sums,
            "null_wall_s": self.null_wall,
            "setup": self.setup,
        }


# -- forward workloads ---------------------------------------------------------


def make_case(rng, variant, tokens):
    """A fresh cloud, a motion from the variant's group, and the moved cloud.

    Positions, velocity-style vectors and one scalar per token are standard
    normal (unit scale).  E is centred on the centre of mass and its motions
    fix that centre; iP takes rototranslations only (an even number of
    reflections); P and C take 1 to 4 reflections, mirrors included.
    """
    import numpy as np
    from gaeq.transformer import TokenBatch, center_of_mass

    pts = rng.normal(size=(tokens, 3))
    vec = rng.normal(size=(tokens, 3))
    sc = rng.normal(size=(tokens, 1))
    center = center_of_mass(pts) if variant == "E" else None
    count = 2 * int(rng.integers(1, 3)) if variant == "iP" else int(rng.integers(1, 5))
    lin, off = np.eye(3), np.zeros(3)
    for _ in range(count):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        delta = float(n @ center) if center is not None else float(rng.uniform(-1.0, 1.0))
        h = np.eye(3) - 2.0 * np.outer(n, n)
        lin, off = h @ lin, h @ off + 2.0 * delta * n
    moved_pts = pts @ lin.T + off
    batch = TokenBatch(pts, vec, sc, center=center)
    moved = TokenBatch(
        moved_pts,
        vec @ lin.T,
        sc,
        center=None if center is None else center_of_mass(moved_pts),
    )
    return batch, moved, (lin, off)


def output_gap(got, want):
    """Relative gap between two (points, scalars) outputs, as equivariance_error defines it."""
    import numpy as np

    (pts, sc), (wpts, wsc) = got, want
    scale = max(np.abs(wpts).max(), np.abs(wsc).max() if wsc.size else 0.0, 1e-30)
    err = np.abs(pts - wpts).max()
    if wsc.size:
        err = max(err, np.abs(sc - wsc).max())
    return float(err / scale)


def moved_output(out, motion):
    lin, off = motion
    return out[0] @ lin.T + off, out[1]


def warm_up_and_check(models, rng, tokens, checks):
    """Per variant, untimed: one warm-up forward, then the permutation and oracle checks.

    The forward on the permuted cloud runs with geometric_product and join
    sampled, and a few tokens of every sampled call are recomputed by the
    swap-counting oracle.
    """
    from gaeq import algebra, transformer
    from gaeq.transformer import TokenBatch
    from oracle import Oracle, relative_error

    for variant in VARIANTS:
        model = models[variant]
        batch, _, _ = make_case(rng, variant, tokens)
        out = transformer.forward(model, batch)
        perm = rng.permutation(tokens)
        permuted = TokenBatch(
            batch.points[perm], batch.vectors[perm], batch.scalars[perm], center=batch.center
        )
        calls = []
        patches = Patches()
        for attr in ("geometric_product", "join"):
            patches.function(algebra, attr, lambda f, a=attr: _sampled(f, a, calls))
        try:
            out_p = transformer.forward(model, permuted)
        finally:
            patches.undo()
        checks["permutation"][variant] = output_gap(out_p, (out[0][perm], out[1][perm]))
        oracle = Oracle(model.algebra.name)
        for attr, x, y, z in calls:
            idx = rng.choice(z.shape[0], size=min(ORACLE_TOKENS, z.shape[0]), replace=False)
            want = getattr(oracle, attr)(x[idx], y[idx])
            checks["oracle"] = max(checks["oracle"], relative_error(z[idx], want))
        checks["oracle_calls"] += len(calls)


def _sampled(f, attr, calls):
    import numpy as np

    def wrapper(alg, x, y):
        z = f(alg, x, y)
        x, y, _ = np.broadcast_arrays(x, y, z)
        calls.append((attr, x, y, z))
        return z

    return wrapper


def forward_round(models, rng, tokens, samples, checks):
    """Both forwards of every variant; returns (timed seconds, attempted, failed)."""
    from gaeq import transformer

    cases = [make_case(rng, v, tokens) for v in VARIANTS]
    total, attempted, failed = 0.0, 0, 0
    for k, (variant, (batch, moved, motion)) in enumerate(zip(VARIANTS, cases)):
        outs = []
        for b in (batch, moved):
            attempted += 1
            start = perf_counter()
            try:
                out = transformer.forward(models[variant], b)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            took = perf_counter() - start
            samples[k].append(took)
            total += took
            outs.append(out)
        if len(outs) == 2:
            gap = output_gap(outs[1], moved_output(outs[0], motion))
            checks["equivariance"][variant] = max(checks["equivariance"][variant], gap)
            checks["equivariance_pairs"] += 1
    return total, attempted, failed


def forward_mode(spec):
    import numpy as np

    trace = Trace("main") if spec["trace"] else None
    patches = Patches()
    hook = (lambda: install_tracer(trace.rec, patches)) if trace else None
    setup_s, models = set_up(spec["workload"], hook)
    if trace:
        trace.close_setup()
        patches.undo()
    rng = np.random.default_rng(spec["seed"])
    tokens = spec["tokens"]
    checks = {"equivariance": dict.fromkeys(VARIANTS, 0.0), "equivariance_pairs": 0,
              "permutation": {}, "oracle": 0.0, "oracle_calls": 0}
    warm_up_and_check(models, rng, tokens, checks)

    samples = [[] for _ in VARIANTS]
    rounds, traced_rounds = [], []
    counts = [0, 0]  # attempted, failed

    def run_rounds(until, into, op_samples):
        # whole rounds only: the next one starts if it should end by `until`
        last = 0.0
        while last == 0.0 or perf_counter() + last <= until:
            began = perf_counter()
            took, a, f = forward_round(models, rng, tokens, op_samples, checks)
            last = perf_counter() - began
            counts[0] += a
            counts[1] += f
            if trace is not None and into is traced_rounds:
                trace.close_round()
            if not f:
                into.append(took)

    start = perf_counter()
    deadline = start + spec["seconds"]
    run_rounds(start + spec["seconds"] / 2 if trace else deadline, rounds, samples)
    if trace:
        install_tracer(trace.rec, patches)
        run_rounds(deadline, traced_rounds, [[] for _ in VARIANTS])
    rss = peak_rss_mb()
    patches.undo()
    ok = (all(checks["equivariance"][v] <= EQUIVARIANCE_TOL[v] for v in VARIANTS)
          and all(checks["permutation"][v] <= PERMUTATION_TOL[v] for v in VARIANTS)
          and checks["oracle"] <= ORACLE_TOL and checks["equivariance_pairs"] > 0
          and checks["oracle_calls"] > 0)
    result = {
        "setup_s": setup_s,
        "op_samples": samples,
        "rounds": rounds,
        "attempted": counts[0],
        "failed": counts[1],
        "correct": ok,
        "problems": [] if ok else [f"forward checks out of tolerance: {checks}"],
        "checks": checks,
        "peak_rss_mb": rss,
        "ops_per_round": 2 * len(VARIANTS),
    }
    if trace:
        trace.write(spec["trace_path"])
        result["trace"] = trace.summary()
        result["traced_rounds"] = traced_rounds
    return result


# -- solver workloads ------------------------------------------------------------


def observe_cases(patches, seen):
    """Time each case of verify_conjecture through the algebra_span_dim call it makes."""
    from gaeq import solver

    def cases(f):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            report = f(*args, **kwargs)
            seen.append(((report.algebra, report.with_join), perf_counter() - start))
            return report

        return wrapper

    patches.function(solver, "algebra_span_dim", cases)


def check_reports(reports):
    """Problems found in an arity-2 verification, as readable strings."""
    problems = []
    got = [(r.algebra, r.with_join) for r in reports]
    if got != list(CASES):
        problems.append(f"cases {got} != {list(CASES)}")
    for r in reports:
        label = f"{r.algebra}{'+join' if r.with_join else ''}"
        want = "gap" if (r.algebra, r.with_join) == ("pga", False) else "equal"
        counted = [s for s in r.slices if not s.skipped]
        if r.l != 2 or r.group != "se3" or len(counted) != len(r.slices) or not counted:
            problems.append(f"{label}: arity {r.l}, group {r.group}, {len(r.slices) - len(counted)} skipped")
        if r.expectation != want or r.passed is not True:
            problems.append(f"{label}: expectation {r.expectation}, passed {r.passed}")
        over = [s for s in counted if s.span_dim > s.nullspace_dim]
        if over:
            problems.append(f"{label}: span above null space on {len(over)} slices")
        equal = all(s.span_dim == s.nullspace_dim for s in counted)
        if (want == "equal") != equal:
            problems.append(f"{label}: span {'equals' if equal else 'differs from'} null space")
    return problems


def basis_problems():
    from gaeq import solver

    problems = []
    for group, want in (("e3", E3_DIMS), ("se3", SE3_DIMS)):
        dims = {a: solver.solve_linear_basis(a, group).dim for a in want}
        if dims != want:
            problems.append(f"{group} basis dimensions {dims} != {want}")
    return problems


def verify_round(spec, trace, patches):
    from gaeq import solver

    seen = []
    observe_cases(patches, seen)
    if trace:
        install_tracer(trace.rec, patches)
    start = perf_counter()
    try:
        reports = solver.verify_conjecture(l_max=2)
    except Exception:
        traceback.print_exc()
        reports = None
    took = perf_counter() - start
    rss = peak_rss_mb()
    patches.undo()
    ops = [None] * len(CASES)
    for key, seconds in seen:
        if key in CASES:
            ops[CASES.index(key)] = seconds
    if reports is None:
        return took, rss, ops, len(CASES) - sum(o is not None for o in ops), []
    problems = check_reports(reports)
    if None in ops:
        problems.append(f"verify_conjecture made no timed algebra_span_dim call for {ops.count(None)} cases")
    if spec["check_bases"]:
        problems += basis_problems()
    return took, rss, ops, 0, problems


def slices_round(spec, trace, patches):
    from gaeq import solver

    with open(os.path.join(HERE, "reference_slices.json")) as fh:
        reference = {
            (tuple(r["inputs"]), r["output"]): r["nullspace_dim"] for r in json.load(fh)["slices"]
        }
    if trace:
        install_tracer(trace.rec, patches)
    ops, problems, failed = [None] * len(SLICES), [], 0
    for k, (inputs, output) in enumerate(SLICES):
        start = perf_counter()
        try:
            dim = solver.solve_multilinear_dim(
                SLICE_ALGEBRA, SLICE_GROUP, solver.GradeSlice(inputs, output)
            )
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        ops[k] = perf_counter() - start
        if dim != reference.get((inputs, output)):
            problems.append(f"{inputs}->{output}: {dim} != reference {reference.get((inputs, output))}")
    rss = peak_rss_mb()
    patches.undo()
    took = sum(o for o in ops if o is not None)
    return took, rss, ops, failed, problems


def solver_mode(spec):
    """One solver round in this fresh interpreter."""
    setup_s, _ = set_up(spec["workload"])
    trace = Trace(spec["label"]) if spec["trace"] else None
    round_fn = verify_round if spec["mode"] == "verify" else slices_round
    took, rss, ops, failed, problems = round_fn(spec, trace, Patches())
    result = {
        "setup_s": setup_s,
        "round_s": took,
        "op_seconds": ops,
        "attempted": len(ops),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "peak_rss_mb": rss,
    }
    if trace:
        trace.close_round()
        trace.write(spec["trace_path"])
        result["trace"] = trace.summary()
    return result


def setup_mode(spec):
    setup_s, _ = set_up(spec["workload"])
    return {"setup_s": setup_s}


MODES = {"setup": setup_mode, "forward": forward_mode, "verify": solver_mode, "slices": solver_mode}


def main():
    spec = json.loads(sys.argv[1])
    result = MODES[spec["mode"]](spec)
    import gaeq

    result["gaeq_file"] = gaeq.__file__
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
