"""Command line surface: verification workflows and artifact exports.

Six subcommands, each deterministic given --seed and returning a
pass/fail exit code where a check is involved:

* tables            multiplication (and projective join) tables as JSON
* solve-basis       numerically solved equivariant-map basis plus spectrum
* verify-conjecture span versus null-space dimensions, slice by slice
* check-equivariance transformer output drift under sampled motions
* demo-attention    distance identities behind the attention variants
* norm-probe        normalization stability series as CSV

Human-readable text is the default; --json switches machine output.
"""

import argparse
import json
import os
import sys

import numpy as np

from gaeq.algebra import get_algebra
from gaeq.embeddings import (
    embed_point_cga,
    embed_point_ega,
    embed_point_pga,
    load_points,
)
from gaeq.groups import EuclideanMotion, random_motion
from gaeq.layers import MvChannels, NormConfig, attn_logits, default_norm_config, equi_norm
from gaeq.solver import (
    closed_form_basis,
    equivariant_map_family,
    linear_constraint_spectrum,
    solve_linear_basis,
    span_residual,
    subspace_distance,
    verify_conjecture,
)
from gaeq.transformer import (
    VARIANTS,
    ModelConfig,
    TokenBatch,
    build_model,
    center_of_mass,
    equivariance_error,
    forward,
)

ALGEBRAS = ("ega", "pga", "cga")

# solved e3 dimensions the basis report is checked against
E3_DIMS = {"ega": 4, "pga": 9, "cga": 20}


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _emit(args, payload, text):
    """Print text or, under --json, the JSON payload; honor --out."""
    body = json.dumps(payload, indent=2, sort_keys=True) + "\n" if args.json else text
    if getattr(args, "out", None):
        _write_text(args.out, body)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(body)


# -- tables -------------------------------------------------------------------


def _signed_blade(alg, vec):
    nz = np.flatnonzero(vec)
    if nz.size == 0:
        return "0"
    if nz.size != 1 or abs(abs(vec[nz[0]]) - 1.0) > 1e-12:
        raise AssertionError("basis blade product is not a signed blade")
    k = int(nz[0])
    return ("+" if vec[k] > 0 else "-") + alg.blade_name(k)


def _product_rows(alg, tensor):
    rows = []
    for a in range(alg.size):
        for b in range(alg.size):
            rows.append(
                {
                    "a": alg.blade_name(a),
                    "b": alg.blade_name(b),
                    "product": _signed_blade(alg, tensor[a, b]),
                }
            )
    return rows


def cmd_tables(args):
    names = [args.algebra] if args.algebra else list(ALGEBRAS)
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    for name in names:
        alg = get_algebra(name)
        rows = _product_rows(alg, alg.gp_tensor)
        path = os.path.join(outdir, f"cayley_{name}.json")
        _write_text(path, json.dumps(rows, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(rows)} rows)", file=sys.stderr)
        if alg.join_tensor is not None:
            rows = _product_rows(alg, alg.join_tensor)
            path = os.path.join(outdir, f"join_{name}.json")
            _write_text(path, json.dumps(rows, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path} ({len(rows)} rows)", file=sys.stderr)
    return 0


# -- solve-basis ----------------------------------------------------------------


def cmd_solve_basis(args):
    basis = solve_linear_basis(args.algebra, args.group)
    spectrum = linear_constraint_spectrum(args.algebra, args.group)
    dim = basis.dim
    kernel = spectrum[-dim:] if dim else spectrum[:0]
    kept = spectrum[:-dim] if dim else spectrum
    gap_low = float(kernel.max()) if kernel.size else 0.0
    gap_high = float(kept.min()) if kept.size else float("inf")

    checks = {}
    if args.group == "e3":
        closed = closed_form_basis(args.algebra)
        dist = subspace_distance(basis.maps, closed.maps)
        checks["expected_dim"] = E3_DIMS[args.algebra]
        checks["closed_form_distance"] = float(dist)
        passed = dim == E3_DIMS[args.algebra] and dist < args.tol
    else:
        residuals = {
            name: span_residual(basis.maps, m)
            for name, m in equivariant_map_family(args.algebra, "se3")
        }
        checks["family_residuals"] = {k: float(v) for k, v in residuals.items()}
        passed = all(v < args.tol for v in residuals.values())

    payload = {
        "algebra": args.algebra,
        "group": args.group,
        "dim": dim,
        "kernel_gap": {"largest_kernel": gap_low, "smallest_kept": gap_high},
        "spectrum_tail": [float(v) for v in spectrum[-(dim + 4) :]],
        "tol": args.tol,
        "passed": passed,
        **checks,
    }

    lines = [
        f"algebra {args.algebra}, group {args.group}",
        f"equivariant map dimension: {dim}",
        f"kernel gap: largest kernel value {gap_low:.3e}, "
        f"smallest kept value {gap_high:.3e}",
        "spectrum tail: "
        + " ".join(f"{float(v):.3e}" for v in spectrum[-(dim + 4) :]),
    ]
    if args.group == "e3":
        lines.append(
            f"subspace distance to closed form: "
            f"{checks['closed_form_distance']:.3e} (tol {args.tol:g}, "
            f"expected dim {checks['expected_dim']})"
        )
    else:
        for name, v in checks["family_residuals"].items():
            lines.append(f"family residual {name}: {v:.3e}")
    lines.append("PASS" if passed else "FAIL")
    text = "\n".join(lines) + "\n"

    if args.out:
        basis_doc = {
            "algebra": basis.algebra,
            "group": basis.group,
            "dim": dim,
            "maps": basis.maps.tolist(),
        }
        _write_text(args.out, json.dumps(basis_doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


# -- verify-conjecture ------------------------------------------------------------


def cmd_verify_conjecture(args):
    try:
        reports = verify_conjecture(
            l_max=args.l_max, long=args.long, include_heavy=args.include_heavy
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'algebra':<8} {'l':>2} {'join':<5} {'span':>6} {'null':>6} {'expect':<6} verdict"
    lines = [header, "-" * len(header)]
    for r in reports:
        verdict = "equal" if r.span_dim == r.nullspace_dim else "gap"
        mark = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.algebra:<8} {r.l:>2} {str(r.with_join).lower():<5} "
            f"{r.span_dim:>6} {r.nullspace_dim:>6} {r.expectation:<6} "
            f"{verdict} [{mark}]"
        )
    passed = all(r.passed for r in reports)
    lines.append("PASS" if passed else "FAIL")
    text = "\n".join(lines) + "\n"
    payload = {"reports": [r.to_dict() for r in reports], "passed": passed}

    if args.out:
        _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


# -- check-equivariance ------------------------------------------------------------


def _sample_motion(variant, rng):
    # the join-using variant is covariant for rototranslations only, so its
    # samples are restricted to even reflection counts
    if variant == "iP":
        return random_motion(rng, 2 * int(rng.integers(1, 3)))
    return random_motion(rng, int(rng.integers(1, 5)))


def cmd_check_equivariance(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    overrides = {}
    for key in ("blocks", "mv_channels", "scalar_channels", "heads"):
        v = getattr(args, key)
        if v is not None:
            overrides[key] = v
    cfg = ModelConfig(variant=args.variant, seed=args.seed, **overrides)
    model = build_model(cfg)

    rng = np.random.default_rng(args.seed)
    points = rng.normal(size=(args.tokens, 3))
    vectors = rng.normal(size=(args.tokens, 3))
    width = min(4, cfg.scalar_channels)
    scalars = rng.normal(size=(args.tokens, width)) if width else None
    center = center_of_mass(points) if cfg.algebra_name == "ega" else None
    batch = TokenBatch(points, vectors=vectors, scalars=scalars, center=center)

    identity_err = equivariance_error(model, batch, EuclideanMotion([]))
    errs = np.array(
        [
            equivariance_error(model, batch, _sample_motion(args.variant, rng))
            for _ in range(args.samples)
        ]
    )
    passed = bool(errs.max() <= args.tol)

    payload = {
        "variant": args.variant,
        "algebra": cfg.algebra_name,
        "blocks": cfg.blocks,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "identity_error": float(identity_err),
        "max_error": float(errs.max()),
        "mean_error": float(errs.mean()),
        "passed": passed,
    }
    lines = [
        f"variant {args.variant} ({cfg.algebra_name}), {cfg.blocks} blocks, "
        f"{args.tokens} tokens, {args.samples} motions, seed {args.seed}",
        f"identity motion error: {identity_err:.3e}",
        f"max error:  {errs.max():.3e} (tol {args.tol:g})",
        f"mean error: {errs.mean():.3e}",
    ]

    if args.variant == "E":
        # informative only: the Euclidean variant needs its reference center
        # moved with the data; holding the center fixed breaks covariance
        t = np.array([0.3, -0.2, 0.5])
        moved = TokenBatch(
            batch.points + t, vectors=batch.vectors, scalars=batch.scalars,
            center=batch.center,
        )
        got_p, got_s = forward(model, moved)
        want_p, want_s = forward(model, batch)
        scale = max(np.abs(want_p + t).max(), 1e-30)
        drift = np.abs(got_p - (want_p + t)).max() / scale
        payload["uncompensated_translation_error"] = float(drift)
        lines.append(
            f"uncompensated translation (center held fixed): {drift:.3e} "
            "(informative, not gated; re-center to restore covariance)"
        )

    lines.append("PASS" if passed else "FAIL")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if passed else 1


# -- demo-attention ----------------------------------------------------------------


DEMO_ALGEBRA = {"ega_distance": "ega", "cga_inner": "cga", "plain_inner": "pga"}


def _demo_channels(variant, points):
    if variant == "ega_distance":
        mv = embed_point_ega(points, np.zeros(3))
    elif variant == "cga_inner":
        mv = embed_point_cga(points)
    else:
        mv = embed_point_pga(points)
    return MvChannels(DEMO_ALGEBRA[variant], mv[:, None, :])


def cmd_demo_attention(args):
    points = load_points(args.points) if args.points else np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
    )
    x = _demo_channels(args.variant, points)
    pc = (0,) if args.variant == "ega_distance" else ()
    logits = attn_logits(args.variant, x, x, point_channels=pc)

    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    if args.variant == "ega_distance":
        reference = -d2
        ref_label = "-|p-q|^2"
    elif args.variant == "cga_inner":
        reference = -0.5 * d2
        ref_label = "-|p-q|^2 / 2"
    else:
        # degenerate metric: every pairwise logit is the same constant
        reference = np.full_like(logits, logits.mean())
        ref_label = "constant column"
    deviation = float(np.abs(logits - reference).max())
    passed = deviation <= args.tol

    lines = [
        f"variant {args.variant} ({DEMO_ALGEBRA[args.variant]}), "
        f"{len(points)} points, reference {ref_label}",
        f"{'i':>3} {'j':>3} {'logit':>22} {'reference':>22}",
    ]
    for i in range(len(points)):
        for j in range(len(points)):
            lines.append(
                f"{i:>3} {j:>3} {logits[i, j]:>22.12g} {reference[i, j]:>22.12g}"
            )
    lines.append(f"max deviation: {deviation:.3e} (tol {args.tol:g})")
    lines.append("PASS" if passed else "FAIL")

    payload = {
        "variant": args.variant,
        "algebra": DEMO_ALGEBRA[args.variant],
        "points": points.tolist(),
        "logits": logits.tolist(),
        "reference": reference.tolist(),
        "max_deviation": deviation,
        "tol": args.tol,
        "passed": passed,
    }
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if passed else 1


# -- norm-probe ---------------------------------------------------------------------


def _probe_input(name):
    # fixed inputs that expose each algebra's normalization behavior.  The
    # conformal probe 1 + e- is null by cross-grade cancellation: the plain
    # denominator vanishes (growth 1/sqrt(eps) per step) while per-grade
    # magnitudes stay away from zero, so per_grade_abs stays bounded on the
    # very same input.  A single-grade null vector would grow under both.
    if name == "cga":
        alg = get_algebra("cga")
        return alg.blade("1") + alg.blade("e-")
    if name == "pga":
        return embed_point_pga(np.array([0.3, -0.7, 1.1]))
    return 2.0 * get_algebra("ega").blade("e2")


def cmd_norm_probe(args):
    if args.iterations < 0:
        raise ValueError(f"--iterations must be at least 0, got {args.iterations}")
    default = default_norm_config(args.algebra)
    variant = args.norm_variant or default.variant
    epsilon = args.epsilon if args.epsilon is not None else default.epsilon
    # the probe exists to measure instability, so plain+cga is allowed here
    cfg = NormConfig(variant, epsilon, allow_unstable=True)

    x = MvChannels(args.algebra, _probe_input(args.algebra)[None, None, :])
    series = [float(np.abs(x.mv).max())]
    for _ in range(args.iterations):
        x = equi_norm(cfg, x)
        series.append(float(np.abs(x.mv).max()))

    payload = {
        "algebra": args.algebra,
        "variant": variant,
        "epsilon": epsilon,
        "iterations": args.iterations,
        "max_abs_coeff": series,
    }
    rows = [f"{i},{v:.17g}" for i, v in enumerate(series)]
    _emit(args, payload, "iteration,max_abs_coeff\n" + "\n".join(rows) + "\n")
    return 0


# -- parser -------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gaeq",
        description="geometric algebra equivariance toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="write multiplication tables as JSON")
    p.add_argument("--algebra", choices=ALGEBRAS, help="one algebra (default: all)")
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("solve-basis", help="solve the equivariant map basis")
    p.add_argument("--algebra", choices=ALGEBRAS, required=True)
    p.add_argument("--group", choices=("e3", "se3"), default="e3")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the solved basis as JSON")
    p.set_defaults(func=cmd_solve_basis)

    p = sub.add_parser("verify-conjecture", help="span versus null-space dimensions")
    p.add_argument("--l-max", type=int, default=2, help="largest arity (2..4)")
    p.add_argument("--long", action="store_true", help="enable long-running cases")
    p.add_argument(
        "--include-heavy",
        action="store_true",
        help="include the conformal arity-4 case",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON report")
    p.set_defaults(func=cmd_verify_conjecture)

    p = sub.add_parser("check-equivariance", help="transformer drift under motions")
    p.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tokens", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--mv-channels", type=int, default=None)
    p.add_argument("--scalar-channels", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report")
    p.set_defaults(func=cmd_check_equivariance)

    p = sub.add_parser("demo-attention", help="distance identities in the logits")
    p.add_argument("--variant", choices=sorted(DEMO_ALGEBRA), required=True)
    p.add_argument("--points", help="CSV (x,y,z rows) or JSON point file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report")
    p.set_defaults(func=cmd_demo_attention)

    p = sub.add_parser("norm-probe", help="normalization growth series as CSV")
    p.add_argument("--algebra", choices=ALGEBRAS, required=True)
    p.add_argument(
        "--norm-variant",
        choices=("plain", "abs", "per_grade_abs"),
        default=None,
        help="default: the algebra's standard variant",
    )
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the series")
    p.set_defaults(func=cmd_norm_probe)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad argument values and unreadable files are usage errors, not crashes
        print(f"gaeq: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
