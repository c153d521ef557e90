"""Acceptance gate: nine checks, one printed pass/fail line each.

Run with -s (or read captured output) to see the lines.  Check 4 covers
arities 2 and 3 of every algebra (verify_conjecture's long cases).  The
arity-4 reports of ega, pga and pga with the join are pinned by
tests/test_verify_golden.py; cga at arity 4 stays a manual run through
the command line tool and never gates.
"""

import numpy as np

from gaeq.algebra import (
    geometric_product,
    get_algebra,
    inner,
    left_mult_matrix,
)
from gaeq.embeddings import embed_point_cga, embed_point_pga
from gaeq.groups import random_motion
from gaeq.layers import MvChannels, NormConfig, attn_logits, equi_norm
from gaeq.solver import (
    closed_form_basis,
    solve_linear_basis,
    span_residual,
    subspace_distance,
)
from gaeq.transformer import (
    ModelConfig,
    TokenBatch,
    build_model,
    center_of_mass,
    equivariance_error,
    forward,
)

from oracles import GENERATOR_SQUARES, brute_blade_product

RNG_SEED = 20240816

E3_DIMS = {"ega": 4, "pga": 9, "cga": 20}


def _report(num, label, ok, detail):
    line = f"[{num}/9] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_1_worked_blade_product():
    alg = get_algebra("ega")
    got = geometric_product(alg, alg.blade("e23"), alg.blade("e12"))
    want = -alg.blade("e13")
    ok = np.array_equal(got, want)
    _report(1, "e23 * e12 = -e13 exactly", ok, f"got {got[alg.blade_index('e13')]:+g} e13")


def test_2_solved_basis_dimensions():
    details = []
    ok = True
    for name, dim in E3_DIMS.items():
        basis = solve_linear_basis(name)
        dist = subspace_distance(basis.maps, closed_form_basis(name).maps)
        ok = ok and basis.dim == dim and dist < 1e-8
        details.append(f"{name} dim {basis.dim}/{dim} dist {dist:.1e}")
    _report(2, "mirror-group basis dims 4/9/20, distance < 1e-8", ok, "; ".join(details))


def test_3_pseudoscalar_maps_separate_the_groups():
    alg = get_algebra("ega")
    se3 = solve_linear_basis(alg, "se3")
    e3 = solve_linear_basis(alg, "e3")
    lmul = left_mult_matrix(alg, alg.blade("e123"))
    in_se3, out_e3 = [], []
    for k in range(4):
        proj = np.zeros((alg.size, alg.size))
        idx = alg.grade_indices(k)
        proj[idx, idx] = 1.0
        m = lmul @ proj
        in_se3.append(span_residual(se3.maps, m))
        out_e3.append(span_residual(e3.maps, m))
    ok = max(in_se3) < 1e-8 and min(out_e3) > 0.99
    _report(
        3,
        "pseudoscalar maps in rotation-group span only",
        ok,
        f"se3 residual <= {max(in_se3):.1e}, e3 residual >= {min(out_e3):.2f}",
    )


def test_4_span_equals_nullspace(verify_l3_long_reports):
    reports = verify_l3_long_reports
    cases = {(r.algebra, r.l, r.with_join) for r in reports}
    expected = {
        ("ega", 2, False), ("cga", 2, False),
        ("pga", 2, False), ("pga", 2, True),
        ("ega", 3, False), ("cga", 3, False),
        ("pga", 3, False), ("pga", 3, True),
    }
    ok = expected <= cases and all(r.passed for r in reports)
    verdicts = "; ".join(
        f"{r.algebra} l={r.l} join={r.with_join} "
        f"{r.span_dim}/{r.nullspace_dim} {r.expectation}"
        for r in reports
    )
    _report(4, "span = null space, gap without join [arities 2 and 3]", ok, verdicts)


def test_5_distance_attention_identities():
    rng = np.random.default_rng(RNG_SEED)
    q = rng.normal(scale=1.5, size=(1000, 3))
    k = rng.normal(scale=1.5, size=(1000, 3))
    want = -((q - k) ** 2).sum(axis=1)

    ega = get_algebra("ega")
    mq = np.zeros((1000, 1, ega.size))
    mk = np.zeros((1000, 1, ega.size))
    mq[:, 0, [1, 2, 4]] = q
    mk[:, 0, [1, 2, 4]] = k
    logits = attn_logits(
        "ega_distance", MvChannels(ega, mq), MvChannels(ega, mk), point_channels=(0,)
    )
    rel_e = np.abs(np.diag(logits) - want) / np.maximum(np.abs(want), 1.0)

    cga = get_algebra("cga")
    pq = np.stack([embed_point_cga(p) for p in q])
    pk = np.stack([embed_point_cga(p) for p in k])
    vals = inner(cga, pq, pk)
    rel_c = np.abs(vals - 0.5 * want) / np.maximum(np.abs(want), 1.0)

    ok = rel_e.max() < 1e-9 and rel_c.max() < 1e-9
    _report(
        5,
        "distance identities over 1000 random pairs",
        ok,
        f"euclidean rel {rel_e.max():.1e}, conformal rel {rel_c.max():.1e}",
    )


def test_6_projective_pairing_is_constant():
    alg = get_algebra("pga")
    basis = solve_linear_basis(alg)
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for _ in range(10):
        phi = np.tensordot(rng.normal(size=basis.dim), basis.maps, axes=1)
        psi = np.tensordot(rng.normal(size=basis.dim), basis.maps, axes=1)
        x = rng.normal(size=(100, 3))
        y = rng.normal(size=(100, 3))
        wx = np.stack([embed_point_pga(p) for p in x]) @ phi.T
        wy = np.stack([embed_point_pga(p) for p in y]) @ psi.T
        worst = max(worst, float(np.var(inner(alg, wx, wy))))
    ok = worst < 1e-18
    _report(
        6,
        "mapped-point pairings constant over 100 pairs x 10 map pairs",
        ok,
        f"max variance {worst:.1e}",
    )


def test_7_normalization_instability_witness():
    alg = get_algebra("cga")
    # null by cross-grade cancellation: the signed inner product vanishes
    # while every grade carries unit magnitude
    seed = (alg.blade("1") + alg.blade("e-"))[None, None, :]

    plain = NormConfig("plain", 0.01, allow_unstable=True)
    x = MvChannels(alg, seed.copy())
    series = [1.0]
    for _ in range(5):
        x = equi_norm(plain, x)
        series.append(float(np.abs(x.mv).max()))
    ratios = np.diff(np.log(np.array(series)))
    growth_ok = np.abs(np.exp(ratios) - 10.0).max() < 0.1  # 1/sqrt(0.01) within 1%

    bounded = NormConfig("per_grade_abs", 0.01)
    x = MvChannels(alg, seed.copy())
    peak = float(np.abs(x.mv).max())
    for _ in range(50):
        x = equi_norm(bounded, x)
        peak = max(peak, float(np.abs(x.mv).max()))
    bounded_ok = peak < 2.0

    ok = growth_ok and bounded_ok
    _report(
        7,
        "plain norm grows 1/sqrt(eps) per step, per-grade-abs bounded",
        ok,
        f"step ratios {np.exp(ratios).min():.4f}..{np.exp(ratios).max():.4f}, "
        f"bounded peak {peak:.3f} over 50 steps",
    )


def _sample_motion(variant, rng):
    if variant == "iP":
        return random_motion(rng, 2 * int(rng.integers(1, 3)))
    return random_motion(rng, int(rng.integers(1, 5)))


def test_8_model_equivariance_all_variants():
    rng = np.random.default_rng(RNG_SEED)
    details = []
    ok = True
    for variant in ("E", "P", "iP", "C"):
        cfg = ModelConfig(variant)
        model = build_model(cfg)
        points = rng.normal(size=(6, 3))
        batch = TokenBatch(
            points,
            vectors=rng.normal(size=(6, 3)),
            scalars=rng.normal(size=(6, 4)),
            center=center_of_mass(points) if variant == "E" else None,
        )
        errs = [
            equivariance_error(model, batch, _sample_motion(variant, rng))
            for _ in range(20)
        ]
        ok = ok and max(errs) < 1e-9
        details.append(f"{variant} {max(errs):.1e}")

        if variant == "E":
            # documented sensitivity: translating points while holding the
            # reference center fixed must break covariance
            t = np.array([0.4, -0.1, 0.3])
            moved = TokenBatch(
                batch.points + t, vectors=batch.vectors, scalars=batch.scalars,
                center=batch.center,
            )
            got, _ = forward(model, moved)
            base, _ = forward(model, batch)
            drift = np.abs(got - (base + t)).max() / np.abs(base + t).max()
            ok = ok and drift > 1e-3
            details.append(f"E stale-center drift {drift:.1e}")

    _report(8, "four variants equivariant over 20 motions", ok, "; ".join(details))


def _brute_tensor(squares):
    n = len(squares)
    size = 1 << n
    t = np.zeros((size, size, size))
    for a in range(size):
        gens_a = tuple(i for i in range(n) if a >> i & 1)
        for b in range(size):
            gens_b = tuple(i for i in range(n) if b >> i & 1)
            sign, gens_out = brute_blade_product(gens_a, gens_b, squares)
            if sign:
                mask = 0
                for g in gens_out:
                    mask |= 1 << g
                t[a, b, mask] = sign
    return t


def test_9_oracle_product_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    details = []
    ok = True
    for name in ("ega", "pga", "cga"):
        alg = get_algebra(name)
        t = _brute_tensor(GENERATOR_SQUARES[name])
        x = rng.normal(size=(1000, alg.size))
        y = rng.normal(size=(1000, alg.size))
        got = geometric_product(alg, x, y)
        want = np.einsum("na,nb,abk->nk", x, y, t)
        diff = np.abs(got - want).max()
        ok = ok and diff < 1e-12
        details.append(f"{name} {diff:.1e}")
    _report(9, "1000 products per algebra match swap-count oracle", ok, "; ".join(details))
