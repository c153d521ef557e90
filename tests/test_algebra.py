import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaeq.algebra import (
    Algebra,
    ExpConvergenceError,
    NonInvertibleError,
    blade_coefficient,
    ga_exp,
    geometric_product,
    get_algebra,
    grade_project,
    inner,
    involute,
    join,
    left_mult_matrix,
    mv_inverse,
    reverse,
    right_mult_matrix,
    sandwich,
    wedge,
)
from gaeq.algebra import _BLOCK_ROWS, _REP_ROWS, _bilinear
from oracles import (
    GENERATOR_SQUARES,
    brute_blade_product,
    brute_join,
    brute_multivector_product,
    brute_wedge,
    rotor_exp,
)


def random_mv(alg, rng, scale=1.0):
    return rng.uniform(-scale, scale, alg.size)


# -- blade table and products ----------------------------------------------


def test_worked_product_bivector_times_bivector(ega):
    # e2 e3 e1 e2 = -e1 e3 after moving e1 left twice and cancelling e2 e2
    got = geometric_product(ega, ega.blade("e23"), ega.blade("e12"))
    want = -ega.blade("e13")
    np.testing.assert_array_equal(got, want)


def test_generator_squares(any_algebra):
    alg = any_algebra
    for i, sq in enumerate(alg.squares):
        v = np.zeros(alg.size)
        v[1 << i] = 1.0
        p = geometric_product(alg, v, v)
        assert p[0] == sq
        assert np.all(p[1:] == 0)


def test_generators_anticommute(any_algebra):
    alg = any_algebra
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            a = np.zeros(alg.size)
            a[1 << i] = 1.0
            b = np.zeros(alg.size)
            b[1 << j] = 1.0
            ab = geometric_product(alg, a, b)
            ba = geometric_product(alg, b, a)
            np.testing.assert_array_equal(ab, -ba)


def test_product_against_brute_force_multiplier(any_algebra, rng):
    alg = any_algebra
    squares = GENERATOR_SQUARES[alg.name]
    for _ in range(50):
        x, y = random_mv(alg, rng), random_mv(alg, rng)
        got = geometric_product(alg, x, y)
        want = brute_multivector_product(x, y, squares)
        assert np.abs(got - want).max() < 1e-12


# signatures outside the three built-in algebras: mixed squares with
# degenerate generators first, last and in between
OTHER_SIGNATURES = [(1, -1, 0, 1, 1, -1), (0, 1, -1, 1, 0)]


@pytest.mark.parametrize("squares", OTHER_SIGNATURES, ids=str)
def test_other_signatures_match_oracle(squares, rng):
    alg = Algebra("custom", squares, [str(i) for i in range(len(squares))])
    gens = [tuple(i for i in range(alg.n) if a >> i & 1) for a in range(alg.size)]
    for a in range(alg.size):
        for b in range(alg.size):
            sign, out = brute_blade_product(gens[a], gens[b], squares)
            assert alg.gp_sign[a, b] == sign
            if sign:
                assert alg.gp_mask[a, b] == sum(1 << g for g in out)
    for _ in range(3):
        x, y = random_mv(alg, rng), random_mv(alg, rng)
        np.testing.assert_allclose(wedge(alg, x, y), brute_wedge(x, y, squares), atol=1e-12)
        np.testing.assert_allclose(join(alg, x, y), brute_join(x, y, squares), atol=1e-12)


# (x shape, y shape) with None for the blade axis: a broadcast (T, C, n) x (n,)
# pair, 67 rows (one full 64-row block of the kernel and a partial one) and
# zero tokens; test_kernel_matches_dense_contraction covers the block edges
BATCH_SHAPES = [
    ((5, 3, None), (None,)),
    ((None,), (5, 3, None)),
    ((67, None), (67, None)),
    ((0, 3, None), (None,)),
]
KERNELS = [
    pytest.param(name, kernel, oracle, id=f"{name}-{kernel.__name__}")
    for kernel, oracle, names in [
        (geometric_product, brute_multivector_product, ("ega", "pga", "cga")),
        (wedge, brute_wedge, ("ega", "pga", "cga")),
        (join, brute_join, ("pga",)),
    ]
    for name in names
]


@pytest.mark.parametrize("shapes", BATCH_SHAPES, ids=["TCn*n", "n*TCn", "67rows", "empty"])
@pytest.mark.parametrize("name,kernel,oracle", KERNELS)
def test_batched_products_match_oracle(name, kernel, oracle, shapes, rng):
    alg = get_algebra(name)
    squares = GENERATOR_SQUARES[name]
    x, y = (rng.uniform(-1, 1, tuple(alg.size if d is None else d for d in s)) for s in shapes)
    got = kernel(alg, x, y)
    xb, yb = np.broadcast_arrays(x, y)
    assert got.shape == xb.shape
    want = [oracle(a, b, squares) for a, b in zip(xb.reshape(-1, alg.size), yb.reshape(-1, alg.size))]
    want = np.reshape(want, xb.shape)
    assert np.abs(got - want).max(initial=0.0) < 1e-12


# row counts around the structure-tensor kernel's 64-row blocks: none, one,
# one short of a block, one block, one over, two blocks and one more
KERNEL_ROWS = (0, 1, 63, 64, 65, 129)
# and, for the conformal matrix product only, around its 256-row chunks
REP_ROWS = (255, 256, 257, 513)


def kernel_rows(alg, kernel):
    """(rows per block or chunk, row counts to test) of the kernel behind
    kernel(alg, x, y)."""
    if kernel is geometric_product and alg.rep is not None:
        return _REP_ROWS, KERNEL_ROWS + REP_ROWS
    return _BLOCK_ROWS, KERNEL_ROWS


# (x shape, y shape) per layout, r for the row count and None for the blade
# axis: matching rows, x broadcast against rows of y, and an outer broadcast
# of r x rows against 2 y rows
KERNEL_LAYOUTS = {
    "rows": (("r", None), ("r", None)),
    "x-broadcast": ((None,), ("r", None)),
    "outer": (("r", 1, None), (2, None)),
}
KERNEL_TENSORS = {geometric_product: "gp_tensor", wedge: "wedge_tensor", join: "join_tensor"}


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from([p.values for p in KERNELS]),
    layout=st.sampled_from(sorted(KERNEL_LAYOUTS)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_matches_dense_contraction(case, layout, seed, data):
    # the product kernel against the dense contraction
    # z_k = sum_ab T[a, b, k] x_a y_b done by einsum and against the
    # structure-tensor kernel, entry by entry relative to the same
    # contraction of the magnitudes (a bound on the rounding of either), and
    # against the oracle on the rows either side of the first block edge of
    # either kernel and on the last row
    name, kernel, oracle = case
    alg = get_algebra(name)
    edge, row_counts = kernel_rows(alg, kernel)
    rows = data.draw(st.sampled_from(row_counts), label="rows")
    rng = np.random.default_rng(seed)
    x, y = (
        rng.uniform(-1, 1, tuple({"r": rows, None: alg.size}.get(d, d) for d in s))
        for s in KERNEL_LAYOUTS[layout]
    )
    tensor = getattr(alg, KERNEL_TENSORS[kernel])
    got = kernel(alg, x, y)
    want = np.einsum("...a,...b,abk->...k", x, y, tensor)
    assert got.shape == want.shape
    scale = np.einsum("...a,...b,abk->...k", np.abs(x), np.abs(y), np.abs(tensor))
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    assert np.all(np.abs(got - _bilinear(x, y, tensor)) <= 1e-13 * scale)
    xb, yb = (a.reshape(-1, alg.size) for a in np.broadcast_arrays(x, y))
    flat = got.reshape(-1, alg.size)
    checked = {62, 63, 64, edge - 2, edge - 1, edge, flat.shape[0] - 1}
    for r in sorted(i for i in checked if 0 <= i < flat.shape[0]):
        want_r = oracle(xb[r], yb[r], GENERATOR_SQUARES[name])
        assert np.abs(flat[r] - want_r).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["ega", "pga", "cga"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_kernel_units_are_exact(name, seed, data):
    # the kernel adds only exact zeros around the unit's one term: the
    # scalar 1 is the geometric product's unit and the pseudoscalar the
    # join's, bit for bit, on either side
    alg = get_algebra(name)
    rows = data.draw(st.sampled_from(kernel_rows(alg, geometric_product)[1]), label="rows")
    y = np.random.default_rng(seed).uniform(-1, 1, (rows, alg.size))
    for a, b in [(alg.unit(), y), (y, alg.unit())]:
        assert np.array_equal(geometric_product(alg, a, b), y)
    if alg.degenerate:
        pseudo = alg.blade("e" + "".join(alg.labels))
        for a, b in [(pseudo, y), (y, pseudo)]:
            assert np.array_equal(join(alg, a, b), y)


def test_conformal_blade_matrices_multiply_as_blades(cga):
    # E_a E_b = gp_sign[a, b] E_(a ^ b) for all 1024 blade pairs, and every
    # E_a is a signed permutation matrix in the real form [[A, -B], [B, A]]
    mats = cga.rep.reshape(cga.size, 8, 8)
    prods = mats[:, None] @ mats[None]
    assert np.array_equal(prods, cga.gp_sign[:, :, None, None] * mats[cga.gp_mask])
    assert np.array_equal(np.abs(mats).sum(axis=1), np.ones((cga.size, 8)))
    assert np.array_equal(np.abs(mats).sum(axis=2), np.ones((cga.size, 8)))
    assert np.array_equal(mats[:, :4, :4], mats[:, 4:, 4:])
    assert np.array_equal(mats[:, :4, 4:], -mats[:, 4:, :4])


def test_conformal_back_map_is_exact(cga):
    # the blades are orthogonal, with squared norm 8 over the whole matrix
    # and 4 over the left 8x4 half the product is read from, so the map
    # back from that half is exactly its transpose over 4
    idx = (8 * np.arange(8)[:, None] + np.arange(4)).ravel()
    half = cga.rep[:, idx]
    assert np.array_equal(cga.rep_half, half)
    assert np.array_equal(cga.rep @ cga.rep.T, 8 * np.eye(cga.size))
    assert np.array_equal(half @ half.T, 4 * np.eye(cga.size))
    assert np.array_equal(cga.rep_back, half.T / 4)
    assert np.array_equal(cga.rep_back @ half, np.eye(cga.size))
    # only the conformal product goes through matrices
    assert get_algebra("ega").rep is None and get_algebra("pga").rep is None


def test_conformal_product_of_blades_is_exact(cga):
    # every blade pair multiplied at once through the matrices: each
    # intermediate is a multiple of 1/4, so the product is the sign table
    eye = np.eye(cga.size)
    assert np.array_equal(geometric_product(cga, eye[:, None], eye[None]), cga.gp_tensor)


def test_product_associative_on_blades(any_algebra):
    alg = any_algebra
    t = alg.gp_tensor
    for a in range(alg.size):
        # (e_a e_b) e_c over all b, c
        lhs = np.einsum("bk,kcm->bcm", t[a], t)
        # e_a (e_b e_c)
        rhs = np.einsum("bcp,pm->bcm", t, t[a])
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_associative_random(seed):
    rng = np.random.default_rng(seed)
    for name in ("ega", "pga", "cga"):
        alg = get_algebra(name)
        x, y, z = (rng.uniform(-1, 1, alg.size) for _ in range(3))
        lhs = geometric_product(alg, geometric_product(alg, x, y), z)
        rhs = geometric_product(alg, x, geometric_product(alg, y, z))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_distributes(seed):
    rng = np.random.default_rng(seed)
    alg = get_algebra("cga")
    x, y, z = (rng.uniform(-1, 1, alg.size) for _ in range(3))
    lhs = geometric_product(alg, x, y + z)
    rhs = geometric_product(alg, x, y) + geometric_product(alg, x, z)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_product_broadcasts(ega, rng):
    xs = rng.uniform(-1, 1, (4, 3, ega.size))
    ys = rng.uniform(-1, 1, (4, 3, ega.size))
    batched = geometric_product(ega, xs, ys)
    for i in range(4):
        for j in range(3):
            np.testing.assert_allclose(
                batched[i, j], geometric_product(ega, xs[i, j], ys[i, j])
            )


# -- involutions and grades -------------------------------------------------


def test_grade_projection_partitions(any_algebra, rng):
    alg = any_algebra
    x = random_mv(alg, rng)
    total = sum(grade_project(alg, x, k) for k in range(alg.max_grade + 1))
    np.testing.assert_allclose(total, x)
    for k in range(alg.max_grade + 1):
        p = grade_project(alg, x, k)
        np.testing.assert_allclose(grade_project(alg, p, k), p)


def test_grade_projection_out_of_range(ega, rng):
    x = random_mv(ega, rng)
    assert np.all(grade_project(ega, x, 7) == 0)


def test_reverse_signs_follow_grade(pga):
    # grade:     0  1  2  3  40
    for k, sign in [(0, 1), (1, 1), (2, -1), (3, -1), (4, 1)]:
        idx = pga.grade_indices(k)
        assert np.all(pga.reverse_signs[idx] == sign)


def test_reverse_antiautomorphism(any_algebra, rng):
    alg = any_algebra
    x, y = random_mv(alg, rng), random_mv(alg, rng)
    lhs = reverse(alg, geometric_product(alg, x, y))
    rhs = geometric_product(alg, reverse(alg, y), reverse(alg, x))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_involute_automorphism(any_algebra, rng):
    alg = any_algebra
    x, y = random_mv(alg, rng), random_mv(alg, rng)
    lhs = involute(alg, geometric_product(alg, x, y))
    rhs = geometric_product(alg, involute(alg, x), involute(alg, y))
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_inner_is_scalar_part_of_product_with_reverse(any_algebra, rng):
    alg = any_algebra
    x, y = random_mv(alg, rng), random_mv(alg, rng)
    want = geometric_product(alg, x, reverse(alg, y))[0]
    np.testing.assert_allclose(inner(alg, x, y), want, atol=1e-13)
    np.testing.assert_allclose(inner(alg, x, y), inner(alg, y, x), atol=1e-13)


def test_inner_metric_values(ega, pga, cga):
    assert inner(ega, ega.blade("e12"), ega.blade("e12")) == 1.0
    assert inner(pga, pga.blade("e0"), pga.blade("e0")) == 0.0
    assert inner(pga, pga.blade("e01"), pga.blade("e01")) == 0.0
    assert inner(cga, cga.blade("e+"), cga.blade("e+")) == 1.0
    assert inner(cga, cga.blade("e-"), cga.blade("e-")) == -1.0
    # full conformal pseudoscalar squares the e- in
    assert inner(cga, cga.blade("e123+-"), cga.blade("e123+-")) == -1.0


# -- wedge ------------------------------------------------------------------


def test_wedge_of_vectors_antisymmetric(any_algebra, rng):
    alg = any_algebra
    u = grade_project(alg, random_mv(alg, rng), 1)
    v = grade_project(alg, random_mv(alg, rng), 1)
    np.testing.assert_allclose(wedge(alg, u, v), -wedge(alg, v, u), atol=1e-13)
    assert np.abs(wedge(alg, u, u)).max() < 1e-13


def test_wedge_agrees_with_graded_product_part(any_algebra, rng):
    alg = any_algebra
    for k in range(alg.max_grade + 1):
        for l in range(alg.max_grade + 1):
            x = grade_project(alg, random_mv(alg, rng), k)
            y = grade_project(alg, random_mv(alg, rng), l)
            want = grade_project(alg, geometric_product(alg, x, y), k + l)
            np.testing.assert_allclose(wedge(alg, x, y), want, atol=1e-13)


def test_wedge_degenerate_direction(pga):
    got = wedge(pga, pga.blade("e0"), pga.blade("e1"))
    np.testing.assert_array_equal(got, pga.blade("e01"))
    # e0 e1 has no metric overlap so product and wedge agree
    np.testing.assert_array_equal(
        geometric_product(pga, pga.blade("e0"), pga.blade("e1")), pga.blade("e01")
    )


# -- inverse and exponential -------------------------------------------------


def test_inverse_of_versors(any_algebra, rng):
    alg = any_algebra
    # unit vector products are versors
    for nfac in (1, 2, 3):
        u = alg.unit()
        for _ in range(nfac):
            v = np.zeros(alg.size)
            vec = rng.normal(size=alg.n)
            if alg.name == "pga":
                vec[0] = 0.0  # keep the factor metrically unit
            if alg.name == "cga":
                vec[4] = 0.0
            vec /= np.linalg.norm(vec)
            for i, c in enumerate(vec):
                v[1 << i] = c
            u = geometric_product(alg, u, v)
        got = geometric_product(alg, u, mv_inverse(alg, u))
        want = alg.unit()
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_inverse_rejects_null(pga, cga):
    with pytest.raises(NonInvertibleError):
        mv_inverse(pga, pga.blade("e0"))
    null_point = cga.origin  # <o, o> = 0
    with pytest.raises(NonInvertibleError):
        mv_inverse(cga, null_point)


def test_exp_rotor_closed_form(ega):
    for angle in (0.3, 1.2, np.pi / 2):
        got = ga_exp(ega, angle * ega.blade("e12"))
        c, s = rotor_exp(angle, -1)  # e12 squares to -1
        want = c * ega.unit() + s * ega.blade("e12")
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_exp_nilpotent_closed_form(pga):
    x = 0.7 * pga.blade("e01") - 1.3 * pga.blade("e02")
    got = ga_exp(pga, x)
    want = pga.unit() + x
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_exp_hyperbolic_closed_form(cga):
    # e1 e- squares to +1
    b = geometric_product(cga, cga.blade("e1"), cga.blade("e-"))
    got = ga_exp(cga, 0.5 * b)
    c, s = rotor_exp(0.5, 1)
    want = c * cga.unit() + s * b
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_exp_inverse_pairs(any_algebra, rng):
    alg = any_algebra
    x = grade_project(alg, random_mv(alg, rng), 2)
    u = geometric_product(alg, ga_exp(alg, x), ga_exp(alg, -x))
    np.testing.assert_allclose(u, alg.unit(), atol=1e-12)


def test_exp_reports_nonconvergence(ega):
    with pytest.raises(ExpConvergenceError):
        ga_exp(ega, 100.0 * ega.blade("e12"), max_terms=8)


# -- sandwich -----------------------------------------------------------------


def test_sandwich_rotor_rotates(ega):
    theta = 0.77
    u = ga_exp(ega, -theta / 2 * ega.blade("e12"))
    got = sandwich(ega, u, ega.blade("e1"))
    want = np.cos(theta) * ega.blade("e1") + np.sin(theta) * ega.blade("e2")
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_sandwich_reflection_needs_twist(ega):
    # reflecting in the plane normal to e1 must flip e1 and fix e2
    got = sandwich(ega, ega.blade("e1"), ega.blade("e1"), odd=True)
    np.testing.assert_allclose(got, -ega.blade("e1"), atol=1e-15)
    got = sandwich(ega, ega.blade("e1"), ega.blade("e2"), odd=True)
    np.testing.assert_allclose(got, ega.blade("e2"), atol=1e-15)
    # without the twist the normal direction would be fixed instead
    got = sandwich(ega, ega.blade("e1"), ega.blade("e1"), odd=False)
    np.testing.assert_allclose(got, ega.blade("e1"), atol=1e-15)


def test_sandwich_is_product_homomorphism(any_algebra, rng):
    alg = any_algebra
    u = ga_exp(alg, grade_project(alg, random_mv(alg, rng), 2))
    x, y = random_mv(alg, rng), random_mv(alg, rng)
    lhs = sandwich(alg, u, geometric_product(alg, x, y))
    rhs = geometric_product(alg, sandwich(alg, u, x), sandwich(alg, u, y))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_sandwich_preserves_grade(any_algebra, rng):
    alg = any_algebra
    u = ga_exp(alg, 0.5 * grade_project(alg, random_mv(alg, rng), 2))
    for k in range(alg.max_grade + 1):
        x = grade_project(alg, random_mv(alg, rng), k)
        out = sandwich(alg, u, x)
        np.testing.assert_allclose(grade_project(alg, out, k), out, atol=1e-11)


# -- coefficient extraction ---------------------------------------------------


def test_blade_coefficient_roundtrip(any_algebra, rng):
    alg = any_algebra
    for _ in range(20):
        x = random_mv(alg, rng)
        got = np.array([blade_coefficient(alg, x, b) for b in range(alg.size)])
        np.testing.assert_allclose(got, x, atol=1e-13)


def test_blade_coefficient_batched(pga, rng):
    xs = rng.uniform(-1, 1, (7, pga.size))
    idx = pga.blade_index("e012")
    np.testing.assert_allclose(blade_coefficient(pga, xs, idx), xs[:, idx], atol=1e-13)


# -- join ---------------------------------------------------------------------


def test_join_only_for_degenerate(ega):
    with pytest.raises(ValueError):
        join(ega, ega.unit(), ega.unit())


def test_join_pseudoscalar_is_unit(pga):
    one = pga.unit()
    I = pga.blade("e0123")
    np.testing.assert_array_equal(join(pga, I, one), one)
    np.testing.assert_array_equal(join(pga, one, I), one)
    np.testing.assert_array_equal(join(pga, I, I), I)


def test_join_blade_support_rule(pga):
    # nonzero exactly when the two index sets cover all generators, and the
    # result is the shared-index blade with unit coefficient
    full = pga.size - 1
    for a in range(pga.size):
        for b in range(pga.size):
            s = pga.join_sign[a, b]
            if (a | b) != full:
                assert s == 0
            else:
                assert s in (-1.0, 1.0)
                assert pga.join_mask[a, b] == a & b


def test_join_example_shared_index(pga):
    got = join(pga, pga.blade("e012"), pga.blade("e03"))
    assert abs(abs(got[pga.blade_index("e0")]) - 1.0) < 1e-15
    got[pga.blade_index("e0")] = 0.0
    assert np.all(got == 0)


def test_join_associative(pga, rng):
    x, y, z = (rng.uniform(-1, 1, pga.size) for _ in range(3))
    lhs = join(pga, join(pga, x, y), z)
    rhs = join(pga, x, join(pga, y, z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_join_is_wedge_through_complement(pga, rng):
    # the complement map sends the join to the wedge of complements
    full = pga.size - 1

    def complement(x):
        out = np.zeros_like(x)
        for a in range(pga.size):
            out[full ^ a] += pga.rc_sign[a] * x[a]
        return out

    x, y = rng.uniform(-1, 1, pga.size), rng.uniform(-1, 1, pga.size)
    lhs = complement(join(pga, x, y))
    rhs = wedge(pga, complement(x), complement(y))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# -- conformal frame ----------------------------------------------------------


def test_conformal_frame_inner_products(cga):
    assert inner(cga, cga.infinity, cga.infinity) == 0.0
    assert inner(cga, cga.origin, cga.origin) == 0.0
    assert inner(cga, cga.infinity, cga.origin) == -1.0


def test_conformal_frame_product(cga):
    p = geometric_product(cga, cga.infinity, cga.origin)
    assert p[0] == -1.0
    rest = p.copy()
    rest[0] = 0.0
    # remainder is a pure bivector in the e+ e- plane
    assert np.abs(grade_project(cga, rest, 2) - rest).max() == 0.0
    assert abs(rest[cga.blade_index("e+-")]) == 1.0


# -- blade bookkeeping and shared tables ----------------------------------------


@pytest.mark.parametrize("name,blade,bad", [("ega", "e0", "0"), ("pga", "e+", "+"), ("cga", "e0", "0")])
def test_blade_index_names_unknown_generator(name, blade, bad):
    alg = get_algebra(name)
    with pytest.raises(ValueError) as exc:
        alg.blade_index(blade)
    msg = str(exc.value)
    assert repr(blade) in msg and repr(bad) in msg and str(alg.labels) in msg


TABLES = (
    "grades", "gp_sign", "gp_mask", "gp_tensor", "wedge_tensor", "inner_weights",
    "reverse_signs", "involute_signs", "join_sign", "join_mask", "join_tensor",
    "rc_sign", "infinity", "origin", "rep", "rep_half", "rep_back",
)


def test_shared_tables_are_read_only(any_algebra):
    # get_algebra hands out one instance, so a write into a table would
    # corrupt every later product
    alg = any_algebra
    tables = [getattr(alg, name, None) for name in TABLES]
    tables += alg._grade_masks + alg._grade_indices
    tables = [t for t in tables if t is not None]
    # the eight tables every algebra has, and a mask and an index per grade
    assert len(tables) >= 8 + 2 * (alg.n + 1)
    for t in tables:
        with pytest.raises(ValueError, match="read-only"):
            t[(0,) * t.ndim] = 1


# -- multiplication operators -------------------------------------------------


def test_mult_matrices(any_algebra, rng):
    alg = any_algebra
    x, y = random_mv(alg, rng), random_mv(alg, rng)
    np.testing.assert_allclose(
        left_mult_matrix(alg, x) @ y, geometric_product(alg, x, y), atol=1e-13
    )
    np.testing.assert_allclose(
        right_mult_matrix(alg, x) @ y, geometric_product(alg, y, x), atol=1e-13
    )


def test_mult_matrices_equal_einsum_formula(any_algebra, rng):
    # every entry is one signed coefficient of x, so the kernel-built
    # matrices must be bit for bit the structure tensor contractions
    alg = any_algebra
    for _ in range(3):
        x = rng.normal(size=alg.size)
        assert np.array_equal(left_mult_matrix(alg, x), np.einsum("a,abk->kb", x, alg.gp_tensor))
        assert np.array_equal(right_mult_matrix(alg, x), np.einsum("b,abk->ka", x, alg.gp_tensor))
