import numpy as np
import pytest
import scipy.linalg

from gaeq.algebra import ga_exp, geometric_product, get_algebra, inner, sandwich
from gaeq.groups import (
    EuclideanMotion,
    RepMatrix,
    Versor,
    _kron,
    constraint_rows,
    drho,
    generators,
    lie_generators,
    mirror_versor,
    random_group_element,
    random_motion,
    rho,
)
from oracles import expm_taylor, rotation_matrix


def test_versor_rejects_non_unit(ega):
    with pytest.raises(ValueError):
        Versor(ega, 2.0 * ega.unit())


def test_rho_identity(any_algebra):
    u = Versor(any_algebra, any_algebra.unit())
    np.testing.assert_allclose(rho(any_algebra, u), np.eye(any_algebra.size), atol=1e-14)


def test_rho_is_homomorphism(any_algebra, rng):
    alg = any_algebra
    for group in ("se3", "e3"):
        u = random_group_element(alg, group, rng)
        v = random_group_element(alg, group, rng)
        lhs = rho(alg, u.compose(v))
        rhs = rho(alg, u) @ rho(alg, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rho_matches_sandwich_columns(pga, rng):
    u = random_group_element(pga, "e3", rng)
    m = rho(pga, u)
    for j in range(pga.size):
        e = np.zeros(pga.size)
        e[j] = 1.0
        np.testing.assert_allclose(m[:, j], u.apply(e), atol=1e-12)


def test_rotor_matches_rotation_matrix(ega):
    # exp(-theta/2 e12) rotates e1 toward e2 by theta: the frozen convention
    theta = 0.61
    u = Versor(ega, ga_exp(ega, -theta / 2 * ega.blade("e12")))
    block = rho(ega, u)[np.ix_([1, 2, 4], [1, 2, 4])]
    np.testing.assert_allclose(block, rotation_matrix([0, 0, 1], theta), atol=1e-13)


def test_mirror_versor_is_involution(any_algebra):
    m = rho(any_algebra, mirror_versor(any_algebra))
    np.testing.assert_allclose(m @ m, np.eye(any_algebra.size), atol=1e-13)


def test_drho_frozen_values(ega, pga):
    e1 = ega.blade("e1")
    got = drho(ega, ega.blade("e12")) @ e1
    np.testing.assert_allclose(got, -2.0 * ega.blade("e2"), atol=1e-14)
    # e0 commutes with the degenerate translation bivectors
    got = drho(pga, pga.blade("e01")) @ pga.blade("e0")
    np.testing.assert_allclose(got, np.zeros(pga.size), atol=1e-15)


def test_drho_linear(cga, rng):
    x, y = (rng.uniform(-1, 1, cga.size) for _ in range(2))
    np.testing.assert_allclose(
        drho(cga, 2.0 * x - y), 2.0 * drho(cga, x) - drho(cga, y), atol=1e-12
    )


def test_exp_compatibility(any_algebra, rng):
    """rho(exp(X)) equals expm(drho(X)) for Lie generator combinations."""
    alg = any_algebra
    gens = lie_generators(alg)
    for _ in range(50):
        coeffs = rng.uniform(-1, 1, len(gens))
        b = sum(c * g for c, g in zip(coeffs, gens))
        scale = np.abs(b).max()
        if scale > 0.5:
            b *= 0.5 / scale
        lhs = rho(alg, Versor(alg, ga_exp(alg, b)))
        rhs = expm_taylor(drho(alg, b))
        assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-8


def test_expm_oracle_against_scipy(rng):
    m = rng.normal(size=(12, 12))
    np.testing.assert_allclose(expm_taylor(m), scipy.linalg.expm(m), atol=1e-9)


def test_generator_sets(ega, pga, cga):
    rot_names = [("e1", "e2"), ("e2", "e3"), ("e1", "e3")]
    for alg, extra in ((ega, 0), (pga, 3), (cga, 3)):
        lie, disc = generators(alg, "e3")
        assert len(lie) == 3 + extra
        assert len(disc) == 1 and disc[0].odd
        for g, (a, b) in zip(lie[:3], rot_names):
            want = geometric_product(alg, alg.blade("e" + a[1]), alg.blade("e" + b[1]))
            np.testing.assert_array_equal(g, want)
        _, disc = generators(alg, "se3")
        assert disc == []
    # translation generators annihilate against the invariant direction
    for g in lie_generators(pga)[3:]:
        assert geometric_product(pga, g, pga.blade("e0"))[0] == 0
        np.testing.assert_allclose(
            sandwich(pga, ga_exp(pga, g), pga.blade("e0")), pga.blade("e0"), atol=1e-14
        )
    for g in lie_generators(cga)[3:]:
        np.testing.assert_allclose(
            sandwich(cga, ga_exp(cga, g), cga.infinity), cga.infinity, atol=1e-13
        )


def test_random_group_element_deterministic(cga):
    a = random_group_element(cga, "e3", np.random.default_rng(5))
    b = random_group_element(cga, "e3", np.random.default_rng(5))
    np.testing.assert_array_equal(a.value, b.value)
    assert a.odd == b.odd


def test_group_action_preserves_inner(ega, cga, rng):
    for alg in (ega, cga):
        u = random_group_element(alg, "e3", rng)
        x, y = (rng.uniform(-1, 1, alg.size) for _ in range(2))
        np.testing.assert_allclose(
            inner(alg, u.apply(x), u.apply(y)), inner(alg, x, y), atol=1e-10
        )


# -- Euclidean motions -------------------------------------------------------


def test_motion_affine_composition(rng):
    m = random_motion(rng, 4)
    pts = rng.normal(size=(10, 3))
    got = m.apply_points(pts)
    # apply the reflections one by one
    want = pts.copy()
    for n, delta in m.planes:
        want = want - 2.0 * ((want @ n) - delta)[:, None] * n[None, :]
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.allclose(m.linear @ m.linear.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(m.linear), 1.0)


def test_motion_parity(rng):
    assert not random_motion(rng, 2).odd
    assert random_motion(rng, 3).odd
    m = random_motion(rng, 3)
    assert np.isclose(np.linalg.det(m.linear), -1.0)


def test_motion_fixes_center(rng):
    center = np.array([0.5, -1.0, 2.0])
    m = random_motion(rng, 2, center=center)
    np.testing.assert_allclose(m.apply_points(center), center, atol=1e-12)


def test_motion_ega_versor_requires_center(ega, rng):
    m = random_motion(rng, 2)
    with pytest.raises(ValueError):
        m.versor(ega)


def test_motion_versor_matches_linear_part(ega, rng):
    center = np.array([1.0, 2.0, 3.0])
    m = random_motion(rng, 2, center=center)
    u = m.versor(ega, center=center)
    block = rho(ega, u)[np.ix_([1, 2, 4], [1, 2, 4])]
    np.testing.assert_allclose(block, m.linear, atol=1e-12)


# -- constraint rows ----------------------------------------------------------


def test_constraint_rows_trivial(rng):
    eye = RepMatrix(np.eye(4), "group")
    out = constraint_rows(eye, [eye])
    np.testing.assert_array_equal(out, np.zeros((16, 16)))
    zero = RepMatrix(np.zeros((4, 4)), "lie")
    np.testing.assert_array_equal(constraint_rows(zero, [zero]), np.zeros((16, 16)))


def test_kron_matches_numpy(rng):
    for sa, sb in (((3, 4), (5, 2)), ((1, 1), (7, 7)), ((10, 10), (1, 1))):
        a = rng.standard_normal(sa)
        b = rng.standard_normal(sb)
        np.testing.assert_array_equal(_kron(a, b), np.kron(a, b))


def test_constraint_rows_rejects_mixed_flavor():
    with pytest.raises(ValueError):
        constraint_rows(RepMatrix(np.eye(2), "lie"), [RepMatrix(np.eye(2), "group")])


def test_constraint_rows_annihilate_equivariant_maps(ega, rng):
    # the identity map is equivariant; so is any grade projection
    lie, disc = generators(ega, "e3")
    rows = [
        constraint_rows(RepMatrix(drho(ega, x), "lie"), [RepMatrix(drho(ega, x), "lie")])
        for x in lie
    ]
    g = rho(ega, disc[0])
    rows.append(constraint_rows(RepMatrix(g, "group"), [RepMatrix(g, "group")]))
    stack = np.vstack(rows)
    for k in range(4):
        proj = np.diag((ega.grades == k).astype(float))
        assert np.abs(stack @ proj.reshape(-1)).max() < 1e-12


def test_stacked_constraint_rank_full_space(ega):
    """The full-algebra linear constraint stack leaves exactly 4 degrees of
    freedom for the Euclidean group with mirrors."""
    lie, disc = generators(ega, "e3")
    rows = [
        constraint_rows(RepMatrix(drho(ega, x), "lie"), [RepMatrix(drho(ega, x), "lie")])
        for x in lie
    ]
    g = rho(ega, disc[0])
    rows.append(constraint_rows(RepMatrix(g, "group"), [RepMatrix(g, "group")]))
    stack = np.vstack(rows)
    assert np.linalg.matrix_rank(stack, tol=1e-10) == 64 - 4
