"""Point and plane embeddings: frozen forms, round trips, reflections,
translation conventions, and motion equivariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaeq.algebra import ga_exp, get_algebra, inner, sandwich, wedge
from gaeq.embeddings import (
    PointAtInfinityError,
    embed_plane_cga,
    embed_plane_pga,
    embed_point_cga,
    embed_point_ega,
    embed_point_pga,
    extract_point,
    pga_point_to_cga_point,
)
from gaeq.groups import lie_generators, random_motion

from oracles import reflect_point


def embed(alg, p, center=None):
    if alg.name == "ega":
        return embed_point_ega(p, center)
    if alg.name == "pga":
        return embed_point_pga(p)
    return embed_point_cga(p)


def embed_plane(alg, n, delta):
    return embed_plane_pga(n, delta) if alg.name == "pga" else embed_plane_cga(n, delta)


# -- frozen coefficient forms ------------------------------------------------


def test_pga_origin_is_unit_trivector(pga):
    m = embed_point_pga(np.zeros(3))
    want = np.zeros(pga.size)
    want[pga.blade_index("e123")] = 1.0
    assert np.array_equal(m, want)


def test_pga_unit_x_form(pga):
    # (1, 0, 0) -> -e023 + e123 on canonical blades
    m = embed_point_pga(np.array([1.0, 0.0, 0.0]))
    want = np.zeros(pga.size)
    want[pga.blade_index("e023")] = -1.0
    want[pga.blade_index("e123")] = 1.0
    assert np.array_equal(m, want)


def test_cga_origin_is_origin_vector(cga):
    assert np.array_equal(embed_point_cga(np.zeros(3)), cga.origin)


def test_cga_unit_x_form(cga):
    m = embed_point_cga(np.array([1.0, 0.0, 0.0]))
    want = cga.origin + cga.blade("e1") + 0.5 * cga.infinity
    np.testing.assert_allclose(m, want, atol=0)
    # in frame coefficients: e1 + eminus exactly
    assert m[cga.blade_index("e1")] == 1.0
    assert m[cga.blade_index("e+")] == 0.0
    assert m[cga.blade_index("e-")] == 1.0


def test_ega_embedding_offsets_by_center(ega, rng):
    p = rng.normal(size=3)
    c = rng.normal(size=3)
    m = embed_point_ega(p, c)
    assert np.array_equal(m[[1, 2, 4]], p - c)
    assert np.count_nonzero(np.delete(m, [1, 2, 4])) == 0
    assert np.array_equal(extract_point(m, "ega"), p - c)


def test_round_trip(any_algebra, rng):
    center = rng.normal(size=3)
    for _ in range(50):
        p = rng.normal(size=3) * rng.choice([0.1, 1.0, 10.0])
        m = embed(any_algebra, p, center)
        got = extract_point(m, any_algebra.name)
        want = p - center if any_algebra.name == "ega" else p
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * (1 + p @ p))


# -- homogeneous normalization and failure modes ------------------------------


@pytest.mark.parametrize("name", ["pga", "cga"])
@pytest.mark.parametrize("scale", [2.0, -0.3, 1e6, 1e-6, 1e-200])
def test_extract_ignores_representative_scale(name, scale, rng):
    p = rng.normal(size=3)
    m = embed(get_algebra(name), p)
    np.testing.assert_allclose(extract_point(scale * m, name), p, atol=1e-9)


def test_extract_infinite_cga_point_raises(cga):
    with pytest.raises(PointAtInfinityError):
        extract_point(cga.infinity, "cga")
    # pure directions have no origin part either
    with pytest.raises(PointAtInfinityError):
        extract_point(cga.blade("e1"), "cga")


def test_extract_infinite_pga_point_raises(pga):
    with pytest.raises(PointAtInfinityError):
        extract_point(pga.blade("e013"), "pga")


@pytest.mark.parametrize(
    "shape,bad,where",
    [((3,), (), ""), ((5, 3), (3,), " at token 3"), ((2, 4, 3), (1, 2), r" at token \(1, 2\)")],
)
def test_cga_embedding_overflow_names_first_point(shape, bad, where, rng):
    # |p|^2 overflows from about 1e154 on; the error names the point, and
    # the overflow itself is not flagged (over="raise" would turn it into a
    # FloatingPointError)
    p = rng.normal(size=shape)
    p[bad] *= 1e160
    with np.errstate(over="raise"), pytest.raises(ValueError, match=f"not finite{where}: "):
        embed_point_cga(p)


@pytest.mark.parametrize("name", ["pga", "cga"])
def test_batched_extract_names_first_point_at_infinity(name, rng):
    alg = get_algebra(name)
    m = embed(alg, rng.normal(size=(5, 3)))
    at_infinity = alg.infinity if name == "cga" else alg.blade("e013")
    m[3] = m[1] = at_infinity
    with pytest.raises(PointAtInfinityError, match="token 1: "):
        extract_point(m, name)
    with pytest.raises(PointAtInfinityError, match=r"token \(1, 0\): "):
        extract_point(m[:, None], name)


# -- batched calls --------------------------------------------------------------


def test_batched_embed_and_extract_match_per_point(any_algebra, rng):
    # leading axes (4, 5): every point's row must be what a single call gives
    name = any_algebra.name
    pts = rng.normal(size=(4, 5, 3)) * rng.choice([0.1, 1.0, 10.0], size=(4, 5, 1))
    center = rng.normal(size=3)
    batched = embed(any_algebra, pts, center)
    assert np.array_equal(batched, [[embed(any_algebra, p, center) for p in row] for row in pts])
    reps = batched * rng.uniform(0.5, 2.0, size=(4, 5, 1))
    got = extract_point(reps, name)
    assert got.shape == pts.shape
    assert np.array_equal(got, [[extract_point(m, name) for m in row] for row in reps])


def test_ega_center_broadcasts_with_points(rng):
    pts, centers = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    got = embed_point_ega(pts, centers)
    assert np.array_equal(got, [embed_point_ega(p, c) for p, c in zip(pts, centers)])


def test_extract_unknown_algebra():
    with pytest.raises(ValueError):
        extract_point(np.zeros(8), "qga")


def test_embed_rejects_bad_shapes():
    for embed_fn in (embed_point_pga, embed_point_cga, lambda p: embed_point_ega(p, np.zeros(3))):
        for bad in (np.zeros(4), np.zeros((4, 2)), np.float64(1.0)):
            with pytest.raises(ValueError):
                embed_fn(bad)
    with pytest.raises(ValueError):
        embed_point_ega(np.zeros((4, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        embed_plane_pga(np.array([0.0, 0.0, 2.0]), 0.0)  # not unit
    with pytest.raises(ValueError):
        embed_plane_cga(np.array([1.0, 1.0, 0.0]), 0.5)


# -- conformal metric identities ----------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.tuples(*[st.floats(-100.0, 100.0) for _ in range(3)]))
def test_cga_points_are_null(coords):
    cga = get_algebra("cga")
    p = np.array(coords)
    m = embed_point_cga(p)
    val = inner(cga, m, m)
    assert abs(val) < 1e-10 * (1.0 + (p @ p) ** 2)


def test_cga_inner_is_half_squared_distance(cga, rng):
    for _ in range(1000):
        p = rng.normal(size=3) * rng.choice([0.3, 1.0, 30.0])
        q = rng.normal(size=3) * rng.choice([0.3, 1.0, 30.0])
        got = inner(cga, embed_point_cga(p), embed_point_cga(q))
        want = -0.5 * float((p - q) @ (p - q))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# -- plane reflections ---------------------------------------------------------


@pytest.mark.parametrize("name", ["pga", "cga"])
def test_plane_sandwich_is_householder_reflection(name, rng):
    alg = get_algebra(name)
    for _ in range(100):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        delta = float(rng.uniform(-2.0, 2.0))
        p = rng.normal(size=3) * 3.0
        v = embed_plane(alg, n, delta)
        got = extract_point(sandwich(alg, v, embed(alg, p), odd=True), name)
        np.testing.assert_allclose(got, reflect_point(p, n, delta), atol=1e-10)


@pytest.mark.parametrize("name", ["pga", "cga"])
def test_reflecting_origin_lands_at_twice_offset(name):
    alg = get_algebra(name)
    n = np.array([0.0, 1.0, 0.0])
    delta = 0.7
    v = embed_plane(alg, n, delta)
    got = extract_point(sandwich(alg, v, embed(alg, np.zeros(3)), odd=True), name)
    np.testing.assert_allclose(got, 2.0 * delta * n, atol=1e-12)


@pytest.mark.parametrize("name", ["pga", "cga"])
def test_double_reflection_is_identity(name, rng):
    alg = get_algebra(name)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    v = embed_plane(alg, n, 1.3)
    p = rng.normal(size=3)
    once = sandwich(alg, v, embed(alg, p), odd=True)
    twice = sandwich(alg, v, once, odd=True)
    np.testing.assert_allclose(twice, embed(alg, p), atol=1e-12)


def test_pga_reflection_flips_orientation_coefficient(pga, rng):
    # the raw trivector picks up a sign; extraction normalizes it away
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    v = embed_plane_pga(n, 0.4)
    m = sandwich(pga, v, embed_point_pga(rng.normal(size=3)), odd=True)
    assert m[pga.blade_index("e123")] == pytest.approx(-1.0, abs=1e-12)


# -- translation conventions (frozen) ------------------------------------------


def test_pga_translator_convention(pga, rng):
    t = rng.normal(size=3)
    b = -0.5 * (
        t[0] * pga.blade("e01") + t[1] * pga.blade("e02") + t[2] * pga.blade("e03")
    )
    u = ga_exp(pga, b)
    p = rng.normal(size=3)
    m = sandwich(pga, u, embed_point_pga(p))
    np.testing.assert_allclose(extract_point(m, "pga"), p + t, atol=1e-12)
    # translators preserve the trivector normalization exactly
    assert m[pga.blade_index("e123")] == pytest.approx(1.0, abs=1e-15)


def test_cga_translator_convention(cga, rng):
    t = rng.normal(size=3)
    b = 0.5 * sum(
        t[i] * wedge(cga, cga.infinity, cga.blade(f"e{i + 1}")) for i in range(3)
    )
    u = ga_exp(cga, b)
    p = rng.normal(size=3)
    m = sandwich(cga, u, embed_point_cga(p))
    np.testing.assert_allclose(extract_point(m, "cga"), p + t, atol=1e-11)
    assert -inner(cga, m, cga.infinity) == pytest.approx(1.0, abs=1e-12)


def test_translation_generators_match_lie_list(cga):
    gens = lie_generators(cga)
    np.testing.assert_allclose(gens[3], wedge(cga, cga.infinity, cga.blade("e1")))


# -- motion equivariance --------------------------------------------------------


@pytest.mark.parametrize("name", ["pga", "cga"])
def test_embedding_commutes_with_motions(name, rng):
    alg = get_algebra(name)
    for k in range(20):
        motion = random_motion(rng, n_planes=1 + k % 3)
        u = motion.versor(alg)
        p = rng.normal(size=3) * 2.0
        got = extract_point(u.apply(embed(alg, p)), name)
        want = motion.apply_points(p)
        err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        assert err < 1e-10


def test_ega_embedding_commutes_with_centered_motions(ega, rng):
    center = rng.normal(size=3)
    for k in range(20):
        motion = random_motion(rng, n_planes=1 + k % 3, center=center)
        u = motion.versor(ega, center=center)
        p = rng.normal(size=3) * 2.0
        got = u.apply(embed_point_ega(p, center))
        want = embed_point_ega(motion.apply_points(p), center)
        np.testing.assert_allclose(got, want, atol=1e-10)


# -- projective-to-conformal bridge ----------------------------------------------


def test_pga_to_cga_origin(cga):
    np.testing.assert_allclose(
        pga_point_to_cga_point(embed_point_pga(np.zeros(3))), cga.origin, atol=0
    )


def test_pga_to_cga_matches_direct_embedding(rng):
    for _ in range(20):
        p = rng.normal(size=3) * 5.0
        got = pga_point_to_cga_point(embed_point_pga(p))
        np.testing.assert_allclose(got, embed_point_cga(p), atol=1e-10)
        # homogeneous representatives of the same point agree after the map
        got_scaled = pga_point_to_cga_point(-2.5 * embed_point_pga(p))
        np.testing.assert_allclose(got_scaled, got, atol=1e-10)


def test_pga_to_cga_commutes_with_motions(pga, cga, rng):
    for k in range(20):
        motion = random_motion(rng, n_planes=1 + k % 3)
        u_pga = motion.versor(pga)
        u_cga = motion.versor(cga)
        p = rng.normal(size=3)
        left = pga_point_to_cga_point(u_pga.apply(embed_point_pga(p)))
        right = u_cga.apply(embed_point_cga(p))
        right = right / -inner(cga, right, cga.infinity)
        np.testing.assert_allclose(left, right, atol=1e-9)
