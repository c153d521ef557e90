"""Layer tests: equivariance, exact identities, norm stability, attention."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gaeq.algebra import get_algebra, grade_project, inner
from gaeq.embeddings import (
    PointAtInfinityError,
    embed_point_cga,
    embed_point_ega,
    embed_point_pga,
    extract_point,
    pga_point_to_cga_point,
)
from gaeq.groups import random_group_element, rho
from gaeq.layers import (
    EquiLinear,
    GeometricBilinear,
    MvChannels,
    NormConfig,
    attention,
    attn_logits,
    default_norm_config,
    equi_norm,
    gated_nonlinearity,
    transform_channels,
)
from gaeq.layers import (
    _grade_forms,
    _norm_denominator,
    _shared_family,
    _sigmoid,
    _softmax_rows,
)
from gaeq.transformer import ModelConfig, build_model

N_GROUP_SAMPLES = 20
LAYER_TOL = 1e-10


def random_channels(alg, rng, tokens=4, channels=3, scalars=5):
    return MvChannels(
        alg,
        rng.normal(size=(tokens, channels, alg.size)),
        rng.normal(size=(tokens, scalars)),
    )


def commutation_error(layer_fn, x, group, rng, n=N_GROUP_SAMPLES):
    """max over group samples of rel error between layer(g.x) and g.layer(x)."""
    base = layer_fn(x)
    worst = 0.0
    for _ in range(n):
        g = random_group_element(x.algebra, group, rng)
        lhs = layer_fn(transform_channels(x, g))
        rhs = transform_channels(base, g)
        scale = max(np.abs(rhs.mv).max(), np.abs(rhs.scalars).max() if rhs.scalars.size else 0.0, 1e-30)
        err = np.abs(lhs.mv - rhs.mv).max()
        if rhs.scalars.size:
            err = max(err, np.abs(lhs.scalars - rhs.scalars).max())
        worst = max(worst, err / scale)
    return worst


# -- channel container -------------------------------------------------------------


class TestMvChannels:
    def test_shape_validation(self, ega):
        with pytest.raises(ValueError):
            MvChannels(ega, np.zeros((4, ega.size)))  # missing channel axis
        with pytest.raises(ValueError):
            MvChannels(ega, np.zeros((4, 2, ega.size + 1)))
        with pytest.raises(ValueError):
            MvChannels(ega, np.zeros((4, 2, ega.size)), np.zeros((3, 2)))

    @pytest.mark.parametrize("name", ["ega", "pga", "cga"])
    def test_rejects_zero_tokens(self, name):
        # the layers would otherwise fail inside numpy's reshape
        alg = get_algebra(name)
        with pytest.raises(ValueError, match="need at least one token, got 0"):
            MvChannels(alg, np.zeros((0, 2, alg.size)))

    def test_rejects_non_finite(self, ega):
        bad = np.zeros((2, 1, ega.size))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            MvChannels(ega, bad)

    def test_default_scalars_empty(self, any_algebra):
        x = MvChannels(any_algebra, np.zeros((3, 2, any_algebra.size)))
        assert x.scalars.shape == (3, 0)
        assert x.tokens == 3 and x.channels == 2 and x.scalar_channels == 0

    def test_accepts_algebra_name(self):
        x = MvChannels("pga", np.zeros((1, 1, 16)))
        assert x.algebra.name == "pga"

    def test_transform_fixes_scalars(self, cga, rng):
        x = random_channels(cga, rng)
        g = random_group_element(cga, "se3", rng)
        y = transform_channels(x, g)
        assert np.array_equal(y.scalars, x.scalars)
        r = rho(cga, g)
        assert np.allclose(y.mv, np.einsum("nm,tcm->tcn", r, x.mv))


# -- equivariant linear -------------------------------------------------------------


class TestEquiLinear:
    @pytest.mark.parametrize("group", ["e3", "se3"])
    def test_equivariance(self, any_algebra, group, rng):
        lin = EquiLinear(
            any_algebra, group, mv_in=3, mv_out=2, scalar_in=5, scalar_out=4, rng=rng
        )
        x = random_channels(any_algebra, rng)
        assert commutation_error(lin.apply, x, group, rng) < LAYER_TOL

    def test_exact_identity_round_trip(self, any_algebra, rng):
        lin = EquiLinear(
            any_algebra, "e3", mv_in=3, mv_out=3, scalar_in=5, scalar_out=5,
            init="exact_identity",
        )
        x = random_channels(any_algebra, rng)
        y = lin.apply(x)
        assert np.abs(y.mv - x.mv).max() == 0.0
        assert np.abs(y.scalars - x.scalars).max() == 0.0

    def test_exact_identity_needs_matching_counts(self, ega):
        with pytest.raises(ValueError):
            EquiLinear(ega, "e3", mv_in=2, mv_out=3, init="exact_identity")

    def test_identity_init_is_channel_mixing(self, pga, rng):
        # weights live on the identity map's coefficients, so the forward pass
        # is an exact channel-mixing matrix applied blade-wise
        lin = EquiLinear(pga, "e3", mv_in=3, mv_out=2, init="identity", rng=rng)
        x = MvChannels(pga, rng.normal(size=(4, 3, pga.size)))
        y = lin.apply(x)
        # recover the mixing matrix from the weight on the grade-0 projection
        b0 = lin.family_names.index("project_grade_0")
        chan = lin.weight[:, :, b0]
        expected = np.einsum("oc,tcn->ton", chan, x.mv)
        assert np.allclose(y.mv, expected, atol=1e-13)
        # per-grade inputs come back in their own grade
        for k in range(pga.max_grade + 1):
            xs = grade_project(pga, x.mv, k)
            lhs = lin.apply(MvChannels(pga, xs)).mv
            assert np.allclose(grade_project(pga, lhs, k), lhs, atol=1e-12)

    def test_vector_only_input_mixes_as_matrix(self, ega, rng):
        # pure grade-1 input: only the grade-1 projection map survives, so the
        # output vectors are an ordinary matrix mix of the input vectors
        lin = EquiLinear(ega, "e3", mv_in=3, mv_out=2, rng=rng)
        vecs = rng.normal(size=(5, 3, 3))
        mv = np.zeros((5, 3, ega.size))
        mv[:, :, ega.grade_indices(1)] = vecs
        y = lin.apply(MvChannels(ega, mv))
        b1 = lin.family_names.index("project_grade_1")
        expected = np.einsum("oc,tcv->tov", lin.weight[:, :, b1], vecs)
        out_vecs = y.mv[:, :, ega.grade_indices(1)]
        assert np.allclose(out_vecs, expected, atol=1e-14)
        # nothing leaks outside grade 1
        rest = y.mv.copy()
        rest[:, :, ega.grade_indices(1)] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_scalar_grade0_mixing(self, cga, rng):
        lin = EquiLinear(cga, "e3", mv_in=2, mv_out=2, scalar_in=3, scalar_out=3, rng=rng)
        # scalars feed only grade 0 of the multivector output
        x = MvChannels(cga, np.zeros((2, 2, cga.size)), rng.normal(size=(2, 3)))
        y = lin.apply(x)
        assert np.allclose(y.mv[:, :, 0], x.scalars @ lin.scalar_to_mv.T)
        assert np.abs(y.mv[:, :, 1:]).max() == 0.0
        # grade 0 of the input feeds the scalar output
        mv = np.zeros((2, 2, cga.size))
        mv[:, :, 0] = rng.normal(size=(2, 2))
        z = lin.apply(MvChannels(cga, mv, np.zeros((2, 3))))
        assert np.allclose(z.scalars, mv[:, :, 0] @ lin.mv_to_scalar.T)

    def test_channel_count_mismatch(self, ega, rng):
        lin = EquiLinear(ega, "e3", mv_in=3, mv_out=2)
        with pytest.raises(ValueError):
            lin.apply(random_channels(ega, rng, channels=4, scalars=0))

    def test_unknown_init(self, ega):
        with pytest.raises(ValueError):
            EquiLinear(ega, "e3", init="xavier")

    def test_state_round_trip(self, pga, rng):
        lin = EquiLinear(pga, "se3", mv_in=2, mv_out=2, scalar_in=2, scalar_out=2, rng=rng)
        x = random_channels(pga, rng, channels=2, scalars=2)
        before = lin.apply(x)
        saved = {k: v.copy() for k, v in lin.state().items()}
        lin.weight = lin.weight * 0.5
        lin.load_state(saved)
        after = lin.apply(x)
        assert np.array_equal(before.mv, after.mv)
        assert np.array_equal(before.scalars, after.scalars)

    def test_load_state_shape_check(self, ega):
        lin = EquiLinear(ega, "e3", mv_in=2, mv_out=2)
        bad = {k: np.zeros((1, 1)) for k in lin.state()}
        with pytest.raises(ValueError):
            lin.load_state(bad)

    def test_folded_apply_matches_two_einsum_formula(self, any_algebra, rng):
        # apply folds weight and family on every call, so edits in place and
        # load_state are both seen by the next call
        lin = EquiLinear(any_algebra, "se3", mv_in=3, mv_out=4, scalar_in=2, scalar_out=2, rng=rng)
        x = random_channels(any_algebra, rng, tokens=5, channels=3, scalars=2)

        def gap():
            mapped = np.einsum("bnm,tcm->tcbn", lin.family, x.mv)
            want = np.einsum("ocb,tcbn->ton", lin.weight, mapped)
            want[:, :, 0] += x.scalars @ lin.scalar_to_mv.T
            return np.abs(lin.apply(x).mv - want).max() / np.abs(want).max()

        assert gap() <= 1e-13
        lin.weight[:] = rng.normal(size=lin.weight.shape)
        assert gap() <= 1e-13
        state = {k: v.copy() for k, v in lin.state().items()}
        state["weight"] = rng.normal(size=lin.weight.shape)
        lin.load_state(state)
        assert gap() <= 1e-13

    def test_se3_family_is_larger(self, pga, rng):
        e3 = EquiLinear(pga, "e3", mv_in=1, mv_out=1)
        se3 = EquiLinear(pga, "se3", mv_in=1, mv_out=1)
        assert se3.family.shape[0] > e3.family.shape[0]

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["ega", "pga", "cga"]),
        group=st.sampled_from(["e3", "se3"]),
        mv_in=st.integers(1, 4),
        mv_out=st.integers(1, 4),
        scalar_in=st.integers(0, 3),
        scalar_out=st.integers(0, 3),
        tokens=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        name="cga", group="se3", mv_in=3, mv_out=2, scalar_in=2, scalar_out=1,
        tokens=1, seed=0,
    )
    def test_blocked_apply_matches_two_einsum_property(
        self, name, group, mv_in, mv_out, scalar_in, scalar_out, tokens, seed
    ):
        alg = get_algebra(name)
        rng = np.random.default_rng(seed)
        lin = EquiLinear(
            alg, group, mv_in=mv_in, mv_out=mv_out, scalar_in=scalar_in,
            scalar_out=scalar_out, rng=rng,
        )
        x = random_channels(alg, rng, tokens=tokens, channels=mv_in, scalars=scalar_in)
        mapped = np.einsum("bnm,tcm->tcbn", lin.family, x.mv)
        want = np.einsum("ocb,tcbn->ton", lin.weight, mapped)
        want[:, :, 0] += x.scalars @ lin.scalar_to_mv.T
        got = lin.apply(x)
        assert got.mv.shape == (tokens, mv_out, alg.size)
        assert np.abs(got.mv - want).max() <= 1e-14 * np.abs(want).max()
        want_s = x.scalars @ lin.scalar_weight.T + x.mv[:, :, 0] @ lin.mv_to_scalar.T
        assert np.array_equal(got.scalars, want_s)

    @pytest.mark.parametrize("group", ["e3", "se3"])
    def test_blocks_partition_blades_and_hold_family(self, any_algebra, group):
        fam = _shared_family(any_algebra, group)
        n = any_algebra.size
        # spatial part shared (e3), or shared up to the pseudoscalar (se3)
        k = 8 if group == "e3" else 4
        assert fam.blocks.shape == (k, n // k)
        assert np.array_equal(np.sort(fam.blocks.ravel()), np.arange(n))
        inside = np.zeros((n, n), dtype=bool)
        for block in fam.blocks:
            inside[np.ix_(block, block)] = True
        assert np.any(fam.maps[:, inside])
        assert not np.any(fam.maps[:, ~inside])
        for j, block in enumerate(fam.blocks):
            assert np.array_equal(fam.block_maps[:, j], fam.maps[:, block][:, :, block])

    def test_family_shared_and_read_only(self, rng):
        model = build_model(ModelConfig("C"))
        layers = [model.readout] + [
            layer.proj if isinstance(layer, GeometricBilinear) else layer
            for block in model.blocks
            for layer in block.named_layers().values()
        ]
        fam = layers[0]._family
        for layer in layers:
            assert layer._family is fam
            assert layer.family is fam.maps
        for array in (fam.maps, fam.identity, fam.blocks, fam.block_maps):
            with pytest.raises(ValueError):
                array.flat[0] = 1
        lin = EquiLinear(model.algebra, model.cfg.group, rng=rng)
        assert lin._family is fam


# -- geometric bilinear -------------------------------------------------------------


class TestGeometricBilinear:
    def test_equivariance_e3(self, any_algebra, rng):
        bil = GeometricBilinear(any_algebra, "e3", channels=3, scalar_channels=2, rng=rng)
        x = random_channels(any_algebra, rng, channels=3, scalars=2)
        y = random_channels(any_algebra, rng, channels=3, scalars=2)
        base = bil.apply(x, y)
        worst = 0.0
        for _ in range(N_GROUP_SAMPLES):
            g = random_group_element(any_algebra, "e3", rng)
            lhs = bil.apply(transform_channels(x, g), transform_channels(y, g))
            rhs = transform_channels(base, g)
            worst = max(worst, np.abs(lhs.mv - rhs.mv).max() / np.abs(rhs.mv).max())
        assert worst < LAYER_TOL

    def test_equivariance_pga_join_se3(self, pga, rng):
        bil = GeometricBilinear(pga, "se3", channels=2, use_join=True, rng=rng)
        x = random_channels(pga, rng, channels=2, scalars=0)
        y = random_channels(pga, rng, channels=2, scalars=0)
        base = bil.apply(x, y)
        for _ in range(N_GROUP_SAMPLES):
            g = random_group_element(pga, "se3", rng)
            lhs = bil.apply(transform_channels(x, g), transform_channels(y, g))
            rhs = transform_channels(base, g)
            assert np.abs(lhs.mv - rhs.mv).max() / np.abs(rhs.mv).max() < LAYER_TOL

    def test_scalar_left_input_reduces_to_projection(self, cga, rng):
        # gp(1, y) = y bit for bit, so with x the unit scalar the layer is
        # exactly the projection applied to y's channels
        bil = GeometricBilinear(cga, "e3", channels=3, scalar_channels=2, rng=rng)
        ones = np.zeros((4, 3, cga.size))
        ones[:, :, 0] = 1.0
        sx = rng.normal(size=(4, 2))
        x = MvChannels(cga, ones, sx)
        y = random_channels(cga, rng, channels=3, scalars=2)
        out = bil.apply(x, y)
        direct = bil.proj.apply(MvChannels(cga, y.mv, sx))
        assert np.array_equal(out.mv, direct.mv)
        assert np.array_equal(out.scalars, direct.scalars)

    def test_join_channel_carries_scalar(self, pga):
        # join(e0123, 1) = 1: with the projection weights pinned to read the
        # join channel through the identity map, the pseudoscalar paired with
        # the unit scalar comes out as a grade-0 unit
        bil = GeometricBilinear(pga, "se3", channels=1, use_join=True)
        bil.proj.weight[:] = 0.0
        bil.proj.weight[0, 1, :] = np.array(
            [1.0 if n.startswith("project_grade_") else 0.0 for n in bil.proj.family_names]
        )
        x = MvChannels(pga, pga.blade("e0123")[None, None, :])
        y = MvChannels(pga, pga.unit()[None, None, :])
        out = bil.apply(x, y)
        expected = np.zeros(pga.size)
        expected[0] = 1.0
        assert np.allclose(out.mv[0, 0], expected, atol=1e-14)

    def test_join_rejected_without_join_tensor(self, ega):
        with pytest.raises(ValueError):
            GeometricBilinear(ega, "e3", channels=1, use_join=True)

    def test_channel_count_preserved(self, pga, rng):
        bil = GeometricBilinear(pga, "se3", channels=4, use_join=True, rng=rng)
        x = random_channels(pga, rng, channels=4, scalars=0)
        out = bil.apply(x, x)
        assert out.channels == 4


# -- normalization ------------------------------------------------------------------


class TestNorm:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NormConfig("rms", 0.01)
        with pytest.raises(ValueError):
            NormConfig("plain", 0.0)
        with pytest.raises(ValueError):
            NormConfig("plain", -1.0)

    def test_defaults(self):
        assert default_norm_config("ega").variant == "plain"
        assert default_norm_config("ega").epsilon == 1e-6
        assert default_norm_config("pga").variant == "plain"
        assert default_norm_config("cga").variant == "per_grade_abs"

    def test_plain_rejected_for_cga(self, cga):
        x = MvChannels(cga, np.zeros((1, 1, cga.size)))
        with pytest.raises(ValueError):
            equi_norm(NormConfig("plain", 0.01), x)
        # opt-in flag allows it
        equi_norm(NormConfig("plain", 0.01, allow_unstable=True), x)

    def test_zero_input_stays_zero(self, any_algebra):
        x = MvChannels(any_algebra, np.zeros((3, 2, any_algebra.size)), np.zeros((3, 4)))
        y = equi_norm(default_norm_config(any_algebra), x)
        assert np.abs(y.mv).max() == 0.0
        assert np.abs(y.scalars).max() == 0.0

    def test_unit_vector_normalizes_to_unit(self, ega):
        mv = np.zeros((1, 1, ega.size))
        mv[0, 0, ega.blade_index("e2")] = 2.0
        y = equi_norm(NormConfig("plain", 1e-12), MvChannels(ega, mv))
        # |v| = 2, q = 4, denom = sqrt(4 + eps) -> unit output as eps -> 0
        norm = np.linalg.norm(y.mv[0, 0, ega.grade_indices(1)])
        assert abs(norm - 1.0) < 1e-9

    @pytest.mark.parametrize("variant", ["plain", "abs", "per_grade_abs"])
    @pytest.mark.parametrize("group", ["e3", "se3"])
    def test_denominator_invariance(self, any_algebra, variant, group, rng):
        cfg = NormConfig(variant, 0.01, allow_unstable=True)
        x = random_channels(any_algebra, rng)
        # keep the signed form's mean above -epsilon so the plain variant
        # stays real; invariance is scale-free
        x = MvChannels(any_algebra, x.mv * 0.02, x.scalars)
        d0 = _norm_denominator(cfg, x)
        for _ in range(N_GROUP_SAMPLES):
            g = random_group_element(any_algebra, group, rng)
            d1 = _norm_denominator(cfg, transform_channels(x, g))
            assert np.abs(d1 - d0).max() / np.abs(d0).max() < 1e-10

    def test_norm_commutes_with_group(self, any_algebra, rng):
        cfg = default_norm_config(any_algebra)
        x = random_channels(any_algebra, rng)
        group = "se3" if any_algebra.name != "ega" else "e3"
        assert commutation_error(lambda c: equi_norm(cfg, c), x, group, rng) < LAYER_TOL

    def test_scalar_channels_rms_normalized(self, ega, rng):
        x = MvChannels(ega, np.zeros((3, 1, ega.size)), rng.normal(size=(3, 64)) * 100.0)
        y = equi_norm(NormConfig("plain", 1e-9), x)
        rms = np.sqrt((y.scalars**2).mean(axis=1))
        assert np.abs(rms - 1.0).max() < 1e-6

    def test_plain_blows_up_on_null_point(self, cga):
        # a conformal point is null, so the signed quadratic form vanishes and
        # each pass divides by sqrt(eps): growth rate 1/sqrt(eps) per step
        eps = 0.01
        cfg = NormConfig("plain", eps, allow_unstable=True)
        x = MvChannels(cga, embed_point_cga(np.array([0.3, -0.7, 1.1]))[None, None, :])
        scales = []
        for _ in range(5):
            before = np.abs(x.mv).max()
            x = equi_norm(cfg, x)
            scales.append(np.abs(x.mv).max() / before)
        expected = 1.0 / np.sqrt(eps)
        for s in scales:
            assert abs(s - expected) / expected < 0.01

    def test_per_grade_abs_matches_projection_sum(self, any_algebra, rng):
        # one matmul against the graded inner weights, checked against the
        # sum of |<x_k, x_k>| over explicit grade projections
        def check(alg, x):
            want = sum(
                np.abs(inner(alg, grade_project(alg, x.mv, k), grade_project(alg, x.mv, k)))
                for k in range(alg.n + 1)
            )
            got = np.abs(_grade_forms(alg, x.mv)).sum(axis=-1)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            cfg = NormConfig("per_grade_abs", 0.01)
            denom = np.sqrt(want.mean(axis=1) + cfg.epsilon)
            assert np.abs(_norm_denominator(cfg, x) - denom).max() <= 1e-14 * denom.max()

        for _ in range(5):
            check(any_algebra, random_channels(any_algebra, rng, tokens=7, channels=4))
        if any_algebra.name == "cga":
            # the cancelling input of the test below
            mv = np.zeros((1, 1, any_algebra.size))
            mv[0, 0, 0] = 1.0
            mv[0, 0, any_algebra.blade_index("e-")] = 1.0
            check(any_algebra, MvChannels(any_algebra, mv))

    def test_per_grade_abs_bounded_on_cancelling_input(self, cga):
        # scalar 1 plus a unit negative-square vector: the signed form cancels
        # to zero but the per-grade magnitudes add, so the robust variant
        # contracts toward a fixed point instead of diverging
        mv = np.zeros((1, 1, cga.size))
        mv[0, 0, 0] = 1.0
        mv[0, 0, cga.blade_index("e-")] = 1.0
        plain_q = inner(cga, mv[0, 0], mv[0, 0])
        assert abs(plain_q) < 1e-14  # the input defeats the signed form
        cfg = NormConfig("per_grade_abs", 0.01)
        x = MvChannels(cga, mv)
        peak = 0.0
        for _ in range(50):
            x = equi_norm(cfg, x)
            peak = max(peak, np.abs(x.mv).max())
            assert np.isfinite(x.mv).all()
        assert peak < 2.0


# -- gated nonlinearity -------------------------------------------------------------


class TestGate:
    def test_zero_grade0_halves(self, pga, rng):
        mv = rng.normal(size=(3, 2, pga.size))
        mv[:, :, 0] = 0.0
        x = MvChannels(pga, mv)
        y = gated_nonlinearity(x)
        assert np.allclose(y.mv, 0.5 * mv, atol=1e-15)

    def test_monotone_in_grade0(self, ega):
        gates = []
        for g0 in (-2.0, 0.0, 3.0):
            mv = np.zeros((1, 1, ega.size))
            mv[0, 0, 0] = g0
            mv[0, 0, ega.blade_index("e1")] = 1.0
            y = gated_nonlinearity(MvChannels(ega, mv))
            gates.append(y.mv[0, 0, ega.blade_index("e1")])
        assert gates[0] < gates[1] < gates[2]

    def test_scalars_get_silu(self, ega, rng):
        s = rng.normal(size=(4, 6))
        x = MvChannels(ega, np.zeros((4, 1, ega.size)), s)
        y = gated_nonlinearity(x)
        assert np.allclose(y.scalars, s / (1.0 + np.exp(-s)), atol=1e-14)

    def test_sigmoid_stable_at_extremes(self, ega):
        mv = np.zeros((2, 1, ega.size))
        mv[0, 0, 0] = 1e4
        mv[1, 0, 0] = -1e4
        y = gated_nonlinearity(MvChannels(ega, mv))
        assert np.isfinite(y.mv).all()

    def test_equivariance(self, any_algebra, rng):
        x = random_channels(any_algebra, rng)
        group = "se3" if any_algebra.name != "ega" else "e3"
        assert commutation_error(gated_nonlinearity, x, group, rng) < LAYER_TOL


def masked_sigmoid(a):
    """The sigmoid as two boolean-masked branches, the reference the
    branch-free form must match bit for bit."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=64),
    scale=st.sampled_from([1.0, 5.0, 800.0]),
)
@example(values=[0.0, -0.0, 800.0, -800.0, 1e308, -1e308], scale=1.0)
def test_sigmoid_matches_masked_form_bitwise(values, scale):
    with np.errstate(over="ignore"):  # scaled past the float range: infinities
        a = np.asarray(values) * scale
    want, got = masked_sigmoid(a), _sigmoid(a)
    assert np.array_equal(want.view(np.int64), got.view(np.int64))


@pytest.mark.parametrize("shape", [(256, 8), (256, 16), (4096, 32)])
def test_sigmoid_matches_masked_form_on_draws(shape, rng):
    a = 5.0 * rng.normal(size=shape)
    a[0, :4] = [0.0, -0.0, 800.0, -800.0]
    assert np.array_equal(masked_sigmoid(a).view(np.int64), _sigmoid(a).view(np.int64))


# -- attention ----------------------------------------------------------------------


def embed_points(alg, pts, embed):
    return MvChannels(alg, np.stack([embed(p) for p in pts])[:, None, :])


class TestAttnLogits:
    def test_unknown_variant(self, ega, rng):
        x = random_channels(ega, rng)
        with pytest.raises(ValueError):
            attn_logits("cosine", x, x)

    def test_algebra_mismatch(self, ega, pga, rng):
        x = random_channels(ega, rng)
        with pytest.raises(ValueError):
            attn_logits("cga_inner", x, x)
        y = random_channels(pga, rng)
        with pytest.raises(ValueError):
            attn_logits("ega_distance", y, y, point_channels=(0,))

    def test_channel_count_mismatch(self, ega, rng):
        q = random_channels(ega, rng, channels=2, scalars=0)
        k = random_channels(ega, rng, channels=3, scalars=0)
        with pytest.raises(ValueError):
            attn_logits("plain_inner", q, k)

    def test_point_channel_required(self, ega, pga, rng):
        q = random_channels(ega, rng)
        with pytest.raises(ValueError):
            attn_logits("ega_distance", q, q)
        p = random_channels(pga, rng)
        with pytest.raises(ValueError):
            attn_logits("ip_pga_to_cga", p, p)

    def test_point_channel_range(self, ega, rng):
        q = random_channels(ega, rng, channels=2, scalars=0)
        with pytest.raises(ValueError):
            attn_logits("ega_distance", q, q, point_channels=(5,))

    @pytest.mark.parametrize("variant,algname", [("ega_distance", "ega"), ("ip_pga_to_cga", "pga")])
    def test_repeated_point_channel_raises(self, variant, algname, rng):
        # a repeated channel would add its distance term twice (and, for
        # ip_pga_to_cga, count it twice in the scale)
        x = random_channels(get_algebra(algname), rng, channels=2)
        with pytest.raises(ValueError, match=r"point channel 0 is repeated in \(0, 0\)"):
            attn_logits(variant, x, x, point_channels=(0, 0))
        with pytest.raises(ValueError, match="point channel 1 is repeated"):
            attn_logits(variant, x, x, point_channels=(1, 0, 1))

    def test_plain_inner_matches_manual(self, any_algebra, rng):
        q = random_channels(any_algebra, rng, tokens=3, channels=2, scalars=2)
        k = random_channels(any_algebra, rng, tokens=5, channels=2, scalars=2)
        logits = attn_logits("plain_inner", q, k)
        scale = 1.0 / np.sqrt(4)
        for i in range(3):
            for j in range(5):
                want = sum(
                    inner(any_algebra, q.mv[i, c], k.mv[j, c]) for c in range(2)
                ) + q.scalars[i] @ k.scalars[j]
                assert abs(logits[i, j] - want * scale) < 1e-12

    def test_ega_distance_exact(self, ega, rng):
        # bare positions in the designated channel give exactly -|q - k|^2
        center = np.zeros(3)
        pq = rng.uniform(-5, 5, size=(40, 3))
        pk = rng.uniform(-5, 5, size=(40, 3))
        q = embed_points(ega, pq, lambda p: embed_point_ega(p, center))
        k = embed_points(ega, pk, lambda p: embed_point_ega(p, center))
        logits = attn_logits("ega_distance", q, k, point_channels=(0,))
        want = -((pq[:, None, :] - pk[None, :, :]) ** 2).sum(axis=2)
        assert np.abs(logits - want).max() < 1e-12

    def test_ega_distance_frozen_example(self, ega):
        q = embed_points(ega, np.zeros((1, 3)), lambda p: embed_point_ega(p, np.zeros(3)))
        k = embed_points(ega, np.array([[1.0, 0, 0]]), lambda p: embed_point_ega(p, np.zeros(3)))
        logits = attn_logits("ega_distance", q, k, point_channels=(0,))
        assert abs(logits[0, 0] - (-1.0)) < 1e-15

    def test_cga_inner_gives_half_squared_distance(self, cga, rng):
        pq = rng.uniform(-3, 3, size=(6, 3))
        pk = rng.uniform(-3, 3, size=(6, 3))
        q = embed_points(cga, pq, embed_point_cga)
        k = embed_points(cga, pk, embed_point_cga)
        logits = attn_logits("cga_inner", q, k)  # scale 1/sqrt(1)
        want = -0.5 * ((pq[:, None, :] - pk[None, :, :]) ** 2).sum(axis=2)
        assert np.abs(logits - want).max() < 1e-10

    def test_cga_inner_frozen_example(self, cga):
        q = embed_points(cga, np.array([[1.0, 0, 0]]), embed_point_cga)
        k = embed_points(cga, np.zeros((1, 3)), embed_point_cga)
        logits = attn_logits("cga_inner", q, k)
        assert abs(logits[0, 0] - (-0.5)) < 1e-14

    def test_pga_plain_is_constant_on_points(self, pga, rng):
        # the projective inner of two embedded points never sees the
        # degenerate components, so position drops out entirely
        pts = rng.uniform(-10, 10, size=(8, 3))
        x = embed_points(pga, pts, embed_point_pga)
        logits = attn_logits("plain_inner", x, x)
        assert np.ptp(logits) < 1e-12

    def test_ip_matches_manual_bridge(self, pga, cga, rng):
        pts_q = rng.uniform(-2, 2, size=(3, 3))
        pts_k = rng.uniform(-2, 2, size=(4, 3))
        q = embed_points(pga, pts_q, embed_point_pga)
        k = embed_points(pga, pts_k, embed_point_pga)
        logits = attn_logits("ip_pga_to_cga", q, k, point_channels=(0,))
        scale = 1.0 / np.sqrt(1 + 1)
        for i in range(3):
            for j in range(4):
                plain = inner(pga, q.mv[i, 0], k.mv[j, 0])
                bridged = inner(
                    cga,
                    pga_point_to_cga_point(q.mv[i, 0]),
                    pga_point_to_cga_point(k.mv[j, 0]),
                )
                assert abs(logits[i, j] - (plain + bridged) * scale) < 1e-12

    def test_ip_bridge_translation_invariant_far_out(self, pga, rng):
        # e123 weights of 1e-5 to 1e-3 put the points up to 1e5 from the
        # origin, where the expanded conformal product would cancel terms of
        # size |x|^2 |y|^2 against a result of size |x - y|^2
        def far_points():
            w = 10.0 ** rng.uniform(-5, -3, size=16)
            return rng.uniform(-1, 1, size=(16, 3)) / w[:, None], w

        (qx, qw), (kx, kw) = far_points(), far_points()
        shift = rng.uniform(-1e5, 1e5, size=3)

        def logits(offset):
            q = np.stack([embed_point_pga(p + offset) * w for p, w in zip(qx, qw)])
            k = np.stack([embed_point_pga(p + offset) * w for p, w in zip(kx, kw)])
            return attn_logits(
                "ip_pga_to_cga", MvChannels(pga, q[:, None]), MvChannels(pga, k[:, None]), (0,)
            )

        base = logits(0.0)
        assert np.abs(logits(shift) - base).max() <= 1e-12 * np.abs(base).max()

    def test_ip_point_at_infinity_names_channel_and_token(self, pga, rng):
        x = embed_points(pga, rng.normal(size=(4, 3)), embed_point_pga)
        mv = np.concatenate([x.mv, x.mv], axis=1)
        mv[2, 1] = pga.blade("e013")
        x = MvChannels(pga, mv)
        with pytest.raises(PointAtInfinityError, match="channel 1, token 2: projective"):
            attn_logits("ip_pga_to_cga", x, x, point_channels=(0, 1))

    def test_ip_recovers_distances(self, pga, rng):
        # the bridged term is the conformal point pairing, so logits order
        # keys by distance to the query
        pts_k = np.array([[1.0, 0, 0], [3.0, 0, 0], [6.0, 0, 0]])
        q = embed_points(pga, np.zeros((1, 3)), embed_point_pga)
        k = embed_points(pga, pts_k, embed_point_pga)
        logits = attn_logits("ip_pga_to_cga", q, k, point_channels=(0,))
        assert logits[0, 0] > logits[0, 1] > logits[0, 2]

    @pytest.mark.parametrize(
        "algname,variant,group,needs_points",
        [
            ("ega", "plain_inner", "e3", False),
            ("pga", "plain_inner", "se3", False),
            ("cga", "plain_inner", "se3", False),
            ("ega", "ega_distance", "e3", True),
            ("cga", "cga_inner", "se3", False),
            ("pga", "ip_pga_to_cga", "se3", True),
        ],
    )
    def test_logits_invariant(self, algname, variant, group, needs_points, rng):
        alg = get_algebra(algname)
        if needs_points and algname == "ega":
            pts = rng.uniform(-2, 2, size=(5, 3))
            q = embed_points(alg, pts, lambda p: embed_point_ega(p, np.zeros(3)))
            k = embed_points(alg, rng.uniform(-2, 2, size=(5, 3)),
                             lambda p: embed_point_ega(p, np.zeros(3)))
            points = (0,)
        elif needs_points:
            q = embed_points(alg, rng.uniform(-2, 2, size=(5, 3)), embed_point_pga)
            k = embed_points(alg, rng.uniform(-2, 2, size=(5, 3)), embed_point_pga)
            points = (0,)
        else:
            q = random_channels(alg, rng, tokens=5, channels=2, scalars=3)
            k = random_channels(alg, rng, tokens=5, channels=2, scalars=3)
            points = ()
        base = attn_logits(variant, q, k, point_channels=points)
        scale = max(np.abs(base).max(), 1e-30)
        for _ in range(N_GROUP_SAMPLES):
            g = random_group_element(alg, group, rng)
            moved = attn_logits(
                variant,
                transform_channels(q, g),
                transform_channels(k, g),
                point_channels=points,
            )
            assert np.abs(moved - base).max() / scale < 1e-10


class TestAttention:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(7, 9)) * 50
        w = _softmax_rows(logits)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert (w >= 0).all()

    def test_single_key_returns_value(self, cga, rng):
        q = random_channels(cga, rng, tokens=4, channels=2, scalars=2)
        k = random_channels(cga, rng, tokens=1, channels=2, scalars=2)
        v = random_channels(cga, rng, tokens=1, channels=3, scalars=5)
        out = attention("plain_inner", q, k, v)
        assert np.allclose(out.mv, np.repeat(v.mv, 4, axis=0), atol=1e-14)
        assert np.allclose(out.scalars, np.repeat(v.scalars, 4, axis=0), atol=1e-14)

    def test_identical_keys_average_values(self, ega, rng):
        q = random_channels(ega, rng, tokens=2, channels=2, scalars=1)
        one_key = rng.normal(size=(1, 2, ega.size))
        k = MvChannels(ega, np.repeat(one_key, 6, axis=0), np.zeros((6, 1)))
        v = random_channels(ega, rng, tokens=6, channels=2, scalars=3)
        out = attention("plain_inner", q, k, v)
        assert np.allclose(out.mv[0], v.mv.mean(axis=0), atol=1e-12)
        assert np.allclose(out.scalars[0], v.scalars.mean(axis=0), atol=1e-12)

    def test_key_value_permutation_invariance(self, pga, rng):
        q = random_channels(pga, rng, tokens=3, channels=2, scalars=2)
        k = random_channels(pga, rng, tokens=6, channels=2, scalars=2)
        v = random_channels(pga, rng, tokens=6, channels=2, scalars=2)
        perm = rng.permutation(6)
        out = attention("plain_inner", q, k, v)
        out_p = attention(
            "plain_inner",
            q,
            MvChannels(pga, k.mv[perm], k.scalars[perm]),
            MvChannels(pga, v.mv[perm], v.scalars[perm]),
        )
        assert np.abs(out.mv - out_p.mv).max() < 1e-12
        assert np.abs(out.scalars - out_p.scalars).max() < 1e-12

    def test_query_permutation_equivariance(self, cga, rng):
        q = random_channels(cga, rng, tokens=5, channels=2, scalars=2)
        k = random_channels(cga, rng, tokens=4, channels=2, scalars=2)
        v = random_channels(cga, rng, tokens=4, channels=2, scalars=2)
        perm = rng.permutation(5)
        out = attention("plain_inner", q, k, v)
        out_p = attention(
            "plain_inner", MvChannels(cga, q.mv[perm], q.scalars[perm]), k, v
        )
        assert np.abs(out.mv[perm] - out_p.mv).max() < 1e-12

    def test_token_count_mismatch(self, ega, rng):
        q = random_channels(ega, rng, tokens=2, channels=1, scalars=0)
        k = random_channels(ega, rng, tokens=3, channels=1, scalars=0)
        v = random_channels(ega, rng, tokens=4, channels=1, scalars=0)
        with pytest.raises(ValueError):
            attention("plain_inner", q, k, v)

    def test_attention_equivariance(self, any_algebra, rng):
        group = "se3" if any_algebra.name != "ega" else "e3"
        q = random_channels(any_algebra, rng, tokens=4, channels=2, scalars=2)
        k = random_channels(any_algebra, rng, tokens=4, channels=2, scalars=2)
        v = random_channels(any_algebra, rng, tokens=4, channels=2, scalars=2)
        base = attention("plain_inner", q, k, v)
        for _ in range(N_GROUP_SAMPLES):
            g = random_group_element(any_algebra, group, rng)
            lhs = attention(
                "plain_inner",
                transform_channels(q, g),
                transform_channels(k, g),
                transform_channels(v, g),
            )
            rhs = transform_channels(base, g)
            assert np.abs(lhs.mv - rhs.mv).max() / np.abs(rhs.mv).max() < LAYER_TOL

    def test_pga_plain_attention_on_points_is_uniform(self, pga, rng):
        # constant logits mean every query sees the plain average of values
        pts = rng.uniform(-4, 4, size=(5, 3))
        x = embed_points(pga, pts, embed_point_pga)
        v = random_channels(pga, rng, tokens=5, channels=2, scalars=1)
        out = attention("plain_inner", x, x, v)
        mean_mv = v.mv.mean(axis=0)
        for t in range(5):
            assert np.abs(out.mv[t] - mean_mv).max() < 1e-12


# -- attention against a pair-by-pair reference -------------------------------------

ATTN_CASES = [
    ("ega", "plain_inner"),
    ("pga", "plain_inner"),
    ("cga", "plain_inner"),
    ("cga", "cga_inner"),
    ("ega", "ega_distance"),
    ("pga", "ip_pga_to_cga"),
]


def reference_logits(variant, q, k, points):
    """The logits pair by pair from algebra.inner, explicit squared
    distances and the documented scales, with the magnitude of the terms
    each one sums."""
    alg = q.algebra
    inner_channels = [
        c for c in range(q.channels) if variant != "ega_distance" or c not in points
    ]
    bridged = points if variant == "ip_pga_to_cga" else ()
    scale = np.sqrt(max(q.channels + q.scalar_channels, 1) + len(bridged))
    vec = alg.grade_indices(1)
    want = np.zeros((q.tokens, k.tokens))
    size = np.zeros((q.tokens, k.tokens))
    for i in range(q.tokens):
        for j in range(k.tokens):
            logit = sum(inner(alg, q.mv[i, c], k.mv[j, c]) for c in inner_channels)
            logit += q.scalars[i] @ k.scalars[j]
            mag = sum(
                np.abs(q.mv[i, c] * k.mv[j, c] * alg.inner_weights).sum()
                for c in inner_channels
            )
            mag += np.abs(q.scalars[i] * k.scalars[j]).sum()
            if variant == "ega_distance":
                logit, mag = logit / scale, mag / scale
                for c in points:
                    qv, kv = q.mv[i, c, vec], k.mv[j, c, vec]
                    logit -= ((qv - kv) ** 2).sum()
                    mag += (np.linalg.norm(qv) + np.linalg.norm(kv)) ** 2
            else:
                for c in bridged:
                    x = extract_point(q.mv[i, c], "pga")
                    y = extract_point(k.mv[j, c], "pga")
                    logit -= 0.5 * ((x - y) ** 2).sum()
                    mag += 0.5 * ((x - y) ** 2).sum()
                logit, mag = logit / scale, mag / scale
            want[i, j], size[i, j] = logit, mag
    return want, size


class TestAttentionReference:
    @pytest.mark.parametrize("case", ATTN_CASES, ids=[f"{a}-{v}" for a, v in ATTN_CASES])
    @settings(max_examples=40, deadline=None)
    @given(
        q_tokens=st.integers(1, 5),
        k_tokens=st.integers(1, 5),
        channels=st.integers(1, 3),
        scalars=st.integers(0, 3),
        v_channels=st.integers(1, 3),
        v_scalars=st.integers(0, 3),
        coord_scale=st.sampled_from([1e-3, 1.0, 30.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @example(
        q_tokens=1, k_tokens=4, channels=3, scalars=2, v_channels=2, v_scalars=0,
        coord_scale=1.0, seed=0, data=None,
    )
    def test_logits_and_attention_match_reference(
        self, case, q_tokens, k_tokens, channels, scalars, v_channels, v_scalars,
        coord_scale, seed, data,
    ):
        algname, variant = case
        alg = get_algebra(algname)
        rng = np.random.default_rng(seed)
        points = ()
        if variant in ("ega_distance", "ip_pga_to_cga"):
            if data is None:
                points = tuple(range(channels))[::-1]
            else:
                points = tuple(
                    data.draw(
                        st.lists(st.integers(0, channels - 1), min_size=1, unique=True),
                        label="points",
                    )
                )

        def tokens(t, c, s):
            x = random_channels(alg, rng, tokens=t, channels=c, scalars=s)
            x.mv *= coord_scale
            if variant == "ip_pga_to_cga":
                # projective points with e123 weights of either sign, away from zero
                w = rng.uniform(0.5, 2.0, size=(t, len(points))) * rng.choice([-1, 1], (t, 1))
                x.mv[:, list(points), alg.blade_index("e123")] = w
            return x

        q = tokens(q_tokens, channels, scalars)
        k = tokens(k_tokens, channels, scalars)
        v = random_channels(alg, rng, tokens=k_tokens, channels=v_channels, scalars=v_scalars)
        before = [a.copy() for x in (q, k, v) for a in (x.mv, x.scalars)]

        want, size = reference_logits(variant, q, k, points)
        got = attn_logits(variant, q, k, point_channels=points)
        assert got.shape == (q_tokens, k_tokens)
        assert np.all(np.abs(got - want) <= 1e-12 * size)

        out = attention(variant, q, k, v, point_channels=points)
        weights = np.exp(want - want.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        want_mv = np.einsum("ij,jcn->icn", weights, v.mv)
        want_s = weights @ v.scalars
        # a logit error e moves the weights of its row by at most 2 e each
        v_max = max(np.abs(v.mv).max(), np.abs(v.scalars).max(initial=0.0))
        bound = 1e-12 * (1.0 + 2.0 * size.max(axis=1)) * v_max
        assert out.mv.shape == (q_tokens, v_channels, alg.size)
        assert out.scalars.shape == (q_tokens, v_scalars)
        assert np.all(np.abs(out.mv - want_mv).max(axis=(1, 2)) <= bound)
        if v_scalars:
            assert np.all(np.abs(out.scalars - want_s).max(axis=1) <= bound)

        after = [a for x in (q, k, v) for a in (x.mv, x.scalars)]
        for a, b in zip(before, after):
            assert a.dtype == b.dtype and np.array_equal(a, b)
