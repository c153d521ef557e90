"""Model-level tests: config plumbing, round trips, symmetry, health."""

import numpy as np
import pytest

from gaeq.algebra import get_algebra
from gaeq.embeddings import PointAtInfinityError, embed_point_pga
from gaeq.groups import EuclideanMotion, mirror_versor, random_motion, rho
from gaeq.transformer import (
    Model,
    ModelConfig,
    TokenBatch,
    build_model,
    center_of_mass,
    embed_batch,
    equivariance_error,
    forward,
    load_model,
    save_model,
)

N_GROUP_SAMPLES = 20
MODEL_TOL = 1e-9


@pytest.fixture
def batch(rng):
    pts = rng.uniform(-2.0, 2.0, size=(6, 3))
    vecs = rng.normal(size=(6, 3)) * 0.4
    scal = rng.normal(size=(6, 5))
    return TokenBatch(pts, vectors=vecs, scalars=scal, center=center_of_mass(pts))


def strip_center(b, keep_center):
    if keep_center:
        return b
    return TokenBatch(b.points, vectors=b.vectors, scalars=b.scalars)


class TestModelConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ModelConfig("Q")

    def test_channel_minimums(self):
        with pytest.raises(ValueError):
            ModelConfig("E", mv_channels=0)
        with pytest.raises(ValueError):
            ModelConfig("E", scalar_channels=0)
        with pytest.raises(ValueError):
            ModelConfig("E", output_scalars=0)
        with pytest.raises(ValueError):
            ModelConfig("E", blocks=-1)

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig("E", mv_channels=9, heads=2)
        with pytest.raises(ValueError):
            ModelConfig("E", scalar_channels=15, heads=2)

    def test_variant_wiring(self):
        ip = ModelConfig("iP")
        assert ip.algebra_name == "pga"
        assert ip.use_join and ip.group == "se3"
        assert ip.attn_variant == "ip_pga_to_cga"
        p = ModelConfig("P")
        assert p.algebra_name == "pga" and not p.use_join and p.group == "e3"
        assert ModelConfig("E").attn_variant == "ega_distance"
        assert ModelConfig("C").attn_variant == "cga_inner"

    def test_init_defaults(self):
        assert ModelConfig("C").init == "identity"
        for v in ("E", "P", "iP"):
            assert ModelConfig(v).init == "kaiming"

    def test_norm_defaults(self):
        e = ModelConfig("E")
        assert (e.norm_variant, e.norm_epsilon) == ("plain", 1e-6)
        p = ModelConfig("P")
        assert (p.norm_variant, p.norm_epsilon) == ("plain", 0.01)
        c = ModelConfig("C")
        assert (c.norm_variant, c.norm_epsilon) == ("per_grade_abs", 0.01)

    def test_attention_algebra_mismatch(self):
        with pytest.raises(ValueError):
            ModelConfig("P", attn_variant="cga_inner")
        with pytest.raises(ValueError):
            ModelConfig("E", attn_variant="ip_pga_to_cga")

    def test_conformal_plain_norm_rejected_at_config(self):
        # plain normalization divides by signed inner products that vanish on
        # null conformal inputs; the config rejects it instead of the first forward
        with pytest.raises(ValueError, match="'plain'.*'abs'.*'per_grade_abs'"):
            ModelConfig("C", norm_variant="plain")

    def test_conformal_abs_norm_runs(self, batch):
        model = build_model(ModelConfig("C", blocks=1, norm_variant="abs"))
        pts, sc = forward(model, batch)
        assert np.isfinite(pts).all() and np.isfinite(sc).all()

    def test_dict_round_trip(self):
        cfg = ModelConfig("iP", blocks=2, seed=11, norm_epsilon=0.5)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_desk_defaults(self):
        cfg = ModelConfig("P")
        assert (cfg.blocks, cfg.mv_channels, cfg.scalar_channels, cfg.heads) == (4, 8, 16, 2)


class TestTokenBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBatch(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            TokenBatch(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            TokenBatch(np.zeros((3, 3)), vectors=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TokenBatch(np.zeros((3, 3)), scalars=np.zeros(3))
        with pytest.raises(ValueError):
            TokenBatch(np.zeros((3, 3)), center=np.zeros(2))
        bad = np.zeros((3, 3))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            TokenBatch(bad)

    @pytest.mark.parametrize("name", ["points", "vectors", "scalars", "center"])
    def test_non_finite_error_names_array_and_token(self, name):
        arrays = {
            "points": np.zeros((4, 3)),
            "vectors": np.zeros((4, 3)),
            "scalars": np.zeros((4, 2)),
            "center": np.zeros(3),
        }
        bad = arrays[name]
        bad[(2, 1) if bad.ndim == 2 else 1] = np.nan
        at = "" if name == "center" else ", first at token 2"
        with pytest.raises(ValueError, match=f"non-finite batch data in {name}{at}$"):
            TokenBatch(**arrays)

    def test_embedding_requires_center_for_e(self, batch):
        model = build_model(ModelConfig("E"))
        with pytest.raises(ValueError):
            forward(model, strip_center(batch, keep_center=False))

    def test_scalar_overflow(self, rng):
        model = build_model(ModelConfig("P", scalar_channels=2, heads=1))
        b = TokenBatch(rng.normal(size=(2, 3)), scalars=rng.normal(size=(2, 7)))
        with pytest.raises(ValueError):
            forward(model, b)

    def test_conformal_overflow_names_input_token(self, rng):
        # |p|^2 of token 5 overflows in the conformal embedding: the error
        # names that input token, not the embedded channel it turned into
        pts = rng.normal(size=(8, 3))
        pts[5] *= 1e160
        with pytest.raises(ValueError, match="point is not finite at token 5: "):
            forward(build_model(ModelConfig("C")), TokenBatch(pts))

    @pytest.mark.parametrize("variant", ["E", "P", "iP"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_overflow_fails_at_the_first_norm(self, variant, rng):
        # the embeddings are linear, so token 3's quadratic form overflows
        # in the first norm; E would otherwise divide the token down to zero
        pts = rng.normal(size=(8, 3))
        pts[3] *= 1e160
        b = TokenBatch(pts, center=np.zeros(3) if variant == "E" else None)
        with pytest.raises(ValueError, match="multivector quadratic form of token 3 overflowed"):
            forward(build_model(ModelConfig(variant)), b)

    def test_vectors_need_second_channel(self, rng):
        model = build_model(ModelConfig("P", mv_channels=1, heads=1))
        b = TokenBatch(rng.normal(size=(2, 3)), vectors=rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            forward(model, b)


class TestBuildDeterminism:
    def test_same_seed_bit_identical(self):
        m1 = build_model(ModelConfig("C", seed=5))
        m2 = build_model(ModelConfig("C", seed=5))
        p1, p2 = m1.parameters(), m2.parameters()
        assert p1.keys() == p2.keys()
        for key in p1:
            assert np.array_equal(p1[key], p2[key]), key

    def test_different_seed_differs(self):
        p1 = build_model(ModelConfig("P", seed=1)).parameters()
        p2 = build_model(ModelConfig("P", seed=2)).parameters()
        assert any(not np.array_equal(p1[k], p2[k]) for k in p1)

    def test_zero_blocks(self):
        model = build_model(ModelConfig("P", blocks=0))
        assert model.blocks == []
        assert isinstance(model, Model)


class TestForward:
    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_round_trip_identity_zero_blocks(self, variant, batch):
        model = build_model(ModelConfig(variant, blocks=0, init="identity", seed=1))
        pts, _ = forward(model, strip_center(batch, variant == "E"))
        # up to one rounding step from re-centering / homogeneous division
        assert np.abs(pts - batch.points).max() < 1e-14

    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_forward_shapes_and_finiteness(self, variant, batch):
        model = build_model(ModelConfig(variant, output_scalars=3, seed=2))
        pts, sc, trace = forward(
            model, strip_center(batch, variant == "E"), return_trace=True
        )
        assert pts.shape == (6, 3) and sc.shape == (6, 3)
        assert np.isfinite(pts).all() and np.isfinite(sc).all()
        assert len(trace) == 4 and all(np.isfinite(t) for t in trace)

    def test_single_token(self, rng):
        model = build_model(ModelConfig("C", seed=2))
        b = TokenBatch(rng.normal(size=(1, 3)))
        pts, sc = forward(model, b)
        assert pts.shape == (1, 3) and np.isfinite(pts).all()

    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_sensitivity(self, variant, batch):
        # no dead model: a moved input point moves some output
        model = build_model(ModelConfig(variant, seed=2))
        b = strip_center(batch, variant == "E")
        pts0, sc0 = forward(model, b)
        moved = b.points.copy()
        moved[2] += 1e-4
        b2 = TokenBatch(moved, vectors=b.vectors, scalars=b.scalars, center=b.center)
        pts1, sc1 = forward(model, b2)
        assert np.abs(pts1 - pts0).max() > 0

    def test_point_at_infinity_carries_token_index(self, rng):
        model = build_model(ModelConfig("P", blocks=0, seed=3))
        model.readout.weight[:] = 0.0
        model.readout.scalar_to_mv[:] = 0.0
        b = TokenBatch(rng.normal(size=(3, 3)))
        with pytest.raises(PointAtInfinityError, match="^token 0: projective"):
            forward(model, b)


def motions_for(variant, rng, center):
    """Sampler of group elements matching each variant's symmetry claim."""
    def sample():
        if variant == "E":
            return random_motion(rng, int(rng.integers(1, 5)), center=center)
        if variant == "iP":
            return random_motion(rng, 2 * int(rng.integers(1, 3)))  # even only
        return random_motion(rng, int(rng.integers(1, 5)))
    return sample


class TestEquivariance:
    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_identity_motion_gives_zero(self, variant, batch):
        model = build_model(ModelConfig(variant, seed=2))
        b = strip_center(batch, variant == "E")
        assert equivariance_error(model, b, EuclideanMotion([])) == 0.0

    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_full_model_equivariance(self, variant, batch, rng):
        model = build_model(ModelConfig(variant, seed=2))
        b = strip_center(batch, variant == "E")
        sample = motions_for(variant, rng, batch.center)
        worst = max(
            equivariance_error(model, b, sample()) for _ in range(N_GROUP_SAMPLES)
        )
        assert worst < MODEL_TOL

    def test_versor_group_elements_accepted(self, batch, rng):
        # the group action can also be given as a versor; points then move
        # through the embedding round trip
        model = build_model(ModelConfig("C", seed=2))
        b = strip_center(batch, False)
        m = random_motion(rng, 2)
        err = equivariance_error(model, b, m.versor(get_algebra("cga")))
        assert err < MODEL_TOL

    def test_rejects_other_group_types(self, batch):
        model = build_model(ModelConfig("P", seed=2))
        with pytest.raises(TypeError):
            equivariance_error(model, strip_center(batch, False), np.eye(3))

    def test_ip_breaks_under_mirrors(self, batch, rng):
        # the join fixes an orientation, so improper motions are not a
        # symmetry of this configuration
        model = build_model(ModelConfig("iP", seed=2))
        b = strip_center(batch, False)
        worst = max(
            equivariance_error(model, b, random_motion(rng, 3)) for _ in range(5)
        )
        assert worst > 1e-7

    def test_e_translation_with_recentering_is_fine(self, batch, rng):
        model = build_model(ModelConfig("E", seed=2))
        n = np.array([1.0, 0.0, 0.0])
        translation = EuclideanMotion([(n, 0.0), (n, 0.75)])  # shift by 1.5 n
        assert equivariance_error(model, batch, translation) < MODEL_TOL

    def test_e_translation_without_recentering_breaks(self, batch):
        # the centering point is part of the input contract; shifting the
        # points while keeping it exposes the gauge
        model = build_model(ModelConfig("E", seed=2))
        t = np.array([1.5, 0.0, 0.0])
        pts0, _ = forward(model, batch)
        shifted = TokenBatch(
            batch.points + t,
            vectors=batch.vectors,
            scalars=batch.scalars,
            center=batch.center,
        )
        pts1, _ = forward(model, shifted)
        assert np.abs(pts1 - (pts0 + t)).max() > 1e-3

    @pytest.mark.parametrize("variant", ["E", "P", "iP", "C"])
    def test_token_permutation_equivariance(self, variant, batch, rng):
        model = build_model(ModelConfig(variant, seed=2))
        b = strip_center(batch, variant == "E")
        perm = rng.permutation(b.tokens)
        pb = TokenBatch(
            b.points[perm],
            vectors=None if b.vectors is None else b.vectors[perm],
            scalars=None if b.scalars is None else b.scalars[perm],
            center=b.center,
        )
        pts, sc = forward(model, b)
        pts_p, sc_p = forward(model, pb)
        scale = np.abs(pts).max()
        assert np.abs(pts_p - pts[perm]).max() / scale < 1e-12
        assert np.abs(sc_p - sc[perm]).max() <= 1e-12 * max(np.abs(sc).max(), 1.0)


# frozen sign structure of the projective model under point inversion: every
# channel coefficient keeps or flips sign by blade, and the spatial grade-1/2
# slots never populate from point-token inputs
INVERSION_SIGNS = {
    "1": 1.0, "e0": 1.0, "e123": 1.0, "e0123": 1.0,
    "e01": -1.0, "e02": -1.0, "e03": -1.0,
    "e012": -1.0, "e013": -1.0, "e023": -1.0,
}
INVERSION_ZERO_SLOTS = ("e1", "e2", "e3", "e12", "e13", "e23")


class TestMirrorStructure:
    def test_pga_mirror_flips_raw_trivector(self, rng):
        # the documented orientation convention: an improper motion sends the
        # embedded point to MINUS the embedding of the moved point, so raw
        # trivector outputs are sign-flipped while extraction, which divides
        # by the e123 coefficient, is unaffected
        pga = get_algebra("pga")
        u = mirror_versor(pga)
        p = rng.uniform(-2, 2, size=3)
        moved = p * np.array([-1.0, 1.0, 1.0])
        assert np.allclose(
            rho(pga, u) @ embed_point_pga(p), -embed_point_pga(moved), atol=1e-14
        )

    def test_raw_readout_channel_sign_under_mirror(self, rng):
        # zero blocks + identity readout expose the representation itself
        model = build_model(ModelConfig("P", blocks=0, init="identity", seed=1))
        pga = model.algebra
        u = mirror_versor(pga)
        pts = rng.uniform(-2, 2, size=(4, 3))
        mirrored = pts * np.array([-1.0, 1.0, 1.0])
        out = model.readout.apply(embed_batch(model, TokenBatch(pts)))
        out_m = model.readout.apply(embed_batch(model, TokenBatch(mirrored)))
        assert np.allclose(out_m.mv, -np.einsum("nm,tcm->tcn", rho(pga, u), out.mv), atol=1e-13)

    def test_inversion_sign_structure(self, rng):
        # the exact per-blade symmetry that makes the projective model commute
        # with improper motions at the point level despite the raw sign flip
        model = build_model(ModelConfig("P", seed=3))
        pga = model.algebra
        pts = rng.uniform(-2, 2, size=(4, 3))
        scal = rng.normal(size=(4, 5))
        x1 = embed_batch(model, TokenBatch(pts, scalars=scal))
        x2 = embed_batch(model, TokenBatch(-pts, scalars=scal))
        for block in model.blocks:
            x1 = block.apply(x1)
            x2 = block.apply(x2)
        for name, sign in INVERSION_SIGNS.items():
            i = pga.blade_index(name)
            assert np.array_equal(x2.mv[:, :, i], sign * x1.mv[:, :, i]), name
        for name in INVERSION_ZERO_SLOTS:
            i = pga.blade_index(name)
            assert np.abs(x1.mv[:, :, i]).max() == 0.0, name
        assert np.array_equal(x1.scalars, x2.scalars)


class TestNumericalHealth:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("init", ["identity", "kaiming"])
    def test_twenty_block_trace_bounded(self, seed, init, rng):
        model = build_model(ModelConfig("C", blocks=20, init=init, seed=seed))
        b = TokenBatch(rng.uniform(-3, 3, size=(8, 3)), scalars=rng.normal(size=(8, 6)))
        _, _, trace = forward(model, b, return_trace=True)
        assert max(trace) < 1e3


class TestSerialization:
    def test_save_load_bit_identical(self, batch, tmp_path):
        model = build_model(ModelConfig("iP", seed=9))
        b = strip_center(batch, False)
        path = tmp_path / "model.npz"
        save_model(model, path)
        again = load_model(path)
        p1, s1 = forward(model, b)
        p2, s2 = forward(again, b)
        assert np.array_equal(p1, p2) and np.array_equal(s1, s2)

    def test_manifest_contents(self, tmp_path):
        import json

        model = build_model(ModelConfig("C", seed=4))
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            manifest = json.loads(bytes(data["__manifest__"]).decode())
        assert manifest["algebra"] == "cga"
        assert manifest["basis_size"] == 20
        assert manifest["mv_channels"] == 8 and manifest["scalar_channels"] == 16
        assert manifest["config"]["variant"] == "C"

    def test_load_restores_perturbed_parameters(self, batch, tmp_path):
        model = build_model(ModelConfig("P", seed=9))
        b = strip_center(batch, False)
        path = tmp_path / "model.npz"
        save_model(model, path)
        before, _ = forward(model, b)
        # a uniform readout rescale would cancel in the homogeneous division,
        # so bump one coefficient the embedded trivectors actually reach
        b3 = model.blocks[0].qkv.family_names.index("project_grade_3")
        model.blocks[0].qkv.weight[0, 0, b3] += 0.5
        changed, _ = forward(model, b)
        assert np.abs(changed - before).max() > 0
        restored = load_model(path)
        after, _ = forward(restored, b)
        assert np.array_equal(before, after)


    def test_load_names_file_without_manifest(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, weight=np.zeros(3))
        with pytest.raises(ValueError, match="bare.npz: no __manifest__"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("drop", r"missing parameters \['block0.qkv.weight'\], unexpected parameters \[\]$"),
            ("add", r"missing parameters \[\], unexpected parameters \['block0.extra'\]$"),
        ],
    )
    def test_load_names_mismatched_parameters(self, tmp_path, edit, message):
        path = tmp_path / "model.npz"
        save_model(build_model(ModelConfig("P", seed=9)), path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        if edit == "drop":
            del arrays["block0.qkv.weight"]
        else:
            arrays["block0.extra"] = np.zeros(2)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"model.npz: {message}"):
            load_model(path)


class TestCenterOfMass:
    def test_single_point(self):
        p = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(center_of_mass(p), p[0])

    def test_symmetric_pair_midpoint(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.allclose(center_of_mass(pts), np.zeros(3))

    def test_translation_covariance(self, rng):
        pts = rng.normal(size=(7, 3))
        t = np.array([0.5, -2.0, 1.0])
        assert np.allclose(center_of_mass(pts + t), center_of_mass(pts) + t, atol=1e-14)

    def test_mass_weighting(self):
        pts = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        com = center_of_mass(pts, masses=[3.0, 1.0])
        assert np.allclose(com, [1.0, 0.0, 0.0])

    def test_shape_check(self):
        with pytest.raises(ValueError):
            center_of_mass(np.zeros((3, 2)))
