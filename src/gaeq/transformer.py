"""Forward-only equivariant transformer over point tokens.

Four configurations, one per letter:

* E  - Euclidean algebra, distance attention, inputs centered around a
       caller-supplied point (translations are handled by the centering,
       not by the algebra).
* P  - projective algebra, plain invariant attention.
* iP - projective algebra with the join enabled in the bilinear layer and
       attention that bridges projective points into conformal ones.  The
       join only commutes with rototranslations, so this configuration is
       built on the rototranslation map family and makes no mirror claim.
* C  - conformal algebra, conformal inner-product attention.

A model is a stack of pre-norm blocks (norm, linear, attention, residual,
then norm, bilinear with gated output, residual) between a fixed token
embedding and a linear readout to one point channel plus scalar heads.
Parameters are drawn once from the config seed; nothing here trains.
"""

import json

import numpy as np

from gaeq.algebra import get_algebra
from gaeq.embeddings import (
    embed_point_cga,
    embed_point_ega,
    embed_point_pga,
    extract_point,
)
from gaeq.groups import EuclideanMotion, Versor, rho
from gaeq.layers import (
    ATTN_VARIANTS,
    EquiLinear,
    GeometricBilinear,
    MvChannels,
    NormConfig,
    attention,
    default_norm_config,
    equi_norm,
    gated_nonlinearity,
)
from gaeq.solver import identity_coefficients

__all__ = [
    "VARIANTS",
    "Model",
    "ModelConfig",
    "TokenBatch",
    "build_model",
    "center_of_mass",
    "equivariance_error",
    "forward",
    "load_model",
    "save_model",
]

VARIANTS = {
    "E": dict(algebra="ega", group="e3", use_join=False, attention="ega_distance"),
    "P": dict(algebra="pga", group="e3", use_join=False, attention="plain_inner"),
    "iP": dict(algebra="pga", group="se3", use_join=True, attention="ip_pga_to_cga"),
    "C": dict(algebra="cga", group="e3", use_join=False, attention="cga_inner"),
}

_POINT_VARIANTS = ("ega_distance", "ip_pga_to_cga")


class ModelConfig:
    """Variant, sizes, norm, attention and seed for one model.

    Defaults are desk scale: 4 blocks, 8 multivector channels, 16 scalar
    channels, 2 heads.  The conformal variant defaults to identity-style
    initialization, which keeps early activations close to the embedded
    geometry; the others default to kaiming-style.
    """

    def __init__(
        self,
        variant,
        blocks=4,
        mv_channels=8,
        scalar_channels=16,
        heads=2,
        norm_variant=None,
        norm_epsilon=None,
        attn_variant=None,
        init=None,
        seed=0,
        output_scalars=1,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {sorted(VARIANTS)}")
        self.variant = variant
        self.blocks = int(blocks)
        self.mv_channels = int(mv_channels)
        self.scalar_channels = int(scalar_channels)
        self.heads = int(heads)
        self.seed = int(seed)
        self.output_scalars = int(output_scalars)
        if self.blocks < 0:
            raise ValueError("blocks must be >= 0")
        if self.mv_channels < 1 or self.scalar_channels < 1 or self.output_scalars < 1:
            raise ValueError("channel counts must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        if self.mv_channels % self.heads or self.scalar_channels % self.heads:
            raise ValueError("channel counts must be divisible by the head count")

        spec = VARIANTS[variant]
        self.algebra_name = spec["algebra"]
        self.group = spec["group"]
        self.use_join = spec["use_join"]
        self.attn_variant = attn_variant or spec["attention"]
        if self.algebra_name not in ATTN_VARIANTS.get(self.attn_variant, ()):
            raise ValueError(
                f"attention variant {self.attn_variant!r} is not defined for "
                f"{self.algebra_name!r}"
            )
        default_norm = default_norm_config(self.algebra_name)
        self.norm_variant = norm_variant or default_norm.variant
        self.norm_epsilon = (
            float(norm_epsilon) if norm_epsilon is not None else default_norm.epsilon
        )
        # validate early, not at the first forward
        self.norm_config().check_algebra(get_algebra(self.algebra_name))
        self.init = init or ("identity" if variant == "C" else "kaiming")
        if self.init not in ("kaiming", "identity"):
            raise ValueError(f"unknown init {self.init!r}")

    def norm_config(self):
        return NormConfig(self.norm_variant, self.norm_epsilon)

    def to_dict(self):
        return {
            "variant": self.variant,
            "blocks": self.blocks,
            "mv_channels": self.mv_channels,
            "scalar_channels": self.scalar_channels,
            "heads": self.heads,
            "norm_variant": self.norm_variant,
            "norm_epsilon": self.norm_epsilon,
            "attn_variant": self.attn_variant,
            "init": self.init,
            "seed": self.seed,
            "output_scalars": self.output_scalars,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class TokenBatch:
    """Input tokens: positions, optional velocity-style vectors, optional
    per-token scalars, and the centering point the Euclidean variant needs."""

    def __init__(self, points, vectors=None, scalars=None, center=None):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (tokens, 3)")
        if self.points.shape[0] < 1:
            raise ValueError("need at least one token")
        self.vectors = None if vectors is None else np.asarray(vectors, dtype=float)
        if self.vectors is not None and self.vectors.shape != self.points.shape:
            raise ValueError("vectors must match the points shape")
        self.scalars = None if scalars is None else np.asarray(scalars, dtype=float)
        if self.scalars is not None and (
            self.scalars.ndim != 2 or self.scalars.shape[0] != self.points.shape[0]
        ):
            raise ValueError("scalars must be (tokens, k)")
        self.center = None if center is None else np.asarray(center, dtype=float)
        if self.center is not None and self.center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        names = ("points", "vectors", "scalars", "center")
        for name, arr in zip(names, (self.points, self.vectors, self.scalars, self.center)):
            if arr is not None and not np.isfinite(arr).all():
                at = ""
                if arr.ndim == 2:  # a row per token; center is one 3-vector
                    at = f", first at token {np.argwhere(~np.isfinite(arr))[0][0]}"
                raise ValueError(f"non-finite batch data in {name}{at}")

    @property
    def tokens(self):
        return self.points.shape[0]


class _Block:
    """One pre-norm transformer block."""

    def __init__(self, cfg, alg, rng):
        c, s = cfg.mv_channels, cfg.scalar_channels
        self.norm = cfg.norm_config()
        self.heads = cfg.heads
        self.attn_variant = cfg.attn_variant
        self.qkv = EquiLinear(
            alg, cfg.group, mv_in=c, mv_out=3 * c, scalar_in=s, scalar_out=3 * s,
            init=cfg.init, rng=rng,
        )
        self.mlp_left = EquiLinear(
            alg, cfg.group, mv_in=c, mv_out=c, scalar_in=s, scalar_out=s,
            init=cfg.init, rng=rng,
        )
        self.mlp_right = EquiLinear(
            alg, cfg.group, mv_in=c, mv_out=c, scalar_in=s, scalar_out=s,
            init=cfg.init, rng=rng,
        )
        self.bilinear = GeometricBilinear(
            alg, cfg.group, channels=c, scalar_channels=s,
            use_join=cfg.use_join, init=cfg.init, rng=rng,
        )

    def _multi_head_attention(self, a):
        # a holds q, k and v side by side; head i reads its channels of each
        t, h, alg = a.tokens, self.heads, a.algebra
        mv = a.mv.reshape(t, 3, h, a.channels // (3 * h), alg.size)
        sc = a.scalars.reshape(t, 3, h, a.scalar_channels // (3 * h))
        points = (0,) if self.attn_variant in _POINT_VARIANTS else ()
        mv_parts, sc_parts = [], []
        for i in range(h):
            q, k, v = (MvChannels(alg, mv[:, j, i], sc[:, j, i]) for j in range(3))
            out = attention(self.attn_variant, q, k, v, point_channels=points)
            mv_parts.append(out.mv)
            sc_parts.append(out.scalars)
        return MvChannels(
            alg, np.concatenate(mv_parts, axis=1), np.concatenate(sc_parts, axis=1)
        )

    def apply(self, x):
        attn_out = self._multi_head_attention(self.qkv.apply(equi_norm(self.norm, x)))
        x = MvChannels(x.algebra, x.mv + attn_out.mv, x.scalars + attn_out.scalars)

        b = equi_norm(self.norm, x)
        z = gated_nonlinearity(
            self.bilinear.apply(self.mlp_left.apply(b), self.mlp_right.apply(b))
        )
        return MvChannels(x.algebra, x.mv + z.mv, x.scalars + z.scalars)

    def named_layers(self):
        return {
            "qkv": self.qkv,
            "mlp_left": self.mlp_left,
            "mlp_right": self.mlp_right,
            "bilinear": self.bilinear,
        }


class Model:
    """Immutable after build; all state lives in the layer parameter arrays."""

    def __init__(self, cfg, algebra, blocks, readout):
        self.cfg = cfg
        self.algebra = algebra
        self.blocks = blocks
        self.readout = readout

    def parameters(self):
        """Flat name -> array view of every parameter."""
        params = {}
        for i, block in enumerate(self.blocks):
            for lname, layer in block.named_layers().items():
                for key, arr in layer.state().items():
                    params[f"block{i}.{lname}.{key}"] = arr
        for key, arr in self.readout.state().items():
            params[f"readout.{key}"] = arr
        return params

    def load_parameters(self, params):
        """Load arrays named as parameters() names them; raises ValueError
        naming every missing and every unexpected parameter, before any
        layer changes."""
        names = self.parameters().keys()
        missing, unexpected = sorted(names - params.keys()), sorted(params.keys() - names)
        if missing or unexpected:
            raise ValueError(
                f"missing parameters {missing}, unexpected parameters {unexpected}"
            )
        for i, block in enumerate(self.blocks):
            for lname, layer in block.named_layers().items():
                prefix = f"block{i}.{lname}."
                layer.load_state(
                    {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
                )
        self.readout.load_state(
            {k[len("readout."):]: v for k, v in params.items() if k.startswith("readout.")}
        )


def build_model(cfg):
    """Deterministic construction: one rng seeded from the config drives
    every layer in a fixed order, so equal seeds give equal parameters."""
    alg = get_algebra(cfg.algebra_name)
    rng = np.random.default_rng(cfg.seed)
    blocks = [_Block(cfg, alg, rng) for _ in range(cfg.blocks)]
    readout = EquiLinear(
        alg,
        cfg.group,
        mv_in=cfg.mv_channels,
        mv_out=1,
        scalar_in=cfg.scalar_channels,
        scalar_out=cfg.output_scalars,
        init="kaiming",
        rng=rng,
    )
    if cfg.init == "identity":
        # read out exactly the designated point channel
        readout.weight[:] = 0.0
        readout.weight[0, 0, :] = identity_coefficients(alg, cfg.group)
        readout.scalar_to_mv[:] = 0.0
        readout.mv_to_scalar[:] = 0.0
    return Model(cfg, alg, blocks, readout)


def _embed_point(cfg, p, center):
    if cfg.algebra_name == "ega":
        return embed_point_ega(p, center)
    if cfg.algebra_name == "pga":
        return embed_point_pga(p)
    return embed_point_cga(p)


def embed_batch(model, batch):
    """Fixed, parameter-free embedding.

    Channel 0 carries the token position; channel 1 carries the position
    offset by the token vector when vectors are present (a velocity enters
    as the point it would reach in unit time).  Input scalars fill the
    leading scalar slots.  Everything else starts at zero.
    """
    cfg = model.cfg
    if cfg.algebra_name == "ega" and batch.center is None:
        raise ValueError("the Euclidean variant needs a centering point")
    n_in = 1 + (batch.vectors is not None)
    if cfg.mv_channels < n_in:
        raise ValueError(f"need at least {n_in} multivector channels for this batch")
    t = batch.tokens
    mv = np.zeros((t, cfg.mv_channels, model.algebra.size))
    mv[:, 0] = _embed_point(cfg, batch.points, batch.center)
    if batch.vectors is not None:
        mv[:, 1] = _embed_point(cfg, batch.points + batch.vectors, batch.center)
    scalars = np.zeros((t, cfg.scalar_channels))
    if batch.scalars is not None:
        width = batch.scalars.shape[1]
        if width > cfg.scalar_channels:
            raise ValueError(f"{width} scalar inputs exceed {cfg.scalar_channels} channels")
        scalars[:, :width] = batch.scalars
    return MvChannels(model.algebra, mv, scalars)


def forward(model, batch, return_trace=False):
    """Run the model: embed, apply blocks, read out one point per token.

    Returns (points, scalars); with return_trace also the per-block max
    absolute multivector coefficient, a cheap numerical health series.
    """
    x = embed_batch(model, batch)
    trace = []
    for block in model.blocks:
        x = block.apply(x)
        if return_trace:
            trace.append(float(np.abs(x.mv).max()))
    out = model.readout.apply(x)
    points = extract_point(out.mv[:, 0], model.cfg.algebra_name)
    if model.cfg.algebra_name == "ega":
        points = points + batch.center
    if return_trace:
        return points, out.scalars, trace
    return points, out.scalars


def center_of_mass(points, masses=None):
    """Mass-weighted mean position; unit masses by default."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must be (n, 3)")
    return np.average(points, axis=0, weights=masses)


def _transform_batch(model, batch, g):
    """The group action on raw inputs matching the model's symmetry claim."""
    if isinstance(g, EuclideanMotion):
        points = g.apply_points(batch.points)
        vectors = None if batch.vectors is None else g.apply_vectors(batch.vectors)
        center = None if batch.center is None else g.apply_points(batch.center[None])[0]
        mover = lambda pts: g.apply_points(pts)
    elif isinstance(g, Versor):
        cfg = model.cfg
        r = rho(model.algebra, g)

        def mover(pts):
            out = extract_point(_embed_point(cfg, pts, batch.center) @ r.T, cfg.algebra_name)
            return out + batch.center if cfg.algebra_name == "ega" else out

        points = mover(batch.points)
        vectors = (
            None
            if batch.vectors is None
            else mover(batch.points + batch.vectors) - points
        )
        center = batch.center
    else:
        raise TypeError("expected a EuclideanMotion or a Versor")
    return (
        TokenBatch(points, vectors=vectors, scalars=batch.scalars, center=center),
        mover,
    )


def equivariance_error(model, batch, g):
    """Relative gap between forward(g . batch) and g . forward(batch).

    For the Euclidean variant pass motions fixing the centering point
    (its symmetry group); the others take arbitrary rototranslations,
    and mirrors where the variant supports them.
    """
    moved_batch, mover = _transform_batch(model, batch, g)
    pts, sc = forward(model, batch)
    pts_g, sc_g = forward(model, moved_batch)
    want = mover(pts)
    scale = max(np.abs(want).max(), np.abs(sc).max() if sc.size else 0.0, 1e-30)
    err = np.abs(pts_g - want).max()
    if sc.size:
        err = max(err, np.abs(sc_g - sc).max())
    return float(err / scale)


def save_model(model, path):
    """Single npz artifact: config manifest plus every parameter array."""
    manifest = {
        "config": model.cfg.to_dict(),
        "algebra": model.cfg.algebra_name,
        "basis_size": int(model.readout.family.shape[0]),
        "mv_channels": model.cfg.mv_channels,
        "scalar_channels": model.cfg.scalar_channels,
    }
    params = model.parameters()
    np.savez(path, __manifest__=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8), **params)


def load_model(path):
    """The model save_model wrote to path; raises ValueError naming the file
    when it has no manifest or its parameters do not fit the model."""
    with np.load(path) as data:
        if "__manifest__" not in data.files:
            raise ValueError(f"{path}: no __manifest__, not a file save_model wrote")
        manifest = json.loads(bytes(data["__manifest__"]).decode())
        params = {k: data[k] for k in data.files if k != "__manifest__"}
    model = build_model(ModelConfig.from_dict(manifest["config"]))
    try:
        model.load_parameters(params)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return model
