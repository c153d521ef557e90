"""Equivariant neural building blocks on multivector channels.

Tokens carry multivector channels plus plain scalar channels.  Linear
layers mix channels through the named equivariant map family, bilinear
layers interact channels through the geometric product (optionally the
join), normalization divides by invariant per-token magnitudes, the gate
nonlinearity scales each channel by a sigmoid of its own grade-0 part,
and attention logits are built from invariant pairings.  Everything here
is forward-only: parameters are plain arrays set at construction.
"""

import functools
from typing import NamedTuple

import numpy as np

from gaeq.algebra import (
    geometric_product,
    get_algebra,
    inner,
    join,
)
from gaeq.embeddings import PointAtInfinityError, extract_point
from gaeq.groups import rho
from gaeq.solver import equivariant_map_family, identity_coefficients

__all__ = [
    "ATTN_VARIANTS",
    "EquiLinear",
    "GeometricBilinear",
    "MvChannels",
    "NormConfig",
    "attention",
    "attn_logits",
    "default_norm_config",
    "equi_norm",
    "gated_nonlinearity",
    "transform_channels",
]


class MvChannels:
    """A batch of tokens: (T, C, 2^d) multivector channels and (T, S) scalars."""

    def __init__(self, algebra, mv, scalars=None):
        self.algebra = algebra if hasattr(algebra, "gp_tensor") else get_algebra(algebra)
        self.mv = np.asarray(mv, dtype=float)
        if self.mv.ndim != 3 or self.mv.shape[-1] != self.algebra.size:
            raise ValueError(
                f"multivector channels must be (tokens, channels, {self.algebra.size})"
            )
        if self.mv.shape[0] < 1:
            raise ValueError(f"need at least one token, got {self.mv.shape[0]}")
        if scalars is None:
            scalars = np.zeros((self.mv.shape[0], 0))
        self.scalars = np.asarray(scalars, dtype=float)
        if self.scalars.ndim != 2 or self.scalars.shape[0] != self.mv.shape[0]:
            raise ValueError("scalar channels must be (tokens, s_channels)")
        if not (np.isfinite(self.mv).all() and np.isfinite(self.scalars).all()):
            raise ValueError("non-finite channel data")

    @property
    def tokens(self):
        return self.mv.shape[0]

    @property
    def channels(self):
        return self.mv.shape[1]

    @property
    def scalar_channels(self):
        return self.scalars.shape[1]

    def copy(self):
        return MvChannels(self.algebra, self.mv.copy(), self.scalars.copy())


def transform_channels(x, versor):
    """Apply a group element to every token; scalar channels are invariant."""
    r = rho(x.algebra, versor)
    return MvChannels(x.algebra, np.einsum("nm,tcm->tcn", r, x.mv), x.scalars)


def _kaiming(rng, shape, fan_in):
    if np.prod(shape) == 0:
        return np.zeros(shape)
    return rng.normal(0.0, 1.0 / np.sqrt(max(fan_in, 1)), shape)


class _Family(NamedTuple):
    """An equivariant map family with its blade blocks, read-only."""

    names: tuple
    maps: np.ndarray  # (B, n, n)
    identity: np.ndarray  # (B,) coefficients of the identity map
    blocks: np.ndarray  # (K, m) blade indices, one row per block
    block_maps: np.ndarray  # (B, K, m, m): maps[b][blocks[k]][:, blocks[k]]


def _blade_blocks(alg, maps):
    """(K, m) blade indices of the connected components of the maps' joint
    support: every map couples a blade only with blades of its block."""
    n = alg.size
    reach = (maps != 0).any(axis=0)
    reach = reach | reach.T | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach  # paths twice as long
    blocks = sorted({tuple(np.flatnonzero(row)) for row in reach})
    if len({len(b) for b in blocks}) != 1:
        raise AssertionError(f"{alg.name} map family has unequal blade blocks")
    blocks = np.array(blocks)
    if not np.array_equal(np.sort(blocks.ravel()), np.arange(n)):
        raise AssertionError(f"{alg.name} blade blocks do not partition the blades")
    inside = np.zeros((n, n), dtype=bool)
    inside[blocks[:, :, None], blocks[:, None, :]] = True
    if np.any(maps[:, ~inside]):
        raise AssertionError(f"{alg.name} map family has support outside its blocks")
    return blocks


@functools.lru_cache(maxsize=None)
def _shared_family(alg, group):
    """The map family of (algebra, group), built once and shared by every
    EquiLinear; its arrays are read-only because every layer holds them."""
    family = equivariant_map_family(alg, group)
    maps = np.stack([m for _, m in family])
    blocks = _blade_blocks(alg, maps)
    block_maps = maps[:, blocks[:, :, None], blocks[:, None, :]]
    arrays = (maps, identity_coefficients(alg, group), blocks, block_maps)
    for a in arrays:
        a.setflags(write=False)
    return _Family(tuple(name for name, _ in family), *arrays)


def _block_order(blocks, channels, n):
    # the columns of a flat (channels * n) row in (block, channel, blade)
    # order, so that each block's columns are contiguous
    return (np.arange(channels)[:, None] * n + blocks[:, None, :]).ravel()


class EquiLinear:
    """Channel mixing through the equivariant map family.

    y[t, co] = sum_{ci, b} w[co, ci, b] M_b(x[t, ci]), with a dense scalar
    block alongside and the grade-0 coefficient coupling the two kinds of
    channel.  Commutes with the group action tokenwise because every M_b
    does and scalars are invariant.

    Every M_b couples a blade only with the blades of its block (those
    with the same spatial part, up to the pseudoscalar for se3), so the
    maps are applied one block at a time in one batched matmul.

    init="kaiming" draws all blocks at 1/sqrt(fan_in) scale; init="identity"
    draws a plain channel-mixing matrix and places it on the identity map's
    coefficients, which keeps early forward passes close to the input
    algebra elements.
    """

    def __init__(
        self,
        algebra,
        group="e3",
        mv_in=1,
        mv_out=1,
        scalar_in=0,
        scalar_out=0,
        init="kaiming",
        rng=None,
    ):
        self.algebra = algebra if hasattr(algebra, "gp_tensor") else get_algebra(algebra)
        self.group = group
        self._family = _shared_family(self.algebra, group)
        self.family_names = self._family.names
        self.family = self._family.maps  # (B, n, n)
        self.mv_in, self.mv_out = int(mv_in), int(mv_out)
        self.scalar_in, self.scalar_out = int(scalar_in), int(scalar_out)
        b = self.family.shape[0]
        if rng is None:
            rng = np.random.default_rng(0)
        if init == "kaiming":
            self.weight = _kaiming(rng, (mv_out, mv_in, b), mv_in * b)
        elif init == "identity":
            chan = _kaiming(rng, (mv_out, mv_in), mv_in)
            self.weight = chan[:, :, None] * self._family.identity
        elif init == "exact_identity":
            if mv_in != mv_out or scalar_in != scalar_out:
                raise ValueError("exact identity needs matching channel counts")
            self.weight = np.eye(mv_out)[:, :, None] * self._family.identity
        else:
            raise ValueError(f"unknown init {init!r}")
        # the input's columns in block order, and the inverse for the output
        blocks, n = self._family.blocks, self.algebra.size
        self._gather = _block_order(blocks, self.mv_in, n)
        self._ungather = np.argsort(_block_order(blocks, self.mv_out, n))
        fan_s = scalar_in + mv_in
        if init == "exact_identity":
            self.scalar_weight = np.eye(scalar_out)
            self.mv_to_scalar = np.zeros((scalar_out, mv_in))
            self.scalar_to_mv = np.zeros((mv_out, scalar_in))
        else:
            self.scalar_weight = _kaiming(rng, (scalar_out, scalar_in), fan_s)
            self.mv_to_scalar = _kaiming(rng, (scalar_out, mv_in), fan_s)
            self.scalar_to_mv = _kaiming(rng, (mv_out, scalar_in), scalar_in)

    def apply(self, x):
        if x.channels != self.mv_in or x.scalar_channels != self.scalar_in:
            raise ValueError(
                f"expected {self.mv_in} mv / {self.scalar_in} scalar channels, "
                f"got {x.channels} / {x.scalar_channels}"
            )
        # fold weight and the block-restricted family into one (C*m, O*m)
        # matrix per block on every call: callers edit weight in place, so a
        # kept fold could go stale
        fam = self._family
        b, k, m = fam.block_maps.shape[:3]
        t = x.tokens
        fold = self.weight.reshape(-1, b) @ fam.block_maps.reshape(b, -1)
        fold = fold.reshape(self.mv_out, self.mv_in, k, m, m).transpose(2, 1, 4, 0, 3)
        fold = fold.reshape(k, self.mv_in * m, self.mv_out * m)
        # one matmul per block, batched: (blocks, tokens, C*m) @ (C*m, O*m),
        # written in (tokens, blocks, O*m) order and put back in blade order
        xb = np.take(x.mv.reshape(t, -1), self._gather, axis=1).reshape(t, k, -1)
        yb = np.empty((t, k, self.mv_out * m))
        np.matmul(xb.transpose(1, 0, 2), fold, out=yb.transpose(1, 0, 2))
        # released before the output is allocated, so that it can reuse their
        # memory instead of faulting in fresh pages
        del xb, fold
        mv = np.take(yb.reshape(t, -1), self._ungather, axis=1)
        mv = mv.reshape(t, self.mv_out, x.algebra.size)
        mv[:, :, 0] += x.scalars @ self.scalar_to_mv.T
        scalars = x.scalars @ self.scalar_weight.T + x.mv[:, :, 0] @ self.mv_to_scalar.T
        return MvChannels(x.algebra, mv, scalars)

    def state(self):
        return {
            "weight": self.weight,
            "scalar_weight": self.scalar_weight,
            "mv_to_scalar": self.mv_to_scalar,
            "scalar_to_mv": self.scalar_to_mv,
        }

    def load_state(self, state):
        for key, value in self.state().items():
            got = np.asarray(state[key], dtype=float)
            if got.shape != value.shape:
                raise ValueError(f"{key} shape {got.shape} != {value.shape}")
        self.weight = np.asarray(state["weight"], dtype=float)
        self.scalar_weight = np.asarray(state["scalar_weight"], dtype=float)
        self.mv_to_scalar = np.asarray(state["mv_to_scalar"], dtype=float)
        self.scalar_to_mv = np.asarray(state["scalar_to_mv"], dtype=float)


class GeometricBilinear:
    """Channelwise geometric products (and joins), then a linear projection.

    The product channels (gp of x and y per channel, then join channels
    when enabled) are concatenated and projected back to the input channel
    count by an EquiLinear, whose scalar path carries x's scalar channels.
    """

    def __init__(
        self,
        algebra,
        group="e3",
        channels=1,
        scalar_channels=0,
        use_join=False,
        init="kaiming",
        rng=None,
    ):
        self.algebra = algebra if hasattr(algebra, "gp_tensor") else get_algebra(algebra)
        if use_join and self.algebra.join_tensor is None:
            raise ValueError(f"join is not defined for algebra {self.algebra.name!r}")
        self.use_join = bool(use_join)
        self.channels = int(channels)
        prod_channels = channels * (2 if use_join else 1)
        self.proj = EquiLinear(
            self.algebra,
            group,
            mv_in=prod_channels,
            mv_out=channels,
            scalar_in=scalar_channels,
            scalar_out=scalar_channels,
            init=init,
            rng=rng,
        )

    def apply(self, x, y):
        if x.channels != self.channels or y.channels != self.channels:
            raise ValueError(f"expected {self.channels} channels")
        parts = [geometric_product(self.algebra, x.mv, y.mv)]
        if self.use_join:
            parts.append(join(self.algebra, x.mv, y.mv))
        prod = MvChannels(self.algebra, np.concatenate(parts, axis=1), x.scalars)
        return self.proj.apply(prod)

    def state(self):
        return self.proj.state()

    def load_state(self, state):
        self.proj.load_state(state)


# -- normalization ---------------------------------------------------------------

NORM_VARIANTS = ("plain", "abs", "per_grade_abs")


class NormConfig:
    """Normalization variant and epsilon.

    The plain variant divides by signed channel inner products, which for
    an algebra with null directions can vanish on nonzero inputs; it is
    rejected for the conformal algebra unless allow_unstable is set.
    """

    def __init__(self, variant, epsilon, allow_unstable=False):
        if variant not in NORM_VARIANTS:
            raise ValueError(f"unknown norm variant {variant!r}")
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        self.variant = variant
        self.epsilon = float(epsilon)
        self.allow_unstable = bool(allow_unstable)

    def check_algebra(self, alg):
        if alg.name == "cga" and self.variant == "plain" and not self.allow_unstable:
            raise ValueError(
                "plain normalization is unstable on the conformal algebra; "
                "pass allow_unstable=True to use it anyway"
            )


def default_norm_config(algebra):
    alg = algebra if hasattr(algebra, "gp_tensor") else get_algebra(algebra)
    if alg.name == "ega":
        return NormConfig("plain", 1e-6)
    if alg.name == "pga":
        return NormConfig("plain", 0.01)
    return NormConfig("per_grade_abs", 0.01)


def _grade_forms(alg, mv):
    """<x_k, x_k> for every grade k of every multivector: (..., n) -> (...,
    grades), in one matmul against inner_weights times the grade masks."""
    w = alg.inner_weights[:, None] * (alg.grades[:, None] == np.arange(alg.n + 1))
    return (mv * mv) @ w


def _norm_denominator(cfg, x):
    alg = x.algebra
    if cfg.variant == "plain":
        q = inner(alg, x.mv, x.mv)
    elif cfg.variant == "abs":
        q = np.abs(inner(alg, x.mv, x.mv))
    else:
        q = np.abs(_grade_forms(alg, x.mv)).sum(axis=-1)
    return np.sqrt(q.mean(axis=1) + cfg.epsilon)


def equi_norm(cfg, x):
    """Per-token division by an invariant magnitude.

    Multivector channels share one denominator per token; scalar channels
    get their own root-mean-square denominator with the same epsilon.
    """
    cfg.check_algebra(x.algebra)
    denom = _norm_denominator(cfg, x)
    mv = x.mv / denom[:, None, None]
    scalars = x.scalars
    if scalars.shape[1]:
        s_denom = np.sqrt((scalars**2).mean(axis=1) + cfg.epsilon)
        scalars = scalars / s_denom[:, None]
    return MvChannels(x.algebra, mv, scalars)


def _sigmoid(a):
    # exp only of -|a|, so nothing overflows: 1 / (1 + e^-a) for a >= 0 and
    # e^a / (1 + e^a) below, branch-free
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0, e) / (1.0 + e)


def gated_nonlinearity(x):
    """Each channel scaled by the sigmoid of its own grade-0 coefficient.

    Grade 0 is invariant, so the gate commutes with the group action.
    Scalar channels go through the smooth x * sigmoid(x) nonlinearity.
    """
    gate = _sigmoid(x.mv[:, :, 0])
    mv = x.mv * gate[:, :, None]
    scalars = x.scalars * _sigmoid(x.scalars)
    return MvChannels(x.algebra, mv, scalars)


# -- attention --------------------------------------------------------------------

ATTN_VARIANTS = {
    "plain_inner": ("ega", "pga", "cga"),
    "ega_distance": ("ega",),
    "cga_inner": ("cga",),
    "ip_pga_to_cga": ("pga",),
}


def _check_variant(variant, alg):
    allowed = ATTN_VARIANTS.get(variant)
    if allowed is None:
        raise ValueError(f"unknown attention variant {variant!r}")
    if alg.name not in allowed:
        raise ValueError(f"variant {variant!r} is not defined for {alg.name!r}")


def _rows(mv, scalars, weights=None):
    # (T, C*n + S) feature rows [mv times the inner weights if given, scalars]
    if weights is not None:
        mv = mv * weights
    return np.concatenate([mv.reshape(mv.shape[0], -1), scalars], axis=1)


def attn_logits(variant, q, k, point_channels=()):
    """Invariant attention logits between query and key tokens.

    Each variant is one matmul of q's feature rows against k's.
    plain_inner and cga_inner sum channelwise inner products plus the
    scalar dot, scaled by one over the square root of the invariant
    feature count: q's rows are its inner-weighted channels and scalars
    times that scale, k's its channels and scalars.  ega_distance reserves
    the designated point channels for an exact negative squared distance:
    each appends the unscaled triple (-|q|^2, 2q, 1) to q's rows and
    (1, k, -|k|^2) to k's.  ip_pga_to_cga adds the conformal inner products
    of the designated projective point channels mapped to conformal points.
    For the null vectors X = o + x + |x|^2 inf / 2 and Y of y that product
    is <X, Y> = x . y - |x|^2 / 2 - |y|^2 / 2 = -|x - y|^2 / 2, and it stays
    out of the feature rows on purpose, summed from the coordinate
    differences: projective points with small e123 weights normalize to
    large coordinates, and the expanded form would cancel terms of size
    |x|^2 to leave one of size |x - y|^2.
    """
    alg = q.algebra
    _check_variant(variant, alg)
    if q.channels != k.channels or q.scalar_channels != k.scalar_channels:
        raise ValueError("query and key channel counts differ")
    points = tuple(point_channels)
    if any(not 0 <= c < q.channels for c in points):
        raise ValueError(f"point channel out of range for {q.channels} channels")
    for i, c in enumerate(points):
        if c in points[:i]:
            raise ValueError(f"point channel {c} is repeated in {points}")
    if variant in ("ega_distance", "ip_pga_to_cga") and not points:
        raise ValueError(f"{variant} needs designated point channels")
    scale_dim = max(q.channels + q.scalar_channels, 1)
    w = alg.inner_weights

    if variant in ("plain_inner", "cga_inner"):
        qf = _rows(q.mv, q.scalars, w) / np.sqrt(scale_dim)
        return qf @ _rows(k.mv, k.scalars).T

    if variant == "ega_distance":
        rest = [c for c in range(q.channels) if c not in points]
        vec = alg.grade_indices(1)
        qv, kv = q.mv[:, list(points)][:, :, vec], k.mv[:, list(points)][:, :, vec]
        qq = (qv**2).sum(axis=2, keepdims=True)
        kk = (kv**2).sum(axis=2, keepdims=True)
        # per point channel (-|q|^2, 2q, 1) . (1, k, -|k|^2) = -|q - k|^2
        qt = np.concatenate([-qq, 2.0 * qv, np.ones_like(qq)], axis=2).reshape(q.tokens, -1)
        kt = np.concatenate([np.ones_like(kk), kv, -kk], axis=2).reshape(k.tokens, -1)
        qf = _rows(q.mv[:, rest], q.scalars, w) / np.sqrt(scale_dim)
        kf = _rows(k.mv[:, rest], k.scalars)
        return np.concatenate([qf, qt], axis=1) @ np.concatenate([kf, kt], axis=1).T

    # ip_pga_to_cga
    logits = _rows(q.mv, q.scalars, w) @ _rows(k.mv, k.scalars).T
    d = np.empty_like(logits)
    for c in points:
        try:
            qp, kp = extract_point(q.mv[:, c], "pga"), extract_point(k.mv[:, c], "pga")
        except PointAtInfinityError as exc:
            raise PointAtInfinityError(f"channel {c}, {exc}") from exc
        for qx, kx in zip(qp.T, kp.T):
            np.subtract.outer(qx, kx, out=d)
            d *= d
            d *= 0.5
            logits -= d
    logits /= np.sqrt(scale_dim + len(points))
    return logits


def _softmax_rows(logits):
    # in place: the weights overwrite the logits, which are returned
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def attention(variant, q, k, v, point_channels=()):
    """Row-softmax over invariant logits, convex combination of values."""
    if k.tokens != v.tokens:
        raise ValueError("key and value token counts differ")
    weights = _softmax_rows(attn_logits(variant, q, k, point_channels))
    c, n = v.channels, v.algebra.size
    out = weights @ _rows(v.mv, v.scalars)
    mv = out[:, : c * n].reshape(q.tokens, c, n)
    return MvChannels(v.algebra, mv, out[:, c * n :])
