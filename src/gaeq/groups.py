"""Versors, their matrix representations, and infinitesimal generators.

The Euclidean group acts on each algebra by sandwiching with versors
(products of unit vectors).  This module provides

* the :class:`Versor` wrapper with parity bookkeeping,
* ``rho``: the 2**d x 2**d matrix of a versor action on coefficients,
* ``drho``: the commutator action of a Lie algebra bivector, following the
  convention drho(X) v = X v - v X (no 1/2; null spaces are unaffected by
  the overall factor, finite group elements use rho(exp(X)) = expm(drho(X))),
* per-algebra generator sets for the rotation subgroup, the translations
  where the algebra represents them, and the mirror generator,
* random group elements and plane-built Euclidean motions whose versor and
  3x3 affine action match by construction,
* Kronecker-product constraint terms and rows for the equivariant-map solver.

Group tags: "se3" = orientation preserving (no mirror constraint), "e3"
adds the mirror.  For the Euclidean algebra translations act trivially, so
the tags effectively mean SO(3) and O(3) there.
"""

from dataclasses import dataclass, field

import numpy as np

from gaeq.algebra import (
    ga_exp,
    geometric_product,
    get_algebra,
    inner,
    involute,
    left_mult_matrix,
    mv_inverse,
    right_mult_matrix,
    sandwich,
    wedge,
)
from gaeq.embeddings import embed_plane_cga, embed_plane_pga

__all__ = [
    "Versor",
    "rho",
    "drho",
    "lie_generators",
    "mirror_versor",
    "generators",
    "random_group_element",
    "EuclideanMotion",
    "random_motion",
    "RepMatrix",
    "constraint_rows",
]

GROUPS = ("se3", "e3")


@dataclass
class Versor:
    """A group element: multivector value plus parity of its vector factors.

    Only homogeneous versors are representable: products of an even number
    of unit vectors (odd=False) or an odd number (odd=True).
    """

    algebra: object
    value: np.ndarray
    odd: bool = False

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        nrm = inner(self.algebra, self.value, self.value)
        if abs(abs(nrm) - 1.0) > 1e-9:
            raise ValueError(f"versor norm <u,u> = {nrm}, expected magnitude 1")

    def apply(self, x):
        """Sandwich action on a multivector (twisted when odd)."""
        return sandwich(self.algebra, self.value, x, odd=self.odd)

    def compose(self, other):
        """Versor of self after other: value product, parities add."""
        if other.algebra is not self.algebra:
            raise ValueError("versors from different algebras")
        return Versor(
            self.algebra,
            geometric_product(self.algebra, self.value, other.value),
            odd=self.odd != other.odd,
        )


def rho(alg, versor):
    """Matrix of the versor action on coefficient vectors."""
    m = left_mult_matrix(alg, versor.value) @ right_mult_matrix(
        alg, mv_inverse(alg, versor.value)
    )
    if versor.odd:
        m = m * alg.involute_signs[None, :]
    return m


def drho(alg, x):
    """Matrix of v -> x v - v x for a Lie algebra element x."""
    return left_mult_matrix(alg, x) - right_mult_matrix(alg, x)


def lie_generators(alg):
    """Bivector generators of the connected group acting on the algebra.

    Rotations are generated by e12, e23, e13 in every algebra.  The
    projective algebra adds the degenerate translation bivectors e01, e02,
    e03; the conformal algebra the null translation bivectors inf ^ e1,
    inf ^ e2, inf ^ e3 built from the derived frame.
    """
    rot = [
        geometric_product(alg, alg.blade("e1"), alg.blade("e2")),
        geometric_product(alg, alg.blade("e2"), alg.blade("e3")),
        geometric_product(alg, alg.blade("e1"), alg.blade("e3")),
    ]
    if alg.name == "ega":
        return rot
    if alg.name == "pga":
        return rot + [
            alg.blade("e01"),
            alg.blade("e02"),
            alg.blade("e03"),
        ]
    if alg.name == "cga":
        return rot + [
            wedge(alg, alg.infinity, alg.blade("e1")),
            wedge(alg, alg.infinity, alg.blade("e2")),
            wedge(alg, alg.infinity, alg.blade("e3")),
        ]
    raise ValueError(alg.name)


def mirror_versor(alg):
    """The discrete generator extending the connected group to mirrors."""
    return Versor(alg, alg.blade("e1"), odd=True)


def generators(alg, group):
    """(Lie bivectors, discrete versors) for the chosen group tag."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}, expected one of {GROUPS}")
    discrete = [mirror_versor(alg)] if group == "e3" else []
    return lie_generators(alg), discrete


def random_group_element(alg, group, rng):
    """Sample a versor: exp of a random generator combination, with a
    mirror factor half the time when the group includes mirrors."""
    gens = lie_generators(alg)
    coeffs = rng.uniform(-1.0, 1.0, len(gens))
    b = sum(c * g for c, g in zip(coeffs, gens))
    u = Versor(alg, ga_exp(alg, b), odd=False)
    if group == "e3" and rng.random() < 0.5:
        u = u.compose(mirror_versor(alg))
    return u


# -- Euclidean motions built from reflections -------------------------------


@dataclass
class EuclideanMotion:
    """A Euclidean motion given as a chain of plane reflections.

    The same planes produce the 3x3 affine action and, through the plane
    embeddings, a versor in any algebra, so the two stay consistent to
    machine precision.  planes[0] is applied first.
    """

    planes: list
    linear: np.ndarray = field(init=False)
    offset: np.ndarray = field(init=False)

    def __post_init__(self):
        m = np.eye(3)
        t = np.zeros(3)
        for n, delta in self.planes:
            n = np.asarray(n, dtype=float)
            h = np.eye(3) - 2.0 * np.outer(n, n)
            m = h @ m
            t = h @ t + 2.0 * float(delta) * n
        self.linear = m
        self.offset = t

    @property
    def odd(self):
        return len(self.planes) % 2 == 1

    def apply_points(self, pts):
        pts = np.asarray(pts, dtype=float)
        return pts @ self.linear.T + self.offset

    def apply_vectors(self, vecs):
        return np.asarray(vecs, dtype=float) @ self.linear.T

    def versor(self, alg, center=None):
        """Matching versor.  For the Euclidean algebra the motion must fix
        the given center (it acts on centered coordinates)."""
        u = alg.unit()
        for n, delta in self.planes:
            if alg.name == "pga":
                v = embed_plane_pga(n, delta)
            elif alg.name == "cga":
                v = embed_plane_cga(n, delta)
            else:
                if center is None:
                    raise ValueError("Euclidean-algebra versor needs a center")
                if abs(np.asarray(n) @ np.asarray(center) - delta) > 1e-9:
                    raise ValueError("plane does not pass through the center")
                v = np.zeros(alg.size)
                v[[1, 2, 4]] = n
            u = geometric_product(alg, v, u)
        return Versor(alg, u, odd=self.odd)


def random_motion(rng, n_planes, center=None, offset_scale=1.0):
    """Random motion from n_planes reflections.

    Even counts give rototranslations (2: a rotation about a line, 4: a
    generic screw), odd counts add a mirror.  With a center, every plane
    passes through it, so the motion fixes the center.
    """
    planes = []
    for _ in range(n_planes):
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        if center is not None:
            delta = float(n @ np.asarray(center, dtype=float))
        else:
            delta = float(rng.uniform(-offset_scale, offset_scale))
        planes.append((n, delta))
    return EuclideanMotion(planes)


# -- constraint rows for the solver ------------------------------------------


@dataclass
class RepMatrix:
    """One representation matrix, either a finite group element ("group")
    or a Lie algebra action ("lie")."""

    matrix: np.ndarray
    flavor: str

    def __post_init__(self):
        if self.flavor not in ("group", "lie"):
            raise ValueError(f"flavor must be 'group' or 'lie', got {self.flavor!r}")
        self.matrix = np.asarray(self.matrix, dtype=float)


def _kron(a, b):
    # np.kron for two matrices, the same products without its shape handling
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _kron_all(mats):
    out = np.eye(1)
    for m in mats:
        out = _kron(out, m)
    return out


def _kron_sum(mats):
    """Derivative of a Kronecker product: sum of single-slot insertions."""
    dims = [m.shape[0] for m in mats]
    total = _kron_all([np.zeros((d, d)) for d in dims])
    for j, m in enumerate(mats):
        factors = [np.eye(d) for d in dims]
        factors[j] = m
        total = total + _kron_all(factors)
    return total


def constraint_rows(out_rep, in_reps):
    """Rows whose kernel is the space of equivariant linear maps.

    A map phi from the tensor product of the input representations to the
    output representation is flattened row major, phi[i, j] -> vec[i * n_in
    + j].  For a Lie constraint the rows express d_out phi - phi d_in = 0,
    kron(d_out, I) - kron(I, d_in^T); for a finite element they express
    r_out phi r_in^-1 - phi = 0, kron(r_out, r_in^-T) - I.  All
    representations share the flavor.
    """
    flavors = {out_rep.flavor} | {r.flavor for r in in_reps}
    if len(flavors) != 1:
        raise ValueError("mixed group/lie constraint")
    n_out = out_rep.matrix.shape[0]
    n_in = int(np.prod([r.matrix.shape[0] for r in in_reps])) if in_reps else 1
    if out_rep.flavor == "lie":
        d_in = _kron_sum([r.matrix for r in in_reps]) if in_reps else np.zeros((1, 1))
        return _kron(out_rep.matrix, np.eye(n_in)) - _kron(np.eye(n_out), d_in.T)
    r_in = _kron_all([r.matrix for r in in_reps]) if in_reps else np.eye(1)
    return _kron(out_rep.matrix, np.linalg.inv(r_in).T) - np.eye(n_out * n_in)
