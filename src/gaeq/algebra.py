"""Clifford algebra core: blade tables, products, involutions, exponentials.

A multivector over an algebra with d generators is a plain numpy array whose
last axis has length 2**d.  Basis blades are indexed by bitmask: bit i set
means generator i is part of the blade, and generators inside a blade are
kept in ascending position order.  All operations broadcast over leading
axes, so arrays of shape (tokens, channels, 2**d) work everywhere.

Supported algebras and their generator orders:

=========  =======================  ==============================
name       generators (in order)    squares
=========  =======================  ==============================
``ega``    e1, e2, e3               +1, +1, +1
``pga``    e0, e1, e2, e3           0, +1, +1, +1
``cga``    e1, e2, e3, e+, e-       +1, +1, +1, +1, -1
=========  =======================  ==============================

The conformal null frame is derived from e+ and e-:
infinity = e- - e+ and origin = (e- + e+)/2, so that
<inf, inf> = <o, o> = 0 and <inf, o> = -1.
"""

import math

import numpy as np

__all__ = [
    "Algebra",
    "get_algebra",
    "geometric_product",
    "wedge",
    "join",
    "inner",
    "grade_project",
    "reverse",
    "involute",
    "mv_inverse",
    "ga_exp",
    "sandwich",
    "blade_coefficient",
    "left_mult_matrix",
    "right_mult_matrix",
    "NonInvertibleError",
    "ExpConvergenceError",
]

_SIGNATURES = {
    "ega": ((1, 1, 1), ("1", "2", "3")),
    "pga": ((0, 1, 1, 1), ("0", "1", "2", "3")),
    "cga": ((1, 1, 1, 1, -1), ("1", "2", "3", "+", "-")),
}


class NonInvertibleError(ValueError):
    """Raised when the versor inverse formula does not apply."""


class ExpConvergenceError(ArithmeticError):
    """Raised when the exponential series fails to converge."""


def _reorder_sign(a, b):
    """Sign from sorting the concatenation of two ascending blades.

    Counts, for every generator in a, the generators in b it has to move
    past.  Metric factors are handled separately.
    """
    a >>= 1
    swaps = 0
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


class Algebra:
    """Precomputed multiplication structure for one Clifford algebra.

    Use :func:`get_algebra` rather than constructing directly; instances
    are immutable in practice and shared.
    """

    def __init__(self, name, squares, labels):
        self.name = name
        self.squares = tuple(squares)
        self.labels = tuple(labels)
        self.n = len(squares)
        self.size = 1 << self.n
        masks = np.arange(self.size)
        self.grades = np.array([int(m).bit_count() for m in masks])
        self.max_grade = self.n
        self.degenerate = any(s == 0 for s in squares)

        sign = np.zeros((self.size, self.size))
        for a in range(self.size):
            for b in range(self.size):
                s = _reorder_sign(a, b)
                shared = a & b
                for i in range(self.n):
                    if shared >> i & 1:
                        s *= squares[i]
                sign[a, b] = s
        self.gp_sign = sign
        self.gp_mask = masks[:, None] ^ masks[None, :]

        # dense structure tensor: z_k = sum_ab T[a,b,k] x_a y_b
        t = np.zeros((self.size, self.size, self.size))
        t[masks[:, None], masks[None, :], self.gp_mask] = sign
        self.gp_tensor = t

        disjoint = (masks[:, None] & masks[None, :]) == 0
        tw = np.zeros_like(t)
        tw[masks[:, None], masks[None, :], self.gp_mask] = np.where(disjoint, sign, 0.0)
        self.wedge_tensor = tw

        k = self.grades
        self.reverse_signs = np.where(k * (k - 1) // 2 % 2 == 0, 1.0, -1.0)
        self.involute_signs = np.where(k % 2 == 0, 1.0, -1.0)
        # <x, y> = sum_a x_a y_a inner_weights[a]; zero weight on blades
        # containing a degenerate generator
        self.inner_weights = self.reverse_signs * sign[masks, masks]

        self._grade_masks = [
            (self.grades == g).astype(float) for g in range(self.n + 1)
        ]
        self._grade_indices = [
            np.flatnonzero(self.grades == g) for g in range(self.n + 1)
        ]
        for idx in self._grade_indices:
            idx.flags.writeable = False

        if self.degenerate:
            self._build_join()
        else:
            self.join_sign = None
            self.join_mask = None
            self.join_tensor = None

        if name == "cga":
            ip, im = self.blade_index("e+"), self.blade_index("e-")
            inf = np.zeros(self.size)
            inf[im] = 1.0
            inf[ip] = -1.0
            origin = np.zeros(self.size)
            origin[im] = 0.5
            origin[ip] = 0.5
            self.infinity = inf
            self.origin = origin
        else:
            self.infinity = None
            self.origin = None

    def _build_join(self):
        # Join through complements: rc(e_a) = s_a e_(~a) with the sign fixed
        # so that e_a wedge rc(e_a) is the positively oriented pseudoscalar.
        # join(x, y) = rc_inverse(rc(x) wedge rc(y)); this makes the
        # pseudoscalar the unit of the join: I join 1 = 1.
        full = self.size - 1
        rc_sign = np.array([_reorder_sign(a, full ^ a) for a in range(self.size)])
        self.rc_sign = rc_sign
        sign = np.zeros((self.size, self.size))
        mask = np.zeros((self.size, self.size), dtype=int)
        for a in range(self.size):
            for b in range(self.size):
                ac, bc = full ^ a, full ^ b
                mask[a, b] = a & b
                if ac & bc:
                    continue  # a and b together must cover every generator
                sw = _reorder_sign(ac, bc)
                sign[a, b] = rc_sign[a] * rc_sign[b] * sw * rc_sign[a & b]
        self.join_sign = sign
        self.join_mask = mask
        t = np.zeros((self.size, self.size, self.size))
        masks = np.arange(self.size)
        t[masks[:, None], masks[None, :], mask] = sign
        self.join_tensor = t

    # -- blade bookkeeping ------------------------------------------------

    def blade_index(self, name):
        """Bitmask index of a named blade, e.g. 'e023', 'e12', '1', 'e+-'."""
        if name in ("1", "", "e"):
            return 0
        if not name.startswith("e"):
            raise ValueError(f"bad blade name {name!r}")
        mask = 0
        for ch in name[1:]:
            pos = self.labels.index(ch)
            bit = 1 << pos
            if mask & bit:
                raise ValueError(f"repeated generator in {name!r}")
            mask |= bit
        return mask

    def blade_name(self, idx):
        if idx == 0:
            return "1"
        return "e" + "".join(self.labels[i] for i in range(self.n) if idx >> i & 1)

    def blade(self, name):
        """Unit multivector for a named blade (canonical generator order)."""
        out = np.zeros(self.size)
        out[self.blade_index(name)] = 1.0
        return out

    def grade_indices(self, k):
        """Ascending blade indices of grade k, a shared read-only array."""
        if not 0 <= k <= self.n:
            return np.zeros(0, dtype=int)
        return self._grade_indices[k]

    def unit(self):
        out = np.zeros(self.size)
        out[0] = 1.0
        return out

    def __repr__(self):
        return f"Algebra({self.name!r}, squares={self.squares})"


_CACHE = {}


def get_algebra(name):
    """Shared Algebra instance for 'ega', 'pga' or 'cga'."""
    if name not in _SIGNATURES:
        raise ValueError(f"unknown algebra {name!r}, expected one of {sorted(_SIGNATURES)}")
    if name not in _CACHE:
        _CACHE[name] = Algebra(name, *_SIGNATURES[name])
    return _CACHE[name]


# -- products -------------------------------------------------------------


# rows per block of the product kernel: the (rows, n*n) outer-product
# temporary of a cga block stays at 512 KB whatever the batch size
_BLOCK_ROWS = 64


def _bilinear(x, y, tensor):
    """z_k = sum_ab tensor[a, b, k] x_a y_b, broadcasting over leading axes.

    The leading axes are flattened to rows; each block of rows takes the
    outer product of its x and y coefficients and multiplies it by the
    (n*n, n) reshaped structure tensor.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n = tensor.shape[-1]
    lead = x.shape[:-1]
    xr, yr = x.reshape(-1, n), y.reshape(-1, n)
    flat = tensor.reshape(n * n, n)
    out = np.empty((xr.shape[0], n))
    for start in range(0, xr.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        outer = xr[rows, :, None] * yr[rows, None, :]
        np.matmul(outer.reshape(-1, n * n), flat, out=out[rows])
    return out.reshape(lead + (n,))


def geometric_product(alg, x, y):
    """Geometric product, broadcasting over leading axes."""
    return _bilinear(x, y, alg.gp_tensor)


def wedge(alg, x, y):
    """Outer product: the grade k+l part of the product of k and l vectors."""
    return _bilinear(x, y, alg.wedge_tensor)


def join(alg, x, y):
    """Join (regressive product).  Defined for degenerate algebras only.

    Computed as the complement of the wedge of complements.  The sign
    convention is fixed by requiring pseudoscalar join 1 = 1.
    """
    if alg.join_tensor is None:
        raise ValueError(f"join is not defined for algebra {alg.name!r}")
    return _bilinear(x, y, alg.join_tensor)


def inner(alg, x, y):
    """Invariant bilinear form <x, y>: the scalar part of x times reverse(y)."""
    return np.einsum("...a,...a,a->...", x, y, alg.inner_weights)


def grade_project(alg, x, k):
    """Grade-k part of x.  k may exceed the top grade, yielding zero."""
    if k < 0 or k > alg.max_grade:
        return np.zeros_like(x)
    return x * alg._grade_masks[k]


def reverse(alg, x):
    """Reversal anti-automorphism: sign (-1)^(k(k-1)/2) per grade k."""
    return x * alg.reverse_signs


def involute(alg, x):
    """Grade involution: sign (-1)^k per grade k."""
    return x * alg.involute_signs


def mv_inverse(alg, x):
    """Inverse of a versor or invertible blade: reverse(x) / <x, x>.

    Only valid when x reverse(x) is a nonzero scalar, which holds for
    versors and invertible blades; no check of that structure is attempted
    beyond the magnitude of <x, x>.
    """
    nrm = inner(alg, x, x)
    scale = np.abs(x).max(axis=-1)
    if np.any(np.abs(nrm) <= 1e-12 * scale**2):
        raise NonInvertibleError("multivector norm too close to zero for inversion")
    return reverse(alg, x) / nrm[..., None]


def ga_exp(alg, x, tol=1e-15, max_terms=64):
    """Exponential by the power series sum x^n / n!.

    Terminates once the latest term is below tol relative to the running
    result; raises ExpConvergenceError after max_terms terms.
    """
    result = np.zeros_like(x)
    result[..., 0] = 1.0
    term = result.copy()
    for n in range(1, max_terms + 1):
        term = geometric_product(alg, term, x) / n
        result = result + term
        if np.abs(term).max() <= tol * max(1.0, np.abs(result).max()):
            return result
    raise ExpConvergenceError(f"exp series did not converge in {max_terms} terms")


def sandwich(alg, u, x, odd=False):
    """Conjugation u x u^-1, twisted to u involute(x) u^-1 for odd u.

    The twist makes products of an odd number of unit vectors act as point
    reflections with the expected orientation.
    """
    xx = involute(alg, x) if odd else x
    return geometric_product(alg, geometric_product(alg, u, xx), mv_inverse(alg, u))


# -- coefficient extraction ----------------------------------------------


def blade_coefficient(alg, x, blade_idx):
    """Coefficient of one basis blade, computed through invariant products.

    For non-degenerate algebras this is <x reverse(e)>_0 / <e, e>.  For the
    projective algebra, where blades containing e0 are invisible to the
    metric, the coefficient is read off as <(x wedge c) join 1>_0 with c the
    complement blade satisfying e wedge c = pseudoscalar.
    """
    x = np.asarray(x, dtype=float)
    if not alg.degenerate:
        e = np.zeros(alg.size)
        e[blade_idx] = 1.0
        denom = inner(alg, e, e)
        return np.einsum("...a,a->...", x, alg.gp_tensor[:, blade_idx, 0] * alg.reverse_signs[blade_idx]) / denom
    full = alg.size - 1
    comp = np.zeros(alg.size)
    comp[full ^ blade_idx] = alg.rc_sign[blade_idx]
    one = np.zeros(alg.size)
    one[0] = 1.0
    return join(alg, wedge(alg, x, comp), one)[..., 0]


# -- multiplication operators ----------------------------------------------


def left_mult_matrix(alg, x):
    """Matrix of y -> x y acting on coefficient vectors.

    A signed permutation of x: entry (k, b) is x_a times the sign of
    e_a e_b, with a = k ^ b the one blade whose product with e_b lands on
    e_k.
    """
    a = alg.gp_mask
    return np.asarray(x, dtype=float)[a] * alg.gp_sign[a, np.arange(alg.size)]


def right_mult_matrix(alg, x):
    """Matrix of y -> y x acting on coefficient vectors: entry (k, a) is
    x_b times the sign of e_a e_b, with b = k ^ a."""
    b = alg.gp_mask
    return np.asarray(x, dtype=float)[b] * alg.gp_sign[np.arange(alg.size), b]
