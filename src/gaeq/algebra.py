"""Clifford algebra core: blade tables, products, involutions, exponentials.

A multivector over an algebra with d generators is a plain numpy array whose
last axis has length 2**d.  Basis blades are indexed by bitmask: bit i set
means generator i is part of the blade, and generators inside a blade are
kept in ascending position order.  All operations broadcast over leading
axes, so arrays of shape (tokens, channels, 2**d) work everywhere.

The product of two basis blades is a signed blade, e_a e_b = sign[a, b]
e_(a ^ b): the parity of sorting the generators of a then b into ascending
order, times the squares of the generators a and b share.  The wedge keeps
the pairs sharing no generator.  The join is the wedge taken through right
complements, join(x, y) = rc^-1(rc(x) wedge rc(y)), where
rc(e_a) = sign e_(~a) with e_a wedge rc(e_a) the pseudoscalar.

The conformal geometric product goes through the isomorphism
Cl(4,1) = M4(C) instead of the 32^3 structure tensor: each blade is a
signed permutation matrix in the real 8x8 form of its complex 4x4 image,
and a product is one small matrix product read back onto the blades.

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


def _conformal_matrices():
    """Real 8x8 images of the 32 conformal blades, as a (32, 8, 8) array.

    The generators e1, e2, e3, e+, e- map to sx(x)sx, sx(x)sy, sx(x)sz,
    sy(x)I and i sz(x)I in M4(C) (Lounesto, Clifford Algebras and Spinors,
    2001), which square to +1, +1, +1, +1, -1 and anticommute; a blade maps
    to the product of its generators in ascending order, and a complex
    matrix M to [[Re M, -Im M], [Im M, Re M]], a real homomorphism, so the
    products are taken in real form.  Every entry is 0 or +-1.
    """
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0 + 0j, -1.0])
    one = np.eye(2)
    mats = np.eye(8)[None]
    # bit i is the highest bit of blades 2^i .. 2^(i+1) - 1
    for a, b in ((sx, sx), (sx, sy), (sx, sz), (sy, one), (1j * sz, one)):
        g = np.kron(a, b)
        mats = np.concatenate([mats, mats @ np.block([[g.real, -g.imag], [g.imag, g.real]])])
    return mats


def _structure_tensor(sign, mask):
    """Dense tensor of a blade product rule e_a * e_b = sign[a, b] e_mask[a, b]:
    T[a, b, mask[a, b]] = sign[a, b], zero elsewhere, so that
    z_k = sum_ab T[a, b, k] x_a y_b."""
    n = len(sign)
    idx = np.arange(n)
    t = np.zeros((n, n, n))
    t[idx[:, None], idx[None, :], mask] = sign
    return t


class Algebra:
    """Blade tables of one Clifford algebra, all read off one reorder parity.

    e_a e_b = gp_sign[a, b] e_(a ^ b); wedge_tensor keeps the pairs sharing
    no generator.  In a degenerate algebra join(e_a, e_b) =
    join_sign[a, b] e_(a & b), nonzero where a and b together cover every
    generator.  Use :func:`get_algebra` rather than constructing directly;
    instances are shared, so every array they hold is read-only.
    """

    def __init__(self, name, squares, labels):
        self.name = name
        self.squares = tuple(squares)
        self.labels = tuple(labels)
        self.n = len(squares)
        self.size = 1 << self.n
        masks = np.arange(self.size)
        full = self.size - 1
        bits = masks[:, None] >> np.arange(self.n) & 1  # bits[a, i]: generator i in blade a
        self.grades = bits.sum(axis=1)
        self.max_grade = self.n
        self.degenerate = any(s == 0 for s in squares)

        # parity[a, b] = (-1)^#{(i in a, j in b) : i > j}, the sign of sorting
        # the generators of e_a e_b into ascending order
        later = np.tril(np.ones((self.n, self.n), dtype=int), -1)  # later[i, j] = i > j
        swaps = bits @ later @ bits.T
        parity = np.where(swaps % 2 == 0, 1.0, -1.0)

        # each generator shared by a and b contracts to its square
        shared = bits[:, None, :] & bits[None, :, :]
        metric = np.where(shared == 1, np.array(squares, dtype=float), 1.0).prod(axis=-1)
        self.gp_sign = parity * metric
        self.gp_mask = masks[:, None] ^ masks[None, :]
        self.gp_tensor = _structure_tensor(self.gp_sign, self.gp_mask)

        disjoint = (masks[:, None] & masks[None, :]) == 0
        self.wedge_tensor = _structure_tensor(np.where(disjoint, parity, 0.0), self.gp_mask)

        k = self.grades
        self.reverse_signs = np.where(k * (k - 1) // 2 % 2 == 0, 1.0, -1.0)
        self.involute_signs = np.where(k % 2 == 0, 1.0, -1.0)
        # <x, y> = sum_a x_a y_a inner_weights[a]; zero weight on blades
        # containing a degenerate generator
        self.inner_weights = self.reverse_signs * self.gp_sign[masks, masks]

        self._grade_masks = [
            (self.grades == g).astype(float) for g in range(self.n + 1)
        ]
        self._grade_indices = [
            np.flatnonzero(self.grades == g) for g in range(self.n + 1)
        ]

        if self.degenerate:
            comp = full ^ masks
            # right complement rc(e_a) = rc[a] e_(~a), signed so that
            # e_a wedge rc(e_a) = parity[a, ~a] e_(a | ~a) is the pseudoscalar
            rc = parity[masks, comp]
            # rc(e_a) wedge rc(e_b) = rc[a] rc[b] parity[~a, ~b] e_(~a | ~b)
            # when ~a and ~b are disjoint (a and b cover every generator), and
            # ~a | ~b = ~(a & b), which rc^-1 maps to rc[a & b] e_(a & b)
            covering = (comp[:, None] & comp[None, :]) == 0
            self.join_mask = masks[:, None] & masks[None, :]
            wedge_sign = rc[:, None] * rc[None, :] * parity[comp[:, None], comp[None, :]]
            self.join_sign = np.where(covering, wedge_sign * rc[self.join_mask], 0.0)
            self.join_tensor = _structure_tensor(self.join_sign, self.join_mask)
            self.rc_sign = rc
        else:
            self.join_sign = None
            self.join_mask = None
            self.join_tensor = None

        self.infinity = None
        self.origin = None
        # conformal blades as flattened real 8x8 matrices, rep[a] @ rep[b] =
        # gp_sign[a, b] rep[a ^ b]; a product is read back from the left
        # 8x4 half of its matrix, where the blades (rep_half) are orthogonal
        # with squared norm 4, so rep_back = rep_half.T / 4 maps those 32
        # entries to coefficients
        self.rep = self.rep_half = self.rep_back = None
        if name == "cga":
            mats = _conformal_matrices()
            self.rep = mats.reshape(self.size, 64)
            self.rep_half = mats[:, :, :4].reshape(self.size, 32)
            self.rep_back = self.rep_half.T / 4
            ip, im = self.blade_index("e+"), self.blade_index("e-")
            self.infinity = np.zeros(self.size)
            self.infinity[[im, ip]] = 1.0, -1.0
            self.origin = np.zeros(self.size)
            self.origin[[im, ip]] = 0.5

        # get_algebra shares one instance, so an in-place write into any
        # table would corrupt every later product
        for value in vars(self).values():
            for arr in value if isinstance(value, list) else [value]:
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False

    # -- blade bookkeeping ------------------------------------------------

    def blade_index(self, name):
        """Bitmask index of a named blade, e.g. 'e023', 'e12', '1', 'e+-'."""
        if name in ("1", "", "e"):
            return 0
        if not name.startswith("e"):
            raise ValueError(f"bad blade name {name!r}")
        mask = 0
        for ch in name[1:]:
            if ch not in self.labels:
                raise ValueError(
                    f"unknown generator {ch!r} in blade {name!r}; "
                    f"{self.name} has generators {self.labels}"
                )
            bit = 1 << self.labels.index(ch)
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


# rows per block of the structure-tensor kernel: the (rows, n, n)
# left-multiplication maps of a pga block stay at 128 KB whatever the batch
# size; on 2048 rows of pga (BLAS at one thread) 64 to 128 rows ran fastest,
# 32 and 256 slower
_BLOCK_ROWS = 64
# rows per chunk of the conformal matrix product: on 2048 rows (BLAS at one
# thread) 1024-row chunks were 2.3x slower than 256, and an unchunked
# product lost most of its gain above 2048 rows
_REP_ROWS = 256


def _bilinear(x, y, tensor):
    """z_k = sum_ab tensor[a, b, k] x_a y_b, broadcasting over leading axes.

    The leading axes are flattened to rows; each block of rows applies the
    left-multiplication maps of the basis blades to its y coefficients in
    one GEMM, m[r, a, k] = sum_b tensor[a, b, k] y_b, then contracts each
    row's (n, n) map with its x coefficients in a batched matvec.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    n = tensor.shape[-1]
    lead = x.shape[:-1]
    xr, yr = x.reshape(-1, n), y.reshape(-1, n)
    left = tensor.transpose(1, 0, 2).reshape(n, n * n)
    out = np.empty((xr.shape[0], n))
    for start in range(0, xr.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        maps = (yr[rows] @ left).reshape(-1, n, n)
        np.matmul(xr[rows, None, :], maps, out=out[rows, None, :])
    return out.reshape(lead + (n,))


def _rep_product(alg, x, y):
    """Conformal geometric product through the 8x8 blade matrices.

    Per chunk of rows, x' and y' (x and y without their scalar parts) map to
    their matrices, X = x' rep and the left half Y = y' rep_half;
    X Y, read back through rep_back, is x'y', and x0 y + y0 x' adds the
    rest.  The split keeps the scalar terms exact: gp(1, y) and gp(y, 1)
    are y bit for bit, and each blade pair's product, whose every
    intermediate is a multiple of 1/4, is exact.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    lead = x.shape[:-1]
    xr, yr = x.reshape(-1, alg.size), y.reshape(-1, alg.size)
    left, right = alg.rep[1:], alg.rep_half[1:]
    out = np.empty(xr.shape)
    for start in range(0, xr.shape[0], _REP_ROWS):
        rows = slice(start, start + _REP_ROWS)
        xc, yc, z = xr[rows], yr[rows], out[rows]
        r = z.shape[0]
        xm = (xc[:, 1:] @ left).reshape(r, 8, 8)
        ym = (yc[:, 1:] @ right).reshape(r, 8, 4)
        np.matmul((xm @ ym).reshape(r, 32), alg.rep_back, out=z)
        z += xc[:, :1] * yc
        z[:, 1:] += yc[:, :1] * xc[:, 1:]
    return out.reshape(lead + (alg.size,))


def geometric_product(alg, x, y):
    """Geometric product, broadcasting over leading axes."""
    if alg.rep is not None:
        return _rep_product(alg, x, y)
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
