"""Bases of group-equivariant linear and multilinear maps.

Three cooperating pieces:

* null-space solving: equivariance of a linear map is a linear constraint
  on its matrix entries (commutation with every infinitesimal generator,
  plus invariance under the mirror versor for the full group), so the space
  of equivariant maps is the kernel of a stacked constraint matrix,
* closed-form map families per algebra (grade projections, multiplication
  by the special vectors e0 / infinity, pseudoscalar multiplication) that
  the solved kernels are compared against,
* a span construction that composes the solved linear maps with the
  product tensors of the algebra (geometric product, optionally the join)
  over all input permutations, reduces after every composition stage, and
  compares the reachable span against the full multilinear null space,
  grade slice by grade slice.

Solving always works grade slice by grade slice; the full tensor space is
never materialized.  The default solve of a slice is one singular value
decomposition in reduced coordinates: its columns are an exact integer
basis of the slice's rotation-invariant subspace (every equivariant map
lies there), built in closed form from the spin-0 and spin-1 pieces of each
grade block and the delta/epsilon invariant tensors of SO(3), and its rows
are the z translation and mirror constraints only, applied factor by factor
to the basis tensor.  Slices beyond that tier go to a matrix-free block
eigensolver over all generators; it is the only user of scipy, which it
imports itself, so every other path runs on numpy alone.  method="dense"
keeps the full stacked constraint matrix of one constraint builder,
groups.constraint_terms, as the independent reference.  The linear basis
is solved block by block, as the (d+1)^2 arity-1 slices.  Slices whose
flattened map exceeds the entry cap raise SliceTooLargeError.
"""

import functools
import itertools
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from gaeq.algebra import geometric_product, get_algebra, left_mult_matrix, wedge
from gaeq.groups import (
    GROUPS,
    RepMatrix,
    constraint_rows,
    drho,
    lie_generators,
    mirror_versor,
    rho,
)

__all__ = [
    "DEFAULT_ENTRY_CAP",
    "GradeSlice",
    "LinearMapBasis",
    "RankAmbiguityWarning",
    "SliceEntry",
    "SliceTooLargeError",
    "SpanReport",
    "algebra_span_dim",
    "closed_form_basis",
    "closed_form_maps",
    "equivariant_map_family",
    "identity_coefficients",
    "pseudoscalar_maps",
    "solve_linear_basis",
    "solve_multilinear_dim",
    "span_residual",
    "subspace_distance",
    "verify_conjecture",
]

DEFAULT_ENTRY_CAP = 20_000_000
# tier boundary on the flattened map length: the invariant-basis solve up to
# _GRAM_MAX_VEC, the matrix-free eigensolver beyond.  _DENSE_MAX_VEC bounds
# no tier any more; perfbench's tracer still reads both names.
_DENSE_MAX_VEC = 1500
_GRAM_MAX_VEC = 11000


class SliceTooLargeError(ValueError):
    """A grade slice needs more entries than the configured cap allows."""


class RankAmbiguityWarning(UserWarning):
    """Rank decision was not clear-cut; carries the full spectrum."""

    def __init__(self, message, spectrum):
        super().__init__(message)
        self.spectrum = np.asarray(spectrum)


class EquivarianceSpotCheckWarning(UserWarning):
    """A solved basis failed the extra random-generator constraint check."""


def _algebra(algebra):
    return algebra if hasattr(algebra, "gp_tensor") else get_algebra(algebra)


def _check_group(group):
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}, expected one of {GROUPS}")


# -- rank decisions ------------------------------------------------------------


def _rank_from_spectrum(s, rel_tol):
    """Count of kept values from a descending spectrum, with warnings.

    Warns when values sit within a factor 10 of the threshold, and when the
    kept/dropped separation is thinner than 1e3.
    """
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0:
        return 0
    thresh = rel_tol * s[0]
    rank = int(np.count_nonzero(s > thresh))
    near = s[(s > thresh / 10.0) & (s < thresh * 10.0)]
    if near.size:
        warnings.warn(
            RankAmbiguityWarning(
                f"{near.size} spectrum value(s) within 10x of the rank "
                f"threshold {thresh:.3e}",
                s,
            ),
            stacklevel=3,
        )
    if 0 < rank < s.size:
        dropped = s[rank]
        if dropped > 0 and s[rank - 1] / dropped < 1e3:
            warnings.warn(
                RankAmbiguityWarning(
                    f"spectral gap {s[rank - 1]:.3e}/{dropped:.3e} at the rank "
                    "cut is thinner than the sanity bound",
                    s,
                ),
                stacklevel=3,
            )
    return rank


def _nullspace_dense(stack, rel_tol=1e-10):
    """Dimension of ker(stack)."""
    m, n = stack.shape
    if m == 0:
        return n
    s = np.linalg.svd(stack, compute_uv=False)
    return n - _rank_from_spectrum(s, rel_tol)


def _reduce_rows(rows, rel_tol=1e-10, abs_tol=0.0):
    """Orthonormal row basis of the row span, rank cut at rel_tol.

    abs_tol is an absolute floor under the relative cut, for rows whose
    true directions are O(1) but which also carry cancellation residue: a
    purely relative cut would promote that residue to a fake basis.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.size == 0 or rows.shape[0] == 0:
        return np.zeros((0, rows.shape[-1] if rows.ndim == 2 else 0))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        return vt[:0]
    rank = int(np.count_nonzero(s > max(rel_tol * s[0], abs_tol)))
    return vt[:rank]


# -- constraint generators -----------------------------------------------------

# lie_generators order: rotations e12, e23, e13, then translations x, y, z
_LIE_NAMES = ("Lz", "Lx", "Ly", "Tx", "Ty", "Tz")
# the constraints left on rotation-invariant columns: the constraint map is a
# Lie algebra homomorphism and the rotations' commutators with T_z span T_x
# and T_y, so T_z and the mirror generate the rest
_GENERATING_SET = ("Tz", "mirror")


@functools.lru_cache(maxsize=None)
def _generator_blocks(alg, group, names=None):
    """[(flavor, per-grade diagonal blocks)] per generator, all of them or
    those whose name is in the tuple names.

    Every constraint generator acts within each grade (checked), so
    grade-sliced solving only needs the diagonal blocks.
    """
    entries = [
        (name, "lie", drho(alg, x)) for name, x in zip(_LIE_NAMES, lie_generators(alg))
    ]
    if group == "e3":
        entries.append(("mirror", "group", rho(alg, mirror_versor(alg))))
    entries = [e for e in entries if names is None or e[0] in names]
    out = []
    for name, flavor, m in entries:
        blocks = []
        diag_mass = 0.0
        for k in range(alg.n + 1):
            idx = alg.grade_indices(k)
            b = m[np.ix_(idx, idx)]
            blocks.append(b)
            diag_mass += np.abs(b).sum()
        total = np.abs(m).sum()
        if abs(total - diag_mass) > 1e-9 * (1.0 + total):
            raise AssertionError(
                f"constraint generator mixes grades in {alg.name} ({flavor})"
            )
        out.append((flavor, blocks))
    return out


# -- linear map bases ----------------------------------------------------------


@dataclass
class LinearMapBasis:
    """Orthonormal (Frobenius) basis of a space of equivariant linear maps."""

    algebra: str
    group: str
    maps: np.ndarray  # (n_maps, 2^d, 2^d)

    @property
    def dim(self):
        return self.maps.shape[0]


def _linear_slice_svds(alg, group):
    """({(output grade, input grade): (s, vt)}, combined descending spectrum)
    of the (d+1)^2 arity-1 slices.  Generators preserve grade, so the full
    constraint stack is block diagonal over them up to permutations."""
    svds = {}
    for go in range(alg.n + 1):
        for gi in range(alg.n + 1):
            stack = _slice_stack(alg, group, GradeSlice((gi,), go))
            _, s, vt = np.linalg.svd(stack, full_matrices=False)
            svds[(go, gi)] = (s, vt)
    spectrum = np.sort(np.concatenate([s for s, _ in svds.values()]))[::-1]
    return svds, spectrum


def _linear_blocks(alg, group, rel_tol):
    """({(go, gi): orthonormal (k, n_go, n_gi) kernel basis}, full maps).

    Only blocks with a non-empty kernel are kept.  The rank cut is taken
    once, on the combined spectrum, relative to its largest value.
    """
    svds, spectrum = _linear_slice_svds(alg, group)
    rank = _rank_from_spectrum(spectrum, rel_tol)
    smallest_kept = spectrum[rank - 1] if rank else np.inf
    blocks = {}
    maps = [np.zeros((0, alg.size, alg.size))]
    for (go, gi), (s, vt) in svds.items():
        kernel = vt[np.count_nonzero(s >= smallest_kept) :]
        if kernel.shape[0]:
            io, ii = alg.grade_indices(go), alg.grade_indices(gi)
            blocks[(go, gi)] = kernel.reshape(-1, len(io), len(ii))
            maps.append(np.zeros((kernel.shape[0], alg.size, alg.size)))
            maps[-1][:, io[:, None], ii] = blocks[(go, gi)]
    maps = np.concatenate(maps)
    _spot_check_generic_generator(alg, maps.reshape(maps.shape[0], -1))
    return blocks, maps


def solve_linear_basis(algebra, group="e3", rel_tol=1e-10):
    """All equivariant linear maps on the full coefficient space.

    Stacks one commutation constraint per infinitesimal generator and, for
    the mirror-including group, one invariance constraint for the mirror
    versor, then takes the kernel by singular value decomposition, grade
    block by grade block: each map lies on one (output, input) grade block.
    """
    alg = _algebra(algebra)
    _check_group(group)
    return LinearMapBasis(alg.name, group, _linear_blocks(alg, group, rel_tol)[1])


def linear_constraint_spectrum(algebra, group="e3"):
    """Singular values of the stacked linear-equivariance constraints.

    The number of values below the kernel cutoff equals the dimension of the
    equivariant map space; the gap between the smallest retained value and the
    largest discarded one shows how well conditioned the split is.
    """
    alg = _algebra(algebra)
    _check_group(group)
    return _linear_slice_svds(alg, group)[1]


def _spot_check_generic_generator(alg, basis_flat):
    # linearly dependent generators give dependent constraints, so the basis
    # generators suffice; this re-checks one generic combination per solve,
    # with square roots of primes as weights so that no violation cancels
    # (fixed weights: the solve path never loads numpy.random)
    gens = lie_generators(alg)
    x = sum(c * g for c, g in zip(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]), gens))
    rep = RepMatrix(drho(alg, x), "lie")
    k = constraint_rows(rep, [rep])
    resid = np.abs(k @ basis_flat.T).max() if basis_flat.size else 0.0
    scale = max(np.abs(k).max(), 1.0)
    if resid > 1e-8 * scale:
        warnings.warn(
            EquivarianceSpotCheckWarning(
                f"solved {alg.name} basis violates a combined generator "
                f"constraint by {resid:.3e}"
            ),
            stacklevel=3,
        )


def _grade_projector(alg, k):
    p = np.zeros((alg.size, alg.size))
    idx = alg.grade_indices(k)
    p[idx, idx] = 1.0
    return p


def closed_form_maps(algebra):
    """Named generating maps of the mirror-including equivariant space.

    Grade projections for every algebra; composition with left
    multiplication by e0 (projective) or infinity (conformal) where those
    invariant vectors exist.  Returned unnormalized so the coefficients
    stay interpretable; independence and completeness are checked against
    the solved basis in the tests.
    """
    alg = _algebra(algebra)
    proj = [_grade_projector(alg, k) for k in range(alg.n + 1)]
    maps = [(f"project_grade_{k}", proj[k]) for k in range(alg.n + 1)]
    if alg.name == "pga":
        l0 = left_mult_matrix(alg, alg.blade("e0"))
        # e0 has zero inner products, so e0 x raises grade by exactly one
        maps += [
            (f"raise_by_e0_to_grade_{k}", proj[k] @ l0) for k in range(1, 5)
        ]
    if alg.name == "cga":
        li = left_mult_matrix(alg, alg.infinity)
        maps += [
            (f"contract_by_inf_grade_{k}", proj[k - 1] @ li @ proj[k])
            for k in range(1, 6)
        ]
        maps += [
            (f"expand_by_inf_grade_{k}", proj[k + 1] @ li @ proj[k])
            for k in range(0, 5)
        ]
        maps += [
            (f"inf_after_contract_grade_{k}", li @ proj[k - 1] @ li @ proj[k])
            for k in range(1, 5)
        ]
    return maps


def pseudoscalar_maps(algebra):
    """Grade projections composed with left pseudoscalar multiplication.

    These extra maps are equivariant for the orientation-preserving group
    only: mirrors flip the pseudoscalar's sign.
    """
    alg = _algebra(algebra)
    if alg.name == "ega":
        ps = alg.blade("e123")
    elif alg.name == "pga":
        ps = alg.blade("e0123")
    else:
        ps = wedge(alg, wedge(alg, alg.blade("e123"), alg.origin), alg.infinity)
    lp = left_mult_matrix(alg, ps)
    return [
        (f"pseudoscalar_times_grade_{k}", lp @ _grade_projector(alg, k))
        for k in range(alg.n + 1)
    ]


def equivariant_map_family(algebra, group="e3"):
    """Named map family used to parameterize equivariant linear layers."""
    _check_group(group)
    maps = closed_form_maps(algebra)
    if group == "se3":
        maps = maps + pseudoscalar_maps(algebra)
    return maps


def identity_coefficients(algebra, group="e3"):
    """Coefficients over equivariant_map_family reproducing the identity."""
    names = [name for name, _ in equivariant_map_family(algebra, group)]
    return np.array(
        [1.0 if name.startswith("project_grade_") else 0.0 for name in names]
    )


def closed_form_basis(algebra):
    """The closed-form family as an orthonormal LinearMapBasis."""
    alg = _algebra(algebra)
    maps = closed_form_maps(alg)
    flat = np.stack([m.reshape(-1) for _, m in maps])
    onb = _reduce_rows(flat)
    if onb.shape[0] != len(maps):
        raise AssertionError(
            f"closed-form maps for {alg.name} are linearly dependent: "
            f"rank {onb.shape[0]} of {len(maps)}"
        )
    return LinearMapBasis(alg.name, "e3", onb.reshape(-1, alg.size, alg.size))


def _flat_rows(basis_like):
    if isinstance(basis_like, LinearMapBasis):
        arr = basis_like.maps
    else:
        arr = np.asarray(basis_like, dtype=float)
    if arr.ndim == 3:
        arr = arr.reshape(arr.shape[0], -1)
    if arr.ndim != 2:
        raise ValueError("expected a map basis (stack of matrices or rows)")
    return arr


def subspace_distance(a, b):
    """Spectral norm of the difference of the two span projectors.

    0 for equal spans, the sine of the largest principal angle for
    equal-dimension spans, and 1 whenever one span has a direction
    orthogonal to the other (in particular for proper subspaces).
    """
    qa = _reduce_rows(_flat_rows(a), rel_tol=1e-12)
    qb = _reduce_rows(_flat_rows(b), rel_tol=1e-12)
    if qa.shape[0] == 0 and qb.shape[0] == 0:
        return 0.0
    if qa.shape[-1] != qb.shape[-1]:
        raise ValueError("bases live in different spaces")
    pa = qa.T @ qa
    pb = qb.T @ qb
    return float(np.linalg.norm(pa - pb, 2))


def span_residual(basis_like, matrix):
    """Relative Frobenius distance from matrix to the basis span."""
    q = _reduce_rows(_flat_rows(basis_like), rel_tol=1e-12)
    v = np.asarray(matrix, dtype=float).reshape(-1)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    r = v - q.T @ (q @ v)
    return float(np.linalg.norm(r) / nrm)


# -- multilinear null spaces per grade slice ------------------------------------


@dataclass(frozen=True)
class GradeSlice:
    """Fixed input grades and output grade of a multilinear map."""

    input_grades: tuple
    output_grade: int

    def __post_init__(self):
        object.__setattr__(
            self, "input_grades", tuple(int(g) for g in self.input_grades)
        )
        object.__setattr__(self, "output_grade", int(self.output_grade))

    def validate(self, alg):
        for g in self.input_grades + (self.output_grade,):
            if not 0 <= g <= alg.n:
                raise ValueError(f"grade {g} outside 0..{alg.n}")

    def subspace_dims(self, alg):
        ins = tuple(len(alg.grade_indices(g)) for g in self.input_grades)
        return ins, len(alg.grade_indices(self.output_grade))


def _slice_reps(alg, group, gs):
    """(output rep, input reps) of every generator restricted to a slice."""
    return [
        (
            RepMatrix(blocks[gs.output_grade], flavor),
            [RepMatrix(blocks[g], flavor) for g in gs.input_grades],
        )
        for flavor, blocks in _generator_blocks(alg, group)
    ]


def _slice_stack(alg, group, gs):
    """Dense stacked constraint matrix for one grade slice."""
    return np.vstack(
        [constraint_rows(out, ins) for out, ins in _slice_reps(alg, group, gs)]
    )


class _SliceOperator:
    """Slice constraints applied axis by axis to tensors shaped (n_out,
    *in_dims, cols), never formed as a matrix; all generators, or those
    named.  matmat applies their Gram operator, the transposed constraint
    transposing every factor."""

    def __init__(self, alg, group, gs, names=None):
        ins, n_out = gs.subspace_dims(alg)
        self.in_dims = ins
        self.n_out = n_out
        self.vec = n_out * int(np.prod(ins))
        self.terms = []
        for flavor, blocks in _generator_blocks(alg, group, names):
            in_blocks = [blocks[k] for k in gs.input_grades]
            if flavor == "group":
                in_blocks = [np.linalg.inv(b) for b in in_blocks]
            self.terms.append(
                (flavor, blocks[gs.output_grade], [b.T for b in in_blocks])
            )

    def _apply_axis(self, t, m, axis):
        # contract matrix m into the given tensor axis of t
        return np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)

    def _constraint(self, flavor, a, factors, t):
        out = self._apply_axis(t, a, 0)
        if flavor == "lie":
            for j, f in enumerate(factors):
                out -= self._apply_axis(t, f, 1 + j)
            return out
        for j, f in enumerate(factors):
            out = self._apply_axis(out, f, 1 + j)
        return out - t

    def stack(self, t):
        """The stacked constraint rows times the columns of t, as a matrix
        with one column per column of t; rows that come out zero constrain
        nothing and are left out."""
        rows = [np.zeros((0, t.shape[-1]))]
        for flavor, a, factors in self.terms:
            image = self._constraint(flavor, a, factors, t).reshape(self.vec, -1)
            rows.append(image[np.any(image, axis=1)])
        return np.concatenate(rows)

    def matmat(self, v):
        # the dense eigensolver fallback probes with an integer identity
        v = np.asarray(v, dtype=float)
        cols = v.shape[1]
        t = v.T.reshape((cols, self.n_out) + self.in_dims)
        t = np.moveaxis(t, 0, -1)  # (n_out, *in_dims, cols)
        acc = np.zeros_like(t)
        for flavor, a, factors in self.terms:
            k = self._constraint(flavor, a, factors, t)
            acc += self._constraint(flavor, a.T, [f.T for f in factors], k)
        acc = np.moveaxis(acc, -1, 0).reshape(cols, self.vec)
        return acc.T


def _kernel_dim_iterative(alg, group, gs, rel_tol):
    import scipy.sparse.linalg  # here, so that no other path loads scipy

    op = _SliceOperator(alg, group, gs)
    h = scipy.sparse.linalg.LinearOperator(
        (op.vec, op.vec),
        matvec=lambda x: op.matmat(x.reshape(-1, 1)).ravel(),
        matmat=op.matmat,
        dtype=float,
    )
    rng = np.random.default_rng(41)
    # largest eigenvalue scale by power iteration
    v = rng.standard_normal((op.vec, 1))
    lam_max = 0.0
    for _ in range(40):
        v = op.matmat(v)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return op.vec  # operator is zero: everything is equivariant
        lam_max = nrm
        v /= nrm
    cut = max(rel_tol, 1e-10) * lam_max
    k = 128
    while True:
        k = min(k, op.vec - 1)
        block_bytes = 4 * op.vec * k * 8
        if block_bytes > 1.5e9:
            raise SliceTooLargeError(
                f"iterative kernel block for slice {gs} needs "
                f"{block_bytes / 1e9:.1f} GB"
            )
        x = rng.standard_normal((op.vec, k))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            w, _ = scipy.sparse.linalg.lobpcg(
                h, x, largest=False, tol=1e-9 * lam_max, maxiter=400
            )
        w = np.sort(w)
        n0 = int(np.count_nonzero(w < cut))
        if n0 < k or k >= op.vec - 1:
            return n0
        k *= 2


_LAMBDA_REL_TOL = 1e-10  # on the squared spectrum; singular-value scale 1e-5


@functools.lru_cache(maxsize=None)
def _so3_invariants(k):
    """Independent integer SO(3)-invariant tensors on (R^3)^(x k).

    By Weyl's first fundamental theorem the invariants are spanned by
    products of deltas with at most one epsilon, that is by the axis
    permutations of one such product; permutations are kept in order while
    they raise the rank (1, 0, 1, 1, 3, 6 tensors for k = 0..5).
    """
    if k == 1:
        return []  # no rotation-invariant vector
    eps = np.zeros((3, 3, 3))
    for i in range(3):
        eps[i, (i + 1) % 3, (i + 2) % 3], eps[i, (i + 2) % 3, (i + 1) % 3] = 1, -1
    product = eps if k % 2 else np.ones(())
    while product.ndim < k:
        product = np.multiply.outer(product, np.eye(3))
    kept = []
    for perm in itertools.permutations(range(k)):
        t = product.transpose(perm)
        if np.linalg.matrix_rank(np.stack([u.ravel() for u in kept + [t]])) > len(kept):
            kept.append(t)
    return kept


@functools.lru_cache(maxsize=None)
def _spin_pieces(alg):
    """Per grade, the block's rotation pieces as exact signed blade
    selections, stacked by width: {1: (count, n_grade, 1) spin-0 pieces,
    3: (count, n_grade, 3) spin-1 pieces}, widths without a piece left out.

    Rotations act on e1, e2, e3 only, so for every blade X over the other
    generators X and e123 X are invariant, and (e_i X) and (e_i e123 X)
    transform like (e1, e2, e3).  Together they cover every blade once.
    """
    e = np.eye(alg.size)
    rot = alg.blade_index("e123")
    vec = [alg.blade_index(f"e{i}") for i in "123"]
    other = e[[m for m in range(alg.size) if not m & rot]]
    dual = geometric_product(alg, e[rot], other)
    pieces = [p[:, None] for p in np.concatenate([other, dual])]
    for base in (other, dual):
        # (3, n_other, size) -> one (size, 3) piece per blade X
        pieces += list(geometric_product(alg, e[vec, None], base).transpose(1, 2, 0))
    rot_d = [drho(alg, x) for x in lie_generators(alg)[:3]]
    for p in pieces:
        for d in rot_d:
            want = p @ d[np.ix_(vec, vec)] if p.shape[1] == 3 else 0 * p
            if not np.array_equal(d @ p, want):
                raise AssertionError(f"{alg.name} piece does not intertwine rotations")
    stacks = []
    for g in range(alg.n + 1):
        kept = [p for p in (p[alg.grade_indices(g)] for p in pieces) if p.any()]
        by_width = {w: [p for p in kept if p.shape[1] == w] for w in (1, 3)}
        stacks.append({w: np.stack(ps) for w, ps in by_width.items() if ps})
    return stacks


def _invariant_basis(alg, gs):
    """Integer basis of the slice's SO(3)-invariant subspace, shaped
    (n_out, *in_dims, cols): for every choice of one rotation piece per
    axis, the invariant tensors on its spin-1 axes contracted with the
    pieces.  One block of columns per spin pattern (the width of each
    axis), contracted with all pieces of those widths at once.  Rotation
    blocks are antisymmetric, so the input axes transform like the output
    axis."""
    grades = (gs.output_grade,) + gs.input_grades
    dims = tuple(len(alg.grade_indices(g)) for g in grades)
    stacks = [_spin_pieces(alg)[g] for g in grades]
    m = len(grades)
    # (invariant, count_0, n_0, count_1, n_1, ...) -> (*dims, counts, invariant)
    order = [2 + 2 * j for j in range(m)] + [1 + 2 * j for j in range(m)] + [0]
    cols = [np.zeros(dims + (0,))]
    for widths in itertools.product(*stacks):
        invariants = _so3_invariants(widths.count(3))
        if not invariants:
            continue
        # last axis first, so each step is one matmul per leading index
        # against the already contracted, and largest, trailing axis
        t = np.stack(invariants)
        for j in reversed(range(m)):
            lead = len(invariants) * math.prod(widths[:j])
            pieces = stacks[j][widths[j]].reshape(-1, widths[j])
            t = pieces @ t.reshape(lead, widths[j], -1)
        split = [d for w, by_width in zip(widths, stacks) for d in by_width[w].shape[:2]]
        t = t.reshape([len(invariants)] + split).transpose(order)
        cols.append(t.reshape(dims + (-1,)))
    return np.concatenate(cols, axis=-1)


def solve_multilinear_dim(
    algebra,
    group,
    grade_slice,
    *,
    entry_cap=DEFAULT_ENTRY_CAP,
    rel_tol=1e-10,
    method=None,
):
    """Dimension of the equivariant maps on one grade slice.

    By default a slice of up to _GRAM_MAX_VEC map entries is solved in
    reduced coordinates ("reduced"): one singular value decomposition of the
    z translation and mirror constraints on an integer basis of the slice's
    rotation-invariant subspace (no column: 0; no constraint row: the column
    count).
    Larger slices go to the matrix-free block eigensolver ("iterative"),
    which ranks on the squared spectrum, where the attainable relative
    threshold is 1e-10 (singular-value scale 1e-5) because squaring halves
    the usable precision.  method="dense" takes the singular values of the
    full stacked constraint matrix, the reference the others are checked
    against.
    """
    alg = _algebra(algebra)
    _check_group(group)
    if not isinstance(grade_slice, GradeSlice):
        grade_slice = GradeSlice(*grade_slice)
    grade_slice.validate(alg)
    ins, n_out = grade_slice.subspace_dims(alg)
    vec = n_out * int(np.prod(ins))
    if vec > entry_cap:
        raise SliceTooLargeError(
            f"slice too large: {vec} map entries exceeds the cap {entry_cap}"
        )
    if method is None:
        method = "reduced" if vec <= _GRAM_MAX_VEC else "iterative"
    if method == "dense":
        return _nullspace_dense(_slice_stack(alg, group, grade_slice), rel_tol)
    if method == "reduced":
        op = _SliceOperator(alg, group, grade_slice, _GENERATING_SET)
        return _nullspace_dense(op.stack(_invariant_basis(alg, grade_slice)), rel_tol)
    if method == "iterative":
        return _kernel_dim_iterative(alg, group, grade_slice, _LAMBDA_REL_TOL)
    raise ValueError(f"unknown method {method!r}")


# -- span of maps constructable inside the algebra -------------------------------


class _IncrementalReducer:
    """Streaming orthonormal row basis.

    Rows arrive in batches; pending rows are folded into the basis once
    they outnumber it, so the matrix handed to the SVD never grows past a
    couple of chunks.  Keeps peak memory flat while raw product stacks can
    run to tens of thousands of rows.
    """

    def __init__(self, rel_tol, abs_tol):
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.basis = None
        self.pending = []
        self.pending_rows = 0

    def add(self, rows):
        if rows.shape[0] == 0:
            return
        self.pending.append(rows)
        self.pending_rows += rows.shape[0]
        base = 0 if self.basis is None else self.basis.shape[0]
        if self.pending_rows >= max(256, 2 * base):
            self._flush()

    def _flush(self):
        if not self.pending:
            return
        parts = ([] if self.basis is None else [self.basis]) + self.pending
        self.pending = []
        self.pending_rows = 0
        red = _reduce_rows(np.vstack(parts), self.rel_tol, abs_tol=self.abs_tol)
        self.basis = red if red.shape[0] else None

    def result(self):
        self._flush()
        return self.basis


class _SpanBuilder:
    """Spans of multilinear maps reachable from equivariant linears and the
    algebra's products, per ordered grade sequence and output grade.

    Basis arrays have shape (n_basis, out_dim, in_dim_1, ..., in_dim_k) with
    orthonormal flattened rows.  Sequences are memoized; permutations of a
    slice's inputs reuse the memoized sequences and only permute axes.
    """

    def __init__(self, alg, group, with_join, rel_tol=1e-10):
        self.alg = alg
        self.rel_tol = rel_tol
        # every stage mixes unit-Frobenius blocks with integer product tensors,
        # so true rows are O(1) and anything below this floor is cancellation
        # residue (e.g. an equivariant block applied to the invariant vector
        # it must annihilate); without the floor such residue gets normalized
        # into fake span directions
        self.abs_tol = 1e-10
        self.grades = range(alg.n + 1)
        self.grade_idx = [alg.grade_indices(k) for k in self.grades]
        self.lin = _linear_blocks(alg, group, rel_tol)[0]
        tensors = [alg.gp_tensor]
        if with_join:
            tensors.append(alg.join_tensor)
        self.prods = []
        for t in tensors:
            blocks = {}
            for ga in self.grades:
                for gb in self.grades:
                    for go in self.grades:
                        blk = t[
                            np.ix_(
                                self.grade_idx[ga],
                                self.grade_idx[gb],
                                self.grade_idx[go],
                            )
                        ]
                        if np.abs(blk).max() > 0:
                            # store as (out, a, b)
                            blocks[(go, ga, gb)] = np.moveaxis(blk, 2, 0)
            self.prods.append(blocks)
        self.memo = {}

    def span(self, seq):
        got = self.memo.get(seq)
        if got is not None:
            return got
        if len(seq) == 1:
            spans = {
                go: self.lin[(go, seq[0])]
                for go in self.grades
                if (go, seq[0]) in self.lin
            }
            self.memo[seq] = spans
            return spans
        in_dims = tuple(len(self.grade_idx[g]) for g in seq)
        n_in = int(np.prod(in_dims))
        prod_red = {}
        for m in range(1, len(seq)):
            left = self.span(seq[:m])
            right = self.span(seq[m:])
            for ga, sa in left.items():
                nda = sa.ndim - 2
                for gb, sb in right.items():
                    for blocks in self.prods:
                        for go in self.grades:
                            blk = blocks.get((go, ga, gb))
                            if blk is None:
                                continue
                            t1 = np.tensordot(blk, sa, axes=([1], [1]))
                            # t1: (out, b, p, *da)
                            t2 = np.tensordot(t1, sb, axes=([1], [1]))
                            # t2: (out, p, *da, q, *db)
                            t2 = np.moveaxis(t2, [1, 2 + nda], [0, 1])
                            red = prod_red.get(go)
                            if red is None:
                                red = _IncrementalReducer(
                                    self.rel_tol, self.abs_tol
                                )
                                prod_red[go] = red
                            red.add(t2.reshape(t2.shape[0] * t2.shape[1], -1))
        prod_bases = {
            g: red.result().reshape(
                (-1, len(self.grade_idx[g])) + in_dims
            )
            for g, red in prod_red.items()
            if red.result() is not None
        }
        spans = {}
        for g2 in self.grades:
            out_red = _IncrementalReducer(self.rel_tol, self.abs_tol)
            for g, block in prod_bases.items():
                lin = self.lin.get((g2, g))
                if lin is None:
                    continue
                # composing with the reduced product basis instead of the raw
                # stack keeps the closure rows to (basis maps x span rows)
                flat = block.reshape(block.shape[0], block.shape[1], n_in)
                comp = np.tensordot(lin, flat, axes=([2], [1]))
                comp = np.moveaxis(comp, 2, 1)
                out_red.add(comp.reshape(comp.shape[0] * comp.shape[1], -1))
            basis = out_red.result()
            if basis is not None:
                spans[g2] = basis.reshape(
                    (-1, len(self.grade_idx[g2])) + in_dims
                )
        self.memo[seq] = spans
        return spans

    def slice_span_dims(self, inputs):
        """Span dimension per output grade for the given input grades,
        including all permutations of the inputs."""
        l = len(inputs)
        union = {}
        for perm in itertools.permutations(range(l)):
            seq = tuple(inputs[p] for p in perm)
            for go, arr in self.span(seq).items():
                moved = np.moveaxis(
                    arr,
                    [2 + j for j in range(l)],
                    [2 + perm[j] for j in range(l)],
                )
                rows = moved.reshape(moved.shape[0], -1)
                prev = union.get(go)
                stacked = rows if prev is None else np.vstack([prev, rows])
                union[go] = _reduce_rows(
                    stacked, self.rel_tol, abs_tol=self.abs_tol
                )
        return {go: q.shape[0] for go, q in union.items()}


@dataclass
class SliceEntry:
    """Span and null-space dimensions of one grade slice."""

    inputs: tuple
    output: int
    span_dim: int
    nullspace_dim: int = None
    skipped: bool = False

    def to_dict(self):
        return {**asdict(self), "inputs": list(self.inputs)}


@dataclass
class SpanReport:
    """Comparison of the constructable span against the full null space.

    Slices are reported for non-decreasing input grades only: permuting the
    inputs of a slice is a change of basis that preserves both dimensions,
    and the span construction already includes all input permutations.
    """

    l: int
    algebra: str
    with_join: bool
    group: str
    span_dim: int
    nullspace_dim: int
    slices: list = field(default_factory=list)
    expectation: str = None  # "equal" or "gap"
    passed: bool = None

    def counted(self):
        return [s for s in self.slices if not s.skipped]

    def all_equal(self):
        return all(s.span_dim == s.nullspace_dim for s in self.counted())

    def has_gap(self):
        good = all(s.span_dim <= s.nullspace_dim for s in self.counted())
        return good and any(
            s.span_dim < s.nullspace_dim for s in self.counted()
        )

    def to_dict(self):
        return {**asdict(self), "slices": [s.to_dict() for s in self.slices]}


def algebra_span_dim(
    algebra,
    l,
    with_join=False,
    group="se3",
    *,
    entry_cap=DEFAULT_ENTRY_CAP,
    rel_tol=1e-10,
    skip_oversize=False,
):
    """Span-versus-nullspace report for all grade slices of arity l."""
    alg = _algebra(algebra)
    _check_group(group)
    if l not in (2, 3, 4):
        raise ValueError(f"arity {l} outside 2..4")
    if with_join and alg.name != "pga":
        raise ValueError("the join span is only defined for the projective algebra")
    if with_join and group != "se3":
        raise ValueError("the join commutes with the orientation-preserving group only")
    builder = _SpanBuilder(alg, group, with_join, rel_tol)
    multisets = list(
        itertools.combinations_with_replacement(range(alg.n + 1), l)
    )
    span_dims = {ms: builder.slice_span_dims(ms) for ms in multisets}
    del builder  # the memoized sequence spans can be large

    def null_dim(ms, o):
        try:
            return solve_multilinear_dim(
                alg,
                group,
                GradeSlice(ms, o),
                entry_cap=entry_cap,
                rel_tol=rel_tol,
            )
        except SliceTooLargeError:
            if skip_oversize:
                return None
            raise

    entries = []
    for ms in multisets:
        for o in range(alg.n + 1):
            dim = null_dim(ms, o)
            entries.append(
                SliceEntry(
                    inputs=ms,
                    output=o,
                    span_dim=span_dims[ms].get(o, 0),
                    nullspace_dim=dim,
                    skipped=dim is None,
                )
            )
    counted = [e for e in entries if not e.skipped]
    return SpanReport(
        l=l,
        algebra=alg.name,
        with_join=with_join,
        group=group,
        span_dim=sum(e.span_dim for e in counted),
        nullspace_dim=sum(e.nullspace_dim for e in counted),
        slices=entries,
    )


_CONJECTURE_CASES = (
    ("ega", False),
    ("cga", False),
    ("pga", False),
    ("pga", True),
)


def verify_conjecture(
    l_max=3,
    long=False,
    include_heavy=False,
    *,
    entry_cap=DEFAULT_ENTRY_CAP,
):
    """Span equals null space on every slice, algebra by algebra.

    Expectation per case: equality for the Euclidean and conformal
    algebras and for the projective algebra with the join; a strict gap
    somewhere for the projective algebra without it.  Arities 3 and 4 for
    the larger algebras run only with long=True; the conformal algebra at
    arity 4 additionally needs include_heavy=True (its largest slices
    exceed desk-scale memory and are skipped where necessary).
    """
    if not 2 <= l_max <= 4:
        raise ValueError(f"l_max {l_max} outside 2..4")
    if l_max == 4 and not long:
        raise ValueError("arity 4 requires the long-running mode")
    reports = []
    for l in range(2, l_max + 1):
        for name, wj in _CONJECTURE_CASES:
            if l >= 3 and name != "ega" and not long:
                continue
            if l == 4 and name == "cga" and not include_heavy:
                continue
            rep = algebra_span_dim(
                name,
                l,
                with_join=wj,
                group="se3",
                entry_cap=entry_cap,
                skip_oversize=(l == 4),
            )
            rep.expectation = "gap" if (name == "pga" and not wj) else "equal"
            rep.passed = rep.has_gap() if rep.expectation == "gap" else rep.all_equal()
            reports.append(rep)
    return reports
