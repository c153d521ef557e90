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
  over all input orders, reduces after every composition stage in the
  coordinates of an orthonormal frame of the slice's rotation-invariant
  subspace, and compares the reachable span against the full multilinear
  null space, grade slice by grade slice.  Swapping a product's factors
  only flips the sign of each output grade, so the orders that start with
  the first input reach every product tree: (k-1)! of the k! orders.

Solving always works grade slice by grade slice; the full tensor space is
never materialized.  Every slice is solved in reduced coordinates: its
columns are an orthonormal basis Q of the slice's rotation-invariant
subspace (every equivariant map lies there), built in closed form from the
spin-0 and spin-1 pieces of each grade block and the delta/epsilon
invariant tensors of SO(3), orthonormalised once per spin-1 axis count, and
its rows are the z translation constraints only, applied axis by axis to
the basis tensor.  Q is the one basis of a slice: its null solve runs on
Q's entries, and its span is reduced in Q's coordinates.  The mirror maps
every invariant column to itself or to its negative and commutes with the
z translation, so the constraint stack is block diagonal over the two
mirror parities: each block gets its own singular value decomposition, the
rank cut is taken once on their merged spectrum, and the full group keeps
the even block only and adds no row.  The basis is held as the list of its
nonzero entries, each column one per nonzero of its invariant tensor, and
the constraint moves each entry by index arithmetic, so each stack holds
only the rows some entry reaches and memory follows the constraints, not
the basis.  The solver runs on numpy alone.
method="dense" keeps the full stacked constraint matrix of one constraint
builder, groups.constraint_rows, as the independent reference.  The linear
basis is solved block by block, as the (d+1)^2 arity-1 slices, on their
frames Q; linear_constraint_spectrum keeps the dense stacks.  Slices whose
flattened map exceeds DEFAULT_ENTRY_CAP raise SliceTooLargeError.

What depends only on the algebra, the group and the slice is built once
per process and shared, read-only: each slice's frame Q (_slice_frame),
the linear blocks (_linear_blocks) and each null dimension
(_slice_null_dim).  Two symmetries make most slices repeat a solved one.
Every axis of a slice transforms alike under rotations and the mirror, so
its invariant subspace does not depend on the order of its k+1 axes: the
span builder takes the frame of any output and input order from the frame
of the sorted multiset of its grades, axes permuted (_permuted_frame).
Every grade carries a non-degenerate pairing that the group preserves, so
a slice's null dimension depends only on the multiset of its output grade
and its inputs' dual grades, and algebra_span_dim solves one slice per
such duality orbit (_orbit_slice).  An output grade that one input order
alone reaches, every one at arity 2, takes its span dimension from that
order's orthonormal block without another SVD.  A check with more
products, the projective algebra with the join, reuses the frames and
dimensions of the check without.  Standalone solve_multilinear_dim calls
solve their own slice on its directly built frame, and keep the frame,
not their dimension.
"""

import functools
import itertools
import math
import warnings
from dataclasses import asdict, dataclass, field
from types import MappingProxyType

import numpy as np

from gaeq.algebra import get_algebra, left_mult_matrix, wedge
from gaeq.groups import (
    GROUPS,
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
# former tier boundaries on the flattened map length: no tier reads them any
# more, every slice takes the invariant-basis solve; perfbench's tracer still
# labels slices by both names
_DENSE_MAX_VEC = 1500
_GRAM_MAX_VEC = 11000
# the rank cut of every null-space and span solve, relative to the largest
# singular value
_REL_TOL = 1e-10


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


def _rank_from_spectrum(s):
    """Count of kept values from a descending spectrum, with warnings.

    Warns when values sit within a factor 10 of the threshold, and when the
    kept/dropped separation is thinner than 1e3.
    """
    s = np.asarray(s)
    if s.size == 0 or s[0] <= 0:
        return 0
    thresh = _REL_TOL * s[0]
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


def _nullspace_dim(stacks):
    """Dimension of the kernel of the block-diagonal matrix with the given
    diagonal blocks, (columns, block) pairs: one SVD per block, and the rank
    cut taken once, on the merged descending spectrum, relative to its
    largest value.  The blocks may come from a generator: each is released
    before the next is taken, so only one block and its SVD workspace are
    alive at a time."""
    s, cols = [], 0
    for _, b in stacks:
        cols += b.shape[1]
        if b.size:
            s.append(np.linalg.svd(b, compute_uv=False))
        del b
    spectrum = np.sort(np.concatenate(s))[::-1] if s else np.zeros(0)
    return cols - _rank_from_spectrum(spectrum)


def _reduce_rows(rows, rel_tol=_REL_TOL, abs_tol=0.0):
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

@functools.lru_cache(maxsize=None)
def _generator_blocks(alg, group):
    """[(flavor, per-grade diagonal blocks)] per generator, in
    lie_generators order (rotations e12, e23, e13, then translations x, y,
    z), the mirror last for e3.

    Every constraint generator acts within each grade (checked), so
    grade-sliced solving only needs the diagonal blocks.
    """
    entries = [("lie", drho(alg, x)) for x in lie_generators(alg)]
    if group == "e3":
        entries.append(("group", rho(alg, mirror_versor(alg))))
    out = []
    for flavor, m in entries:
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


def _tz_blocks(alg):
    """The per-grade diagonal blocks of the z translation, None for an
    algebra without translations (ega).

    These are the only constraints left on rotation-invariant columns: the
    constraint map is a Lie algebra homomorphism and the rotations'
    commutators with T_z span T_x and T_y, so T_z generates the rest; the
    mirror maps each invariant column to plus or minus itself and commutes
    with T_z, so it splits the T_z stack into an even and an odd block and
    for e3 only keeps the even one (_mirror_even, _reduced_stacks).
    """
    generators = _generator_blocks(alg, "se3")
    return generators[5][1] if len(generators) == 6 else None


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


@functools.lru_cache(maxsize=None)
def _linear_blocks(alg, group):
    """({(go, gi): orthonormal (k, n_go, n_gi) kernel basis}, full maps),
    solved once per process; every array is read-only.

    Each (output, input) grade block is solved as the arity-1 slice it is,
    on the orthonormal frame Q of its SO(3)-invariant subspace (_slice_frame):
    _reduced_stacks applies the T_z rows to Q's entries, one SVD per
    mirror-parity block of Q's columns, and the kernel coordinates y map
    back to the maps Q y, orthonormal because Q is an isometry.  The rank
    cut is taken once, on the merged spectrum of every block, relative to
    its largest value, and only blocks with a non-empty kernel are kept.
    _linear_slice_svds keeps the dense constraint solve as the reference.
    """
    solved, spectra = [], [np.zeros(0)]
    for go in range(alg.n + 1):
        for gi in range(alg.n + 1):
            frame = _slice_frame(alg, go, (gi,))
            for cols, stack in _reduced_stacks(alg, group, frame):
                # all of vt: the kernel can be wider than the stack is tall
                _, s, vt = np.linalg.svd(stack)
                solved.append((go, gi, frame, cols, s, vt))
                spectra.append(s)
    spectrum = np.sort(np.concatenate(spectra))[::-1]
    rank = _rank_from_spectrum(spectrum)
    smallest_kept = spectrum[rank - 1] if rank else np.inf
    kernels = {}
    for go, gi, frame, cols, s, vt in solved:
        kernel = vt[np.count_nonzero(s >= smallest_kept) :]
        if kernel.shape[0]:
            coords = np.zeros((kernel.shape[0], frame.cols))
            coords[:, cols] = kernel
            kernels.setdefault((go, gi), []).append(frame.lift(coords))
    blocks = {}
    maps = [np.zeros((0, alg.size, alg.size))]
    for (go, gi), parts in kernels.items():
        io, ii = alg.grade_indices(go), alg.grade_indices(gi)
        blocks[(go, gi)] = np.concatenate(parts).reshape(-1, len(io), len(ii))
        maps.append(np.zeros((blocks[(go, gi)].shape[0], alg.size, alg.size)))
        maps[-1][:, io[:, None], ii] = blocks[(go, gi)]
    maps = np.concatenate(maps)
    _spot_check_generic_generator(alg, maps.reshape(maps.shape[0], -1))
    for a in (maps, *blocks.values()):
        a.flags.writeable = False
    return MappingProxyType(blocks), maps


def solve_linear_basis(algebra, group="e3"):
    """All equivariant linear maps on the full coefficient space.

    Stacks one commutation constraint per infinitesimal generator and, for
    the mirror-including group, one invariance constraint for the mirror
    versor, then takes the kernel by singular value decomposition, grade
    block by grade block: each map lies on one (output, input) grade block.
    """
    alg = _algebra(algebra)
    _check_group(group)
    return LinearMapBasis(alg.name, group, _linear_blocks(alg, group)[1].copy())


def linear_constraint_spectrum(algebra, group="e3"):
    """Singular values of the stacked linear-equivariance constraints.

    The number of values below the kernel cutoff equals the dimension of the
    equivariant map space; the gap between the smallest retained value and the
    largest discarded one shows how well conditioned the split is.
    """
    alg = _algebra(algebra)
    _check_group(group)
    return _linear_slice_svds(alg, group)[1]


def _spot_check_residual(alg, basis_flat):
    """(max |D M - M D| over the maps M, the largest entry of D's commutator
    constraint rows) for one generic combination D of the Lie generators,
    with square roots of primes as weights so that no violation cancels
    (fixed weights: the solve path never loads numpy.random)."""
    gens = lie_generators(alg)
    x = sum(c * g for c, g in zip(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]), gens))
    d = drho(alg, x)
    maps = basis_flat.reshape(-1, alg.size, alg.size)
    resid = np.abs(d @ maps - maps @ d).max() if maps.size else 0.0
    # the rows D (x) I - I (x) D^T hold the off-diagonal entries of D and the
    # differences of its diagonal entries
    diag = np.diag(d)
    scale = max(
        np.abs(d - np.diag(diag)).max(), np.abs(diag[:, None] - diag[None, :]).max()
    )
    return resid, scale


def _spot_check_generic_generator(alg, basis_flat):
    # linearly dependent generators give dependent constraints, so the basis
    # generators suffice; this re-checks one generic combination per solve
    resid, scale = _spot_check_residual(alg, basis_flat)
    if resid > 1e-8 * max(scale, 1.0):
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


def _slice_stack(alg, group, gs):
    """Dense stacked constraint matrix for one grade slice: the
    constraint_rows of every generator's diagonal blocks on the slice's
    grades (_generator_blocks), in generator order."""
    rows = []
    for flavor, blocks in _generator_blocks(alg, group):
        ins = [blocks[g] for g in gs.input_grades]
        rows.append(constraint_rows(blocks[gs.output_grade], ins, flavor))
    return np.vstack(rows)


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
def _invariant_nonzeros(k):
    """[(spin-1 axis indices (k, n), values (n,))]: the nonzeros of the
    _so3_invariants(k) tensors T made orthonormal, L^-1 T, where L L^T = T T^T
    is their integer Gram matrix, so that tensor t mixes the integer tensors
    0..t."""
    tensors = _so3_invariants(k)
    if not tensors:
        return []
    t = np.stack([u.ravel() for u in tensors])
    onb = np.linalg.inv(np.linalg.cholesky(t @ t.T)) @ t
    return [(np.argwhere(r.reshape(u.shape)).T, r[r != 0]) for r, u in zip(onb, tensors)]


@functools.lru_cache(maxsize=None)
def _blade_tables(alg):
    """Per grade, the block's rotation pieces as (blade, sign) tables,
    {width: (index in the grade block, sign)}, both shaped (count, width):
    width 1 for the spin-0 pieces, 3 for the spin-1 pieces, widths without
    a piece left out.

    Rotations act on e1, e2, e3 only, so for every blade X over the other
    generators X and e123 X are invariant, and (e_i X) and (e_i e123 X)
    transform like (e1, e2, e3).  Every piece column is one signed blade,
    read off gp_sign, and together the pieces cover every blade once.
    """
    rot = alg.blade_index("e123")
    vec = np.array([alg.blade_index(f"e{i}") for i in "123"])
    other = np.flatnonzero(np.arange(alg.size) & rot == 0)[:, None]
    dual, dual_sign = rot ^ other, alg.gp_sign[rot, other]
    # (blades, signs), one row per piece: X then e123 X, e_i X then e_i e123 X
    by_width = {
        1: (np.vstack([other, dual]), np.vstack([np.ones(other.shape), dual_sign])),
        3: (
            np.vstack([vec ^ other, vec ^ dual]),
            np.vstack([alg.gp_sign[vec, other], dual_sign * alg.gp_sign[vec, dual]]),
        ),
    }
    tables = []
    for g in range(alg.n + 1):
        table = {}
        for w, (blade, sign) in by_width.items():
            at = alg.grades[blade[:, 0]] == g
            if at.any():
                table[w] = np.searchsorted(alg.grade_indices(g), blade[at]), sign[at]
        tables.append(table)
    return tables


class _Frame:
    """Orthonormal frame Q of one grade slice's SO(3)-invariant subspace.

    Q is the slice's one invariant basis (_slice_frame): its null solve,
    its linear block and its span all run on the same arrays.  Q is held as
    its nonzero entries (flat index, column, value) sorted by column, with
    starts, the first entry of each column, never as a dense (entries x
    columns) array: rows @ Q is a gather and a per-column sum, and
    coordinates @ Q^T a scatter.  perm[a] is the built slice's axis behind
    axis a of this frame's slice, the output axis 0 first: the span
    builder's frames permute the entry indices of the frame built on the
    sorted grades of output and inputs together (_permuted_frame).
    """

    def __init__(self, name, grades, dims, perm, flat, col, val, cols, starts):
        self.name, self.grades, self.dims, self.perm = name, grades, dims, perm
        self.flat, self.col, self.val, self.cols = flat, col, val, cols
        self.size = math.prod(dims)
        self.starts = starts

    def permuted(self, perm):
        """The frame of this built slice with axis a, the output axis 0
        first, taken from its axis perm[a].  Every axis transforms alike
        under rotations and the mirror (_slice_frame), so the entries keep
        their columns, values and mirror parities."""
        perm = tuple(perm)
        if perm == self.perm:
            return self
        index = np.unravel_index(self.flat, self.dims)
        dims = tuple(self.dims[a] for a in perm)
        flat = np.ravel_multi_index([index[a] for a in perm], dims)
        flat.flags.writeable = False
        grades = tuple(self.grades[a] for a in perm)
        entries = flat, self.col, self.val, self.cols
        return _Frame(self.name, grades, dims, perm, *entries, self.starts)

    def project(self, rows):
        """rows @ Q for (r, size) rows of this slice's maps.  Raises when
        their part outside the invariant subspace, estimated as
        ||R||^2 - ||R Q||^2 (good to about 1e-7 of ||R||), exceeds 1e-6 of
        their norm: a non-equivariant row is a construction bug, and must
        not be projected away."""
        rows = rows.reshape(len(rows), self.size)
        if self.cols:
            gathered = rows.take(self.flat, axis=1) * self.val
            coords = np.add.reduceat(gathered, self.starts, axis=1)
        else:
            coords = np.zeros((len(rows), 0))
        total = np.vdot(rows, rows)
        outside = total - np.vdot(coords, coords)
        if outside > 1e-12 * total + _SPAN_FLOOR**2:
            raise AssertionError(
                f"{self.name} slice {self.grades[1:]}->{self.grades[0]}: span rows "
                f"leave the invariant subspace by {math.sqrt(outside / total):.1e} "
                "of their norm"
            )
        return coords

    def lift(self, coords):
        """coords @ Q^T: the (k, size) map rows of (k, cols) coordinates."""
        k = len(coords)
        at = (np.arange(k)[:, None] * self.size + self.flat).ravel()
        weights = (coords[:, self.col] * self.val).ravel()
        return np.bincount(at, weights, minlength=k * self.size).reshape(k, self.size)


@functools.lru_cache(maxsize=None)
def _slice_frame(alg, output, inputs):
    """The frame of the slice inputs -> output, in any input order, built
    once per process and read-only: every solve of the slice, the linear
    blocks and the span builder share it.

    Its entries are the nonzeros of an orthonormal basis Q of the
    SO(3)-invariant tensors on the grade blocks (output grade first), at
    row-major flat indices.  Every choice of one rotation piece per axis and
    one orthonormal invariant tensor (_invariant_nonzeros) on its spin-1
    axes is a column, the invariant contracted with the pieces; every piece
    column is one signed blade, so each nonzero of the invariant is one
    entry of the column.  The columns are in order, one block per choice of
    piece widths, tensor-major within it.  Columns with different piece
    choices share no entry, and those with the same one have the Gram
    matrix of their tensors, the identity: Q is the Gram-Schmidt of the
    integer basis B that the integer tensors would give, Q = B L^-T, column
    for column.

    Rotation blocks are antisymmetric and the mirror is a diagonal of
    signs, so the input axes transform like the output axis: the frame of
    any order of the same k+1 grades, the output among them, is this frame
    with its axes permuted, entries and mirror parities kept
    (_Frame.permuted), and the span builder builds one frame per sorted
    grade multiset (_permuted_frame).  The null dimension is shared more
    widely, by every slice of a duality orbit (_orbit_slice), so the span
    check of one arity solves one slice per orbit; an output grade that one
    input order alone reaches takes its span dimension from that order's
    orthonormal block, with no SVD (_SpanBuilder.slice_span_dims)."""
    grades = (output,) + inputs
    tables = [_blade_tables(alg)[g] for g in grades]
    dims = tuple(len(alg.grade_indices(g)) for g in grades)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    # (flat index, column, value) arrays, from no entry on
    parts, cols = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))], 0
    for widths in itertools.product(*tables):
        for axes, values in _invariant_nonzeros(widths.count(3)):
            n, spin1 = values.size, iter(axes)
            # (columns so far, n), one axis at a time
            f, v = np.zeros((1, n), dtype=int), values[None]
            for j, w in enumerate(widths):
                blade, sign = tables[j][w]
                i = next(spin1) if w == 3 else [0]
                f = (f[:, None] + strides[j] * blade[:, i]).reshape(-1, n)
                v = (v[:, None] * sign[:, i]).reshape(-1, n)
            parts.append((f.ravel(), np.repeat(cols + np.arange(len(f)), n), v.ravel()))
            cols += len(f)
    flat, col, val = map(np.concatenate, zip(*parts))
    # the first entry of each column; every column has one
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    for a in (flat, col, val, starts):
        a.flags.writeable = False
    perm = tuple(range(len(grades)))
    return _Frame(alg.name, grades, dims, perm, flat, col, val, cols, starts)


@functools.lru_cache(maxsize=None)
def _permuted_frame(alg, grades, perm):
    """The frame of the slice whose axis a, the output axis 0 first, has
    grade grades[perm[a]], for sorted grades: the frame built on them
    (_slice_frame) with its axes permuted, cached so that every span
    builder of the process, the join case's among them, reads the same
    arrays."""
    return _slice_frame(alg, grades[0], grades[1:]).permuted(perm)


@functools.lru_cache(maxsize=None)
def _mirror_flips(alg):
    """Per grade, which blades of the grade block the mirror negates.
    rho(mirror) is a diagonal of signs (checked on first use)."""
    r = rho(alg, mirror_versor(alg))
    if not np.array_equal(np.abs(r), np.eye(alg.size)):
        raise AssertionError(f"{alg.name} mirror is not a diagonal of signs")
    return [np.diag(r)[alg.grade_indices(g)] < 0 for g in range(alg.n + 1)]


def _mirror_even(alg, grades, index, col, cols):
    """Mask of the invariant columns of the slice on grades (output grade
    first), given by their entries as a _Frame lists them (index: the
    entries' per-axis indices, col: their columns), that the mirror leaves
    unchanged.  The mirror multiplies each map entry by the product of its
    index signs: a column is even when none of its entries flips, odd when
    all of them do, and raises when it is neither."""
    flips = _mirror_flips(alg)
    flip = functools.reduce(np.logical_xor, [flips[g][i] for g, i in zip(grades, index)])
    even = np.bincount(col, flip, minlength=cols) == 0
    odd = np.bincount(col, ~flip, minlength=cols) == 0
    if not (even | odd).all():
        raise AssertionError(
            f"{alg.name} slice {grades[1:]}->{grades[0]}: an "
            "invariant column is neither even nor odd under the mirror"
        )
    return even


def _reduced_stacks(alg, group, frame):
    """Yield (column mask, T_z rows on those invariant columns), one stack
    per mirror-parity block of the columns of a slice's frame: even, then
    odd; e3 keeps the even block only, since (M - I) Q x = Q (D - I) x with
    D = +-1 per column and Q of full column rank.  The columns are the
    frame's entries; their parity is read from them on each call, not kept
    in the frame, since ega's se3 solve never needs it.  The mirror commutes
    with T_z and is a diagonal of signs, so T_z moves an entry only to an
    index of the same sign: even columns reach mirror-even rows only, odd
    columns odd rows, and the full stack is block diagonal over the two.
    Each basis entry is moved along each axis through T_z's grade block, by
    T[o, b] on the output axis and by -T[b, o] on an input axis; each stack
    keeps the rows that some entry of its block reaches, so its size
    follows the constraints, not the basis."""
    grades, dims = frame.grades, frame.dims
    flat, col, val, cols = frame.flat, frame.col, frame.val, frame.cols
    tz = _tz_blocks(alg)
    if group == "se3" and tz is None:  # ega: nothing constrains the columns
        yield np.ones(cols, dtype=bool), np.zeros((0, cols))
        return
    index = np.unravel_index(flat, dims)
    even = _mirror_even(alg, grades, index, col, cols)
    parities = [even] if group == "e3" else [even, ~even]
    if tz is None:  # ega, e3
        yield even, np.zeros((0, np.count_nonzero(even)))
        return
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    parts = []
    for j, (g, i) in enumerate(zip(grades, index)):
        # the entry at index b moves to o with weight move[o, b]
        move = tz[g] if j == 0 else -tz[g].T
        o, e = np.nonzero(move[:, i])
        b = i[e]
        row = flat[e] + (o - b) * strides[j]
        parts.append((row, col[e], val[e] * move[o, b]))
    rows, at, weights = map(np.concatenate, zip(*parts))
    # the generator stays suspended through the caller's SVDs: drop what it
    # holds, and split off each block's moved entries before any stack is
    # built, so that only the blocks still to come stay alive
    del parts, o, e, b, row
    pending = [(rows[keep], at[keep], weights[keep]) for keep in (p[at] for p in parities)]
    del rows, at, weights
    for block in parities:
        yield block, _parity_stack(block, *pending.pop(0))


def _parity_stack(block, rows, at, weights):
    """The stack of one parity block (mask of its columns) from its moved
    entries: their rows, columns and weights.  The distinct rows reached,
    and each entry's position among them, come from a sort and a search:
    np.unique's inverse takes twice as long on the small stacks of most
    slices."""
    n = int(np.count_nonzero(block))
    reached = np.sort(rows)
    first = np.ones(reached.size, dtype=bool)
    first[1:] = reached[1:] != reached[:-1]
    reached = reached[first]
    row = np.searchsorted(reached, rows)
    at_block = (np.cumsum(block) - 1)[at]
    stack = np.bincount(row * n + at_block, weights, minlength=reached.size * n)
    return stack.reshape(reached.size, n)


def solve_multilinear_dim(algebra, group, grade_slice, *, method=None):
    """Dimension of the equivariant maps on one grade slice.

    By default the slice is solved in reduced coordinates: the z
    translation constraints on the orthonormal basis Q of the slice's
    rotation-invariant subspace (_slice_frame, the frame its span is
    reduced in too), one singular value decomposition per mirror-parity
    block of its columns, for e3 on the even block only (no column: 0; no
    constraint row: the column count).  The constraint rows are built from
    the basis's nonzero entries and only the rows they reach are kept, so
    the largest arity-4 conformal slice (100 000 entries) takes about 5.5 s
    and 0.34 GB for se3, nearly all of it the two SVDs, taken one block at a
    time, and about 2.7 s for e3.  Slices with more than DEFAULT_ENTRY_CAP
    map entries raise SliceTooLargeError before any work.
    method="dense" takes the singular values of the full stacked
    constraint matrix, the reference the reduced solve is checked against.
    """
    alg = _algebra(algebra)
    _check_group(group)
    if not isinstance(grade_slice, GradeSlice):
        grade_slice = GradeSlice(*grade_slice)
    grade_slice.validate(alg)
    ins, n_out = grade_slice.subspace_dims(alg)
    vec = n_out * math.prod(ins)
    if vec > DEFAULT_ENTRY_CAP:
        raise SliceTooLargeError(
            f"slice too large: {vec} map entries exceeds the cap {DEFAULT_ENTRY_CAP}"
        )
    if method is None:
        frame = _slice_frame(alg, grade_slice.output_grade, grade_slice.input_grades)
        return _nullspace_dim(_reduced_stacks(alg, group, frame))
    if method == "dense":
        return _nullspace_dim([(None, _slice_stack(alg, group, grade_slice))])
    raise ValueError(f"unknown method {method!r}")


# -- span of maps constructable inside the algebra -------------------------------


# every span stage mixes unit-Frobenius blocks with integer product tensors,
# so true rows are O(1) and anything below this floor is cancellation residue
# (e.g. an equivariant block applied to the invariant vector it must
# annihilate); without the floor such residue gets normalized into fake span
# directions
_SPAN_FLOOR = 1e-10


class _Projected:
    """The coordinates of one slice's map rows in its frame.  Rows are
    stacked and projected about 2^18 floats at a time: few calls on small
    slices, bounded memory on large ones."""

    def __init__(self, frame):
        self.frame, self.pending, self.floats, self.coords = frame, [], 0, []

    def add(self, rows):
        self.pending.append(rows)
        self.floats += rows.size
        if self.floats >= 1 << 18:
            self.flush()

    def flush(self):
        if self.pending:
            self.coords.append(self.frame.project(np.vstack(self.pending)))
            self.pending, self.floats = [], 0
        return self.coords


def _sorting_perm(seq):
    """perm with seq[j] = sorted(seq)[perm[j]], equal grades in order."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    return tuple(sorted(range(len(seq)), key=order.__getitem__))


class _SpanBuilder:
    """Spans of multilinear maps reachable from equivariant linears and the
    algebra's products, per ordered grade sequence and output grade.

    Every constructed map is rotation-equivariant, so its rows lie in the
    slice's SO(3)-invariant subspace: each batch of rows is projected onto
    the slice's orthonormal invariant frame Q (_Frame) as it is made, the
    SVD runs on rows @ Q, and the kept right vectors map back through Q^T
    only where a longer product needs them.  Q is an isometry on that
    subspace, so singular values, the relative rank cut and the absolute
    floor keep their meaning.  Sequences shorter than a slice are memoized
    in full coordinates, as (n_basis, out_dim, in_dim_1, ..., in_dim_k)
    arrays with orthonormal flattened rows; full-length sequences stay in
    frame coordinates, where the union over input orders is taken.  A
    product's factors commute up to a sign per output grade, so the orders
    starting with the first input reach every product tree
    (slice_span_dims).
    The linear blocks and the frames, one per sorted multiset of a slice's
    grades with its axes permuted into each slice's order, come from the
    per-process caches (_linear_blocks, _permuted_frame); the builder holds
    its own dict of the blocks, which it may change without touching the
    cached one.
    """

    def __init__(self, alg, group, with_join):
        self.alg = alg
        self.grades = range(alg.n + 1)
        self.grade_idx = [alg.grade_indices(k) for k in self.grades]
        self.lin = dict(_linear_blocks(alg, group)[0])
        tensors = [alg.gp_tensor]
        if with_join:
            tensors.append(alg.join_tensor)
        # per product and input grade pair: the (out x b, a) matrix over the
        # blades of every output grade it reaches, and [(grade, lo, hi)] of
        # those grades' rows
        self.prods = []
        for t in tensors:
            pairs = {}
            for ga in self.grades:
                for gb in self.grades:
                    blk = t[np.ix_(self.grade_idx[ga], self.grade_idx[gb])]
                    outs = [g for g in self.grades if blk[:, :, self.grade_idx[g]].any()]
                    if outs:
                        at = np.concatenate([self.grade_idx[g] for g in outs])
                        bounds = np.cumsum([0] + [len(self.grade_idx[g]) for g in outs])
                        mat = blk[:, :, at].transpose(2, 1, 0).reshape(-1, blk.shape[0])
                        pairs[(ga, gb)] = mat, list(zip(outs, bounds[:-1], bounds[1:]))
            self.prods.append(pairs)
        self.memo = {}

    def _frame(self, go, seq, perm=None):
        """The frame of the slice seq -> go: the frame of the sorted
        multiset of all its grades, output included, with its axes permuted
        by perm, the output axis first (default: the sorting permutation of
        (go, *seq)).  The slice's invariant subspace does not depend on the
        order of its axes (_slice_frame), so the orders of one multiset, and
        the output grades that complete it, share one built frame; the null
        solve of a duality orbit's sorted representative reads the same
        frame (_orbit_slice, _slice_null_dim)."""
        grades = (go,) + seq
        perm = _sorting_perm(grades) if perm is None else perm
        return _permuted_frame(self.alg, tuple(sorted(grades)), perm)

    def _reduce(self, rows):
        return _reduce_rows(np.vstack(rows), abs_tol=_SPAN_FLOOR)

    def reduced(self, seq):
        """{output grade: (frame, orthonormal coordinate rows)} of the maps
        reachable from seq: every product of the spans of two shorter
        sequences splitting it, followed by an equivariant linear map.  One
        SVD per output grade and stage, on the projected rows."""
        frames, prod = {}, {}

        def frame(go):
            if go not in frames:
                frames[go] = self._frame(go, seq)
            return frames[go]

        def factors(spans):
            # {grade: (n, the basis as (out_dim, n * in_dims))}
            return {
                g: (len(b), np.moveaxis(b, 1, 0).reshape(b.shape[1], -1))
                for g, b in spans.items()
            }

        for m in range(1, len(seq)):
            right = factors(self.span(seq[m:]))
            for ga, (p, a) in factors(self.span(seq[:m])).items():
                da = a.shape[1] // p
                for gb, (q, b) in right.items():
                    for pairs in self.prods:
                        if (ga, gb) not in pairs:
                            continue
                        mat, outs = pairs[(ga, gb)]
                        # contract the left factor, then the right one:
                        # (p, out, da, q, db)
                        t1 = (mat @ a).reshape(-1, len(b), p, da).transpose(2, 0, 3, 1)
                        t2 = t1.reshape(-1, len(b)) @ b
                        t2 = t2.reshape(p, -1, da, q, b.shape[1] // q)
                        for go, lo, hi in outs:
                            if go not in prod:
                                prod[go] = _Projected(frame(go))
                            # rows (p, q) over (out, *da, *db)
                            rows = t2[:, lo:hi].transpose(0, 3, 1, 2, 4)
                            prod[go].add(rows.reshape(p * q, -1))
        out = {}
        for g, rows in prod.items():
            basis = self._reduce(rows.flush())
            if not basis.shape[0]:
                continue
            # composing with the reduced product basis instead of the raw
            # stack keeps the closure rows to (basis maps x span rows)
            block = frames[g].lift(basis).reshape(len(basis), len(self.grade_idx[g]), -1)
            for g2 in self.grades:
                lin = self.lin.get((g2, g))
                if lin is None:
                    continue
                # (maps, basis rows) over (out, *in_dims)
                comp = lin.reshape(-1, lin.shape[2]) @ block.transpose(1, 0, 2).reshape(
                    lin.shape[2], -1
                )
                comp = comp.reshape(len(lin), lin.shape[1], len(block), -1)
                comp = comp.transpose(0, 2, 1, 3)
                if g2 not in out:
                    out[g2] = _Projected(frame(g2))
                out[g2].add(comp.reshape(len(lin) * len(block), -1))
        spans = {}
        for g2 in self.grades:
            if g2 in out:
                basis = self._reduce(out.pop(g2).flush())
                if basis.shape[0]:
                    spans[g2] = frames[g2], basis
        return spans

    def span(self, seq):
        """{output grade: basis} of seq in full coordinates, memoized: the
        factors that longer sequences multiply."""
        got = self.memo.get(seq)
        if got is None:
            if len(seq) == 1:
                got = {go: b for (go, gi), b in self.lin.items() if gi == seq[0]}
            else:
                in_dims = tuple(len(self.grade_idx[g]) for g in seq)
                got = {
                    go: frame.lift(c).reshape((len(c), -1) + in_dims)
                    for go, (frame, c) in self.reduced(seq).items()
                }
            self.memo[seq] = got
        return got

    def slice_span_dims(self, inputs):
        """Span dimension per output grade for the given input grades,
        including all permutations of the inputs.

        Only the (k-1)! orders that start with input 0 are built.  Swapping
        the factors of a product multiplies each output grade by a sign:
        <BA>_k = e_r e_s e_k <AB>_k for grades r, s of A, B and
        e_g = (-1)^(g(g-1)/2), by reversion, and B v A = (-1)^((n-r)(n-s))
        A v B for the join of n generators.  Every factor's span is kept
        grade by grade, so a swap at any product node leaves every span
        unchanged, and swapping children along the path to input 0 turns
        any product tree into one with input 0 leftmost.  The union is
        taken in the coordinates of the frame of inputs -> go, the sorted
        multiset's frame with its axes in the order of (go, *inputs): an
        order's coordinates already are when its frame is the one its
        sequence was reduced in, and are lifted and projected again when it
        exchanges equal grades.  An output grade that one order alone
        reaches, every output at arity 2, keeps the row count of that
        order's block, orthonormal already, without another SVD.  The null
        side is not taken here: algebra_span_dim reads it per duality
        orbit (_orbit_slice)."""
        inputs = tuple(inputs)
        spans, rows = {}, {}
        for rest in itertools.permutations(range(1, len(inputs))):
            perm = (0,) + rest
            seq = tuple(inputs[p] for p in perm)
            if seq not in spans:
                spans[seq] = self.reduced(seq)
            for go, (frame, coords) in spans[seq].items():
                order = _sorting_perm((go,) + inputs)
                want = (order[0],) + tuple(order[1 + p] for p in perm)
                if frame.perm != want:
                    coords = self._frame(go, seq, want).project(frame.lift(coords))
                rows.setdefault(go, []).append(coords)
        return {
            go: len(r[0]) if len(r) == 1 else self._reduce(r).shape[0]
            for go, r in rows.items()
        }


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
    and the span construction already reaches every input order.
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

    def all_equal(self):
        return all(s.span_dim == s.nullspace_dim for s in self.slices)

    def has_gap(self):
        good = all(s.span_dim <= s.nullspace_dim for s in self.slices)
        return good and any(s.span_dim < s.nullspace_dim for s in self.slices)

    def to_dict(self):
        return {**asdict(self), "slices": [s.to_dict() for s in self.slices]}


@functools.lru_cache(maxsize=None)
def _slice_null_dim(alg, group, output, inputs):
    """The null dimension of the slice inputs -> output, solved once per
    process: it does not depend on the products that build the span.
    algebra_span_dim asks it for duality-orbit representatives only
    (_orbit_slice), so each orbit is solved once, and where the orbit has a
    sorted representative, output grade first, its frame is the one the
    span builder built on that grade multiset: the order of a slice's axes
    does not change its invariant subspace (_slice_frame)."""
    return solve_multilinear_dim(alg, group, GradeSlice(inputs, output))


def _orbit_slice(alg, output, inputs):
    """(output, inputs) of the representative of the slice's duality orbit.

    Every grade carries a non-degenerate pairing that the group preserves:
    the inner product on ega and cga, so V_g* = V_g, and on pga, whose
    inner product is degenerate, the e0123 coefficient of the product of
    grades g and n - g, so V_g* = V_(n-g) up to the mirror's sign, the same
    for every slice of one arity.  The equivariant maps inputs -> output
    are the invariants of V_out (x) V_in1* (x) ... (x) V_ink*, so their
    dimension depends only on the multiset of the output grade and the
    inputs' dual grades.  The representative is a sorted slice, output
    grade at most its first input, where the multiset has one: its frame
    is the sorted multiset frame the span builder reads (_permuted_frame).
    Otherwise it is the slice on the multiset's smallest grade."""
    dual = (lambda g: alg.n - g) if alg.degenerate else (lambda g: g)
    key = sorted((output,) + tuple(map(dual, inputs)))
    reps = [(g, tuple(sorted(map(dual, key[:i] + key[i + 1 :])))) for i, g in enumerate(key)]
    return next((rep for rep in reps if rep[0] <= rep[1][0]), reps[0])


def algebra_span_dim(algebra, l, with_join=False, group="se3"):
    """Span-versus-nullspace report for all grade slices of arity l.  Each
    slice's null dimension is that of its duality orbit's representative
    (_orbit_slice), solved once per process (_slice_null_dim), on the frame
    the span builder holds where the orbit has a sorted representative: a
    second check of the same algebra and group, such as the projective one
    with the join, reuses the dimensions of the first."""
    alg = _algebra(algebra)
    _check_group(group)
    if l not in (2, 3, 4):
        raise ValueError(f"arity {l} outside 2..4")
    if with_join and alg.name != "pga":
        raise ValueError("the join span is only defined for the projective algebra")
    if with_join and group != "se3":
        raise ValueError("the join commutes with the orientation-preserving group only")
    builder = _SpanBuilder(alg, group, with_join)
    entries = []
    for ms in itertools.combinations_with_replacement(range(alg.n + 1), l):
        span_dims = builder.slice_span_dims(ms)
        for o in range(alg.n + 1):
            dim = _slice_null_dim(alg, group, *_orbit_slice(alg, o, ms))
            entries.append(SliceEntry(ms, o, span_dims.get(o, 0), nullspace_dim=dim))
    return SpanReport(
        l=l,
        algebra=alg.name,
        with_join=with_join,
        group=group,
        span_dim=sum(e.span_dim for e in entries),
        nullspace_dim=sum(e.nullspace_dim for e in entries),
        slices=entries,
    )


_CONJECTURE_CASES = (
    ("ega", False),
    ("cga", False),
    ("pga", False),
    ("pga", True),
)


def verify_conjecture(l_max=3, long=False, include_heavy=False):
    """Span equals null space on every slice, algebra by algebra.

    Expectation per case: equality for the Euclidean and conformal
    algebras and for the projective algebra with the join; a strict gap
    somewhere for the projective algebra without it.  Arities 3 and 4 for
    the larger algebras run only with long=True; the conformal algebra at
    arity 4 additionally needs include_heavy=True (each of its ten
    100 000-entry slices takes about 7 s to solve).
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
            rep = algebra_span_dim(name, l, with_join=wj, group="se3")
            rep.expectation = "gap" if (name == "pga" and not wj) else "equal"
            rep.passed = rep.has_gap() if rep.expectation == "gap" else rep.all_equal()
            reports.append(rep)
    return reports
