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
never materialized.  Every slice is solved in reduced coordinates: its
columns are an exact integer basis of the slice's rotation-invariant
subspace (every equivariant map lies there), built in closed form from the
spin-0 and spin-1 pieces of each grade block and the delta/epsilon
invariant tensors of SO(3), and its rows are the z translation constraints
only, applied axis by axis to the basis tensor.  The mirror maps every
invariant column to itself or to its negative and commutes with the z
translation, so the constraint stack is block diagonal over the two mirror
parities: each block gets its own singular value decomposition, the rank
cut is taken once on their merged spectrum, and the full group keeps the
even block only and adds no row.  The basis is held as the list of its
nonzero entries, each column one per nonzero of its invariant tensor, and
the constraint moves each entry by index arithmetic, so each stack holds
only the rows some entry reaches and memory follows the constraints, not
the basis.  The solver runs on numpy alone.
method="dense" keeps the full stacked constraint matrix of one constraint
builder, groups.constraint_terms, as the independent reference.  The linear
basis is solved block by block, as the (d+1)^2 arity-1 slices.  Slices
whose flattened map exceeds the entry cap raise SliceTooLargeError.
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
# former tier boundaries on the flattened map length: no tier reads them any
# more, every slice takes the invariant-basis solve; perfbench's tracer still
# labels slices by both names
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


def _nullspace_dim(stacks, rel_tol=1e-10):
    """Dimension of the kernel of the block-diagonal matrix with the given
    diagonal blocks: one SVD per block, and the rank cut taken once, on the
    merged descending spectrum, relative to its largest value.  The blocks
    may come from a generator: each is released before the next is taken,
    so only one block and its SVD workspace are alive at a time."""
    s, cols = [], 0
    for b in stacks:
        cols += b.shape[1]
        if b.size:
            s.append(np.linalg.svd(b, compute_uv=False))
        del b
    spectrum = np.sort(np.concatenate(s))[::-1] if s else np.zeros(0)
    return cols - _rank_from_spectrum(spectrum, rel_tol)


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
# and T_y, so T_z generates the rest; the mirror maps each invariant column
# to plus or minus itself and commutes with T_z, so it splits the T_z stack
# into an even and an odd block and for e3 only keeps the even one
# (_mirror_even, _reduced_stacks)
_GENERATING_SET = ("Tz",)


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
    """[(spin-1 axis indices (k, n), values (n,))]: the nonzeros of each
    _so3_invariants(k) tensor."""
    return [(np.argwhere(t).T, t[t != 0]) for t in _so3_invariants(k)]


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


@functools.lru_cache(maxsize=None)
def _blade_tables(alg):
    """_spin_pieces as (blade, sign) tables: per grade, {width: (index in the
    grade block, sign)}, both shaped (count, width), since every piece
    column is one signed blade (checked)."""
    tables = []
    for stacks in _spin_pieces(alg):
        table = {}
        for w, p in stacks.items():
            blade = np.abs(p).argmax(axis=1)
            sign = np.take_along_axis(p, blade[:, None], axis=1)[:, 0]
            if np.count_nonzero(p) != sign.size or not (np.abs(sign) == 1).all():
                raise AssertionError(f"{alg.name} piece column is not a signed blade")
            table[w] = blade, sign
        tables.append(table)
    return tables


def _invariant_entries(alg, grades):
    """(flat, col, val, cols): the nonzero entries of an integer basis of
    the SO(3)-invariant tensors on the grade blocks (output grade first),
    at row-major flat indices, and its column count.  Every choice of one
    rotation piece per axis and one invariant tensor on its spin-1 axes is
    a column, the invariant contracted with the pieces; every piece column
    is one signed blade, so each nonzero of the invariant is one entry of
    the column.  Rotation blocks are antisymmetric, so the input axes
    transform like the output axis."""
    tables = [_blade_tables(alg)[g] for g in grades]
    dims = [len(alg.grade_indices(g)) for g in grades]
    strides = np.cumprod([1] + dims[:0:-1])[::-1]
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
    return flat, col, val, cols


@functools.lru_cache(maxsize=None)
def _mirror_flips(alg):
    """Per grade, which blades of the grade block the mirror negates.
    rho(mirror) is a diagonal of signs (checked on first use)."""
    r = rho(alg, mirror_versor(alg))
    if not np.array_equal(np.abs(r), np.eye(alg.size)):
        raise AssertionError(f"{alg.name} mirror is not a diagonal of signs")
    return [np.diag(r)[alg.grade_indices(g)] < 0 for g in range(alg.n + 1)]


def _mirror_even(alg, gs, index, col, cols):
    """Mask of the invariant columns, given by their entries as
    _invariant_entries lists them (index: the entries' per-axis indices,
    output axis first), that the mirror leaves unchanged.  The mirror
    multiplies each map entry by the product of its index signs: a column
    is even when none of its entries flips, odd when all of them do, and
    raises when it is neither."""
    flips = _mirror_flips(alg)
    grades = (gs.output_grade,) + gs.input_grades
    flip = functools.reduce(np.logical_xor, [flips[g][i] for g, i in zip(grades, index)])
    even = np.bincount(col, flip, minlength=cols) == 0
    odd = np.bincount(col, ~flip, minlength=cols) == 0
    if not (even | odd).all():
        raise AssertionError(
            f"{alg.name} slice {gs.input_grades}->{gs.output_grade}: an "
            "invariant column is neither even nor odd under the mirror"
        )
    return even


def _reduced_stacks(alg, group, gs):
    """Yield the T_z rows on the invariant basis, one stack per
    mirror-parity block of its columns: even, then odd; e3 keeps the even
    block only, since (M - I) B x = B (D - I) x with D = +-1 per column and
    B of full column rank.  The mirror commutes with T_z and is a diagonal of signs,
    so T_z moves an entry only to an index of the same sign: even columns
    reach mirror-even rows only, odd columns odd rows, and the full stack
    is block diagonal over the two.  Each basis entry is moved along each
    axis through T_z's grade block, by T[o, b] on the output axis and by
    -T[b, o] on an input axis; each stack keeps the rows that some entry of
    its block reaches, so its size follows the constraints, not the
    basis."""
    grades = (gs.output_grade,) + gs.input_grades
    flat, col, val, cols = _invariant_entries(alg, grades)
    terms = _generator_blocks(alg, "se3", _GENERATING_SET)
    if group == "se3" and not terms:  # ega: nothing constrains the columns
        yield np.zeros((0, cols))
        return
    dims = [len(alg.grade_indices(g)) for g in grades]
    index = np.unravel_index(flat, dims)
    even = _mirror_even(alg, gs, index, col, cols)
    parities = [even] if group == "e3" else [even, ~even]
    if not terms:  # ega, e3
        yield np.zeros((0, np.count_nonzero(even)))
        return
    strides = np.cumprod([1] + dims[:0:-1])[::-1]
    parts = []
    for k, (_, blocks) in enumerate(terms):
        for j, (g, i) in enumerate(zip(grades, index)):
            # the entry at index b moves to o with weight move[o, b]
            move = blocks[g] if j == 0 else -blocks[g].T
            o, e = np.nonzero(move[:, i])
            b = i[e]
            row = k * math.prod(dims) + flat[e] + (o - b) * strides[j]
            parts.append((row, col[e], val[e] * move[o, b]))
    rows, at, weights = map(np.concatenate, zip(*parts))
    # the generator stays suspended through the caller's SVDs: drop what it
    # holds, and split off each block's moved entries before any stack is
    # built, so that only the blocks still to come stay alive
    del parts, o, e, b, row
    pending = [(rows[keep], at[keep], weights[keep]) for keep in (p[at] for p in parities)]
    del rows, at, weights
    for block in parities:
        yield _parity_stack(block, *pending.pop(0))


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

    By default ("reduced") the slice is solved in reduced coordinates: the
    z translation constraints on an integer basis of the slice's
    rotation-invariant subspace, one singular value decomposition per
    mirror-parity block of its columns, for e3 on the even block only (no
    column: 0; no constraint row: the column count).  The constraint rows
    are built from the basis's nonzero entries and only the rows they
    reach are kept, so the largest arity-4 conformal slice (100 000
    entries) takes about 7.5 s and 0.34 GB for se3, nearly all of it the
    two SVDs, taken one block at a time, and about 4 s and 0.33 GB for
    e3.
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
    if vec > entry_cap:
        raise SliceTooLargeError(
            f"slice too large: {vec} map entries exceeds the cap {entry_cap}"
        )
    if method is None or method == "reduced":
        return _nullspace_dim(_reduced_stacks(alg, group, grade_slice), rel_tol)
    if method == "dense":
        return _nullspace_dim([_slice_stack(alg, group, grade_slice)], rel_tol)
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
    arity 4 additionally needs include_heavy=True (each of its ten
    100 000-entry slices takes about 7 s to solve).  At arity 4,
    slices over entry_cap are skipped.
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
