import functools
import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaeq.algebra import geometric_product, get_algebra, inner
from gaeq import solver
from gaeq.embeddings import embed_point_pga
from gaeq.groups import (
    GROUPS,
    constraint_rows,
    drho,
    lie_generators,
    mirror_versor,
    random_group_element,
    rho,
)
from gaeq.solver import (
    DEFAULT_ENTRY_CAP,
    EquivarianceSpotCheckWarning,
    GradeSlice,
    _Frame,
    _SpanBuilder,
    _blade_tables,
    _linear_blocks,
    _linear_slice_svds,
    _mirror_even,
    _orbit_slice,
    _permuted_frame,
    _reduced_stacks,
    _slice_frame,
    _slice_null_dim,
    _so3_invariants,
    _sorting_perm,
    _spot_check_generic_generator,
    _spot_check_residual,
    _tz_blocks,
    SliceTooLargeError,
    algebra_span_dim,
    closed_form_basis,
    closed_form_maps,
    equivariant_map_family,
    identity_coefficients,
    linear_constraint_spectrum,
    pseudoscalar_maps,
    solve_linear_basis,
    solve_multilinear_dim,
    span_residual,
    subspace_distance,
    verify_conjecture,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

E3_DIMS = {"ega": 4, "pga": 9, "cga": 20}
SE3_DIMS = {"ega": 8, "pga": 16, "cga": 40}


def commutation_error(alg, group, maps, rng, n_elements=20):
    worst = 0.0
    for _ in range(n_elements):
        u = random_group_element(alg, group, rng)
        r = rho(alg, u)
        for m in maps:
            err = np.linalg.norm(r @ m - m @ r)
            worst = max(worst, err / np.linalg.norm(m))
    return worst


# -- linear bases -----------------------------------------------------------------


def test_solved_e3_dimensions(any_algebra):
    basis = solve_linear_basis(any_algebra, "e3")
    assert basis.dim == E3_DIMS[any_algebra.name]


def test_solved_se3_dimensions(any_algebra):
    # observed solver outputs, frozen as regression values; no independent
    # closed-form count exists for the degenerate/conformal cases
    basis = solve_linear_basis(any_algebra, "se3")
    assert basis.dim == SE3_DIMS[any_algebra.name]


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_solved_maps_commute_with_fresh_elements(any_algebra, group, rng):
    basis = solve_linear_basis(any_algebra, group)
    assert commutation_error(any_algebra, group, basis.maps, rng) < 1e-8


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_solved_basis_orthonormal(any_algebra, group):
    basis = solve_linear_basis(any_algebra, group)
    flat = basis.maps.reshape(basis.dim, -1)
    gram = flat @ flat.T
    np.testing.assert_allclose(gram, np.eye(basis.dim), atol=1e-10)


@pytest.mark.parametrize("name, axes", [("pga", "123"), ("cga", "123"), ("ega", "3")])
def test_spot_check_flags_partial_violation(name, axes):
    # keeping only these vector components breaks the translations alone
    # (pga, cga) or only the rotations about x and y (ega); the one combined
    # generator has to see either
    alg = get_algebra(name)
    bad = np.zeros((alg.size, alg.size))
    idx = [alg.blade_index(f"e{i}") for i in axes]
    bad[idx, idx] = 1.0
    with pytest.warns(EquivarianceSpotCheckWarning):
        _spot_check_generic_generator(alg, bad.reshape(1, -1))
    good = solve_linear_basis(alg, "se3").maps
    with warnings.catch_warnings():
        warnings.simplefilter("error", EquivarianceSpotCheckWarning)
        _spot_check_generic_generator(alg, good.reshape(len(good), -1))


def kronecker_spot_check(alg, basis_flat):
    """(residual, scale) of the spot check from the Kronecker constraint rows."""
    gens = lie_generators(alg)
    x = sum(c * g for c, g in zip(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0]), gens))
    d = drho(alg, x)
    k = constraint_rows(d, [d], "lie")
    return np.abs(k @ basis_flat.T).max(), np.abs(k).max()


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_spot_check_matches_kronecker_rows(any_algebra, group, rng):
    maps = solve_linear_basis(any_algebra, group).maps
    corrupted = maps + 1e-3 * rng.normal(size=maps.shape)
    for basis in (maps, corrupted):
        flat = basis.reshape(len(basis), -1)
        resid, scale = _spot_check_residual(any_algebra, flat)
        want_resid, want_scale = kronecker_spot_check(any_algebra, flat)
        assert scale == want_scale
        # the two sum the same products in different orders
        assert abs(resid - want_resid) <= 1e-13 * scale + 1e-12 * want_resid
    assert want_resid > 1e-6 * scale


def test_solve_rejects_unknown_group(ega):
    with pytest.raises(ValueError):
        solve_linear_basis(ega, "so2")


def test_closed_form_counts(any_algebra):
    maps = closed_form_maps(any_algebra)
    assert len(maps) == E3_DIMS[any_algebra.name]
    names = [name for name, _ in maps]
    assert len(set(names)) == len(names)


def test_closed_form_maps_commute(any_algebra, rng):
    mats = [m for _, m in closed_form_maps(any_algebra)]
    assert commutation_error(any_algebra, "e3", mats, rng) < 1e-10


def test_solved_matches_closed_form(any_algebra):
    solved = solve_linear_basis(any_algebra, "e3")
    closed = closed_form_basis(any_algebra)
    assert subspace_distance(solved, closed) < 1e-8


def test_identity_in_family(any_algebra):
    for group in ("e3", "se3"):
        fam = equivariant_map_family(any_algebra, group)
        coeff = identity_coefficients(any_algebra, group)
        total = sum(c * m for c, (_, m) in zip(coeff, fam))
        np.testing.assert_allclose(total, np.eye(any_algebra.size), atol=1e-14)


def test_se3_family_contains_pseudoscalar_maps(any_algebra, rng):
    se3 = solve_linear_basis(any_algebra, "se3")
    e3 = solve_linear_basis(any_algebra, "e3")
    for name, m in pseudoscalar_maps(any_algebra):
        if np.abs(m).max() == 0:
            continue  # degenerate pseudoscalar annihilates some grades
        assert span_residual(se3, m) < 1e-8, name
        # mirrors flip the pseudoscalar, so these never lie in the e3 span
        assert span_residual(e3, m) > 0.9, name
    mats = [m for _, m in pseudoscalar_maps(any_algebra) if np.abs(m).max() > 0]
    assert commutation_error(any_algebra, "se3", mats, rng) < 1e-10


def test_e3_span_inside_se3_span(any_algebra):
    se3 = solve_linear_basis(any_algebra, "se3")
    for m in solve_linear_basis(any_algebra, "e3").maps:
        assert span_residual(se3, m) < 1e-8


def full_constraint_stack(alg, group):
    """The stacked constraints on the full 2^d x 2^d map, as one matrix."""
    reps = [(drho(alg, x), "lie") for x in lie_generators(alg)]
    if group == "e3":
        reps.append((rho(alg, mirror_versor(alg)), "group"))
    return np.vstack([constraint_rows(m, [m], flavor) for m, flavor in reps])


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_linear_spectrum_matches_full_stack(any_algebra, group):
    # the grade-block spectrum is the spectrum of the full stacked matrix
    want = np.linalg.svd(full_constraint_stack(any_algebra, group), compute_uv=False)
    got = linear_constraint_spectrum(any_algebra, group)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want[0]


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_solved_maps_sit_on_single_grade_blocks(any_algebra, group):
    grades = any_algebra.grades
    for m in solve_linear_basis(any_algebra, group).maps:
        rows, cols = np.nonzero(m)
        blocks = set(zip(grades[rows], grades[cols]))
        assert len(blocks) == 1, blocks


def test_solve_deterministic(pga):
    a = solve_linear_basis(pga, "se3")
    b = solve_linear_basis(pga, "se3")
    np.testing.assert_array_equal(a.maps, b.maps)


# -- subspace distance ------------------------------------------------------------


def test_subspace_distance_self(any_algebra):
    basis = closed_form_basis(any_algebra)
    assert subspace_distance(basis, basis) == 0.0


def test_subspace_distance_proper_subspace(ega):
    full = closed_form_basis(ega)
    proj0 = [m for name, m in closed_form_maps(ega) if name == "project_grade_0"]
    assert subspace_distance(proj0, full) == pytest.approx(1.0, abs=1e-12)


def test_subspace_distance_dimension_mismatch(ega, pga):
    with pytest.raises(ValueError):
        subspace_distance(closed_form_basis(ega), closed_form_basis(pga))


# -- grade-sliced multilinear null spaces -------------------------------------------


def test_grade_slice_validation(cga):
    with pytest.raises(ValueError):
        GradeSlice((1, 7), 2).validate(cga)
    ins, out = GradeSlice((1, 2), 3).subspace_dims(cga)
    assert ins == (5, 10)
    assert out == 10


def test_scalar_slice_dimension(any_algebra):
    for group in ("e3", "se3"):
        assert solve_multilinear_dim(any_algebra, group, GradeSlice((0,), 0)) == 1


def test_vector_slice_ega(ega):
    # vectors to vectors: scalar multiples of the identity only
    assert solve_multilinear_dim(ega, "se3", GradeSlice((1,), 1)) == 1


def test_pga_linear_slices_sum_to_full_dimension(pga):
    total = sum(
        solve_multilinear_dim(pga, "e3", GradeSlice((gi,), go))
        for gi in range(5)
        for go in range(5)
    )
    assert total == 9


def test_se3_relaxes_e3(any_algebra):
    slices = [GradeSlice((1,), 1), GradeSlice((1, 1), 0), GradeSlice((1, 2), 1)]
    for gs in slices:
        d_se3 = solve_multilinear_dim(any_algebra, "se3", gs)
        d_e3 = solve_multilinear_dim(any_algebra, "e3", gs)
        assert d_se3 >= d_e3


def test_permuted_slice_dims_equal(pga):
    a = solve_multilinear_dim(pga, "se3", GradeSlice((1, 2), 2))
    b = solve_multilinear_dim(pga, "se3", GradeSlice((2, 1), 2))
    assert a == b


def test_entry_cap_raises(cga):
    # 10^8 map entries, over the cap: raises before any basis is built
    with pytest.raises(SliceTooLargeError) as exc:
        solve_multilinear_dim(cga, "se3", GradeSlice((2,) * 7, 2))
    assert f"100000000 map entries exceeds the cap {DEFAULT_ENTRY_CAP}" in str(exc.value)


@pytest.mark.parametrize("group", ["se3", "e3"])
def test_method_tiers_agree(cga, group):
    # for e3 the dense stack adds the mirror's group-flavour rows, while the
    # reduced solve keeps the mirror-even invariant columns instead
    gs = GradeSlice((2, 1), 2)  # 500 flattened entries
    dims = {
        method: solve_multilinear_dim(cga, group, gs, method=method)
        for method in ("dense", None)
    }
    assert dims["dense"] == dims[None]


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@pytest.mark.parametrize("output, dims", [(1, (69, 38)), (2, (108, 56))])
def test_large_slices_keep_eigensolver_dims(cga, output, dims):
    # 12 500 and 25 000 entries, above the former eigensolver bound of
    # 11 000; (se3, e3) dimensions as that tier solved them
    gs = GradeSlice((1, 1, 2, 2), output)
    assert tuple(solve_multilinear_dim(cga, g, gs) for g in ("se3", "e3")) == dims


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@pytest.mark.parametrize("group, dim", [("e3", 146), ("se3", 292)])
def test_largest_arity4_slice_dims(cga, group, dim):
    # 100 000 entries, the largest conformal slice at arity 4
    assert solve_multilinear_dim(cga, group, GradeSlice((2, 2, 2, 2), 2)) == dim


def arity2_slices(alg, ordered, max_entries=None):
    grades = range(alg.n + 1)
    if ordered:
        pairs = itertools.product(grades, repeat=2)
    else:
        pairs = itertools.combinations_with_replacement(grades, 2)
    for ins in pairs:
        for out in grades:
            gs = GradeSlice(ins, out)
            ins_dims, n_out = gs.subspace_dims(alg)
            if max_entries is None or n_out * np.prod(ins_dims) <= max_entries:
                yield gs


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@pytest.mark.parametrize("group", ["se3", "e3"])
@pytest.mark.parametrize("name", ["ega", "pga", "cga"])
def test_reduced_tier_matches_dense(name, group):
    # every ordered arity-2 slice of ega and pga; cga up to 500 entries,
    # with sorted inputs only, plus one 1000-entry slice
    alg = get_algebra(name)
    if name == "cga":
        slices = list(arity2_slices(alg, ordered=False, max_entries=500))
        if group == "e3":
            slices.append(GradeSlice((2, 2), 2))
    else:
        slices = list(arity2_slices(alg, ordered=True))
    for gs in slices:
        want = solve_multilinear_dim(alg, group, gs, method="dense")
        assert solve_multilinear_dim(alg, group, gs) == want, gs


def character_count(alg, gs):
    """m0 - m1: index tuples of total weight 0 minus those of weight 1,
    where weight w is the eigenvalue 2i w of drho(e12) on a grade block.
    Every spin-l irrep holds one tuple of each weight -l..l, so this counts
    the rotation invariants."""
    lz = drho(alg, lie_generators(alg)[0])
    weights = []
    for g in (gs.output_grade,) + gs.input_grades:
        idx = alg.grade_indices(g)
        lam = np.linalg.eigvals(lz[np.ix_(idx, idx)])
        weights.append(np.rint(lam.imag / 2.0).astype(int))
    total = functools.reduce(np.add.outer, weights)
    return np.count_nonzero(total == 0) - np.count_nonzero(total == 1)


def invariant_entries(alg, gs):
    """(flat, col, val, cols) of the slice's frame."""
    frame = _slice_frame(alg, gs.output_grade, gs.input_grades)
    return frame.flat, frame.col, frame.val, frame.cols


def invariant_basis(alg, gs):
    """The invariant basis as a dense (n_out, *in_dims, cols) tensor."""
    ins, n_out = gs.subspace_dims(alg)
    flat, col, val, cols = invariant_entries(alg, gs)
    q = np.zeros((n_out * math.prod(ins), cols))
    q[flat, col] = val
    return q.reshape((n_out, *ins, cols))


def entry_index(alg, gs, flat):
    """Per-axis indices of flat map entries, output axis first."""
    ins, n_out = gs.subspace_dims(alg)
    return np.unravel_index(flat, (n_out, *ins))


def mirror_even(alg, gs):
    flat, col, _, cols = invariant_entries(alg, gs)
    grades = (gs.output_grade,) + gs.input_grades
    return _mirror_even(alg, grades, entry_index(alg, gs, flat), col, cols)


def apply_axis(t, m, axis):
    """Contract the matrix m into the given tensor axis of t."""
    return np.moveaxis(np.tensordot(m, t, axes=(1, axis)), 0, axis)


@pytest.mark.parametrize("name", ["ega", "pga", "cga"])
def test_invariant_columns_match_character_count(name):
    alg = get_algebra(name)
    grades = range(alg.n + 1)
    for arity in (1, 2, 3):
        for ins in itertools.combinations_with_replacement(grades, arity):
            for out in grades:
                gs = GradeSlice(ins, out)
                cols = invariant_basis(alg, gs).shape[-1]
                assert cols == character_count(alg, gs), gs


@pytest.mark.parametrize(
    "name, inputs, output, cols",
    [
        ("ega", (1, 1, 2), 1, 3),
        ("pga", (1, 2, 3), 2, 24),
        ("cga", (2, 3), 2, 55),
        ("cga", (2, 2, 2), 2, 406),
        ("pga", (2, 2, 2, 2), 2, 192),
    ],
)
def test_invariant_basis_is_rotation_invariant(name, inputs, output, cols):
    # every rotation constraint, the rotation's grade block applied on the
    # output axis minus its transpose on every input axis, comes out exactly
    # zero on the integer reference basis and zero to rounding on the
    # solver's orthonormal one; both have full column rank
    alg = get_algebra(name)
    gs = GradeSlice(inputs, output)
    indices = [alg.grade_indices(g) for g in (output, *inputs)]
    integer, orthonormal = loop_invariant_basis(alg, gs), invariant_basis(alg, gs)
    for basis, exact in ((integer, True), (orthonormal, False)):
        assert basis.shape[-1] == cols
        for x in lie_generators(alg)[:3]:
            d = drho(alg, x)
            image = sum(
                apply_axis(basis, m if axis == 0 else -m.T, axis)
                for axis, m in enumerate(d[np.ix_(i, i)] for i in indices)
            )
            if exact:
                assert not image.any()
            else:
                assert np.linalg.norm(image) <= 1e-12 * np.linalg.norm(basis)
        flat = basis.reshape(-1, cols)
        assert np.linalg.matrix_rank(flat) == cols


@functools.lru_cache(maxsize=None)
def product_pieces(alg):
    """The rotation pieces of _blade_tables built as dense columns by
    geometric products, in the same order: per grade, {1: (count, n_grade,
    1) spin-0 pieces X and e123 X, 3: (count, n_grade, 3) spin-1 pieces
    (e_i X) and (e_i e123 X)}, widths without a piece left out."""
    e = np.eye(alg.size)
    rot = alg.blade_index("e123")
    vec = [alg.blade_index(f"e{i}") for i in "123"]
    other = e[[m for m in range(alg.size) if not m & rot]]
    dual = geometric_product(alg, e[rot], other)
    pieces = [p[:, None] for p in np.concatenate([other, dual])]
    for base in (other, dual):
        # (3, n_other, size) -> one (size, 3) piece per blade X
        pieces += list(geometric_product(alg, e[vec, None], base).transpose(1, 2, 0))
    stacks = []
    for g in range(alg.n + 1):
        kept = [p for p in (p[alg.grade_indices(g)] for p in pieces) if p.any()]
        by_width = {w: [p for p in kept if p.shape[1] == w] for w in (1, 3)}
        stacks.append({w: np.stack(ps) for w, ps in by_width.items() if ps})
    return stacks


def test_blade_tables_read_the_product_pieces(any_algebra):
    # _blade_tables reads every piece off gp_sign; the pieces built by
    # geometric products must be exactly its signed blades, intertwine the
    # rotations exactly, and cover every blade once
    alg = any_algebra
    vec = [alg.blade_index(f"e{i}") for i in "123"]
    rot_d = [drho(alg, x) for x in lie_generators(alg)[:3]]
    tables, stacks = _blade_tables(alg), product_pieces(alg)
    assert [list(t) for t in tables] == [list(s) for s in stacks]
    covered = []
    for g, (table, pieces) in enumerate(zip(tables, stacks)):
        idx = alg.grade_indices(g)
        for w, p in pieces.items():
            blade = np.abs(p).argmax(axis=1)
            sign = np.take_along_axis(p, blade[:, None], axis=1)[:, 0]
            assert np.count_nonzero(p) == sign.size and (np.abs(sign) == 1).all()
            got_blade, got_sign = table[w]
            assert got_blade.dtype == blade.dtype and got_sign.dtype == sign.dtype
            assert np.array_equal(got_blade, blade) and np.array_equal(got_sign, sign)
            full = np.zeros((len(p), alg.size, w))
            full[:, idx] = p
            for d in rot_d:
                want = full @ d[np.ix_(vec, vec)] if w == 3 else 0 * full
                assert np.array_equal(d @ full, want)
            covered += list(idx[blade].ravel())
    assert sorted(covered) == list(range(alg.size))


def loop_invariant_basis(alg, gs):
    """Integer reference form of a slice's frame (_slice_frame), as a dense
    (n_out, *in_dims, cols) tensor: the integer invariant tensors
    (_so3_invariants), one tensordot per piece (product_pieces, not the
    frame's blade tables), per choice of one piece per axis, in the frame's
    column order (piece widths, then tensor, then pieces)."""
    grades = (gs.output_grade,) + gs.input_grades
    dims = tuple(len(alg.grade_indices(g)) for g in grades)
    stacks = [product_pieces(alg)[g] for g in grades]
    cols = [np.zeros(dims + (0,))]
    for widths in itertools.product(*stacks):
        for t in _so3_invariants(widths.count(3)):
            t = t.reshape(widths)
            for pieces in itertools.product(*(s[w] for s, w in zip(stacks, widths))):
                u = t
                for p in pieces:
                    u = np.tensordot(u, p, axes=(0, 1))
                cols.append(u[..., None])
    return np.concatenate(cols, axis=-1)


def assert_same_column_space(alg, gs):
    new, old = invariant_basis(alg, gs), loop_invariant_basis(alg, gs)
    assert new.shape == old.shape, gs
    if new.shape[-1] == 0:
        return
    a, b = new.reshape(-1, new.shape[-1]), old.reshape(-1, old.shape[-1])
    rank = np.linalg.matrix_rank(a)
    assert rank == np.linalg.matrix_rank(b) == np.linalg.matrix_rank(np.hstack([a, b])), gs


@pytest.mark.parametrize(
    "name, inputs, output",
    [("cga", (2, 3), 2), ("cga", (2, 2, 2), 2), ("pga", (2, 2, 2, 2), 2)],
)
def test_invariant_basis_matches_loop_form(name, inputs, output):
    assert_same_column_space(get_algebra(name), GradeSlice(inputs, output))


def all_slices(name, max_arity):
    grades = range(get_algebra(name).n + 1)
    for arity in range(1, max_arity + 1):
        for ins in itertools.product(grades, repeat=arity):
            for out in grades:
                yield GradeSlice(ins, out)


@pytest.mark.parametrize(
    "name, slices",
    [
        ("ega", None),
        ("pga", None),
        ("cga", None),
        # the slices-l3 benchmark slices
        ("cga", [((1, 1, 2), 2), ((1, 2, 2), 1), ((1, 1, 3), 3), ((1, 2, 2), 2)]),
    ],
)
def test_invariant_columns_are_mirror_eigenvectors(name, slices):
    # every invariant column is mapped by the mirror to itself or to its
    # negative, exactly, so the mirror only tells even columns from odd ones;
    # the mirror is applied here as rho(mirror_versor) on every axis, and
    # _mirror_even, which reads it as signs, must agree.  slices=None: every
    # ordered slice up to arity 2 and every sorted slice of arity 3
    alg = get_algebra(name)
    grades = range(alg.n + 1)
    if slices is None:
        sorted_l3 = itertools.combinations_with_replacement(grades, 3)
        sorted_l3 = [GradeSlice(ins, out) for ins in sorted_l3 for out in grades]
        slices = [*all_slices(name, 2), *sorted_l3]
    else:
        slices = [GradeSlice(*s) for s in slices]
    r = rho(alg, mirror_versor(alg))
    assert np.array_equal(r @ r, np.eye(alg.size))  # its own inverse
    counts = np.zeros(2, dtype=int)
    for gs in slices:
        indices = map(alg.grade_indices, (gs.output_grade,) + gs.input_grades)
        grade_blocks = [r[np.ix_(i, i)] for i in indices]
        # r on the output axis, r^-T = r^T on every input axis
        basis = moved = invariant_basis(alg, gs)
        for axis, m in enumerate(grade_blocks):
            moved = apply_axis(moved, m if axis == 0 else m.T, axis)
        entries = math.prod(basis.shape[:-1])
        flat, image = basis.reshape(entries, -1), moved.reshape(entries, -1)
        even = (image == flat).all(axis=0)
        odd = (image == -flat).all(axis=0)
        assert (even | odd).all(), gs
        assert np.array_equal(mirror_even(alg, gs), even), gs
        counts += even.sum(), odd.sum()
    assert counts.min() > 0, counts


def test_mixed_parity_column_raises(pga):
    gs = GradeSlice((0, 2), 2)  # two even and two odd invariant columns
    flat, col, _, cols = invariant_entries(pga, gs)
    index = entry_index(pga, gs, flat)
    even = _mirror_even(pga, (2, 0, 2), index, col, cols)
    assert even.tolist() == [True, False, False, True]
    # columns 0 + 2 and 1 + 3, each an even column plus an odd one
    with pytest.raises(AssertionError, match=r"pga slice \(0, 2\)->2: .* neither"):
        _mirror_even(pga, (2, 0, 2), index, col % 2, 2)


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@pytest.mark.parametrize("name", ["ega", "cga"])
def test_se3_odd_block_matches_e3_dims_through_pseudoscalar(name):
    # the se3 solve's odd block against the e3 golden, which only the even
    # blocks produce: the pseudoscalar I of ega and cga is central,
    # invertible and mirror-odd, and moves grade k to n - k, so left
    # multiplication by I maps the mirror-odd maps ins -> out one to one
    # onto the mirror-even maps ins -> n - out, and
    # dim_se3(ins -> out) = dim_e3(ins -> out) + dim_e3(ins -> n - out).
    # pga is left out: its pseudoscalar e0123 squares to zero, so
    # multiplying by it is not invertible, and 57 of its 275 slices break
    # the identity
    with open(GOLDEN_DIR / "null_dims_e3.json") as fh:
        rows = [r for r in json.load(fh) if r["algebra"] == name]
    e3 = {(tuple(r["inputs"]), r["output"]): r["nullspace_dim"] for r in rows}
    n = get_algebra(name).n
    assert len(e3) == {"ega": 136, "cga": 498}[name]
    for (ins, out), dim in e3.items():
        se3 = solve_multilinear_dim(name, "se3", GradeSlice(ins, out))
        assert se3 == dim + e3[(ins, n - out)], (ins, out)


def test_reduced_edge_cases(ega):
    # no invariant column: a pair of scalars cannot make a vector
    gs = GradeSlice((0, 0), 1)
    assert invariant_entries(ega, gs)[3] == 0
    for group in ("se3", "e3"):
        assert solve_multilinear_dim(ega, group, gs) == 0
    # ega has no translation, so no constraint is left on invariant columns
    assert _tz_blocks(ega) is None
    # the dot product is mirror-even and kept; the cross product is
    # mirror-odd and cut
    dot, cross = GradeSlice((1, 1), 0), GradeSlice((1, 1), 1)
    assert mirror_even(ega, dot).tolist() == [True]
    assert mirror_even(ega, cross).tolist() == [False]
    dims = {(g, gs): solve_multilinear_dim(ega, g, gs) for g in GROUPS for gs in (dot, cross)}
    assert dims == {("se3", dot): 1, ("se3", cross): 1, ("e3", dot): 1, ("e3", cross): 0}


def small_slices(max_entries):
    for name in ("ega", "pga", "cga"):
        alg = get_algebra(name)
        grades = range(alg.n + 1)
        for arity in (1, 2, 3):
            for ins in itertools.product(grades, repeat=arity):
                for out in grades:
                    gs = GradeSlice(ins, out)
                    ins_dims, n_out = gs.subspace_dims(alg)
                    if n_out * np.prod(ins_dims) <= max_entries:
                        yield name, gs


SMALL_SLICES = list(small_slices(600))


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(SMALL_SLICES), group=st.sampled_from(["se3", "e3"]))
def test_reduced_matches_dense_property(case, group):
    name, gs = case
    want = solve_multilinear_dim(name, group, gs, method="dense")
    assert solve_multilinear_dim(name, group, gs) == want


def assert_reduced_gram_matches_kronecker_rows(alg, group, gs):
    # the index arithmetic against the Kronecker T_z rows of constraint_rows
    # applied to the dense invariant basis: their Gram matrix has an exactly
    # zero even x odd block, and each parity block (for e3 the even one only)
    # equals the Gram matrix of its stack, entry by entry
    basis = invariant_basis(alg, gs)
    basis = basis.reshape(math.prod(basis.shape[:-1]), -1)
    want = np.zeros((basis.shape[1],) * 2)
    gens = lie_generators(alg)
    if len(gens) == 6:  # rotations, then x, y, z translations; ega has none
        tz = drho(alg, gens[5])
        out, *ins = [
            tz[np.ix_(i, i)]
            for i in map(alg.grade_indices, (gs.output_grade,) + gs.input_grades)
        ]
        rows = constraint_rows(out, ins, "lie") @ basis
        want = rows.T @ rows
    frame = _slice_frame(alg, gs.output_grade, gs.input_grades)
    masks, stacks = zip(*_reduced_stacks(alg, group, frame))
    if alg.name == "ega" and group == "se3":
        # no T_z and no mirror: one empty stack over every column, parity
        # never computed
        assert [s.shape for s in stacks] == [(0, basis.shape[1])]
        assert masks[0].all()
        return
    even = mirror_even(alg, gs)
    assert not want[np.ix_(even, ~even)].any()
    parities = [even] if group == "e3" else [even, ~even]
    assert len(stacks) == len(parities)
    for block, mask, stack in zip(parities, masks, stacks):
        assert np.array_equal(mask, block)
        got = stack.T @ stack
        block_want = want[np.ix_(block, block)]
        scale = max(np.abs(block_want).max(initial=0.0), 1.0)
        assert np.abs(got - block_want).max(initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("group", ["se3", "e3"])
def test_slice_operator_gram_matches_dense_stack(pga, group):
    # a fixed mixed-grade slice with nonzero T_z rows: 144 flattened entries
    assert_reduced_gram_matches_kronecker_rows(pga, group, GradeSlice((1, 2), 2))


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(SMALL_SLICES), group=st.sampled_from(["se3", "e3"]))
def test_reduced_stack_gram_matches_kronecker_rows(case, group):
    name, gs = case
    assert_reduced_gram_matches_kronecker_rows(get_algebra(name), group, gs)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(SMALL_SLICES))
def test_invariant_basis_matches_loop_form_property(case):
    name, gs = case
    assert_same_column_space(get_algebra(name), gs)


def test_multilinear_deterministic(cga):
    gs = GradeSlice((2, 2), 2)
    runs = {solve_multilinear_dim(cga, "se3", gs) for _ in range(2)}
    assert len(runs) == 1


# -- invariant frames ---------------------------------------------------------------


def dense_frame(frame):
    """A frame as a dense (size, cols) matrix, built from its entries."""
    q = np.zeros((frame.size, frame.cols))
    np.add.at(q, (frame.flat, frame.col), frame.val)
    return q


def sorted_slices(name, arity):
    grades = range(get_algebra(name).n + 1)
    for ins in itertools.combinations_with_replacement(grades, arity):
        for out in grades:
            yield ins, out


ARITY3_FRAMES = [
    ("ega", (1, 1, 2), 1),
    ("ega", (1, 2, 3), 0),
    ("pga", (1, 2, 3), 2),
    ("pga", (2, 2, 2), 2),
    ("cga", (1, 1, 3), 3),
    ("cga", (1, 2, 2), 2),
    ("cga", (2, 2, 2), 2),
]


def assert_frame_spans_invariant_basis(alg, inputs, output):
    frame = _slice_frame(alg, output, inputs)
    q = dense_frame(frame)
    assert np.abs(q.T @ q - np.eye(frame.cols)).max(initial=0.0) <= 1e-14
    # the integer reference basis B has full column rank
    # (test_invariant_basis_is_rotation_invariant) and as many columns as Q,
    # so B inside span(Q) means the same span
    b = loop_invariant_basis(alg, GradeSlice(inputs, output)).reshape(frame.size, -1)
    assert b.shape[1] == frame.cols
    assert np.abs(b - q @ (q.T @ b)).max(initial=0.0) <= 1e-12
    # column order kept: Q is B's Gram-Schmidt, so Q^T B is upper
    # triangular with a positive diagonal
    r = q.T @ b
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12
    assert (np.diag(r) > 0).all()


@pytest.mark.parametrize("name", ["ega", "pga", "cga"])
@pytest.mark.parametrize("arity", [1, 2])
def test_frames_are_orthonormal_bases_of_the_invariant_subspace(name, arity):
    alg = get_algebra(name)
    for inputs, output in sorted_slices(name, arity):
        assert_frame_spans_invariant_basis(alg, inputs, output)


@pytest.mark.parametrize("name, inputs, output", ARITY3_FRAMES)
def test_arity3_frames_are_orthonormal_bases(name, inputs, output):
    assert_frame_spans_invariant_basis(get_algebra(name), inputs, output)


@pytest.mark.parametrize("group", ["e3", "se3"])
@pytest.mark.parametrize("name, inputs, output", ARITY3_FRAMES)
def test_null_solve_on_frame_entries_matches_the_integer_basis(
    name, inputs, output, group, monkeypatch
):
    # every solve runs on the frame's orthonormal entries; the same solve on
    # the integer reference basis's entries gives the same dimension
    alg = get_algebra(name)
    gs = GradeSlice(inputs, output)
    got = solve_multilinear_dim(alg, group, gs)

    def integer_frame(alg, output, inputs):
        grades = (output,) + inputs
        b = loop_invariant_basis(alg, GradeSlice(inputs, output))
        dims, cols = b.shape[:-1], b.shape[-1]
        b = b.reshape(-1, cols)
        col, flat = np.nonzero(b.T)
        starts = np.flatnonzero(np.diff(col, prepend=-1))
        perm = tuple(range(len(grades)))
        entries = flat, col, b[flat, col], cols, starts
        return _Frame(alg.name, grades, dims, perm, *entries)

    monkeypatch.setattr(solver, "_slice_frame", integer_frame)
    assert solve_multilinear_dim(alg, group, gs) == got


@pytest.mark.parametrize(
    "name, inputs, output",
    [("pga", (1, 2), 2), ("cga", (1, 3), 2), ("cga", (2, 2), 2)] + ARITY3_FRAMES,
)
def test_permuted_frame_has_the_projector_of_a_direct_frame(name, inputs, output):
    # every order of the k+1 axes, the output axis moved too: the permuted
    # frame is orthonormal, has equal projectors with the frame built
    # directly on that order (the direct frame's coordinates of the permuted
    # one form an orthogonal matrix), and each column keeps its mirror
    # parity, read from the permuted entries
    alg = get_algebra(name)
    base = _slice_frame(alg, output, inputs)
    grades = (output,) + inputs
    even = _mirror_even(alg, grades, np.unravel_index(base.flat, base.dims), base.col, base.cols)
    for perm in itertools.permutations(range(len(grades))):
        frame = base.permuted(perm)
        order = tuple(grades[p] for p in perm)
        assert frame.perm == perm and frame.grades == order
        got = dense_frame(frame)
        assert np.abs(got.T @ got - np.eye(frame.cols)).max(initial=0.0) <= 1e-14
        want = dense_frame(_slice_frame(alg, order[0], order[1:]))
        assert got.shape == want.shape
        m = want.T @ got
        assert np.abs(m @ m.T - np.eye(len(m))).max(initial=0.0) <= 1e-12
        index = np.unravel_index(frame.flat, frame.dims)
        assert np.array_equal(_mirror_even(alg, order, index, frame.col, frame.cols), even)


@pytest.mark.parametrize(
    "name, with_join", [("ega", False), ("pga", False), ("pga", True), ("cga", False)]
)
def test_arity2_span_rows_lie_in_their_frames(name, with_join, monkeypatch):
    # the residual outside the frame, formed exactly, of every batch of rows
    # the builder projects
    project, worst = _Frame.project, []

    def checked(frame, rows):
        rows = rows.reshape(len(rows), frame.size)
        q = dense_frame(frame)
        worst.append(np.abs(rows - (rows @ q) @ q.T).max(initial=0.0))
        return project(frame, rows)

    monkeypatch.setattr(_Frame, "project", checked)
    alg = get_algebra(name)
    builder = _SpanBuilder(alg, "se3", with_join)
    for inputs in itertools.combinations_with_replacement(range(alg.n + 1), 2):
        builder.slice_span_dims(inputs)
    assert worst and max(worst) <= 1e-12


def test_projection_guard_names_the_slice(cga, rng):
    frame = _slice_frame(cga, 2, (2, 2))
    rows = frame.lift(rng.normal(size=(3, frame.cols)))
    assert np.allclose(frame.project(rows) @ dense_frame(frame).T, rows, atol=1e-12)
    bad = rows.copy()
    bad[1] += 1e-3 * rng.normal(size=frame.size)
    with pytest.raises(AssertionError, match=r"cga slice \(2, 2\)->2"):
        frame.project(bad)


def test_non_equivariant_linear_block_fails_the_span_loudly(pga, rng):
    # a construction bug: one linear block off the equivariant maps
    builder = _SpanBuilder(pga, "se3", False)
    block = builder.lin[(1, 1)]
    builder.lin[(1, 1)] = block + 1e-3 * rng.normal(size=block.shape)
    with pytest.raises(AssertionError, match=r"pga slice \(1, 1\)->\d"):
        builder.slice_span_dims((1, 1))


def test_cached_blocks_and_frames_are_read_only(pga):
    blocks, maps = _linear_blocks(pga, "se3")
    frame = _slice_frame(pga, 2, (1, 2))
    # every caller gets the cached frame itself, not a copy
    assert _slice_frame(pga, 2, (1, 2)) is frame
    for a in (blocks[(1, 1)], maps, frame.flat, frame.col, frame.val, frame.starts):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    with pytest.raises(TypeError):
        blocks[(1, 1)] = maps


def test_solved_maps_are_the_callers_copy(pga):
    maps = solve_linear_basis(pga, "se3").maps
    want = maps.copy()
    maps[0] += 1.0
    assert np.array_equal(solve_linear_basis(pga, "se3").maps, want)


def test_fresh_builder_sees_the_true_block_after_poisoning(pga, rng):
    # the reassignment of the test above stays with its builder
    want = _linear_blocks(pga, "se3")[0][(1, 1)].copy()
    poisoned = _SpanBuilder(pga, "se3", False)
    poisoned.lin[(1, 1)] = want + 1e-3 * rng.normal(size=want.shape)
    assert np.array_equal(_linear_blocks(pga, "se3")[0][(1, 1)], want)
    assert np.array_equal(_SpanBuilder(pga, "se3", False).lin[(1, 1)], want)


def clear_span_caches():
    # every per-process cache of the solver, so that a cache added later is
    # cleared too and the cold-cache tests below stay cold
    caches = {name: f for name, f in vars(solver).items() if hasattr(f, "cache_clear")}
    assert {"_slice_frame", "_permuted_frame", "_slice_null_dim", "_linear_blocks"} <= caches.keys()
    for cache in caches.values():
        cache.cache_clear()


def test_span_cases_share_the_cached_solves():
    # every duality orbit of the arity-2 slices is solved once: 20 ega, 56
    # cga and 35 pga null dimensions, each read by the 316 slices of the four
    # cases, the pga ones by pga with the join too.  Every frame is built
    # once: the 77 arity-1 blocks, the 111 sorted three-grade multisets
    # (output and inputs together) of the span builder and the null solves,
    # and the 13 pga orbit representatives that no sorted slice has.  The
    # builder reads one input order per arity-2 slice, the sorted one, from
    # 227 permuted multiset frames, which the join case reads again
    clear_span_caches()
    verify_conjecture(l_max=2)
    nulls, blocks = _slice_null_dim.cache_info(), _linear_blocks.cache_info()
    frames, permuted = _slice_frame.cache_info(), _permuted_frame.cache_info()
    assert (nulls.misses, nulls.hits) == (111, 205)
    assert (blocks.misses, blocks.hits) == (3, 1)
    assert (frames.misses, frames.hits) == (201, 214)
    assert (permuted.misses, permuted.hits) == (227, 75)


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
@pytest.mark.parametrize("group", ["e3", "se3"])
@pytest.mark.parametrize(
    "name, arity",
    [(name, arity) for arity in (1, 2) for name in ("ega", "pga", "cga")]
    + [("ega", 3), ("pga", 3)],
)
def test_duality_orbits_share_the_null_dim(name, arity, group):
    # every slice, inputs in any order, solved directly on its own frame,
    # against the null dimension of its duality orbit's representative
    # (_orbit_slice) and, from arity 2 on, against the one algebra_span_dim
    # reports for its sorted inputs
    alg = get_algebra(name)
    reported = {}
    if arity > 1:
        report = algebra_span_dim(alg, arity, group=group)
        reported = {(e.inputs, e.output): e.nullspace_dim for e in report.slices}
    grades = range(alg.n + 1)
    for ins in itertools.product(grades, repeat=arity):
        for out in grades:
            want = solve_multilinear_dim(alg, group, GradeSlice(ins, out))
            rep = _orbit_slice(alg, out, ins)
            assert _slice_null_dim(alg, group, *rep) == want, (ins, out, rep)
            assert reported.get((tuple(sorted(ins)), out), want) == want, (ins, out)


def test_orbit_representatives(ega, pga, cga):
    # ega and cga pair each grade with itself: the representative is the
    # sorted multiset of all the slice's grades, output first
    assert _orbit_slice(ega, 0, (2, 1)) == (0, (1, 2))
    assert _orbit_slice(cga, 4, (3, 5)) == (3, (4, 5))
    # pga pairs grade g with 4 - g: (1, 3) -> 2 has the multiset {2, 3, 1}
    # and its sorted representative (1, (1, 2)) -> {1, 3, 2}
    assert _orbit_slice(pga, 2, (1, 3)) == (1, (1, 2))
    # {3, 3, 3} has no sorted representative: the slice on its smallest grade
    assert _orbit_slice(pga, 3, (1, 1)) == (3, (1, 1))
    assert _orbit_slice(pga, 4, (4, 0, 1)) == (0, (0, 0, 1))


def all_orders_span_dims(builder, inputs):
    """builder.slice_span_dims(inputs) as the union over all k! input
    orders: the reference for the (k-1)! orders that start with input 0."""
    spans, rows = {}, {}
    for perm in itertools.permutations(range(len(inputs))):
        seq = tuple(inputs[p] for p in perm)
        if seq not in spans:
            spans[seq] = builder.reduced(seq)
        for go, (frame, coords) in spans[seq].items():
            order = _sorting_perm((go,) + inputs)
            want = (order[0],) + tuple(order[1 + p] for p in perm)
            if frame.perm != want:
                coords = builder._frame(go, seq, want).project(frame.lift(coords))
            rows.setdefault(go, []).append(coords)
    return {go: builder._reduce(r).shape[0] for go, r in rows.items()}


def multisets(name, arity):
    grades = range(get_algebra(name).n + 1)
    return list(itertools.combinations_with_replacement(grades, arity))


@pytest.mark.parametrize(
    "name, with_join, slices",
    [
        ("ega", False, multisets("ega", 2)),
        ("cga", False, multisets("cga", 2)),
        ("pga", False, multisets("pga", 2)),
        ("pga", True, multisets("pga", 2)),
        ("ega", False, multisets("ega", 3)),
        ("pga", True, multisets("pga", 3)),
        # repeated grades: some orders are lifted and projected into the
        # sorted slice's frame
        ("cga", False, [(1, 1, 2), (1, 2, 3), (2, 2, 2)]),
    ],
    ids=["ega-2", "cga-2", "pga-2", "pga-join-2", "ega-3", "pga-join-3", "cga-3"],
)
def test_orders_from_the_first_input_span_all_orders(name, with_join, slices):
    builder = _SpanBuilder(get_algebra(name), "se3", with_join)
    for ms in slices:
        assert builder.slice_span_dims(ms) == all_orders_span_dims(builder, ms), ms


@pytest.mark.parametrize("group, dim", [("e3", 16), ("se3", 30)])
def test_standalone_solve_does_not_depend_on_cache_state(cga, group, dim):
    # a slices-l3 benchmark slice: the cold solve builds the slice's frame,
    # the warm one reads it from the cache.  e3 as in null_dims_e3.json,
    # se3 as the dense solve in perfbench/reference_slices.json
    gs = GradeSlice((1, 2, 2), 2)
    clear_span_caches()
    cold = solve_multilinear_dim(cga, group, gs)
    warm = solve_multilinear_dim(cga, group, gs)
    info = _slice_frame.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold == warm == dim


def test_join_case_does_not_depend_on_cache_state():
    clear_span_caches()
    cold = algebra_span_dim("pga", 2, with_join=True).to_dict()
    clear_span_caches()
    algebra_span_dim("pga", 2)
    warm = algebra_span_dim("pga", 2, with_join=True).to_dict()
    assert cold == warm
    with open(GOLDEN_DIR / "verify_l2_se3.json") as fh:
        golden = [r for r in json.load(fh) if (r["algebra"], r["with_join"]) == ("pga", True)]
    assert cold == {**golden[0], "expectation": None, "passed": None}


@pytest.mark.parametrize("group", ["e3", "se3"])
def test_reduced_linear_blocks_match_the_dense_solve(any_algebra, group):
    # per grade block, the kernel of the dense constraint stack under the
    # same merged rank cut
    alg = any_algebra
    svds, spectrum = _linear_slice_svds(alg, group)
    smallest_kept = spectrum[np.count_nonzero(spectrum > 1e-10 * spectrum[0]) - 1]
    maps = solve_linear_basis(alg, group).maps
    for (go, gi), (s, vt) in svds.items():
        dense = vt[np.count_nonzero(s >= smallest_kept) :]
        block = np.ix_(alg.grade_indices(go), alg.grade_indices(gi))
        reduced = [m[block].ravel() for m in maps if m[block].any()]
        assert len(reduced) == len(dense), (go, gi)
        if reduced:
            assert subspace_distance(np.array(reduced), dense) < 1e-12, (go, gi)


# -- span construction and the conjecture -------------------------------------------


@pytest.fixture(scope="module")
def span_reports(verify_l2_reports):
    # the four arity-2 se3 reports, keyed by (algebra, join)
    return {(r.algebra, r.with_join): r for r in verify_l2_reports}


def test_span_never_exceeds_nullspace(span_reports):
    for rep in span_reports.values():
        for s in rep.slices:
            assert s.span_dim <= s.nullspace_dim, (rep.algebra, rep.with_join, s)


def test_span_equality_cases(span_reports):
    for key in (("ega", False), ("cga", False), ("pga", True)):
        rep = span_reports[key]
        assert rep.span_dim == rep.nullspace_dim, key
        assert rep.all_equal()


def test_pga_without_join_has_gap(span_reports):
    rep = span_reports[("pga", False)]
    assert rep.span_dim < rep.nullspace_dim
    assert rep.has_gap()
    gap_slices = [
        (s.inputs, s.output)
        for s in rep.slices
        if s.span_dim < s.nullspace_dim
    ]
    # the unreachable directions involve grade-2/3 inputs, where the join
    # produces maps the geometric product alone cannot
    assert gap_slices == [
        ((2, 2), 1),
        ((2, 3), 1),
        ((2, 3), 2),
        ((3, 3), 2),
    ]


def test_join_never_shrinks_any_slice(span_reports):
    plain = {(s.inputs, s.output): s.span_dim for s in span_reports[("pga", False)].slices}
    joined = {(s.inputs, s.output): s.span_dim for s in span_reports[("pga", True)].slices}
    assert plain.keys() == joined.keys()
    for key, dim in plain.items():
        assert joined[key] >= dim


def test_span_dims_frozen(span_reports):
    got = {
        key: (rep.span_dim, rep.nullspace_dim)
        for key, rep in span_reports.items()
    }
    assert got == {
        ("ega", False): (26, 26),
        ("pga", False): (69, 73),
        ("pga", True): (73, 73),
        ("cga", False): (340, 340),
    }


@pytest.mark.filterwarnings("error::gaeq.solver.RankAmbiguityWarning")
def test_e3_span_within_e3_and_se3_null_spaces(span_reports):
    # the full group keeps no more maps on any slice: its span stays inside
    # its own null space, which stays inside the se3 one
    got = {}
    for name in ("ega", "pga", "cga"):
        rep = algebra_span_dim(name, 2, group="e3")
        se3 = {(s.inputs, s.output): s.nullspace_dim for s in span_reports[(name, False)].slices}
        assert [(s.inputs, s.output) for s in rep.slices] == list(se3)
        for s in rep.slices:
            assert s.span_dim <= s.nullspace_dim <= se3[(s.inputs, s.output)], (name, s)
        gaps = [(s.inputs, s.output) for s in rep.slices if s.span_dim < s.nullspace_dim]
        got[name] = rep.span_dim, rep.nullspace_dim, gaps
    assert got == {
        "ega": (13, 13, []),
        "pga": (34, 37, [((3, 4), 0), ((4, 4), 0), ((4, 4), 1)]),
        "cga": (170, 170, []),
    }


def test_span_rejects_bad_requests(ega, pga):
    with pytest.raises(ValueError):
        algebra_span_dim(ega, 2, with_join=True)
    with pytest.raises(ValueError):
        algebra_span_dim(pga, 2, with_join=True, group="e3")
    with pytest.raises(ValueError):
        algebra_span_dim(ega, 5)


def test_verify_conjecture_default_gate(verify_l2_reports):
    reports = verify_l2_reports
    cases = {(r.algebra, r.with_join): r for r in reports}
    assert set(cases) == {
        ("ega", False),
        ("cga", False),
        ("pga", False),
        ("pga", True),
    }
    assert all(r.passed for r in reports)
    assert cases[("pga", False)].expectation == "gap"
    # the projective algebra without the join is the only strict inequality
    unequal = [k for k, r in cases.items() if r.span_dim != r.nullspace_dim]
    assert unequal == [("pga", False)]


def test_verify_conjecture_includes_ega_l3():
    reports = verify_conjecture(l_max=3)
    l3 = [r for r in reports if r.l == 3]
    assert [(r.algebra, r.with_join) for r in l3] == [("ega", False)]
    assert l3[0].span_dim == l3[0].nullspace_dim == 76
    assert l3[0].passed


def test_verify_conjecture_l4_needs_long_flag():
    with pytest.raises(ValueError):
        verify_conjecture(l_max=4)


def test_span_report_roundtrips_to_dict(span_reports):
    d = span_reports[("ega", False)].to_dict()
    assert d["span_dim"] == 26
    assert d["slices"][0].keys() == {
        "inputs",
        "output",
        "span_dim",
        "nullspace_dim",
        "skipped",
    }
    json.dumps(d)


# -- invariance of equivariant pairings ---------------------------------------------


def test_pga_pairings_are_constant(pga, rng):
    """Inner products of equivariantly mapped embedded points depend on
    neither point: the pairing collapses to a constant."""
    basis = solve_linear_basis(pga, "se3")
    for _ in range(10):
        ca = rng.standard_normal(basis.dim)
        cb = rng.standard_normal(basis.dim)
        phi = np.tensordot(ca, basis.maps, axes=1)
        psi = np.tensordot(cb, basis.maps, axes=1)
        values = []
        for _ in range(100):
            x = embed_point_pga(rng.uniform(-5.0, 5.0, 3))
            y = embed_point_pga(rng.uniform(-5.0, 5.0, 3))
            values.append(inner(pga, phi @ x, psi @ y))
        assert np.var(values) < 1e-18


# -- golden regression fixtures -----------------------------------------------------


@pytest.mark.parametrize("name", ["ega", "pga", "cga"])
def test_solved_basis_matches_golden(name):
    with open(GOLDEN_DIR / f"linear_basis_{name}_e3.json") as fh:
        payload = json.load(fh)
    golden = np.array(payload["maps"])
    basis = solve_linear_basis(name, "e3")
    assert basis.dim == payload["dim"]
    assert subspace_distance(basis, golden) < 1e-8
