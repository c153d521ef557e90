"""Independent reference implementations used to check the package.

Everything in this file is deliberately written with different algorithms
than the library: blade products by explicit list sorting instead of bit
twiddling, exponentials in closed form instead of Taylor series, rotations
as 3x3 matrices, reflections via the Householder formula.  Agreement between
the two code paths is what the tests certify.
"""

import math

import numpy as np

# Per-generator squares for the three supported algebras, in the same
# generator order the library uses (documented in gaeq.algebra).
GENERATOR_SQUARES = {
    "ega": (1, 1, 1),
    "pga": (0, 1, 1, 1),
    "cga": (1, 1, 1, 1, -1),
}


def brute_blade_product(gens_a, gens_b, squares):
    """Multiply two basis blades given as tuples of generator positions.

    Returns (sign, gens_out) where gens_out is a sorted tuple.  The sign is
    found by concatenating the generator lists and bubble-sorting, counting
    one sign flip per transposition, then cancelling equal neighbours
    against their metric square.
    """
    seq = list(gens_a) + list(gens_b)
    sign = 1
    # bubble sort, one swap at a time
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
    # cancel adjacent duplicates against the metric
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == seq[i + 1]:
            sign *= squares[seq[i]]
            i += 2
        else:
            out.append(seq[i])
            i += 1
    if sign == 0:
        return 0, ()
    return sign, tuple(out)


def brute_multivector_product(x, y, squares):
    """Geometric product of two coefficient arrays, blade by blade.

    Blade index convention matches the library: bit i of the index set means
    generator i is present, coefficients are indexed by that bitmask.
    """
    n = len(squares)
    size = 1 << n
    out = np.zeros(size)
    for a in range(size):
        if x[a] == 0.0:
            continue
        gens_a = tuple(i for i in range(n) if a >> i & 1)
        for b in range(size):
            if y[b] == 0.0:
                continue
            gens_b = tuple(i for i in range(n) if b >> i & 1)
            sign, gens_out = brute_blade_product(gens_a, gens_b, squares)
            if sign == 0:
                continue
            mask = 0
            for g in gens_out:
                mask |= 1 << g
            out[mask] += sign * x[a] * y[b]
    return out


def _generators(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def _mask(gens):
    return sum(1 << g for g in gens)


def brute_wedge(x, y, squares):
    """Outer product: the blade products of every pair sharing no generator."""
    n = len(squares)
    out = np.zeros(1 << n)
    for a in range(1 << n):
        gens_a = _generators(a, n)
        for b in range(1 << n):
            gens_b = _generators(b, n)
            if set(gens_a) & set(gens_b):
                continue
            sign, gens_out = brute_blade_product(gens_a, gens_b, squares)
            out[_mask(gens_out)] += sign * x[a] * y[b]
    return out


def _right_complement(x, n, inverse=False):
    """rc(e_a) = s e_rest, s chosen so that e_a ^ rc(e_a) is the pseudoscalar.

    With inverse, maps e_rest back to s e_a (s is a sign, so 1/s = s).
    """
    out = np.zeros_like(x)
    for a in range(1 << n):
        gens = _generators(a, n)
        rest = tuple(i for i in range(n) if i not in gens)
        sign, _ = brute_blade_product(gens, rest, (1,) * n)
        if inverse:
            out[a] += sign * x[_mask(rest)]
        else:
            out[_mask(rest)] += sign * x[a]
    return out


def brute_join(x, y, squares):
    """Regressive product rc^-1(rc(x) ^ rc(y)) through right complements."""
    n = len(squares)
    return _right_complement(
        brute_wedge(_right_complement(x, n), _right_complement(y, n), squares), n, inverse=True
    )


def rotor_exp(angle_times_bivector_coeff, bivector_square):
    """Closed-form exp(c * B) for a blade B with B*B = s, s in {-1, 0, +1}.

    Returns (scalar_part, bivector_coefficient).
    """
    c = angle_times_bivector_coeff
    s = bivector_square
    if s == -1:
        return math.cos(c), math.sin(c)
    if s == 0:
        return 1.0, c
    if s == 1:
        return math.cosh(c), math.sinh(c)
    raise ValueError(s)


def expm_taylor(m, tol=1e-12):
    """Matrix exponential by scaling and squaring with a Taylor core."""
    norm = np.linalg.norm(m, ord=np.inf)
    k = max(0, int(math.ceil(math.log2(max(norm, tol) / 0.25)))) if norm > 0.25 else 0
    a = m / (2.0 ** k)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for n in range(1, 60):
        term = term @ a / n
        result = result + term
        if np.abs(term).max() < tol:
            break
    for _ in range(k):
        result = result @ result
    return result


def rotation_matrix(axis, angle):
    """3x3 rotation about a unit axis by angle, right handed (Rodrigues)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def reflect_point(p, normal, offset):
    """Reflect p in the plane {x : normal . x = offset}, unit normal."""
    p = np.asarray(p, dtype=float)
    normal = np.asarray(normal, dtype=float)
    return p - 2.0 * (p @ normal - offset) * normal


def reflect_direction(v, normal):
    """Reflect a direction vector in the plane with the given unit normal."""
    v = np.asarray(v, dtype=float)
    normal = np.asarray(normal, dtype=float)
    return v - 2.0 * (v @ normal) * normal
