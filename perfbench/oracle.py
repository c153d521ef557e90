"""Swap-counting reference for the geometric product and the join.

Written from the blade definition alone, with no table taken from gaeq.
A basis blade is a bitmask over the generators, generators kept in
ascending order.  Multiplying two blades concatenates their generator
lists; every pair (i from the left blade, j from the right blade) with
i > j has to be swapped once to sort the list, and every generator present
in both blades contracts to its square.

The join is the regressive product through right complements:
rc(e_a) = s_a e_~a with s_a chosen so that e_a ^ rc(e_a) is the positively
oriented pseudoscalar, and join(x, y) = rc^-1(rc(x) ^ rc(y)).
"""

import numpy as np

# generator squares in gaeq's documented generator order
SQUARES = {
    "ega": (1, 1, 1),  # e1 e2 e3
    "pga": (0, 1, 1, 1),  # e0 e1 e2 e3
    "cga": (1, 1, 1, 1, -1),  # e1 e2 e3 e+ e-
}


def _bits(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def _swaps(a, b, n):
    """Transpositions needed to sort the generators of a followed by b."""
    right = _bits(b, n)
    return sum(1 for i in _bits(a, n) for j in right if i > j)


def blade_product(a, b, squares):
    """(sign, mask) of the geometric product of blades a and b."""
    n = len(squares)
    sign = -1 if _swaps(a, b, n) % 2 else 1
    for i in _bits(a & b, n):
        sign *= squares[i]
    return sign, a ^ b


def blade_wedge(a, b, n):
    """(sign, mask) of the outer product of blades a and b; sign 0 if they share a generator."""
    if a & b:
        return 0, 0
    return (-1 if _swaps(a, b, n) % 2 else 1), a | b


def _complement_sign(a, n):
    full = (1 << n) - 1
    sign, _ = blade_wedge(a, full ^ a, n)
    return sign  # e_a ^ (sign e_~a) = +pseudoscalar since sign**2 = 1


def blade_join(a, b, n):
    """(sign, mask) of the join of blades a and b."""
    full = (1 << n) - 1
    ac, bc = full ^ a, full ^ b
    sign, c = blade_wedge(ac, bc, n)
    if sign == 0:
        return 0, 0
    sign *= _complement_sign(a, n) * _complement_sign(b, n)
    # rc(e_d) = s_d e_c with d = ~c, so rc^-1(e_c) = s_d e_d
    d = full ^ c
    return sign * _complement_sign(d, n), d


class Oracle:
    """Blade-by-blade bilinear products for one algebra."""

    def __init__(self, name):
        self.squares = SQUARES[name]
        n = len(self.squares)
        self.size = 1 << n
        self._gp = self._table(lambda a, b: blade_product(a, b, self.squares))
        self._join = self._table(lambda a, b: blade_join(a, b, n))

    def _table(self, rule):
        terms = []
        for a in range(self.size):
            for b in range(self.size):
                sign, mask = rule(a, b)
                if sign:
                    terms.append((a, b, mask, float(sign)))
        return terms

    @staticmethod
    def _apply(terms, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.zeros(x.shape)
        for a, b, k, s in terms:
            out[..., k] += s * x[..., a] * y[..., b]
        return out

    def geometric_product(self, x, y):
        return self._apply(self._gp, x, y)

    def join(self, x, y):
        return self._apply(self._join, x, y)


def relative_error(got, want):
    """max |got - want| over max |want| (absolute when want is zero)."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = np.abs(want).max() if want.size else 0.0
    err = np.abs(got - want).max() if want.size else 0.0
    return float(err / scale) if scale > 0 else float(err)
