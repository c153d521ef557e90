"""The swap-counting oracle reproduces products worked out by hand."""

import numpy as np
import pytest

from oracle import SQUARES, Oracle, blade_join, blade_product, relative_error

# bitmasks in generator order: ega e1=1 e2=2 e3=4; pga e0=1 e1=2 e2=4 e3=8;
# cga e1=1 e2=2 e3=4 e+=8 e-=16


def blade(size, mask, coeff=1.0):
    out = np.zeros(size)
    out[mask] = coeff
    return out


@pytest.mark.parametrize(
    "name, a, b, sign, mask",
    [
        ("ega", 0b001, 0b010, 1, 0b011),  # e1 e2 = e12
        ("ega", 0b010, 0b001, -1, 0b011),  # e2 e1 = -e12
        ("ega", 0b110, 0b011, -1, 0b101),  # e23 e12 = -e13
        ("ega", 0b111, 0b111, -1, 0b000),  # e123 e123 = -1
        ("pga", 0b0001, 0b0001, 0, 0b0000),  # e0 e0 = 0
        ("pga", 0b0011, 0b0010, 1, 0b0001),  # e01 e1 = e0
        ("pga", 0b1110, 0b1110, -1, 0b0000),  # e123 e123 = -1
        ("cga", 0b01000, 0b01000, 1, 0b00000),  # e+ e+ = 1
        ("cga", 0b10000, 0b10000, -1, 0b00000),  # e- e- = -1
        ("cga", 0b11000, 0b11000, 1, 0b00000),  # e+- e+- = 1
    ],
)
def test_known_blade_products(name, a, b, sign, mask):
    got_sign, got_mask = blade_product(a, b, SQUARES[name])
    assert got_sign == sign
    if sign:
        assert got_mask == mask


def test_conformal_null_frame():
    o = Oracle("cga")
    inf = blade(32, 0b10000) - blade(32, 0b01000)  # e- - e+
    origin = 0.5 * (blade(32, 0b10000) + blade(32, 0b01000))
    assert np.allclose(o.geometric_product(inf, inf), 0.0)
    assert np.allclose(o.geometric_product(origin, origin), 0.0)
    # <inf, o> = -1 is the scalar part of the symmetrised product
    sym = 0.5 * (o.geometric_product(inf, origin) + o.geometric_product(origin, inf))
    assert np.allclose(sym, blade(32, 0, -1.0))


def test_projective_join():
    o = Oracle("pga")
    pseudo = blade(16, 0b1111)
    rng = np.random.default_rng(3)
    x = rng.normal(size=16)
    # the pseudoscalar is the unit of the join
    assert np.allclose(o.join(pseudo, x), x)
    assert np.allclose(o.join(x, pseudo), x)
    # two disjoint-complement blades join to their common part: e012 v e013 -> e01 up to sign
    sign, mask = blade_join(0b0111, 0b1011, 4)
    assert mask == 0b0011 and sign in (1, -1)
    # blades whose complements overlap have no join
    assert blade_join(0b0001, 0b0001, 4)[0] == 0


def test_product_is_associative():
    rng = np.random.default_rng(5)
    for name, size in (("ega", 8), ("pga", 16), ("cga", 32)):
        o = Oracle(name)
        x, y, z = rng.normal(size=(3, 4, size))
        left = o.geometric_product(o.geometric_product(x, y), z)
        right = o.geometric_product(x, o.geometric_product(y, z))
        assert relative_error(left, right) < 1e-13


def test_relative_error():
    assert relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert relative_error([1.0, 2.5], [1.0, 2.0]) == pytest.approx(0.25)
    assert relative_error([0.5], [0.0]) == 0.5
