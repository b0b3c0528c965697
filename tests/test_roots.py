"""The factoriser over Z and the root finder built on it."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ncquadric import Field, Polynomial, roots_in_field
from ncquadric.fields import _factor_squarefree

from helpers import brute_roots, to_pair


def int_product(*polys):
    out = [1]
    for p in polys:
        prod = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                prod[i + j] += a * b
        out = prod
    return out


CYCLOTOMIC = {
    1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1],
    6: [1, -1, 1], 8: [1, 0, 0, 0, 1], 12: [1, 0, -1, 0, 1],
    15: [1, -1, 0, 1, -1, 1, 0, -1, 1],
}
SWINNERTON_DYER_4 = [1, 0, -10, 0, 1]
SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


@pytest.mark.parametrize("factors", [
    [SWINNERTON_DYER_4],
    [SWINNERTON_DYER_8],
    [SWINNERTON_DYER_4, [-2, 0, 1], [-3, 0, 1]],
    [CYCLOTOMIC[d] for d in (1, 2, 3, 4, 6, 12)],   # x^12 - 1
    [CYCLOTOMIC[d] for d in (1, 3, 5, 15)],         # x^15 - 1
    [CYCLOTOMIC[8], CYCLOTOMIC[12], CYCLOTOMIC[5]],
    [[1, 2], [-2, 0, 3], [-1, -1, 0, 1], [0, 1]],    # non-monic, with x
    [[10000000019, 0, 1], [10000000033, 0, 1]],
    [[-7, 5]],
])
def test_factoriser_recovers_known_factorisations(factors):
    found = _factor_squarefree(int_product(*factors))
    assert sorted(found) == sorted(factors)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=4)
                .filter(lambda p: p[-1]), min_size=1, max_size=3))
def test_factoriser_agrees_with_brute_force_rational_roots(polys):
    sq = Polynomial.from_ints(Field.rationals(), int_product(*polys)) \
        .squarefree_part()
    coords = [c.coords[0] for c in sq.coeffs]
    den = lcm(*[c.denominator for c in coords])
    ints = [int(c * den) for c in coords]
    f = [c // gcd(*ints) for c in ints]
    found = _factor_squarefree(f)
    assert int_product(*found) == f
    assert all(g[-1] > 0 and gcd(*g) == 1 for g in found)
    # the linear factors give every rational root, so no other factor has one
    linear = sorted(Fraction(-g[0], g[1]) for g in found if len(g) == 2)
    oracle = brute_roots([(c, Fraction(0)) for c in f], gaussian=False)
    assert linear == [re for re, _ in oracle]


MODULI = {
    "Q": None,
    "Q(i)": None,
    "Q[t]/(t^2+t+1)": (1, 1, 1),
    "Q[t]/(t^3-2)": (-2, 0, 0, 1),
    "Q[t]/(t^4+1)": (1, 0, 0, 0, 1),
}


def make_field(name):
    if name == "Q":
        return Field.rationals()
    if name == "Q(i)":
        return Field.gaussian()
    return Field.extension(MODULI[name])


def elements(field, integral=False):
    den = st.just(1) if integral else st.integers(1, 2)
    coord = st.builds(Fraction, st.integers(-2, 2), den)
    return st.lists(coord, min_size=field.degree, max_size=field.degree) \
        .map(field.element)


@st.composite
def planted(draw, name):
    """A polynomial over the named field with planted roots and a random
    cofactor, which may have further roots."""
    field = make_field(name)
    small = name == "Q(i)"  # keep the brute-force oracle cheap
    roots = draw(st.lists(elements(field, integral=small), max_size=3))
    cofactor = draw(st.lists(elements(field, integral=small),
                             min_size=1, max_size=2))
    poly = Polynomial(field, cofactor + [field.one])
    for r in roots:
        poly = poly * Polynomial(field, [-r, field.one])
    return poly, roots


@pytest.mark.parametrize("name", list(MODULI))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_planted_roots_are_found(name, data):
    poly, roots = data.draw(planted(name))
    found = roots_in_field(poly)
    assert all(not poly(r) for r in found)
    assert set(roots) <= set(found)
    assert list(found) == sorted(set(found), key=lambda r: r.coords)
    if name in ("Q", "Q(i)"):
        oracle = brute_roots([to_pair(c) for c in poly.coeffs],
                             gaussian=name == "Q(i)")
        assert [to_pair(r) for r in found] == oracle
