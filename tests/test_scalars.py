"""The integer numerator / common denominator scalars against plain Fraction
coordinate arithmetic, with numerators well beyond 64 bits."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import fraction_add, fraction_inverse, fraction_mul

from ncquadric import Field, FieldMismatch

FIELDS = {
    "Q": Field.rationals(),
    "Q(i)": Field.gaussian(),
    "t^2-2": Field.extension((-2, 0, 1)),
    "t^2+t+1": Field.extension((1, 1, 1)),  # p1 != 0 in t^2 = p0 + p1 t
    "t^3-2": Field.extension((-2, 0, 0, 1)),
    "t^4-10t^2+1": Field.extension((1, 0, -10, 0, 1)),
}

numerators = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
denominators = st.one_of(st.integers(1, 4), st.integers(1, 2 ** 66))
rationals = st.builds(Fraction, numerators, denominators)


def canonical(x):
    return (len(x.num) == x.field.degree
            and all(type(a) is int for a in x.num + (x.den,))
            and x.den > 0 and gcd(x.den, *x.num) == 1
            and (any(x.num) or x.den == 1))


def draw_pair(name, data):
    """The field called name and two elements of it drawn from data."""
    field = FIELDS[name]
    coords = st.tuples(*[rationals] * field.degree)
    return (field, field.element(data.draw(coords)),
            field.element(data.draw(coords)))


FIELD_NAMES = sorted(FIELDS)


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_operations_match_fraction_coordinates(name, data):
    field, a, b = draw_pair(name, data)
    ca, cb = a.coords, b.coords
    neg_b = tuple(-y for y in cb)
    results = {
        "+": (a + b, fraction_add(ca, cb)),
        "-": (a - b, fraction_add(ca, neg_b)),
        "neg": (-b, neg_b),
        "*": (a * b, fraction_mul(field, ca, cb)),
        "**3": (a ** 3, fraction_mul(field, ca, fraction_mul(field, ca, ca))),
    }
    for op, (got, want) in results.items():
        assert got.coords == want, op
        assert canonical(got), op
    assert a.coords == tuple(Fraction(n, a.den) for n in a.num)


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_products_by_computed_units_match_fraction_coordinates(name, data):
    # 1 and -1 built by arithmetic, not the field.one singleton, as the
    # engine meets them; a product by 1 is the other factor itself
    field, a, b = draw_pair(name, data)
    if not b:
        return
    one = b * b.inverse()
    assert one is not field.one
    for unit in (one, -one):
        for got, want in (
                (a * unit, fraction_mul(field, a.coords, unit.coords)),
                (unit * a, fraction_mul(field, unit.coords, a.coords))):
            assert got.coords == want
            assert canonical(got)
    assert a * one is a and a * 1 is a
    assert one * a is (one if a == one else a)  # 1 * 1 keeps the left 1


def test_a_product_by_one_keeps_the_field_object_of_the_left_factor():
    # two equal but distinct field objects: a product carries the left
    # factor's field object, by 1 as by any other factor
    f, g = Field.gaussian(), Field.gaussian()
    a = g.element((Fraction(2, 3), Fraction(-5)))
    assert (f.one * a).field is f
    assert (a * f.one).field is g
    assert f.one * a == a


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_division_matches_fraction_coordinates(name, data):
    field, a, b = draw_pair(name, data)
    one = (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    if not b:
        return
    inv = b.inverse()
    assert canonical(inv)
    assert fraction_mul(field, b.coords, inv.coords) == one
    quo = a / b
    assert canonical(quo)
    assert fraction_mul(field, quo.coords, b.coords) == a.coords
    assert (b ** -2).coords == fraction_mul(field, inv.coords, inv.coords)


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_scalars_have_equal_hashes(name, data):
    field, a, b = draw_pair(name, data)
    same = (a + b) - b
    assert same == a and hash(same) == hash(a)
    assert (same.num, same.den) == (a.num, a.den)
    zero = a - a
    assert zero == field.zero and hash(zero) == hash(field.zero)
    assert (zero.num, zero.den) == ((0,) * field.degree, 1)
    assert not zero and (bool(a) == any(a.coords))


def test_mixing_fields_raises():
    values = [f.one + f.one for f in FIELDS.values()]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            if i == j:
                continue
            for op in (lambda p, q: p + q, lambda p, q: p - q,
                       lambda p, q: p * q, lambda p, q: p / q):
                with pytest.raises(FieldMismatch):
                    op(x, y)
            assert x != y


INVERSE_FIELDS = {
    "t^3-2": Field.extension((-2, 0, 0, 1)),
    "t^4+1": Field.extension((1, 0, 0, 0, 1)),
    "t^4-10t^2+1": Field.extension((1, 0, -10, 0, 1)),
    "t^6-2": Field.extension((-2, 0, 0, 0, 0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(INVERSE_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_matches_the_fraction_euclid(name, data):
    # fields of degree >= 3 invert by an integer linear solve; the
    # reference is the extended Euclid on Fraction coefficient lists
    field = INVERSE_FIELDS[name]
    a = field.element(data.draw(st.tuples(*[rationals] * field.degree)))
    if not a:
        return
    inv = a.inverse()
    assert a * inv == field.one
    assert canonical(inv)
    assert inv.coords == fraction_inverse(field, a.coords)
