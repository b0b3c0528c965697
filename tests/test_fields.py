import re
import time
from fractions import Fraction

import pytest

from ncquadric import DivisionByZero, Field, FieldMismatch, Polynomial, \
    parse_field_spec, roots_in_field
from ncquadric.fields import parse_int_poly


@pytest.fixture(scope="module")
def Q():
    return Field.rationals()


@pytest.fixture(scope="module")
def Qi():
    return Field.gaussian()


@pytest.fixture(scope="module")
def Qsqrt2():
    return Field.extension((-2, 0, 1))  # t^2 - 2


def test_describe(Q, Qi, Qsqrt2):
    assert Q.describe() == "Q"
    assert Qi.describe() == "Q(i)"
    assert Qsqrt2.describe() == "Q[t]/(t^2-2)"


def test_basic_arithmetic(Qi):
    i = Qi.generator()
    one = Qi.one
    assert i * i == -one
    a = Qi.element((Fraction(1, 2), Fraction(-1, 2)))
    assert str(a) == "1/2-1/2*i"
    assert str(i / Qi.from_rational(2)) == "1/2*i"
    assert str(-Qi.from_rational(Fraction(3, 2))) == "-3/2"
    assert a * a.inverse() == one
    assert (a + a) - a == a
    assert a ** 3 == a * a * a
    assert bool(Qi.zero) is False


def test_division_by_zero(Q):
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero
    with pytest.raises(DivisionByZero):
        Q.zero.inverse()


def test_field_mismatch(Q, Qi):
    with pytest.raises(FieldMismatch):
        Q.one + Qi.one


def test_extension_arithmetic(Qsqrt2):
    t = Qsqrt2.generator()
    assert t * t == Qsqrt2.from_rational(2)
    assert str(-t) == "-t"
    inv = t.inverse()
    assert inv * t == Qsqrt2.one
    assert str(inv) == "1/2*t"


def test_extension_rejects_reducible():
    with pytest.raises(ValueError):
        Field.extension((-1, 0, 1))  # t^2 - 1 factors


@pytest.mark.parametrize("modulus, factor", [
    ((2, 0, 3, 0, 1), "t^2+1"),             # (t^2+1)(t^2+2)
    ((4, 0, 0, 0, 1), "t^2-2*t+2"),         # (t^2-2t+2)(t^2+2t+2)
    ((2, 0, 2, 1, 0, 1), "t^2+1"),          # (t^2+1)(t^3+2)
    ((-2, -2, -2, 1, 1, 1), "t^2+t+1"),     # (t^2+t+1)(t^3-2)
])
def test_extension_rejects_quadratic_factors(modulus, factor):
    with pytest.raises(ValueError, match=rf"quadratic factor {re.escape(factor)}\)$"):
        Field.extension(modulus)


@pytest.mark.parametrize("modulus", [
    (1, 0, 0, 0, 1),              # t^4+1
    (1, 0, -10, 0, 1),            # t^4-10t^2+1, the minimal polynomial of sqrt2+sqrt3
    (-2, 0, 0, 0, 0, 1),          # t^5-2
    (-1, -1, 0, 0, 0, 1),         # t^5-t-1
])
def test_extension_accepts_irreducible_quartics_and_quintics(modulus):
    assert Field.extension(modulus).degree == len(modulus) - 1


def test_polynomial_ops(Q):
    p = Polynomial.from_ints(Q, [-2, 0, 1])  # t^2 - 2
    q = Polynomial.from_ints(Q, [-1, 1])     # t - 1
    assert p.degree == 2
    assert str(p) == "t^2-2"
    assert str(p * q) == "t^3-t^2-2*t+2"
    quo, rem = (p * q).divmod(p)
    assert quo == q and not rem
    assert p.derivative() == Polynomial.from_ints(Q, [0, 2])
    cube = q * q * q
    assert cube.squarefree_part() == q
    assert (p * q).gcd(q) == q
    x = Q.from_rational(3)
    assert p(x) == Q.from_rational(7)


def test_zero_polynomial(Q):
    z = Polynomial(Q, ())
    assert z.degree == -1
    assert str(z) == "0"
    with pytest.raises(DivisionByZero):
        Polynomial.from_ints(Q, [1]).divmod(z)


def test_rational_roots(Q):
    # (t - 2)(2t + 1)(t^2 + 1): rational roots 2 and -1/2 only
    p = Polynomial.from_ints(Q, [-2, 1]) * Polynomial.from_ints(Q, [1, 2]) \
        * Polynomial.from_ints(Q, [1, 0, 1])
    rs = roots_in_field(p)
    assert sorted(r.coords[0] for r in rs) == [Fraction(-1, 2), 2]


def test_gaussian_roots(Qi):
    p = Polynomial.from_ints(Qi, [1, 0, 1])  # t^2 + 1
    vals = sorted(str(r) for r in roots_in_field(p))
    assert vals == ["-i", "i"]


def test_extension_quadratic_decided(Qsqrt2):
    # t^2 - 2 has both roots in Q[t]/(t^2-2)
    p = Polynomial.from_ints(Qsqrt2, [-2, 0, 1])
    assert sorted(str(r) for r in roots_in_field(p)) == ["-t", "t"]
    # t^2 - 3 has none
    assert roots_in_field(Polynomial.from_ints(Qsqrt2, [-3, 0, 1])) == ()


def test_even_quartic_extension_is_honest():
    # in Q[t]/(t^4 - 2) the element t^2 is a square root of 2, though 2 is
    # not a square in Q: the norm route finds both roots
    F = Field.extension((-2, 0, 0, 0, 1))
    p = Polynomial.from_ints(F, [-2, 0, 1])
    assert [str(r) for r in roots_in_field(p)] == ["-t^2", "t^2"]


def test_odd_extension_decides_rational_disc():
    # no quadratic subfield in a cubic extension:
    # t^2 - 5 can have no roots in Q[t]/(t^3 - 2)
    F = Field.extension((-2, 0, 0, 1))
    assert roots_in_field(Polynomial.from_ints(F, [-5, 0, 1])) == ()


def test_parse_field_spec():
    assert parse_field_spec("Q").describe() == "Q"
    assert parse_field_spec("Q(i)").describe() == "Q(i)"
    f = parse_field_spec("Q[t]/(t^2-2)")
    assert f.describe() == "Q[t]/(t^2-2)"
    with pytest.raises(Exception):
        parse_field_spec("R")


def test_parse_int_poly():
    assert parse_int_poly("t^2-2") == (-2, 0, 1)
    assert parse_int_poly("t^3+t-1") == (-1, 1, 0, 1)


def roots_coords(p):
    return [r.coords for r in roots_in_field(p)]


def test_quadratic_extension_square_root_with_a_t_part():
    # (1 + t)^2 = 3 + 2t in Q[t]/(t^2 - 2)
    F = Field.extension((-2, 0, 1))
    p = Polynomial(F, [-F.element((3, 2)), F.zero, F.one])
    assert roots_coords(p) == [(-1, -1), (1, 1)]


def test_quadratic_extension_product_of_linear_factors():
    # (x - (1 + 2t))(x - (3 - t)) over Q[t]/(t^2 + t + 1)
    F = Field.extension((1, 1, 1))
    r1, r2 = F.element((1, 2)), F.element((3, -1))
    p = Polynomial(F, [-r1, F.one]) * Polynomial(F, [-r2, F.one])
    assert roots_coords(p) == [r1.coords, r2.coords]


def test_quadratic_extension_non_square_with_a_t_part():
    # 1 + t is not a square in Q[t]/(t^2 + t + 1)
    F = Field.extension((1, 1, 1))
    p = Polynomial(F, [-F.element((1, 1)), F.zero, F.one])
    assert roots_coords(p) == []


@pytest.mark.parametrize("modulus", [
    (10 ** 13 + 37, 0, 0, 0, 1),
    (99999999999999999989, 0, 0, 0, 1),
])
def test_large_constant_terms_parse(modulus):
    assert Field.extension(modulus).degree == 4


def test_large_quadratic_factor_is_found():
    p, q = 10000000019, 10000000033
    with pytest.raises(ValueError, match=r"quadratic factor t\^2\+10000000019\)$"):
        Field.extension((p * q, 0, p + q, 0, 1))


def test_modulus_with_a_large_composite_constant_parses_quickly():
    # the constant term (2^31-1)(2^61-1) has 28 digits
    start = time.perf_counter()
    F = Field.extension(((2 ** 31 - 1) * (2 ** 61 - 1), 0, 0, 0, 1))
    assert time.perf_counter() - start < 1.0
    assert F.degree == 4


@pytest.mark.parametrize("modulus, message", [
    ((1, 0, 2, 0, 1), "a quadratic factor t^2+1"),  # (t^2+1)^2
    ((0, 0, 1), "a rational root"),                 # t^2
])
def test_non_squarefree_modulus_names_its_factor(modulus, message):
    with pytest.raises(ValueError, match=re.escape(f"(has {message})")):
        Field.extension(modulus)
