import re
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
    assert Field.extension(modulus).modulus_verified


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
    assert rs.complete
    assert sorted(r.coords[0] for r in rs.roots) == [Fraction(-1, 2), 2]


def test_gaussian_roots(Qi):
    p = Polynomial.from_ints(Qi, [1, 0, 1])  # t^2 + 1
    rs = roots_in_field(p)
    assert rs.complete
    vals = sorted(str(r) for r in rs.roots)
    assert vals == ["-i", "i"]


def test_extension_quadratic_decided(Qsqrt2):
    # t^2 - 2 has both roots in Q[t]/(t^2-2)
    p = Polynomial.from_ints(Qsqrt2, [-2, 0, 1])
    rs = roots_in_field(p)
    assert rs.complete
    assert sorted(str(r) for r in rs.roots) == ["-t", "t"]
    # t^2 - 3 has none, and the degree-2 norm solve certifies that
    q = Polynomial.from_ints(Qsqrt2, [-3, 0, 1])
    rs2 = roots_in_field(q)
    assert rs2.complete and rs2.roots == ()


def test_even_quartic_extension_is_honest():
    # in Q[t]/(t^4 - 2) the element t^2 is a square root of sqrt(2)'s
    # square; a rational non-square discriminant must stay undecided
    F = Field.extension((-2, 0, 0, 0, 1))
    p = Polynomial.from_ints(F, [-2, 0, 1])  # roots t^2 and -t^2 exist
    rs = roots_in_field(p)
    # the search cannot see those roots, so it must not claim completeness
    assert not rs.complete
    assert rs.roots == ()


def test_odd_extension_decides_rational_disc():
    # no quadratic subfield in a cubic extension:
    # t^2 - 5 can have no roots in Q[t]/(t^3 - 2)
    F = Field.extension((-2, 0, 0, 1))
    rs = roots_in_field(Polynomial.from_ints(F, [-5, 0, 1]))
    assert rs.complete and rs.roots == ()


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
    rs = roots_in_field(p)
    return rs.complete, [r.coords for r in rs.roots]


def test_quadratic_extension_square_root_with_a_t_part():
    # (1 + t)^2 = 3 + 2t in Q[t]/(t^2 - 2)
    F = Field.extension((-2, 0, 1))
    p = Polynomial(F, [-F.element((3, 2)), F.zero, F.one])
    assert roots_coords(p) == (True, [(-1, -1), (1, 1)])


def test_quadratic_extension_product_of_linear_factors():
    # (x - (1 + 2t))(x - (3 - t)) over Q[t]/(t^2 + t + 1)
    F = Field.extension((1, 1, 1))
    r1, r2 = F.element((1, 2)), F.element((3, -1))
    p = Polynomial(F, [-r1, F.one]) * Polynomial(F, [-r2, F.one])
    assert roots_coords(p) == (True, [r1.coords, r2.coords])


def test_quadratic_extension_non_square_with_a_t_part():
    # 1 + t is not a square in Q[t]/(t^2 + t + 1)
    F = Field.extension((1, 1, 1))
    p = Polynomial(F, [-F.element((1, 1)), F.zero, F.one])
    assert roots_coords(p) == (True, [])


def brute_factor(n):
    out = {}
    d = 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def test_factor_int_and_divisors_match_brute_force():
    from ncquadric.fields import _divisors, _factor_int

    for n in range(1, 1500):
        assert _factor_int(n) == brute_factor(n)
        divs = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == _divisors(-n) == divs
    assert _divisors(0) == [1]
    # strong pseudoprimes, prime squares and products of large primes
    known = {
        3215031751: {151: 1, 751: 1, 28351: 1},
        2 ** 61 - 1: {2 ** 61 - 1: 1},
        (2 ** 31 - 1) * (2 ** 41 - 1): {13367: 1, 164511353: 1,
                                        2147483647: 1},
        1000000000061 ** 2 * 7 ** 3: {7: 3, 1000000000061: 2},
        10000000019 * 10000000033: {10000000019: 1, 10000000033: 1},
    }
    for n, factors in known.items():
        assert _factor_int(n) == factors
    assert _divisors(10000000019 * 10000000033) == [
        1, 10000000019, 10000000033, 10000000019 * 10000000033]


def test_two_squares_and_gaussian_prime_factors():
    from ncquadric.fields import (_gs_mul, _gs_norm, _gs_prime_factors,
                                  _two_squares)

    for p in (5, 13, 17, 29, 9973, 1000000000061):
        a, b = _two_squares(p)
        assert a * a + b * b == p
    x = (5 * 1000000000061, 0)
    factors = _gs_prime_factors(x)
    prod = (1, 0)
    for pi, e in factors.items():
        for _ in range(e):
            prod = _gs_mul(prod, pi)
    assert _gs_norm(prod) == _gs_norm(x)
    assert sorted(_gs_norm(pi) for pi in factors) == [5, 5, 1000000000061,
                                                      1000000000061]


@pytest.mark.parametrize("modulus", [
    (10 ** 13 + 37, 0, 0, 0, 1),
    (99999999999999999989, 0, 0, 0, 1),
])
def test_large_constant_terms_parse(modulus):
    assert Field.extension(modulus).modulus_verified


def test_large_quadratic_factor_is_found():
    p, q = 10000000019, 10000000033
    with pytest.raises(ValueError, match=r"quadratic factor t\^2\+10000000019\)$"):
        Field.extension((p * q, 0, p + q, 0, 1))
