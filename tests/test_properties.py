from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import index_word, word_index

from ncquadric import Field, Polynomial, SmallRng, Subspace

QI = Field.gaussian()
QQ = Field.rationals()

rationals_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def qi(pair):
    re, im = pair
    return QI.from_rational(re) + QI.from_rational(im) * QI.generator()


gauss_st = st.tuples(rationals_st, rationals_st).map(qi)


@settings(max_examples=60, deadline=None)
@given(gauss_st, gauss_st, gauss_st)
def test_field_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(gauss_st)
def test_field_inverse_law(a):
    if a:
        assert a * a.inverse() == QI.one
    assert a + (-a) == QI.zero
    assert a - a == QI.zero


matrix_st = st.lists(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(
        lambda p: qi((Fraction(p[0]), Fraction(p[1])))),
        min_size=5, max_size=5),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(matrix_st)
def test_rref_canonical_form_is_stable(rows):
    span = Subspace.span(QI, 5, rows)
    again = Subspace.span(QI, 5, [list(r) for r in span.basis])
    assert [list(r) for r in again.basis] == [list(r) for r in span.basis]
    for row in rows:
        assert span.contains(row)


@settings(max_examples=40, deadline=None)
@given(matrix_st, matrix_st)
def test_subspace_dimension_formula(rows_a, rows_b):
    u = Subspace.span(QI, 5, rows_a)
    w = Subspace.span(QI, 5, rows_b)
    lhs = u.intersect(w).dim + (u + w).dim
    assert lhs == u.dim + w.dim


@settings(max_examples=40, deadline=None)
@given(matrix_st, matrix_st)
def test_intersection_is_contained_in_both(rows_a, rows_b):
    u = Subspace.span(QI, 5, rows_a)
    w = Subspace.span(QI, 5, rows_b)
    meet = u.intersect(w)
    for row in meet.basis:
        assert u.contains(row) and w.contains(row)


poly_st = st.lists(st.integers(-5, 5), min_size=0, max_size=6).map(
    lambda cs: Polynomial(QQ, [QQ.from_rational(Fraction(c)) for c in cs]))


@settings(max_examples=60, deadline=None)
@given(poly_st, poly_st)
def test_polynomial_division_invariant(f, g):
    if g.degree < 0:
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_word_index_roundtrip(n, g, data):
    word = tuple(data.draw(st.integers(0, g - 1)) for _ in range(n))
    k = word_index(word, g)
    assert 0 <= k < g ** n
    assert index_word(k, n, g) == word


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 97))
def test_rng_stays_in_bounds_and_replays(seed, bound):
    a = SmallRng(seed)
    b = SmallRng(seed)
    run = [a.next_int(bound) for _ in range(8)]
    assert run == [b.next_int(bound) for _ in range(8)]
    assert all(0 <= v < bound for v in run)
    assert all(-4 <= SmallRng(seed).small_coeff() <= 4 for _ in range(4))
