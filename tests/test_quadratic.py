from fractions import Fraction

import pytest

import oracle as O
from helpers import element_vector, gauss, project, rows_pairs

from ncquadric import Field, FieldMismatch, QuadraticPresentation, \
    RelationDependence, SmallRng, build_context, is_regular_deg2, \
    koszul_numeric_check, linear_string, quantum_polynomial_certificate, \
    tensor2_string


@pytest.fixture(scope="module")
def Qi():
    return Field.gaussian()


def golden_ambient(Qi):
    one, z = 1, 0
    rows = [
        # xz + zx, yz + zy, x^2 + y^2 over (xx,xy,xz,yx,yy,yz,zx,zy,zz)
        [z, z, one, z, z, z, one, z, z],
        [z, z, z, z, z, one, z, one, z],
        [one, z, z, z, one, z, z, z, z],
    ]
    return QuadraticPresentation(
        Qi, ("x", "y", "z"),
        [[gauss(Qi, c) for c in row] for row in rows])


W_ROW = [1, 0, 0, 0, 0, 0, 0, 0, 1]  # x^2 + z^2


@pytest.fixture(scope="module")
def S(Qi):
    return golden_ambient(Qi)


@pytest.fixture(scope="module")
def w(Qi):
    return [gauss(Qi, c) for c in W_ROW]


def test_hilbert_matches_oracle_and_closed_form(S):
    got = S.hilbert(8)
    assert got == [1, 3, 6, 10, 15, 21, 28, 36, 45]
    o_rels = rows_pairs(S.relation_space.basis)
    for n in range(5):
        assert got[n] == O.quotient_dim(o_rels, n, 3)
    assert S.graded_dim(-1) == 0


def test_basis_words_count(S):
    for n in range(5):
        assert len(S.basis_words(n)) == S.graded_dim(n)


def test_multiplication_associativity(S):
    rng = SmallRng(13)
    for _ in range(6):
        a = [S.field.from_rational(rng.small_coeff())
             for _ in range(S.graded_dim(1))]
        b = [S.field.from_rational(rng.small_coeff())
             for _ in range(S.graded_dim(2))]
        c = [S.field.from_rational(rng.small_coeff())
             for _ in range(S.graded_dim(1))]
        left = S.multiply(3, S.multiply(1, a, 2, b), 1, c)
        right = S.multiply(1, a, 3, S.multiply(2, b, 1, c))
        assert left == right


def test_central_element_commutes_in_low_degree(S, w):
    # w * v = v * w for every generator v, checked through multiply
    wc = project(S, 2, w)
    for l in range(3):
        e = [S.field.one if k == l else S.field.zero for k in range(3)]
        assert S.multiply(2, wc, 1, e) == S.multiply(1, e, 2, wc)


def test_is_central_deg2(S, w, Qi):
    assert S.is_central_deg2(w) is True
    xy = [Qi.zero] * 9
    xy[1] = Qi.one
    assert S.is_central_deg2(xy) is False
    with pytest.raises(ValueError):
        S.is_central_deg2([Qi.one] * 4)


def test_relation_dependence(Qi):
    one, z = gauss(Qi, 1), gauss(Qi, 0)
    rows = [[z, one, -one, z], [z, gauss(Qi, 2), gauss(Qi, -2), z]]
    with pytest.raises(RelationDependence):
        QuadraticPresentation(Qi, ("x", "y"), rows)


def test_quadratic_dual(S):
    dual = S.quadratic_dual()
    assert dual.generators == ("x*", "y*", "z*")
    got = [dual.graded_dim(n) for n in range(5)]
    assert got == [1, 3, 3, 1, 0]
    o_dual = O.dual_relations(rows_pairs(S.relation_space.basis), 3)
    assert got[:5] == [O.quotient_dim(o_dual, n, 3) for n in range(5)]


def test_regularity_golden(S, w):
    cert = is_regular_deg2(S, w, 6)
    assert cert.passed and cert.first_failure is None
    assert [r[2] for r in cert.rows] == [5, 7, 9, 11, 13]


def test_regularity_detects_torsion(Qi):
    # in the algebra with x^2 = 0, cutting by y^2 leaves alternating words:
    # dims 1,2,2,2,... while the torsion-free expectation keeps growing
    one, z = gauss(Qi, 1), gauss(Qi, 0)
    fib = QuadraticPresentation(Qi, ("x", "y"),
                                [[one, z, z, z]])
    yy = [z, z, z, one]
    cert = is_regular_deg2(fib, yy, 5)
    assert not cert.passed
    assert cert.first_failure == 3


def test_regularity_dependent_candidate(Qi):
    one, z = gauss(Qi, 1), gauss(Qi, 0)
    plane = QuadraticPresentation(Qi, ("x", "y"),
                                  [[z, one, -one, z]])
    xy_minus_yx = [z, one, -one, z]
    cert = is_regular_deg2(plane, xy_minus_yx, 4)
    assert not cert.passed
    assert cert.first_failure == 2


def test_qp_certificate_pass(S):
    cert = quantum_polynomial_certificate(S, 6)
    assert cert.passed
    assert cert.failures == ()
    assert cert.numeric.coefficients == (1, 0, 0, 0, 0, 0, 0)
    assert cert.dual_hilbert == (1, 3, 3, 1, 0)


def test_qp_certificate_fail(Qi):
    one, z = gauss(Qi, 1), gauss(Qi, 0)
    fib = QuadraticPresentation(Qi, ("x", "y"), [[one, z, z, z]])
    cert = quantum_polynomial_certificate(fib, 6)
    assert not cert.passed
    assert cert.hilbert == (1, 2, 3, 5, 8, 13, 21)
    assert any("hilbert" in f for f in cert.failures)


def test_numeric_check_against_series_oracle(S, w):
    quotient = QuadraticPresentation(
        S.field, S.generators,
        list(S.relation_space.basis) + [tuple(w)])
    nk = koszul_numeric_check(quotient, 8)
    assert nk.passed
    dual_dims = O.alternating_dual_dims(quotient.hilbert(8), 8)
    adual = quotient.quadratic_dual()
    assert [Fraction(adual.graded_dim(n)) for n in range(9)] == dual_dims


def test_display_strings(Qi):
    i = Qi.generator()
    assert linear_string(("x", "y", "z"),
                         [Qi.zero, Qi.one, i]) == "y+i*z"
    assert linear_string(("x", "y"), [Qi.zero, Qi.zero]) == "0"
    coeffs = [Qi.zero] * 9
    coeffs[0] = Qi.one
    coeffs[8] = Qi.one
    assert tensor2_string(("x", "y", "z"), coeffs) == "x*x+z*z"
    coeffs[8] = Qi.element((Fraction(-1, 2), Fraction(0)))
    assert tensor2_string(("x", "y", "z"), coeffs) == "x*x-1/2*z*z"


def test_project_and_element_vector(S):
    # projecting the full tensor square of the central element recovers
    # its class coordinates, and element_vector round-trips them
    w_class = project(S, 2, [gauss(S.field, c) for c in W_ROW])
    vec = element_vector(S, 2, w_class)
    assert project(S, 2, vec) == w_class


# -- scalars from outside: the four entry points coerce as Subspace.span does

RATIONALS = Field.rationals()
PLANE = QuadraticPresentation(RATIONALS, ("x", "y"), [[0, 1, -1, 0]])
# each entry point: (call on a degree-2 row, what the call gives to compare)
ENTRY_POINTS = {
    "presentation": (lambda w: QuadraticPresentation(RATIONALS, ("x", "y"),
                                                     [w]),
                     lambda out: out.relation_space),
    "centrality": (PLANE.is_central_deg2, lambda out: out),
    "regularity": (lambda w: is_regular_deg2(PLANE, w, 5),
                   lambda out: out.rows),
    "context": (lambda w: build_context(PLANE, w, bound=5),
                lambda out: out.quotient.relation_space),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_accept_ints_and_fractions(name):
    call, read = ENTRY_POINTS[name]
    elements = [RATIONALS.from_rational(c) for c in (2, 0, 0, 1)]
    assert read(call([2, 0, 0, Fraction(1)])) == read(call(elements))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_another_field(name):
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(FieldMismatch):
        call([Field.gaussian().one, 0, 0, 1])


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_reject_a_wrong_length(name):
    call, _ = ENTRY_POINTS[name]
    with pytest.raises(ValueError):
        call([1, 0, 1])
