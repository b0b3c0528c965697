import traceback
from fractions import Fraction
from pathlib import Path

import pytest

from ncquadric import AlgebraError, Field, FiniteDimAlgebra, NonSplit, \
    NotSemisimple, SmallRng, Subspace, end_algebra, stable_dual_algebra

from helpers import (central_primitive_idempotents, load_context,
                     matrix_apply, reference_central_split, right_mult_matrix,
                     trace_form_radical)


@pytest.fixture(scope="module")
def Q():
    return Field.rationals()


@pytest.fixture(scope="module")
def Qi():
    return Field.gaussian()


def test_small_rng_matches_recurrence():
    # independent inline implementation of the fixed LCG
    state = 7
    rng = SmallRng(7)
    for bound in (10, 100, 7, 2, 1000):
        state = (1103515245 * state + 12345) % (1 << 31)
        assert rng.next_int(bound) == (state >> 16) % bound
    rng2 = SmallRng(0)
    for _ in range(50):
        c = rng2.small_coeff()
        assert -4 <= c <= 4


def matrix_algebra(field, n):
    dim = n * n
    z = field.zero

    def unit_idx(i, j):
        return i * n + j

    structure = []
    for a in range(dim):
        i, j = divmod(a, n)
        row = []
        for b in range(dim):
            k, l = divmod(b, n)
            vec = [z] * dim
            if j == k:
                vec[unit_idx(i, l)] = field.one
            row.append(tuple(vec))
        structure.append(tuple(row))
    unit = [z] * dim
    for i in range(n):
        unit[unit_idx(i, i)] = field.one
    labels = [f"E{i}{j}" for i in range(n) for j in range(n)]
    return FiniteDimAlgebra(field, labels, structure, tuple(unit))


def dual_numbers(field):
    # k[e]/(e^2): basis (1, e)
    z, one = field.zero, field.one
    structure = (((one, z), (z, one)), ((z, one), (z, z)))
    return FiniteDimAlgebra(field, ("1", "e"), structure, (one, z))


def gaussian_as_rational_algebra(field):
    # Q[u]/(u^2+1) viewed as a 2-dim algebra over Q
    z, one = field.zero, field.one
    structure = (((one, z), (z, one)), ((z, one), (-one, z)))
    return FiniteDimAlgebra(field, ("1", "u"), structure, (one, z))


def test_associativity_guard(Q):
    # (a*a)*a = b*a = 0 but a*(a*a) = a*b = 1
    z, one = Q.zero, Q.one
    bad = (
        (((one, z, z)), ((z, one, z)), ((z, z, one))),
        (((z, one, z)), ((z, z, one)), ((one, z, z))),
        (((z, z, one)), ((z, z, z)), ((z, z, z))),
    )
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra(Q, ("1", "a", "b"), bad, (one, z, z))


def test_unit_guard(Q):
    z, one = Q.zero, Q.one
    structure = (((one, z), (z, one)), ((z, one), (z, z)))
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra(Q, ("1", "e"), structure, (z, one))


def test_matrix_algebra_semisimple(Q):
    m2 = matrix_algebra(Q, 2)
    assert m2.radical().dim == 0
    assert m2.is_semisimple()
    assert m2.center().dim == 1
    idems = m2.primitive_idempotents(seed=0)
    assert len(idems) == 2
    total = (Q.zero,) * m2.dim
    for e in idems:
        assert m2.multiply(e, e) == e
        total = tuple(x + y for x, y in zip(total, e))
    assert total == m2.unit
    a, b = idems
    assert not any(m2.multiply(a, b))
    assert not any(m2.multiply(b, a))
    assert m2.block_structure(seed=0) == (2,)


def test_dual_numbers_radical(Q):
    dn = dual_numbers(Q)
    assert dn.radical().dim == 1
    assert not dn.is_semisimple()
    with pytest.raises(NotSemisimple):
        dn.primitive_idempotents()
    quo = dn.quotient_by_radical()
    assert quo.dim == 1
    assert quo.is_semisimple()


def test_min_poly(Q):
    m2 = matrix_algebra(Q, 2)
    e12 = m2.basis_vector(1)
    mp = m2.min_poly(e12)
    assert str(mp) == "t^2"
    e11 = m2.basis_vector(0)
    assert str(m2.min_poly(e11)) == "t^2-t"
    assert str(m2.min_poly(m2.unit)) == "t-1"


def test_nonsplit_over_rationals(Q):
    alg = gaussian_as_rational_algebra(Q)
    assert alg.is_semisimple()
    with pytest.raises(NonSplit) as exc:
        alg.primitive_idempotents(seed=0)
    assert str(exc.value.factor) == "t^2+1"
    assert len(exc.value.partial) >= 1


def test_undecided_split_is_not_reported_as_nonsplit(Q, monkeypatch):
    # M_2(Q) splits; a search for a proper idempotent that gives up proves
    # nothing, so its NonSplit must say undecided
    monkeypatch.setattr(FiniteDimAlgebra, "_right_unit_of",
                        lambda self, ideal: None)
    with pytest.raises(NonSplit) as exc:
        matrix_algebra(Q, 2).primitive_idempotents(seed=0)
    assert exc.value.decided is False
    assert exc.value.factor is None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("field", ("Q", "Qi"))
def test_full_matrix_algebras_split(field, n, seed, request):
    alg = matrix_algebra(request.getfixturevalue(field), n)
    idems = alg.primitive_idempotents(seed=seed)
    assert len(idems) == n
    for e in idems:
        assert alg._block_subspace(alg._row(e, "idempotent")).dim == 1
    assert alg.block_structure(seed=seed) == (n,)


def quaternions(field):
    """The quaternions (-1, -1): basis 1, i, j, k with ij = k = -ji."""
    z, one = field.zero, field.one
    # b_a * b_b = sign * b_c, kept as (sign, c)
    products = {(0, b): (one, b) for b in range(4)}
    products.update({(a, 0): (one, a) for a in range(1, 4)})
    products.update({(a, a): (-one, 0) for a in range(1, 4)})
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        products[a, b], products[b, a] = (one, c), (-one, c)

    def vector(sign, c):
        return tuple(sign if k == c else z for k in range(4))

    structure = [[vector(*products[a, b]) for b in range(4)]
                 for a in range(4)]
    return FiniteDimAlgebra(field, ("1", "i", "j", "k"), structure,
                            (one, z, z, z))


def test_quaternions_are_undecided_over_the_rationals(Q):
    # a division algebra: every in-field eigenvalue gives y = 0, so no
    # candidate yields a proper left ideal
    alg = quaternions(Q)
    assert alg.is_semisimple() and alg.center().dim == 1
    with pytest.raises(NonSplit) as exc:
        alg.primitive_idempotents(seed=0)
    assert exc.value.decided is False
    assert exc.value.factor is None


def test_a_division_block_has_no_matrix_size(Q):
    # the block size is the number of primitives, not isqrt(dim) = 2
    with pytest.raises(NonSplit) as exc:
        quaternions(Q).block_structure(seed=0)
    assert exc.value.decided is False
    assert "simple block of dimension 4 over Q" in str(exc.value)


def test_quaternions_split_over_the_gaussian_field(Qi):
    alg = quaternions(Qi)
    assert len(alg.primitive_idempotents(seed=0)) == 2
    assert alg.block_structure(seed=0) == (2,)


def test_square_root_of_minus_one_over_the_eighth_cyclotomic_field():
    # u^2 = -1 over Q[t]/(t^4+1): t^2 is a root, so the algebra splits
    F = Field.extension([1, 0, 0, 0, 1])
    z, one = F.zero, F.one
    structure = (((one, z), (z, one)), ((z, one), (-one, z)))
    alg = FiniteDimAlgebra(F, ("1", "u"), structure, (one, z))
    ids = alg.primitive_idempotents(seed=0)
    t2 = F.generator() ** 2
    half = F.from_rational(Fraction(1, 2))
    assert sorted(ids, key=lambda v: v[1].coords) == [
        (half, -half * t2), (half, half * t2)]


def test_nonsplit_over_rationals_is_decided(Q):
    with pytest.raises(NonSplit) as exc:
        gaussian_as_rational_algebra(Q).primitive_idempotents(seed=0)
    assert exc.value.decided is True
    assert str(exc.value) == (
        "central characteristic factor does not split over Q")


def test_split_over_gaussian(Qi):
    z, one = Qi.zero, Qi.one
    structure = (((one, z), (z, one)), ((z, one), (-one, z)))
    alg = FiniteDimAlgebra(Qi, ("1", "u"), structure, (one, z))
    idems = alg.primitive_idempotents(seed=0)
    assert len(idems) == 2
    assert alg.block_structure(seed=0) == (1, 1)


def test_central_idempotents_of_product(Q):
    # Q x Q: two central primitive idempotents
    z, one = Q.zero, Q.one
    structure = (((one, z), (z, z)), ((z, z), (z, one)))
    alg = FiniteDimAlgebra(Q, ("p", "q"), structure, (one, one))
    cents = central_primitive_idempotents(alg, seed=0)
    got = sorted(tuple(str(c) for c in e) for e in cents)
    assert got == [("0", "1"), ("1", "0")]


def test_triangular_quotient_blocks(Q):
    # upper triangular 2x2: radical = strictly upper, quotient = Q x Q
    z, one = Q.zero, Q.one
    # basis: E11, E12, E22
    structure = (
        ((one, z, z), (z, one, z), (z, z, z)),
        ((z, z, z), (z, z, z), (z, one, z)),
        ((z, z, z), (z, z, z), (z, z, one)),
    )
    alg = FiniteDimAlgebra(Q, ("E11", "E12", "E22"), structure,
                           (one, z, one))
    assert alg.radical().dim == 1
    quo = alg.quotient_by_radical()
    assert quo.dim == 2
    assert quo.block_structure(seed=0) == (1, 1)


def test_left_right_mult_matrices(Q):
    m2 = matrix_algebra(Q, 2)
    a = m2.basis_vector(1)  # E12
    b = m2.basis_vector(2)  # E21
    rm = right_mult_matrix(m2, a)
    assert matrix_apply(rm, list(b)) == list(m2.multiply(b, a))


def flat_span(field, matrices):
    """Span of square integer matrices, each flattened row by row."""
    return Subspace.span(field, len(matrices[0]) ** 2,
                         [[field.from_rational(c) for row in m for c in row]
                          for m in matrices])


def test_of_matrices_upper_triangular(Q):
    span = flat_span(Q, [((1, 0), (0, 0)), ((0, 1), (0, 0)),
                         ((0, 0), (0, 1))])
    unit = [Q.one, Q.zero, Q.zero, Q.one]
    alg = FiniteDimAlgebra.of_matrices(Q, ("e11", "e12", "e22"), span, unit)
    assert alg.dim == 3
    assert alg.radical().dim == 1
    e11, e12, e22 = (alg.basis_vector(i) for i in range(3))
    assert alg.multiply(e11, e12) == alg.multiply(e12, e22) == e12
    assert not any(alg.multiply(e12, e11))
    assert not any(alg.multiply(e12, e12))


def test_of_matrices_rejects_a_span_not_closed_under_the_product(Q):
    # e12 * e21 = e11 is not in the span of e12, e21 and the identity
    span = flat_span(Q, [((0, 1), (0, 0)), ((0, 0), (1, 0)),
                         ((1, 0), (0, 1))])
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra.of_matrices(Q, ("a", "b", "c"), span,
                                     [Q.one, Q.zero, Q.zero, Q.one])


def test_of_matrices_rejects_a_unit_outside_the_span(Q):
    span = flat_span(Q, [((1, 0), (0, 0))])
    with pytest.raises(AlgebraError):
        FiniteDimAlgebra.of_matrices(Q, ("e11",), span,
                                     [Q.one, Q.zero, Q.zero, Q.one])


def test_radical_is_the_kernel_of_the_trace_form(Q, golden_end, cusp_ctx):
    # the radical is read off the trace functional; the reference builds
    # Tr(L_i L_j) from left multiplication matrices made with multiply
    triangular = FiniteDimAlgebra.of_matrices(
        Q, ("e11", "e12", "e22"),
        flat_span(Q, [((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1))]),
        [Q.one, Q.zero, Q.zero, Q.one])
    cases = [
        (matrix_algebra(Q, 2), 0),
        (dual_numbers(Q), 1),
        (triangular, 1),
        (golden_end.algebra, 0),
        (end_algebra(cusp_ctx).algebra, 1),
        (stable_dual_algebra(cusp_ctx).algebra, 1),
    ]
    for alg, rad_dim in cases:
        assert alg.radical() == trace_form_radical(alg)
        assert alg.radical().dim == rad_dim


@pytest.fixture(scope="module")
def skew4_end():
    skew4 = Path(__file__).resolve().parent.parent / "bench" / "corpus" / \
        "skew4.pres"
    return end_algebra(load_context(skew4, bound=4)).algebra


def test_block_structure_reuses_the_blocks_of_the_central_split(
        monkeypatch, skew4_end):
    alg = skew4_end
    idems = alg.primitive_idempotents(seed=3)
    real = FiniteDimAlgebra._block_subspace
    calls = []

    def counting(self, e):
        calls.append(e)
        return real(self, e)

    monkeypatch.setattr(FiniteDimAlgebra, "_block_subspace", counting)
    sizes = alg.block_structure(seed=3)
    assert calls == []
    assert sum(sizes) == len(idems)


def matrix_times_rationals(Q):
    """M_2(Q) x Q as block-diagonal 3 x 3 matrices."""
    units = []
    for r, c in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2)):
        mat = [[0] * 3 for _ in range(3)]
        mat[r][c] = 1
        units.append(mat)
    one, z = Q.one, Q.zero
    return FiniteDimAlgebra.of_matrices(
        Q, ("e11", "e12", "e21", "e22", "f"), flat_span(Q, units),
        [one, z, z, z, one, z, z, z, one])


@pytest.mark.parametrize("seed", range(4))
def test_central_split_matches_the_two_sided_horner_route(
        seed, Q, golden_end, skew4_end):
    # the split reads each central block as eA and each piece off one
    # table of powers; the reference takes eAe with two products and
    # evaluates every piece by Horner's rule
    cases = [(skew4_end, 8), (golden_end.algebra, 4),
             (matrix_times_rationals(Q), 2)]
    for alg, count in cases:
        want = reference_central_split(alg, seed)
        got = alg._split(seed)
        assert len(got) == len(want) == count
        for (e, block, _), (e_ref, block_ref) in zip(got, want):
            assert e == e_ref
            assert block == block_ref
        assert central_primitive_idempotents(alg, seed) == [
            alg._tuple(e) for e, _ in want]


def counting_min_poly(monkeypatch):
    """Patch FiniteDimAlgebra.min_poly to record each call; returns the
    list of calls."""
    real = FiniteDimAlgebra.min_poly
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(FiniteDimAlgebra, "min_poly", counting)
    return calls


@pytest.mark.parametrize("first", ("primitive_idempotents",
                                   "block_structure"))
def test_the_split_is_made_once_per_seed(first, Q, monkeypatch):
    # M_2(Q) x Q splits its center, then its matrix block; either reader
    # makes the split, and the other reads it without a min poly
    alg = matrix_times_rationals(Q)
    getattr(alg, first)(seed=2)
    calls = counting_min_poly(monkeypatch)
    assert len(alg.primitive_idempotents(seed=2)) == 3
    assert alg.block_structure(seed=2) == (1, 2)
    assert calls == []
    # another seed is another split
    assert alg.block_structure(seed=3) == (1, 2)
    assert calls


@pytest.mark.parametrize("make", (gaussian_as_rational_algebra, quaternions))
def test_a_nonsplit_is_raised_again_unchanged(make, Q, monkeypatch):
    # Q(i) over Q misses a central root; the quaternions over Q leave a
    # block undecided.  Both outcomes are kept and raised again as they are
    alg = make(Q)
    with pytest.raises(NonSplit) as first:
        alg.primitive_idempotents(seed=0)
    calls = counting_min_poly(monkeypatch)
    for again in (alg.primitive_idempotents, alg.block_structure):
        with pytest.raises(NonSplit) as second:
            again(seed=0)
        assert str(second.value) == str(first.value)
        assert second.value.factor == first.value.factor
        assert second.value.partial == first.value.partial
        assert second.value.decided == first.value.decided
    assert calls == []


@pytest.mark.parametrize("make", (gaussian_as_rational_algebra, quaternions))
def test_a_kept_nonsplit_is_raised_from_its_first_traceback(make, Q):
    # each call raises the kept NonSplit from the traceback of its first
    # raise, so the traceback keeps its length instead of growing per call
    alg = make(Q)
    lengths = []
    for _ in range(3):
        with pytest.raises(NonSplit) as raised:
            alg.primitive_idempotents(seed=0)
        lengths.append(len(traceback.extract_tb(raised.value.__traceback__)))
    assert lengths[0] == lengths[1] == lengths[2]
