from fractions import Fraction

import pytest

import oracle as O
from helpers import (coords_of, gauss, is_subspace_of, linear_combination,
                     matrix_apply, rows_pairs, vec_pairs)

from ncquadric import AmbientMismatch, Field, Matrix, SmallRng, Subspace


@pytest.fixture(scope="module")
def Qi():
    return Field.gaussian()


def random_matrix(field, rng, nrows, ncols):
    rows = [[gauss(field, rng.small_coeff(), rng.small_coeff())
             for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols=ncols)


def test_rref_matches_oracle(Qi):
    rng = SmallRng(7)
    for _ in range(20):
        m = random_matrix(Qi, rng, 4, 6)
        red, pivots = m.rref()
        o_red, o_piv = O.rref(rows_pairs(m.rows))
        assert list(pivots) == o_piv
        assert rows_pairs(red.rows[:len(o_red)]) == o_red
        assert m.rank() == len(o_piv)


def test_rref_idempotent(Qi):
    rng = SmallRng(11)
    for _ in range(10):
        m = random_matrix(Qi, rng, 3, 5)
        red, piv = m.rref()
        red2, piv2 = red.rref()
        assert rows_pairs(red.rows) == rows_pairs(red2.rows)
        assert piv == piv2


def test_kernel_is_right_nullspace(Qi):
    rng = SmallRng(3)
    for _ in range(12):
        m = random_matrix(Qi, rng, 3, 5)
        ker = m.kernel()
        # every kernel row is an actual solution
        for r in range(ker.nrows):
            vec = [ker.entry(r, c) for c in range(ker.ncols)]
            image = matrix_apply(m, vec)
            assert all(not x for x in image)
        # and the span is the full nullspace
        o_basis = O.nullspace(rows_pairs(m.rows), m.ncols)
        assert ker.nrows == len(o_basis)
        merged = rows_pairs(ker.rows) + o_basis
        assert O.rank(merged) == len(o_basis)


def test_solve_and_inverse(Qi):
    rng = SmallRng(19)
    for _ in range(10):
        m = random_matrix(Qi, rng, 4, 4)
        x = [gauss(Qi, rng.small_coeff(), rng.small_coeff())
             for _ in range(4)]
        rhs = matrix_apply(m, x)
        sol = m.solve(rhs)
        assert sol is not None
        assert matrix_apply(m, list(sol)) == rhs
        if m.rank() == 4:
            inv = m.inverse()
            assert (m * inv).rows == Matrix.identity(Qi, 4).rows
    singular = Matrix(Qi, [[Qi.one, Qi.one], [Qi.one, Qi.one]])
    with pytest.raises(ValueError):
        singular.inverse()
    # inconsistent system
    rhs_bad = [Qi.one, Qi.zero]
    wide = Matrix(Qi, [[Qi.one, Qi.one], [Qi.one, Qi.one]])
    assert wide.solve(rhs_bad) is None


def test_matrix_ops(Qi):
    a = Matrix(Qi, [[gauss(Qi, 1), gauss(Qi, 2)],
                    [gauss(Qi, 0), gauss(Qi, 1, 1)]])
    b = Matrix(Qi, [[gauss(Qi, 0), gauss(Qi, 1)],
                    [gauss(Qi, 1), gauss(Qi, 0)]])
    assert (a + b - b).rows == a.rows
    assert a.transpose().transpose().rows == a.rows
    prod = a * b
    assert vec_pairs(prod.rows[0]) == [(Fraction(2), Fraction(0)),
                                       (Fraction(1), Fraction(0))]


def test_subspace_membership_and_coords(Qi):
    rng = SmallRng(23)
    vecs = [[gauss(Qi, rng.small_coeff(), rng.small_coeff())
             for _ in range(5)] for _ in range(3)]
    sub = Subspace.span(Qi, 5, vecs)
    for v in vecs:
        assert sub.contains(v)
        coords = coords_of(sub, v)
        assert coords is not None
        assert list(linear_combination(sub, coords)) == list(v)
    outside = [Qi.one] + [Qi.zero] * 4
    if not sub.contains(outside):
        assert coords_of(sub, outside) is None


def test_subspace_dim_formula(Qi):
    rng = SmallRng(41)
    for _ in range(25):
        a = Subspace.span(Qi, 6, [[gauss(Qi, rng.small_coeff(),
                                         rng.small_coeff())
                                   for _ in range(6)] for _ in range(3)])
        b = Subspace.span(Qi, 6, [[gauss(Qi, rng.small_coeff(),
                                         rng.small_coeff())
                                   for _ in range(6)] for _ in range(3)])
        meet = a.intersect(b)
        join = a + b
        assert meet.dim + join.dim == a.dim + b.dim
        assert is_subspace_of(meet, a) and is_subspace_of(meet, b)
        assert is_subspace_of(a, join) and is_subspace_of(b, join)


def test_subspace_intersection_matches_oracle(Qi):
    rng = SmallRng(5)
    for _ in range(8):
        rows_a = [[gauss(Qi, rng.small_coeff(), rng.small_coeff())
                   for _ in range(5)] for _ in range(3)]
        rows_b = [[gauss(Qi, rng.small_coeff(), rng.small_coeff())
                   for _ in range(5)] for _ in range(3)]
        a = Subspace.span(Qi, 5, rows_a)
        b = Subspace.span(Qi, 5, rows_b)
        got = a.intersect(b)
        want = O.intersect(O.rref(rows_pairs(rows_a))[0],
                           O.rref(rows_pairs(rows_b))[0], 5)
        assert got.dim == len(want)
        assert rows_pairs(got.basis) == want


def test_ambient_mismatch(Qi):
    a = Subspace.span(Qi, 3, [[Qi.one, Qi.zero, Qi.zero]])
    b = Subspace.span(Qi, 4, [[Qi.one, Qi.zero, Qi.zero, Qi.zero]])
    with pytest.raises(AmbientMismatch):
        a.intersect(b)
    with pytest.raises(AmbientMismatch):
        a.contains([Qi.one])


def test_zero_and_full(Qi):
    z = Subspace.zero(Qi, 4)
    f = Subspace.full(Qi, 4)
    assert z.dim == 0 and f.dim == 4
    assert is_subspace_of(z, f)
    assert (z + f) == f
    assert f.intersect(z) == z
