"""The sparse-row elimination against the dense Gauss-Jordan reference.

Matrices are seeded at 2-15% nonzeros over Q, Q(i) and Q[t]/(t^3-2), with
empty, zero and full-rank cases beside them.  The reduced row echelon form
of a row space is unique, so rref rows and pivots, kernel, solve, inverse
and subspace reduction must all equal the reference exactly.  The rank,
which eliminates forward only, must count the rref pivots.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (coords_of, dense_kernel, dense_reduce, dense_rref,
                     dense_solve, fraction_add, fraction_mul, matrix_apply)

from ncquadric import Field, Matrix, Subspace
from ncquadric.linalg import add_multiple, sparse_row

FIELDS = {
    "Q": Field.rationals(),
    "Q(i)": Field.gaussian(),
    "t^3-2": Field.extension((-2, 0, 0, 1)),
}
KINDS = ("sparse", "empty", "zero", "full-rank")


def scalar(field, rng):
    coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(field.degree)]
    if not any(coords):
        coords[0] = Fraction(1)
    return field.element(coords)


def sparse_vector(field, rng, n, density):
    return [scalar(field, rng) if rng.random() < density else field.zero
            for _ in range(n)]


def make_rows(field, kind, rng, nrows, ncols, density):
    """Dense rows of one test matrix of the given kind."""
    if kind == "empty":
        return []
    if kind == "zero":
        return [[field.zero] * ncols for _ in range(nrows)]
    if kind == "full-rank":
        # a unit upper triangle with sparse entries above, rows shuffled
        rows = [sparse_vector(field, rng, nrows, density)
                for _ in range(nrows)]
        for i, row in enumerate(rows):
            row[:i] = [field.zero] * i
            row[i] = scalar(field, rng)
        rng.shuffle(rows)
        return rows
    return [sparse_vector(field, rng, ncols, density) for _ in range(nrows)]


cases = st.tuples(st.sampled_from(sorted(FIELDS)), st.sampled_from(KINDS),
                  st.integers(0, 2 ** 32 - 1), st.integers(1, 24),
                  st.integers(1, 30), st.sampled_from((0.02, 0.05, 0.1, 0.15)))


def build(case):
    name, kind, seed, nrows, ncols, density = case
    field = FIELDS[name]
    rng = random.Random(seed)
    if kind == "full-rank":
        ncols = nrows
    rows = make_rows(field, kind, rng, nrows, ncols, density)
    return field, rng, rows, ncols, density


@settings(max_examples=60, deadline=None)
@given(cases)
def test_rref_and_kernel_match_dense_reference(case):
    field, _, rows, ncols, _ = build(case)
    mat = Matrix(field, rows, ncols=ncols)
    red, pivots = mat.rref()
    want_rows, want_pivots = dense_rref(rows, ncols)
    assert pivots == want_pivots
    assert red.rows == want_rows
    assert mat.rank() == len(want_pivots)
    assert mat.kernel().rows == dense_kernel(field, rows, ncols)


@settings(max_examples=60, deadline=None)
@given(cases)
def test_rank_by_forward_elimination_counts_the_rref_pivots(case):
    # rank eliminates forward only, on a matrix whose rref is not cached,
    # and leaves the rows of the matrix as they were
    field, _, rows, ncols, _ = build(case)
    mat = Matrix(field, rows, ncols=ncols)
    before = [dict(r) for r in mat.sparse]
    rank = mat.rank()
    assert mat.sparse == before
    assert rank == len(Matrix(field, rows, ncols=ncols).rref()[1])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rank_reduces_a_filled_in_pivot_column(name):
    # row 2 reduced by row 0 fills in column 1, the pivot of row 1, so the
    # reduction must go on in column order; row 3 is then dependent
    field = FIELDS[name]
    rows = [[1, 1, 0, 0], [0, 1, 0, -1], [-1, 0, -1, 1], [1, 0, 0, 1]]
    assert Matrix(field, rows, ncols=4).rank() == 3
    assert Matrix(field, rows[:3], ncols=4).rank() == 3
    assert len(Matrix(field, rows, ncols=4).rref()[1]) == 3


@settings(max_examples=60, deadline=None)
@given(cases)
def test_solve_and_inverse_match_dense_reference(case):
    field, rng, rows, ncols, density = build(case)
    mat = Matrix(field, rows, ncols=ncols)
    x = sparse_vector(field, rng, ncols, max(density, 0.3))
    consistent = matrix_apply(mat, x)
    other = sparse_vector(field, rng, len(rows), 0.5)
    for rhs in (consistent, other):
        assert mat.solve(rhs) == dense_solve(field, rows, ncols, rhs)
    if rows and len(rows) == ncols and mat.rank() == ncols:
        ident = [[field.one if i == j else field.zero for j in range(ncols)]
                 for i in range(ncols)]
        aug, _ = dense_rref([r + e for r, e in zip(rows, ident)], 2 * ncols)
        assert mat.inverse().rows == [r[ncols:] for r in aug]


@settings(max_examples=60, deadline=None)
@given(cases)
def test_subspace_reduction_matches_dense_reference(case):
    field, rng, rows, ncols, density = build(case)
    sub = Subspace.span(field, ncols, rows)
    red, pivots = dense_rref(rows, ncols)
    basis = [tuple(r) for r in red[:len(pivots)]]
    assert sub.pivots == pivots
    assert list(sub.basis) == basis
    inside = [field.zero] * ncols
    for row in rows:
        c = scalar(field, rng)
        inside = [a + c * b for a, b in zip(inside, row)]
    for vec in (sparse_vector(field, rng, ncols, max(density, 0.2)), inside):
        resid, coords = dense_reduce(field, basis, pivots, vec)
        assert sub.reduce(vec) == resid
        assert sub.contains(vec) == (not any(resid))
        assert coords_of(sub, vec) == (None if any(resid) else coords)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("sign", (1, -1))
def test_add_multiple_by_a_unit_matches_fraction_coordinates(name, sign):
    # f = 1 and f = -1 are built by arithmetic, as elimination builds them,
    # so they reach the unit branches without being the field.one object
    field = FIELDS[name]
    rng = random.Random(11 * sign)
    n = 12
    for _ in range(20):
        x = scalar(field, rng)
        f = x * x.inverse()
        if sign < 0:
            f = -f
        assert f is not field.one and f is not field.minus_one
        row_d = sparse_vector(field, rng, n, 0.5)
        other_d = sparse_vector(field, rng, n, 0.5)
        cancel, skip = rng.sample(range(n), 2)
        other_d[cancel] = scalar(field, rng)
        row_d[cancel] = -f * other_d[cancel]
        other_d[skip] = scalar(field, rng)
        row, other = sparse_row(field, row_d), sparse_row(field, other_d)
        kept = dict(other)
        add_multiple(row, f, other, skip)
        want = {}
        for j, (a, b) in enumerate(zip(row_d, other_d)):
            c = a.coords if j == skip else fraction_add(
                a.coords, fraction_mul(field, f.coords, b.coords))
            if any(c):
                want[j] = c
        assert {j: y.coords for j, y in row.items()} == want
        assert cancel not in row
        assert other == kept and all(other[j] is y for j, y in kept.items())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_rows_built_by_the_library_skip_coercion(name, monkeypatch):
    from ncquadric import linalg

    field = FIELDS[name]
    rng = random.Random(5)
    rows = make_rows(field, "sparse", rng, 12, 16, 0.15)
    mat = Matrix(field, rows, ncols=16)
    calls = []
    real = linalg._coerce_entry

    def counting(f, value):
        calls.append(value)
        return real(f, value)

    monkeypatch.setattr(linalg, "_coerce_entry", counting)
    red, pivots = mat.rref()
    kernel = mat.kernel()
    span = Subspace._span_sparse(field, 16, red.sparse[:len(pivots)])
    assert calls == []
    assert span.pivots == pivots
    assert kernel.nrows == 16 - len(pivots)
