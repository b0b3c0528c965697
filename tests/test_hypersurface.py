from fractions import Fraction

import pytest

import oracle as O
from conftest import ROOT
from helpers import (coords_of, gauss, load_context, reference_end_solution,
                     rows_pairs)

from ncquadric import (Field, NotCentral, NotRegularCertificate,
                       QuadraticPresentation, RelationDependence, Subspace,
                       UnsupportedDimension, build_context,
                       dimension_identities, end_algebra, koszul_component,
                       stable_dual_algebra, syzygy_presentation)

# canonical reduced basis of the quotient relation space, pinned so the
# change-of-basis rows below cannot drift silently
CANONICAL_C2 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 1),   # x^2 + z^2
    (0, 0, 1, 0, 0, 0, 1, 0, 0),   # xz + zx
    (0, 0, 0, 0, 1, 0, 0, 0, -1),  # y^2 - z^2
    (0, 0, 0, 0, 0, 1, 0, 1, 0),   # yz + zy
)

# documented relation order: p1 = xz+zx, p2 = yz+zy, p3 = x^2+y^2,
# p4 = x^2+z^2; row i expresses p_i over the canonical basis
T_ROWS = ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0), (1, 0, 0, 0))

# the four documented degree-1 module relations, written over pairs
# (p_i, generator l) with l in (x, y, z)
DOCUMENTED_SYZ_ROWS = (
    (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    (2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 0, 0, 1, 0, -1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, -1, 0, 1, 1, 0),
)


def test_context_shape(golden_ctx):
    assert golden_ctx.d == 2
    assert golden_ctx.gorenstein_parameter == 1
    assert golden_ctx.quotient.hilbert(6) == [1, 3, 5, 7, 9, 11, 13]
    assert golden_ctx.ambient.hilbert(3) == [1, 3, 6, 10]


def test_canonical_relation_basis(golden_ctx):
    got = [tuple(str(c) for c in row)
           for row in golden_ctx.quotient.relation_space.basis]
    want = [tuple(str(c) for c in row) for row in CANONICAL_C2]
    assert got == want


def test_build_context_errors():
    Qi = Field.gaussian()
    one, z = gauss(Qi, 1), gauss(Qi, 0)

    line = QuadraticPresentation(Qi, ("x",), [])
    with pytest.raises(UnsupportedDimension):
        build_context(line, [one])

    plane = QuadraticPresentation(Qi, ("x", "y"), [[z, one, -one, z]])
    with pytest.raises(ValueError):
        build_context(plane, [one, z])  # wrong length

    with pytest.raises(RelationDependence):
        build_context(plane, [z, one, -one, z])  # w is the relation

    s3 = QuadraticPresentation(
        Qi, ("x", "y", "z"),
        [[gauss(Qi, c) for c in row] for row in (
            (0, 0, 1, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 1, 0, 1, 0),
            (1, 0, 0, 0, 1, 0, 0, 0, 0))])
    xy = [z] * 9
    xy[1] = one
    with pytest.raises(NotCentral):
        build_context(s3, xy)

    # k<x,y>/(xy, yx): x^2 is central but y kills it
    disjoint = QuadraticPresentation(
        Qi, ("x", "y"), [[z, one, z, z], [z, z, one, z]])
    xx = [one, z, z, z]
    with pytest.raises(NotRegularCertificate):
        build_context(disjoint, xx)


def test_koszul_components_cached(golden_ctx):
    dims = [koszul_component(golden_ctx, n).dim for n in range(6)]
    assert dims == [1, 3, 4, 4, 4, 4]
    assert 3 in golden_ctx.koszul_cache


def test_syzygy_presentation_matches_documented_relations(golden_ctx):
    pres = syzygy_presentation(golden_ctx)
    assert pres.rank == 4
    assert len(pres.relations) == 4
    assert all(len(row) == 4 * 3 for row in pres.relations)
    field = golden_ctx.ambient.field
    # convert documented rows to the canonical basis: the expansion
    # sum_i p_i (x) c_i becomes sum_j b_j (x) (sum_i T[i][j] c_i)
    converted = []
    for row in DOCUMENTED_SYZ_ROWS:
        out = [field.zero] * 12
        for i in range(4):
            for l in range(3):
                if row[i * 3 + l]:
                    for j in range(4):
                        if T_ROWS[i][j]:
                            out[j * 3 + l] = out[j * 3 + l] + gauss(
                                field, row[i * 3 + l] * T_ROWS[i][j])
        converted.append(out)
    mine = Subspace.span(field, 12,
                         [list(r) for r in pres.relations])
    docs = Subspace.span(field, 12, converted)
    assert mine == docs


def test_end_algebra_matches_oracle(golden_ctx, golden_end):
    assert golden_end.matrix_dim == 4
    assert golden_end.solution.dim == 4
    o_rels = rows_pairs(golden_ctx.quotient.relation_space.basis)
    dim, basis = O.end_solve(o_rels, 2, 3)
    assert dim == 4
    canon, _ = O.rref(rows_pairs(golden_end.solution.basis))
    assert canon == basis
    # identity is in the family and composition closes
    alg = golden_end.algebra
    assert alg.dim == 4
    assert alg.multiply(alg.unit, alg.unit) == tuple(alg.unit)


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(ROOT)) for pattern in ("inputs/*.pres",
                                             "bench/corpus/*.pres")
    for p in ROOT.glob(pattern)))
def test_end_algebra_matches_the_containment_solver(path):
    ctx = load_context(ROOT / path, bound=4)
    end = end_algebra(ctx)
    assert end.solution == reference_end_solution(ctx)
    assert end.module.presentation == syzygy_presentation(ctx)


def test_end_algebra_small_cases(node_ctx, cusp_ctx):
    for ctx, want_rad in ((node_ctx, 0), (cusp_ctx, 1)):
        end = end_algebra(ctx)
        assert end.solution.dim == 2
        o_rels = rows_pairs(ctx.quotient.relation_space.basis)
        dim, basis = O.end_solve(o_rels, 1, 2)
        assert dim == 2
        canon, _ = O.rref(rows_pairs(end.solution.basis))
        assert canon == basis
        assert end.algebra.radical().dim == want_rad


def test_dimension_identities(golden_ctx, golden_end):
    checks = dimension_identities(golden_ctx, golden_end)
    assert all(c.ok for c in checks)
    by_label = {c.label: (c.lhs, c.rhs) for c in checks}
    assert by_label["dim End = half dim ambient dual"] == (4, 4)
    assert by_label["dim M_0 = dim End"] == (4, 4)


def test_stable_dual_golden(golden_ctx, golden_end):
    real = stable_dual_algebra(golden_ctx)
    assert real.half == 1
    assert real.checked_range == (2, 3, 4)
    assert real.algebra.dim == 4
    assert real.algebra.radical().dim == 0
    assert any(real.pi)
    assert real.algebra.dim == golden_end.algebra.dim
    assert real.algebra.block_structure(seed=0) == \
        golden_end.algebra.block_structure(seed=0) == (1, 1, 1, 1)


def test_stable_dual_controls(node_ctx, cusp_ctx):
    node_real = stable_dual_algebra(node_ctx)
    assert node_real.algebra.dim == 2
    assert node_real.algebra.radical().dim == 0
    cusp_real = stable_dual_algebra(cusp_ctx)
    assert cusp_real.algebra.dim == 2
    assert cusp_real.algebra.radical().dim == 1
    quo = cusp_real.algebra.quotient_by_radical()
    assert quo.block_structure(seed=0) == (1,)


def test_dual_hilbert_stabilizes(golden_ctx):
    adual = golden_ctx.quotient_dual
    assert [adual.graded_dim(n) for n in range(7)] == [1, 3, 4, 4, 4, 4, 4]
    sdual = golden_ctx.ambient_dual
    assert [sdual.graded_dim(n) for n in range(5)] == [1, 3, 3, 1, 0]


def test_end_algebra_structure_is_the_matrix_product(golden_ctx, golden_end):
    field = golden_ctx.quotient.field
    sol = golden_end.solution
    mats = golden_end.basis_matrices
    m = golden_end.matrix_dim
    assert [[c for row in f.rows for c in row] for f in mats] == \
        [list(row) for row in sol.basis]

    def coords(f):
        return tuple(coords_of(sol, [c for row in f.rows for c in row]))

    alg = golden_end.algebra
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    assert [[alg.multiply(a, b) for b in basis] for a in basis] == \
        [[coords(a * b) for b in mats] for a in mats]
    ident = [field.one if j == k else field.zero
             for j in range(m) for k in range(m)]
    assert golden_end.algebra.unit == tuple(coords_of(sol, ident))
