"""End-to-end acceptance checks, one test per published criterion.

Every comparison is exact: rational arithmetic throughout, no tolerances.
The golden input is a three-generator quadric over Q(i); the two controls
are the commutative plane cut by x^2+y^2 (split over Q(i), not over Q)
and by x^2 (not an isolated singularity).
"""

from fractions import Fraction

import pytest

from helpers import flatten_matrix, gauss, matrix_of, normalize_line

from ncquadric import (GradedModule, Matrix, Subspace, classify_mcm,
                       end_algebra, free_module, hom_graded,
                       koszul_component, koszul_numeric_check, linear_string,
                       parse_file, preresolution_table, run_pipeline,
                       stable_dual_algebra, syzygy_shift_evidence)
from ncquadric.findim import SmallRng

# the documented relation order for the golden quadric is p1 = xz+zx,
# p2 = yz+zy, p3 = x^2+y^2, p4 = x^2+z^2; row i of T expresses p_i over
# this package's canonical relation basis
T_ROWS = ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 0), (1, 0, 0, 0))

# the four-parameter endomorphism family in the documented coordinates,
# one matrix per parameter direction a, b, c, d
FAMILY_DIRECTIONS = (
    ((0, 0, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)),   # a
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),   # b
    ((0, 0, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0), (0, 1, 0, 0)),  # c
    ((1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 1)),   # d
)

# image lines of the four documented idempotents, documented coordinates
IMAGE_LINES = (
    ((0, 0), (1, 0), (0, -1), (0, 1)),
    ((0, 0), (1, 0), (0, 1), (0, -1)),
    ((1, 0), (0, 0), (0, 0), (1, 0)),
    ((1, 0), (0, 0), (0, 0), (-1, 0)),
)

ANNIHILATORS = {"y+i*z", "y-i*z", "x+z", "x-z"}


@pytest.fixture(scope="module")
def basis_change(golden_ctx):
    field = golden_ctx.ambient.field
    tt = matrix_of(field, [[T_ROWS[i][j] for i in range(4)]
                           for j in range(4)])
    return tt, tt.inverse()


@pytest.fixture(scope="module")
def golden_idems(golden_end):
    found = golden_end.algebra.primitive_idempotents(seed=0)
    mats = []
    for coords in found:
        mat = None
        for c, bm in zip(coords, golden_end.basis_matrices):
            term = bm.scale(c)
            mat = term if mat is None else mat + term
        mats.append(mat)
    return found, mats


@pytest.fixture(scope="module")
def golden_cls(golden_module, golden_idems, golden_ctx):
    return classify_mcm(golden_module, golden_idems[1],
                        golden_ctx.quotient, 6)


@pytest.fixture(scope="module")
def node_report():
    return run_pipeline(parse_file("inputs/node.pres"), degree=6, seed=0)


@pytest.fixture(scope="module")
def nodeq_report():
    return run_pipeline(parse_file("inputs/node_rational.pres"), degree=6,
                        seed=0)


@pytest.fixture(scope="module")
def cusp_report():
    return run_pipeline(parse_file("inputs/cusp.pres"), degree=6, seed=0)


def canon(subspace):
    return [tuple(str(c) for c in row) for row in subspace.basis]


def test_criterion_01_golden_end_algebra(golden_ctx, golden_end,
                                         golden_report, basis_change):
    field = golden_ctx.ambient.field
    tt, tt_inv = basis_change
    assert golden_end.solution.dim == 4
    converted = []
    for rows in FAMILY_DIRECTIONS:
        mat = tt * matrix_of(field, [list(r) for r in rows]) * tt_inv
        converted.append(flatten_matrix(mat))
    documented = Subspace.span(field, 16, converted)
    assert canon(documented) == canon(golden_end.solution)
    assert golden_report.verdict is True
    print("criterion 1: PASS - end algebra is the documented "
          "4-parameter family, verdict yes")


def test_criterion_02_idempotent_images(golden_ctx, golden_idems,
                                        basis_change):
    field = golden_ctx.ambient.field
    tt, _ = basis_change
    found, mats = golden_idems
    assert len(mats) == 4
    got = set()
    for mat in mats:
        cols = [[mat.entry(r, c) for r in range(4)] for c in range(4)]
        image = Subspace.span(field, 4, cols)
        assert image.dim == 1
        got.add(normalize_line(image.basis[0]))
    want = set()
    for line in IMAGE_LINES:
        vec = [gauss(field, *pair) for pair in line]
        converted = [sum((tt.entry(r, k) * vec[k] for k in range(4)),
                         field.zero) for r in range(4)]
        want.add(normalize_line(converted))
    assert got == want
    print("criterion 2: PASS - 4 primitive idempotents with the "
          "documented rank-1 images")


def test_criterion_03_mcm_classification(golden_cls, golden_ctx):
    names = golden_ctx.ambient.generators
    quotient = golden_ctx.quotient
    got = {linear_string(names, normalize_line(info.cyclic.element))
           for info in golden_cls.summands}
    assert got == ANNIHILATORS
    from ncquadric import ModulePresentation
    for info in golden_cls.summands:
        u = tuple(info.cyclic.element)
        cyclic = GradedModule(quotient, ModulePresentation(1, (u,)))
        assert info.hilbert == tuple(cyclic.graded_dim(n) for n in range(7))
    print("criterion 3: PASS - annihilators match up to scalar and "
          "permutation; summand Hilbert functions match A/uA to degree 6")


def test_criterion_04_dimension_identities(golden_ctx, golden_end,
                                           golden_module):
    sdual = golden_ctx.ambient_dual
    dim_sdual = sum(sdual.graded_dim(n) for n in range(4))
    assert dim_sdual == 8
    assert sdual.graded_dim(4) == 0
    stable = stable_dual_algebra(golden_ctx)
    assert stable.algebra.dim == 4 == dim_sdual // 2
    for n in range(2, 6):
        assert koszul_component(golden_ctx, n).dim == 4
    assert golden_module.graded_dim(0) == 4 == golden_end.solution.dim
    print("criterion 4: PASS - dim S^! = 8, dim C(A) = 4 = half, "
          "dim C_n = 4 for 2 <= n <= 5, dim M_0 = dim End")


def test_criterion_05_hilbert_series(golden_ctx):
    assert golden_ctx.quotient.hilbert(6) == [1, 3, 5, 7, 9, 11, 13]
    assert golden_ctx.ambient.hilbert(3) == [1, 3, 6, 10]
    cert = koszul_numeric_check(golden_ctx.quotient, 8)
    assert cert.passed
    assert cert.coefficients == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    print("criterion 5: PASS - Hilbert coefficients and the numeric "
          "Koszul certificate to degree 8")


def test_criterion_06_two_routes_agree(golden_ctx, node_ctx, cusp_ctx):
    for label, ctx in (("golden", golden_ctx), ("node", node_ctx),
                       ("cusp", cusp_ctx)):
        end = end_algebra(ctx).algebra
        dual = stable_dual_algebra(ctx).algebra
        assert end.dim == dual.dim, label
        assert end.radical().dim == dual.radical().dim, label
        blocks = []
        for alg in (end, dual):
            semi = alg if alg.radical().dim == 0 \
                else alg.quotient_by_radical()
            blocks.append(sorted(semi.block_structure(seed=0)))
        assert blocks[0] == blocks[1], label
    print("criterion 6: PASS - direct and dual routes agree in dim, "
          "radical dim, and block multiset on all three inputs")


def test_criterion_07_negative_control(cusp_ctx, cusp_report):
    end = end_algebra(cusp_ctx).algebra
    assert end.dim == 2
    assert end.radical().dim == 1
    assert cusp_report.verdict is False
    print("criterion 7: PASS - commutative plane with w = x^2: dim 2, "
          "radical 1, verdict no")


def test_criterion_08_positive_control(node_report, nodeq_report):
    assert node_report.verdict is True
    mcm = node_report.stage("mcm-classification").data
    summands = mcm["summands"]
    assert len(summands) == 2
    assert sorted(s["annihilator"] for s in summands) == ["x+i*y", "x-i*y"]
    assert nodeq_report.verdict is True
    assert nodeq_report.stage("idempotents").status == "warning"
    assert any("does not split" in w for w in nodeq_report.warnings)
    print("criterion 8: PASS - plane with w = x^2+y^2: split over Q(i) "
          "into 2 classes, NonSplit over Q, verdict yes both ways")


def test_criterion_09_syzygy_shift(golden_module, golden_cls, golden_ctx):
    for n in range(1, 7):
        assert golden_module.level(n).rel_space.dim == \
            golden_module.graded_dim(n - 1)
    ev = syzygy_shift_evidence(golden_cls, golden_ctx.quotient, 6)
    assert ev.dims_ok and ev.permutation_ok
    assert sorted(ev.permutation) == [0, 1, 2, 3]
    print("criterion 9: PASS - dim of the syzygy matches the module one "
          "degree lower for 1 <= n <= 6; annihilators match under shift")


def test_criterion_10_preresolution(golden_cls, golden_ctx, golden_end):
    table = preresolution_table(
        [info.module for info in golden_cls.summands],
        golden_ctx.quotient, 6)
    assert table.negative_ok
    assert table.algebra.dim == 9
    assert table.corner_zero
    assert table.diagonal_dims == (1, 1, 1, 1)
    assert sum(table.diagonal_dims) == golden_end.solution.dim
    assert table.diagonal_semisimple
    assert table.gldim_le_1
    print("criterion 10: PASS - degree-0 algebra has dim 9, vanishing "
          "negative degrees, zero corner, semisimple diagonal")


def test_criterion_11_property_suites(golden_ctx, golden_end, golden_idems):
    field = golden_ctx.ambient.field
    alg = golden_end.algebra
    found, _ = golden_idems

    # idempotent laws: e*e = e, orthogonality, sum is the unit
    for i, e in enumerate(found):
        assert alg.multiply(e, e) == tuple(e)
        for j, f in enumerate(found):
            if i != j:
                zero = tuple(field.zero for _ in range(alg.dim))
                assert alg.multiply(e, f) == zero
    total = [field.zero] * alg.dim
    for e in found:
        total = [a + b for a, b in zip(total, e)]
    assert tuple(total) == alg.unit

    # subspace dimension formula on 200 random pairs
    rng = SmallRng(11)

    def random_rows(k, width):
        return [[gauss(field, rng.small_coeff(), rng.small_coeff())
                 for _ in range(width)] for _ in range(k)]

    for _ in range(200):
        u = Subspace.span(field, 6, random_rows(rng.next_int(4) + 1, 6))
        w = Subspace.span(field, 6, random_rows(rng.next_int(4) + 1, 6))
        assert u.intersect(w).dim + (u + w).dim == u.dim + w.dim

    # associativity of multiplication on random degree-1 triples
    quotient = golden_ctx.quotient
    for _ in range(25):
        a, b, c = (tuple(gauss(field, rng.small_coeff(), rng.small_coeff())
                         for _ in range(3)) for _ in range(3))
        ab = quotient.multiply(1, a, 1, b)
        bc = quotient.multiply(1, b, 1, c)
        assert quotient.multiply(2, ab, 1, c) == \
            quotient.multiply(1, a, 2, bc)

    # rref idempotence: a canonical basis re-reduces to itself
    for _ in range(30):
        span = Subspace.span(field, 7, random_rows(rng.next_int(5) + 1, 7))
        again = Subspace.span(field, 7, [list(r) for r in span.basis])
        assert canon(again) == canon(span)

    print("criterion 11: PASS - idempotent laws, dimension formula on "
          "200 pairs, associativity, rref idempotence, all exact")
