from collections import Counter
from fractions import Fraction

import pytest

import oracle as O
from conftest import ROOT
from helpers import (class_coords, flatten_matrix, gauss, idempotent_matrices,
                     load_context, module_graded_dim, normalize_line,
                     pairwise_preresolution_solution, project,
                     reference_idempotent_summand,
                     reference_preresolution_dims, representative,
                     rows_pairs, vec_pairs)

from ncquadric import (AdditivityViolated, AlgebraError, GradedModule,
                       Matrix, ModulePresentation, SmallRng, Subspace,
                       classify_mcm, direct_sum,
                       end_algebra, end_algebra_of, free_module,
                       hom_graded, hom_space, identify_cyclic_quotient,
                       idempotent_summand, linear_string, parse_file,
                       pipeline, preresolution_table, run_pipeline,
                       syzygy_presentation, syzygy_shift_evidence)

ANNIHILATORS = {"y+i*z", "y-i*z", "x+z", "x-z"}


@pytest.fixture(scope="module")
def golden_idem_matrices(golden_end):
    idems = golden_end.algebra.primitive_idempotents(seed=0)
    mats = []
    for coords in idems:
        mat = None
        for c, bm in zip(coords, golden_end.basis_matrices):
            term = bm.scale(c)
            mat = term if mat is None else mat + term
        mats.append(mat)
    return mats


@pytest.fixture(scope="module")
def golden_classification(golden_module, golden_idem_matrices, golden_ctx):
    return classify_mcm(golden_module, golden_idem_matrices,
                        golden_ctx.quotient, 6)


def oracle_golden_rels(golden_ctx):
    return rows_pairs(golden_ctx.quotient.relation_space.basis)


def test_module_dims_match_cyclic_decomposition(golden_module, golden_ctx):
    dims = [golden_module.graded_dim(n) for n in range(7)]
    assert dims == [4, 8, 12, 16, 20, 24, 28]
    # independent check: the module decomposes into the four cyclic
    # quotients, so its dims are the sum of theirs
    o_rels = oracle_golden_rels(golden_ctx)
    units = [[O.ZERO, O.ONE, O.IMAG],                # y + iz
             [O.ZERO, O.ONE, O.neg(O.IMAG)],         # y - iz
             [O.ONE, O.ZERO, O.ONE],                 # x + z
             [O.ONE, O.ZERO, O.neg(O.ONE)]]          # x - z
    total = [0] * 5
    for u in units:
        qd = O.right_ideal_quotient_dims(o_rels, u, 4, 3)
        assert qd == [1, 2, 3, 4, 5]
        total = [a + b for a, b in zip(total, qd)]
    assert dims[:5] == total


def test_free_module(golden_ctx):
    fm = free_module(golden_ctx.quotient)
    assert [fm.graded_dim(n) for n in range(5)] == \
        golden_ctx.quotient.hilbert(4)
    assert module_graded_dim(fm.presentation, golden_ctx.quotient, 3) == 7


def test_presentation_validation(golden_ctx):
    # a relation row lies in (generators) (x) V, of length rank * 3 here
    one = golden_ctx.ambient.field.one
    for bad in (ModulePresentation(1, ((one,),)),
                ModulePresentation(2, ((one,) * 3,)),
                ModulePresentation(1, ((one,) * 3, (one,) * 6))):
        with pytest.raises(ValueError, match="wrong length"):
            GradedModule(golden_ctx.quotient, bad)


def test_idempotent_summand(golden_ctx, golden_module,
                            golden_idem_matrices):
    field = golden_ctx.ambient.field
    mat = golden_idem_matrices[0]
    image = [[mat.entry(r, c) for r in range(4)] for c in range(4)]
    img, pres = idempotent_summand(golden_module, mat)
    assert img == Subspace.span(field, 4, image)
    assert img.dim == 1
    gm = GradedModule(golden_ctx.quotient, pres)
    assert [gm.graded_dim(n) for n in range(5)] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("path, count, rank", [
    ("inputs/quadric3.pres", 4, 1),
    ("bench/corpus/skew4.pres", 8, 1),
    ("bench/corpus/comm4.pres", 4, 2),
])
def test_closed_form_summands_match_the_kernel_search(path, count, rank):
    ctx = load_context(ROOT / path, bound=6)
    end = end_algebra(ctx)
    mats = idempotent_matrices(end)
    assert len(mats) == count
    for mat in mats:
        image, pres = idempotent_summand(end.module, mat)
        assert image.dim == rank
        got = GradedModule(ctx.quotient, pres)
        want = GradedModule(ctx.quotient,
                            reference_idempotent_summand(end.module, image)[0])
        for n in range(7):
            assert got.level(n).rel_space == want.level(n).rel_space, n


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("path", [
    "inputs/node.pres", "inputs/node_t4.pres", "inputs/quadric3.pres",
    "bench/corpus/comm4.pres", "bench/corpus/skew3.pres",
    "bench/corpus/skew4.pres"])
def test_every_summand_is_linear(path, seed):
    # a module is a rank and its degree-1 relations: that rests on every
    # summand e.M of M being linear.  The kernel search runs through degree
    # 3, and no kernel row of degree 2 or 3 escapes the translates of the
    # degree-1 relations, which span the relations of the closed-form cut.
    # The files are those whose End(M) splits (the others raise NonSplit
    # or NotSemisimple at both seeds)
    ctx = load_context(ROOT / path, bound=6)
    end = end_algebra(ctx)
    field = ctx.quotient.field
    for mat in idempotent_matrices(end, seed=seed):
        image, pres = idempotent_summand(end.module, mat)
        want, escapes = reference_idempotent_summand(end.module, image)
        assert escapes == ()
        size = image.dim * ctx.quotient.gdim
        assert Subspace.span(field, size, [list(r) for r in pres.relations]) \
            == Subspace.span(field, size, [list(r) for r in want.relations])


def test_the_kernel_search_reports_a_relation_of_degree_2(golden_ctx):
    # (1, 1) in A/xA (+) A/yA is killed by xA meet yA, which starts in
    # degree 2: the submodule it generates is not linear, and the kernel
    # search says so
    alg = golden_ctx.quotient
    field = alg.field
    x, y = word_class(alg, 0), word_class(alg, 1)
    parent = direct_sum([cyclic_quotient(alg, x), cyclic_quotient(alg, y)])
    diagonal = Subspace.span(field, 2, [[field.one, field.one]])
    pres, escapes = reference_idempotent_summand(parent, diagonal)
    assert pres.relations == ()
    assert escapes and {e for e, _ in escapes} <= {2, 3}
    assert 2 in {e for e, _ in escapes}


def test_idempotent_summand_rejects_a_non_idempotent(golden_module):
    field = golden_module.field
    twice = Matrix.identity(field, 4).scale(2)
    with pytest.raises(AlgebraError, match="not idempotent"):
        idempotent_summand(golden_module, twice)


def test_idempotent_summand_rejects_a_projection_that_is_no_endomorphism(
        golden_end, golden_module):
    # the projection onto the first generator is idempotent, but it does
    # not keep the relations of the module
    field = golden_module.field
    proj = Matrix(field, [[1 if (r, c) == (0, 0) else 0 for c in range(4)]
                          for r in range(4)])
    assert proj * proj == proj
    assert not golden_end.solution.contains(flatten_matrix(proj))
    with pytest.raises(AlgebraError, match="not an endomorphism"):
        idempotent_summand(golden_module, proj)


def test_classify_mcm_rejects_an_incomplete_family(golden_ctx, golden_module,
                                                   golden_idem_matrices):
    with pytest.raises(AdditivityViolated):
        classify_mcm(golden_module, golden_idem_matrices[:-1],
                     golden_ctx.quotient, 6)


def test_classification(golden_classification):
    cls = golden_classification
    assert cls.additivity_ok
    assert len(cls.summands) == 4
    for info in cls.summands:
        assert info.hilbert == (1, 2, 3, 4, 5, 6, 7)
        assert info.cyclic.matched


def test_classification_annihilators(golden_classification, golden_ctx):
    names = golden_ctx.ambient.generators
    got = {linear_string(names, normalize_line(info.cyclic.element))
           for info in golden_classification.summands}
    assert got == ANNIHILATORS


def test_identify_cyclic_negative(golden_ctx):
    two_gens = ModulePresentation(2, ())
    match = identify_cyclic_quotient(
        GradedModule(golden_ctx.quotient, two_gens))
    assert not match.matched
    assert "degree-0" in match.reason


def cyclic_quotient(alg, *relations):
    """The cyclic module A/(relations), each a degree-1 class row."""
    return GradedModule(alg, ModulePresentation(1, relations))


def word_class(alg, *letters):
    """Class in A of the word on the given letter indices."""
    g = alg.gdim
    vec = [alg.field.zero] * g ** len(letters)
    q = 0
    for l in letters:
        q = q * g + l
    vec[q] = alg.field.one
    return project(alg, len(letters), vec)


def test_identify_cyclic_rejects_a_two_dimensional_annihilator(golden_ctx):
    alg = golden_ctx.quotient
    x, y = word_class(alg, 0), word_class(alg, 1)
    match = identify_cyclic_quotient(cyclic_quotient(alg, x, y))
    assert not match.matched
    assert match.element is None
    assert match.reason == "degree-1 annihilator has dimension 2"


@pytest.mark.parametrize("path", ["inputs/quadric3.pres",
                                  "bench/corpus/skew3.pres",
                                  "bench/corpus/skew4.pres"])
def test_cyclic_summands_have_the_dimensions_of_a_built_quotient(path):
    bound = 6
    ctx = load_context(ROOT / path, bound=bound)
    end = end_algebra(ctx)
    cls = classify_mcm(end.module, idempotent_matrices(end), ctx.quotient,
                       bound)
    for info in cls.summands:
        assert info.cyclic.matched
        assert info.presentation.relations == (info.cyclic.element,)
        built = cyclic_quotient(ctx.quotient, info.cyclic.element)
        assert info.hilbert == tuple(built.hilbert(bound))


def test_syzygy_shift(golden_classification, golden_ctx):
    ev = syzygy_shift_evidence(golden_classification, golden_ctx.quotient, 6)
    assert ev.dims_ok
    assert [r[1] for r in ev.rows] == [r[2] for r in ev.rows]
    assert ev.rows[0][1] == 4
    assert ev.permutation == (0, 1, 2, 3)
    assert ev.permutation_ok


@pytest.mark.parametrize(
    "path", sorted((ROOT / "inputs").glob("*.pres"))
    + sorted((ROOT / "bench" / "corpus").glob("*.pres")),
    ids=lambda p: p.name)
def test_syzygy_rows_are_the_relation_spans_of_a_fresh_module(path):
    # syzygy-shift reads M's Hilbert function off the classification and
    # derives dim Omega(M)_n = dim M_0 * dim A_n - dim M_n; that must be the
    # span of the relation translates of M, eliminated afresh.  The identity
    # cuts M into one summand, so every input has a classification
    ctx = load_context(path, bound=8)
    pres = syzygy_presentation(ctx)
    field = ctx.quotient.field
    m = pres.rank
    ident = Matrix(field, [[field.one if i == j else field.zero
                            for j in range(m)] for i in range(m)], ncols=m)
    cls = classify_mcm(GradedModule(ctx.quotient, pres), [ident],
                       ctx.quotient, 8)
    ev = syzygy_shift_evidence(cls, ctx.quotient, 8)
    fresh = GradedModule(ctx.quotient, pres)
    assert [row[0] for row in ev.rows] == list(range(1, 9))
    assert [row[1] for row in ev.rows] == [fresh.level(n).rel_space.dim
                                           for n in range(1, 9)]
    assert [row[2] for row in ev.rows] == fresh.hilbert(7)


def test_no_stage_reads_the_module_after_its_classification(golden_parsed,
                                                            monkeypatch):
    # once classify_mcm has cut M, any read of M's levels fails the run
    classify = pipeline.classify_mcm

    def classify_then_seal(parent, *args):
        cls = classify(parent, *args)

        def sealed(n):
            raise AssertionError(f"M_{n} read after mcm-classification")

        parent.level = sealed
        return cls

    monkeypatch.setattr(pipeline, "classify_mcm", classify_then_seal)
    report = run_pipeline(golden_parsed, degree=6, seed=0)
    assert report.stage("syzygy-shift").status == "ok"
    assert report.stage("preresolution").status == "ok"
    assert report.exit_code == 0


def test_node_classification(node_ctx):
    end = end_algebra(node_ctx)
    idems = end.algebra.primitive_idempotents(seed=0)
    mats = []
    for coords in idems:
        mat = None
        for c, bm in zip(coords, end.basis_matrices):
            term = bm.scale(c)
            mat = term if mat is None else mat + term
        mats.append(mat)
    module = GradedModule(node_ctx.quotient, syzygy_presentation(node_ctx))
    cls = classify_mcm(module, mats, node_ctx.quotient, 6)
    assert len(cls.summands) == 2
    names = node_ctx.ambient.generators
    got = {linear_string(names, normalize_line(info.cyclic.element))
           for info in cls.summands}
    assert got == {"x+i*y", "x-i*y"}
    ev = syzygy_shift_evidence(cls, node_ctx.quotient, 6)
    assert ev.permutation == (1, 0)
    assert ev.permutation_ok


def test_hom_space_free_target(golden_ctx, golden_module):
    free = free_module(golden_ctx.quotient)
    # maps from the free module are just elements of the target
    for n in range(4):
        assert hom_graded(free, free, n) == \
            golden_ctx.quotient.graded_dim(n)
        assert hom_graded(free, golden_module, n) == \
            golden_module.graded_dim(n)


def test_hom_into_free_matches_annihilator_count(golden_ctx,
                                                 golden_classification):
    # a degree-n map A/uA -> A is an element a of A_n with a*u = 0, so
    # the dimension is dim A_n minus dim (A*u)_{n+1}
    free = free_module(golden_ctx.quotient)
    o_rels = oracle_golden_rels(golden_ctx)
    info = golden_classification.summands[0]
    summand = GradedModule(golden_ctx.quotient, info.presentation)
    u = vec_pairs(info.cyclic.element)
    mult = O.left_multiples_dims(o_rels, u, 4, 3)
    adims = [1, 3, 5, 7]
    want = [adims[n] - mult[n + 1] for n in range(4)]
    got = [hom_graded(summand, free, n) for n in range(4)]
    assert got == want == [0, 1, 2, 3]
    assert got[0] == 0  # strictly triangular corner


@pytest.mark.parametrize("path", ["inputs/quadric3.pres",
                                  "bench/corpus/skew4.pres"])
def test_hom_graded_is_the_dimension_of_hom_space(path):
    # hom_graded reads a rank off the action rows, hom_space takes the
    # kernel of their transpose; both must agree on every pair and degree
    ctx = load_context(ROOT / path, bound=6)
    algebra = ctx.quotient
    field = algebra.field
    module = GradedModule(algebra, syzygy_presentation(ctx))
    _, cyclic = idempotent_summand(
        module, idempotent_matrices(end_algebra(ctx))[0])
    assert cyclic.rank == 1

    def row(size):
        # nonzero at the odd places only: a denser row makes the skew4
        # systems several times slower without reaching other code
        return tuple(field.from_rational((5 * k + 2) % 7 - 3 if k % 2 else 0)
                     for k in range(size))

    g = algebra.gdim
    presentations = [
        module.presentation,
        free_module(algebra).presentation,
        cyclic,
        ModulePresentation(1, (row(g),)),
        ModulePresentation(2, (row(2 * g),)),
    ]
    modules = [GradedModule(algebra, p) for p in presentations]
    dims = []
    for source in modules:
        for target in modules:
            for n in range(-3, 5):
                want = len(hom_space(source, target, n))
                assert hom_graded(source, target, n) == want, n
                dims.append(want)
    assert len(dims) == 200 and max(dims) > 0


def test_hom_negative_degree_vanishes(golden_ctx, golden_module):
    free = free_module(golden_ctx.quotient)
    for n in (-3, -2, -1):
        assert hom_graded(golden_module, free, n) == 0
        assert hom_graded(free, golden_module, n) == 0


def test_hom_rejects_mixed_algebras(golden_ctx, node_ctx):
    a = free_module(golden_ctx.quotient)
    b = free_module(node_ctx.quotient)
    with pytest.raises(ValueError):
        hom_space(a, b, 0)


def test_preresolution(golden_classification, golden_ctx):
    table = preresolution_table(
        [info.module for info in golden_classification.summands],
        golden_ctx.quotient, 6)
    assert table.labels == ("M1", "M2", "M3", "M4", "A")
    assert table.negative_ok
    assert table.corner_zero
    assert table.diagonal_dims == (1, 1, 1, 1)
    assert table.diagonal_semisimple
    assert table.gldim_le_1
    assert table.algebra.dim == 9
    # degree-0 algebra: triangular with 4-dim radical
    assert table.algebra.radical().dim == 4
    quo = table.algebra.quotient_by_radical()
    assert quo.dim == 5
    assert quo.is_semisimple()


@pytest.mark.parametrize("path, bound", [("inputs/quadric3.pres", 6),
                                         ("bench/corpus/skew4.pres", 4),
                                         ("inputs/node_t4.pres", 6)])
def test_preresolution_algebra_matches_the_pairwise_assembly(path, bound):
    # End(M_1 (+) ... (+) M_k (+) A)_0 from one Hom system equals the span
    # of the maps of every pair, each placed as a block
    ctx = load_context(ROOT / path, bound=bound)
    algebra = ctx.quotient
    end = end_algebra(ctx)
    presentations = [idempotent_summand(end.module, mat)[1]
                     for mat in idempotent_matrices(end)]
    modules = [GradedModule(algebra, p) for p in presentations]
    modules.append(free_module(algebra))
    want = pairwise_preresolution_solution(modules)
    got = end_algebra_of(direct_sum(modules)).solution
    assert (got.pivots, got.basis) == (want.pivots, want.basis)
    table = preresolution_table(modules[:-1], algebra, bound)
    assert table.algebra.dim == want.dim


@pytest.mark.parametrize("path, bound", [("inputs/quadric3.pres", 6),
                                         ("bench/corpus/skew4.pres", 4),
                                         ("inputs/node_t4.pres", 6),
                                         ("bench/corpus/skew3.pres", 8)])
def test_preresolution_table_matches_fresh_modules_per_column(path, bound):
    # the table reuses the modules classify_mcm keeps, levels built, as
    # sources and targets, and reads A's own tables; the earlier route
    # builds every module fresh, and a fresh target per column
    ctx = load_context(ROOT / path, bound=bound)
    end = end_algebra(ctx)
    cls = classify_mcm(end.module, idempotent_matrices(end), ctx.quotient,
                       bound)
    want = reference_preresolution_dims(
        [info.presentation for info in cls.summands], ctx.quotient, bound)
    table = preresolution_table([info.module for info in cls.summands],
                                ctx.quotient, bound)
    assert table.table == want
    # each summand lets its levels go once its column is done
    assert all(not info.module._levels for info in cls.summands)


def test_a_full_run_builds_each_summand_level_once(monkeypatch):
    # classify_mcm builds each summand's levels through the bound, and the
    # Hom table reuses them, adding the degrees below 0 and one above the
    # bound.  No (presentation, degree) level is built twice in the run:
    # the syzygy module's levels, let go after the cut, are not rebuilt
    builds = Counter()
    level = GradedModule.level

    def counted(self, n):
        if n not in self._levels:
            builds[(self.presentation, n)] += 1
        return level(self, n)

    kept = []
    classify = pipeline.classify_mcm

    def keep(*args):
        kept.append(classify(*args))
        return kept[-1]

    monkeypatch.setattr(GradedModule, "level", counted)
    monkeypatch.setattr(pipeline, "classify_mcm", keep)
    report = run_pipeline(parse_file(str(ROOT / "bench/corpus/skew4.pres")),
                          degree=4, seed=0)
    assert [s.status for s in report.stages] == ["ok"] * 13
    summands = [info.presentation for info in kept[0].summands]
    assert len(set(summands)) == 8
    for p in summands:
        assert {n: k for (q, n), k in builds.items() if q == p} == \
            {n: 1 for n in range(-3, 6)}
    assert set(builds.values()) == {1}


def two_summand_modules(ctx):
    """The syzygy module and a rank-2 module whose one relation mixes both
    generators."""
    algebra = ctx.quotient
    field = algebra.field
    row = tuple(field.from_rational((5 * k + 2) % 7 - 3 if k % 2 else 0)
                for k in range(2 * algebra.gdim))
    return (GradedModule(algebra, syzygy_presentation(ctx)),
            GradedModule(algebra, ModulePresentation(2, (row,))))


def test_direct_sum_adds_hilbert_functions(golden_ctx):
    P, Q = two_summand_modules(golden_ctx)
    total = direct_sum([P, Q])
    zero = (golden_ctx.quotient.field.zero,) * 3
    assert total.presentation.rank == 6
    assert total.presentation.relations == (
        tuple(tuple(vec) + zero * 2 for vec in P.presentation.relations)
        + (zero * 4 + Q.presentation.relations[0],))
    assert total.hilbert(5) == [p + q for p, q in
                                zip(P.hilbert(5), Q.hilbert(5))]


def test_hom_from_a_direct_sum_adds_up(golden_ctx):
    P, Q = two_summand_modules(golden_ctx)
    total = direct_sum([P, Q])
    for R in (free_module(golden_ctx.quotient), P, Q):
        for n in range(-1, 4):
            assert hom_graded(total, R, n) == (hom_graded(P, R, n)
                                               + hom_graded(Q, R, n)), n


def test_direct_sum_rejects_mixed_algebras(golden_ctx, node_ctx):
    with pytest.raises(ValueError):
        direct_sum([free_module(golden_ctx.quotient),
                    free_module(node_ctx.quotient)])


def test_preresolution_with_a_decomposable_summand_is_not_semisimple(
        golden_ctx):
    # A/xA (+) A passed as one summand: Hom_0(A/xA, A) is 0 and
    # Hom_0(A, A/xA) is the line of the generator, so End_0 of the summand
    # is triangular, and its radical is the map A -> A/xA
    algebra = golden_ctx.quotient
    field = algebra.field
    x = (field.zero, field.one, field.element((0, 1)))  # y + i*z
    cyclic = GradedModule(algebra, ModulePresentation(1, (x,)))
    summand = direct_sum([cyclic, free_module(algebra)])
    assert end_algebra_of(summand).algebra.radical().dim == 1
    table = preresolution_table([summand], algebra, 4)
    assert table.diagonal_dims == (3,)
    assert not table.diagonal_semisimple
    assert not table.gldim_le_1


def test_mult_by_element_degree_zero(golden_ctx, golden_module):
    field = golden_ctx.ambient.field
    coords = [field.one, field.zero, field.zero, field.zero]
    scaled = golden_module.mult_by_element(
        0, coords, 0, [field.from_rational(3)])
    assert tuple(scaled) == (field.from_rational(3), field.zero,
                             field.zero, field.zero)


# -- the level engine against the literal word-walk construction ----------------

ENGINE_BOUND = 6


def literal_rel_space(module, n):
    """Span of every relation times every normal word of A_(n-1), each
    product walked letter by letter through QuadraticPresentation.multiply."""
    alg, field = module.algebra, module.field
    g, size = alg.gdim, alg.graded_dim(n)
    rank = module.presentation.rank
    dim = alg.graded_dim(n - 1)
    vectors = []
    for vec in module.presentation.relations:
        for j in range(dim):
            unit = tuple(field.one if t == j else field.zero
                         for t in range(dim))
            out = [field.zero] * (rank * size)
            for alpha in range(rank):
                block = vec[alpha * g:(alpha + 1) * g]
                if any(block):
                    prod = alg.multiply(1, block, n - 1, unit)
                    for k, c in enumerate(prod):
                        out[alpha * size + k] = out[alpha * size + k] + c
            vectors.append(out)
    return Subspace.span(field, rank * size, vectors)


def literal_product(module, n, coords, k, a_coords):
    """Class of representative(n, coords) times a, blockwise in the free
    module, reduced with class_coords."""
    alg = module.algebra
    size, up = alg.graded_dim(n), alg.graded_dim(n + k)
    rep = representative(module, n, coords)
    out = [module.field.zero] * (module.presentation.rank * up)
    for alpha in range(module.presentation.rank):
        block = rep[alpha * size:(alpha + 1) * size]
        if any(block):
            prod = alg.multiply(n, block, k, a_coords)
            for t, c in enumerate(prod):
                out[alpha * up + t] = out[alpha * up + t] + c
    return class_coords(module, n + k, out)


@pytest.fixture(scope="module")
def engine_modules(golden_ctx, golden_module, golden_idem_matrices):
    """Presentations of the golden parent, one of its summands, and a rank-2
    module that is no summand of it: one relation mixes both generators,
    one has a zero block."""
    alg = golden_ctx.quotient
    field = alg.field
    _, summand = idempotent_summand(golden_module, golden_idem_matrices[0])

    def row(*ints):
        return tuple(gauss(field, c) for c in ints)

    mixed = ModulePresentation(2, (
        row(1, 0, 2, 0, -1, 0),                  # g0*(x+2z) = g1*y
        row(0, 0, 0, 0, 0, 1),                   # g1*z = 0
    ))
    assert alg.gdim == 3
    return {"parent": golden_module.presentation, "summand": summand,
            "mixed": mixed}


@pytest.mark.parametrize("name", ["parent", "summand", "mixed"])
def test_levels_match_literal_word_products(golden_ctx, engine_modules, name):
    pres = engine_modules[name]
    module = GradedModule(golden_ctx.quotient, pres)
    for n in range(ENGINE_BOUND + 3):
        want = literal_rel_space(module, n)
        assert module.level(n).rel_space == want, n
    in_order = GradedModule(golden_ctx.quotient, pres)
    for n in range(9):
        in_order.level(n)
    shuffled = GradedModule(golden_ctx.quotient, pres)
    for n in (8, 3, 5):
        got, want = shuffled.level(n), in_order.level(n)
        assert got.rel_space == want.rel_space, n
        assert got.free_cols == want.free_cols, n


@pytest.mark.parametrize("name", ["parent", "summand", "mixed"])
def test_action_tables_match_literal_products(golden_ctx, engine_modules,
                                              name):
    alg = golden_ctx.quotient
    field = alg.field
    module = GradedModule(alg, engine_modules[name])
    rng = SmallRng(sum(map(ord, name)))

    def random_vec(size):
        return tuple(gauss(field, rng.small_coeff(), rng.small_coeff())
                     for _ in range(size))

    for n in range(5):
        coords = random_vec(module.graded_dim(n))
        for k in range(3):
            a = random_vec(alg.graded_dim(k))
            assert module.mult_by_element(n, coords, k, a) == \
                literal_product(module, n, coords, k, a)
