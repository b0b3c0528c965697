"""hom_space against the per-unit word walk it replaced.

The reference builds the condition matrix one column at a time: each unit
vector of the target level is multiplied by the relation coefficients
with the word walk of tests/helpers.py, and the maps are the dense
kernel.  The sparse construction must give the same basis for every
degree from -3 to the bound, for every ordered pair of modules.
"""

import pathlib

from helpers import dense_kernel, gauss, load_context, word_walk

from ncquadric import (GradedModule, ModulePresentation, classify_mcm,
                       end_algebra, free_module, hom_space,
                       syzygy_presentation)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def reference_hom_space(P, Q, n):
    field = Q.field
    g = Q.algebra.gdim
    rank = P.presentation.rank
    b, up = Q.graded_dim(n), Q.graded_dim(n + 1)
    total = rank * b
    rows = []
    for vec in P.presentation.relations:
        cols = [[field.zero] * up for _ in range(total)]
        for alpha in range(rank):
            coeffs = vec[alpha * g:(alpha + 1) * g]
            if not any(coeffs):
                continue
            for j in range(b):
                unit = tuple(field.one if t == j else field.zero
                             for t in range(b))
                img = word_walk(Q, n, unit, 1, coeffs)
                cols[alpha * b + j] = list(img)
        for p in range(up):
            rows.append([cols[c][p] for c in range(total)])
    return tuple(tuple(tuple(row[alpha * b:(alpha + 1) * b])
                       for alpha in range(rank))
                 for row in dense_kernel(field, rows, total))


def idempotent_matrices(ctx):
    end = end_algebra(ctx)
    mats = []
    for coords in end.algebra.primitive_idempotents(seed=0):
        mat = None
        for c, bm in zip(coords, end.basis_matrices):
            term = bm.scale(c)
            mat = term if mat is None else mat + term
        mats.append(mat)
    return mats


def summand_presentations(ctx, module, bound):
    classes = classify_mcm(module, idempotent_matrices(ctx), ctx.quotient,
                           bound)
    return [info.presentation for info in classes.summands]


def assert_same_homs(ctx, presentations, bound):
    algebra = ctx.quotient
    modules = [GradedModule(algebra, p) for p in presentations]
    modules.append(free_module(algebra))
    maps = 0
    for source in modules:
        for target in modules:
            for n in range(-3, bound + 1):
                got = hom_space(source, target, n)
                assert got == reference_hom_space(source, target, n), n
                maps += len(got)
    assert maps > 0


def test_hom_space_matches_unit_walk_golden(golden_ctx, golden_module):
    bound = 5
    field = golden_ctx.quotient.field
    summands = summand_presentations(golden_ctx, golden_module, bound)
    assert golden_ctx.quotient.hilbert(3) == [1, 3, 5, 7]

    def row(*ints):
        return tuple(gauss(field, c) for c in ints)

    # two modules that are no summands of M: on two generators, one
    # relation mixing both and one with a zero block; on three, a chain of
    # two relations, each with a zero block
    mixed = ModulePresentation(2, (
        row(1, 0, 2, 0, -1, 0),
        row(0, 0, 0, 0, 0, 1),
    ))
    chain = ModulePresentation(3, (
        row(1, 0, 0, 0, -1, 0, 0, 0, 0),
        row(0, 0, 0, 0, 0, 1, -2, 0, 1),
    ))
    assert_same_homs(golden_ctx, [golden_module.presentation, summands[0],
                                  summands[1], mixed, chain], bound)


def test_hom_space_matches_unit_walk_skew4():
    bound = 4
    ctx = load_context(ROOT / "bench" / "corpus" / "skew4.pres", bound=bound)
    module = GradedModule(ctx.quotient, syzygy_presentation(ctx))
    summands = summand_presentations(ctx, module, bound)
    assert_same_homs(ctx, summands[:2], bound)
