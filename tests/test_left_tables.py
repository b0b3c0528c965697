"""The left tables of an algebra and the products read off them.

QuadraticPresentation.left_tables(n)[l][j] is the class of x_l times basis
word j of A_n: A_(n+1) is degree n of the augmentation module, so x_l.w_j
is its column l*dim A_n + j.  The word walk of tests/helpers.py is the
independent reference: x_l acts first, then each letter of the word
through the right tables.  The check runs on the quotient A and its dual
A^! of every input and corpus file, through degree 6.  is_central_deg2
asks whether the class of w in A_2 lies in the span of central_deg2, read
off the left and right tables of A_2; the V^(x)3 projection it replaced is
the reference there.
"""

import pathlib

import pytest

from helpers import is_central_by_projection, load_context, word_walk

from ncquadric import QuadraticPresentation, SmallRng, parse_file
from ncquadric.quadratic import dense_class

ROOT = pathlib.Path(__file__).resolve().parent.parent
INPUTS = sorted(str(p.relative_to(ROOT)) for p in
                [*(ROOT / "inputs").glob("*.pres"),
                 *(ROOT / "bench" / "corpus").glob("*.pres")])
# S is commutative on the other inputs, so every degree-2 element is central
NONCOMMUTATIVE = {"inputs/quadric3.pres", "bench/corpus/skew3.pres",
                  "bench/corpus/skew4.pres", "bench/corpus/skew4q.pres"}
BOUND = 6


def unit(field, i, dim):
    return tuple(field.one if t == i else field.zero for t in range(dim))


@pytest.mark.parametrize("side", ["quotient", "dual"])
@pytest.mark.parametrize("path", INPUTS)
def test_left_tables_match_the_word_walk(path, side):
    ctx = load_context(ROOT / path, bound=BOUND)
    alg = ctx.quotient if side == "quotient" else ctx.quotient_dual
    field, g = alg.field, alg.gdim
    for n in range(BOUND + 1):
        left = alg.left_tables(n)
        dim, up = alg.graded_dim(n), alg.graded_dim(n + 1)
        assert len(left) == g and all(len(t) == dim for t in left)
        for l in range(g):
            x = unit(field, l, g)
            for j, cls in enumerate(left[l]):
                assert all(c for _, c in cls)
                got = dense_class(cls, up, field.zero)
                assert got == word_walk(alg, 1, x, n, unit(field, j, dim)), \
                    (n, l, j)


@pytest.mark.parametrize("path", INPUTS)
def test_is_central_deg2_agrees_with_the_projection(path):
    parsed = parse_file(str(ROOT / path))
    field = parsed.field
    S = QuadraticPresentation(field, parsed.generators,
                              [row for _, row in parsed.relation_rows])
    g = S.gdim
    xy = [field.zero] * (g * g)
    xy[1] = field.one
    rng = SmallRng(sum(map(ord, path)))
    seeded = [field.from_rational(rng.small_coeff()) for _ in range(g * g)]
    noncommutative = path in NONCOMMUTATIVE
    for w, central in ((parsed.central_row, True), (xy, not noncommutative),
                       (seeded, not noncommutative)):
        assert is_central_by_projection(S, w) is central
        assert S.is_central_deg2(w) is central
