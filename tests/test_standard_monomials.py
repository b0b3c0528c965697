"""The basis words of A_n are the standard monomials of the ideal I_n.

oracle.rref takes the leftmost column of each row as its pivot, and the
columns of V^(x)n are the words in lex order, so the words off the pivots of
the placement span of I_n (oracle.ideal_vectors) are the words that lead no
element of I_n.  The package reaches A_n another way, one degree at a time
as a level of the augmentation module, and must list the same words, in the
same order.  The check runs on the quotient A and its dual A^! of every
input, corpus and Sklyanin file over Q or Q(i), through degree 4 for two
or three generators and degree 3 for four.
"""

import pathlib

import pytest

import oracle as O
from helpers import index_word, load_context, rows_pairs

from ncquadric import parse_file

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(str(p.relative_to(ROOT)) for p in
               [*(ROOT / "inputs").glob("*.pres"),
                *(ROOT / "bench" / "corpus").glob("*.pres"),
                *(ROOT / "tests" / "data").glob("*.pres")]
               if parse_file(str(p)).field.describe() in ("Q", "Q(i)"))


@pytest.mark.parametrize("side", ["quotient", "dual"])
@pytest.mark.parametrize("path", FILES)
def test_basis_words_are_the_standard_monomials(path, side):
    depth = 4 if len(parse_file(str(ROOT / path)).generators) < 4 else 3
    ctx = load_context(ROOT / path, bound=depth)
    alg = ctx.quotient if side == "quotient" else ctx.quotient_dual
    g = alg.gdim
    rel_rows = rows_pairs(alg.relation_space.basis)
    for n in range(depth + 1):
        _, pivots = O.rref(O.ideal_vectors(rel_rows, n, g))
        lead = set(pivots)
        assert alg.basis_words(n) == tuple(
            index_word(c, n, g) for c in range(g ** n) if c not in lead), n
