"""quadratic.right_action against the word walk, row by row.

Row i of right_action(owner, n, terms) must be the class of basis vector i
times the element a that terms lists, and the word walk of
tests/helpers.py gives that class letter by letter through the owner's
generator tables: for the algebra A and its dual (the stable_dual_algebra
path), and for the syzygy module M and one of its cyclic summands (the
hom_space path).  QuadraticPresentation.multiply and
GradedModule.mult_by_element combine right_action rows, so they are no
reference here.  Elements of degree 1 to 3 carry at least one zero
coefficient, so the terms skip a word; the element of degree 0 is a
nonzero scalar.  The degree-1 relation of the summand acts by zero on its
generator, so its letters cancel and the row must come out empty.
The inputs run over Q(i) and over Q[t]/(t^2+1).
"""

import pathlib
from functools import lru_cache

import pytest

from helpers import gauss, idempotent_matrices, load_context, word_walk

from ncquadric import GradedModule, SmallRng, end_algebra, idempotent_summand
from ncquadric.quadratic import right_action

ROOT = pathlib.Path(__file__).resolve().parent.parent
INPUTS = {"quadric3": "inputs/quadric3.pres",
          "skew3": "bench/corpus/skew3.pres"}
OWNERS = ("algebra", "dual", "module", "summand")


@lru_cache(maxsize=None)
def owners(name):
    """owner name -> (owner, the algebra acting on it)."""
    ctx = load_context(ROOT / INPUTS[name], bound=6)
    alg, dual = ctx.quotient, ctx.quotient_dual
    end = end_algebra(ctx)
    _, pres = idempotent_summand(end.module, idempotent_matrices(end)[0])
    assert pres.rank == 1
    summand = GradedModule(alg, pres)
    return {"algebra": (alg, alg), "dual": (dual, dual),
            "module": (end.module, alg), "summand": (summand, alg)}


def sample_element(field, rng, dim):
    """Coordinates of an element of a piece of size dim: nonzero scalars,
    with one coordinate set to zero when dim > 1."""
    coords = []
    for _ in range(dim):
        c = field.zero
        while not c:
            c = gauss(field, rng.small_coeff(), rng.small_coeff())
        coords.append(c)
    if dim > 1:
        coords[rng.next_int(dim)] = field.zero
    return coords


@pytest.mark.parametrize("owner_name", OWNERS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_right_action_rows_match_the_word_walk(name, owner_name):
    owner, alg = owners(name)[owner_name]
    field = alg.field
    zero, one = field.zero, field.one
    rng = SmallRng(sum(map(ord, name + owner_name)))
    for k in range(4):
        coords = sample_element(field, rng, alg.graded_dim(k))
        assert any(coords) and (len(coords) == 1 or not all(coords))
        terms = [(w, c) for w, c in zip(alg.basis_words(k), coords) if c]
        for n in range(4):
            rows = right_action(owner, n, terms)
            dim, up = owner.graded_dim(n), owner.graded_dim(n + k)
            assert len(rows) == dim
            for i, row in enumerate(rows):
                assert all(row.values()) and all(0 <= t < up for t in row)
                unit = tuple(one if t == i else zero for t in range(dim))
                got = tuple(row.get(t, zero) for t in range(up))
                assert got == word_walk(owner, n, unit, k, coords), (n, k, i)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_right_action_drops_cancelled_entries(name):
    # the degree-1 relation x of the summand kills its generator, so the
    # letters of x cancel in every entry of the one row in degree 0
    summand, alg = owners(name)["summand"]
    (x,) = summand.presentation.relations
    terms = [(w, c) for w, c in zip(alg.basis_words(1), x) if c]
    assert len(terms) >= 2
    assert right_action(summand, 0, terms) == [{}]
