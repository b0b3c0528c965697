import pytest

import oracle as O
from helpers import (all_words, index_word, rows_pairs, tensor_coords_left,
                     tensor_coords_right, tensor_vector_from_coords,
                     word_index)

from ncquadric import (ContainmentViolated, Field, QuadraticPresentation,
                       Subspace, build_context, parse_source)
from ncquadric.tensors import (check_koszul_nesting, koszul_space,
                               koszul_transition)


def test_word_index_roundtrip():
    for g in (2, 3):
        for n in (0, 1, 2, 3):
            ws = all_words(n, g)
            assert len(ws) == g ** n
            for w in ws:
                assert index_word(word_index(w, g), n, g) == w


def test_word_index_leftmost_significant():
    # word (a, b, c) -> a*g^2 + b*g + c
    assert word_index((1, 0, 2), 3) == 11
    assert word_index((2,), 3) == 2


@pytest.fixture(scope="module")
def golden_rel(golden_ctx_mod):
    return golden_ctx_mod.quotient.relation_space


@pytest.fixture(scope="module")
def golden_ctx_mod():
    import pathlib
    from helpers import load_context
    root = pathlib.Path(__file__).resolve().parent.parent
    return load_context(root / "inputs" / "quadric3.pres", bound=6)


def test_koszul_recursion_equals_literal_intersection(golden_rel):
    o_rels = rows_pairs(golden_rel.basis)
    cache = {}
    for n in (2, 3, 4):
        got = koszul_space(golden_rel, n, 3, cache)
        want = O.koszul_literal(o_rels, n, 3)
        assert got.dim == len(want)
        canon, _ = O.rref(rows_pairs(got.basis))
        assert canon == want


def test_koszul_small_degrees(golden_rel):
    assert koszul_space(golden_rel, 0, 3).dim == 1
    assert koszul_space(golden_rel, 1, 3).dim == 3
    assert koszul_space(golden_rel, 2, 3) == golden_rel


def test_koszul_space_does_not_depend_on_cache_order(golden_rel):
    fresh = [koszul_space(golden_rel, n, 3) for n in (3, 4, 5)]
    cache = {}
    descending = [koszul_space(golden_rel, n, 3, cache) for n in (5, 4, 3)]
    assert descending[::-1] == fresh


def test_transition_shape_and_consistency(golden_rel):
    cache = {}
    t = koszul_transition(golden_rel, 2, 3, cache)
    lower = koszul_space(golden_rel, 2, 3, cache)
    upper = koszul_space(golden_rel, 3, 3, cache)
    assert (t.nrows, t.ncols) == (4, 12)
    # each row reassembles to the corresponding basis vector of C_3
    for r in range(t.nrows):
        coords = [t.entry(r, c) for c in range(t.ncols)]
        vec = tensor_vector_from_coords(coords, lower, 3)
        assert list(vec) == list(upper.basis[r])


def test_transition_commutative_plane_row():
    # k[x,y] with the node quadric: C_2 has the commutator row (0,1,-1,0)
    Qi = Field.gaussian()
    one, z = Qi.one, Qi.zero
    rel = Subspace.span(Qi, 4, [[z, one, -one, z], [one, z, z, one]])
    t = koszul_transition(rel, 1, 2)
    rows = [tuple(str(t.entry(r, c)) for c in range(4))
            for r in range(t.nrows)]
    assert ("0", "1", "-1", "0") in rows


def test_tensor_coords_roundtrip(golden_rel):
    cache = {}
    upper = koszul_space(golden_rel, 3, 3, cache)
    lower = koszul_space(golden_rel, 2, 3, cache)
    for vec in upper.basis:
        coords = tensor_coords_right(list(vec), lower, 3)
        back = tensor_vector_from_coords(coords, lower, 3)
        assert list(back) == list(vec)


def test_tensor_coords_escape(golden_rel):
    field = golden_rel.field
    bad = [field.zero] * 27
    bad[0] = field.one  # x(x)x(x)x is not in R (x) V
    with pytest.raises(ContainmentViolated):
        tensor_coords_right(bad, golden_rel, 3)
    with pytest.raises(ValueError):
        tensor_coords_right([field.zero] * 10, golden_rel, 3)


def test_tensor_coords_left_roundtrip(golden_rel):
    cache = {}
    upper = koszul_space(golden_rel, 3, 3, cache)
    lower = koszul_space(golden_rel, 2, 3, cache)
    for vec in upper.basis:
        coords = tensor_coords_left(list(vec), lower, 3)
        back = [lower.field.zero] * 27
        for k in range(3):
            for i, row in enumerate(lower.basis):
                c = coords[k * lower.dim + i]
                for p in range(9):
                    back[k * 9 + p] = back[k * 9 + p] + c * row[p]
        assert back == list(vec)
    bad = [golden_rel.field.zero] * 27
    bad[0] = golden_rel.field.one
    with pytest.raises(ContainmentViolated):
        tensor_coords_left(bad, golden_rel, 3)
    with pytest.raises(ValueError):
        tensor_coords_left(bad[:10], golden_rel, 3)


def test_nesting_check_passes_and_catches_a_corrupt_space(golden_rel):
    cache = {}
    for n in (3, 4, 5):
        check_koszul_nesting(golden_rel, n, 3, cache)
    # same dimension, wrong space: the first four standard words
    one, z = golden_rel.field.one, golden_rel.field.zero
    cache[4] = Subspace.span(golden_rel.field, 81, [
        [one if c == k else z for c in range(81)] for k in range(4)])
    with pytest.raises(ContainmentViolated):
        check_koszul_nesting(golden_rel, 4, 3, cache)


FOUR_GENERATOR_QUOTIENTS = {
    "anticommuting": "field = Q(i)\nvars = x, y, z, u\n"
                     "rel = x*y + y*x\nrel = x*z + z*x\nrel = x*u + u*x\n"
                     "rel = y*z + z*y\nrel = y*u + u*y\nrel = z*u + u*z\n"
                     "central = x*x + y*y + z*z + u*u\n",
    "commutative": "field = Q(i)\nvars = x, y, z, u\n"
                   "rel = x*y - y*x\nrel = x*z - z*x\nrel = x*u - u*x\n"
                   "rel = y*z - z*y\nrel = y*u - u*y\nrel = z*u - u*z\n"
                   "central = x*x + y*y + z*z + u*u\n",
}


@pytest.mark.parametrize("name", sorted(FOUR_GENERATOR_QUOTIENTS))
def test_koszul_space_equals_literal_intersection_g4(name):
    parsed = parse_source(FOUR_GENERATOR_QUOTIENTS[name])
    ambient = QuadraticPresentation(parsed.field, parsed.generators,
                                    [row for _, row in parsed.relation_rows])
    rel = build_context(ambient, parsed.central_row,
                        bound=4).quotient.relation_space
    o_rels = rows_pairs(rel.basis)
    cache = {}
    for n in (2, 3):
        got = koszul_space(rel, n, 4, cache)
        want = O.koszul_literal(o_rels, n, 4)
        assert got.dim == len(want)
        assert O.rref(rows_pairs(got.basis))[0] == want
