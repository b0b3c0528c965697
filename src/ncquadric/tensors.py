"""Coordinates for tensor powers of the generator space.

Words over g generators index the coordinates of V^(x)n lexicographically
with the leftmost factor most significant.  In that ordering the Koszul
space C_n is the annihilator of I^!_n, the degree-n part of the ideal of
the quadratic dual, read off the classes of the words in the dual
(QuadraticPresentation.word_classes).
"""

from __future__ import annotations

from .errors import ContainmentViolated
from .linalg import Matrix, Subspace
from .quadratic import QuadraticPresentation

KOSZUL_DUAL = "dual"


def koszul_space(rel, n, g, cache=None):
    """C_n, the annihilator of the degree-n part I^!_n of the dual ideal.

    I^! is generated by R^perp inside T(V*), so under the coordinatewise
    pairing C_n = intersection of all V^(x)i (x) R (x) V^(x)j is the row
    space of the class map V^(x)n -> A^!_n, whose column at a word is the
    class of that word in the quadratic dual A^! = T(V*)/(R^perp)
    (Polishchuk-Positselski, Quadratic Algebras, ch. 1).  C_0 is the scalar
    line, C_1 the full generator space, C_2 the relations.  The word
    classes come from QuadraticPresentation.word_classes of the dual, which
    the cache keeps under KOSZUL_DUAL next to the spaces themselves.
    """
    if n < 0:
        raise ValueError("negative tensor degree")
    if cache is None:
        cache = {}
    if n in cache:
        return cache[n]
    if n == 0:
        out = Subspace.full(rel.field, 1)
    elif n == 1:
        out = Subspace.full(rel.field, g)
    elif n == 2:
        out = rel
    else:
        dual = cache.get(KOSZUL_DUAL)
        if dual is None:
            names = tuple(str(k) for k in range(g))
            dual = QuadraticPresentation(rel.field, names,
                                         rel.basis).quadratic_dual()
            cache[KOSZUL_DUAL] = dual
        rows = [{} for _ in range(dual.graded_dim(n))]
        for word, cls in enumerate(dual.word_classes(n)):
            for t, c in cls:
                rows[t][word] = c
        out = Subspace._span_sparse(rel.field, g ** n, rows)
    cache[n] = out
    return out


def koszul_transition(rel, d, g, cache=None):
    """Basis of C_(d+1) written over the basis {c_k (x) v_l} of C_d (x) V."""
    lower = koszul_space(rel, d, g, cache)
    upper = koszul_space(rel, d + 1, g, cache)
    rows = [_coords_right(vec, lower, g) for vec in upper.sparse]
    return Matrix._from_sparse(rel.field, rows, lower.dim * g)


def _slice_coords(slices, sub, place, side):
    """Coordinates over the basis rows of sub of each sparse slice, as a
    sparse row {place(k, i): c}; ContainmentViolated if a slice escapes."""
    out = {}
    for k, piece in enumerate(slices):
        taken = sub.reduce_sparse(piece)
        if piece:
            raise ContainmentViolated(
                f"tensor slice escapes the expected {side} factor")
        for i, c in taken:
            out[place(k, i)] = c
    return out


def _coords_right(vec, left, g):
    """Sparse coordinates of a sparse vector of W (x) V over c_i (x) v_k."""
    slices = [{} for _ in range(g)]
    for col, x in vec.items():
        p, k = divmod(col, g)
        slices[k][p] = x
    return _slice_coords(slices, left, lambda k, i: i * g + k, "left")


def _coords_left(vec, right, g):
    """Sparse coordinates of a sparse vector of V (x) W over v_k (x) c_i."""
    amb, dim = right.ambient_dim, right.dim
    slices = [{} for _ in range(g)]
    for col, x in vec.items():
        k, p = divmod(col, amb)
        slices[k][p] = x
    return _slice_coords(slices, right, lambda k, i: k * dim + i, "right")


def check_koszul_nesting(rel, n, g, cache=None):
    """Check that C_n lies in both C_(n-1) (x) V and V (x) C_(n-1).

    Raises ContainmentViolated otherwise.  Each C_n is read off the dual on
    its own, so the nesting is an independent check of that construction.
    """
    lower = koszul_space(rel, n - 1, g, cache)
    for vec in koszul_space(rel, n, g, cache).sparse:
        _coords_right(vec, lower, g)
        _coords_left(vec, lower, g)
