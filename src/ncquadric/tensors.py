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


def word_index(word, g):
    flat = 0
    for letter in word:
        flat = flat * g + letter
    return flat


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
        out = Subspace.span(rel.field, g ** n,
                            [list(row) for row in zip(*dual.word_classes(n))])
    cache[n] = out
    return out


def koszul_transition(rel, d, g, cache=None):
    """Basis of C_(d+1) written over the basis {c_k (x) v_l} of C_d (x) V."""
    lower = koszul_space(rel, d, g, cache)
    upper = koszul_space(rel, d + 1, g, cache)
    rows = [tensor_coords_right(vec, lower, g) for vec in upper.basis]
    return Matrix(rel.field, rows, ncols=lower.dim * g)


def tensor_coords_right(vector, left, g):
    """Coordinates of a vector of W (x) V over basis rows of W tensor gens."""
    amb = left.ambient_dim
    if len(vector) != amb * g:
        raise ValueError("vector does not live in W (x) V")
    out = [left.field.zero] * (left.dim * g)
    for k in range(g):
        slice_k = [vector[p * g + k] for p in range(amb)]
        coords = left.coords_of(slice_k)
        if coords is None:
            raise ContainmentViolated(
                "tensor slice escapes the expected left factor")
        for i, c in enumerate(coords):
            out[i * g + k] = c
    return out


def tensor_coords_left(vector, right, g):
    """Coordinates of a vector of V (x) W over generators tensor basis rows."""
    amb = right.ambient_dim
    if len(vector) != g * amb:
        raise ValueError("vector does not live in V (x) W")
    out = []
    for k in range(g):
        coords = right.coords_of(vector[k * amb:(k + 1) * amb])
        if coords is None:
            raise ContainmentViolated(
                "tensor slice escapes the expected right factor")
        out.extend(coords)
    return out


def check_koszul_nesting(rel, n, g, cache=None):
    """Check that C_n lies in both C_(n-1) (x) V and V (x) C_(n-1).

    Raises ContainmentViolated otherwise.  Each C_n is read off the dual on
    its own, so the nesting is an independent check of that construction.
    """
    lower = koszul_space(rel, n - 1, g, cache)
    for vec in koszul_space(rel, n, g, cache).basis:
        tensor_coords_right(vec, lower, g)
        tensor_coords_left(vec, lower, g)
