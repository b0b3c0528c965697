"""Quadratic algebras T(V)/(R) with exact graded arithmetic.

A presentation stores the relation subspace R inside V (x) V.  One graded
cokernel builds the algebra and its linear modules (modules.py) alike:
degree n of a linear module on r generators of degree 0 is the cokernel in
k^r (x) A_n of its relation translates r.w (linear_level), and A_(n+1) is
degree n of the augmentation module V (x) A / R.A, column
alpha*dim A_n + k the word x_alpha.w_k.  Words of one length in lex order
are compatible with multiplication on both sides, and the elimination
takes the leftmost column as pivot, so the basis words of A_n are the
standard monomials of the degree-n ideal.  The translates go to the
elimination as sparse rows through Subspace._span_sparse (linalg.py).  Each
piece, a GradedPiece, carries sparse generator tables, basis vector times
x_l one degree up as (index, coefficient) pairs, all built by one block
routine (block_tables); A_n also carries left tables, x_l times a basis
word, the class of one column of A_(n+1).  The left tables give the
relation translates; every other product is a table step
(generator_step) or a right action (right_action, the matrix of right
multiplication by an element as a sparse product of tables), on the
nonzero coordinates only; the public products take and return dense
coordinate tuples.  The right action gives every product matrix the
pipeline needs: Hom spaces and End(M) (modules.py) and the dual algebra
(hypersurface.py); both tables of A_2 give its central elements
(central_deg2).  The classes of all g^n words (word_classes, sparse) give
the Koszul spaces of the dual (tensors.py).  Everything else rests on them:
Hilbert data, centrality tests, regularity certificates and the quadratic
dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import comb

from .errors import RelationDependence
from .linalg import (Matrix, Subspace, add_multiple, column_system,
                     sparse_row)


class GradedPiece:
    """One graded piece: M_n of a linear module, or A_n (n >= 1) as a
    level of the augmentation module (linear_level).

    The piece is the cokernel of ``rel_space``, the span of the relation
    translates inside an ambient coordinate space of size ``total``,
    k^r (x) A_n for r generators, column alpha*dim A_n + k basis vector k
    of A_n in the block of generator alpha; the columns off its pivots,
    ``free_cols``, index the basis of the piece, and ``free_index`` maps
    each back to its basis index.  ``gen_mult[l][i]`` is the class one
    degree up of basis vector i times x_l, as (index, coefficient) pairs
    with nonzero coefficients; the owner fills it in on first use
    (block_tables).  A_n also lists its normal ``words`` and keeps its left
    tables, ``left_mult[l][j]`` the class of x_l times word j, in the same
    format.
    """

    __slots__ = ("rel_space", "total", "free_cols", "free_index", "dim",
                 "gen_mult", "words", "left_mult")

    def __init__(self, rel_space):
        pivot_set = set(rel_space.pivots)
        self.rel_space = rel_space
        self.total = rel_space.ambient_dim
        self.free_cols = tuple(c for c in range(self.total)
                               if c not in pivot_set)
        self.free_index = {c: t for t, c in enumerate(self.free_cols)}
        self.dim = len(self.free_cols)
        self.gen_mult = None
        self.words = None
        self.left_mult = None

    def sparse_class(self, vector):
        """Class of a sparse ambient vector {column: nonzero coefficient},
        as (index, coefficient) pairs; the vector is reduced in place."""
        self.rel_space.reduce_sparse(vector)
        index = self.free_index
        return tuple((index[c], vector[c]) for c in sorted(vector))


def relation_blocks(algebra, rank, relations):
    """Degree-1 relation rows over k^rank (x) V, entry alpha*g + l at
    g_alpha x_l, coerced once: per row, (alpha, terms) for each generator
    alpha whose block is nonzero, terms the (degree-1 word, coefficient)
    pairs of the block, as right_action takes them."""
    g = algebra.gdim
    out = []
    for vec in relations:
        blocks = []
        for alpha in range(rank):
            coeffs = sparse_row(algebra.field, vec[alpha * g:(alpha + 1) * g])
            if coeffs:
                blocks.append((alpha, [((l,), c) for l, c in coeffs.items()]))
        out.append(tuple(blocks))
    return tuple(out)


def linear_level(algebra, rank, blocks, n):
    """Degree n of the linear module on rank generators of degree 0 whose
    relations are blocks (relation_blocks): the cokernel in k^rank (x) A_n
    of the translates r.w_j, w_j a basis word of A_(n-1).

    Column alpha*dim A_n + k is basis vector k of A_n in block alpha.  In
    block alpha, r.w_j is sum_l c_l (x_l.w_j) over the coefficients c_l of
    the block, read off the algebra's left tables of degree n-1.  Rows go
    to the elimination in relation order, then word order.
    """
    size = algebra.graded_dim(n)
    vectors = []
    if n >= 1 and blocks:
        # by_word[j][l] is x_l.w_j
        by_word = list(zip(*algebra.left_tables(n - 1)))
        for rel in blocks:
            for products in by_word:
                vec = {}
                for alpha, terms in rel:
                    for (l,), c in terms:
                        for k, t in products[l]:
                            q = alpha * size + k
                            y = vec.get(q)
                            vec[q] = c * t if y is None else y + c * t
                vectors.append({q: x for q, x in vec.items() if x})
    return GradedPiece(Subspace._span_sparse(algebra.field, rank * size,
                                             vectors))


def block_tables(algebra, n, piece, up):
    """Generator tables of a piece of k^r (x) A_n, classed in the piece up
    of k^r (x) A_(n+1): the basis vector at column alpha*dim A_n + k times
    x_l is row k of the algebra's table of x_l placed in block alpha."""
    size, step = algebra.graded_dim(n), algebra.graded_dim(n + 1)
    places = [divmod(pos, size) for pos in piece.free_cols]
    return tuple(tuple(up.sparse_class({alpha * step + t: c
                                        for t, c in table[k]})
                       for alpha, k in places)
                 for table in algebra.tables(n))


def generator_step(table, sparse):
    """Sparse class of sum_i c_i * table[i] over the (i, c_i) pairs of
    sparse, as (index, coefficient) pairs in index order."""
    acc = {}
    for i, ci in sparse:
        for k, tk in table[i]:
            y = acc.get(k)
            acc[k] = ci * tk if y is None else y + ci * tk
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k])


def right_action(owner, n, terms):
    """Matrix of x -> x * a on the degree-n piece of owner (the algebra or
    one of its modules), for a = sum of c * w over the (word, c) pairs of
    terms, all words of one length k and c nonzero.

    Row i is the class one degree k up of basis vector i times a, as a dict
    {index: nonzero coefficient}.  Words are grouped by their first letter
    l.  For the last letter, c * x_l adds c times row i of the table of x_l
    straight into row i, so a degree-1 element is one combination of table
    rows; a longer group adds the product of the table of x_l with the
    matrix of the rest of its words one degree up, one more sparse table
    product per letter.
    """
    dim = owner.graded_dim(n)
    if not terms[0][0]:
        c = terms[0][1]
        return [{i: c} for i in range(dim)]
    groups = {}
    for word, c in terms:
        groups.setdefault(word[0], []).append((word[1:], c))
    rows = [{} for _ in range(dim)]
    if not dim:
        return rows
    tables = owner.tables(n)
    for l, rest in groups.items():
        if not rest[0][0]:
            # row += c * image: add_multiple written out, without a call
            # and a dict per row
            c = rest[0][1]
            for row, image in zip(rows, tables[l]):
                for k, t in image:
                    y = row.get(k)
                    if y is None:
                        row[k] = c * t
                    else:
                        y = y + c * t
                        if y:
                            row[k] = y
                        else:
                            del row[k]
        else:
            inner = right_action(owner, n + 1, rest)
            for row, image in zip(rows, tables[l]):
                for k, t in image:
                    add_multiple(row, t, inner[k])
    return rows


def dense_class(pairs, dim, zero):
    """Dense coordinate tuple of (index, coefficient) pairs."""
    out = [zero] * dim
    for t, c in pairs:
        out[t] = c
    return tuple(out)


def dense_product(owner, algebra, n, coords, k, a_coords):
    """Dense class of (element of degree n of owner, the algebra or one of
    its modules) times (element of A_k with coordinates a_coords): the
    coordinates combine the rows of right_action."""
    terms = [(w, c) for w, c in zip(algebra.basis_words(k), a_coords) if c]
    acc = {}
    if terms:
        for c, row in zip(coords, right_action(owner, n, terms)):
            if c:
                add_multiple(acc, c, row)
    return dense_class(acc.items(), owner.graded_dim(n + k), owner.field.zero)


class QuadraticPresentation:
    """A quadratic algebra given by generator names and relation vectors."""

    def __init__(self, field, generators, relation_vectors):
        self.field = field
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        g = len(self.generators)
        self.gdim = g
        rows = [list(vec) for vec in relation_vectors]
        if any(len(r) != g * g for r in rows):
            raise ValueError("relation vectors must live in V (x) V")
        span = Subspace.span(field, g * g, rows)
        if span.dim != len(rows):
            raise RelationDependence(
                "relation list is linearly dependent")
        self.relation_space = span
        # the relation rows as the augmentation module's blocks
        self._blocks = relation_blocks(self, g, span.basis)
        self._components = {}
        self._word_classes = (0, [((0, field.one),)])
        self._dual = None

    # -- graded components -------------------------------------------------

    def component(self, n):
        if n < 0:
            raise ValueError("negative degree")
        comp = self._components.get(n)
        if comp is None:
            comp = self._build_component(n)
            self._components[n] = comp
        return comp

    def _build_component(self, n):
        """A_0 = k, and A_n for n >= 1 degree n-1 of the augmentation
        module: column alpha*dim A_(n-1) + k is the word x_alpha.w_k."""
        if n == 0:
            comp = GradedPiece(Subspace.zero(self.field, 1))
            comp.words = ((),)
            return comp
        comp = linear_level(self, self.gdim, self._blocks, n - 1)
        size, prev = self.graded_dim(n - 1), self.basis_words(n - 1)
        comp.words = tuple((c // size,) + prev[c % size]
                           for c in comp.free_cols)
        return comp

    def tables(self, n):
        """Generator tables of A_n: basis word times x_l, classed in A_(n+1).
        A_n (n >= 1) is a level of the augmentation module, so its tables
        are the module's (block_tables); in degree 0, 1.x_l = x_l.1."""
        comp = self.component(n)
        if comp.gen_mult is None:
            comp.gen_mult = (block_tables(self, n - 1, comp,
                                          self.component(n + 1)) if n
                             else self.left_tables(0))
        return comp.gen_mult

    def left_tables(self, n):
        """Left tables of A_n: x_l times basis word j, the class of column
        l*dim A_n + j of A_(n+1)."""
        comp = self.component(n)
        if comp.left_mult is None:
            nxt, one = self.component(n + 1), self.field.one
            comp.left_mult = tuple(
                tuple(nxt.sparse_class({l * comp.dim + j: one})
                      for j in range(comp.dim))
                for l in range(self.gdim))
        return comp.left_mult

    def graded_dim(self, n):
        if n < 0:
            return 0
        return self.component(n).dim

    def hilbert(self, bound):
        return [self.graded_dim(n) for n in range(bound + 1)]

    def basis_words(self, n):
        return self.component(n).words

    # -- multiplication ----------------------------------------------------

    def multiply(self, m, a_coords, n, b_coords):
        """Product A_m x A_n -> A_(m+n) on class coordinates."""
        return dense_product(self, self, m, a_coords, n, b_coords)

    def word_classes(self, n):
        """Classes in A_n of all g^n words, in lexicographic word order, as
        (index, coefficient) pairs.

        Built one letter at a time from the words of degree n-1; only the
        highest degree built so far is kept, and a lower degree starts over
        from the empty word.
        """
        built, classes = self._word_classes
        if built > n:
            built, classes = 0, [((0, self.field.one),)]
        for k in range(built, n):
            tables = self.tables(k)
            classes = [generator_step(table, cls)
                       for cls in classes for table in tables]
        self._word_classes = (n, classes)
        return classes

    # -- derived structure -------------------------------------------------

    def quadratic_dual(self):
        """T(V*)/(R^perp) with the coordinatewise pairing on V (x) V.

        Built once per presentation; later calls return the same object.
        """
        if self._dual is None:
            g = self.gdim
            rows = [list(r) for r in self.relation_space.basis]
            perp = Matrix(self.field, rows, ncols=g * g).kernel()
            names = tuple(name + "*" for name in self.generators)
            self._dual = QuadraticPresentation(self.field, names, perp.rows)
        return self._dual

    def central_deg2(self):
        """Central elements of degree 2: the kernel rows, sparse over the
        basis of A_2, of b_j -> (b_j.x_l - x_l.b_j)_l, read off the tables
        and the left tables of A_2; column j is keyed (l, position)."""
        one = self.field.one
        right, left = self.tables(2), self.left_tables(2)
        cols = []
        for j in range(self.graded_dim(2)):
            col = {}
            for l in range(self.gdim):
                diff = dict(right[l][j])
                add_multiple(diff, -one, dict(left[l][j]))
                col.update(((l, pos), c) for pos, c in diff.items())
            cols.append(col)
        return column_system(self.field, cols)

    def is_central_deg2(self, w):
        """Does w (x) v - v (x) w vanish in A_3 for every generator v?
        That is, does the class of w in A_2 lie in the span of
        central_deg2?"""
        if len(w) != self.gdim ** 2:
            raise ValueError("central candidate must live in V (x) V")
        cls = dict(self.component(2).sparse_class(sparse_row(self.field, w)))
        Subspace._span_sparse(self.field, self.graded_dim(2),
                              self.central_deg2()).reduce_sparse(cls)
        return not cls


# -- certificates ------------------------------------------------------------


@dataclass(frozen=True)
class RegularityCertificate:
    passed: bool
    rows: tuple  # (degree, expected, actual)
    first_failure: object = None
    # the quotient A/(w) the rows were read from, reused by build_context
    quotient: object = dataclass_field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NumericKoszulCertificate:
    passed: bool
    coefficients: tuple  # coefficient of t^n in H_A(t) H_dual(-t), n = 0..N
    first_failure: object = None


@dataclass(frozen=True)
class QuantumPolynomialCertificate:
    passed: bool
    hilbert: tuple
    expected_hilbert: tuple
    dual_hilbert: tuple
    expected_dual_hilbert: tuple
    numeric: NumericKoszulCertificate
    failures: tuple


def is_regular_deg2(presentation, w, bound):
    """Check dim (A/wA)_n = dim A_n - dim A_(n-2) for 2 <= n <= bound.

    For w central this certifies that w acts without torsion up to the bound.
    A dependent w (already a relation) fails at n = 2 instead of raising.
    """
    try:
        quotient = QuadraticPresentation(
            presentation.field, presentation.generators,
            list(presentation.relation_space.basis) + [w])
    except RelationDependence:
        quotient = presentation
    rows = []
    passed = True
    first = None
    for n in range(2, bound + 1):
        expected = presentation.graded_dim(n) - presentation.graded_dim(n - 2)
        actual = quotient.graded_dim(n)
        rows.append((n, expected, actual))
        if expected != actual and first is None:
            first = n
            passed = False
    return RegularityCertificate(passed, tuple(rows), first, quotient)


def koszul_numeric_check(presentation, bound):
    """Coefficientwise check of H_A(t) * H_dual(-t) = 1 up to t^bound."""
    dual = presentation.quadratic_dual()
    coeffs = []
    passed = True
    first = None
    for n in range(bound + 1):
        c = 0
        for k in range(n + 1):
            term = dual.graded_dim(k) * presentation.graded_dim(n - k)
            c += -term if k % 2 else term
        coeffs.append(c)
        want = 1 if n == 0 else 0
        if c != want and first is None:
            first = n
            passed = False
    return NumericKoszulCertificate(passed, tuple(coeffs), first)


def quantum_polynomial_certificate(presentation, bound):
    """Numeric certificate that the input presents a quantum polynomial algebra.

    Checks the binomial Hilbert function in dimension g, the dual Hilbert
    function (1+t)^g including vanishing in degree g+1, and the coefficient
    identity between the two Hilbert series.  Necessary conditions only, but
    they catch every mistyped presentation we care about.
    """
    g = presentation.gdim
    hilbert = tuple(presentation.graded_dim(n) for n in range(bound + 1))
    expected = tuple(comb(g + n - 1, n) for n in range(bound + 1))
    dual = presentation.quadratic_dual()
    dual_h = tuple(dual.graded_dim(n) for n in range(g + 2))
    expected_dual = tuple(comb(g, n) for n in range(g + 2))
    numeric = koszul_numeric_check(presentation, bound)
    failures = []
    if hilbert != expected:
        failures.append("hilbert function differs from the polynomial one")
    if dual_h != expected_dual:
        failures.append("dual hilbert function is not (1+t)^g")
    if not numeric.passed:
        failures.append(
            f"series product check fails at degree {numeric.first_failure}")
    return QuantumPolynomialCertificate(
        not failures, hilbert, expected, dual_h, expected_dual, numeric,
        tuple(failures))


# -- display helpers ---------------------------------------------------------


def _coeff_prefix(c):
    s = str(c)
    if s == "1":
        return ""
    if s == "-1":
        return "-"
    body = s[1:] if s.startswith("-") else s
    if "+" in body or "-" in body:
        return f"({s})*"
    return f"{s}*"


def _join_terms(terms):
    out = ""
    for t in terms:
        if not out:
            out = t
        elif t.startswith("-"):
            out += t
        else:
            out += "+" + t
    return out if out else "0"


def linear_string(names, coords):
    """Display a degree-1 element, e.g. 'y+i*z'."""
    terms = []
    for l, c in enumerate(coords):
        if c:
            terms.append(_coeff_prefix(c) + names[l])
    return _join_terms(terms)


def tensor2_string(names, coords):
    """Display a degree-2 tensor, e.g. 'x*x+z*z'."""
    g = len(names)
    terms = []
    for q, c in enumerate(coords):
        if c:
            terms.append(_coeff_prefix(c) + f"{names[q // g]}*{names[q % g]}")
    return _join_terms(terms)
