"""Quadric hypersurface quotients A = S/Sw and their stable invariants.

Given a quantum polynomial algebra S and a central regular element w of
degree 2, the quotient A is presented by the relations of S together with
w.  The key player is the d-th syzygy module M of the trivial module
(d = dim V - 1), presented by the Koszul space C_d with relations C_(d+1).
Its graded endomorphism algebra decides whether A is an isolated
singularity, and the localized quadratic dual gives an independent second
construction of the same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NoStableCentral, NotCentral, NotRegularCertificate,
                     RelationDependence, UnsupportedDimension)
from .findim import FiniteDimAlgebra
from .linalg import Matrix, Subspace
from .modules import ModulePresentation
from .quadratic import QuadraticPresentation, is_regular_deg2
from .tensors import KOSZUL_DUAL, koszul_space, koszul_transition


class HypersurfaceContext:
    """Everything derived from one (S, w) pair, with shared caches."""

    def __init__(self, ambient, central, quotient, regularity, bound):
        self.ambient = ambient
        self.central = central
        self.quotient = quotient
        self.d = ambient.gdim - 1
        self.gorenstein_parameter = self.d - 1
        self.regularity = regularity
        self.bound = bound
        self._koszul_cache = None

    @property
    def quotient_dual(self):
        return self.quotient.quadratic_dual()

    @property
    def koszul_cache(self):
        """C_n by degree, read off the quotient dual it is seeded with."""
        if self._koszul_cache is None:
            self._koszul_cache = {KOSZUL_DUAL: self.quotient_dual}
        return self._koszul_cache

    @property
    def ambient_dual(self):
        return self.ambient.quadratic_dual()


def build_context(ambient, w, bound=6, regularity=None):
    """Validate (S, w) and assemble the hypersurface context.

    Checks, in order: at least two generators, w outside the relation space,
    centrality of w in degree 3, and the torsion-free certificate for
    multiplication by w up to the bound.  A caller that already holds that
    certificate, ``is_regular_deg2(ambient, w, bound)``, passes it as
    ``regularity``; the quotient A/(w) it was read from becomes
    ``ctx.quotient`` either way, so the quotient is built once.
    """
    if ambient.gdim < 2:
        raise UnsupportedDimension(
            "hypersurface quotients need at least two generators")
    field = ambient.field
    w = tuple(field.element(c) if not hasattr(c, "field") else c for c in w)
    if len(w) != ambient.gdim ** 2:
        raise ValueError("central candidate must live in V (x) V")
    if ambient.relation_space.contains(list(w)):
        raise RelationDependence(
            "central candidate lies in the relation space of the ambient "
            "algebra")
    if not ambient.is_central_deg2(w):
        raise NotCentral("candidate element is not central in degree 3")
    cert = (regularity if regularity is not None
            else is_regular_deg2(ambient, w, bound))
    if not cert.passed:
        raise NotRegularCertificate(
            f"multiplication by the central element drops rank at degree "
            f"{cert.first_failure}")
    return HypersurfaceContext(ambient, w, cert.quotient, cert, bound)


def koszul_component(ctx, n):
    return koszul_space(ctx.quotient.relation_space, n, ctx.quotient.gdim,
                        ctx.koszul_cache)


def syzygy_presentation(ctx):
    """The d-th syzygy module of the trivial module, normalized to degree 0.

    Generators are the canonical basis of C_d; the relations are the basis
    vectors of C_(d+1) written over C_d (x) V, placed in degree 1.
    """
    trans = koszul_transition(ctx.quotient.relation_space, ctx.d,
                              ctx.quotient.gdim, ctx.koszul_cache)
    m = koszul_component(ctx, ctx.d).dim
    return ModulePresentation((0,) * m,
                              tuple((1, tuple(row)) for row in trans.rows))


@dataclass(frozen=True)
class EndAlgebraResult:
    matrix_dim: int
    solution: Subspace
    basis_matrices: tuple
    algebra: FiniteDimAlgebra


def end_algebra(ctx):
    """Graded endomorphisms of the syzygy module, solved in closed form.

    A degree-0 endomorphism is an m x m matrix F over the C_d coordinates
    with (F (x) 1) C_(d+1) contained in C_(d+1).  The containment conditions
    are linear, so the solution space is a kernel; composing basis solutions
    gives the structure constants.
    """
    field = ctx.quotient.field
    g = ctx.quotient.gdim
    trans = koszul_transition(ctx.quotient.relation_space, ctx.d, g,
                              ctx.koszul_cache)
    m = koszul_component(ctx, ctx.d).dim
    ambient = m * g
    target = Subspace._span_sparse(field, ambient, trans.sparse)
    eq_rows = []
    for x_row in trans.sparse:
        # the unknown F[j][i] moves the entries of block i into block j
        blocks = [{} for _ in range(m)]
        for q, c in x_row.items():
            i, l = divmod(q, g)
            blocks[i][l] = c
        conditions = [{} for _ in range(ambient)]
        for j in range(m):
            for i in range(m):
                shifted = {j * g + l: c for l, c in blocks[i].items()}
                target.reduce_sparse(shifted)
                for pos, x in shifted.items():
                    conditions[pos][j * m + i] = x
        eq_rows.extend(conditions)
    kernel = Matrix._from_sparse(field, eq_rows, m * m).kernel()
    solution = Subspace.span(field, m * m, kernel.rows)
    mats = tuple(Matrix(field, [row[j * m:(j + 1) * m] for j in range(m)],
                        ncols=m) for row in solution.basis)
    ident = [field.one if j == k else field.zero
             for j in range(m) for k in range(m)]
    labels = tuple(f"f{k + 1}" for k in range(len(mats)))
    algebra = FiniteDimAlgebra.of_matrices(field, labels, solution, ident)
    return EndAlgebraResult(m, solution, mats, algebra)


@dataclass(frozen=True)
class DualRealization:
    dual: QuadraticPresentation
    pi: tuple  # coordinates of the degree-2 central element of the dual
    half: int
    checked_range: tuple
    algebra: FiniteDimAlgebra


def stable_dual_algebra(ctx, half=None):
    """The stable quotient category algebra via the quadratic dual.

    Inside the dual of A, find a central degree-2 element that multiplies
    bijectively through the stable range, then realize the degree-0 part of
    the localization on the component of degree 2*half with product
    a o b = (multiplication by pi^half)^(-1) (a b).
    """
    dual = ctx.quotient_dual
    field = dual.field
    g = dual.gdim
    d = ctx.d
    m = half if half is not None else (d + 1) // 2
    if 2 * m < d:
        raise ValueError("realization degree must satisfy 2*half >= d")
    q2 = dual.graded_dim(2)
    q3 = dual.graded_dim(3)

    def unit_vec(dim, j):
        return tuple(field.one if t == j else field.zero for t in range(dim))

    rows = []
    for l in range(g):
        el = unit_vec(g, l)
        cols = []
        for bj in range(q2):
            b = unit_vec(q2, bj)
            left = dual.multiply(2, b, 1, el)
            right = dual.multiply(1, el, 2, b)
            cols.append(tuple(x - y for x, y in zip(left, right)))
        for pos in range(q3):
            rows.append([cols[bj][pos] for bj in range(q2)])
    central = Matrix(field, rows, ncols=q2).kernel()
    candidates = [tuple(r) for r in central.rows]
    for i in range(len(central.rows)):
        for j in range(i + 1, len(central.rows)):
            candidates.append(tuple(x + y for x, y in
                                    zip(central.rows[i], central.rows[j])))
    check_hi = max(2 * m + 2, 4 * m - 2)
    pi = None
    for cand in candidates:
        ok = True
        for n in range(d, check_hi + 1):
            dim_n = dual.graded_dim(n)
            if dim_n != dual.graded_dim(n + 2) or dim_n == 0:
                ok = False
                break
            cols = [dual.multiply(n, unit_vec(dim_n, i), 2, cand)
                    for i in range(dim_n)]
            step = Matrix(field, [[cols[i][pos] for i in range(dim_n)]
                                  for pos in range(dim_n)], ncols=dim_n)
            if step.rank() < dim_n:
                ok = False
                break
        if ok:
            pi = cand
            break
    if pi is None:
        raise NoStableCentral(
            "no central degree-2 element of the dual multiplies bijectively "
            "through the stable range")
    q = dual.graded_dim(2 * m)
    pim = pi
    deg = 2
    for _ in range(m - 1):
        pim = dual.multiply(deg, pim, 2, pi)
        deg += 2
    cols = [dual.multiply(2 * m, unit_vec(q, i), 2 * m, pim)
            for i in range(q)]
    phi = Matrix(field, [[cols[i][pos] for i in range(q)]
                         for pos in range(q)], ncols=q)
    phi_inv = phi.inverse()
    structure = []
    for i in range(q):
        row = []
        for j in range(q):
            prod = dual.multiply(2 * m, unit_vec(q, i), 2 * m,
                                 unit_vec(q, j))
            row.append(tuple(phi_inv.apply(list(prod))))
        structure.append(row)
    labels = tuple("".join(dual.generators[l] for l in word)
                   for word in dual.basis_words(2 * m))
    algebra = FiniteDimAlgebra(field, labels, structure, tuple(pim))
    return DualRealization(dual, tuple(pi), m,
                           tuple(range(d, check_hi + 1)), algebra)


@dataclass(frozen=True)
class IdentityCheck:
    label: str
    lhs: int
    rhs: int

    @property
    def ok(self):
        return self.lhs == self.rhs


def dimension_identities(ctx, end_result, module_zero_dim=None):
    """The numeric identities tying the end algebra to the dual of S."""
    g = ctx.ambient.gdim
    sdual = ctx.ambient_dual
    total = sum(sdual.graded_dim(n) for n in range(g + 1))
    half = total // 2
    checks = [IdentityCheck("dim of ambient dual is even", total % 2, 0)]
    checks.append(IdentityCheck("dim End = half dim ambient dual",
                                end_result.solution.dim, half))
    for n in range(ctx.d, ctx.d + 4):
        checks.append(IdentityCheck(
            f"dim C_{n} = half dim ambient dual",
            koszul_component(ctx, n).dim, half))
    if module_zero_dim is not None:
        checks.append(IdentityCheck("dim M_0 = dim End",
                                    module_zero_dim,
                                    end_result.solution.dim))
    return tuple(checks)
