"""Quadric hypersurface quotients A = S/Sw and their stable invariants.

Given a quantum polynomial algebra S and a central regular element w of
degree 2, the quotient A is presented by the relations of S together with
w.  The key player is the d-th syzygy module M of the trivial module
(d = dim V - 1), presented by the Koszul space C_d with relations C_(d+1).
Its degree-0 endomorphism algebra, built by modules.end_algebra_of from
hom_space(M, M, 0), decides whether A is an isolated singularity, and the
localized quadratic dual gives an independent second construction of the
same algebra.  Every product in both routes is read off the sparse
generator tables: a matrix through quadratic.right_action, and the dual's
central elements of degree 2 through both its tables (central_deg2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (NoStableCentral, NotCentral, NotRegularCertificate,
                     RelationDependence, UnsupportedDimension)
from .findim import FiniteDimAlgebra
from .linalg import Matrix, add_multiple
from .modules import GradedModule, ModulePresentation, end_algebra_of
from .quadratic import QuadraticPresentation, is_regular_deg2, right_action
from .tensors import KOSZUL_DUAL, koszul_space, koszul_transition


class HypersurfaceContext:
    """Everything derived from one (S, w) pair, with shared caches."""

    def __init__(self, ambient, quotient):
        self.ambient = ambient
        self.quotient = quotient
        self.d = ambient.gdim - 1
        self.gorenstein_parameter = self.d - 1
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
    ``ctx.quotient`` either way, so the quotient is built once.  The
    entries of w may be field elements, ints or Fractions; each check
    coerces them as Subspace.span does.
    """
    if ambient.gdim < 2:
        raise UnsupportedDimension(
            "hypersurface quotients need at least two generators")
    w = list(w)
    if len(w) != ambient.gdim ** 2:
        raise ValueError("central candidate must live in V (x) V")
    if ambient.relation_space.contains(w):
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
    return HypersurfaceContext(ambient, cert.quotient)


def koszul_component(ctx, n):
    return koszul_space(ctx.quotient.relation_space, n, ctx.quotient.gdim,
                        ctx.koszul_cache)


def syzygy_presentation(ctx):
    """The d-th syzygy module M = Omega^d(k)(d) of the trivial module.

    M is linear because A is Koszul: its generators are the canonical
    basis of C_d, in degree 0, and its relations are the basis vectors of
    C_(d+1) written over C_d (x) V, in degree 1, entry alpha*g + l the
    coefficient of generator alpha times x_l.
    """
    trans = koszul_transition(ctx.quotient.relation_space, ctx.d,
                              ctx.quotient.gdim, ctx.koszul_cache)
    m = koszul_component(ctx, ctx.d).dim
    return ModulePresentation(m, tuple(tuple(row) for row in trans.rows))


def end_algebra(ctx):
    """Degree-0 endomorphisms of the syzygy module M: end_algebra_of(M).

    A map is an m x m matrix F over the C_d coordinates with
    (F (x) 1) C_(d+1) contained in C_(d+1).
    """
    return end_algebra_of(GradedModule(ctx.quotient, syzygy_presentation(ctx)))


@dataclass(frozen=True)
class DualRealization:
    dual: QuadraticPresentation
    pi: tuple  # coordinates of the degree-2 central element of the dual
    half: int
    checked_range: tuple
    algebra: FiniteDimAlgebra


def stable_dual_algebra(ctx):
    """The stable quotient category algebra via the quadratic dual.

    Inside the dual of A, find a central degree-2 element that multiplies
    bijectively through the stable range, then realize the degree-0 part of
    the localization on the component of degree 2*half, half = (d + 1) // 2
    (the least with 2*half >= d), with product
    a o b = (multiplication by pi^half)^(-1) (a b).
    """
    dual = ctx.quotient_dual
    field = dual.field
    one = field.one
    d = ctx.d
    m = (d + 1) // 2

    def times(n, k, coords):
        """Rows b_i * a over the basis of degree n, for a of degree k."""
        return right_action(dual, n, [(w, c) for w, c in
                                      zip(dual.basis_words(k), coords) if c])

    central = Matrix._from_sparse(field, dual.central_deg2(),
                                  dual.graded_dim(2)).rows
    candidates = [tuple(r) for r in central]
    for i in range(len(central)):
        for j in range(i + 1, len(central)):
            candidates.append(tuple(x + y for x, y in
                                    zip(central[i], central[j])))
    check_hi = max(2 * m + 2, 4 * m - 2)

    def bijective(cand):
        """Is x -> x * cand a bijection from degree n onto degree n + 2
        for every n from d to check_hi?"""
        for n in range(d, check_hi + 1):
            dim_n = dual.graded_dim(n)
            if (dim_n != dual.graded_dim(n + 2) or dim_n == 0
                    or Matrix._from_sparse(field, times(n, 2, cand),
                                           dim_n).rank() < dim_n):
                return False
        return True

    pi = next((cand for cand in candidates if bijective(cand)), None)
    if pi is None:
        raise NoStableCentral(
            "no central degree-2 element of the dual multiplies bijectively "
            "through the stable range")
    q = dual.graded_dim(2 * m)
    pim = pi
    for k in range(1, m):
        pim = dual.multiply(2 * k, pim, 2, pi)
    # row i of phi is b_i * pi^m, so phi^-1 (b_i b_j) is the combination of
    # the rows of the inverse with the coordinates of b_i b_j
    inverse = Matrix._from_sparse(field, times(2 * m, 2 * m, pim),
                                  q).inverse().sparse
    structure = [[None] * q for _ in range(q)]
    for j, word in enumerate(dual.basis_words(2 * m)):
        for i, prod in enumerate(right_action(dual, 2 * m, [(word, one)])):
            row = {}
            for k, c in prod.items():
                add_multiple(row, c, inverse[k])
            structure[i][j] = row
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


def dimension_identities(ctx, end_result):
    """The numeric identities tying the end algebra to the dual of S and
    to the module it acts on."""
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
    checks.append(IdentityCheck("dim M_0 = dim End",
                                end_result.module.graded_dim(0),
                                end_result.solution.dim))
    return tuple(checks)
