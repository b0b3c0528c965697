"""Linear graded right modules over a quadratic algebra.

Every module here is linear: generated in degree 0 with relations in
degree 1.  A presentation is a rank and a tuple of relation rows over
(generators) (x) V, entry alpha*g + l the coefficient of g_alpha x_l
(g = dim V).  The degree-n piece M_n is k^rank (x) A_n, one block of
dim A_n columns per generator, modulo the span of the relation translates
r.w, w a normal word of A_(n-1).  That shape is enough for the pipeline:
the syzygy module M = Omega^d(k)(d), presented by C_d with relations
C_(d+1), is linear because A is Koszul, and so are its summands e.M, the
modules A/xA and A, and their direct sums.  A shift needs no generators in
other degrees either, since it is the degree argument of Hom:
Hom_n(P, Q) = Hom_0(P, Q(n)).  So the first syzygy of a linear module N,
generated in degree 1, is the linear Omega(N)(1), and Omega(N) = N'(-1)
asks for degree-0 maps between linear modules.

M_n is built by the algebra's own graded cokernel, quadratic.linear_level,
which builds A_n too, since A_(n+1) is degree n of the augmentation module:
a relation block sum_l c_l x_l times a normal word w of A_(n-1) is
sum_l c_l (x_l.w), a combination of rows of the algebra's left tables, so
a module keeps no state per relation.  M_n is a GradedPiece, the piece
type of A_n, with generator tables from the same block routine
(quadratic.block_tables), and the action of the algebra runs through the
table step and right action that the algebra itself uses.  On top of
that sit the operations the hypersurface pipeline needs: graded Hom
spaces, built once as sparse right_action rows per unknown (_hom_system)
and read two ways, the maps as the kernel of their transpose (hom_space)
and the dimension as the unknowns less their rank (hom_graded); the
summand e.M of an idempotent endomorphism, presented in closed form from
the relations of M; recognition of cyclic quotients A/xA; direct sums;
and the one builder of a degree-zero endomorphism algebra,
end_algebra_of, which serves both End(M) (hypersurface.end_algebra) and
the pre-resolution algebra End(M_1 (+) ... (+) M_k (+) A)_0.

Each module is built once per run.  Its relation blocks are coerced once
per module; a Hom source reads only those, and a target its levels.  The free
module A reads the algebra's own tables.  classify_mcm is the last reader
of the syzygy module M: it keeps M's Hilbert function through the bound
in the classification, which is all syzygy_shift_evidence reads, and lets
M's levels go once the summands are cut.  It keeps each summand with its
levels through the bound; preresolution_table uses the kept summands as
sources and targets, and lets each target's levels go once its column is
done.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import AdditivityViolated, AlgebraError
from .findim import FiniteDimAlgebra
from .linalg import Matrix, Subspace, add_multiple, column_system, sparse_row
from .quadratic import (block_tables, dense_product, generator_step,
                        linear_level, relation_blocks, right_action)


@dataclass(frozen=True)
class ModulePresentation:
    rank: int  # generators, all in degree 0
    relations: tuple  # degree-1 rows, entry alpha*g + l at g_alpha x_l
    # row lengths are validated by GradedModule against a concrete algebra


class GradedModule:
    """Degreewise data of a presented module over a quadratic algebra."""

    def __init__(self, algebra, presentation):
        self.algebra = algebra
        self.presentation = presentation
        self.field = algebra.field
        self._levels = {}
        for vec in presentation.relations:
            if len(vec) != presentation.rank * algebra.gdim:
                raise ValueError("relation row has the wrong length")
        # the relation blocks, coerced once: the rows of the levels and the
        # source of a Hom system
        self._blocks = relation_blocks(algebra, presentation.rank,
                                       presentation.relations)

    def level(self, n):
        """M_n: the cokernel of the relation translates of degree n in
        k^rank (x) A_n (quadratic.linear_level, which builds A_n too)."""
        lvl = self._levels.get(n)
        if lvl is None:
            lvl = self._levels[n] = linear_level(
                self.algebra, self.presentation.rank, self._blocks, n)
        return lvl

    def drop_levels(self):
        """Let the built levels go; a later level or table is built
        again."""
        self._levels = {}

    def graded_dim(self, n):
        return self.level(n).dim

    def hilbert(self, bound):
        return [self.graded_dim(n) for n in range(bound + 1)]

    def tables(self, n):
        """Generator tables of M_n: basis vector times x_l, classed in
        M_(n+1) (quadratic.block_tables); the free module A reads the
        algebra's own tables."""
        lvl = self.level(n)
        if lvl.gen_mult is None:
            lvl.gen_mult = (self.algebra.tables(n) if self.presentation == FREE
                            else block_tables(self.algebra, n, lvl,
                                              self.level(n + 1)))
        return lvl.gen_mult

    def mult_by_element(self, n, coords, k, a_coords):
        """Class of (element of M_n) * (element of A_k), combined from the
        rows of right_action."""
        return dense_product(self, self.algebra, n, coords, k, a_coords)


FREE = ModulePresentation(1, ())


def free_module(algebra):
    """A itself as a right module over itself."""
    return GradedModule(algebra, FREE)


# -- idempotent summands -------------------------------------------------------


def idempotent_summand(parent, idempotent):
    """Present the summand e.M cut out by an idempotent endomorphism.

    The idempotent is a square matrix E over the generators of the parent,
    column alpha the image of generator alpha.  E (x) 1 is an idempotent
    of the free module that keeps the relation module K, so
    e.M = E.F / E.K: it is generated by the rref basis of im(E), and its
    relations span the E.r for the relations r of the parent.  E.r lies in
    im(E) (x) V, so its coordinate at a basis vector of im(E) is its block
    at that vector's pivot.  Returns the image and the presentation;
    raises AlgebraError if E is not idempotent or does not keep the
    relations.
    """
    field = parent.field
    if idempotent * idempotent != idempotent:
        raise AlgebraError("the matrix is not idempotent")
    columns = idempotent.transpose().sparse
    image = Subspace._span_sparse(field, idempotent.nrows, columns)
    g = parent.algebra.gdim
    cuts = []  # the E.r over im(E) (x) V
    for vec in parent.presentation.relations:
        moved = {}  # E.r: entry l of block alpha goes to block beta
        for q, c in sparse_row(field, vec).items():
            alpha, l = divmod(q, g)
            add_multiple(moved, c, {beta * g + l: x
                                    for beta, x in columns[alpha].items()})
        cuts.append({beta * g + l: moved[p * g + l]
                     for beta, p in enumerate(image.pivots) for l in range(g)
                     if p * g + l in moved})
        parent.level(1).rel_space.reduce_sparse(moved)
        if moved:
            raise AlgebraError(
                "the idempotent is not an endomorphism of the module")
    # one basis of the E.r: E sends many relations to the same line, and
    # each relation kept costs a translate set per level
    relations = tuple(Subspace._span_sparse(field, image.dim * g,
                                            cuts).basis)
    return image, ModulePresentation(image.dim, relations)


@dataclass(frozen=True)
class CyclicMatch:
    element: object  # coordinate tuple over A_1 or None
    matched: bool
    reason: str = ""


def identify_cyclic_quotient(summand):
    """Try to recognize a module as A/xA for a degree-1 element x.

    A module on one generator whose relations span the line of x is A/xA
    as presented, its Hilbert function the quotient's.
    """
    algebra = summand.algebra
    if summand.presentation.rank != 1:
        return CyclicMatch(None, False, "not generated by one degree-0 "
                           "element")
    ann = Subspace.span(algebra.field, algebra.gdim,
                        [list(v) for v in summand.presentation.relations])
    if ann.dim != 1:
        return CyclicMatch(None, False,
                           f"degree-1 annihilator has dimension {ann.dim}")
    return CyclicMatch(tuple(ann.basis[0]), True)


@dataclass(frozen=True)
class SummandInfo:
    index: int
    image_basis: tuple
    presentation: ModulePresentation
    hilbert: tuple
    cyclic: CyclicMatch
    # the summand with its levels through the bound, for the Hom table
    module: GradedModule = dataclass_field(compare=False, repr=False)


@dataclass(frozen=True)
class McmClassification:
    summands: tuple
    parent_hilbert: tuple
    additivity_ok: bool


def classify_mcm(parent, idempotent_matrices, algebra, bound):
    """Cut the parent along idempotents and identify each piece.

    Idempotents act on degree-0 coordinates; each cuts out a summand in
    closed form (idempotent_summand), and the summand Hilbert functions
    must add up to the parent's through the bound.  Once every summand is
    cut, the parent's levels go (drop_levels), and no later stage reads
    the parent: its Hilbert function stays as ``parent_hilbert``.  Each
    summand keeps its module, levels built through the bound, for the Hom
    table (preresolution_table).
    """
    parent_h = tuple(parent.graded_dim(n) for n in range(bound + 1))
    cuts = [idempotent_summand(parent, mat) for mat in idempotent_matrices]
    parent.drop_levels()
    infos = []
    total = [0] * (bound + 1)
    for idx, (image, pres) in enumerate(cuts):
        summand = GradedModule(algebra, pres)
        h = tuple(summand.graded_dim(n) for n in range(bound + 1))
        total = [t + x for t, x in zip(total, h)]
        infos.append(SummandInfo(idx, image.basis, pres, h,
                                 identify_cyclic_quotient(summand), summand))
    if tuple(total) != parent_h:
        raise AdditivityViolated(
            "summand Hilbert functions do not add up to the module; the "
            "idempotents do not split it into these summands")
    return McmClassification(tuple(infos), parent_h, True)


# -- syzygy shift evidence -----------------------------------------------------


@dataclass(frozen=True)
class SyzygyEvidence:
    rows: tuple  # (degree, dim of syzygy, dim of module one lower)
    dims_ok: bool
    permutation: tuple
    permutation_ok: bool
    notes: tuple


def syzygy_shift_evidence(classification, algebra, bound):
    """Numeric evidence that the syzygy permutes the summands with a shift.

    Compares dim of the first syzygy of the module M against M one degree
    lower, and matches each summand annihilator u with the line annihilated
    by u on the right.  M is generated in degree 0 with no relations there,
    so its first syzygy, the span of its relations in the free module on
    M_0, has dimension dim M_0 * dim A_n - dim M_n in degree n; M's
    Hilbert function is the classification's ``parent_hilbert``.
    """
    hilbert = classification.parent_hilbert
    rows = []
    dims_ok = True
    for n in range(1, bound + 1):
        omega = hilbert[0] * algebra.graded_dim(n) - hilbert[n]
        prev = hilbert[n - 1]
        rows.append((n, omega, prev))
        if omega != prev:
            dims_ok = False
    notes = []
    anns = []
    for info in classification.summands:
        if info.cyclic.matched:
            anns.append(tuple(info.cyclic.element))
        else:
            anns.append(None)
    permutation = []
    perm_ok = True
    field = algebra.field
    for i, u in enumerate(anns):
        if u is None:
            permutation.append(None)
            perm_ok = False
            notes.append(f"summand {i + 1} is not recognized as cyclic")
            continue
        # column l of the system is u * x_l, read off the tables of A_1
        u_sparse = tuple(sparse_row(field, u).items())
        cols = [dict(generator_step(table, u_sparse))
                for table in algebra.tables(1)]
        right_ann = Subspace._span_sparse(field, algebra.gdim,
                                          column_system(field, cols))
        if right_ann.dim != 1:
            permutation.append(None)
            perm_ok = False
            notes.append(f"right annihilator of summand {i + 1} generator "
                         f"is {right_ann.dim}-dimensional")
            continue
        target = tuple(right_ann.basis[0])
        match = None
        for j, v in enumerate(anns):
            if v == target:
                match = j
                break
        permutation.append(match)
        if match is None:
            perm_ok = False
            notes.append(f"shifted annihilator of summand {i + 1} is not in "
                         "the family")
    if perm_ok:
        seen = set(permutation)
        if len(seen) != len(permutation):
            perm_ok = False
            notes.append("annihilator matching is not a permutation")
    return SyzygyEvidence(tuple(rows), dims_ok, tuple(permutation), perm_ok,
                          tuple(notes))


# -- graded Hom and the degree-zero endomorphism table -------------------------


def _hom_system(P, Q, n):
    """Action rows of the degree-n Hom system P -> Q, with the block size.

    A map sends each generator of P to an element of Q_n, so the unknowns
    are the coordinates of those images, one block of dim Q_n per
    generator.  A relation sum_alpha g_alpha a_alpha asks that the images
    times the a_alpha sum to zero in Q_(n+1).  Each a_alpha acts through
    quadratic.right_action, and row u holds what unknown u contributes:
    one column block per relation, one column per basis vector of
    Q_(n+1).  The maps are the kernel of the transpose.  The a_alpha come
    from P's relation blocks (quadratic.relation_blocks), built once per
    module, and
    the rows of the first column block are the action rows themselves.
    """
    if Q.algebra is not P.algebra:
        raise ValueError("hom requires modules over the same algebra")
    b = Q.graded_dim(n)
    rows = [{} for _ in range(P.presentation.rank * b)]
    up = Q.graded_dim(n + 1)
    col = 0
    for blocks in P._blocks:
        for alpha, terms in blocks:
            action = right_action(Q, n, terms)
            if not col:
                # the first column block: the fresh action rows are the
                # system rows as they stand
                rows[alpha * b:(alpha + 1) * b] = action
                continue
            for row, image in zip(rows[alpha * b:(alpha + 1) * b], action):
                for p, x in image.items():
                    row[col + p] = x
        col += up
    return Matrix._from_sparse(Q.field, rows, col), b


def hom_space(P, Q, n):
    """Basis of degree-n module maps P -> Q, as generator image tuples:
    the kernel of the transposed action rows (see _hom_system)."""
    system, b = _hom_system(P, Q, n)
    kernel = system.transpose().kernel()
    return tuple(tuple(tuple(row[alpha * b:(alpha + 1) * b])
                       for alpha in range(P.presentation.rank))
                 for row in kernel.rows)


def hom_graded(P, Q, n):
    """dim Hom_n(P, Q): the unknowns less the rank of the action rows."""
    system, _ = _hom_system(P, Q, n)
    return system.nrows - system.rank()


def direct_sum(modules):
    """M_1 (+) ... (+) M_k: the generators side by side, and each relation
    of a summand padded with zero blocks over the generators of the rest."""
    algebra = modules[0].algebra
    if any(M.algebra is not algebra for M in modules):
        raise ValueError("a direct sum needs modules over one algebra")
    zero = (algebra.field.zero,) * algebra.gdim
    rank = sum(M.presentation.rank for M in modules)
    relations = []
    start = 0
    for M in modules:
        stop = start + M.presentation.rank
        relations += [zero * start + tuple(vec) + zero * (rank - stop)
                      for vec in M.presentation.relations]
        start = stop
    return GradedModule(algebra, ModulePresentation(rank, tuple(relations)))


@dataclass(frozen=True)
class EndAlgebraResult:
    matrix_dim: int
    solution: Subspace
    basis_matrices: tuple
    algebra: FiniteDimAlgebra
    module: GradedModule  # the module the maps act on

    def matrix(self, coords):
        """The endomorphism with the given coordinates over the algebra
        basis, as a matrix over the generators."""
        mat = None
        for c, bm in zip(coords, self.basis_matrices):
            term = bm.scale(c)
            mat = term if mat is None else mat + term
        return mat


def end_algebra_of(module):
    """Degree-0 endomorphisms of a module, as an algebra.

    The maps are hom_space(module, module, 0).  A map is an m x m matrix F
    over the generators, F[j][i] the coefficient of generator j in the
    image of generator i, flattened row by row; composing basis maps gives
    the structure constants (FiniteDimAlgebra.of_matrices).
    """
    field = module.field
    m = module.presentation.rank
    solution = Subspace._span_sparse(
        field, m * m, [{j * m + i: c for i, image in enumerate(images)
                        for j, c in enumerate(image) if c}
                       for images in hom_space(module, module, 0)])
    mats = tuple(Matrix(field, [row[j * m:(j + 1) * m] for j in range(m)],
                        ncols=m) for row in solution.basis)
    ident = [field.one if j == k else field.zero
             for j in range(m) for k in range(m)]
    labels = tuple(f"f{k + 1}" for k in range(len(mats)))
    algebra = FiniteDimAlgebra.of_matrices(field, labels, solution, ident)
    return EndAlgebraResult(m, solution, mats, algebra, module)


@dataclass(frozen=True)
class PreresolutionReport:
    labels: tuple
    degrees: tuple
    table: tuple  # table[i][j] = tuple of dims over the degree window
    negative_ok: bool
    corner_zero: bool
    diagonal_dims: tuple
    diagonal_semisimple: bool
    algebra: FiniteDimAlgebra
    gldim_le_1: bool


def preresolution_table(summands, algebra, bound):
    """Degree-0 endomorphism algebra of (summands + A) with its Hom table.

    The summands are GradedModules, such as the modules classify_mcm keeps;
    the table rows run over them followed by the free module A, whose
    tables are the algebra's own.  Hom dimensions are tabulated from
    degree -3 up to the bound, as ranks (hom_graded).  A source reads only
    its relations, and a target its levels: each module serves as both,
    and its levels go once its column is done, after its own End_0 has
    been read.  The algebra is End(M_1 (+) ... (+) M_k (+) A)_0, built as
    End(M) is (end_algebra_of), and the report records the triangular
    shape that gives global dimension <= 1.
    """
    modules = list(summands) + [free_module(algebra)]
    labels = tuple([f"M{i + 1}" for i in range(len(summands))] + ["A"])
    count = len(modules)
    degrees = tuple(range(-3, bound + 1))
    hom_dims = {}
    # the radical of the diagonal product is the product of the radicals
    diag_ok = True
    for j, target in enumerate(modules):
        for i, source in enumerate(modules):
            hom_dims[(i, j)] = tuple(hom_graded(source, target, n)
                                     for n in degrees)
        if j < count - 1 and diag_ok:
            diag_ok = end_algebra_of(target).algebra.is_semisimple()
        target.drop_levels()
    table = tuple(tuple(hom_dims[(i, j)] for j in range(count))
                  for i in range(count))
    zero_at = degrees.index(0)
    negative_ok = all(all(d == 0 for k, d in enumerate(row_dims)
                          if degrees[k] < 0)
                      for row in table for row_dims in row)
    corner_zero = all(table[i][count - 1][zero_at] == 0
                      for i in range(count - 1))
    diagonal_dims = tuple(table[i][i][zero_at] for i in range(count - 1))
    gldim = corner_zero and diag_ok
    return PreresolutionReport(labels, degrees, table, negative_ok,
                               corner_zero, diagonal_dims, diag_ok,
                               end_algebra_of(direct_sum(modules)).algebra,
                               gldim)
