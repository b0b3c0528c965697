"""Shared helpers for the tests: conversions for comparing package output
with the oracle, and small constructions that only the tests need."""

from fractions import Fraction
from itertools import product
from math import lcm

from ncquadric import (AlgebraError, AmbientMismatch, FiniteDimAlgebra,
                       GradedModule, Matrix, ModulePresentation, Polynomial,
                       QuadraticPresentation, SmallRng, Subspace,
                       build_context, free_module, hom_graded, hom_space,
                       koszul_component, koszul_transition, pipeline,
                       roots_in_field)
from ncquadric.linalg import add_multiple, sparse_row
from ncquadric.presentation import parse_file
from ncquadric.quadratic import dense_class, generator_step
from ncquadric.tensors import _coords_left, _coords_right


def to_pair(fe):
    """FieldElement over Q or Q(i) -> (real, imag) Fraction pair."""
    c = fe.coords
    return (c[0], c[1] if len(c) > 1 else Fraction(0))


def vec_pairs(vec):
    return [to_pair(c) for c in vec]


def rows_pairs(rows):
    return [vec_pairs(r) for r in rows]


def gauss(field, a, b=0):
    """Scalar a + b*i in the given field (b must be 0 over Q)."""
    if field.degree == 1:
        assert b == 0
        return field.from_rational(Fraction(a))
    return field.element((Fraction(a), Fraction(b)))


def matrix_of(field, int_rows):
    return Matrix(field, [[gauss(field, *((c if isinstance(c, tuple)
                                           else (c, 0))))
                           for c in row] for row in int_rows])


def flatten_matrix(mat):
    """Row-major vec with vec[j*m + k] = F[j][k], matching end_algebra."""
    return [mat.entry(j, k) for j in range(mat.nrows)
            for k in range(mat.ncols)]


def matrix_apply(mat, vec):
    """Matrix times a column vector (given and returned as a list)."""
    if len(vec) != mat.ncols:
        raise ValueError("vector length mismatch")
    out = []
    for row in mat.sparse:
        acc = mat.field.zero
        for j, a in row.items():
            if vec[j]:
                acc = acc + a * vec[j]
        out.append(acc)
    return out


def class_coords(module, n, free_vec):
    """Class in M_n of a vector over the free module's degree-n blocks."""
    lvl = module.level(n)
    resid = lvl.rel_space.reduce(list(free_vec))
    return tuple(resid[c] for c in lvl.free_cols)


def representative(module, n, coords):
    """Free-module vector of degree n whose class has the given coordinates."""
    lvl = module.level(n)
    out = [module.field.zero] * lvl.total
    for c, pos in zip(coords, lvl.free_cols):
        out[pos] = c
    return out


def line_subspace(field, vec):
    return Subspace.span(field, len(vec), [vec])


def normalize_line(vec):
    """Scale so the first nonzero coordinate is 1; for set comparison."""
    lead = next(c for c in vec if c)
    return tuple(c / lead for c in vec)


def load_context(path, bound):
    parsed = parse_file(str(path))
    ambient = QuadraticPresentation(parsed.field, parsed.generators,
                                    [row for _, row in parsed.relation_rows])
    return build_context(ambient, parsed.central_row, bound=bound)


def idempotent_matrices(end, seed=0):
    """The primitive idempotents of End(M) as m x m matrices."""
    return [end.matrix(coords) for coords in
            end.algebra.primitive_idempotents(seed=seed)]


def module_graded_dim(presentation, algebra, n):
    return GradedModule(algebra, presentation).graded_dim(n)


# -- reference constructions of End(M) and of its summands --------------------


def reference_end_solution(ctx):
    """Degree-0 endomorphisms of the syzygy module by the containment
    solver: the m x m matrices F, flattened as F[j][i] at j*m + i, with
    (F (x) 1) C_(d+1) contained in C_(d+1)."""
    field = ctx.quotient.field
    g = ctx.quotient.gdim
    trans = koszul_transition(ctx.quotient.relation_space, ctx.d, g,
                              ctx.koszul_cache)
    m = koszul_component(ctx, ctx.d).dim
    ambient = m * g
    target = Subspace.span(field, ambient, trans.rows)
    eq_rows = []
    for x_row in trans.rows:
        # the unknown F[j][i] moves the entries of block i into block j
        conditions = [[field.zero] * (m * m) for _ in range(ambient)]
        for j in range(m):
            for i in range(m):
                shifted = [field.zero] * ambient
                for l in range(g):
                    shifted[j * g + l] = x_row[i * g + l]
                for pos, x in enumerate(target.reduce(shifted)):
                    conditions[pos][j * m + i] = x
        eq_rows.extend(conditions)
    kernel = Matrix(field, eq_rows, ncols=m * m).kernel()
    return Subspace.span(field, m * m, kernel.rows)


def reference_idempotent_summand(parent, image, depth=3):
    """Presentation of the submodule of a parent that the basis of a
    degree-0 subspace generates, found by kernel search, with the kernel
    rows that escape it.

    In each degree e up to depth, the full kernel of (free module on the
    image basis)_e -> parent_e is built one unit vector of A_e at a time.
    The kernel in degree 1 gives the relations.  A kernel row of a higher
    degree that the translates of those relations do not span escapes the
    linear presentation; the escapes are returned as (degree, row) pairs,
    so a linear submodule has none.
    """
    field = parent.field
    alg = parent.algebra
    gens = [tuple(row) for row in image.basis]
    r = len(gens)
    presentation = ModulePresentation(r, ())
    escapes = []
    for e in range(1, depth + 1):
        block = alg.graded_dim(e)
        cols = []
        for beta in range(r):
            for j in range(block):
                unit = tuple(field.one if t == j else field.zero
                             for t in range(block))
                cols.append(parent.mult_by_element(0, gens[beta], e, unit))
        rows = [[cols[c][pos] for c in range(r * block)]
                for pos in range(parent.graded_dim(e))]
        kernel = [tuple(row) for row in
                  Matrix(field, rows, ncols=r * block).kernel().rows]
        if e == 1:
            presentation = ModulePresentation(r, tuple(kernel))
            linear = GradedModule(alg, presentation)
            continue
        span = linear.level(e).rel_space
        escapes += [(e, row) for row in kernel
                    if not span.contains(list(row))]
    return presentation, tuple(escapes)


def reference_preresolution_dims(presentations, algebra, bound):
    """The Hom table of preresolution_table, built the earlier way: every
    module fresh from its presentation, a fresh target for each column,
    and hom_graded for each cell.  table[i][j] lists dim Hom_n(M_i, M_j)
    for n from -3 to the bound, the free module A last."""
    presentations = list(presentations) + [free_module(algebra).presentation]
    sources = [GradedModule(algebra, p) for p in presentations]
    columns = []
    for p in presentations:
        target = GradedModule(algebra, p)
        columns.append([tuple(hom_graded(source, target, n)
                              for n in range(-3, bound + 1))
                        for source in sources])
    return tuple(tuple(column[i] for column in columns)
                 for i in range(len(sources)))


def pairwise_preresolution_solution(modules):
    """The degree-0 maps between the modules, assembled pair by pair: each
    map M_i -> M_j from hom_space(M_i, M_j, 0) is the block of one square
    matrix over all generators, in the rows of the generators of M_j and
    the columns of those of M_i, flattened row by row.  Returns the span
    of all the blocks, End(M_1 (+) ... (+) M_k)_0 as a subspace."""
    owner = [i for i, module in enumerate(modules)
             for _ in range(module.presentation.rank)]
    size = len(owner)
    starts = [owner.index(i) for i in range(len(modules))]
    vectors = [{(starts[j] + beta) * size + starts[i] + alpha: c
                for alpha, image in enumerate(images)
                for beta, c in enumerate(image) if c}
               for i, source in enumerate(modules)
               for j, target in enumerate(modules)
               for images in hom_space(source, target, 0)]
    return Subspace._span_sparse(modules[0].field, size * size, vectors)


# the call each late stage makes, as (owner, attribute) for monkeypatch
STAGE_CALLS = {
    "idempotents": (FiniteDimAlgebra, "primitive_idempotents"),
    "mcm-classification": (pipeline, "classify_mcm"),
    "syzygy-shift": (pipeline, "syzygy_shift_evidence"),
    "preresolution": (pipeline, "preresolution_table"),
    "dual-crosscheck": (pipeline, "stable_dual_algebra"),
}


def break_stage(monkeypatch, name):
    """Make the call behind a stage raise a plain AlgebraError."""
    def boom(*args, **kwargs):
        raise AlgebraError("central splitting found no usable element")

    owner, attr = STAGE_CALLS[name]
    monkeypatch.setattr(owner, attr, boom)


# -- words, tensors and subspaces ---------------------------------------------


def word_index(word, g):
    flat = 0
    for letter in word:
        flat = flat * g + letter
    return flat


def index_word(flat, n, g):
    """Inverse of word_index for words of length n."""
    word = [0] * n
    for k in range(n - 1, -1, -1):
        word[k] = flat % g
        flat //= g
    return tuple(word)


def all_words(n, g):
    return list(product(range(g), repeat=n))


def word_walk(owner, n, coords, k, a_coords):
    """Class of (element of degree n of owner, an algebra or a module) times
    (element of A_k), the reference for right_action and the left tables.

    Each normal word of A_k with a nonzero coefficient acts letter by
    letter through the generator tables of the owner's levels it passes,
    on the nonzero coordinates only, and the results are summed.
    """
    algebra = getattr(owner, "algebra", owner)
    start = tuple((i, c) for i, c in enumerate(coords) if c)
    acc = {}
    for aj, word in zip(a_coords, algebra.basis_words(k)):
        if not aj:
            continue
        cur = start
        for level, letter in enumerate(word, n):
            cur = generator_step(owner.tables(level)[letter], cur)
        for t, c in cur:
            y = acc.get(t)
            acc[t] = aj * c if y is None else y + aj * c
    return dense_class(acc.items(), owner.graded_dim(n + k),
                       owner.field.zero)


def project(algebra, n, vector):
    """Class in A_n of a tensor vector of V^(x)n: each word with a nonzero
    coefficient walks letter by letter from 1 through the generator
    tables."""
    acc = {}
    for c, word in zip(vector, all_words(n, algebra.gdim)):
        if c:
            cls = ((0, algebra.field.one),)
            for level, letter in enumerate(word):
                cls = generator_step(algebra.tables(level)[letter], cls)
            add_multiple(acc, c, dict(cls))
    return dense_class(acc.items(), algebra.graded_dim(n), algebra.field.zero)


def is_central_by_projection(algebra, w):
    """Does w (x) x_l - x_l (x) w project to zero in A_3 for every l?  The
    V^(x)3 construction of the degree-3 centrality test."""
    g = algebra.gdim
    for l in range(g):
        diff = [algebra.field.zero] * g ** 3
        for q, c in enumerate(w):
            if c:
                diff[q * g + l] = diff[q * g + l] + c
                diff[l * g * g + q] = diff[l * g * g + q] - c
        if any(project(algebra, 3, diff)):
            return False
    return True


def tensor_coords_right(vector, left, g):
    """Coordinates of a vector of W (x) V over basis rows of W tensor gens."""
    if len(vector) != left.ambient_dim * g:
        raise ValueError("vector does not live in W (x) V")
    coords = _coords_right(sparse_row(left.field, vector), left, g)
    return list(dense_class(coords.items(), left.dim * g, left.field.zero))


def tensor_coords_left(vector, right, g):
    """Coordinates of a vector of V (x) W over generators tensor basis rows."""
    if len(vector) != g * right.ambient_dim:
        raise ValueError("vector does not live in V (x) W")
    coords = _coords_left(sparse_row(right.field, vector), right, g)
    return list(dense_class(coords.items(), right.dim * g, right.field.zero))


def tensor_vector_from_coords(coords, left, g):
    """Inverse of tensor_coords_right: assemble the ambient tensor vector."""
    amb = left.ambient_dim
    z = left.field.zero
    out = [z] * (amb * g)
    for i, row in enumerate(left.basis):
        for k in range(g):
            c = coords[i * g + k]
            if c:
                for p in range(amb):
                    if row[p]:
                        out[p * g + k] = out[p * g + k] + c * row[p]
    return out


def element_vector(presentation, n, coords):
    """Lift class coordinates in A_n to the normal-word tensor vector."""
    g = presentation.gdim
    vec = [presentation.field.zero] * (g ** n)
    words = presentation.component(n).words
    for j, c in enumerate(coords):
        if c:
            flat = 0
            for letter in words[j]:
                flat = flat * g + letter
            vec[flat] = vec[flat] + c
    return vec


def linear_combination(sub, coords):
    """The vector with the given coordinates over the basis rows of sub."""
    z = sub.field.zero
    v = [z] * sub.ambient_dim
    for c, row in zip(coords, sub.basis):
        if c:
            for j in range(sub.ambient_dim):
                if row[j]:
                    v[j] = v[j] + c * row[j]
    return v


def coords_of(sub, vector):
    """Coefficients of the vector over the basis rows of sub, or None."""
    v = sub._outside(vector)
    taken = sub.reduce_sparse(v)
    if v:
        return None
    coords = [sub.field.zero] * sub.dim
    for i, f in taken:
        coords[i] = f
    return coords


def is_subspace_of(sub, other):
    if sub.ambient_dim != other.ambient_dim or sub.field != other.field:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return all(other.contains(b) for b in sub.basis)


def central_primitive_idempotents(alg, seed=0):
    """The orthogonal central idempotents of alg with simple block centers,
    as dense tuples; raises NonSplit as the split does."""
    return [alg._tuple(e) for e, _, _ in alg._split(seed)]


def _mult_matrix(alg, times):
    cols = [times(alg.basis_vector(j)) for j in range(alg.dim)]
    rows = [[cols[j][k] for j in range(alg.dim)] for k in range(alg.dim)]
    return Matrix(alg.field, rows, ncols=alg.dim)


def left_mult_matrix(alg, a):
    """Matrix of x -> a * x on a finite-dimensional algebra."""
    return _mult_matrix(alg, lambda x: alg.multiply(a, x))


def right_mult_matrix(alg, a):
    """Matrix of x -> x * a on a finite-dimensional algebra."""
    return _mult_matrix(alg, lambda x: alg.multiply(x, a))


def trace_form_radical(alg):
    """Kernel of the Gram matrix Tr(L_i L_j) of the left regular
    representation, built from products of left multiplication matrices."""
    lm = [left_mult_matrix(alg, alg.basis_vector(i)) for i in range(alg.dim)]

    def trace(mat):
        return sum((mat.entry(i, i) for i in range(mat.nrows)),
                   alg.field.zero)

    gram = Matrix(alg.field, [[trace(a * b) for b in lm] for a in lm])
    return Subspace.span(alg.field, alg.dim, gram.kernel().rows)


def horner_eval(alg, poly, a, unit):
    """poly(a) by Horner's rule, the constant term times the given unit."""
    acc = {}
    for c in reversed(poly.coeffs):
        acc = alg._mul(acc, a)
        if c:
            add_multiple(acc, c, unit)
    return acc


def two_sided_block(alg, e):
    """eAe as the span of the e * b_i * e, two products per basis element."""
    one = alg.field.one
    return Subspace._span_sparse(
        alg.field, alg.dim,
        [alg._mul(alg._mul(e, {i: one}), e) for i in range(alg.dim)])


def reference_central_split(alg, seed):
    """The central split of a split semisimple algebra by the route the
    package used before it read eAe as eA and combined powers: each block
    two-sided, each piece h(x) / h(lambda) evaluated by Horner's rule.
    Returns the (central idempotent, block) pairs as sparse rows and
    Subspaces, in the order the package keeps them."""
    rng = SmallRng(seed)
    one = alg.field.one
    work = [alg._unit]
    done = []
    while work:
        e = work.pop(0)
        block = two_sided_block(alg, e)
        zc = alg._commutant(block)
        if zc.dim <= 1:
            done.append((e, block))
            continue
        best = None
        candidates = list(zc.sparse)
        candidates += [alg._random_element(zc, rng) for _ in range(32)]
        for x in candidates:
            if not x:
                continue
            m = alg.min_poly(x, unit=e)
            if m.degree < 2:
                continue
            if best is None or m.degree > best[1].degree:
                best = (x, m)
            if m.degree == zc.dim:
                break
        x, m = best
        roots = roots_in_field(m)
        assert len(roots) == m.degree, "the reference needs a split center"
        pieces = []
        for lam in roots:
            h = m // Polynomial(alg.field, [-lam, one])
            inv = h(lam).inverse()
            pieces.append({k: inv * c
                           for k, c in horner_eval(alg, h, x, e).items()})
        work = pieces + work
    return done


# -- reference scalar arithmetic on Fraction coordinates -----------------------


def fraction_add(a, b):
    """Sum of two coordinate tuples of Fractions."""
    return tuple(x + y for x, y in zip(a, b))


def fraction_mul(field, a, b):
    """Product of two coordinate tuples of Fractions in field: the
    convolution, with t^k for k >= e reduced by the monic modulus."""
    e = field.degree
    if e == 1:
        return (a[0] * b[0],)
    conv = [Fraction(0)] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    m = field.modulus
    for k in range(2 * e - 2, e - 1, -1):
        c = conv[k]
        conv[k] = Fraction(0)
        for i in range(e):
            conv[k - e + i] -= c * m[i]
    return tuple(conv[:e])


def _fraction_divmod(a, b):
    a, q = list(a), [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return q, a


def fraction_inverse(field, a):
    """Inverse of a coordinate tuple of Fractions in Q[t]/(m): the extended
    Euclidean algorithm on Fraction coefficient lists."""
    r0, r1 = [Fraction(c) for c in field.modulus], list(a)
    while r1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _fraction_divmod(r0, r1)
        qs = [Fraction(0)] * max(len(s0), len(q) + len(s1) - 1)
        for i, x in enumerate(s0):
            qs[i] += x
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                qs[i + j] -= x * y
        r0, r1, s0, s1 = r1, r, s1, qs
    assert len(r0) == 1, "not invertible modulo the modulus"
    out = [x / r0[0] for x in s0] + [Fraction(0)] * field.degree
    return tuple(out[:field.degree])


# -- reference dense elimination -----------------------------------------------


def dense_rref(rows, ncols):
    """Dense Gauss-Jordan elimination over FieldElement rows: the reduced
    rows (zero rows last) and the pivot tuple.  Pivoting takes the first
    row with a nonzero entry in each column."""
    rows = [list(r) for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        if pr == len(rows):
            break
        hit = None
        for r in range(pr, len(rows)):
            if rows[r][c]:
                hit = r
                break
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        prow = rows[pr]
        inv = prow[c].inverse()
        support = [j for j in range(c, ncols) if prow[j]]
        for j in support:
            prow[j] = prow[j] * inv
        for r in range(len(rows)):
            if r != pr and rows[r][c]:
                f = rows[r][c]
                rr = rows[r]
                for j in support:
                    rr[j] = rr[j] - f * prow[j]
        pivots.append(c)
        pr += 1
    return rows, tuple(pivots)


def dense_kernel(field, rows, ncols):
    """Canonical right null space basis read off dense_rref."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def dense_solve(field, rows, ncols, rhs):
    """One solution of rows * x = rhs with free variables zero, or None."""
    red, pivots = dense_rref([list(r) + [b] for r, b in zip(rows, rhs)],
                             ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def dense_reduce(field, basis, pivots, vector):
    """Residual and basis coefficients of a vector against an rref basis."""
    v = list(vector)
    coords = [field.zero] * len(basis)
    for i, pc in enumerate(pivots):
        c = v[pc]
        if c:
            coords[i] = c
            v = [x - c * b for x, b in zip(v, basis[i])]
    return v, coords


# -- reference root search over Q and Q(i) -------------------------------------


def brute_roots(coeffs, gaussian):
    """All roots in Q, or in Q(i) if ``gaussian``, of the polynomial with
    ascending coefficients ``coeffs``, each a (real, imag) pair of
    Fractions, found by trying every candidate inside the Cauchy bound.

    Scaled to Gaussian integers c_k, every root r has |r| < R for the least
    integer R >= 1 with |c_n| R^n > sum_k |c_k| R^k, and c_n r is a
    Gaussian integer.  So the candidates are z / c_n with z = a + b i and
    |a|, |b| < |c_n| R (b = 0 over Q).  Returns sorted (real, imag) pairs.
    """
    den = lcm(*[x.denominator for c in coeffs for x in c])
    cs = [(int(a * den), int(b * den)) for a, b in coeffs]
    n = len(cs) - 1
    lead = cs[-1]
    low = max(abs(lead[0]), abs(lead[1]))  # |c_n| >= low
    high = abs(lead[0]) + abs(lead[1])     # |c_k| <= |re| + |im|
    R = 1
    while low * R ** n <= sum((abs(a) + abs(b)) * R ** k
                              for k, (a, b) in enumerate(cs[:-1])):
        R += 1
    lead_pows = [(1, 0)]
    for _ in range(n):
        lead_pows.append(_gmul(lead_pows[-1], lead))
    norm = lead[0] ** 2 + lead[1] ** 2
    roots = []
    span = range(-high * R, high * R + 1)
    for a in span:
        for b in (span if gaussian else (0,)):
            # c_n^n p(z / c_n) = sum_k c_k z^k c_n^(n-k)
            acc, zk = (0, 0), (1, 0)
            for k, c in enumerate(cs):
                term = _gmul(_gmul(c, zk), lead_pows[n - k])
                acc = (acc[0] + term[0], acc[1] + term[1])
                zk = _gmul(zk, (a, b))
            if acc == (0, 0):
                num = _gmul((a, b), (lead[0], -lead[1]))
                roots.append((Fraction(num[0], norm), Fraction(num[1], norm)))
    return sorted(roots)


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
