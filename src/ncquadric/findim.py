"""Finite dimensional associative algebras over exact fields.

Structure constants are checked for associativity and a two-sided unit at
construction time, so everything downstream can trust the table.  The
semisimplicity test is the trace-form radical (characteristic zero), and
primitive idempotents come out of a two-stage search: split the center with
seeded generic elements, then hunt a rank-one idempotent inside each matrix
block.  Ground fields without the needed eigenvalues surface as NonSplit
with the partial decomposition preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import AlgebraError, NonSplit, NotSemisimple
from .fields import Polynomial, roots_in_field
from .linalg import Matrix, Subspace


class SmallRng:
    """Tiny deterministic LCG; only used to seed element searches."""

    def __init__(self, seed):
        self.state = seed % (2 ** 31)

    def next_int(self, bound):
        self.state = (1103515245 * self.state + 12345) % (2 ** 31)
        return (self.state >> 16) % bound

    def small_coeff(self, span=4):
        # uniform-ish integer in [-span, span]
        return self.next_int(2 * span + 1) - span


@dataclass(frozen=True)
class IdempotentSet:
    idempotents: tuple
    kind: str

    def __len__(self):
        return len(self.idempotents)


class FiniteDimAlgebra:
    """An algebra given by basis labels, structure constants, and a unit."""

    def __init__(self, field, labels, structure, unit, check=True):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        sc = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                vec = tuple(self._coerce_scalar(c) for c in structure[i][j])
                if len(vec) != self.dim:
                    raise ValueError("structure constant shape mismatch")
                row.append(vec)
            sc.append(tuple(row))
        self.structure = tuple(sc)
        self.unit = tuple(self._coerce_scalar(c) for c in unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit vector shape mismatch")
        self._radical = None
        self._basis_left = None
        self._central = {}  # seed -> central primitive idempotents
        if check:
            self._verify_table()

    @classmethod
    def of_matrices(cls, field, labels, span, unit):
        """The algebra a span of square matrices forms under the product.

        Each basis row of the span, and the unit, is a matrix flattened row
        by row; the basis rows become the algebra basis.  Raises
        AlgebraError if a product or the unit leaves the span.
        """
        size = isqrt(span.ambient_dim)
        mats = [Matrix(field, [row[i * size:(i + 1) * size]
                               for i in range(size)], ncols=size)
                for row in span.basis]

        def coords(vec, what):
            out = span.coords_of(vec)
            if out is None:
                raise AlgebraError(f"{what} leaves the span of the matrices")
            return out

        structure = [[coords([c for r in (a * b).rows for c in r],
                             "a product")
                      for b in mats] for a in mats]
        return cls(field, labels, structure, coords(list(unit), "the unit"))

    def _coerce_scalar(self, c):
        return c if hasattr(c, "field") else self.field.element(c)

    def _verify_table(self):
        n = self.dim
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            if self.multiply(self.unit, basis[i]) != basis[i]:
                raise AlgebraError("unit is not a left unit")
            if self.multiply(basis[i], self.unit) != basis[i]:
                raise AlgebraError("unit is not a right unit")
        for i in range(n):
            for j in range(n):
                ij = self.structure[i][j]
                for k in range(n):
                    left = self.multiply(ij, basis[k])
                    right = self.multiply(basis[i], self.structure[j][k])
                    if left != right:
                        raise AlgebraError(
                            f"structure constants are not associative at "
                            f"({self.labels[i]}, {self.labels[j]}, "
                            f"{self.labels[k]})")

    # -- element arithmetic --------------------------------------------------

    def basis_vector(self, i):
        z = self.field.zero
        return tuple(self.field.one if k == i else z for k in range(self.dim))

    def zero_vector(self):
        return (self.field.zero,) * self.dim

    def coerce(self, vec):
        out = tuple(self._coerce_scalar(c) for c in vec)
        if len(out) != self.dim:
            raise ValueError("element vector shape mismatch")
        return out

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def scale(self, c, a):
        return tuple(c * x for x in a)

    def multiply(self, a, b):
        out = [self.field.zero] * self.dim
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.structure[i]
            for j, bj in enumerate(b):
                if not bj:
                    continue
                cij = ai * bj
                for k, sk in enumerate(row[j]):
                    if sk:
                        out[k] = out[k] + cij * sk
        return tuple(out)

    def eval_poly(self, poly, a, unit=None):
        """poly(a), with poly's constant term times the given unit."""
        unit = self.unit if unit is None else unit
        acc = self.zero_vector()
        for c in reversed(poly.coeffs):
            acc = self.multiply(acc, a)
            if c:
                acc = self.add(acc, self.scale(c, unit))
        return acc

    def left_mult_matrix(self, a):
        cols = [self.multiply(a, self.basis_vector(j)) for j in range(self.dim)]
        rows = [[cols[j][k] for j in range(self.dim)] for k in range(self.dim)]
        return Matrix(self.field, rows, ncols=self.dim)

    # -- semisimplicity ------------------------------------------------------

    def _basis_left_mults(self):
        if self._basis_left is None:
            self._basis_left = [self.left_mult_matrix(self.basis_vector(i))
                                for i in range(self.dim)]
        return self._basis_left

    def radical(self):
        """Kernel of the trace form of the left regular representation."""
        if self._radical is None:
            lm = self._basis_left_mults()
            rows = [[(lm[i] * lm[j]).trace() for j in range(self.dim)]
                    for i in range(self.dim)]
            gram = Matrix(self.field, rows, ncols=self.dim)
            self._radical = Subspace.span(self.field, self.dim,
                                          gram.kernel().rows)
        return self._radical

    def is_semisimple(self):
        return self.radical().dim == 0

    def quotient_by_radical(self):
        rad = self.radical()
        if rad.dim == 0:
            return self
        pivot_set = set(rad.pivots)
        free = [c for c in range(self.dim) if c not in pivot_set]

        def project(vec):
            resid = rad.reduce(list(vec))
            return tuple(resid[c] for c in free)

        labels = tuple(self.labels[c] for c in free)
        sc = []
        for c in free:
            row = []
            ec = self.basis_vector(c)
            for d in free:
                row.append(project(self.multiply(ec, self.basis_vector(d))))
            sc.append(row)
        return FiniteDimAlgebra(self.field, labels, sc, project(self.unit))

    def center(self):
        return self._commutant(Subspace.full(self.field, self.dim))

    def _commutant(self, block):
        """Elements of the block commuting with every block basis element."""
        q = block.dim
        rows = []
        for x in block.basis:
            cols = []
            for k in range(q):
                bk = block.basis[k]
                cols.append(self.sub(self.multiply(bk, x),
                                     self.multiply(x, bk)))
            for pos in range(self.dim):
                rows.append([cols[k][pos] for k in range(q)])
        mat = Matrix(self.field, rows, ncols=q)
        sols = mat.kernel()
        vectors = []
        for coords in sols.rows:
            v = self.zero_vector()
            for k, c in enumerate(coords):
                if c:
                    v = self.add(v, self.scale(c, block.basis[k]))
            vectors.append(list(v))
        return Subspace.span(self.field, self.dim, vectors)

    def min_poly(self, a, unit=None):
        """Monic minimal polynomial of a, relative to the given unit."""
        unit = self.unit if unit is None else unit
        a = self.coerce(a)
        powers = [tuple(unit)]
        cur = tuple(unit)
        while True:
            cur = self.multiply(cur, a)
            mat = Matrix(self.field, [list(p) for p in powers]).transpose()
            sol = mat.solve(list(cur))
            if sol is not None:
                coeffs = [-c for c in sol] + [self.field.one]
                return Polynomial(self.field, coeffs)
            powers.append(cur)
            if len(powers) > self.dim + 1:
                raise AlgebraError("minimal polynomial search ran away")

    # -- idempotents -----------------------------------------------------------

    def _block_subspace(self, e):
        vectors = []
        for i in range(self.dim):
            vectors.append(list(self.multiply(
                self.multiply(e, self.basis_vector(i)), e)))
        return Subspace.span(self.field, self.dim, vectors)

    def central_primitive_idempotents(self, seed=0):
        """Orthogonal central idempotents with simple block centers.

        Raises NonSplit when the ground field misses eigenvalues, carrying
        the partial orthogonal decomposition found so far.  A split is
        computed once per seed and handed out as a fresh list; a NonSplit
        is not kept, so asking again raises it again.
        """
        done = self._central.get(seed)
        if done is None:
            done = self._split_center(seed)
            self._central[seed] = done
        return list(done)

    def _split_center(self, seed):
        rng = SmallRng(seed)
        work = [tuple(self.unit)]
        done = []
        while work:
            e = work.pop(0)
            block = self._block_subspace(e)
            zc = self._commutant(block)
            if zc.dim <= 1:
                done.append(e)
                continue
            pieces = self._split_central_once(e, zc, rng,
                                              partial_rest=done + work)
            work = pieces + work
        return done

    def _split_central_once(self, e, zc, rng, partial_rest):
        best = None
        candidates = [tuple(b) for b in zc.basis]
        for _ in range(32):
            v = self.zero_vector()
            for b in zc.basis:
                c = rng.small_coeff()
                if c:
                    v = self.add(v, self.scale(self.field.from_rational(c), b))
            candidates.append(v)
        for x in candidates:
            if all(not c for c in x):
                continue
            m = self.min_poly(x, unit=e)
            if m.degree < 2:
                continue
            if best is None or m.degree > best[1].degree:
                best = (x, m)
            if m.degree == zc.dim:
                break
        if best is None:
            raise AlgebraError("central splitting found no usable element")
        x, m = best
        roots = roots_in_field(m)
        pieces = []
        for lam in roots:
            t_minus = Polynomial(self.field, [-lam, self.field.one])
            h = m // t_minus
            val = self.eval_poly(h, x, unit=e)
            denom = h(lam)
            piece = self.scale(denom.inverse(), val)
            if self.multiply(piece, piece) != piece:
                raise AlgebraError("central idempotent candidate failed")
            pieces.append(piece)
        if len(roots) < m.degree:
            residual = tuple(e)
            for p in pieces:
                residual = self.sub(residual, p)
            factor = m
            for lam in roots:
                factor = factor // Polynomial(self.field,
                                              [-lam, self.field.one])
            partial = tuple(partial_rest) + tuple(pieces) + (residual,)
            raise NonSplit("central characteristic factor does not split "
                           f"over {self.field.describe()}", factor=factor,
                           partial=partial)
        return pieces

    def primitive_idempotents(self, seed=0):
        if not self.is_semisimple():
            raise NotSemisimple(
                "primitive idempotent decomposition requires a semisimple "
                "algebra")
        rng = SmallRng(seed ^ 0x5DEECE)
        prims = []
        for e in self.central_primitive_idempotents(seed):
            prims.extend(self._split_block(e, rng, prims))
        total = self.zero_vector()
        for p in prims:
            for q in prims:
                prod = self.multiply(p, q)
                want = p if p == q else self.zero_vector()
                if prod != want:
                    raise AlgebraError("idempotent family is not orthogonal")
            total = self.add(total, p)
        if total != self.unit:
            raise AlgebraError("idempotent family does not sum to the unit")
        return IdempotentSet(tuple(prims), "primitive")

    def _split_block(self, e, rng, found_so_far):
        block = self._block_subspace(e)
        q = block.dim
        if q == 1:
            return [e]
        n = isqrt(q)
        if n * n != q:
            raise NonSplit(
                "simple block dimension is not a perfect square over "
                f"{self.field.describe()}",
                partial=tuple(found_so_far) + (tuple(e),))
        prims = []
        current = tuple(e)
        cur_block = block
        cur_n = n
        while cur_n > 1:
            e1 = self._rank_one_idempotent(current, cur_block, cur_n, n, rng,
                                           tuple(found_so_far) + tuple(prims))
            prims.append(e1)
            current = self.sub(current, e1)
            cur_block = self._block_subspace(current)
            cur_n -= 1
            if cur_block.dim != cur_n * cur_n:
                raise AlgebraError("block splitting lost track of dimensions")
        prims.append(current)
        return prims

    def _left_ideal(self, block, y):
        vectors = [list(self.multiply(b, y)) for b in block.basis]
        return Subspace.span(self.field, self.dim, vectors)

    def _rank_one_idempotent(self, e, block, cur_n, n, rng, partial):
        """A primitive idempotent inside the block eFe of matrix size cur_n.

        Strategy: take candidates x, use in-field eigenvalues to make x
        singular, shrink the left ideal it generates down to minimal size n,
        then solve for the right unit of that ideal.
        """
        candidates = [tuple(b) for b in block.basis]
        for i, bi in enumerate(block.basis):
            for bj in block.basis[i + 1:]:
                candidates.append(self.add(bi, bj))
                candidates.append(tuple(self.multiply(bi, bj)))
        for _ in range(32):
            v = self.zero_vector()
            for b in block.basis:
                c = rng.small_coeff()
                if c:
                    v = self.add(v, self.scale(self.field.from_rational(c), b))
            candidates.append(v)
        for x in candidates:
            if all(not c for c in x):
                continue
            m = self.min_poly(x, unit=e)
            if m.degree < 1:
                continue
            for lam in roots_in_field(m):
                y = self.sub(x, self.scale(lam, e))
                if all(not c for c in y):
                    continue
                result = self._minimal_ideal_idempotent(block, y, n, rng)
                if result is not None:
                    return result
        raise NonSplit(
            "no in-field eigenvalue produced a rank-one idempotent in a "
            f"block of matrix size {cur_n} over {self.field.describe()}",
            partial=partial + (tuple(e),), decided=False)

    def _minimal_ideal_idempotent(self, block, y, n, rng):
        ideal = self._left_ideal(block, y)
        for _ in range(16):
            if ideal.dim == 0:
                return None
            if ideal.dim == n:
                return self._right_unit_of(ideal)
            shrunk = None
            inner = [tuple(b) for b in ideal.basis]
            for _ in range(16):
                v = self.zero_vector()
                for b in ideal.basis:
                    c = rng.small_coeff()
                    if c:
                        v = self.add(v, self.scale(
                            self.field.from_rational(c), b))
                inner.append(v)
            for z in inner:
                if all(not c for c in z):
                    continue
                cand = self._left_ideal(block, z)
                if 0 < cand.dim < ideal.dim:
                    shrunk = cand
                    break
            if shrunk is None:
                return None
            ideal = shrunk
        return None

    def _right_unit_of(self, ideal):
        """Solve l * u = l for all l in the ideal; any solution is idempotent."""
        q = ideal.dim
        rows = []
        rhs = []
        for l in ideal.basis:
            cols = [self.multiply(l, b) for b in ideal.basis]
            for pos in range(self.dim):
                rows.append([cols[k][pos] for k in range(q)])
                rhs.append(l[pos])
        sol = Matrix(self.field, rows, ncols=q).solve(rhs)
        if sol is None:
            return None
        u = self.zero_vector()
        for k, c in enumerate(sol):
            if c:
                u = self.add(u, self.scale(c, ideal.basis[k]))
        if self.multiply(u, u) != u or all(not c for c in u):
            return None
        return u

    def block_structure(self, seed=0):
        """Multiset of matrix sizes of the simple blocks, smallest first."""
        if not self.is_semisimple():
            raise NotSemisimple("block structure requires a semisimple algebra")
        sizes = []
        for e in self.central_primitive_idempotents(seed):
            q = self._block_subspace(e).dim
            n = isqrt(q)
            if n * n != q:
                raise NonSplit(
                    "simple block dimension is not a perfect square over "
                    f"{self.field.describe()}", partial=(tuple(e),))
            sizes.append(n)
        return tuple(sorted(sizes))
