"""Finite dimensional associative algebras over exact fields.

An element is a linalg sparse row {basis index: nonzero scalar}, and the
structure constants are stored once as sparse rows, ``_table[i][j]`` =
b_i * b_j, checked for associativity and a two-sided unit.  Dense tuples
appear only at the boundary: constructor input, ``unit``, ``basis_vector``,
``multiply``, ``min_poly``, the idempotent families and ``NonSplit.partial``.
The radical is the kernel of the trace form Tr(L_a L_b) = tau(ab), read off
the table through the trace functional tau(b_m) = sum_k c^k_{mk}.  Primitive
idempotents: split the center with seeded generic elements, keeping each
block eAe (eA, as e is central), each piece a combination of the powers of
one central element; then split each matrix block by a proper idempotent,
the right unit of a left ideal, and split both halves again; the matrix
size of a block is the number of its primitives.  Missing eigenvalues
raise NonSplit with the partial decomposition.  The split is the one
record of the algebra's decomposition: computed once per seed, it keeps
the central blocks with their primitives, or the NonSplit, which every
later call raises again; primitive_idempotents and block_structure both
read it.
"""

from __future__ import annotations

from math import isqrt

from .errors import AlgebraError, NonSplit, NotSemisimple
from .fields import Polynomial, roots_in_field
from .linalg import Matrix, Subspace, add_multiple, column_system, sparse_row


class SmallRng:
    """Tiny deterministic LCG; only used to seed element searches."""

    def __init__(self, seed):
        self.state = seed % (2 ** 31)

    def next_int(self, bound):
        self.state = (1103515245 * self.state + 12345) % (2 ** 31)
        return (self.state >> 16) % bound

    def small_coeff(self):
        # uniform-ish integer in [-4, 4]
        return self.next_int(9) - 4


def _combination(coeffs, rows):
    """sum_k coeffs[k] * rows[k] for a sparse row of coefficients."""
    out = {}
    for k, c in coeffs.items():
        add_multiple(out, c, rows[k])
    return out


class FiniteDimAlgebra:
    """An algebra given by basis labels, structure constants, and a unit."""

    def __init__(self, field, labels, structure, unit):
        self.field = field
        self.labels = tuple(labels)
        n = self.dim = len(self.labels)
        self._table = [[self._row(structure[i][j], "structure constant")
                        for j in range(n)] for i in range(n)]
        self._unit = self._row(unit, "unit vector")
        self.unit = self._tuple(self._unit)
        self._radical = None
        # seed -> [(e, block eAe, primitives)], or (NonSplit, traceback)
        self._splits = {}
        self._verify_table()

    @classmethod
    def of_matrices(cls, field, labels, span, unit):
        """The algebra a span of square matrices forms under the product.

        Each basis row of the span, and the unit, is a matrix flattened row
        by row; the basis rows become the algebra basis.  Raises
        AlgebraError if a product or the unit leaves the span.
        """
        size = isqrt(span.ambient_dim)

        def coords(flat, what):
            taken = span.reduce_sparse(flat)
            if flat:
                raise AlgebraError(f"{what} leaves the span of the matrices")
            return dict(taken)

        mats = [Matrix._from_sparse(field, [
            {c % size: x for c, x in flat.items() if c // size == r}
            for r in range(size)], size) for flat in span.sparse]
        structure = [[coords({r * size + c: x
                              for r, row in enumerate((a * b).sparse)
                              for c, x in row.items()}, "a product")
                      for b in mats] for a in mats]
        return cls(field, labels, structure,
                   coords(sparse_row(field, unit), "the unit"))

    def _row(self, vec, what):
        """A dense vector from outside as a sparse row; sparse rows pass."""
        if type(vec) is dict:
            return vec
        vec = list(vec)
        if len(vec) != self.dim:
            raise ValueError(f"{what} shape mismatch")
        return sparse_row(self.field, vec)

    def _tuple(self, v):
        return tuple(v.get(k, self.field.zero) for k in range(self.dim))

    def _verify_table(self):
        n, table, unit = self.dim, self._table, self._unit
        one = self.field.one
        for i in range(n):
            b = {i: one}
            if self._mul(unit, b) != b:
                raise AlgebraError("unit is not a left unit")
            if self._mul(b, unit) != b:
                raise AlgebraError("unit is not a right unit")
        for k in range(n):
            col = [table[m][k] for m in range(n)]
            for i in range(n):
                for j in range(n):
                    # (b_i b_j) b_k against b_i (b_j b_k)
                    if (_combination(table[i][j], col)
                            != _combination(table[j][k], table[i])):
                        raise AlgebraError(
                            f"structure constants are not associative at "
                            f"({self.labels[i]}, {self.labels[j]}, "
                            f"{self.labels[k]})")

    # -- element arithmetic --------------------------------------------------

    def basis_vector(self, i):
        return self._tuple({i: self.field.one})

    def _mul(self, a, b):
        out = {}
        for i, x in a.items():
            row = self._table[i]
            for j, y in b.items():
                t = row[j]
                if t:
                    add_multiple(out, x * y, t)
        return out

    def multiply(self, a, b):
        return self._tuple(self._mul(self._row(a, "element vector"),
                                     self._row(b, "element vector")))

    def _random_element(self, space, rng):
        """A seeded combination of the basis rows of a subspace."""
        coeffs = [rng.small_coeff() for _ in space.sparse]
        return _combination({k: self.field.from_rational(c)
                             for k, c in enumerate(coeffs) if c}, space.sparse)

    # -- semisimplicity ------------------------------------------------------

    def radical(self):
        """Kernel of the trace form Tr(L_a L_b) = tau(ab)."""
        if self._radical is None:
            n, table, z = self.dim, self._table, self.field.zero
            tau = [sum((table[m][k].get(k, z) for k in range(n)), z)
                   for m in range(n)]
            gram = Matrix(self.field, [
                [sum((x * tau[m] for m, x in table[i][j].items()), z)
                 for j in range(n)] for i in range(n)], ncols=n)
            self._radical = Subspace._span_sparse(self.field, n,
                                                  gram.kernel().sparse)
        return self._radical

    def is_semisimple(self):
        return self.radical().dim == 0

    def quotient_by_radical(self):
        rad = self.radical()
        if rad.dim == 0:
            return self
        free = [c for c in range(self.dim) if c not in set(rad.pivots)]
        index = {c: k for k, c in enumerate(free)}

        def project(vec):
            vec = dict(vec)
            rad.reduce_sparse(vec)
            return {index[c]: x for c, x in vec.items()}

        labels = tuple(self.labels[c] for c in free)
        table = [[project(self._table[c][d]) for d in free] for c in free]
        return FiniteDimAlgebra(self.field, labels, table,
                                project(self._unit))

    def center(self):
        return self._commutant(Subspace.full(self.field, self.dim))

    def _commutant(self, block):
        """Elements of the block commuting with every block basis element."""
        basis = block.sparse
        minus = -self.field.one

        def bracket(x, b):
            out = self._mul(b, x)
            add_multiple(out, minus, self._mul(x, b))
            return out

        kernel = column_system(self.field, self._stacked(basis, bracket))
        return Subspace._span_sparse(
            self.field, self.dim, [_combination(c, basis) for c in kernel])

    def _stacked(self, basis, product):
        """Columns k of sum_k s_k product(r, basis[k]), r over basis."""
        cols = [{} for _ in basis]
        for ri, r in enumerate(basis):
            for k, b in enumerate(basis):
                for pos, c in product(r, b).items():
                    cols[k][ri, pos] = c
        return cols

    def min_poly(self, a, unit=None):
        """Monic minimal polynomial of a, relative to the given unit."""
        a = self._row(a, "element vector")
        powers = [self._unit if unit is None
                  else self._row(unit, "unit vector")]
        while True:
            cur = self._mul(powers[-1], a)
            sol = column_system(self.field, powers, cur)
            if sol is not None:
                return Polynomial(self.field,
                                  [-c for c in sol] + [self.field.one])
            powers.append(cur)
            if len(powers) > self.dim + 1:
                raise AlgebraError("minimal polynomial search ran away")

    # -- idempotents -----------------------------------------------------------

    def _block_subspace(self, e):
        one = self.field.one
        return Subspace._span_sparse(
            self.field, self.dim,
            [self._mul(self._mul(e, {i: one}), e) for i in range(self.dim)])

    def _split(self, seed):
        """(e, eAe, primitives of eAe) for the orthogonal central
        idempotents e with simple block centers, computed once per seed.

        Raises NonSplit when the ground field misses eigenvalues, carrying
        the partial orthogonal decomposition found so far.  The NonSplit is
        kept as the outcome of the seed with its first traceback, and a
        later call raises the same exception again from that traceback, so
        the traceback does not grow from call to call.
        """
        done = self._splits.get(seed)
        if done is None:
            rng = SmallRng(seed ^ 0x5DEECE)
            done, prims = [], []
            try:
                for e, block in self._split_center(seed):
                    found = self._split_block(e, block, rng, prims)
                    done.append((e, block, found))
                    prims += found
            except NonSplit as exc:
                done = (exc, exc.__traceback__)
            self._splits[seed] = done
        if isinstance(done, tuple):
            exc, first = done
            raise exc.with_traceback(first)
        return done

    def _split_center(self, seed):
        rng = SmallRng(seed)
        work = [self._unit]
        done = []
        while work:
            # e is central (the unit, then polynomials in a central x), so
            # eAe = eA, one product per basis element
            e = work.pop(0)
            block = Subspace._span_sparse(self.field, self.dim, [
                self._mul(e, {i: self.field.one}) for i in range(self.dim)])
            zc = self._commutant(block)
            if zc.dim <= 1:
                done.append((e, block))
                continue
            work = self._split_central_once(
                e, zc, rng, partial_rest=[d for d, _ in done] + work) + work
        return done

    def _split_central_once(self, e, zc, rng, partial_rest):
        best = None
        candidates = list(zc.sparse)
        candidates += [self._random_element(zc, rng) for _ in range(32)]
        for x in candidates:
            if not x:
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
        one = self.field.one
        powers = [e]  # e, x, ..., x^(deg - 1): each piece combines them
        while len(powers) < m.degree:
            powers.append(self._mul(powers[-1], x))
        pieces = []
        factor = m
        for lam in roots:
            t_minus = Polynomial(self.field, [-lam, one])
            factor = factor // t_minus
            h = m // t_minus
            inv = h(lam).inverse()
            piece = _combination({k: inv * c for k, c in enumerate(h.coeffs)
                                  if c}, powers)
            if self._mul(piece, piece) != piece:
                raise AlgebraError("central idempotent candidate failed")
            pieces.append(piece)
        if len(roots) < m.degree:
            residual = dict(e)
            for p in pieces:
                add_multiple(residual, -one, p)
            partial = partial_rest + pieces + [residual]
            raise NonSplit("central characteristic factor does not split "
                           f"over {self.field.describe()}", factor=factor,
                           partial=tuple(map(self._tuple, partial)))
        return pieces

    def primitive_idempotents(self, seed=0):
        if not self.is_semisimple():
            raise NotSemisimple(
                "primitive idempotent decomposition requires a semisimple "
                "algebra")
        prims = [p for _, _, found in self._split(seed) for p in found]
        total = {}
        for p in prims:
            if any(self._mul(p, q) != (p if p == q else {}) for q in prims):
                raise AlgebraError("idempotent family is not orthogonal")
            add_multiple(total, self.field.one, p)
        if total != self._unit:
            raise AlgebraError("idempotent family does not sum to the unit")
        return tuple(map(self._tuple, prims))

    def _split_block(self, e, block, rng, partial):
        """Primitive idempotents summing to e, whose block eAe is simple.

        Split off any proper idempotent f of eAe, then split f and e - f the
        same way (Ronyai 1990).  ``partial`` is the rest of the orthogonal
        family, carried into a NonSplit.
        """
        if block.dim == 1:
            return [e]
        if isqrt(block.dim) ** 2 != block.dim:
            raise NonSplit(
                "simple block dimension is not a perfect square over "
                f"{self.field.describe()}",
                partial=tuple(map(self._tuple, partial + [e])))
        f = self._proper_idempotent(e, block, rng, partial)
        rest = dict(e)
        add_multiple(rest, -self.field.one, f)
        prims = self._split_block(f, self._block_subspace(f), rng,
                                  partial + [rest])
        return prims + self._split_block(rest, self._block_subspace(rest),
                                         rng, partial + prims)

    def _left_ideal(self, block, y):
        return Subspace._span_sparse(self.field, self.dim,
                                     [self._mul(b, y) for b in block.sparse])

    def _proper_idempotent(self, e, block, rng, partial):
        """An idempotent f other than 0 and e in the block eAe.

        For an in-field eigenvalue lam of a candidate x, y = x - lam*e is a
        zero divisor, so its left ideal is proper; when it is not zero
        either, its right unit is an idempotent.
        """
        basis = block.sparse
        one = self.field.one
        candidates = list(basis)
        for i, bi in enumerate(basis):
            for j in range(i + 1, len(basis)):
                candidates += [_combination({i: one, j: one}, basis),
                               self._mul(bi, basis[j])]
        candidates += [self._random_element(block, rng) for _ in range(32)]
        for x in candidates:
            if not x:
                continue
            for lam in roots_in_field(self.min_poly(x, unit=e)):
                y = dict(x)
                if lam:
                    add_multiple(y, -lam, e)
                ideal = self._left_ideal(block, y)
                if 0 < ideal.dim < block.dim:
                    f = self._right_unit_of(ideal)
                    if f is not None:
                        return f
        raise NonSplit(
            "no in-field eigenvalue produced a proper idempotent in a "
            f"simple block of dimension {block.dim} over "
            f"{self.field.describe()}",
            partial=tuple(map(self._tuple, partial + [e])), decided=False)

    def _right_unit_of(self, ideal):
        """Solve l * u = l for all l in the ideal; any solution is idempotent."""
        basis = ideal.sparse
        rhs = {(li, pos): c for li, l in enumerate(basis)
               for pos, c in l.items()}
        sol = column_system(self.field, self._stacked(basis, self._mul), rhs)
        if sol is None:
            return None
        u = _combination({k: c for k, c in enumerate(sol) if c}, basis)
        if not u or self._mul(u, u) != u:
            return None
        return u

    def block_structure(self, seed=0):
        """Multiset of matrix sizes of the simple blocks, smallest first:
        the number of primitive idempotents in each block.  Raises NonSplit
        as primitive_idempotents does, so a division block has no size."""
        if not self.is_semisimple():
            raise NotSemisimple("block structure requires a semisimple algebra")
        return tuple(sorted(len(found) for _, _, found in self._split(seed)))
