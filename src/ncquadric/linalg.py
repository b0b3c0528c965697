"""Dense exact linear algebra over the scalar fields.

Row-oriented throughout: a Matrix is a list of rows, a Subspace keeps a
canonical reduced-row-echelon basis of row vectors.  Pivoting always takes
the first row with a nonzero entry, so every derived basis is canonical and
repeated runs produce identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbientMismatch, FieldMismatch
from .fields import FieldElement


def _coerce_entry(field, value):
    if type(value) is FieldElement and value.field is field:
        return value
    if isinstance(value, FieldElement):
        if value.field is not field and value.field != field:
            raise FieldMismatch("matrix entry from a different field")
        return value
    return field.from_rational(Fraction(value))


class Matrix:
    __slots__ = ("field", "rows", "nrows", "ncols", "_rref")

    def __init__(self, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self.field = field
        self.rows = [[_coerce_entry(field, x) for x in r] for r in rows]
        self.nrows = len(rows)
        self.ncols = ncols
        self._rref = None

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)],
                   ncols=n)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)], ncols=self.nrows)

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)], ncols=self.ncols)

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)], ncols=self.ncols)

    def scale(self, c):
        c = _coerce_entry(self.field, c)
        return Matrix(self.field, [[c * a for a in r] for r in self.rows], ncols=self.ncols)

    def _check_same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by "
                             f"{other.nrows}x{other.ncols}")
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        z = self.field.zero
        out = [[z] * other.ncols for _ in range(self.nrows)]
        for i in range(self.nrows):
            ri = self.rows[i]
            oi = out[i]
            for k in range(self.ncols):
                a = ri[k]
                if a:
                    rk = other.rows[k]
                    for j in range(other.ncols):
                        b = rk[j]
                        if b:
                            oi[j] = oi[j] + a * b
        return Matrix(self.field, out, ncols=other.ncols)

    def apply(self, vec):
        """Matrix times a column vector (given and returned as a list)."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        z = self.field.zero
        out = [z] * self.nrows
        for i, row in enumerate(self.rows):
            acc = z
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out[i] = acc
        return out

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(tuple(r) for r in self.rows)))

    def rref(self):
        """Reduced row echelon form and the pivot column tuple (cached)."""
        if self._rref is not None:
            return self._rref
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for c in range(self.ncols):
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
            support = [j for j in range(c, self.ncols) if prow[j]]
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
        result = (Matrix(self.field, rows, ncols=self.ncols), tuple(pivots))
        result[0]._rref = result
        self._rref = result
        return result

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Canonical basis of the right null space, returned as matrix rows."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        z, o = self.field.zero, self.field.one
        basis = []
        for fc in free:
            v = [z] * self.ncols
            v[fc] = o
            for i, pc in enumerate(pivots):
                v[pc] = -R.rows[i][fc]
            basis.append(v)
        return Matrix(self.field, basis, ncols=self.ncols)

    def solve(self, rhs):
        """One solution of self * x = rhs (free variables zero), or None."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        aug = Matrix(self.field,
                     [list(r) + [_coerce_entry(self.field, b)]
                      for r, b in zip(self.rows, rhs)], ncols=self.ncols + 1)
        R, pivots = aug.rref()
        if pivots and pivots[-1] == self.ncols:
            return None
        z = self.field.zero
        x = [z] * self.ncols
        for i, pc in enumerate(pivots):
            x[pc] = R.rows[i][self.ncols]
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        aug = Matrix(self.field,
                     [list(r) + list(e) for r, e in zip(self.rows, ident.rows)],
                     ncols=2 * n)
        R, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix is not invertible")
        return Matrix(self.field, [r[n:] for r in R.rows[:n]], ncols=n)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.describe()})"


class Subspace:
    """A subspace of the coordinate space F^n with its canonical rref basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def span(cls, field, ambient_dim, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not vectors:
            return cls(field, ambient_dim, (), ())
        R, pivots = Matrix(field, vectors, ncols=ambient_dim).rref()
        basis = tuple(tuple(R.rows[i]) for i in range(len(pivots)))
        return cls(field, ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field, ambient_dim):
        ident = Matrix.identity(field, ambient_dim)
        return cls(field, ambient_dim, tuple(tuple(r) for r in ident.rows),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.basis)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch(
                f"subspaces live in different ambient spaces "
                f"({self.ambient_dim} vs {other.ambient_dim})")

    def reduce(self, vector):
        """Residual of a vector after eliminating all pivot coordinates."""
        v = [_coerce_entry(self.field, x) for x in vector]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(
                "vector length does not match ambient dimension")
        for i, pc in enumerate(self.pivots):
            c = v[pc]
            if c:
                row = self.basis[i]
                for j in range(pc, self.ambient_dim):
                    if row[j]:
                        v[j] = v[j] - c * row[j]
        return v

    def contains(self, vector):
        return not any(self.reduce(vector))

    def coords_of(self, vector):
        """Coefficients of the vector over the basis rows, or None."""
        v = [_coerce_entry(self.field, x) for x in vector]
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(
                "vector length does not match ambient dimension")
        coords = [self.field.zero] * self.dim
        for i, pc in enumerate(self.pivots):
            c = v[pc]
            if c:
                coords[i] = c
                row = self.basis[i]
                for j in range(pc, self.ambient_dim):
                    if row[j]:
                        v[j] = v[j] - c * row[j]
        if any(v):
            return None
        return coords

    def intersect(self, other):
        self._check_ambient(other)
        ra, rb = self.dim, other.dim
        if ra == 0 or rb == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        # columns of M are the basis rows of self and the negated rows of other;
        # kernel vectors give equal combinations from both sides
        m_rows = []
        for c in range(self.ambient_dim):
            m_rows.append([self.basis[k][c] for k in range(ra)]
                          + [-other.basis[j][c] for j in range(rb)])
        K = Matrix(self.field, m_rows, ncols=ra + rb).kernel()
        vecs = []
        z = self.field.zero
        for comb in K.rows:
            v = [z] * self.ambient_dim
            for k in range(ra):
                c = comb[k]
                if c:
                    row = self.basis[k]
                    for j in range(self.ambient_dim):
                        if row[j]:
                            v[j] = v[j] + c * row[j]
            vecs.append(v)
        return Subspace.span(self.field, self.ambient_dim, vecs)

    def __add__(self, other):
        self._check_ambient(other)
        return Subspace.span(self.field, self.ambient_dim,
                             [list(b) for b in self.basis] + [list(b) for b in other.basis])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"
