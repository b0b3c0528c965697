"""Exact linear algebra over the scalar fields, on sparse rows.

Row-oriented throughout.  The working format is the sparse row, a dict
{column: nonzero FieldElement}.  Matrix and Subspace hold their rows that
way (``sparse``) and show them densely on first use (``rows``,
``basis``).  One elimination routine (_eliminate) works on sparse rows,
and every rref, kernel, solve, inverse and span goes through it by way of
Matrix.rref.  Matrix.rank, which reads only the pivot count, eliminates
forward alone, without clearing earlier pivot rows, unless the rref is
already cached.  A Subspace keeps the canonical reduced-row-echelon basis
of its row space.  That form is unique, so the order of elimination never
shows in a result, and repeated runs produce identical output.

Entries from outside are coerced into the field (``Matrix(...)``,
``Subspace.span``, the vectors handed to ``reduce`` and friends).  Rows the
library built itself from elements of the field, such as rref output,
kernel bases, span bases and the graded pieces of quadratic.py and
modules.py, come in through the trusted constructors
``Matrix._from_sparse`` and ``Subspace._span_sparse``, which skip that
step: their rows must hold nonzero elements of the field only.
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


def sparse_row(field, vector):
    """Sparse row of a dense vector from outside, coerced into the field."""
    out = {}
    for j, x in enumerate(vector):
        x = _coerce_entry(field, x)
        if x:
            out[j] = x
    return out


def _dense(field, row, n):
    out = [field.zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def add_multiple(row, f, other, skip=None):
    """row += f * other on sparse rows, in place, dropping cancelled
    entries; column skip of other is left out.  f must be nonzero.

    f is tested once per call.  By f = 1 each entry of other is added, and
    an entry new to the row is other's own (immutable) element; by f = -1
    each entry is subtracted, and only the entries new to the row are
    negated.  Any other f multiplies every entry.
    """
    if f.den == 1:
        n = f.num
        if n == f.field.one.num:
            for j, x in other.items():
                if j == skip:
                    continue
                y = row.get(j)
                if y is None:
                    row[j] = x
                else:
                    y = y + x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            return
        if n == f.field.minus_one.num:
            for j, x in other.items():
                if j == skip:
                    continue
                y = row.get(j)
                if y is None:
                    row[j] = -x
                else:
                    y = y - x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            return
    for j, x in other.items():
        if j == skip:
            continue
        y = row.get(j)
        if y is None:
            row[j] = f * x
        else:
            y = y + f * x
            if y:
                row[j] = y
            else:
                del row[j]


def _eliminate(field, rows):
    """Reduced row echelon form of the span of sparse rows.

    Each incoming row is reduced by the pivot rows it touches; if anything
    is left, its leading column becomes a new pivot, the row is normalised
    and the earlier pivot rows are cleared in that column.  Every pivot row
    therefore has a 1 at its pivot, zeros at the other pivots and nothing
    left of its pivot, which is the reduced form.  Returns the pivot rows
    (fresh dicts) in pivot order and the pivot column tuple.
    """
    one = field.one
    piv = {}
    for src in rows:
        row = dict(src)
        for c in [c for c in row if c in piv]:
            add_multiple(row, -row.pop(c), piv[c], c)
        if not row:
            continue
        p = min(row)
        inv = row.pop(p).inverse()
        for j in row:
            row[j] = row[j] * inv
        for prow in piv.values():
            f = prow.pop(p, None)
            if f is not None:
                add_multiple(prow, -f, row)
        row[p] = one
        piv[p] = row
    pivots = tuple(sorted(piv))
    return [piv[p] for p in pivots], pivots


class Matrix:
    """A matrix over a field, held as sparse rows.

    ``sparse`` lists the rows as dicts {column: nonzero entry}; ``rows``
    shows them densely, as lists of FieldElements, built on first use.
    Neither may be changed in place.
    """

    __slots__ = ("field", "nrows", "ncols", "sparse", "_dense", "_rref")

    def __init__(self, field, rows, ncols=None):
        rows = [list(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self._fill(field, [sparse_row(field, r) for r in rows], ncols)

    @classmethod
    def _from_sparse(cls, field, rows, ncols):
        """Trusted constructor: rows are dicts {column: nonzero element of
        field} that the library built itself; they are kept, not copied."""
        m = object.__new__(cls)
        m._fill(field, rows, ncols)
        return m

    def _fill(self, field, rows, ncols):
        self.field = field
        self.sparse = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._dense = None
        self._rref = None

    @property
    def rows(self):
        if self._dense is None:
            self._dense = [_dense(self.field, r, self.ncols)
                           for r in self.sparse]
        return self._dense

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls._from_sparse(field, [{i: one} for i in range(n)], n)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.sparse):
            for j, x in r.items():
                cols[j][i] = x
        return Matrix._from_sparse(self.field, cols, self.nrows)

    def _combine(self, other, f):
        self._check_same_shape(other)
        out = []
        for ra, rb in zip(self.sparse, other.sparse):
            row = dict(ra)
            add_multiple(row, f, rb)
            out.append(row)
        return Matrix._from_sparse(self.field, out, self.ncols)

    def __add__(self, other):
        return self._combine(other, self.field.one)

    def __sub__(self, other):
        return self._combine(other, -self.field.one)

    def scale(self, c):
        c = _coerce_entry(self.field, c)
        if not c:
            return Matrix._from_sparse(
                self.field, [{} for _ in range(self.nrows)], self.ncols)
        return Matrix._from_sparse(
            self.field, [{j: c * x for j, x in r.items()}
                         for r in self.sparse], self.ncols)

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
        right = other.sparse
        out = []
        for ri in self.sparse:
            row = {}
            for k, a in ri.items():
                add_multiple(row, a, right[k])
            out.append(row)
        return Matrix._from_sparse(self.field, out, other.ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.ncols, tuple(tuple(r) for r in self.rows)))

    def rref(self):
        """Reduced row echelon form and the pivot column tuple (cached).

        The pivot rows come first, in pivot order, then zero rows up to the
        row count of the matrix.
        """
        if self._rref is not None:
            return self._rref
        basis, pivots = _eliminate(self.field, self.sparse)
        R = Matrix._from_sparse(
            self.field, basis + [{} for _ in range(self.nrows - len(basis))],
            self.ncols)
        result = (R, pivots)
        R._rref = result
        self._rref = result
        return result

    def rank(self):
        """Number of pivots, by forward elimination alone (or the cached
        rref).

        Each row is reduced at its leading column by the pivot row there,
        column by column in increasing order, since a reduction may fill in
        a later pivot column; a leading column without a pivot row becomes
        a new pivot.  Pivot rows are kept normalised, without their pivot
        entry, and never cleared against later pivots: a rank does not read
        the reduced form.
        """
        if self._rref is not None:
            return len(self._rref[1])
        piv = {}
        for src in self.sparse:
            row = dict(src)
            while row:
                p = min(row)
                prow = piv.get(p)
                if prow is None:
                    inv = row.pop(p).inverse()
                    for j in row:
                        row[j] = row[j] * inv
                    piv[p] = row
                    break
                add_multiple(row, -row.pop(p), prow)
        return len(piv)

    def kernel(self):
        """Canonical basis of the right null space, returned as matrix rows.

        One row per free column fc: 1 at fc and minus the fc entry of each
        pivot row at its pivot.
        """
        R, pivots = self.rref()
        pivot_set = set(pivots)
        one = self.field.one
        basis = {fc: {fc: one} for fc in range(self.ncols)
                 if fc not in pivot_set}
        for pc, row in zip(pivots, R.sparse):
            for j, x in row.items():
                if j != pc:
                    basis[j][pc] = -x
        return Matrix._from_sparse(self.field, list(basis.values()),
                                   self.ncols)

    def solve(self, rhs):
        """One solution of self * x = rhs (free variables zero), or None."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side length mismatch")
        n = self.ncols
        aug = []
        for r, b in zip(self.sparse, rhs):
            b = _coerce_entry(self.field, b)
            if b:
                r = dict(r)
                r[n] = b
            aug.append(r)
        R, pivots = Matrix._from_sparse(self.field, aug, n + 1).rref()
        if pivots and pivots[-1] == n:
            return None
        z = self.field.zero
        x = [z] * n
        for pc, row in zip(pivots, R.sparse):
            x[pc] = row.get(n, z)
        return x

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        one = self.field.one
        aug = []
        for i, r in enumerate(self.sparse):
            r = dict(r)
            r[n + i] = one
            aug.append(r)
        R, pivots = Matrix._from_sparse(self.field, aug, 2 * n).rref()
        if tuple(pivots) != tuple(range(n)):
            raise ValueError("matrix is not invertible")
        return Matrix._from_sparse(
            self.field, [{j - n: x for j, x in r.items() if j >= n}
                         for r in R.sparse[:n]], n)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field.describe()})"


def column_system(field, cols, rhs=None):
    """Kernel rows of the system whose columns are the sparse rows cols,
    keyed by row label; given a sparse rhs, one solution as a dense list
    (free variables zero, as Matrix.solve gives it) or None."""
    rows = {}
    for k, col in enumerate(cols):
        for pos, x in col.items():
            rows.setdefault(pos, {})[k] = x
    for pos in rhs or ():
        rows.setdefault(pos, {})
    mat = Matrix._from_sparse(field, list(rows.values()), len(cols))
    if rhs is None:
        return mat.kernel().sparse
    return mat.solve([rhs.get(pos, field.zero) for pos in rows])


class Subspace:
    """A subspace of the coordinate space F^n with its canonical rref basis.

    ``sparse`` holds the basis rows as dicts {column: nonzero entry} and
    ``pivots`` their pivot columns; ``basis`` shows the rows densely, as
    tuples, built on first use.  The constructor is trusted: its rows must
    be a reduced row echelon basis over the field, as span builds them.
    """

    __slots__ = ("field", "ambient_dim", "sparse", "pivots", "_basis",
                 "_index")

    def __init__(self, field, ambient_dim, rows, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.sparse = rows
        self.pivots = pivots
        self._basis = None
        self._index = None

    @classmethod
    def span(cls, field, ambient_dim, vectors):
        vectors = [list(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        return cls._span_sparse(field, ambient_dim,
                                [sparse_row(field, v) for v in vectors])

    @classmethod
    def _span_sparse(cls, field, ambient_dim, rows):
        """Trusted constructor: the span of sparse rows {column: nonzero
        element of field} that the library built itself."""
        if not rows:
            return cls(field, ambient_dim, [], ())
        R, pivots = Matrix._from_sparse(field, rows, ambient_dim).rref()
        return cls(field, ambient_dim, R.sparse[:len(pivots)], pivots)

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, [], ())

    @classmethod
    def full(cls, field, ambient_dim):
        one = field.one
        return cls(field, ambient_dim, [{i: one} for i in range(ambient_dim)],
                   tuple(range(ambient_dim)))

    @property
    def basis(self):
        if self._basis is None:
            self._basis = tuple(tuple(_dense(self.field, r, self.ambient_dim))
                                for r in self.sparse)
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise AmbientMismatch(
                f"subspaces live in different ambient spaces "
                f"({self.ambient_dim} vs {other.ambient_dim})")

    def _outside(self, vector):
        vector = list(vector)
        v = sparse_row(self.field, vector)
        if len(vector) != self.ambient_dim:
            raise AmbientMismatch(
                "vector length does not match ambient dimension")
        return v

    def reduce_sparse(self, v):
        """Eliminate the pivot coordinates of the sparse vector v in place;
        returns the coefficients taken off, as (basis index, coefficient).

        A basis row is zero at every other pivot, so one pass over the
        pivots v touches suffices.
        """
        index = self._index
        if index is None:
            index = self._index = {pc: i for i, pc in enumerate(self.pivots)}
        taken = []
        for i, c in [(index[c], c) for c in v if c in index]:
            f = v.pop(c)
            taken.append((i, f))
            add_multiple(v, -f, self.sparse[i], c)
        return taken

    def reduce(self, vector):
        """Residual of a vector after eliminating all pivot coordinates."""
        v = self._outside(vector)
        self.reduce_sparse(v)
        return _dense(self.field, v, self.ambient_dim)

    def contains(self, vector):
        v = self._outside(vector)
        self.reduce_sparse(v)
        return not v

    def intersect(self, other):
        self._check_ambient(other)
        ra, rb = self.dim, other.dim
        if ra == 0 or rb == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        # columns of M are the basis rows of self and the negated rows of other;
        # kernel vectors give equal combinations from both sides
        mine = self.sparse
        m_rows = [{} for _ in range(self.ambient_dim)]
        for k, row in enumerate(mine):
            for c, x in row.items():
                m_rows[c][k] = x
        for k, row in enumerate(other.sparse):
            for c, x in row.items():
                m_rows[c][ra + k] = -x
        K = Matrix._from_sparse(self.field, m_rows, ra + rb).kernel()
        vecs = []
        for comb in K.sparse:
            v = {}
            for k, c in comb.items():
                if k < ra:
                    add_multiple(v, c, mine[k])
            vecs.append(v)
        return Subspace._span_sparse(self.field, self.ambient_dim, vecs)

    def __add__(self, other):
        self._check_ambient(other)
        return Subspace._span_sparse(self.field, self.ambient_dim,
                                     self.sparse + other.sparse)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim})"
