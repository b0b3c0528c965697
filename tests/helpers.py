"""Shared conversion helpers for comparing package output with the oracle."""

from fractions import Fraction

from ncquadric import (AlgebraError, FiniteDimAlgebra, Matrix,
                       QuadraticPresentation, Subspace, build_context,
                       pipeline)
from ncquadric.presentation import parse_file


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
