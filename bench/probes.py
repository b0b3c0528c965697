"""Seeded layer probes for the exact-arithmetic layers.

* ``fields.mul_ns.*`` and ``fields.inverse_ns.Qi``: nanoseconds per
  ``FieldElement`` multiply or inverse over Q, Q(i) and the quartic field
  Q[t]/(t^4 - 10t^2 + 1), on seeded random elements.
* ``linalg.rank50_s.Q``: seconds for ``Matrix.rank`` on a seeded sparse
  50x50 integer matrix, and ``linalg.rank50_fraction_ratio``: that time over
  a Gauss-Jordan elimination of the same matrix on bare ``Fraction`` lists.
  The two ranks must agree.

Each figure is the median of several repeats.
"""

from __future__ import annotations

import random
from fractions import Fraction
from statistics import median
from time import perf_counter

MUL_OPS = {1: 20000, 2: 5000, 4: 1000}  # by field degree
INVERSE_OPS = 1000
REPEATS = 5
RANK_SIZE = 50
RANK_DENSITY = 0.1
RANK_REPEATS = 5


def _random_element(field, rng):
    return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(field.degree)])


def _nonzero_elements(field, rng, count):
    out = []
    while len(out) < count:
        x = _random_element(field, rng)
        if x:
            out.append(x)
    return out


def time_mul(field, rng):
    """Median nanoseconds per multiply over a pool of seeded elements."""
    ops = MUL_OPS[field.degree]
    pool = _nonzero_elements(field, rng, 64)
    pairs = [(pool[rng.randrange(64)], pool[rng.randrange(64)])
             for _ in range(ops)]
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a, b in pairs:
            a * b
        samples.append((perf_counter() - t0) / ops * 1e9)
    return median(samples)


def time_inverse(field, rng):
    pool = _nonzero_elements(field, rng, INVERSE_OPS)
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a in pool:
            a.inverse()
        samples.append((perf_counter() - t0) / INVERSE_OPS * 1e9)
    return median(samples)


def sparse_int_matrix(rng, n=RANK_SIZE, density=RANK_DENSITY):
    return [[rng.randint(-9, 9) if rng.random() < density else 0
             for _ in range(n)] for _ in range(n)]


def fraction_rank(rows):
    """Gauss-Jordan rank on bare Fraction lists, first-nonzero pivoting."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pr = 0
    for c in range(ncols):
        hit = next((r for r in range(pr, len(rows)) if rows[r][c]), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        prow = rows[pr]
        inv = 1 / prow[c]
        for j in range(c, ncols):
            if prow[j]:
                prow[j] *= inv
        for r in range(len(rows)):
            f = rows[r][c]
            if r != pr and f:
                rr = rows[r]
                for j in range(c, ncols):
                    if prow[j]:
                        rr[j] -= f * prow[j]
        pr += 1
        if pr == len(rows):
            break
    return pr


def time_rank(field, rows):
    """Median seconds of (Matrix.rank, bare-Fraction rank) and both ranks."""
    from ncquadric.linalg import Matrix
    mat_s, frac_s = [], []
    mat_rank = frac_rank = None
    for _ in range(RANK_REPEATS):
        t0 = perf_counter()
        mat_rank = Matrix(field, rows, ncols=len(rows[0])).rank()
        mat_s.append(perf_counter() - t0)
        t0 = perf_counter()
        frac_rank = fraction_rank(rows)
        frac_s.append(perf_counter() - t0)
    return median(mat_s), median(frac_s), mat_rank, frac_rank


def run_probes(seed):
    from ncquadric.fields import Field
    rng = random.Random(seed)
    q, qi = Field.rationals(), Field.gaussian()
    quartic = Field.extension((1, 0, -10, 0, 1))
    metrics = {
        "fields.mul_ns.Q": time_mul(q, rng),
        "fields.mul_ns.Qi": time_mul(qi, rng),
        "fields.mul_ns.quartic": time_mul(quartic, rng),
        "fields.inverse_ns.Qi": time_inverse(qi, rng),
    }
    rows = sparse_int_matrix(rng)
    mat_s, frac_s, mat_rank, frac_rank = time_rank(q, rows)
    metrics["linalg.rank50_s.Q"] = mat_s
    metrics["linalg.rank50_fraction_ratio"] = mat_s / frac_s
    return {"metrics": metrics, "ranks": [mat_rank, frac_rank]}
