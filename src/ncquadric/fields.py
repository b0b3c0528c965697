"""Exact scalars: Q, the Gaussian rationals Q(i), and simple extensions Q[t]/(m).

An element of a field of degree e is a coordinate vector over the power
basis 1, t, ..., t^(e-1), stored as e integer numerators over one common
positive denominator in lowest terms.  Elements are immutable, so a product
with a factor of 1 is the other factor itself; every other arithmetic result
costs one gcd (none when the denominator is 1).  Equality is an integer-tuple
compare, and the modulus being a monic integer polynomial keeps the reduction
of t^e integral.  ``fractions.Fraction`` is used only at the boundary:
building an element from rational coordinates and reading them back as
``coords``.  All arithmetic is exact; nothing here ever rounds.

Roots in the base field take one route for every field: factor over Z, and
over a proper extension factor a norm over Z (Trager).  The same factoriser
proves each extension modulus irreducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, islice
from math import gcd, isqrt, lcm
from operator import add, neg, sub
from random import Random

from .errors import DivisionByZero, FieldMismatch

RATIONALS = "rationals"
GAUSSIAN = "gaussian"
EXTENSION = "simple-extension"


# --- coefficient lists, ascending ---


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _times_t(v, m):
    """Coordinates of t * v in Q[t]/(m) for the monic integer modulus m,
    v given over 1, t, ..., t^(e-1)."""
    top = v[-1]
    return [-top * m[0]] + [v[i - 1] - top * m[i] for i in range(1, len(v))]


# --- integer polynomials over Z and Z/m: ascending int lists ---
#
# The modulus m = 0 means exact arithmetic over Z.  Factoring over Z is
# Zassenhaus's: factor mod a small prime by distinct-degree and then
# equal-degree splitting (Cantor-Zassenhaus), Hensel-lift the factors
# quadratically past the Mignotte bound, and recombine them by trial
# division (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).

_PRIMES = [p for p in range(3, 1000, 2)
           if all(p % q for q in range(3, isqrt(p) + 1, 2))]


def _pmul(a, b, m=0):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % m for c in out] if m else out)


def _padd(a, b, m=0, c=1):
    """a + c*b, reduced mod m."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] += c * bi
    return _trim([x % m for x in out] if m else out)


def _pdivmod(a, b, m):
    """Quotient and remainder of a by b mod m; lc(b) must be a unit mod m."""
    a = [c % m for c in a]
    inv = pow(b[-1], -1, m)
    n = len(b) - 1
    q = [0] * max(0, len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        c = q[k] = a[k + n] * inv % m
        if c:
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - c * bi) % m
    return _trim(q), _trim(a[:n])


def _zdiv(a, b):
    """a / b over Z if b divides a exactly, else None."""
    a = list(a)
    n = len(b) - 1
    q = [0] * max(0, len(a) - n)
    for k in range(len(a) - 1 - n, -1, -1):
        c, r = divmod(a[k + n], b[-1])
        if r:
            return None
        q[k] = c
        if c:
            for i, bi in enumerate(b):
                a[k + i] -= c * bi
    return None if any(a[:n]) else _trim(q)


def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    g = gcd(*f)
    return [c // (g if f[-1] > 0 else -g) for c in f]


def _pmonic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _pgcd(a, b, p):
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    return _pmonic(a, p)


def _pxgcd(a, b, p):
    """(s, t) with s a + t b = 1 mod the prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pmul(q, s1, p), p, -1)
        t0, t1 = t1, _padd(t0, _pmul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _ppow(a, n, f, p):
    """a^n mod f and the prime p."""
    out, a = [1], _pdivmod(a, f, p)[1]
    while n:
        if n & 1:
            out = _pdivmod(_pmul(out, a, p), f, p)[1]
        a = _pdivmod(_pmul(a, a, p), f, p)[1]
        n >>= 1
    return out


def _squarefree_mod(f, p):
    """Does f keep its degree mod the prime p and stay squarefree there?
    If so, f is squarefree over Q."""
    if f[-1] % p == 0:
        return False
    fp = [c % p for c in f]
    return len(_pgcd(fp, _trim([k * c % p for k, c in enumerate(fp)][1:]), p)) == 1


def _distinct_degree(f, p):
    """Pairs (g, d), g the product of the monic irreducible factors of
    degree d of f mod the prime p, for f squarefree mod p."""
    f = _pmonic([c % p for c in f], p)
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppow(h, p, f, p)
        g = _pgcd(f, _padd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    return out + [(f, len(f) - 1)] if len(f) > 1 else out


def _split_equal_degree(g, d, p, rng):
    """The degree-d factors of g, a product of distinct monic irreducibles of
    degree d mod p (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        u = _pgcd(g, _padd(_ppow(a, (p ** d - 1) // 2, g, p), [1], p, -1), p)
        if 1 < len(u) < len(g):
            return (_split_equal_degree(u, d, p, rng)
                    + _split_equal_degree(_pdivmod(g, u, p)[0], d, p, rng))


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h and s g + t h = 1 from mod m to mod m^2, h monic
    (von zur Gathen and Gerhard, Algorithm 15.10)."""
    m *= m
    e = _padd(f, _pmul(g, h, m), m, -1)
    q, r = _pdivmod(_pmul(s, e, m), h, m)
    g = _padd(g, _padd(_pmul(t, e, m), _pmul(q, g, m)), m)
    h = _padd(h, r, m)
    b = _padd(_padd(_pmul(s, g, m), _pmul(t, h, m)), [1], m, -1)
    c, d = _pdivmod(_pmul(s, b, m), h, m)
    return (g, h, _padd(s, d, m, -1),
            _padd(t, _padd(_pmul(t, b, m), _pmul(c, g, m)), m, -1))


def _hensel_lift(f, factors, p, modulus):
    """The monic factors of f mod p, lifted to mod modulus = p^(2^j)."""
    lifted = []
    for i in range(len(factors) - 1):
        h = [1]
        for u in factors[i + 1:]:
            h = _pmul(h, u, p)
        g = [c * f[-1] % p for c in factors[i]]
        s, t = _pxgcd(g, h, p)
        m = p
        while m < modulus:
            g, h, s, t = _hensel_step(f, g, h, s, t, m)
            m *= m
        lifted.append(_pmonic(g, modulus))
        f = h
    return lifted + [f]


def _recombine(f, lifted, modulus):
    """The irreducible factors of f over Z: products of its lifted modular
    factors that divide it, smallest subsets first."""
    out = []
    d = 1
    while 2 * d <= len(lifted):
        for subset in combinations(range(len(lifted)), d):
            cand = [f[-1]]
            for i in subset:
                cand = _pmul(cand, lifted[i], modulus)
            cand = _primitive([c - modulus if 2 * c > modulus else c
                               for c in cand])
            q = None if (f[0] % cand[0] if cand[0] else f[0]) else _zdiv(f, cand)
            if q is not None:
                out.append(cand)
                f = q
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            d += 1
    return out + [f]


def _factor_squarefree(f):
    """The irreducible factors over Z of a squarefree primitive f with
    positive leading coefficient.  Of the first three primes that keep f
    squarefree, the one with the fewest modular factors is used."""
    if len(f) <= 2:
        return [f] if len(f) == 2 else []
    good = (p for p in _PRIMES if _squarefree_mod(f, p))
    p, parts = min(((p, _distinct_degree(f, p)) for p in islice(good, 3)),
                   key=lambda pp: sum((len(g) - 1) // d for g, d in pp[1]))
    rng = Random(0)
    factors = [u for g, d in parts for u in _split_equal_degree(g, d, p, rng)]
    if len(factors) == 1:
        return [f]
    # twice the Mignotte bound on the coefficients of lc(f) * (a factor)
    bound = 2 ** len(f) * (isqrt(sum(c * c for c in f)) + 1) * f[-1]
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    return _recombine(f, _hensel_lift(f, factors, p, modulus), modulus)


def _integral(coeffs):
    """Numerator vectors of field elements over their common denominator."""
    den = lcm(*[c.den for c in coeffs])
    return [[a * (den // c.den) for a in c.num] for c in coeffs]


def _check_irreducible(m):
    """Raise ValueError if the monic integer polynomial m is reducible over
    Q, naming its lowest-degree factor (ties: least coefficient tuple)."""
    sq = Polynomial.from_ints(_RATIONAL_FIELD, m).squarefree_part()
    factors = _factor_squarefree(_primitive([v[0] for v in _integral(sq.coeffs)]))
    if factors == [list(m)]:
        return
    g = min(factors, key=lambda g: (len(g), g))
    if len(g) == 2:
        what = "a rational root"
    elif len(g) == 3:
        what = f"a quadratic factor {_int_poly_str(g)}"
    else:
        what = f"a factor {_int_poly_str(g)} of degree {len(g) - 1}"
    raise ValueError(f"modulus is reducible over Q (has {what})")


class Field:
    """A base field: the rationals, the Gaussian rationals, or Q[t]/(m(t)).

    The modulus of an extension must be a monic integer polynomial, and it
    is proved irreducible at construction by factoring it over Z; a
    reducible modulus raises ValueError naming its lowest-degree factor.
    """

    __slots__ = ("kind", "degree", "modulus", "symbol", "_theta_pows",
                 "zero", "one", "minus_one")

    def __init__(self, kind, modulus=None):
        if kind == RATIONALS:
            self.degree, self.modulus, self.symbol = 1, None, ""
        elif kind == GAUSSIAN:
            self.degree, self.modulus, self.symbol = 2, (1, 0, 1), "i"
        elif kind == EXTENSION:
            m = tuple(int(c) for c in modulus)
            if len(m) < 3:
                raise ValueError("extension modulus must have degree at least 2")
            if m[-1] != 1:
                raise ValueError("extension modulus must be monic")
            _check_irreducible(m)
            self.degree, self.modulus, self.symbol = len(m) - 1, m, "t"
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self._theta_pows = self._reduction_table()
        zeros = (0,) * (self.degree - 1)
        self.zero = _make(self, (0,) + zeros, 1)
        self.one = _make(self, (1,) + zeros, 1)
        self.minus_one = _make(self, (-1,) + zeros, 1)

    def _reduction_table(self):
        """Integer coordinates of t^e, ..., t^(2e-2) over 1, ..., t^(e-1)."""
        e = self.degree
        if e == 1:
            return ()
        m = self.modulus
        # t^e = -(m0 + m1 t + ... + m_{e-1} t^{e-1})
        pows = []
        cur = [-m[k] for k in range(e)]
        pows.append(tuple(cur))
        for _ in range(e - 2):
            carry = cur[e - 1]
            nxt = [0] + cur[:e - 1]
            if carry:
                for k in range(e):
                    nxt[k] += carry * pows[0][k]
            pows.append(tuple(nxt))
            cur = nxt
        return tuple(pows)

    # --- constructors ---

    @classmethod
    def rationals(cls):
        return cls(RATIONALS)

    @classmethod
    def gaussian(cls):
        return cls(GAUSSIAN)

    @classmethod
    def extension(cls, modulus):
        return cls(EXTENSION, modulus)

    def element(self, coords):
        coords = tuple(coords)
        if len(coords) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, coords)

    def from_rational(self, value):
        value = Fraction(value)
        return _make(self, (value.numerator,) + (0,) * (self.degree - 1),
                     value.denominator)

    def generator(self):
        """The adjoined element: i for Q(i), t for an extension."""
        if self.degree < 2:
            raise ValueError("the rationals have no adjoined generator")
        return _make(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def describe(self):
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == GAUSSIAN:
            return "Q(i)"
        return f"Q[t]/({_int_poly_str(self.modulus)})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.kind == other.kind and self.modulus == other.modulus

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        return f"Field({self.describe()})"


_new_element = object.__new__


def _make(field, num, den):
    """The element num/den of field (den > 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    x = _new_element(FieldElement)
    x.field = field
    x.num = num
    x.den = den
    return x


class FieldElement:
    """An element sum_k (num[k] / den) t^k over the power basis of its field.

    ``num`` is a tuple of ``field.degree`` ints and ``den`` an int > 0, in
    lowest terms: gcd(den, *num) == 1, and zero is (0, ..., 0)/1.  Equal
    elements therefore have equal ``num`` and ``den``.  The constructor takes
    rational coordinates, and ``coords`` gives them back as Fractions.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field, coords):
        coords = [Fraction(c) for c in coords]
        den = lcm(*[c.denominator for c in coords])
        self.field = field
        self.num = tuple([c.numerator * (den // c.denominator) for c in coords])
        self.den = den

    @property
    def coords(self):
        """The coordinates over 1, t, ..., t^(e-1) as Fractions."""
        den = self.den
        return tuple([Fraction(a, den) for a in self.num])

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other
            raise FieldMismatch(
                f"cannot combine elements of {self.field.describe()} and {other.field.describe()}")
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        d, od = self.den, o.den
        if d == od:
            return _make(self.field, tuple(map(add, self.num, o.num)), d)
        return _make(self.field,
                     tuple([a * od + b * d for a, b in zip(self.num, o.num)]), d * od)

    __radd__ = __add__

    def __sub__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        d, od = self.den, o.den
        if d == od:
            return _make(self.field, tuple(map(sub, self.num, o.num)), d)
        return _make(self.field,
                     tuple([a * od - b * d for a, b in zip(self.num, o.num)]), d * od)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        o = other
        if type(o) is not FieldElement or o.field is not self.field:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        field = self.field
        a, b = self.num, o.num
        # elements are immutable and in lowest terms: by a factor of 1 the
        # product is the other factor, and no new element is built
        one = field.one.num
        if b == one and o.den == 1:
            return self
        if a == one and self.den == 1 and o.field is field:
            return o
        e = field.degree
        den = self.den * o.den
        if e == 1:
            return _make(field, (a[0] * b[0],), den)
        if e == 2:
            # t^2 = p0 + p1 t
            p0, p1 = field._theta_pows[0]
            a0, a1 = a
            b0, b1 = b
            top = a1 * b1
            return _make(field, (a0 * b0 + p0 * top, a0 * b1 + a1 * b0 + p1 * top), den)
        conv = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:e]
        pows = field._theta_pows
        for k in range(e, 2 * e - 1):
            c = conv[k]
            if c:
                row = pows[k - e]
                for idx in range(e):
                    if row[idx]:
                        out[idx] += c * row[idx]
        return _make(field, tuple(out), den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero")
        field = self.field
        e = field.degree
        d = self.den
        if e == 1:
            a = self.num[0]
            return _make(field, (d,), a) if a > 0 else _make(field, (-d,), -a)
        if e == 2:
            # (a + b t)(a + b p1 - b t) = a^2 + a b p1 - b^2 p0 for t^2 = p0 + p1 t
            p0, p1 = field._theta_pows[0]
            a, b = self.num
            conj = a + b * p1
            norm = a * conj - b * b * p0
            if norm > 0:
                return _make(field, (conj * d, -b * d), norm)
            if norm < 0:
                return _make(field, (-conj * d, b * d), -norm)
            raise DivisionByZero("element has no inverse modulo the field modulus")
        # the inverse y solves M y = d e_0 for the integer matrix M of
        # multiplication by num (columns num, t num, ...): fraction-free
        # Bareiss elimination, then exact integer back-substitution for
        # x = det(M) y, which is integral
        cols = [list(self.num)]
        for _ in range(e - 1):
            cols.append(_times_t(cols[-1], field.modulus))
        rows = [[c[i] for c in cols] + [d if i == 0 else 0] for i in range(e)]
        prev = 1
        for k in range(e):
            piv = next((r for r in range(k, e) if rows[r][k]), None)
            if piv is None:
                raise DivisionByZero(
                    "element has no inverse modulo the field modulus")
            rows[k], rows[piv] = rows[piv], rows[k]
            pk = rows[k]
            for row in rows[k + 1:]:
                for j in range(k + 1, e + 1):
                    row[j] = (pk[k] * row[j] - row[k] * pk[j]) // prev
            prev = pk[k]
        x = [0] * e
        for i in reversed(range(e)):
            row = rows[i]
            acc = prev * row[e] - sum(row[j] * x[j] for j in range(i + 1, e))
            x[i] = acc // row[i]
        if prev < 0:
            return _make(field, tuple([-a for a in x]), -prev)
        return _make(field, tuple(x), prev)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.num == other.num and self.den == other.den
                    and (self.field is other.field or self.field == other.field))
        if isinstance(other, (int, Fraction)):
            return self == self.field.from_rational(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            sym = self.field.symbol if k == 1 else f"{self.field.symbol}^{k}"
            if c == 1:
                terms.append(sym)
            elif c == -1:
                terms.append(f"-{sym}")
            else:
                terms.append(f"{c}*{sym}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += "-" + t[1:] if t.startswith("-") else "+" + t
        return out

    def __repr__(self):
        return f"<{self} in {self.field.describe()}>"


def _int_poly_str(coeffs):
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+" if c > 0 else "-") + body)
    return "".join(terms) if terms else "0"


def parse_field_spec(text):
    """Parse a field description: ``Q``, ``Q(i)``, or ``Q[t]/(t^2-2)``."""
    s = text.strip().replace(" ", "")
    if s == "Q":
        return Field.rationals()
    if s == "Q(i)":
        return Field.gaussian()
    if s.startswith("Q[t]/(") and s.endswith(")"):
        return Field.extension(parse_int_poly(s[len("Q[t]/("):-1]))
    raise ValueError(f"unrecognized field spec {text!r}")


def parse_int_poly(text):
    """Parse an integer polynomial in t, e.g. ``t^2-2`` or ``2*t^3+t-5``."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    terms = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs = {}
    for term in terms:
        if term in ("", "+", "-"):
            raise ValueError(f"malformed term in {text!r}")
        body = term.lstrip("+-")
        sign = -1 if term.startswith("-") else 1
        if "t" in body:
            coef_part, _, rest = body.partition("t")
            coef_part = coef_part.rstrip("*")
            coef = int(coef_part) if coef_part else 1
            if rest.startswith("^"):
                k = int(rest[1:])
            elif rest == "":
                k = 1
            else:
                raise ValueError(f"malformed term {term!r}")
        else:
            coef = int(body)
            k = 0
        coeffs[k] = coeffs.get(k, 0) + sign * coef
    deg = max(coeffs)
    return tuple(coeffs.get(k, 0) for k in range(deg + 1))


class Polynomial:
    """Univariate polynomial with FieldElement coefficients, ascending order.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_rational(c) for c in ints])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __call__(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Polynomial(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Polynomial(self.field, [x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Polynomial(self.field, [c * other for c in self.coeffs])
        if not self or not other:
            return Polynomial(self.field, ())
        z = self.field.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def divmod(self, other):
        if not other:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        z = self.field.zero
        q = [z] * max(0, len(rem) - len(div) + 1)
        inv = div[-1].inverse()
        while len(rem) >= len(div):
            c = rem[-1] * inv
            k = len(rem) - len(div)
            q[k] = c
            for i, b in enumerate(div):
                rem[k + i] = rem[k + i] - c * b
            while rem and not rem[-1]:
                rem.pop()
            if not rem:
                break
        return Polynomial(self.field, q), Polynomial(self.field, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def derivative(self):
        return Polynomial(self.field,
                          [c * k for k, c in enumerate(self.coeffs)][1:])

    def monic(self):
        if not self:
            return self
        inv = self.coeffs[-1].inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def squarefree_part(self):
        if self.degree <= 1:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree <= 0:
            return self.monic()
        return (self // g).monic()

    def __str__(self):
        """Display in the variable t, or in X where the field's own
        generator is already called t (Q[t]/(m))."""
        if not self.coeffs:
            return "0"
        x = "X" if self.field.symbol == "t" else "t"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            cs = str(c)
            compound = ("+" in cs[1:]) or ("-" in cs[1:]) or ("*" in cs)
            if k == 0:
                body = f"({cs})" if compound else cs
            else:
                var = x if k == 1 else f"{x}^{k}"
                if cs == "1":
                    body = var
                elif cs == "-1":
                    body = f"-{var}"
                else:
                    body = (f"({cs})*{var}" if compound else f"{cs}*{var}")
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(body)
            else:
                parts.append("+" + body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self} over {self.field.describe()})"


_RATIONAL_FIELD = Field(RATIONALS)


def roots_in_field(p):
    """The roots of p in its coefficient field K, each once, sorted by
    coordinates.  Exact over every base field.

    The squarefree part q of p is factored over Q when its coefficients are
    rational: linear factors give the rational roots, and only a factor
    whose degree divides [K:Q] can have roots in K.  Such a factor, or q
    itself when it is not rational, goes through Trager's norm method.
    """
    if not p:
        raise ValueError("root search needs a nonzero polynomial")
    q = p.squarefree_part()
    field = q.field
    vectors = _integral(q.coeffs)
    if any(any(v[1:]) for v in vectors):
        roots = _norm_roots(q)
    else:
        roots = []
        for g in _factor_squarefree(_primitive([v[0] for v in vectors])):
            if len(g) == 2:
                roots.append(field.from_rational(Fraction(-g[0], g[1])))
            elif field.degree % (len(g) - 1) == 0:
                roots += _norm_roots(Polynomial.from_ints(field, g))
    return tuple(sorted(roots, key=lambda r: r.coords))


def _norm_roots(q):
    """The roots of a squarefree q over K = Q[t]/(m) of degree e >= 2
    (Trager, Algebraic factoring and rational function integration,
    SYMSAC 1976).

    For a shift s that makes N(x) = Norm_{K/Q} q(x - s t) squarefree (proved
    by a prime that keeps it squarefree), every irreducible factor N_j of N
    gives the irreducible factor gcd(q, N_j(x + s t)) of q over K, of degree
    deg(N_j)/e.  So the factors of degree e give the roots.
    """
    field = q.field
    vectors = _integral(q.coeffs)
    for k in count():
        s = (k + 1) // 2 * (1 if k % 2 else -1)  # 0, 1, -1, 2, -2, ...
        norm = _primitive(_norm(vectors, field.modulus, s))
        if any(_squarefree_mod(norm, p) for p in _PRIMES[:20]):
            break
    x_plus = Polynomial(field, [field.generator() * s, field.one])
    roots = []
    for g in _factor_squarefree(norm):
        if len(g) - 1 == field.degree:
            shifted = Polynomial(field, ())
            for c in reversed(g):
                shifted = shifted * x_plus + Polynomial.from_ints(field, [c])
            roots.append(-q.gcd(shifted).coeffs[0])
    return roots


def _norm(vectors, m, s):
    """Norm_{K/Q} of sum_k v_k (x - s t)^k in Z[x], K = Q[t]/(m), for
    integer coordinate vectors v_k: the determinant of multiplication by
    that element of K[x] on the basis 1, t, ..., t^(e-1)."""
    e = len(m) - 1
    poly = []  # Horner in K[x]: x-coefficients as coordinate vectors
    for v in reversed(vectors):
        shifted = [[0] * e] + poly
        turned = [_times_t(w, m) for w in poly] + [[0] * e]
        poly = [[a - s * b for a, b in zip(u, w)]
                for u, w in zip(shifted, turned)]
        poly[0] = [a + b for a, b in zip(poly[0], v)]
    cols = [poly]
    for _ in range(e - 1):
        cols.append([_times_t(w, m) for w in cols[-1]])
    return _det([[_trim([w[i] for w in col]) for col in cols]
                 for i in range(e)])


def _det(rows):
    """Determinant of a square matrix over Z[x], fraction-free (Bareiss)."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign, prev = 1, [1]
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return []
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = _zdiv(_padd(_pmul(rows[k][k], rows[i][j]),
                                         _pmul(rows[i][k], rows[k][j]), 0, -1),
                                   prev)
        prev = rows[k][k]
    return [sign * c for c in rows[-1][-1]]
