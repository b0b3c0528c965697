"""Exact scalars: Q, the Gaussian rationals Q(i), and simple extensions Q[t]/(m).

An element of a field of degree e is a coordinate vector over the power
basis 1, t, ..., t^(e-1), stored as e integer numerators over one common
positive denominator in lowest terms.  Each arithmetic result costs one gcd
(none when the denominator is 1), equality is an integer-tuple compare, and
the modulus being a monic integer polynomial keeps the reduction of t^e
integral.  ``fractions.Fraction`` is used only at the boundary: building an
element from rational coordinates, reading them back as ``coords``, and the
root searches.  All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from .errors import DivisionByZero, FieldMismatch

RATIONALS = "rationals"
GAUSSIAN = "gaussian"
EXTENSION = "simple-extension"

_ZERO = Fraction(0)
_ONE = Fraction(1)


# --- polynomial helpers on plain Fraction lists (ascending coefficients) ---


def _fr_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _fr_divmod(a, b):
    # b must be nonzero
    a = list(a)
    q = [_ZERO] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        _fr_trim(a)
        if not a:
            break
        while len(a) >= len(b) and a[-1] == 0:
            a.pop()
    return _fr_trim(q), _fr_trim(a)


def _fr_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _fr_trim(out)


def _fr_sub(a, b):
    out = list(a) + [_ZERO] * max(0, len(b) - len(a))
    for i, bi in enumerate(b):
        out[i] -= bi
    return _fr_trim(out)


def _fr_inverse_mod(a, m):
    """Inverse of a modulo m in Q[t]; both as Fraction lists, gcd(a, m) = 1."""
    # extended Euclid
    r0, r1 = list(m), list(a)
    s0, s1 = [], [_ONE]
    while r1:
        q, r = _fr_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _fr_sub(s0, _fr_mul(q, s1))
    # r0 = gcd (nonzero constant when coprime)
    if len(r0) != 1:
        raise DivisionByZero("element has no inverse modulo the field modulus")
    c = 1 / r0[0]
    return _fr_trim([x * c for x in s0])


def _int_rational_roots(coeffs):
    """All rational roots of a nonzero integer-coefficient polynomial."""
    c = list(coeffs)
    roots = set()
    k = 0
    while c and c[0] == 0:
        c.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if len(c) <= 1:
        return roots
    c0, cn = abs(c[0]), abs(c[-1])
    for p in _divisors(c0):
        for q in _divisors(cn):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for coef in reversed(c):
                    acc = acc * cand + coef
                if acc == 0:
                    roots.add(cand)
    return roots


def _int_quadratic_factor(m):
    """A monic integer quadratic factor (c, b, 1) of m, or None.

    m is a monic integer polynomial (ascending) without rational roots.  By
    Gauss's lemma a quadratic factor over Q can be taken monic integral.  Then
    c divides m(0) and 1 + b + c divides m(1), both nonzero here; and the
    roots of the factor are roots of m, so |b| <= 2B with the Cauchy bound
    B = 1 + max |m_i|.
    """
    bound = 1 + max(abs(c) for c in m[:-1])
    at_one = sorted(s * d for d in _divisors(sum(m)) for s in (-1, 1))
    for c in sorted(s * d for d in _divisors(m[0]) for s in (-1, 1)):
        for e in at_one:
            b = e - 1 - c
            if abs(b) <= 2 * bound and _int_divides((c, b), m):
                return (c, b, 1)
    return None


def _int_divides(low, m):
    """Does the monic polynomial low + t^k divide the monic integer polynomial m?"""
    rem = list(m)
    k = len(low)
    for top in range(len(rem) - 1, k - 1, -1):
        c = rem[top]
        if c:
            for i, li in enumerate(low):
                rem[top - k + i] -= c * li
    return not any(rem[:k])


def _divisors(n):
    """The positive divisors of n in increasing order ([1] for n = 0)."""
    out = [1]
    for p, e in _factor_int(abs(n)).items() if n else ():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for 2 <= n < _MR_BOUND."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n):
    """A proper factor of an odd composite n without prime factors below
    _MR_BASES[-1]: Brent's cycle search on x^2 + c, c = 1, 2, ...,
    with batched gcds (Brent, BIT 20 (1980) 176-184)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("no factor found for a composite")


def _trial_factor(n, out):
    """Add the factorization of n >= 1 to out by trial division."""
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1


def _factor_int(n):
    """Factorization of n >= 1 as {prime: exponent}, primes increasing.

    Primes up to 41 are divided out first and squares are split into
    their roots; a cofactor below _MR_BOUND is split with Pollard-Brent
    until Miller-Rabin proves each part prime, and one above it by trial
    division, so every factor is proved prime.
    """
    out = {}
    for p in _MR_BASES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        root = isqrt(m)
        if root * root == m:
            # squares (norms of rational Gaussian primes) would cost rho
            # about sqrt(root) steps
            parts += [root, root]
        elif m >= _MR_BOUND:
            _trial_factor(m, out)
        elif _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            parts += [f, m // f]
    return dict(sorted(out.items()))


# --- Gaussian integer helpers: pairs (a, b) meaning a + b*i ---


def _gs_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gs_norm(x):
    return x[0] * x[0] + x[1] * x[1]


def _gs_divmod(x, y):
    n = _gs_norm(y)
    num = _gs_mul(x, (y[0], -y[1]))
    q = (_round_half(Fraction(num[0], n)), _round_half(Fraction(num[1], n)))
    r = (x[0] - (q[0] * y[0] - q[1] * y[1]), x[1] - (q[0] * y[1] + q[1] * y[0]))
    return q, r


def _round_half(fr):
    # deterministic round-to-nearest, half toward +inf
    return (2 * fr.numerator + fr.denominator) // (2 * fr.denominator)


def _gs_canonical(x):
    """Rotate by units into the canonical quadrant: a > 0, b >= 0 (or zero)."""
    a, b = x
    if a == 0 and b == 0:
        return x
    for _ in range(4):
        if a > 0 and b >= 0:
            return (a, b)
        a, b = b, -a
    return (a, b)


def _gs_prime_factors(x):
    """Factor a nonzero Gaussian integer into canonical primes with exponents."""
    out = {}
    rest = x
    for p, e in sorted(_factor_int(_gs_norm(x)).items()):
        if p == 2:
            cands = [(1, 1)]
        elif p % 4 == 3:
            cands = [(p, 0)]
        else:
            a, b = _two_squares(p)
            cands = [_gs_canonical((a, b)), _gs_canonical((a, -b))]
        for pi in cands:
            while True:
                q, r = _gs_divmod(rest, pi)
                if r == (0, 0):
                    rest = q
                    out[pi] = out.get(pi, 0) + 1
                else:
                    break
    return out


def _two_squares(p):
    """(a, b) with a^2 + b^2 = p for a prime p = 1 mod 4 (Hermite-Serret):
    the Euclidean remainders of p and a square root of -1 mod p drop below
    sqrt(p) at a."""
    q = 2
    while pow(q, (p - 1) // 2, p) != p - 1:
        q += 1
    a, b = p, pow(q, (p - 1) // 4, p)
    while b * b > p:
        a, b = b, a % b
    return b, isqrt(p - b * b)


def _gs_divisors(x):
    """All divisors of a nonzero Gaussian integer, one per associate class."""
    factors = sorted(_gs_prime_factors(x).items(), key=lambda kv: (_gs_norm(kv[0]), kv[0]))
    divs = [(1, 0)]
    for pi, e in factors:
        grown = []
        for d in divs:
            cur = d
            for _ in range(e + 1):
                grown.append(cur)
                cur = _gs_mul(cur, pi)
        divs = grown
    seen = set()
    out = []
    for d in divs:
        c = _gs_canonical(d)
        if c not in seen:
            seen.add(c)
            out.append(c)
    out.sort(key=lambda d: (_gs_norm(d), d))
    return out


class Field:
    """A base field: the rationals, the Gaussian rationals, or Q[t]/(m(t)).

    The modulus of an extension must be a monic integer polynomial.  Up to
    degree five, irreducibility is verified: no rational root, and for
    degree four and five no monic integer quadratic factor either (a
    reducible polynomial of degree at most five has a factor of degree one
    or two).  Higher degrees are accepted on the caller's assertion,
    recorded in ``modulus_verified``.
    """

    __slots__ = ("kind", "degree", "modulus", "symbol", "modulus_verified",
                 "_theta_pows", "zero", "one")

    def __init__(self, kind, modulus=None):
        if kind == RATIONALS:
            self.kind = kind
            self.degree = 1
            self.modulus = None
            self.symbol = ""
            self.modulus_verified = True
        elif kind == GAUSSIAN:
            self.kind = kind
            self.degree = 2
            self.modulus = (1, 0, 1)
            self.symbol = "i"
            self.modulus_verified = True
        elif kind == EXTENSION:
            m = tuple(int(c) for c in modulus)
            if len(m) < 3:
                raise ValueError("extension modulus must have degree at least 2")
            if m[-1] != 1:
                raise ValueError("extension modulus must be monic")
            deg = len(m) - 1
            verified = False
            if deg <= 5:
                if _int_rational_roots(m):
                    raise ValueError("modulus is reducible over Q (has a rational root)")
                if deg >= 4:
                    factor = _int_quadratic_factor(m)
                    if factor is not None:
                        raise ValueError(
                            "modulus is reducible over Q (has a quadratic "
                            f"factor {_int_poly_str(factor)})")
                verified = True
            self.kind = kind
            self.degree = deg
            self.modulus = m
            self.symbol = "t"
            self.modulus_verified = verified
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self._theta_pows = self._reduction_table()
        zeros = (0,) * (self.degree - 1)
        self.zero = _make(self, (0,) + zeros, 1)
        self.one = _make(self, (1,) + zeros, 1)

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
        e = field.degree
        a, b = self.num, o.num
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
        inv = _fr_inverse_mod(_fr_trim(list(self.coords)),
                              [Fraction(c) for c in field.modulus])
        return FieldElement(field, list(inv) + [_ZERO] * (e - len(inv)))

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


@dataclass(frozen=True)
class RootSearch:
    """Roots found in the base field, with a completeness guarantee flag."""

    roots: tuple
    complete: bool


def roots_in_field(p):
    """Roots of p lying in its coefficient field, each listed once.

    Complete over Q and Q(i).  Over other simple extensions the search is
    best-effort (rational candidates plus quadratic factors solved through
    the norm form) and ``complete`` reports whether it certifies all roots.
    """
    if not p:
        raise ValueError("root search needs a nonzero polynomial")
    sq = p.squarefree_part()
    field = p.field
    if field.kind == RATIONALS:
        roots = _roots_rational(sq)
        return RootSearch(tuple(sorted(roots, key=lambda r: r.coords)), True)
    if field.kind == GAUSSIAN:
        roots = _roots_gaussian(sq)
        return RootSearch(tuple(sorted(roots, key=lambda r: r.coords)), True)
    roots, complete = _roots_extension(sq)
    return RootSearch(tuple(sorted(roots, key=lambda r: r.coords)), complete)


def _roots_rational(sq):
    field = sq.field
    denom = 1
    for c in sq.coeffs:
        denom = denom * c.coords[0].denominator // _gcd(denom, c.coords[0].denominator)
    ints = [int(c.coords[0] * denom) for c in sq.coeffs]
    return [field.from_rational(r) for r in sorted(_int_rational_roots(ints))]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _roots_gaussian(sq):
    field = sq.field
    if sq.degree <= 0:
        return []
    denom = 1
    for c in sq.coeffs:
        for fr in c.coords:
            denom = denom * fr.denominator // _gcd(denom, fr.denominator)
    ints = [(int(c.coords[0] * denom), int(c.coords[1] * denom)) for c in sq.coeffs]
    roots = []
    k = 0
    while ints and ints[0] == (0, 0):
        ints.pop(0)
        k += 1
    if k:
        roots.append(field.zero)
    if len(ints) <= 1:
        return roots
    units = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    seen = set()
    for r in _gs_divisors(ints[0]):
        for s in _gs_divisors(ints[-1]):
            ns = _gs_norm(s)
            for u in units:
                ru = _gs_mul(r, u)
                # candidate = ru / s = ru * conj(s) / norm(s)
                num = _gs_mul(ru, (s[0], -s[1]))
                cand = (Fraction(num[0], ns), Fraction(num[1], ns))
                if cand in seen:
                    continue
                seen.add(cand)
                x = field.element(cand)
                if not sq(x):
                    roots.append(x)
    return roots


def _roots_extension(sq):
    field = sq.field
    roots = []
    cur = sq
    complete = True
    while True:
        if cur.degree <= 0:
            break
        if cur.degree == 1:
            roots.append(-cur.coeffs[0] / cur.coeffs[1])
            break
        found = None
        for cand in _rational_candidates(cur):
            if not cur(cand):
                found = cand
                break
        if found is None and cur.degree == 2:
            qroots = _quadratic_roots(cur)
            if qroots is not None:
                roots.extend(qroots)
            else:
                complete = False  # square-ness of the discriminant unknown
            break
        if found is None:
            complete = False
            break
        roots.append(found)
        lin = Polynomial(field, [-found, field.one])
        cur = cur // lin
    return roots, complete


def _rational_candidates(p):
    """Rational elements that can be roots of p (complete for rational roots)."""
    field = p.field
    e = field.degree
    for j in range(e):
        coord_poly = [c.coords[j] for c in p.coeffs]
        if any(coord_poly):
            denom = 1
            for fr in coord_poly:
                denom = denom * fr.denominator // _gcd(denom, fr.denominator)
            ints = [int(fr * denom) for fr in coord_poly]
            return [field.from_rational(r) for r in sorted(_int_rational_roots(ints))]
    return []


def _quadratic_roots(p):
    """Both roots of a quadratic over a simple extension, or None if unknown.

    Returns a list (possibly empty) when the question is decided; None when
    the field degree rules out our square-root reduction.
    """
    field = p.field
    a, b, c = p.coeffs[2], p.coeffs[1], p.coeffs[0]
    disc = b * b - field.from_rational(4) * a * c
    s = _sqrt_in_field(disc)
    if s is None:
        if field.degree == 2:
            return []  # decided: discriminant is a non-square, no roots here
        if field.degree % 2 == 1 and all(x == 0 for x in disc.coords[1:]):
            # a rational non-square cannot acquire a square root inside an
            # odd-degree extension (it would generate a quadratic subfield)
            return []
        return None
    two_a = field.from_rational(2) * a
    r1 = (-b + s) / two_a
    r2 = (-b - s) / two_a
    return [r1] if r1 == r2 else [r1, r2]


def _sqrt_in_field(d):
    """A square root of d in its field, or None if none exists / undecidable."""
    field = d.field
    if not d:
        return field.zero
    if field.degree == 1 or all(x == 0 for x in d.coords[1:]):
        r = _rational_sqrt(d.coords[0])
        if r is not None:
            return field.from_rational(r)
        if field.degree != 2:
            return None
    if field.degree != 2:
        return None
    # z = u + v*t with t^2 = -p*t - q; solve z^2 = d0 + d1*t exactly
    pm = Fraction(field.modulus[1])
    qm = Fraction(field.modulus[0])
    d0, d1 = d.coords
    cands = []
    if d1 == 0:
        r = _rational_sqrt(d0)
        if r is not None:
            cands.append((r, Fraction(0)))
        den = pm * pm / 4 - qm
        if den != 0:
            v2 = d0 / den
            v = _rational_sqrt(v2)
            if v is not None:
                cands.append((pm * v / 2, v))
    else:
        # (p^2 - 4q) w^2 + (2 p d1 - 4 d0) w + d1^2 = 0 with w = v^2
        A = pm * pm - 4 * qm
        B = 2 * pm * d1 - 4 * d0
        C = d1 * d1
        for w in _rational_quadratic_roots(A, B, C):
            if w <= 0:
                continue
            v = _rational_sqrt(w)
            if v is not None and v != 0:
                u = (d1 + pm * w) / (2 * v)
                cands.append((u, v))
    for u, v in sorted(cands):
        z = field.element((u, v))
        if z * z == d:
            return z
    return None


def _rational_sqrt(fr):
    if fr < 0:
        return None
    n, d = fr.numerator, fr.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _rational_quadratic_roots(a, b, c):
    if a == 0:
        return [] if b == 0 else [Fraction(-c, b)]
    disc = b * b - 4 * a * c
    s = _rational_sqrt(Fraction(disc)) if disc >= 0 else None
    if s is None:
        return []
    return sorted({(-b + s) / (2 * a), (-b - s) / (2 * a)})
