"""Exact scalar arithmetic: Laurent polynomials over Q and rational functions in q.

Everything is exact (int / fractions.Fraction coefficients); there is no
floating point anywhere in the package.  Laurent polynomials carry a variable
tag ('q' for quantum-group scalars, 'v' for Fock-space scalars) so the two
deformation parameters cannot be mixed by accident.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _coef(x):
    """Normalize a coefficient to int (preferred) or Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        return _coef(Fraction(x))
    raise TypeError(f"bad coefficient {x!r}")


class LaurentQ:
    """Sparse Laurent polynomial with exact rational coefficients.

    Zero coefficients are never stored; the zero polynomial has an empty
    coefficient map.  Instances are immutable by convention.
    """

    __slots__ = ("var", "c")

    def __init__(self, coeffs=None, var="q"):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _coef(v)
                if v:
                    c[int(e)] = v
        self.var = var
        self.c = c

    @classmethod
    def zero(cls, var="q"):
        return cls(None, var)

    @classmethod
    def one(cls, var="q"):
        return cls({0: 1}, var)

    @classmethod
    def term(cls, exp, coeff=1, var="q"):
        return cls({exp: coeff}, var)

    @classmethod
    def gen(cls, var="q"):
        return cls({1: 1}, var)

    @property
    def is_zero(self):
        return not self.c

    def _check(self, other):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def _wrap(self, x):
        if isinstance(x, LaurentQ):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentQ({0: x}, self.var)
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        c = dict(self.c)
        for e, v in other.c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = LaurentQ.zero(self.var)
        out.c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentQ.zero(self.var)
        out.c = {e: -v for e, v in self.c.items()}
        return out

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coef(other)
            if not other:
                return LaurentQ.zero(self.var)
            out = LaurentQ.zero(self.var)
            out.c = {e: _coef(v * other) for e, v in self.c.items()}
            return out
        if not isinstance(other, LaurentQ):
            return NotImplemented
        self._check(other)
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        out = LaurentQ.zero(self.var)
        out.c = {e: _coef(v) for e, v in c.items()}
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial; use QFrac")
        out = LaurentQ.one(self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._wrap(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self.var == other.var and self.c == other.c

    def __hash__(self):
        return hash((self.var, frozenset(self.c.items())))

    def shift(self, k):
        """Multiply by var**k."""
        out = LaurentQ.zero(self.var)
        out.c = {e + k: v for e, v in self.c.items()}
        return out

    def degree(self):
        if not self.c:
            raise ValueError("degree of zero polynomial")
        return max(self.c)

    def low_degree(self):
        if not self.c:
            raise ValueError("low degree of zero polynomial")
        return min(self.c)

    def leading_coeff(self):
        return self.c[self.degree()]

    def trailing_coeff(self):
        return self.c[self.low_degree()]

    def scale(self, s):
        return self * s

    def as_monomial(self):
        """Return (exp, coeff) when this is a single term, else None."""
        if len(self.c) == 1:
            ((e, v),) = self.c.items()
            return e, v
        return None

    @property
    def is_unit(self):
        """Unit of the Laurent ring: a single term."""
        return len(self.c) == 1

    def complexity(self):
        """Pivot-selection key: term count, then exponent span."""
        if not self.c:
            return (0, 0)
        return (len(self.c), max(self.c) - min(self.c))

    def gcd(self, other):
        return poly_gcd(self, other)

    def content(self):
        """Positive rational content: gcd of numerators / lcm of denominators."""
        if not self.c:
            return Fraction(1)
        fracs = [Fraction(v) for v in self.c.values()]
        num = 0
        den = 1
        for f in fracs:
            num = gcd(num, f.numerator)
            den = lcm(den, f.denominator)
        return Fraction(abs(num), den)

    def primitive(self):
        """Divide by content and by the sign of the leading coefficient."""
        if not self.c:
            return self
        g = self.content()
        if self.leading_coeff() < 0:
            g = -g
        return self * (Fraction(1) / g)

    def try_exact_div(self, other):
        """Exact division in the Laurent ring; None when not divisible."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentQ.zero(self.var)
        sa = self.low_degree()
        sb = other.low_degree()
        quo, rem = _poly_divmod({e - sa: v for e, v in self.c.items()},
                                {e - sb: v for e, v in other.c.items()})
        if rem:
            return None
        out = LaurentQ.zero(self.var)
        out.c = {e + sa - sb: _coef(v) for e, v in quo.items()}
        return out

    def exact_div(self, other):
        q = self.try_exact_div(other)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        return q

    def subs_power(self, k):
        """Substitute var -> var**k (k nonzero integer)."""
        out = LaurentQ.zero(self.var)
        out.c = {e * k: v for e, v in self.c.items()}
        return out

    def to_text(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            mag = abs(Fraction(v))
            if e == 0:
                body = str(_coef(mag))
            else:
                p = self.var if e == 1 else f"{self.var}^{e}"
                body = p if mag == 1 else f"{_coef(mag)}*{p}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"LaurentQ({self.to_text()!r}, var={self.var!r})"

    def to_json(self):
        return {"var": self.var,
                "coeffs": {str(e): str(v) for e, v in sorted(self.c.items())}}

    @classmethod
    def from_json(cls, data):
        return cls({int(e): Fraction(v) for e, v in data["coeffs"].items()},
                   var=data["var"])


def _poly_divmod(a, b):
    """Division with remainder of ordinary polynomial dicts (b nonzero)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    quo = {}
    while r:
        dr = max(r)
        if dr < db:
            break
        t = _coef(Fraction(r[dr]) / Fraction(lb))
        quo[dr - db] = t
        for e, v in b.items():
            e2 = e + dr - db
            s = r.get(e2, 0) - t * v
            if s:
                r[e2] = _coef(s)
            else:
                r.pop(e2, None)
    return quo, r


def _to_int_poly(p: LaurentQ) -> dict:
    """Primitive integer-coefficient ordinary polynomial dict from a Laurent one."""
    s = p.low_degree()
    den_lcm = 1
    for v in p.c.values():
        den_lcm = lcm(den_lcm, Fraction(v).denominator)
    ints = {e - s: int(Fraction(v) * den_lcm) for e, v in p.c.items()}
    return _int_prim(ints)


def _int_prim(r: dict) -> dict:
    if not r:
        return r
    g = 0
    for v in r.values():
        g = gcd(g, v)
    if g > 1:
        return {e: v // g for e, v in r.items()}
    return r


def _int_prem(a: dict, b: dict) -> dict:
    """Pseudo remainder over Z: reduce a by b, scaling by b's leading coefficient."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        nr = {e: v * lb for e, v in r.items()}
        for e, v in b.items():
            if e == db:
                continue
            e2 = e + dr - db
            s = nr.get(e2, 0) - lr * v
            if s:
                nr[e2] = s
            else:
                nr.pop(e2, None)
        r = nr
    return r


def poly_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """GCD of two Laurent polynomials, normalized integer-primitive with
    positive leading coefficient and minimal exponent 0.

    Runs a primitive pseudo-remainder sequence over Z to avoid the coefficient
    blowup of naive Euclid over Q.
    """
    a._check(b)
    if a.is_zero and b.is_zero:
        return LaurentQ.zero(a.var)
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        ints = _to_int_poly(p)
        if ints[max(ints)] < 0:
            ints = {e: -v for e, v in ints.items()}
        out = LaurentQ.zero(a.var)
        out.c = ints
        return out
    ra = _to_int_poly(a)
    rb = _to_int_poly(b)
    if max(ra) < max(rb):
        ra, rb = rb, ra
    while rb:
        rem = _int_prim(_int_prem(ra, rb))
        ra, rb = rb, rem
    out = LaurentQ.zero(a.var)
    if ra[max(ra)] < 0:
        ra = {e: -v for e, v in ra.items()}
    out.c = ra
    return out


def _monic_ordinary(p: LaurentQ) -> LaurentQ:
    if p.is_zero:
        return p
    s = p.low_degree()
    lead = p.leading_coeff()
    out = LaurentQ.zero(p.var)
    out.c = {e - s: _coef(Fraction(v) / Fraction(lead)) for e, v in p.c.items()}
    return out


def q_int(n: int, var: str = "q") -> LaurentQ:
    """The balanced quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return LaurentQ.zero(var)
    a = abs(n)
    sign = 1 if n > 0 else -1
    return LaurentQ({a - 1 - 2 * j: sign for j in range(a)}, var)


def q_power(m: int, var: str = "q") -> LaurentQ:
    return LaurentQ.term(m, 1, var)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentQ:
    """The d-th cyclotomic polynomial, via q^d - 1 = prod_{e|d} phi_e."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = LaurentQ({d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


def val_cyclotomic(x, d: int) -> int:
    """Multiplicity of cyclotomic(d) in x (numerator minus denominator)."""
    phi = cyclotomic(d)

    def mult(p: LaurentQ) -> int:
        m = 0
        while True:
            quo = p.try_exact_div(phi)
            if quo is None:
                return m
            p = quo
            m += 1

    if isinstance(x, LaurentQ):
        if x.is_zero:
            raise ValueError("valuation of zero undefined")
        return mult(x)
    if isinstance(x, QFrac):
        if x.is_zero:
            raise ValueError("valuation of zero undefined")
        return mult(x.num) - mult(x.den)
    raise TypeError(f"cannot take valuation of {x!r}")


class QFrac:
    """Rational function in q, stored as a reduced fraction of Laurent polynomials.

    Canonical form: the denominator is an ordinary polynomial with nonzero
    constant term and leading coefficient 1; numerator and denominator share
    no polynomial factor.  Equality is exact structural equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, var="q"):
        if not isinstance(num, LaurentQ):
            num = LaurentQ({0: num}, var)
        if den is None:
            den = LaurentQ.one(num.var)
        elif not isinstance(den, LaurentQ):
            den = LaurentQ({0: den}, num.var)
        num._check(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentQ.zero(num.var)
            self.den = LaurentQ.one(num.var)
            return
        if den.c == {0: 1}:
            # gcd(num, 1) = 1: the fraction is already canonical
            self.num = LaurentQ.zero(num.var)
            self.num.c = {e: _coef(v) for e, v in num.c.items()}
            self.den = den
            return
        g = poly_gcd(num, den)
        n = num.exact_div(g)
        d = den.exact_div(g)
        shift = d.low_degree()
        lead = d.leading_coeff()
        dd = LaurentQ.zero(d.var)
        dd.c = {e - shift: _coef(Fraction(v) / Fraction(lead)) for e, v in d.c.items()}
        nn = LaurentQ.zero(n.var)
        nn.c = {e - shift: _coef(Fraction(v) / Fraction(lead)) for e, v in n.c.items()}
        self.num = nn
        self.den = dd

    @classmethod
    def zero(cls, var="q"):
        return cls(LaurentQ.zero(var))

    @classmethod
    def one(cls, var="q"):
        return cls(LaurentQ.one(var))

    @property
    def var(self):
        return self.num.var

    @property
    def is_zero(self):
        return self.num.is_zero

    def shift(self, k):
        """Multiply by q**k.  q is a unit prime to the canonical denominator,
        so only the numerator's exponents move and no gcd is needed."""
        out = QFrac.zero(self.var)
        out.num = self.num.shift(k)
        out.den = self.den
        return out

    def complexity(self):
        """Pivot-selection key: numerator plus denominator term count."""
        return len(self.num.c) + len(self.den.c)

    def _wrap(self, x):
        if isinstance(x, QFrac):
            return x
        if isinstance(x, (int, Fraction, LaurentQ)):
            return QFrac(x if isinstance(x, LaurentQ) else LaurentQ({0: x}, self.var))
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return QFrac(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = QFrac.zero(self.var)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return QFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return QFrac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n):
        if n < 0:
            return QFrac.one(self.var) / self ** (-n)
        out = QFrac.one(self.var)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self):
        return QFrac.one(self.var) / self

    def __eq__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def as_signed_q_power(self):
        """Return (sign, m) when this equals sign * q**m, else None."""
        if self.den != LaurentQ.one(self.var):
            return None
        mono = self.num.as_monomial()
        if mono is None:
            return None
        e, v = mono
        if v == 1:
            return (1, e)
        if v == -1:
            return (-1, e)
        return None

    def is_q_power(self, tolerance: str = "signed") -> bool:
        """Whether this equals q^m ("strict"), +-q^m ("signed") or is any
        nonzero element ("unit")."""
        if tolerance == "unit":
            return not self.is_zero
        sp = self.as_signed_q_power()
        return sp is not None and (tolerance == "signed" or sp[0] == 1)

    def to_text(self):
        if self.den == LaurentQ.one(self.var):
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    __str__ = to_text

    def __repr__(self):
        return f"QFrac({self.to_text()!r})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _strip_q_integers(p: LaurentQ):
    """Greedily factor p into a product of q-integers [n] times a monomial.

    Returns (factors, exp, coeff) with p = prod [n_i] * coeff * q^exp,
    or None if the leftover is not a monomial with coefficient +-1.
    """
    factors = []
    while True:
        mono = p.as_monomial()
        if mono is not None:
            e, v = mono
            if v in (1, -1):
                return factors, e, v
            return None
        span = p.degree() - p.low_degree()
        hit = False
        for n in range(span // 2 + 1, 1, -1):
            quo = p.try_exact_div(q_int(n, p.var))
            if quo is not None:
                factors.append(n)
                p = quo
                hit = True
                break
        if not hit:
            return None


def factor_q_integers(x: QFrac):
    """Write x as sign * q^m * prod [a_i] / prod [b_j] when possible.

    Returns (sign, m, nums, dens) or None.  Used for Figure-style rendering
    of evaluated rational functions.
    """
    if x.is_zero:
        return None
    up = _strip_q_integers(x.num)
    dn = _strip_q_integers(x.den)
    if up is None or dn is None:
        return None
    fn, en, cn = up
    fd, ed, cd = dn
    return (cn * cd, en - ed, tuple(sorted(fn)), tuple(sorted(fd)))


def render_q_integers(x: QFrac):
    """Render x as a q-integer product like '[2][7]/([5][9])', or None."""
    parts = factor_q_integers(x)
    if parts is None:
        return None
    sign, m, nums, dens = parts
    head = "".join(f"[{n}]" for n in nums) or "1"
    prefix = ""
    if m:
        prefix = f"q^{m}*"
    if sign < 0:
        prefix = "-" + prefix
    body = head if not dens else f"{head}/({''.join(f'[{n}]' for n in dens)})"
    return prefix + body
