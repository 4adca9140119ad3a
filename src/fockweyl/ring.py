"""Exact scalar arithmetic: Laurent polynomials over Q and rational functions in q.

Everything is exact (int / fractions.Fraction coefficients); there is no
floating point anywhere in the package.  Two bases carry what both levels of
the scalar tower share: `_Poly`, a sparse Laurent polynomial over Q (the
ring operations, exact division, equality and the printer), and `_Frac`, a
fraction of two `_Poly`s in a canonical form (negation, subtraction, powers,
equality and the printer).  `LaurentQ` and `QFrac` here, and `MultiPoly` and
`MultiRat` in `fockweyl.multirat`, supply only what depends on their
exponents and canonical form; none of them is hashable.  One subresultant
remainder sequence, `_subresultant_last` over int or `MultiPoly`
coefficients, is the univariate `poly_gcd` here and the fallback of the
multivariate gcd in `fockweyl.multirat`; `power_match` is the one test of a
ratio against +-q^m.  Laurent polynomials carry a variable tag ('q' for
quantum-group scalars, 'v' for Fock-space scalars) so the two deformation
parameters cannot be mixed by accident.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add


def _coef(x):
    """Normalize a coefficient to int (preferred) or Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"bad coefficient {x!r}")


def _power(x, n):
    """x**n for n >= 0 by square-and-multiply, for a `_Poly` or a `_Frac`."""
    out = x._wrap(1)
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class _Poly:
    """Sparse Laurent polynomial over Q: `terms` maps an exponent to a nonzero
    int or Fraction.  Instances are immutable by convention.

    A subclass fixes the exponents (int or tuple) and supplies `_space()`
    (what two operands must share), `_origin()` (the exponent of the constant
    monomial), `_like(terms)` (a polynomial in the same space holding already
    normalized terms), `_exp_sub(a, b)` (a - b, or None when that is not an
    ordinary exponent), `_exp_add(a, b)`, `_monomial_text(exp)` and `__mul__`.
    """

    __slots__ = ("terms",)

    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self._space() != other._space():
            raise ValueError(f"{type(self).__name__} space mismatch: "
                             f"{self._space()!r} vs {other._space()!r}")

    def _wrap(self, x):
        if isinstance(x, type(self)):
            return x
        if isinstance(x, (int, Fraction)):
            x = _coef(x)
            return self._like({self._origin(): x} if x else {})
        return NotImplemented

    def _scaled(self, c):
        c = _coef(c)
        if not c:
            return self._like({})
        return self._like({e: _coef(v * c) for e, v in self.terms.items()})

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for e, v in other.terms.items():
            s = t.get(e, 0) + v
            if s:
                t[e] = s
            else:
                del t[e]
        return self._like(t)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; use a fraction")
        return _power(self, n)

    def __eq__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms and self._space() == other._space()

    def _quotient(self, g):
        """self / g for ordinary polynomials (g nonzero) when it is exact,
        else None: long division by leading terms, the largest exponent
        (lexicographic for tuples) first.  A quotient coefficient is an int
        when the leading coefficients are ints and divide evenly, and a
        Fraction otherwise."""
        esub, eadd = self._exp_sub, self._exp_add
        gt = g.terms
        ge = max(gt)
        gc = gt[ge]
        rem = dict(self.terms)
        out = {}
        while rem:
            re = max(rem)
            de = esub(re, ge)
            if de is None:
                return None
            c = rem[re]
            if type(c) is int and type(gc) is int and c % gc == 0:
                t = c // gc
            else:
                t = _coef(Fraction(c) / Fraction(gc))
            out[de] = t
            for e, v in gt.items():
                e = eadd(e, de)
                s = rem.get(e, 0) - t * v
                if s:
                    rem[e] = _coef(s)
                else:
                    rem.pop(e, None)
        return self._like(out)

    def int_primitive(self):
        """The associate with integer coefficients, content 1 and a positive
        coefficient at the largest exponent."""
        terms = self.terms
        if not terms:
            return self
        if not all(type(v) is int for v in terms.values()):
            den = lcm(*(v.denominator for v in terms.values()))
            terms = {e: int(v * den) for e, v in terms.items()}
        g = gcd(*terms.values())
        if terms[max(terms)] < 0:
            g = -g
        if g != 1:
            terms = {e: v // g for e, v in terms.items()}
        return self if terms is self.terms else self._like(terms)

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            v = self.terms[e]
            mag = abs(v)
            mono = self._monomial_text(e)
            if not mono:
                body = f"{mag}"
            else:
                body = mono if mag == 1 else f"{mag}*{mono}"
            if parts:
                body = f"+ {body}" if v > 0 else f"- {body}"
            elif v < 0:
                body = f"-{body}"
            parts.append(body)
        return " ".join(parts)

    __str__ = to_text


class LaurentQ(_Poly):
    """Laurent polynomial in one tagged variable: int exponents.

    Zero coefficients are never stored; the zero polynomial has an empty
    coefficient map.
    """

    __slots__ = ("var",)

    def __init__(self, coeffs=None, var="q"):
        terms = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _coef(v)
                if v:
                    terms[int(e)] = v
        self.var = var
        self.terms = terms

    c = property(lambda self: self.terms, doc="Read-only alias of `terms`.")

    @classmethod
    def zero(cls, var="q"):
        return cls(None, var)

    @classmethod
    def one(cls, var="q"):
        return cls({0: 1}, var)

    @classmethod
    def term(cls, exp, coeff=1, var="q"):
        return cls({exp: coeff}, var)

    def _space(self):
        return self.var

    def _origin(self):
        return 0

    def _like(self, terms):
        out = LaurentQ.__new__(LaurentQ)
        out.var = self.var
        out.terms = terms
        return out

    _exp_add = staticmethod(add)

    @staticmethod
    def _exp_sub(a, b):
        return a - b if a >= b else None

    def _monomial_text(self, e):
        if e == 0:
            return ""
        return self.var if e == 1 else f"{self.var}^{e}"

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, LaurentQ):
            return NotImplemented
        self._check(other)
        c = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return self._like({e: _coef(v) for e, v in c.items()})

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by var**k."""
        if not k:
            return self
        return self._like({e + k: v for e, v in self.terms.items()})

    def degree(self):
        if not self.terms:
            raise ValueError("degree of zero polynomial")
        return max(self.terms)

    def low_degree(self):
        if not self.terms:
            raise ValueError("low degree of zero polynomial")
        return min(self.terms)

    def leading_coeff(self):
        return self.terms[self.degree()]

    def trailing_coeff(self):
        return self.terms[self.low_degree()]

    def as_monomial(self):
        """Return (exp, coeff) when this is a single term, else None."""
        if len(self.terms) == 1:
            ((e, v),) = self.terms.items()
            return e, v
        return None

    @property
    def is_unit(self):
        """Unit of the Laurent ring: a single term."""
        return len(self.terms) == 1

    def complexity(self):
        """Pivot-selection key: term count, then exponent span."""
        if not self.terms:
            return (0, 0)
        return (len(self.terms), max(self.terms) - min(self.terms))

    def gcd(self, other):
        return poly_gcd(self, other)

    def try_exact_div(self, other):
        """Exact division in the Laurent ring; None when not divisible."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentQ.zero(self.var)
        sa = self.low_degree()
        sb = other.low_degree()
        quo = self.shift(-sa)._quotient(other.shift(-sb))
        return quo if quo is None else quo.shift(sa - sb)

    def exact_div(self, other):
        q = self.try_exact_div(other)
        if q is None:
            raise ArithmeticError("inexact polynomial division")
        return q

    def __repr__(self):
        return f"LaurentQ({self.to_text()!r}, var={self.var!r})"

    def to_json(self):
        return {"var": self.var,
                "coeffs": {str(e): str(v) for e, v in sorted(self.terms.items())}}


def _prem(a: dict, b: dict):
    """Pseudo-remainder of ordinary polynomial dicts over an integral domain
    (int or `MultiPoly` coefficients): a reduced by b, scaling by b's leading
    coefficient lb at each step.

    Returns (r, n).  When deg a >= deg b, lb^n r is the strict
    pseudo-remainder lb^(deg a - deg b + 1) a mod b: n counts the steps
    skipped where a reduction dropped the degree by more than one.
    """
    db = max(b)
    lb = b[db]
    r = dict(a)
    n = max(a) - db + 1
    while r:
        dr = max(r)
        if dr < db:
            break
        n -= 1
        lr = r.pop(dr)
        nr = {e: v * lb for e, v in r.items()}
        for e, v in b.items():
            if e == db:
                continue
            e2 = e + dr - db
            s = nr.get(e2, 0) - lr * v
            if s != 0:
                nr[e2] = s
            else:
                nr.pop(e2, None)
        r = nr
    return r, n


def _exquo(v, d):
    """v / d for ints or ordinary `_Poly`s that d divides exactly."""
    quo = v // d if type(v) is int else v._quotient(d)
    if quo is None:
        raise ArithmeticError("inexact division in a subresultant sequence")
    return quo


def _subresultant_last(a: dict, b: dict):
    """Last nonzero remainder of the subresultant sequence (Brown and Traub,
    J. ACM 18, 1971) of nonzero ordinary polynomial dicts with int or
    `MultiPoly` coefficients: gcd(a, b) times a nonzero coefficient.  Each
    pseudo-remainder is divided exactly by g h^delta, so coefficients grow
    polynomially with no content gcd per step."""
    if max(a) < max(b):
        a, b = b, a
    g = h = b[max(b)] ** 0
    while True:
        delta = max(a) - max(b)
        r, n = _prem(a, b)
        if not r:
            return b
        if n:
            scale = b[max(b)] ** n
            r = {e: v * scale for e, v in r.items()}
        denom = g * h ** delta
        if denom != 1:
            r = {e: _exquo(v, denom) for e, v in r.items()}
        a, b = b, r
        g = a[max(a)]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exquo(g ** delta, h ** (delta - 1))


def poly_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """GCD of two Laurent polynomials, normalized integer-primitive with
    positive leading coefficient and minimal exponent 0: the primitive part
    of the last subresultant of the inputs, shifted to minimal exponent 0 and
    made primitive, the remainder sequence `multirat`'s gcd falls back to."""
    a._check(b)
    if a.is_zero or b.is_zero:
        p = b if a.is_zero else a
        return p if p.is_zero else p.shift(-p.low_degree()).int_primitive()
    ra = a.shift(-a.low_degree()).int_primitive().terms
    rb = b.shift(-b.low_degree()).int_primitive().terms
    return a._like(_subresultant_last(ra, rb)).int_primitive()


def power_match(a, b, tolerance: str) -> bool:
    """Whether a / b is q^m ("strict"), +-q^m ("signed") or any nonzero
    element ("unit"), for a and b given as (numerator, denominator) pairs of
    LaurentQ, in lowest terms or not; zero matches only zero.  Decided as
    a_num * b_den == +-q^m * b_num * a_den, with no gcd."""
    (an, ad), (bn, bd) = a, b
    if an.is_zero or bn.is_zero:
        return an.is_zero and bn.is_zero
    if tolerance == "unit":
        return True
    x, y = (an * bd).terms, (bn * ad).terms
    if len(x) != len(y):
        return False
    low_x, low_y = min(x), min(y)
    sign = 1 if x[low_x] == y[low_y] else -1
    if x[low_x] != sign * y[low_y] or (sign == -1 and tolerance == "strict"):
        return False
    return all(x.get(e + low_x - low_y) == sign * c for e, c in y.items())


def q_int(n: int, var: str = "q") -> LaurentQ:
    """The balanced quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return LaurentQ.zero(var)
    a = abs(n)
    sign = 1 if n > 0 else -1
    return LaurentQ({a - 1 - 2 * j: sign for j in range(a)}, var)


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


class _Frac:
    """Fraction num/den of two `_Poly`s, held in the canonical form that the
    subclass's `__init__` pins, so equality is structural.

    A subclass supplies `__init__`, `_wrap` (lift a scalar or polynomial),
    `+`, `*` and `/`.
    """

    __slots__ = ("num", "den")

    def _raw(self, num, den):
        """A fraction of this type from a numerator and denominator already
        in canonical form."""
        out = object.__new__(type(self))
        out.num = num
        out.den = den
        return out

    @property
    def is_zero(self):
        return self.num.is_zero

    def complexity(self):
        """Pivot-selection key: numerator plus denominator term count."""
        return len(self.num.terms) + len(self.den.terms)

    def __neg__(self):
        return self._raw(-self.num, self.den)

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __rtruediv__(self, other):
        return self._wrap(other) / self

    def __pow__(self, n):
        return _power(self, n) if n >= 0 else _power(self, -n).inverse()

    def inverse(self):
        return self._wrap(1) / self

    def __eq__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def to_text(self):
        if self.den == 1:
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    __str__ = to_text

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


class QFrac(_Frac):
    """Rational function in q, stored as a reduced fraction of Laurent polynomials.

    Canonical form: the denominator is an ordinary polynomial with nonzero
    constant term and leading coefficient 1; numerator and denominator share
    no polynomial factor.
    """

    __slots__ = ()

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentQ):
            num = LaurentQ({0: num})
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
        if den.terms == {0: 1}:
            # gcd(num, 1) = 1: the fraction is already canonical
            self.num = num._like({e: _coef(v) for e, v in num.terms.items()})
            self.den = den
            return
        g = poly_gcd(num, den)
        n = num.exact_div(g)
        d = den.exact_div(g)
        shift = d.low_degree()
        lead = d.leading_coeff()
        if lead == 1 or lead == -1:
            # no Fraction division: shift the exponents, negate on -1
            self.num = n._like({e - shift: v * lead for e, v in n.terms.items()})
            self.den = d._like({e - shift: v * lead for e, v in d.terms.items()})
            return
        lead = Fraction(lead)
        self.num = n._like({e - shift: _coef(v / lead) for e, v in n.terms.items()})
        self.den = d._like({e - shift: _coef(v / lead) for e, v in d.terms.items()})

    def shift(self, k):
        """Multiply by q**k.  q is a unit prime to the canonical denominator,
        so only the numerator's exponents move and no gcd is needed."""
        return self._raw(self.num.shift(k), self.den)

    def _wrap(self, x):
        if isinstance(x, QFrac):
            return x
        if isinstance(x, (int, Fraction, LaurentQ)):
            return QFrac(x if isinstance(x, LaurentQ)
                         else LaurentQ({0: x}, self.num.var))
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return QFrac(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

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


def render_q_integers(x: QFrac):
    """Render x as sign * q^m * prod [a_i] / prod [b_j], a q-integer product
    like '[2][7]/([5][9])' for Figure-style output, or None when x is zero or
    not of that form."""
    if x.is_zero:
        return None
    up = _strip_q_integers(x.num)
    dn = _strip_q_integers(x.den)
    if up is None or dn is None:
        return None
    nums, en, cn = up
    dens, ed, cd = dn
    body = "".join(f"[{n}]" for n in sorted(nums)) or "1"
    if dens:
        body += "/(" + "".join(f"[{n}]" for n in sorted(dens)) + ")"
    prefix = "-" if cn * cd < 0 else ""
    if en != ed:
        prefix += f"q^{en - ed}*"
    return prefix + body
