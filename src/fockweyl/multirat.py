"""Multivariate exact arithmetic: Laurent polynomials in z_1..z_N and q over Q,
and their field of fractions.

`MultiPoly` and `MultiRat` sit on the same bases as the univariate tower
(`ring._Poly` and `ring._Frac`, exact division included) and add what
depends on exponent vectors and on the canonical form.  Exponent vectors
have length rank+1 with the q exponent last, matching the fixed variable
order z_1 > ... > z_N > q used for canonical forms.  A fraction is stored
with an ordinary (all exponents >= 0) denominator that has minimal exponent 0
in every variable, integer coefficients with content 1 and lexicographic
leading coefficient positive; the numerator absorbs the net Laurent monomial
and the scalar.  This pins one representative per fraction, so equality is
structural.  Gcds run an exact heuristic evaluation gcd whose trial divisions
prove its answer; when it gives up, the fallback is `ring._subresultant_last`,
the subresultant sequence that is also the univariate `ring.poly_gcd`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, sub

from .ring import (LaurentQ, QFrac, _coef, _Frac, _Poly, _subresultant_last,
                   power_match)
from .weights import Weight


class MultiPoly(_Poly):
    """Sparse multivariate Laurent polynomial over Q (q is the last variable):
    exponents are tuples of length rank+1."""

    __slots__ = ("rank",)

    def __init__(self, rank, terms=None):
        self.rank = rank
        t = {}
        if terms:
            nv = rank + 1
            for exps, v in terms.items():
                v = _coef(v)
                if v:
                    if len(exps) != nv:
                        raise ValueError("exponent vector has wrong length")
                    t[tuple(exps)] = v
        self.terms = t

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def const(cls, rank, value):
        return cls(rank, {(0,) * (rank + 1): value})

    @classmethod
    def one(cls, rank):
        return cls.const(rank, 1)

    @classmethod
    def q(cls, rank, power=1):
        e = [0] * rank + [power]
        return cls(rank, {tuple(e): 1})

    def _space(self):
        return self.rank

    def _origin(self):
        return (0,) * (self.rank + 1)

    def _like(self, terms):
        out = MultiPoly.__new__(MultiPoly)
        out.rank = self.rank
        out.terms = terms
        return out

    @staticmethod
    def _exp_add(a, b):
        return tuple(map(add, a, b))

    @staticmethod
    def _exp_sub(a, b):
        d = tuple(map(sub, a, b))
        return None if min(d) < 0 else d

    def _monomial_text(self, e):
        names = [f"z{i + 1}" if k == 1 else f"z{i + 1}^{k}"
                 for i, k in enumerate(e[:-1]) if k]
        if e[-1]:
            names.append("q" if e[-1] == 1 else f"q^{e[-1]}")
        return "*".join(names)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        t = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = t.get(e, 0) + v1 * v2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return self._like({e: _coef(v) for e, v in t.items()})

    __rmul__ = __mul__

    def min_exps(self):
        if not self.terms:
            raise ValueError("min exponents of zero polynomial")
        return tuple(map(min, zip(*self.terms)))

    def shifted(self, delta):
        """Multiply by the Laurent monomial with exponent vector delta."""
        return self._like({tuple(map(add, e, delta)): v
                           for e, v in self.terms.items()})

    def lead(self):
        """Lexicographically largest exponent vector and its coefficient."""
        e = max(self.terms)
        return e, self.terms[e]

    def max_deg(self, var):
        return max(e[var] for e in self.terms)

    def eval_z(self, lam) -> LaurentQ:
        """Substitute z_i -> q^{lam_i}; returns a Laurent polynomial in q."""
        coords = lam.coords if isinstance(lam, Weight) else tuple(lam)
        if len(coords) != self.rank:
            raise ValueError("weight length does not match rank")
        c = {}
        for e, v in self.terms.items():
            k = e[-1] + sum(a * b for a, b in zip(e[:-1], coords))
            s = c.get(k, 0) + v
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        return LaurentQ(c)

    def sigma(self, mu) -> "MultiPoly":
        """Substitute z_i -> q^{mu_i} z_i (a ring automorphism fixing q)."""
        coords = mu.coords if isinstance(mu, Weight) else tuple(mu)
        if len(coords) != self.rank:
            raise ValueError("weight length does not match rank")
        return self._like({
            e[:-1] + (e[-1] + sum(a * b for a, b in zip(e[:-1], coords)),): v
            for e, v in self.terms.items()})

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r})"


def _divexact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division of ordinary polynomials (raises if inexact)."""
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return MultiPoly.zero(f.rank)
    quo = f._quotient(g)
    if quo is None:
        raise ArithmeticError("inexact multivariate division")
    return quo


def _as_univar(f: MultiPoly, var: int):
    """View an ordinary polynomial as univariate in `var` with MultiPoly coefficients."""
    by = {}
    for e, v in f.terms.items():
        k = e[var]
        e0 = e[:var] + (0,) + e[var + 1:]
        by.setdefault(k, {})[e0] = v
    return {k: f._like(terms) for k, terms in by.items()}


def _content(coeffs) -> MultiPoly:
    g = None
    for p in coeffs:
        g = p if g is None else poly_gcd_multi(g, p)
        if _is_one(g):
            break
    return g


def _primitive_univar(u):
    cont = _content(u.values())
    if _is_one(cont):
        return dict(u), cont
    return {k: _divexact(p, cont) for k, p in u.items()}, cont


def poly_gcd_multi(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """GCD of ordinary multivariate polynomials over Q, normalized to integer
    coefficients with content 1 and positive leading coefficient in lex order.

    After the common monomial and the integer contents are split off, the
    answer is `_heugcd`'s whenever it gives one.  That answer is exact: if
    at every level of its recursion (1) the inputs are primitive, (2) the
    evaluation point is at least 2 min(|f|_inf, |g|_inf) + 2 and (3) the
    gcd of the images is exact, then a lifted candidate whose primitive part
    divides both inputs is their gcd (proof in `_heugcd`), so the trial
    division is the certificate.  The subresultant pseudo-remainder sequence
    runs only when the heuristic gives up after its six evaluation points.
    Input in one variable takes the same route.  All intermediate arithmetic
    stays over Z.  Raises ValueError on a negative exponent (strip monomials
    first).
    """
    for p in (f, g):
        if not p.is_zero and min(p.min_exps()) < 0:
            raise ValueError(f"poly_gcd_multi takes ordinary polynomials "
                             f"(no negative exponents), got {p}")
    if f.is_zero:
        return g.int_primitive()
    if g.is_zero:
        return f.int_primitive()
    common = tuple(map(min, f.min_exps(), g.min_exps()))
    if any(common):
        # the gcd below has no monomial factor; put the common one back
        strip = tuple(-m for m in common)
        return poly_gcd_multi(f.shifted(strip), g.shifted(strip)).shifted(common)
    f = f.int_primitive()
    g = g.int_primitive()
    if _is_one(f) or _is_one(g):
        return MultiPoly.one(f.rank)
    if f.terms == g.terms:
        return f
    h = _heugcd(f, g)
    if h is not None:
        return h
    return _gcd_subresultant(f, g)


def _certified_coprime(cf: MultiPoly, cg: MultiPoly, tries: int = 3) -> bool:
    """Prove two primitive polynomials coprime by joint integer evaluation.

    Not on the gcd path: `_heugcd` proves its own answers, so nothing in the
    package calls this.  It is kept because `fwlbench/layertrace.py` resolves
    it by name to count failed certifications.

    A common nonconstant factor keeps absolute value > 1 at every sufficiently
    large evaluation point, so a single gcd-1 evaluation is a certificate;
    failures may be accidental, hence the retries.
    """
    if _is_one(cf) or _is_one(cg):
        return True
    nv = cf.rank + 1
    bump = 0
    for _ in range(tries):
        vf, vg = cf, cg
        for var in range(nv):
            if vf.max_deg(var) == 0 and vg.max_deg(var) == 0:
                continue
            xi = 2 * max(_max_norm(vf), _max_norm(vg)) + 31 + bump
            vf = _eval_var(vf, var, xi)
            vg = _eval_var(vg, var, xi)
        a = abs(next(iter(vf.terms.values()))) if vf.terms else 0
        b = abs(next(iter(vg.terms.values()))) if vg.terms else 0
        if gcd(a, b) == 1:
            return True
        bump = bump * 31 + 127
    return False


def _gcd_subresultant(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The gcd of two nonconstant polynomials by a subresultant remainder
    sequence in the variable of smallest degree.  The inputs must share no
    monomial factor (the result drops one in the main variable);
    `poly_gcd_multi` splits it off first."""
    # main variable of smallest degree keeps the remainder sequence short
    var = _main_var(f, g)
    uf = _as_univar(f, var)
    ug = _as_univar(g, var)
    pf, cf = _primitive_univar(uf)
    pg, cg = _primitive_univar(ug)
    cont = poly_gcd_multi(cf, cg)
    last, _ = _primitive_univar(_subresultant_last(pf, pg))
    # the inverse of _as_univar: the blocks have distinct powers k of var
    prim = f._like({e[:var] + (k,) + e[var + 1:]: v
                    for k, p in last.items() for e, v in p.terms.items()})
    prim, _ = _strip_monomial(prim)
    return (cont * prim).int_primitive()


def _max_norm(p: MultiPoly) -> int:
    return max(abs(v) for v in p.terms.values())


def _eval_var(p: MultiPoly, var: int, xi: int) -> MultiPoly:
    """p at var = xi.  Ordinary input only (xi ** e with e < 0 is a float);
    `poly_gcd_multi` rejects negative exponents before `_heugcd` runs."""
    terms = {}
    for e, v in p.terms.items():
        e0 = e[:var] + (0,) + e[var + 1:]
        s = terms.get(e0, 0) + v * xi ** e[var]
        if s:
            terms[e0] = s
        else:
            terms.pop(e0, None)
    return p._like(terms)


def _from_digits(h: MultiPoly, var: int, xi: int) -> MultiPoly:
    """Invert evaluation at xi by balanced base-xi digits."""
    cur = dict(h.terms)
    out = {}
    i = 0
    half = xi // 2
    while cur:
        nxt = {}
        for e, v in cur.items():
            r = v % xi
            if r > half:
                r -= xi
            if r:
                out[e[:var] + (i,) + e[var + 1:]] = r
            w = (v - r) // xi
            if w:
                nxt[e] = w
        cur = nxt
        i += 1
    return h._like(out)


def _heugcd(f: MultiPoly, g: MultiPoly):
    """The exact gcd in Z[vars] of two nonzero integer polynomials, by
    integer evaluation (GCDHEU); None when six evaluation points fail.

    Each level splits off the integer contents, evaluates one variable of the
    primitive parts f, g at xi, recurses on the images, lifts their gcd
    gamma by balanced base-xi digits and multiplies the primitive part P of
    the lift, when it divides both f and g, by gcd(cont f, cont g).
    Monomials are factors like any other and are never stripped here.

    The trial division is the proof.  Suppose (1) f and g are primitive,
    (2) xi >= 2 min(|f|_inf, |g|_inf) + 2, and (3) gamma is the exact gcd of
    the images.  Write gcd(f, g) = P H and c for the content of the lift, so
    gamma = c P(xi).  Then H(xi) divides c.  The leading coefficient of H in
    the remaining variables divides those of f and g, whose roots lie below
    xi, so H is a polynomial in the evaluated variable alone.  Its roots lie
    below 1 + min(|f|_inf, |g|_inf) <= xi / 2, so a nonconstant H has
    |H(xi)| > xi / 2 >= |c| (c divides balanced digits).  Hence H = +-1 and
    P is the gcd.  Here (1) holds by the content split, (2) because xi
    starts at 2 max(|f|_inf, |g|_inf) + 29 and only grows, and (3) by
    induction: the innermost images are integers.
    """
    cf = gcd(*f.terms.values())
    cg = gcd(*g.terms.values())
    c = gcd(cf, cg)
    if _is_constant(f) or _is_constant(g):
        return MultiPoly.const(f.rank, c)
    if cf != 1:
        f = f._like({e: v // cf for e, v in f.terms.items()})
    if cg != 1:
        g = g._like({e: v // cg for e, v in g.terms.items()})
    var = _main_var(f, g)
    xi = 2 * max(_max_norm(f), _max_norm(g)) + 29
    for _ in range(6):
        he = _heugcd(_eval_var(f, var, xi), _eval_var(g, var, xi))
        if he is not None:
            h = _from_digits(he, var, xi).int_primitive()
            if _is_one(h):
                return MultiPoly.const(f.rank, c)
            if f._quotient(h) is not None and g._quotient(h) is not None:
                return h if c == 1 else h._scaled(c)
        xi = xi * 73794 // 27011 + 37
    return None


def _main_var(f: MultiPoly, g: MultiPoly) -> int:
    """The variable of f or g of smallest nonzero degree (lowest index on a
    tie); the largest exponents are read in one pass over each operand."""
    df, dg = map(max, zip(*f.terms)), map(max, zip(*g.terms))
    return min((max(a, b), v)
               for v, (a, b) in enumerate(zip(df, dg)) if a or b)[1]


def _is_constant(p: MultiPoly) -> bool:
    return len(p.terms) == 1 and not any(next(iter(p.terms)))


def _strip_monomial(p: MultiPoly):
    """Factor out the largest dividing monomial; returns (ordinary part, exps)."""
    m = p.min_exps()
    if any(m):
        p = p.shifted(tuple(-x for x in m))
    return p, m


def _is_one(p: MultiPoly) -> bool:
    return p.terms == {(0,) * (p.rank + 1): 1}


def _div_laurent(p: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Exact division of a Laurent polynomial by an ordinary one."""
    p0, m = _strip_monomial(p)
    return _divexact(p0, g).shifted(m)


class MultiRat(_Frac):
    """Element of the fraction field Q(q, z_1, ..., z_N) in canonical form."""

    __slots__ = ()

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None, *,
                 coprime: bool = False):
        if den is None:
            den = MultiPoly.one(num.rank)
        if num.rank != den.rank:
            raise ValueError("rank mismatch")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = MultiPoly.zero(num.rank)
            self.den = MultiPoly.one(num.rank)
            return
        n0, mn = _strip_monomial(num)
        d0, md = _strip_monomial(den)
        if not coprime:
            g = poly_gcd_multi(n0, d0)
            if not _is_one(g):
                # n0 and d0 keep minimal exponent 0 in every variable:
                # minimal exponents add under multiplication
                n0 = _divexact(n0, g)
                d0 = _divexact(d0, g)
        dc = d0.int_primitive()
        scale = Fraction(dc.lead()[1]) / Fraction(d0.lead()[1])
        if scale != 1:
            n0 = n0 * scale
        delta = tuple(map(sub, mn, md))
        self.num = n0.shifted(delta) if any(delta) else n0
        self.den = dc

    @property
    def rank(self):
        return self.num.rank

    @classmethod
    def zero(cls, rank):
        return cls(MultiPoly.zero(rank))

    @classmethod
    def one(cls, rank):
        return cls(MultiPoly.one(rank))

    @classmethod
    def const(cls, rank, value):
        return cls(MultiPoly.const(rank, value))

    def _wrap(self, x):
        if isinstance(x, MultiRat):
            return x
        if isinstance(x, (int, Fraction)):
            return MultiRat.const(self.rank, x)
        if isinstance(x, MultiPoly):
            return MultiRat(x)
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        sn, sd, on, od = self.num, self.den, other.num, other.den
        # Henrici reduction: any common factor of the combined numerator and
        # denominator divides g = gcd(sd, od), so only small gcds are needed.
        g = poly_gcd_multi(sd, od)
        if _is_one(g):
            t = sn * od + on * sd
            return MultiRat(t, sd * od, coprime=True)
        t = sn * _divexact(od, g) + on * _divexact(sd, g)
        if t.is_zero:
            return MultiRat.zero(self.rank)
        h = poly_gcd_multi(_strip_monomial(t)[0], g)
        if not _is_one(h):
            t = _div_laurent(t, h)
            od = _divexact(od, h)
        return MultiRat(t, _divexact(sd, g) * od, coprime=True)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return MultiRat.zero(self.rank)
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        # cross-reduce so the product is born coprime
        g1 = poly_gcd_multi(_strip_monomial(an)[0], bd)
        if not _is_one(g1):
            an = _div_laurent(an, g1)
            bd = _divexact(bd, g1)
        g2 = poly_gcd_multi(_strip_monomial(bn)[0], ad)
        if not _is_one(g2):
            bn = _div_laurent(bn, g2)
            ad = _divexact(ad, g2)
        return MultiRat(an * bn, ad * bd, coprime=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        return self * other.inverse()

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return MultiRat(self.den, self.num, coprime=True)


def sigma_shift(f: MultiRat, mu) -> MultiRat:
    """Apply the field automorphism z_i -> q^{(mu, eps_i)} z_i."""
    if f.is_zero:
        return f
    # gcd-free: an automorphism preserves coprimality, only renormalize units
    return MultiRat(f.num.sigma(mu), f.den.sigma(mu), coprime=True)


def over_q_diff(p: MultiPoly, k: int) -> MultiRat:
    """The canonical fraction p / (q - q^{-1})^k, built without a gcd.

    (q - q^{-1})^k = q^{-k} (q - 1)^k (q + 1)^k, and q - 1 and q + 1 are prime,
    so dividing each out of p as often as it goes (at most k times) leaves a
    coprime fraction.  Division by q - c runs synthetically on each block of
    terms that share their z exponents.
    """
    rank = p.rank
    if p.is_zero:
        return MultiRat.zero(rank)
    blocks = {}
    for e, v in p.terms.items():
        blocks.setdefault(e[:-1], {})[e[-1] + k] = v

    def divided(c):
        """The blocks divided by q - c; None when one leaves a remainder."""
        quo = {}
        for z, b in blocks.items():
            lo = min(b)
            carry = 0
            out = quo[z] = {}
            for e in range(max(b), lo, -1):
                carry = carry * c + b.get(e, 0)
                if carry:
                    out[e - 1] = _coef(carry)
            if carry * c + b[lo]:
                return None
        return quo

    den = MultiPoly.one(rank)
    for c in (1, -1):
        left = k
        while left and (quo := divided(c)) is not None:
            blocks = quo
            left -= 1
        if left:
            den = den * MultiPoly(rank, {_qexp(rank, 1): 1, _qexp(rank, 0): -c}) ** left
    num = p._like({z + (e,): v for z, b in blocks.items() for e, v in b.items()})
    return MultiRat(num, den, coprime=True)


def _qexp(rank, m):
    return (0,) * rank + (m,)


class UnitParts:
    """Decomposition of a unit of Q(q)[z^{+-1}] as sign * q^m * z-monomial * scalar.

    The convention: q_exp is the trailing q-degree of the Q(q) part, the sign
    comes from the trailing coefficients, and scalar is what remains (1 when
    the unit is exactly +-q^m times a z-monomial).
    """

    __slots__ = ("sign", "q_exp", "z_exps", "scalar")

    def __init__(self, sign, q_exp, z_exps, scalar):
        self.sign = sign
        self.q_exp = q_exp
        self.z_exps = z_exps
        self.scalar = scalar

    def is_q_power(self, tolerance: str) -> bool:
        """Whether this unit is a z-monomial times q^m ("strict"), times
        +-q^m ("signed") or any unit ("unit"): `ring.power_match` of its
        Q(q) part sign * scalar, which has q-degree 0, against 1."""
        s, one = self.scalar, LaurentQ.one()
        return power_match((s.num * self.sign, s.den), (one, one), tolerance)

    def __repr__(self):
        return (f"UnitParts(sign={self.sign}, q_exp={self.q_exp}, "
                f"z_exps={self.z_exps}, scalar={self.scalar})")


def unit_ratio(a: MultiRat, b: MultiRat):
    """Decompose a/b when it is a unit of Q(q)[z_1^{+-1},...,z_N^{+-1}].

    Returns UnitParts, or None when a/b is not a unit.

    a/b = P/Q with P = a.num * b.den and Q = b.num * a.den, and it is a unit
    c z^m (c in Q(q)) iff the z-blocks of P are those of Q moved by z^m, each
    c times its match.  m is read off the least block keys and each block is
    checked against the first pair by cross-multiplying, with no gcd.
    """
    if b.is_zero:
        raise ZeroDivisionError("unit_ratio with zero divisor")
    if a.is_zero:
        return None
    pb = _z_blocks(a.num * b.den)
    qb = _z_blocks(b.num * a.den)
    if len(pb) != len(qb):
        return None
    zp, zq = min(pb), min(qb)
    z_exps = tuple(x - y for x, y in zip(zp, zq))
    p0, q0 = pb[zp], qb[zq]
    for z, blk in pb.items():
        match = qb.get(tuple(x - y for x, y in zip(z, z_exps)))
        if match is None or blk * q0 != match * p0:
            return None
    u = QFrac(p0, q0)
    m = u.num.low_degree() - u.den.low_degree()
    sign = 1 if (u.num.trailing_coeff() > 0) == (u.den.trailing_coeff() > 0) else -1
    scalar = u.shift(-m) if sign == 1 else -u.shift(-m)
    return UnitParts(sign, m, z_exps, scalar)


def _z_blocks(p: MultiPoly):
    """The terms of p grouped by z-exponent vector, each block a q-Laurent
    polynomial."""
    blocks = {}
    for e, v in p.terms.items():
        blocks.setdefault(e[:-1], {})[e[-1]] = v
    return {z: LaurentQ(t) for z, t in blocks.items()}
