"""Polynomials in the image-space variables T1..T4 over an exact field,
where implicit equations live: TPoly, a validated container with no ring
operators, and an int kernel with exact division and a subresultant-PRS
multivariate gcd.

TPoly stores Fraction coefficients over QQ and int residues in [0, p) over
GF(p). It holds F, D and its residual, and M's entries when they are read
as linear forms (matrixrep.RepMatrix.entries). The int kernel runs on plain
int coefficients: over the integers, with QQ inputs scaled by their
denominators, or modulo p on the stored residues as they are. It reads only
exponent quadruples, so biparam runs its gcd on s,u,t,v forms and matrixrep
its divisions and gcds on binary forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

from . import _expr
from ._expr import lead_key
from .fields import QQ

T_VARS = ("T1", "T2", "T3", "T4")

_ZERO_EXP = (0, 0, 0, 0)
_UNIT_EXPS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division leaves a remainder."""


class TPoly:
    """Polynomial in four variables; terms map exponent quadruples to
    coefficients. The arithmetic runs on the terms, in the int kernel below."""

    __slots__ = ("terms", "field")

    def __init__(self, terms, field=QQ):
        for exp in terms:
            if len(exp) != 4 or min(exp) < 0:
                raise ValueError(f"bad exponent quadruple {exp!r}")
        p = field.characteristic
        self.terms = _expr.modp(terms, p) if p else {e: c for e, c in terms.items() if c}
        self.field = field

    @classmethod
    def constant(cls, c, field=QQ):
        return cls({_ZERO_EXP: field.coerce(c)}, field)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == _ZERO_EXP for e in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __str__(self):
        return _expr.format_terms(self.terms, T_VARS)

    def __repr__(self):
        return f"TPoly({self})"

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


def parse_tpoly(text: str, field=QQ) -> TPoly:
    """Parse a polynomial in the shared text format; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0]
        if body.strip():
            lines.append(body)
    raw_terms = _expr.parse_expression(" ".join(lines) if lines else "0", T_VARS)
    return TPoly({e: field.coerce(c) for e, c in raw_terms.items()}, field)


# ---------------------------------------------------------------------------
# the int kernel: term dicts {exponent quadruple: int} and a modulus p, where
# p == 0 means the integers and otherwise the coefficients are residues in
# [0, p). The public functions below convert only QQ coefficients at entry
# and exit; GF(p) residues go in and come out as they are.

def _sub(a, b, p):
    return _expr.modp(_expr.sub(a, b), p)


def _mul(a, b, p):
    return _expr.modp(_expr.mul(a, b), p)


def _power(t, n: int, p):
    r = {_ZERO_EXP: 1}
    for _ in range(n):
        r = _mul(r, t, p)
    return r


def _is_unit(t, p) -> bool:
    """Over GF(p) every nonzero constant is a unit, over the integers only +-1."""
    return t.keys() == {_ZERO_EXP} and (bool(p) or abs(t[_ZERO_EXP]) == 1)


def _scale_of(polys) -> int:
    """Common denominator of the coefficients of polys (1 over GF(p))."""
    if polys[0].field.characteristic:
        return 1
    return lcm(*(c.denominator for f in polys for c in f.terms.values()))


def _ints(poly, scale=None):
    """Coefficients of poly as plain ints: a copy of the residues over GF(p),
    and over QQ the coefficients times scale (by default their common
    denominator), which must clear every denominator. Reads only .terms and
    .field, so BiHomPoly works too."""
    if poly.field.characteristic:
        return dict(poly.terms)
    if scale is None:
        scale = _scale_of([poly])
    return {e: c.numerator * (scale // c.denominator) for e, c in poly.terms.items()}


def _monic(t, field) -> TPoly:
    """The TPoly of an int-kernel result (zeros allowed), made monic."""
    lc = t[max(filter(t.get, t), key=lead_key)]
    if field.characteristic:
        p = field.p
        inv = pow(lc, -1, p)
        return TPoly({e: c * inv for e, c in t.items()}, field)
    return TPoly({e: Fraction(c, lc) for e, c in t.items()}, field)


def _monic_product(polys, field) -> TPoly:
    """The product of polys, made monic once, multiplied in the int kernel by
    Kronecker substitution in T3: the terms of a factor that share the key
    (e1, e2, e3 + e4) become one int whose w-bit slot j holds the coefficient
    of T3^j, so a pair of keys costs one int product. w holds every
    coefficient of the product: over the integers |c| <= prod ||f||_1, plus a
    sign bit, and the slots are read signed; over GF(p) the unreduced slots
    are at most prod len(f)*(p-1), and each is reduced once at the end."""
    p = field.characteristic
    fs = [_ints(f) for f in polys]
    if p:
        w = prod(len(f) * (p - 1) for f in fs).bit_length()
    else:
        w = prod(sum(map(abs, f.values())) for f in fs).bit_length() + 1
    acc = {(0, 0, 0): 1}
    for f in fs:
        packed = {}
        for (e1, e2, e3, e4), c in f.items():
            k = (e1, e2, e3 + e4)
            packed[k] = packed.get(k, 0) + (c << w * e3)
        out = {}
        for (a1, a2, a3), x in acc.items():
            for (b1, b2, b3), y in packed.items():
                k = (a1 + b1, a2 + b2, a3 + b3)
                out[k] = out.get(k, 0) + x * y
        acc = out
    mask, top = (1 << w) - 1, 1 << (w - 1)
    terms = {}
    for (e1, e2, s), x in acc.items():
        for j in range(s + 1):
            c = x & mask
            if p:
                x >>= w
                c %= p
            else:
                if c & top:
                    c -= 1 << w
                x = (x - c) >> w
            if c:
                terms[e1, e2, j, s - j] = c
    return _monic(terms, field)


def _div(a, b, p):
    """Exact quotient a/b in the int kernel; ExactDivisionError when b does
    not divide a, which over the integers includes a leading coefficient
    that does not divide.

    Every monomial is keyed by lead_key, (total degree,) + exponents, so the
    max of the remainder is its leading term in graded lex order and the key
    of a product is the sum of the keys. Each step removes the leading term,
    and every term it adds is smaller than the one removed, so the loop
    ends."""
    b_exp = max(b, key=lead_key)
    b_lc = b[b_exp]
    b_key = lead_key(b_exp)
    b_rest = [(lead_key(e), c) for e, c in b.items() if e != b_exp]
    inv = pow(b_lc, -1, p) if p else 0
    rem = {lead_key(e): c for e, c in a.items()}
    quot = {}
    while rem:
        k = max(rem)
        c = rem.pop(k)
        qk = (k[0] - b_key[0], k[1] - b_key[1], k[2] - b_key[2], k[3] - b_key[3], k[4] - b_key[4])
        if min(qk) < 0:
            raise ExactDivisionError("division is not exact")
        if p:
            qc = c * inv % p
        else:
            qc, r = divmod(c, b_lc)
            if r:
                raise ExactDivisionError("division is not exact")
        quot[qk[1:]] = qc
        for bk, bc in b_rest:
            tk = (qk[0] + bk[0], qk[1] + bk[1], qk[2] + bk[2], qk[3] + bk[3], qk[4] + bk[4])
            s = rem.get(tk, 0) - qc * bc
            if p:
                s %= p
            if s:
                rem[tk] = s
            else:
                rem.pop(tk, None)
    return quot


# ---------------------------------------------------------------------------
# multivariate gcd: recursive content/primitive-part splitting with a
# subresultant pseudo-remainder sequence (PRS) in the innermost (last)
# variable, exact over the integers and over GF(p)

def _deg_in(t, k: int) -> int:
    return max((e[k] for e in t), default=0)


def _coeffs_in(t, k: int):
    """The coefficients of t viewed as univariate in variable k."""
    coeffs = {}
    for e, c in t.items():
        coeffs.setdefault(e[k], {})[e[:k] + (0,) + e[k + 1:]] = c
    return list(coeffs.values())


def _shift(t, k: int, n: int):
    if n == 0:
        return t
    return {e[:k] + (e[k] + n,) + e[k + 1:]: c for e, c in t.items()}


def _lead_in(t, k: int):
    """(degree, leading coefficient) of t viewed in variable k."""
    d = _deg_in(t, k)
    return d, {e[:k] + (0,) + e[k + 1:]: c for e, c in t.items() if e[k] == d}


def _prem(f, g, k: int, p):
    """lc(g)^(deg f - deg g + 1)·f mod g in variable k: the pseudo-remainder."""
    dg, lg = _lead_in(g, k)
    r, n = f, _deg_in(f, k) - dg + 1
    while r:
        dr, lr = _lead_in(r, k)
        if dr < dg:
            break
        r = _sub(_mul(lg, r, p), _shift(_mul(lr, g, p), k, dr - dg), p)
        n -= 1
    return _mul(_power(lg, n, p), r, p)


def _content_pp(t, k: int, p):
    """(content, primitive part) of t viewed in variable k, up to a unit."""
    coeffs = _coeffs_in(t, k)
    c = coeffs[0]
    for x in coeffs[1:]:
        if _is_unit(c, p):
            break
        c = _gcd_rec(c, x, k - 1, p)
    return c, (t if _is_unit(c, p) else _div(t, c, p))


def _gcd_rec(a, b, k: int, p):
    """gcd of polynomials that only involve variables 0..k; result up to a
    unit: the gcd of the contents times the primitive part of the last
    nonzero remainder of the subresultant PRS (Knuth, TAOCP 4.6.1, Algorithm
    C) of the primitive parts. Its exact divisions by lc·h^delta stand in for
    the content of every remainder, a recursive gcd per coefficient that ran
    for minutes on integer inputs of a few terms and degree 4."""
    if not a:
        return b
    if not b:
        return a
    if len(a) == len(b) == 1:  # monomials; always constants once k < 0
        (ea, x), (eb, y) = *a.items(), *b.items()
        return {tuple(map(min, ea, eb)): 1 if p else gcd(x, y)}
    ca, f = _content_pp(a, k, p)
    cb, g = _content_pp(b, k, p)
    if _deg_in(f, k) < _deg_in(g, k):
        f, g = g, f
    lc, h = {_ZERO_EXP: 1}, {_ZERO_EXP: 1}
    while _deg_in(g, k) and (r := _prem(f, g, k, p)):
        delta = _deg_in(f, k) - _deg_in(g, k)
        f, g = g, _div(r, _mul(lc, _power(h, delta, p), p), p)
        lc = _lead_in(f, k)[1]
        h = _div(_power(lc, delta, p), _power(h, delta - 1, p), p) if delta else h
    return _mul(_gcd_rec(ca, cb, k - 1, p), _content_pp(g, k, p)[1], p)


def _monomial_part(t):
    """Componentwise minimum exponent vector and t with it divided out."""
    mins = tuple(min(e[i] for e in t) for i in range(4))
    if not any(mins):
        return mins, t
    return mins, {tuple(x - m for x, m in zip(e, mins)): c for e, c in t.items()}


def _is_homogeneous(t) -> bool:
    return len({sum(e) for e in t}) <= 1


def _dehomogenize_last(t, p):
    return _expr.modp(_expr.collect(((e[0], e[1], e[2], 0), c) for e, c in t.items()), p)


def _rehomogenize_last(t):
    n = max(map(sum, t))
    return {(e[0], e[1], e[2], n - sum(e)): c for e, c in t.items()}


def _permuted(t, order):
    return {tuple(e[k] for k in order): c for e, c in t.items()}


def _gcd(a, b, p):
    """A gcd of int-kernel polynomials, not both zero; up to a unit."""
    if not a:
        return b
    if not b:
        return a
    ma, ra = _monomial_part(a)
    mb, rb = _monomial_part(b)
    mg = {tuple(min(x, y) for x, y in zip(ma, mb)): 1}
    if ra.keys() == {_ZERO_EXP} or rb.keys() == {_ZERO_EXP}:
        return mg
    homogeneous = _is_homogeneous(ra) and _is_homogeneous(rb) and (_deg_in(ra, 3) or _deg_in(rb, 3))
    if homogeneous:  # no variable divides both: the gcd commutes with dehomogenizing v
        ra, rb = _dehomogenize_last(ra, p), _dehomogenize_last(rb, p)
    # the PRS runs in the variable of least degree (the lower of its degrees
    # in a and b, then the higher), the contents in the others
    n = 3 if homogeneous else 4
    order = sorted(range(n), key=lambda k: sorted((_deg_in(ra, k), _deg_in(rb, k))), reverse=True)
    order += [3] * (4 - n)
    ra, rb = _permuted(ra, order), _permuted(rb, order)
    # the PRS starts at the last variable that either input involves
    top = next(k for k in reversed(range(n)) if any(e[k] for e in chain(ra, rb)))
    core = _permuted(_gcd_rec(ra, rb, top, p), [order.index(k) for k in range(4)])
    return _mul(mg, _rehomogenize_last(core) if homogeneous else core, p)

