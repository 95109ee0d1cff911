"""Multivariate polynomials in four variables over an exact field.

Two rings share the implementation: the image-space ring in T1..T4 (where
implicit equations live) and the parameter ring in s,u,t,v. Provides ring
arithmetic, exact division, a subresultant-PRS multivariate gcd, fraction-free
determinants of polynomial matrices, and evaluation.
"""

from __future__ import annotations

from . import _expr
from ._expr import lead_key
from .fields import QQ

RING_VARS = {
    "T": ("T1", "T2", "T3", "T4"),
    "P": ("s", "u", "t", "v"),
}

_ZERO_EXP = (0, 0, 0, 0)
_UNIT_EXPS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial division leaves a remainder."""


class TPoly:
    """Polynomial in four variables; terms map exponent quadruples to coefficients."""

    __slots__ = ("terms", "field", "ring")

    def __init__(self, terms, field=QQ, ring="T"):
        if ring not in RING_VARS:
            raise ValueError(f"unknown ring tag {ring!r}")
        for exp in terms:
            if len(exp) != 4 or min(exp) < 0:
                raise ValueError(f"bad exponent quadruple {exp!r}")
        self.terms = {e: c for e, c in terms.items() if c}
        self.field = field
        self.ring = ring

    @classmethod
    def zero(cls, field=QQ, ring="T"):
        return cls({}, field, ring)

    @classmethod
    def constant(cls, c, field=QQ, ring="T"):
        return cls({_ZERO_EXP: field.coerce(c)}, field, ring)

    @classmethod
    def monomial(cls, exp, c, field=QQ, ring="T"):
        return cls({tuple(exp): field.coerce(c)}, field, ring)

    def _check(self, other):
        if self.ring != other.ring:
            raise ValueError(f"mixed rings {self.ring!r} and {other.ring!r}")
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == _ZERO_EXP for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.field.zero
        return self.terms[_ZERO_EXP]

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __add__(self, other):
        self._check(other)
        return TPoly(_expr.add(self.terms, other.terms), self.field, self.ring)

    def __sub__(self, other):
        self._check(other)
        return TPoly(_expr.sub(self.terms, other.terms), self.field, self.ring)

    def __neg__(self):
        return TPoly(_expr.neg(self.terms), self.field, self.ring)

    def __mul__(self, other):
        self._check(other)
        return TPoly(_expr.mul(self.terms, other.terms), self.field, self.ring)

    def scale(self, c):
        return TPoly(_expr.scale(self.terms, self.field.coerce(c)), self.field, self.ring)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = TPoly.constant(self.field.one, self.field, self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def leading(self):
        """The (exponent, coefficient) pair that is largest in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=lead_key)
        return e, self.terms[e]

    def monic(self):
        if not self.terms:
            return self
        _, lc = self.leading()
        if lc == self.field.one:
            return self
        inv = self.field.one / lc
        return self.scale(inv)

    def eval(self, point):
        """Value at a 4-tuple of field elements."""
        return _expr.evaluate(self.terms, point, self.field)

    def __str__(self):
        return _expr.format_terms(self.terms, RING_VARS[self.ring])

    def __repr__(self):
        return f"TPoly({self})"

    def __eq__(self, other):
        return (
            isinstance(other, TPoly)
            and self.ring == other.ring
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))


def parse_tpoly(text: str, field=QQ, ring: str = "T") -> TPoly:
    """Parse a polynomial in the shared text format; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0]
        if body.strip():
            lines.append(body)
    raw_terms = _expr.parse_expression(" ".join(lines) if lines else "0", RING_VARS[ring])
    return TPoly({e: field.coerce(c) for e, c in raw_terms.items()}, field, ring)


def exact_div(a: TPoly, b: TPoly) -> TPoly:
    """Quotient q with q*b == a; raises ExactDivisionError if b does not divide a."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return TPoly.zero(a.field, a.ring)
    b_exp, b_lc = b.leading()
    b_items = list(b.terms.items())
    rem = dict(a.terms)
    quot = {}
    while rem:
        e = max(rem, key=lead_key)
        c = rem[e]
        qe = (e[0] - b_exp[0], e[1] - b_exp[1], e[2] - b_exp[2], e[3] - b_exp[3])
        if any(x < 0 for x in qe):
            raise ExactDivisionError("division is not exact")
        qc = c / b_lc
        quot[qe] = qc  # leading terms strictly decrease, so qe is new
        for be, bc in b_items:
            te = (qe[0] + be[0], qe[1] + be[1], qe[2] + be[2], qe[3] + be[3])
            s = rem.get(te, a.field.zero) - qc * bc
            if s:
                rem[te] = s
            elif te in rem:
                del rem[te]
    return TPoly(quot, a.field, a.ring)


def divides(b: TPoly, a: TPoly) -> bool:
    try:
        exact_div(a, b)
        return True
    except ExactDivisionError:
        return False


# ---------------------------------------------------------------------------
# multivariate gcd: recursive content/primitive-part splitting with a
# subresultant pseudo-remainder sequence in the innermost (last) variable

def _deg_in(p: TPoly, k: int) -> int:
    if not p.terms:
        return 0
    return max(e[k] for e in p.terms)

def _univar(p: TPoly, k: int):
    """View p as univariate in variable k: {power: coefficient TPoly}."""
    coeffs = {}
    for e, c in p.terms.items():
        rest = list(e)
        deg = rest[k]
        rest[k] = 0
        coeffs.setdefault(deg, {})[tuple(rest)] = c
    return {
        d: TPoly(bucket, p.field, p.ring) for d, bucket in coeffs.items()
    }


def _shift(p: TPoly, k: int, n: int) -> TPoly:
    if n == 0 or p.is_zero():
        return p
    out = {}
    for e, c in p.terms.items():
        t = list(e)
        t[k] += n
        out[tuple(t)] = c
    return TPoly(out, p.field, p.ring)


def _lead_in(p: TPoly, k: int):
    """(degree, leading coefficient poly) of p viewed in variable k."""
    d = _deg_in(p, k)
    bucket = {}
    for e, c in p.terms.items():
        if e[k] == d:
            t = list(e)
            t[k] = 0
            bucket[tuple(t)] = c
    return d, TPoly(bucket, p.field, p.ring)


def _prem(f: TPoly, g: TPoly, k: int) -> TPoly:
    """Pseudo-remainder of f by g in variable k: lc(g)^(df-dg+1)*f mod g."""
    dg, lg = _lead_in(g, k)
    df = _deg_in(f, k)
    e = df - dg + 1
    r = f
    while not r.is_zero():
        dr, lr = _lead_in(r, k)
        if dr < dg:
            break
        r = lg * r - _shift(lr * g, k, dr - dg)
        e -= 1
    if e > 0:
        r = (lg ** e) * r
    return r


def _content_in(p: TPoly, k: int) -> TPoly:
    coeffs = list(_univar(p, k).values())
    acc = coeffs[0]
    for c in coeffs[1:]:
        if acc.is_constant():
            break
        acc = _gcd_rec(acc, c, k - 1)
    return acc


def _gcd_rec(a: TPoly, b: TPoly, k: int) -> TPoly:
    """gcd of polynomials that only involve variables 0..k; result up to a unit."""
    one = TPoly.constant(a.field.one, a.field, a.ring)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if k < 0:
        return one
    da, db = _deg_in(a, k), _deg_in(b, k)
    if da == 0 and db == 0:
        return _gcd_rec(a, b, k - 1)
    if da == 0:
        return _gcd_rec(a, _content_in(b, k), k - 1)
    if db == 0:
        return _gcd_rec(_content_in(a, k), b, k - 1)
    ca = _content_in(a, k)
    cb = _content_in(b, k)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    cg = _gcd_rec(ca, cb, k - 1)
    if _deg_in(pa, k) < _deg_in(pb, k):
        pa, pb = pb, pa
    # subresultant pseudo-remainder sequence on the primitive parts
    f, g = pa, pb
    delta = _deg_in(f, k) - _deg_in(g, k)
    minus_one = TPoly.constant(-1, a.field, a.ring)
    beta = minus_one ** (delta + 1)
    psi = minus_one
    while True:
        r = _prem(f, g, k)
        if r.is_zero():
            break
        r = exact_div(r, beta)
        _, lf = _lead_in(g, k)
        neg_lc = -lf
        if delta >= 1:
            psi = exact_div(neg_lc ** delta, psi ** (delta - 1))
        # delta == 0 keeps psi unchanged
        delta = _deg_in(g, k) - _deg_in(r, k)
        beta = neg_lc * (psi ** delta)
        f, g = g, r
    if _deg_in(g, k) == 0:
        return cg
    pp = exact_div(g, _content_in(g, k))
    return cg * pp


def _monomial_part(p: TPoly):
    """Componentwise minimum exponent vector and the poly with it divided out."""
    mins = tuple(min(e[i] for e in p.terms) for i in range(4))
    if not any(mins):
        return mins, p
    out = {tuple(x - m for x, m in zip(e, mins)): c for e, c in p.terms.items()}
    return mins, TPoly(out, p.field, p.ring)


def _dehomogenize_last(p: TPoly) -> TPoly:
    terms = _expr.collect(((e[0], e[1], e[2], 0), c) for e, c in p.terms.items())
    return TPoly(terms, p.field, p.ring)


def _rehomogenize_last(p: TPoly) -> TPoly:
    n = p.total_degree()
    out = {(e[0], e[1], e[2], n - sum(e)): c for e, c in p.terms.items()}
    return TPoly(out, p.field, p.ring)


def mvgcd(a: TPoly, b: TPoly) -> TPoly:
    """A gcd of a and b, canonicalized to leading coefficient 1."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    ma, ra = _monomial_part(a)
    mb, rb = _monomial_part(b)
    mg = tuple(min(x, y) for x, y in zip(ma, mb))
    if ra.is_constant() or rb.is_constant():
        g = TPoly.monomial(mg, a.field.one, a.field, a.ring)
        return g.monic()
    if ra.is_homogeneous() and rb.is_homogeneous() and (_deg_in(ra, 3) or _deg_in(rb, 3)):
        # homogeneous inputs: gcd commutes with dehomogenizing the last
        # variable once no variable divides both, which drops the PRS one
        # variable down
        core = _rehomogenize_last(_gcd_rec(_dehomogenize_last(ra), _dehomogenize_last(rb), 2))
    else:
        core = _gcd_rec(ra, rb, 3)
    g = TPoly.monomial(mg, a.field.one, a.field, a.ring) * core
    return g.monic()


# ---------------------------------------------------------------------------
# determinants of polynomial matrices

def _det_expand(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    if n == 2:
        return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
    first = grid[0][0]
    acc = None
    for j in range(n):
        entry = grid[0][j]
        if entry.is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in grid[1:]]
        piece = entry * _det_expand(minor)
        if j % 2:
            piece = -piece
        acc = piece if acc is None else acc + piece
    if acc is None:
        return TPoly.zero(first.field, first.ring)
    return acc


def polydet(grid) -> TPoly:
    """Exact determinant of a square grid of TPoly entries.

    Uses cofactor expansion up to 4x4 and fraction-free Bareiss elimination
    (with exact polynomial division) above that.
    """
    n = len(grid)
    if n == 0:
        raise ValueError("empty matrix")
    for row in grid:
        if len(row) != n:
            raise ValueError("matrix is not square")
    field, ring = grid[0][0].field, grid[0][0].ring
    if n <= 4:
        return _det_expand(grid)
    m = [list(row) for row in grid]
    one = TPoly.constant(field.one, field, ring)
    prev = one
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return TPoly.zero(field, ring)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = pivot * row_i[j] - lead * m[k][j]
                row_i[j] = num if prev is one else exact_div(num, prev)
            row_i[k] = TPoly.zero(field, ring)
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


class LinearForm:
    """c1*T1 + c2*T2 + c3*T3 + c4*T4 with exact field coefficients."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field=QQ):
        coeffs = tuple(field.coerce(c) for c in coeffs)
        if len(coeffs) != 4:
            raise ValueError("a linear form needs exactly four coefficients")
        self.coeffs = coeffs
        self.field = field

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_tpoly(self) -> TPoly:
        return TPoly(dict(zip(_UNIT_EXPS, self.coeffs)), self.field, "T")

    def eval(self, point):
        acc = self.field.zero
        for c, x in zip(self.coeffs, point):
            if c:
                acc = acc + c * x
        return acc

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __str__(self):
        return str(self.to_tpoly())

    def __repr__(self):
        return f"LinearForm({self})"
