"""Arithmetic in the Segre coordinate ring A = K[X1..X4]/(X1*X4 - X2*X3).

Elements are kept in normal form: no monomial divisible by X1*X4, obtained by
rewriting X1*X4 -> X2*X3 until the X1- or X4-exponent is exhausted. Degree-n
monomials in normal form biject with the bidegree (n,n) monomials in s,u,t,v,
and the transfer maps between the two sides move coefficients unchanged.
"""

from __future__ import annotations

from functools import lru_cache

from . import _expr
from .biparam import BiHomPoly, InputError
from .fields import QQ

SEGRE_VARS = ("X1", "X2", "X3", "X4")


def normal_quad(exp):
    """Rewrite X1^a*X2^b*X3^c*X4^e so that the X1 and X4 exponents cannot both be positive."""
    a, b, c, e = exp
    m = a if a < e else e
    if m:
        return (a - m, b + m, c + m, e - m)
    return exp


class SegreElem:
    """Homogeneous element of the quotient ring, stored in normal form."""

    __slots__ = ("degree", "terms", "field")

    def __init__(self, degree, terms, field=QQ):
        if degree < 0:
            raise ValueError("negative degree")
        for exp in terms:
            if min(exp) < 0 or sum(exp) != degree:
                raise ValueError(f"exponents {exp!r} are not of degree {degree}")
        self.degree = degree
        terms = _expr.collect(zip(map(normal_quad, terms), terms.values()))
        self.terms = _expr.modp(terms, field.characteristic)
        self.field = field

    @classmethod
    def zero(cls, degree, field=QQ):
        return cls(degree, {}, field)

    @classmethod
    def monomial(cls, exp, field=QQ, coeff=None):
        return cls(sum(exp), {tuple(exp): coeff if coeff is not None else field.one}, field)

    def _check(self, other, same_degree=True):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        if same_degree and self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        return SegreElem(self.degree, _expr.add(self.terms, other.terms), self.field)

    def __sub__(self, other):
        self._check(other)
        return SegreElem(self.degree, _expr.sub(self.terms, other.terms), self.field)

    def __neg__(self):
        return SegreElem(self.degree, _expr.neg(self.terms), self.field)

    def __mul__(self, other):
        """Product reduced to normal form (by the constructor); degrees add."""
        self._check(other, same_degree=False)
        return SegreElem(
            self.degree + other.degree, _expr.mul(self.terms, other.terms), self.field
        )

    def scale(self, c):
        terms = _expr.scale(self.terms, self.field.coerce(c))
        return SegreElem(self.degree, terms, self.field)

    def coefficient(self, quad):
        return self.terms.get(tuple(quad), self.field.zero)

    def __str__(self):
        return _expr.format_terms(self.terms, SEGRE_VARS)

    def __repr__(self):
        return f"SegreElem({self})"

    def __eq__(self, other):
        return (
            isinstance(other, SegreElem)
            and self.degree == other.degree
            and self.field == other.field
            and self.terms == other.terms
        )


class SegreBasis:
    """The (n+1)^2 normal-form monomials of degree n, in canonical order."""

    __slots__ = ("degree", "quads", "index")

    def __init__(self, degree, quads):
        self.degree = degree
        self.quads = tuple(quads)
        self.index = {q: i for i, q in enumerate(self.quads)}

    def __len__(self):
        return len(self.quads)

    def __iter__(self):
        return iter(self.quads)

    def __getitem__(self, i):
        return self.quads[i]

    def monomial_texts(self):
        return [_expr.monomial_text(q, SEGRE_VARS) or "1" for q in self.quads]


@lru_cache(maxsize=None)
def basis(n: int) -> SegreBasis:
    """Basis of the degree-n graded piece; canonical order is lexicographic on
    (X1,X2,X3)-exponents, descending."""
    if n < 0:
        raise ValueError("negative degree")
    quads = []
    for a in range(n, -1, -1):
        for b in range(n - a, -1, -1):
            for c in range(n - a - b, -1, -1):
                e = n - a - b - c
                if a and e:
                    continue
                quads.append((a, b, c, e))
    quads.sort(key=lambda q: q[:3], reverse=True)
    assert len(quads) == (n + 1) ** 2
    return SegreBasis(n, quads)


def to_segre(f: BiHomPoly) -> SegreElem:
    """Transfer a bidegree (n,n) polynomial to the quotient ring.

    Monomial rule: s^i u^(n-i) t^j v^(n-j) maps to
    X1^(i+j-n+k) X2^(n-j-k) X3^(n-i-k) X4^k with k = max(0, n-i-j);
    coefficients are carried unchanged. The image is already in normal form.
    """
    d1, d2 = f.bidegree
    if d1 != d2:
        raise InputError(f"bidegree components differ: ({d1},{d2})")
    n = d1
    out = {}
    for (i, _, j, _), c in f.terms.items():
        k = max(0, n - i - j)
        out[(i + j - n + k, n - j - k, n - i - k, k)] = c
    return SegreElem(n, out, f.field)


def to_biform(x: SegreElem) -> BiHomPoly:
    """Substitute X1->s*t, X2->s*v, X3->u*t, X4->u*v."""
    n = x.degree
    terms = _expr.collect(
        ((a + b, c + e, a + c, b + e), coeff) for (a, b, c, e), coeff in x.terms.items()
    )
    return BiHomPoly((n, n), terms, x.field)
