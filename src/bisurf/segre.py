"""The Segre coordinate ring A = K[X1..X4]/(X1*X4 - X2*X3), held as forms in s,u,t,v.

X1 = s*t, X2 = s*v, X3 = u*t, X4 = u*v identify the degree-n piece of A with
the bidegree (n,n) forms in s,u,t,v, and products with products, so the
package computes in A on BiHomPoly. This module names the X side: the
monomial rule below fixes the canonical order of the degree-n basis and the
text of its monomials.
"""

from __future__ import annotations

from functools import lru_cache

from . import _expr

SEGRE_VARS = ("X1", "X2", "X3", "X4")


def x_monomial(exp):
    """The normal-form X-monomial (no factor X1*X4) equal in A to the
    bidegree (n,n) monomial s^i u^(n-i) t^j v^(n-j).

    Returns the exponents of X1^(i+j-n+k) X2^(n-j-k) X3^(n-i-k) X4^k with
    k = max(0, n-i-j).
    """
    i, u, j, _ = exp
    n = i + u
    k = max(0, n - i - j)
    return (i + j - n + k, n - j - k, n - i - k, k)


class SegreBasis:
    """The (n+1)^2 bidegree (n,n) monomials, in canonical order."""

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
        """The basis as X-monomials."""
        return [_expr.monomial_text(x_monomial(q), SEGRE_VARS) or "1" for q in self.quads]


@lru_cache(maxsize=None)
def basis(n: int) -> SegreBasis:
    """Basis of the degree-n graded piece; canonical order is lexicographic on
    the (X1,X2,X3)-exponents of the X-monomials, descending."""
    if n < 0:
        raise ValueError("negative degree")
    quads = [(i, n - i, j, n - j) for i in range(n + 1) for j in range(n + 1)]
    quads.sort(key=lambda q: x_monomial(q)[:3], reverse=True)
    return SegreBasis(n, quads)
