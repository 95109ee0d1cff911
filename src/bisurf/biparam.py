"""Bi-homogeneous parametrizations of surfaces: parsing, validation, lifting.

Input files describe four polynomials f1..f4 in the parameter variables
s,u,t,v, each bi-homogeneous of a declared bidegree (d1,d2) in the pairs
(s,u) and (t,v). Affine input (s,t only) is accepted and homogenized with
u,v powers up to the declared bidegree.
"""

from __future__ import annotations

from math import lcm

from . import _expr, tpoly
from ._expr import ParseError
from .fields import QQ, PrimeField

PARAM_VARS = ("s", "u", "t", "v")


class InputError(ValueError):
    """Semantic problem with a parametrization (bad bidegree, all-zero input, ...)."""


class BiHomPoly:
    """Polynomial in s,u,t,v, bi-homogeneous of a fixed bidegree (d1,d2).

    Terms map exponent quadruples (s,u,t,v) to nonzero field elements; every
    stored quadruple satisfies s+u == d1 and t+v == d2.
    """

    __slots__ = ("bidegree", "terms", "field")

    def __init__(self, bidegree, terms, field=QQ):
        d1, d2 = bidegree
        if d1 < 0 or d2 < 0:
            raise InputError(f"negative bidegree {bidegree!r}")
        for a, b, cc, e in terms:
            if min(a, b, cc, e) < 0 or a + b != d1 or cc + e != d2:
                raise InputError(
                    f"term {(a, b, cc, e)!r} violates bidegree ({d1},{d2})"
                )
        self.bidegree = (d1, d2)
        p = field.characteristic
        self.terms = _expr.modp(terms, p) if p else {e: c for e, c in terms.items() if c}
        self.field = field

    def is_zero(self) -> bool:
        return not self.terms

    def substitute_powers(self, k1: int, k2: int) -> "BiHomPoly":
        """Replace s,u by their k1-th powers and t,v by their k2-th powers."""
        if k1 < 1 or k2 < 1:
            raise InputError("substitution powers must be positive")
        bid = (self.bidegree[0] * k1, self.bidegree[1] * k2)
        out = {
            (e[0] * k1, e[1] * k1, e[2] * k2, e[3] * k2): c
            for e, c in self.terms.items()
        }
        return BiHomPoly(bid, out, self.field)

    def __str__(self):
        return _expr.format_terms(self.terms, PARAM_VARS)

    def __repr__(self):
        return f"BiHomPoly({self})"

    def __eq__(self, other):
        return (
            isinstance(other, BiHomPoly)
            and self.bidegree == other.bidegree
            and self.field == other.field
            and self.terms == other.terms
        )


class Parametrization:
    """Four bi-homogeneous polynomials of one shared bidegree, not all zero."""

    __slots__ = ("fs", "bidegree", "field")

    def __init__(self, fs):
        fs = tuple(fs)
        if len(fs) != 4:
            raise InputError("a parametrization needs exactly four polynomials")
        bid = fs[0].bidegree
        field = fs[0].field
        for f in fs[1:]:
            if f.bidegree != bid:
                raise InputError(
                    f"coordinate bidegrees differ: {f.bidegree} vs {bid}"
                )
            if f.field != field:
                raise InputError("coordinate fields differ")
        if all(f.is_zero() for f in fs):
            raise InputError("all four coordinate polynomials are zero")
        self.fs = fs
        self.bidegree = bid
        self.field = field

    def to_text(self) -> str:
        lines = [f"degree: {self.bidegree[0]} {self.bidegree[1]}"]
        if self.field == QQ:
            lines.append("field: QQ")
        else:
            lines.append(f"field: GF {self.field.p}")
        for k, f in enumerate(self.fs, 1):
            lines.append(f"f{k}: {f}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        fs = ", ".join(str(f) for f in self.fs)
        return f"Parametrization({self.bidegree}; {fs})"

    def __eq__(self, other):
        return (
            isinstance(other, Parametrization)
            and self.bidegree == other.bidegree
            and self.field == other.field
            and self.fs == other.fs
        )


def _bi_homogenize(raw: dict, bidegree, field, which: str) -> BiHomPoly:
    """Pad parsed terms with u,v powers up to the declared bidegree."""
    d1, d2 = bidegree
    for a, b, c, e in raw:
        if a + b > d1 or c + e > d2:
            raise InputError(
                f"{which}: term of bidegree ({a + b},{c + e}) exceeds declared ({d1},{d2})"
            )
    padded = _expr.collect(
        ((a, d1 - a, c, d2 - c), field.coerce(coeff)) for (a, _, c, _), coeff in raw.items()
    )
    return BiHomPoly(bidegree, padded, field)


def parse_parametrization(text: str, field_override=None) -> Parametrization:
    """Parse an input file; see the package README for the format."""
    degree = None
    field_decl = None
    f_lines: dict[int, tuple[int, int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if ":" not in body:
            raise ParseError(f"expected 'key: value', found {body.strip()!r}", line_no)
        key, _, rest = body.partition(":")
        key = key.strip()
        col_base = len(body) - len(rest)
        if key == "degree":
            parts = rest.split()
            if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
                raise ParseError("degree header needs two integers", line_no)
            degree = (int(parts[0]), int(parts[1]))
            if degree[0] < 0 or degree[1] < 0:
                raise ParseError("bidegree components must be non-negative", line_no)
        elif key == "field":
            parts = rest.split()
            if parts == ["QQ"]:
                field_decl = QQ
            elif len(parts) == 2 and parts[0] == "GF" and parts[1].isdigit():
                field_decl = PrimeField(int(parts[1]))
            else:
                raise ParseError("field header must be 'QQ' or 'GF <p>'", line_no)
        elif key in ("f1", "f2", "f3", "f4"):
            idx = int(key[1])
            if idx in f_lines:
                raise ParseError(f"duplicate {key} line", line_no)
            f_lines[idx] = (line_no, col_base, rest)
        else:
            raise ParseError(f"unknown header {key!r}", line_no)
    if degree is None:
        raise ParseError("missing 'degree:' header")
    missing = [k for k in (1, 2, 3, 4) if k not in f_lines]
    if missing:
        raise ParseError(f"missing polynomial line(s): {', '.join(f'f{k}' for k in missing)}")
    field = field_override or field_decl or QQ
    fs = []
    for k in (1, 2, 3, 4):
        line_no, col_base, src = f_lines[k]
        raw = _expr.parse_expression(src, PARAM_VARS, line_no, col_base)
        fs.append(_bi_homogenize(raw, degree, field, f"f{k}"))
    return Parametrization(fs)


def gcd_of_inputs(P: Parametrization) -> BiHomPoly:
    """gcd(f1,f2,f3,f4) up to a scalar; a non-constant value means the base
    locus is not finite and the downstream guarantees do not apply. The
    result is monic; the gcd runs in tpoly's int kernel."""
    p = P.field.characteristic
    acc = None
    for f in P.fs:
        if f.is_zero():
            continue
        acc = tpoly._ints(f) if acc is None else tpoly._gcd(acc, tpoly._ints(f), p)
        if acc.keys() == {(0, 0, 0, 0)}:
            break
    e = next(iter(acc))
    return BiHomPoly((e[0] + e[1], e[2] + e[3]), tpoly._monic(acc, P.field).terms, P.field)


def lift_mixed(P: Parametrization) -> Parametrization:
    """Substitute power maps so a bidegree (d1,d2) input becomes (L,L), L = lcm(d1,d2).

    Inputs that already have equal bidegree are returned unchanged. The
    implicit equation of the lifted parametrization gains an extra power
    lcm(d1,d2)/gcd(d1,d2) in the downstream determinant.
    """
    d1, d2 = P.bidegree
    if d1 < 1 or d2 < 1:
        raise InputError("lifting needs both bidegree components positive")
    if d1 == d2:
        return P
    big = lcm(d1, d2)
    k1, k2 = big // d1, big // d2
    return Parametrization([f.substitute_powers(k1, k2) for f in P.fs])
