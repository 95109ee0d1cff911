"""Representation matrix of the surface and everything computed from it.

The matrix M has one row per degree-nu monomial of the quotient ring and one
column per linear syzygy; its entries are linear forms in T1..T4. Its rank
drops exactly on the surface (for isolated, locally complete intersection
base points), the gcd of its maximal minors is the strand determinant, and an
independent oracle, the exact kernel of F -> F(f1..f4), recovers the
irreducible implicit equation for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, isqrt, lcm
from random import Random

from . import _expr
from .biparam import Parametrization, lift_mixed
from .exactla import int_nullspace, int_rank
from .fields import is_prime
from .segre import basis
from .tpoly import (
    ExactDivisionError,
    LinearForm,
    TPoly,
    _ints,
    _monic_product,
    _scale_of,
    exact_div,
    mvgcd,
    polydet,
)
from .zcomplex import SegreIdeal, StrandError, linear_syzygies, working_strand


class RankDeficientError(RuntimeError):
    """Every maximal minor vanishes: the hypotheses of the method fail
    (for example the base locus is not finite)."""


class InterpolationError(RuntimeError):
    """The oracle found no single equation within the degree bound: none
    exists, the image is not a surface, or the kernel did not lift."""


class RepMatrix:
    """k x m matrix of linear forms; k = (nu+1)^2 rows over the degree-nu
    monomial basis, one column per syzygy."""

    __slots__ = ("nu", "basis", "syzygies", "entries", "field", "_int_entries")

    def __init__(self, nu, row_basis, syzygies, field):
        self.nu = nu
        self.basis = row_basis
        self.syzygies = tuple(syzygies)
        self.field = field
        zero = field.zero
        rows = []
        for quad in row_basis:
            row = []
            for syz in self.syzygies:
                row.append(LinearForm([a.terms.get(quad, zero) for a in syz], field))
            rows.append(tuple(row))
        self.entries = tuple(rows)
        self._int_entries = None

    def int_entries(self):
        """The coefficients as 4-tuples of plain ints, built on first use:
        over QQ each column scaled by its syzygy's common denominator, over
        GF(p) the residues. Neither changes the rank at any point."""
        if self._int_entries is None:
            dens = [_scale_of(syz) for syz in self.syzygies]
            self._int_entries = tuple(
                tuple(
                    tuple(c.numerator * (den // c.denominator) for c in entry.coeffs)
                    for entry, den in zip(row, dens)
                )
                for row in self.entries
            )
        return self._int_entries

    @property
    def rows(self) -> int:
        return len(self.basis)

    @property
    def cols(self) -> int:
        return len(self.syzygies)

    def to_json_dict(self) -> dict:
        return {
            "nu": self.nu,
            "rows": self.rows,
            "cols": self.cols,
            "row_basis": self.basis.monomial_texts(),
            "entries": [
                [[str(c) for c in entry.coeffs] for entry in row]
                for row in self.entries
            ],
        }


def representation_matrix(I: SegreIdeal, nu: int) -> RepMatrix:
    """Assemble M from the canonical syzygy basis in degree nu."""
    return RepMatrix(nu, basis(nu), linear_syzygies(I, nu), I.field)


def membership(M: RepMatrix, point):
    """Exact rank of M at a projective point; the rank drops iff the point
    lies on the surface (under the locally-complete-intersection hypothesis).

    The point is scaled to ints by its common denominator, each entry is an
    int dot product with M's int coefficients, and `int_rank` ranks the
    result: over QQ a full rank mod SCREEN_PRIME certifies an OFF answer, and
    a lower one falls back to fraction-free elimination, so the rank of an ON
    answer is exact too.

    Returns (on_surface, rank)."""
    pt = [M.field.coerce(x) for x in point]
    if not any(pt):
        raise ValueError("(0,0,0,0) is not a projective point")
    den = lcm(*(x.denominator for x in pt))
    x1, x2, x3, x4 = (x.numerator * (den // x.denominator) for x in pt)
    rows = [[a * x1 + b * x2 + c * x3 + d * x4 for a, b, c, d in row] for row in M.int_entries()]
    r = int_rank(rows, M.cols, M.field.characteristic)
    return r < M.rows, r


# ---------------------------------------------------------------------------
# gcd of maximal minors

def _components(M: RepMatrix):
    """Connected components of the nonzero-entry bipartite graph.

    Any maximal minor that takes a number of columns different from the row
    count of some component vanishes, so the gcd of maximal minors is the
    product over components of the per-component gcds.
    """
    parent = list(range(M.rows + M.cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for i in range(M.rows):
        for j in range(M.cols):
            if not M.entries[i][j].is_zero():
                union(i, M.rows + j)
    groups: dict[int, tuple[list, list]] = {}
    for i in range(M.rows):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in range(M.cols):
        groups.setdefault(find(M.rows + j), ([], []))[1].append(j)
    comps = [
        (tuple(rows), tuple(cols)) for rows, cols in groups.values()
    ]
    comps.sort(key=lambda rc: rc[0][0] if rc[0] else M.rows + rc[1][0])
    return comps


# Cap on the minors drawn by one minors_gcd call.
_MAX_DRAWS = 2000


def _unrank(index: int, m: int, r: int):
    """The index-th r-subset of range(m) in lexicographic order."""
    out = []
    c = 0
    while r:
        count = comb(m - c - 1, r - 1)
        if index < count:
            out.append(c)
            r -= 1
        else:
            index -= count
        c += 1
    return out


def _block_gcds(sub, rng: Random):
    """The running gcd of the maximal minors of one block, yielded once per
    minor drawn; the column subsets come without replacement in seeded random
    order, so the stream ends once every subset has been drawn."""
    r, m = len(sub), len(sub[0])
    total = comb(m, r)
    g = TPoly.zero(sub[0][0].field)
    for index in rng.sample(range(total), min(total, _MAX_DRAWS)):
        det = polydet([[row[c] for c in _unrank(index, m, r)] for row in sub])
        if not det.is_zero():
            g = det.monic() if g.is_zero() else mvgcd(g, det)
        yield g


def minors_gcd(M: RepMatrix, degree: int, rng: Random | None = None) -> TPoly:
    """gcd D of the k x k minors of M, canonicalized to leading coefficient 1,
    checked against the strand's expected degree.

    Maximal minors factor across the connected blocks of M's support graph,
    so D is the product of per-block gcds. Each block folds minors drawn
    without replacement in seeded random order, the blocks taking turns. The
    gcd of any set of minors is a multiple of the block's D, so the loop
    stops, certified, as soon as the block degrees sum to `degree`. It also
    stops when every block is exhausted (exact) or constant, or after
    _MAX_DRAWS minors. Raises StrandError unless deg D = `degree`: a sum
    below it is certified, and a sum above it at the cap is an upper bound.
    The stop trusts `degree`: given one above deg D, the loop returns the
    first gcd that reaches it.
    """
    if M.cols < M.rows:
        raise RankDeficientError(
            f"matrix has more rows ({M.rows}) than columns ({M.cols})"
        )
    rng = rng or Random(0)
    streams = []
    for rows, cols in _components(M):
        if not rows:
            continue
        if len(cols) < len(rows):
            raise RankDeficientError(
                "a block has fewer columns than rows; every maximal minor vanishes"
            )
        sub = [[M.entries[i][j].as_tpoly() for j in cols] for i in rows]
        streams.append(_block_gcds(sub, rng))
    gcds = [TPoly.zero(M.field)] * len(streams)
    live = list(range(len(streams)))
    draws = 0

    def settled():
        if any(g.is_zero() for g in gcds):
            return False
        return sum(g.total_degree() for g in gcds) <= degree

    while live and draws < _MAX_DRAWS and not settled():
        b = live.pop(0)
        g = next(streams[b], None)
        if g is None:
            continue
        draws += 1
        gcds[b] = g
        if g.is_zero() or not g.is_constant():
            live.append(b)
    if any(g.is_zero() for g in gcds):
        raise RankDeficientError(
            "every drawn maximal minor of a block vanishes; hypotheses "
            "violated (non-finite base locus or rank-deficient matrix)"
        )
    D = _monic_product(gcds, M.field)
    found = D.total_degree()
    if found == degree:
        return D
    if not live:
        claim = f"the minors gcd has degree {found}"
    elif found < degree:
        claim = f"the minors gcd has degree at most {found}"
    else:
        claim = (
            f"the gcd of {draws} sampled maximal minors has degree {found} "
            "(an upper bound on deg D)"
        )
    raise StrandError(f"{claim}, but the strand at nu={M.nu} expects {degree}")


# ---------------------------------------------------------------------------
# independent oracle for the irreducible implicit equation

def _degree_monomials(deg: int):
    out = []
    for e1 in range(deg, -1, -1):
        for e2 in range(deg - e1, -1, -1):
            for e3 in range(deg - e1 - e2, -1, -1):
                out.append((e1, e2, e3, deg - e1 - e2 - e3))
    return out


@cache
def _lift_primes():
    """The 64 largest primes below 2^62, in descending order; found on first
    use, so importing the package stays cheap."""
    out = []
    n = (1 << 62) - 1
    while len(out) < 64:
        if is_prime(n):
            out.append(n)
        n -= 2
    return tuple(out)


def _integer_coordinates(P: Parametrization):
    """Term dicts of f1..f4 with plain int coefficients: residues in [0, p)
    over GF(p); over QQ all four scaled by one common denominator, which
    leaves the image, hence the implicit equation, unchanged."""
    den = _scale_of(P.fs)
    return [_ints(f, den) for f in P.fs]


def _next_layer(layer, fs, deg, p):
    """The expansions of f^e for every degree-deg monomial e, each one
    product of a degree-(deg-1) expansion with one coordinate."""
    out = {}
    for e in _degree_monomials(deg):
        k = next(i for i in range(4) if e[i])
        prev = e[:k] + (e[k] - 1,) + e[k + 1:]
        out[e] = _expr.modp(_expr.mul(layer[prev], fs[k]), p)
    return out


def _substitution_rows(layer, monos):
    """Matrix of F -> F(f1..f4) in one degree: one row per (s,u,t,v)
    monomial, one column per monomial of F."""
    index = {}
    rows = []
    for j, e in enumerate(monos):
        for m, c in layer[e].items():
            i = index.get(m)
            if i is None:
                i = index[m] = len(rows)
                rows.append([0] * len(monos))
            rows[i][j] = c
    return rows


def _kernel_mod(rows, cols, p):
    """(dimension, kernel vector) of the int matrix reduced mod p; the vector
    is given only for dimension 1, scaled so its first nonzero entry is 1."""
    kernel = int_nullspace([[x % p for x in row] for row in rows], cols, p)
    if len(kernel) != 1:
        return len(kernel), None
    vec = kernel[0]
    inv = pow(next(x for x in vec if x), -1, p)
    return 1, [x * inv % p for x in vec]


def _rational_reconstruction(u: int, m: int):
    """The fraction a/b = u mod m with |a|, |b| <= sqrt(m/2), or None (Wang)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _lifted_kernel(rows, monos, P: Parametrization):
    """The monic F spanning the kernel over QQ, from its images mod the lift
    primes; None when the kernel is zero. Primes whose kernel is larger, or
    whose leading entry lies further right, than the best seen are unlucky
    and skipped. Two equal successive lifts are certified by substitution."""
    best = None
    primes = _lift_primes()
    for p in primes:
        dim, vec = _kernel_mod(rows, len(monos), p)
        if dim == 0:
            return None
        key = (dim, vec.index(1) if vec else 0)
        if best is None or key < best:
            best, modulus, residues, previous = key, 1, [0] * len(monos), None
        if key != best or vec is None:
            continue
        step = pow(modulus, -1, p)
        residues = [a + modulus * ((b - a) * step % p) for a, b in zip(residues, vec)]
        modulus *= p
        lifted = [_rational_reconstruction(x, modulus) for x in residues]
        if None in lifted:
            continue
        if lifted == previous:
            candidate = TPoly(dict(zip(monos, lifted)), P.field)
            if verify_substitution(candidate, P):
                return candidate
        previous = lifted
    raise InterpolationError(
        f"the kernel in degree {sum(monos[0])} did not lift "
        f"over {len(primes)} primes (smallest dimension seen: {best[0]})"
    )


def implicit_by_interpolation(P: Parametrization, max_degree: int) -> TPoly:
    """The lowest-degree homogeneous equation vanishing on the image.

    For deg = 1, 2, ... the routine forms the exact matrix of the linear map
    F -> F(f1..f4) on degree-deg forms (one column per monomial of F, the
    expansion of f^e built from the previous degree by one multiplication,
    one row per (s,u,t,v) monomial). Its kernel is the degree-deg part of the
    ideal of the image, so the first nonzero kernel is spanned by the
    implicit equation. Over GF(p) one elimination mod p finds it, and a kernel
    of dimension above 1 raises InterpolationError (the image mod p is not a
    surface). Over QQ the kernel is computed modulo the fixed primes of
    _lift_primes() and lifted by CRT and rational reconstruction; any zero
    kernel mod p rejects the degree, which is sound because the kernel
    only grows mod p, and the lift is returned once two successive
    reconstructions agree and exact substitution certifies it. The result is
    monic in the canonical term order.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    p = P.field.characteristic
    fs = _integer_coordinates(P)
    layer = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}
    for deg in range(1, max_degree + 1):
        layer = _next_layer(layer, fs, deg, p)
        # descending graded lex, so monos[0] leads and a vector whose first
        # nonzero entry is 1 gives a monic polynomial
        monos = _degree_monomials(deg)
        rows = _substitution_rows(layer, monos)
        if not p:
            F = _lifted_kernel(rows, monos, P)
            if F is not None:
                return F
            continue
        dim, vec = _kernel_mod(rows, len(monos), p)
        if dim > 1:
            raise InterpolationError(
                f"the kernel of the substitution map in degree {deg} has "
                f"dimension {dim} over {P.field.name}: the image is not a surface"
            )
        if dim == 1:
            return TPoly(dict(zip(monos, vec)), P.field)
    raise InterpolationError(f"no equation of degree at most {max_degree}")


def verify_substitution(eq: TPoly, P: Parametrization) -> bool:
    """True iff eq(f1,f2,f3,f4) expands to the zero polynomial in s,u,t,v.

    The expansion runs on plain ints: eq times the common denominator of its
    coefficients, and the coordinates of _integer_coordinates. Over QQ those
    are scaled by one factor c, which multiplies the degree-k part of
    eq(f1..f4) by c^k; parts of different degrees land in different
    bidegrees, so the test holds for non-homogeneous eq as well."""
    p = P.field.characteristic
    fs = _integer_coordinates(P)
    memo = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}

    def product_for(exp):
        cached = memo.get(exp)
        if cached is not None:
            return cached
        k = next(i for i in range(4) if exp[i])
        prev = exp[:k] + (exp[k] - 1,) + exp[k + 1:]
        val = memo[exp] = _expr.modp(_expr.mul(product_for(prev), fs[k]), p)
        return val

    acc = {}
    for exp, c in sorted(_ints(eq).items(), key=lambda kv: sum(kv[0])):
        acc = _expr.add(acc, _expr.scale(product_for(exp), c))
    return not _expr.modp(acc, p)


def lci_diagnostic(D: TPoly, F: TPoly):
    """Split D as (constant) * F^power * residual by repeated exact division.

    Returns (power, residual, residual_is_constant). Under the validity
    hypotheses the power equals the degree of the parametrization onto its
    image, and a constant residual certifies that all base points are locally
    complete intersections.
    """
    if F.is_constant():
        raise ValueError("the implicit equation must be nonconstant")
    power = 0
    residual = D
    while True:
        try:
            residual = exact_div(residual, F)
        except ExactDivisionError:
            break
        power += 1
    if power == 0:
        raise ExactDivisionError(
            "the implicit equation does not divide the minors gcd; inconsistent pipeline state"
        )
    return power, residual, residual.is_constant()


@dataclass(frozen=True)
class EquationReport:
    """Results of one implicitization run."""

    nu: int
    matrix_rows: int
    matrix_cols: int
    minors_gcd_poly: TPoly
    implicit_poly: TPoly
    power: int
    residual: TPoly
    lci: bool
    substitution_ok: bool

    def as_dict(self):
        return {
            "nu": self.nu,
            "matrix_rows": self.matrix_rows,
            "matrix_cols": self.matrix_cols,
            "minors_gcd": str(self.minors_gcd_poly),
            "minors_gcd_degree": self.minors_gcd_poly.total_degree(),
            "implicit_equation": str(self.implicit_poly),
            "implicit_degree": self.implicit_poly.total_degree(),
            "power": self.power,
            "residual": str(self.residual),
            "base_points_lci": self.lci,
            "substitution_ok": self.substitution_ok,
        }


def equation_report(
    P: Parametrization,
    nu: int | None = None,
    saturate: bool = False,
    seed: int = 0,
) -> EquationReport:
    """Full pipeline: lift if needed, build M, extract the minors gcd of the
    strand's expected degree, and cross-check against the oracle's implicit
    equation."""
    I = SegreIdeal.from_parametrization(lift_mixed(P))
    nu, strand = working_strand(I, nu, saturate)
    M = representation_matrix(I, nu)
    D = minors_gcd(M, strand.expected_det_degree, Random(seed))
    F = implicit_by_interpolation(P, max(D.total_degree(), 1))
    power, residual, lci = lci_diagnostic(D, F)
    return EquationReport(nu, M.rows, M.cols, D, F, power, residual, lci, True)
