"""Representation matrix of the surface and everything computed from it.

The matrix M has one row per degree-nu monomial of the quotient ring and one
column per linear syzygy; its entries are linear forms in T1..T4. M is held
as the syzygy kernel vectors themselves, one per column, and one int table
of their coefficients with denominators cleared, which everything below
reads. Its rank drops exactly on the surface (for isolated, locally complete
intersection base points), and the gcd D of its maximal minors is the
strand determinant.
An independent oracle, the exact kernel of F -> F(f1..f4), lifted p-adically
from one prime below 2^30, finds the irreducible implicit equation F, which
divides D; D is then found from its
restrictions to random lines and split as a power of F times a residual.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import comb, gcd
from operator import mul
from random import Random

from . import _expr
from .biparam import Parametrization, lift_mixed
from .exactla import _cleared, _forward_int, _kernel_line, int_nullspace, int_rank
from .segre import basis
from .tpoly import (
    _UNIT_EXPS,
    ExactDivisionError,
    TPoly,
    _det,
    _div,
    _gcd,
    _ints,
    _monic,
    _monic_product,
    _mul,
    _pow,
    _scale_of,
)
from .zcomplex import SegreIdeal, StrandError, linear_syzygies, working_strand


class RankDeficientError(RuntimeError):
    """Every maximal minor vanishes: the hypotheses of the method fail
    (for example the base locus is not finite)."""


class InterpolationError(RuntimeError):
    """The oracle found no single equation within the degree bound: none
    exists, the image is not a surface, or the kernel did not lift."""


class _DegreeBoundError(InterpolationError):
    """No equation up to the degree bound."""


class RepMatrix:
    """k x m matrix of linear forms in T1..T4: k = (nu+1)^2 rows over the
    degree-nu monomial basis, one column per linear syzygy.

    syzygies holds the columns as `linear_syzygies` returns them, each the
    coefficients of a1..a4 on the row basis, so entry (i, j) has the
    coefficients syzygies[j][i::k] of T1..T4. ints holds the same entries as
    4-tuples of plain ints: over QQ each column times its common
    denominator, over GF(p) the residues. Neither changes the rank at any
    point."""

    __slots__ = ("nu", "basis", "syzygies", "ints", "field", "_blocks")

    def __init__(self, nu, row_basis, syzygies, field):
        self.nu = nu
        self.basis = row_basis
        self.syzygies = tuple(syzygies)
        self.field = field
        k = len(row_basis)
        columns = [_cleared(v) for v in self.syzygies]
        self.ints = tuple(tuple(tuple(col[i::k]) for col in columns) for i in range(k))
        self._blocks = None

    @property
    def rows(self) -> int:
        return len(self.basis)

    @property
    def cols(self) -> int:
        return len(self.syzygies)

    @property
    def entries(self):
        """The entries as linear TPolys, built on each read."""
        k = self.rows
        return tuple(tuple(TPoly(dict(zip(_UNIT_EXPS, v[i::k])), self.field) for v in self.syzygies)
                     for i in range(k))

    def to_json_dict(self) -> dict:
        k = self.rows
        return {
            "nu": self.nu,
            "rows": k,
            "cols": self.cols,
            "row_basis": self.basis.monomial_texts(),
            "entries": [[[str(c) for c in v[i::k]] for v in self.syzygies] for i in range(k)],
        }


def representation_matrix(I: SegreIdeal, nu: int) -> RepMatrix:
    """Assemble M from the canonical syzygy basis in degree nu."""
    return RepMatrix(nu, basis(nu), linear_syzygies(I, nu), I.field)


def membership(M: RepMatrix, point):
    """Exact rank of M at a projective point; the rank drops iff the point
    lies on the surface (under the locally-complete-intersection hypothesis).

    The point is scaled to ints by its common denominator, and M(pt) is
    ranked block by block (the connected blocks of `_components`; a block
    with fewer columns than rows is ranked too), each entry an int dot
    product with the block's cached int coefficients. Over GF(p) each block,
    reduced mod p as it is built, is ranked by `int_rank` in place. Over QQ
    `exactla._kernel_line` takes the left kernel of a k_b-row block, the
    kernel of its transpose, from one
    elimination modulo SCREEN_PRIME (the largest prime below 2^30):
    dimension 0 mod q certifies rank k_b; dimension 1 gives rank k_b - 1
    with a lifted vector v certified by v·M_b(pt) = 0, or rank k_b when the
    lift certifies the left kernel over QQ is zero. A larger kernel mod q (a
    singular point, or a point that is zero mod q) falls back to
    fraction-free forward elimination of that block, so every rank is exact
    without the RREF that `int_nullspace` would finish there.

    Returns (on_surface, rank)."""
    pt = [M.field.coerce(x) for x in point]
    if not any(pt):
        raise ValueError("(0,0,0,0) is not a projective point")
    x1, x2, x3, x4 = _cleared(pt)
    p, r = M.field.characteristic, 0
    for (rows, cols), table in zip(*_shapes(M)):
        if p:
            lines = [[(a * x1 + b * x2 + c * x3 + d * x4) % p for a, b, c, d in line]
                     for line in table]
            r += int_rank(lines, len(cols), p)
            continue
        lines = [[a * x1 + b * x2 + c * x3 + d * x4 for a, b, c, d in line] for line in table]
        _, kernel = _kernel_line(lines, len(rows))
        r += len(rows) - len(kernel) if kernel is not None else len(_forward_int(lines, len(rows)))
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

    for i, row in enumerate(M.ints):
        for j, entry in enumerate(row):
            if any(entry):
                parent[find(M.rows + j)] = find(i)
    groups: dict[int, tuple[list, list]] = {}
    for i in range(M.rows):
        groups.setdefault(find(i), ([], []))[0].append(i)
    for j in range(M.cols):
        groups.setdefault(find(M.rows + j), ([], []))[1].append(j)
    comps = [(tuple(rows), tuple(cols)) for rows, cols in groups.values()]
    return sorted(comps, key=lambda rc: rc[0][0] if rc[0] else M.rows + rc[1][0])


def _shapes(M: RepMatrix):
    """(blocks, tables), found once per M: the blocks of M with rows, and
    for each the int coefficient table that `membership` evaluates, the
    block's columns over QQ (the rows of its transpose) and its rows over
    GF(p)."""
    if M._blocks is None:
        ints = M.ints
        blocks = [(rows, cols) for rows, cols in _components(M) if rows]
        if M.field.characteristic:
            tables = [[[ints[i][j] for j in cols] for i in rows] for rows, cols in blocks]
        else:
            tables = [[[ints[i][j] for i in rows] for j in cols] for rows, cols in blocks]
        M._blocks = blocks, tables
    return M._blocks


def _blocks(M: RepMatrix):
    """The blocks of M with rows; RankDeficientError when one has fewer
    columns than rows, so that every maximal minor vanishes."""
    blocks = _shapes(M)[0]
    if any(len(cols) < len(rows) for rows, cols in blocks):
        raise RankDeficientError(f"M ({M.rows} x {M.cols}) has a block with fewer columns "
                                 f"than rows; its maximal minors vanish")
    return blocks


# Lines one minors_gcd call draws for its blocks, and again for each residual.
_MAX_LINES = 200

# Over GF(p) with p below this, a block whose gcd is not certified is not
# split: a plane has only p^2 + p + 1 points, and _Block.residual read a
# wrong power, or fit no residual, on some seeds over GF(3) and GF(5).
_MIN_SPLIT_PRIME = 7

# Binary forms are int-kernel dicts on the exponents (0, 0, i, j) of
# mu^i*lambda^j, so tpoly's gcd dehomogenizes lambda and runs univariate.
_MU, _LAMBDA = (0, 0, 1, 0), (0, 0, 0, 1)

_Line = namedtuple("_Line", "degree power quotient a b")


def _binary(x, y, p):
    return _expr.modp({e: c for e, c in ((_MU, x), (_LAMBDA, y)) if c}, p)


def _on_line(monos, a, b, p):
    """The binary form e(mu*a + lambda*b) of each exponent quadruple e."""
    top = max(map(max, monos))
    tables = [[_pow(_binary(x, y, p), k, p) for k in range(top + 1)] for x, y in zip(a, b)]
    out = []
    for e in monos:
        form = tables[0][e[0]]
        for table, k in zip(tables[1:], e[1:]):
            form = _mul(form, table[k], p) if k else form
        out.append(form)
    return out


class _Block:
    """One block's maximal minors on random lines x = mu*a + lambda*b, where
    it is the pencil mu*A + lambda*B. For a random m x k matrix R, det((mu*A
    + lambda*B)*R) is by Cauchy-Binet a combination of all maximal minors,
    so a multiple of D_b(mu*a + lambda*b) unless it vanishes; so is the gcd
    G of a few. Over GF(p) more are folded, as two random forms share a
    factor with probability about 1/p."""

    def __init__(self, M, block, F, rng):
        ints = M.ints
        self.entries = [[ints[i][j] for j in block[1]] for i in block[0]]
        self.field, self.p, self.rng = M.field, M.field.characteristic, rng
        self.pool = range(self.p) if self.p else range(-9, 10)
        self.monos, self.coeffs = zip(*_ints(F).items())
        self.combos = 2 + 14 // self.p.bit_length() if self.p else 2

    def draw(self, n):
        return self.rng.choices(self.pool, k=n)

    def split(self, a, b):
        """The _Line through a and b (deg G, the power of F in G, the
        quotient), or None when a, b span no line or F or G vanishes on it.
        F divides each combination first: gcd(f*q1, f*q2) = f*gcd(q1, q2)."""
        p = self.p
        wedge = [a[i] * b[j] - a[j] * b[i] for j in range(4) for i in range(j)]
        forms = zip(self.coeffs, _on_line(self.monos, a, b, p))
        f = _expr.modp(_expr.collect((e, c * x) for c, form in forms for e, x in form.items()), p)
        if not f or not any(x % p if p else x for x in wedge):
            return None
        content = 1 if p else gcd(*f.values())  # primitive over Z: integral quotients
        f = {e: c // content for e, c in f.items()}
        A, B = ([[sum(map(mul, e, x)) for e in row] for row in self.entries] for x in (a, b))
        g = {}
        for _ in range(self.combos):
            flat = self.draw(len(A) * len(A[0]))
            R = [flat[c::len(A)] for c in range(len(A))]  # the columns of R
            grid = [[_binary(sum(map(mul, ra, col)), sum(map(mul, rb, col)), p) for col in R]
                    for ra, rb in zip(A, B)]
            try:
                quotient = _div(_det(grid, p), f, p)
            except ExactDivisionError:
                raise ExactDivisionError("the implicit equation does not divide the minors "
                                         "gcd; inconsistent pipeline state") from None
            g = _gcd(g, quotient, p)
        if not g:
            return None
        degree, k = max(map(sum, f)) + max(map(sum, g)), 1
        try:
            while True:
                g = _div(g, f, p)
                k += 1
        except ExactDivisionError:
            return _Line(degree, k, g, a, b)

    def residual(self, line, deg_f):
        """(power, Q), D_b = c * F^power * Q of degree r, from C(r+2, 2) lines
        like `line` through a new point a, and at least two. F divides the
        quotient once more on a line where Q is a multiple of F, so the
        power is the least on `line` and these. The quotient on line j is
        c_j * Q(mu*a + lambda*b_j), whose mu^r coefficient is c_j * Q(a): r
        linear equations in Q. No nonzero form of degree r vanishes on
        C(r+2, 2) generic lines through a, so Q spans their kernel; if it
        does not, or Q(a) = 0, a is redrawn."""
        degree, power, a, lines = line.degree, line.power, self.draw(3) + [1], []
        for _ in range(_MAX_LINES):
            line = self.split(a, self.draw(4))
            if line and line.degree == degree and line.power <= power:
                if line.power < power:
                    power, lines = line.power, []
                r = degree - power * deg_f
                lines.append(line)
                if len(lines) >= max(2, comb(r + 2, 2)):
                    Q = self.fit(lines, r)
                    if Q is not None:
                        return power, Q
                    a, lines = self.draw(3) + [1], []
        raise StrandError(f"no residual of degree {degree - power * deg_f} fits {_MAX_LINES} "
                          f"lines; the strand's expected degree may be above deg D")

    def fit(self, lines, r):
        """The Q of degree r that is each line's quotient up to scale, or None."""
        p, monos, top, rows = self.p, _degree_monomials(r), (0, 0, r, 0), []
        for line in lines:
            q, forms = line.quotient, _on_line(monos, line.a, line.b, p)
            rows += [[q.get(top, 0) * x.get(key, 0) - q.get(key, 0) * x.get(top, 0) for x in forms]
                     for key in ((0, 0, r - i, i) for i in range(1, r + 1))]
        kernel = int_nullspace([[x % p for x in row] for row in rows] if p else rows, len(monos), p)
        return TPoly(dict(zip(monos, kernel[0])), self.field) if len(kernel) == 1 else None


def minors_gcd(M: RepMatrix, F: TPoly, degree: int, rng: Random | None = None):
    """(D, power, residual): the gcd D of the maximal minors of M, monic, as
    F^power * residual, with F the implicit equation.

    Maximal minors factor across M's connected blocks, and F divides each
    block's gcd D_b (at an image point, the degree-nu monomials at a
    preimage are a left-kernel vector of M). Each block keeps its lowest
    exact gcd G_b on a random line (see _Block), so deg G_b >= deg D_b.
    - deg G_b = deg F certifies D_b = c * F, with no probability.
    - Otherwise G_b = c * D_b on its line is trusted once the degrees sum to
      `degree`, the strand's expected degree, and split by _Block.residual.
    Blocks above deg F take turns drawing lines until then, at most
    _MAX_LINES. StrandError when the sum differs from `degree`: certified
    below it, an upper bound above it, and over GF(p) with p below
    _MIN_SPLIT_PRIME for any block not certified. RankDeficientError for a
    block with fewer columns than rows or a zero G_b on every line drawn."""
    if F.is_constant():
        raise ValueError("the implicit equation must be nonconstant")
    rng = rng or Random(0)
    blocks = [_Block(M, block, F, rng) for block in _blocks(M)]
    best = [None] * len(blocks)
    queue, drawn, deg_f = list(range(len(blocks))), 0, F.total_degree()
    while queue and drawn < _MAX_LINES and (None in best or sum(b.degree for b in best) > degree):
        i = queue.pop(0)
        drawn += 1
        line = blocks[i].split(blocks[i].draw(4), blocks[i].draw(4))
        if line and (best[i] is None or line.degree < best[i].degree):
            best[i] = line
        if best[i] is None or best[i].degree > deg_f:
            queue.append(i)
    if None in best:
        raise RankDeficientError("every maximal minor of a block vanished on the lines drawn; "
                                 "hypotheses violated (non-finite base locus or rank deficiency)")
    found = sum(line.degree for line in best)
    if found != degree:
        claim = (f"the minors gcd has degree {found}" if not queue else
                 f"the minors gcd has degree at most {found}" if found < degree else
                 f"the gcd on {drawn} random lines has degree {found} (an upper bound on deg D)")
        raise StrandError(f"{claim}, but the strand at nu={M.nu} expects {degree}")
    p = M.field.characteristic
    if 0 < p < _MIN_SPLIT_PRIME and any(line.degree > deg_f for line in best):
        raise StrandError(f"over GF({p}) a block's minors gcd is not certified (degree above "
                          f"deg F = {deg_f}), and GF({p}) has too few lines to split it; "
                          f"run over QQ or mod a prime of at least {_MIN_SPLIT_PRIME}")
    splits = [block.residual(line, deg_f) if line.degree > deg_f else (1, TPoly.constant(1, M.field))
              for block, line in zip(blocks, best)]
    power, residuals = sum(k for k, _ in splits), [Q for _, Q in splits]
    return _monic_product([F] * power + residuals, M.field), power, _monic_product(residuals, M.field)


# ---------------------------------------------------------------------------
# independent oracle for the irreducible implicit equation

def _degree_monomials(deg: int):
    out = []
    for e1 in range(deg, -1, -1):
        for e2 in range(deg - e1, -1, -1):
            for e3 in range(deg - e1 - e2, -1, -1):
                out.append((e1, e2, e3, deg - e1 - e2 - e3))
    return out


def _integer_coordinates(P: Parametrization):
    """Term dicts of f1..f4 with plain int coefficients: residues in [0, p)
    over GF(p); over QQ all four scaled by one common denominator, which
    leaves the image, hence the implicit equation, unchanged."""
    den = _scale_of(P.fs)
    return [_ints(f, den) for f in P.fs]


def _step(e):
    """(e - u_k, k) for the first nonzero coordinate k of e: f^e is
    f^(e - u_k)·f_k."""
    k = next(i for i in range(4) if e[i])
    return e[:k] + (e[k] - 1,) + e[k + 1:], k


def _next_layer(layer, fs, deg, p):
    """The expansions of f^e for every degree-deg monomial e, each one
    product of a degree-(deg-1) expansion with one coordinate."""
    out = {}
    for e in _degree_monomials(deg):
        prev, k = _step(e)
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


def implicit_by_interpolation(P: Parametrization, max_degree: int) -> TPoly:
    """The lowest-degree homogeneous equation vanishing on the image.

    For deg = 1, 2, ... the routine forms the exact matrix S of the linear
    map F -> F(f1..f4) on degree-deg forms (one column per monomial of F, the
    expansion of f^e built from the previous degree by one multiplication,
    one row per (s,u,t,v) monomial). Its kernel is the degree-deg part of the
    ideal of the image, so the first nonzero kernel is spanned by the
    implicit equation. `int_nullspace` finds it: from one elimination modulo
    p over GF(p), and over QQ modulo SCREEN_PRIME, lifted p-adically and
    certified by the exact product S·v = 0, which is F(f1..f4) = 0 in the
    monomial basis, or from the RREF over QQ when the kernel modulo
    SCREEN_PRIME is larger. A kernel of dimension above 1 raises
    InterpolationError (the image is not a surface). The result is monic in
    the canonical term order.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    p = P.field.characteristic
    fs = _integer_coordinates(P)
    layer = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}
    for deg in range(1, max_degree + 1):
        layer = _next_layer(layer, fs, deg, p)
        monos = _degree_monomials(deg)
        kernel = int_nullspace(_substitution_rows(layer, monos), len(monos), p)
        if len(kernel) > 1:
            raise InterpolationError(
                f"the kernel of the substitution map in degree {deg} has "
                f"dimension {len(kernel)} over {P.field.name}: the image is not a surface"
            )
        if kernel:
            return _monic({m: x for m, x in zip(monos, kernel[0]) if x}, P.field)
    raise _DegreeBoundError(f"no equation of degree at most {max_degree}")


def verify_substitution(eq: TPoly, P: Parametrization) -> bool:
    """True iff eq(f1,f2,f3,f4) expands to the zero polynomial in s,u,t,v.

    The check is S·v = 0, with S the oracle's substitution matrix
    restricted to the columns of eq's monomials, of all its degrees at once,
    and v their coefficients. Only the f^e of those monomials are built,
    along the oracle's recursion f^e = f^(e - u_k)·f_k and memoized, so each
    product forms one prefix of eq's support. The check runs on plain ints:
    eq times the common denominator of its coefficients, and the coordinates
    of _integer_coordinates. Over QQ those are scaled by one factor c, which
    multiplies the degree-k part of eq(f1..f4) by c^k; parts of different
    degrees land in different bidegrees (for any bidegree but (0,0)), so in
    disjoint rows of S: eq vanishes iff each part does, and the test holds
    for non-homogeneous eq as well."""
    p = P.field.characteristic
    fs = _integer_coordinates(P)
    coeffs = _ints(eq)
    powers = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}

    def power(e):
        if e not in powers:
            prev, k = _step(e)
            powers[e] = _expr.modp(_expr.mul(power(prev), fs[k]), p)
        return powers[e]

    monos = list(coeffs)
    v = [coeffs[e] for e in monos]
    for row in _substitution_rows({e: power(e) for e in monos}, monos):
        r = sum(map(mul, row, v))
        if r % p if p else r:
            return False
    return True


@dataclass(frozen=True)
class EquationReport:
    """Results of one implicitization run.

    substitution_ok is True in every report. F is an exact kernel vector of
    the substitution matrix S of `implicit_by_interpolation`, and S·F = 0 is
    F(f1..f4) = 0 in the monomial basis: over QQ the lifted vector is
    certified by that exact product, and the RREF and the elimination mod p
    are exact. That certificate is what the field reports; F is not
    substituted a second time.
    """

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
    """Full pipeline: lift if needed, build M and check its shape, find the
    implicit equation F, which divides D, so its degree is at most the
    strand's expected degree, then the minors gcd split against F."""
    I = SegreIdeal.from_parametrization(lift_mixed(P))
    nu, strand = working_strand(I, nu, saturate)
    M = representation_matrix(I, nu)
    _blocks(M)  # the shape checks come before the oracle; minors_gcd reuses the blocks
    degree = strand.expected_det_degree
    try:
        F = implicit_by_interpolation(P, max(degree, 1))
    except _DegreeBoundError as exc:
        raise StrandError(f"{exc}, but the strand at nu={nu} expects {degree}") from exc
    D, power, residual = minors_gcd(M, F, degree, Random(seed))
    return EquationReport(
        nu, M.rows, M.cols, D, F, power, residual, residual.is_constant(), True
    )
