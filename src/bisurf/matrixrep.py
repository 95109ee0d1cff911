"""Representation matrix of the surface and everything computed from it.

The matrix M has one row per degree-nu monomial of the quotient ring and one
column per linear syzygy; its entries are linear forms in T1..T4. Its rank
drops exactly on the surface (for isolated, locally complete intersection
base points), the gcd of its maximal minors is the strand determinant, and an
independent interpolation routine recovers the irreducible implicit equation
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from random import Random

from .biparam import Parametrization, lift_mixed
from .exactla import ExactMatrix, _forward_gf, nullspace, rank, rref
from .segre import basis
from .tpoly import (
    ExactDivisionError,
    LinearForm,
    TPoly,
    divides,
    exact_div,
    mvgcd,
    polydet,
)
from .zcomplex import SegreIdeal, StrandError, linear_syzygies, working_strand


class RankDeficientError(RuntimeError):
    """Every maximal minor vanishes: the hypotheses of the method fail
    (for example the base locus is not finite)."""


class InterpolationError(RuntimeError):
    """The interpolation search found no equation within the degree bound."""


class RepMatrix:
    """k x m matrix of linear forms; k = (nu+1)^2 rows over the degree-nu
    monomial basis, one column per syzygy."""

    __slots__ = ("nu", "basis", "syzygies", "entries", "field")

    def __init__(self, nu, row_basis, syzygies, field):
        self.nu = nu
        self.basis = row_basis
        self.syzygies = tuple(syzygies)
        self.field = field
        rows = []
        for quad in row_basis:
            row = []
            for syz in self.syzygies:
                row.append(LinearForm([a.coefficient(quad) for a in syz], field))
            rows.append(tuple(row))
        self.entries = tuple(rows)

    @property
    def rows(self) -> int:
        return len(self.basis)

    @property
    def cols(self) -> int:
        return len(self.syzygies)

    def evaluate(self, point) -> ExactMatrix:
        pt = [self.field.coerce(x) for x in point]
        return ExactMatrix(
            [[entry.eval(pt) for entry in row] for row in self.entries],
            self.field,
            cols=self.cols,
        )

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


def membership(M: RepMatrix, point, expected_k: int | None = None):
    """Exact rank of M at a projective point; the rank drops iff the point
    lies on the surface (under the locally-complete-intersection hypothesis).

    Returns (on_surface, rank)."""
    pt = [M.field.coerce(x) for x in point]
    if not any(pt):
        raise ValueError("(0,0,0,0) is not a projective point")
    r = rank(M.evaluate(pt))
    k = expected_k if expected_k is not None else M.rows
    return r < k, r


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


def _minor(sub, col_subset) -> TPoly:
    return polydet([[row[c] for c in col_subset] for row in sub])


def _sample_subsets(rng: Random, m: int, r: int, count: int, exclude=()):
    seen = set(exclude)
    out = []
    attempts = 0
    limit = 40 * count + 40
    while len(out) < count and attempts < limit:
        attempts += 1
        cs = tuple(sorted(rng.sample(range(m), r)))
        if cs not in seen:
            seen.add(cs)
            out.append(cs)
    return out


def _pivot_subset_hint(sub, rng: Random, field):
    """Column subset picked from the pivots of a random scalar evaluation."""
    if field.characteristic == 0:
        point = [field.coerce(rng.randint(-50, 50)) for _ in range(4)]
    else:
        point = [field.coerce(rng.randrange(field.p)) for _ in range(4)]
    rows = [[e.eval(point) for e in row] for row in sub]
    _, r, pivots = rref(ExactMatrix(rows, field, cols=len(sub[0])))
    return tuple(pivots) if r == len(sub) else None


def _block_gcd(block_entries, strategy, sample_size, rng, field):
    """gcd of the maximal minors of one connected block."""
    r = len(block_entries)
    m = len(block_entries[0])
    sub = [[e.to_tpoly() for e in row] for row in block_entries]
    total = comb(m, r)
    exhaustive = strategy == "all" or total <= max(2 * sample_size, 8)
    g = TPoly.zero(field, "T")
    if exhaustive:
        for cs in combinations(range(m), r):
            det = _minor(sub, cs)
            if det.is_zero():
                continue
            g = det.monic() if g.is_zero() else mvgcd(g, det)
            if g.is_constant():
                break
        if g.is_zero():
            raise RankDeficientError(
                "all maximal minors vanish; the matrix does not have full row rank"
            )
        return g
    # sampled strategy: fold a first batch, then verify divisibility on fresh
    # batches, refining the candidate whenever a minor escapes it
    first = _sample_subsets(rng, m, r, sample_size)
    used = set(first)
    for cs in first:
        det = _minor(sub, cs)
        if det.is_zero():
            continue
        g = det.monic() if g.is_zero() else mvgcd(g, det)
        if g.is_constant():
            return g
    if g.is_zero():
        hint = _pivot_subset_hint(block_entries, rng, field)
        if hint is not None and hint not in used:
            det = _minor(sub, hint)
            if not det.is_zero():
                g = det.monic()
        if g.is_zero():
            raise RankDeficientError(
                "all sampled maximal minors vanish; hypotheses violated "
                "(non-finite base locus or rank-deficient matrix)"
            )
    while True:
        fresh = _sample_subsets(rng, m, r, sample_size, exclude=used)
        used.update(fresh)
        clean = True
        for cs in fresh:
            det = _minor(sub, cs)
            if det.is_zero():
                continue
            if not divides(g, det):
                g = mvgcd(g, det)
                clean = False
                if g.is_constant():
                    return g
        if clean or not fresh:
            return g


def minors_gcd(
    M: RepMatrix,
    strategy: str = "sampled",
    sample_size: int = 12,
    rng: Random | None = None,
) -> TPoly:
    """gcd of the k x k minors of M, canonicalized to leading coefficient 1.

    strategy "all" enumerates every column subset; "sampled" folds
    sample_size random minors per connected block and then verifies the
    candidate divides a fresh random batch, refining on failure. The matrix
    splits into independent blocks whenever its support graph is
    disconnected, and the gcd is the product of per-block gcds.
    """
    if strategy not in ("all", "sampled"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if M.cols < M.rows:
        raise RankDeficientError(
            f"matrix has more rows ({M.rows}) than columns ({M.cols})"
        )
    rng = rng or Random(0)
    result = TPoly.constant(M.field.one, M.field, "T")
    for rows, cols in _components(M):
        if not rows:
            continue
        if len(cols) < len(rows):
            raise RankDeficientError(
                "a block has fewer columns than rows; every maximal minor vanishes"
            )
        block = [[M.entries[i][j] for j in cols] for i in rows]
        result = result * _block_gcd(block, strategy, sample_size, rng, M.field)
    return result.monic()


# ---------------------------------------------------------------------------
# independent interpolation of the irreducible implicit equation

def _degree_monomials(deg: int):
    out = []
    for e1 in range(deg, -1, -1):
        for e2 in range(deg - e1, -1, -1):
            for e3 in range(deg - e1 - e2, -1, -1):
                out.append((e1, e2, e3, deg - e1 - e2 - e3))
    return out


def _parameter_points(P: Parametrization, count: int, rng: Random):
    """Seeded affine parameter samples (s,1,t,1) with nonzero image."""
    pts = []
    seen = set()
    field = P.field
    attempts = 0
    while len(pts) < count and attempts < 200 * count:
        attempts += 1
        if field.characteristic == 0:
            s = rng.randint(-30, 30)
            t = rng.randint(-30, 30)
        else:
            s = rng.randrange(field.p)
            t = rng.randrange(field.p)
        if (s, t) in seen:
            continue
        seen.add((s, t))
        img = P.eval((s, 1, t, 1))
        if any(img):
            pts.append(img)
    if len(pts) < count:
        raise InterpolationError("could not sample enough surface points")
    return pts


def _vandermonde_rows(points, monos, field):
    rows = []
    maxes = [max(e[k] for e in monos) for k in range(4)]
    for pt in points:
        pows = []
        for k in range(4):
            table = [field.one]
            for _ in range(maxes[k]):
                table.append(table[-1] * pt[k])
            pows.append(table)
        rows.append(
            [pows[0][e[0]] * pows[1][e[1]] * pows[2][e[2]] * pows[3][e[3]] for e in monos]
        )
    return rows


_PRESCREEN_PRIME = (1 << 31) - 1


def _prescreen_kernel_dim(rows, field):
    """Kernel dimension modulo a fixed prime; zero is a sound rejection."""
    if field.characteristic != 0:
        m = ExactMatrix(rows, field, cols=len(rows[0]))
        return m.cols - rank(m)
    p = _PRESCREEN_PRIME
    mod_rows = []
    for row in rows:
        out = []
        for x in row:
            den = x.denominator % p
            if den == 0:
                return None
            out.append(x.numerator * pow(den, p - 2, p) % p)
        mod_rows.append(out)
    return len(rows[0]) - len(_forward_gf(mod_rows, len(rows[0]), p))


def implicit_by_interpolation(
    P: Parametrization, max_degree: int, seed: int = 0
) -> TPoly:
    """Search for the lowest-degree homogeneous equation vanishing on the image.

    For each candidate degree the routine samples twice as many parameter
    points as there are monomials, builds the evaluation matrix, and accepts
    exactly a one-dimensional kernel. The returned polynomial is monic in the
    canonical term order and certified by exact substitution.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    rng = Random(seed)
    field = P.field

    def kernel_poly(rows, monos):
        ns = nullspace(ExactMatrix(rows, field, cols=len(monos)))
        if ns.cols != 1:
            return None, ns.cols
        terms = {
            monos[i]: ns.entries[i][0] for i in range(len(monos)) if ns.entries[i][0]
        }
        return TPoly(terms, field, "T").monic(), 1

    for deg in range(1, max_degree + 1):
        monos = _degree_monomials(deg)
        npts = 2 * len(monos)
        points = _parameter_points(P, npts, rng)
        rows = _vandermonde_rows(points, monos, field)
        pre = _prescreen_kernel_dim(rows, field)
        if pre == 0:
            continue
        # a row subset usually suffices; any candidate it produces is only
        # accepted after exact substitution, so this cannot go wrong
        subset = rows[: len(monos) + 16]
        if len(subset) < len(rows):
            candidate, dim = kernel_poly(subset, monos)
            if candidate is not None and verify_substitution(candidate, P):
                return candidate
        for _ in range(3):
            candidate, dim = kernel_poly(rows, monos)
            if dim == 0:
                break
            if candidate is not None and verify_substitution(candidate, P):
                return candidate
            # undersampled or degenerate: add more points and retry
            extra = _parameter_points(P, len(monos), rng)
            rows.extend(_vandermonde_rows(extra, monos, field))
        else:
            raise InterpolationError(
                f"sampling stayed degenerate at degree {deg}"
            )
    raise InterpolationError(f"no equation of degree at most {max_degree}")


def verify_substitution(eq: TPoly, P: Parametrization) -> bool:
    """True iff eq(f1,f2,f3,f4) expands to the zero polynomial in s,u,t,v."""
    fs = [f.to_tpoly() for f in P.fs]
    one = TPoly.constant(P.field.one, P.field, "P")
    memo = {(0, 0, 0, 0): one}

    def product_for(exp):
        cached = memo.get(exp)
        if cached is not None:
            return cached
        k = next(i for i in range(4) if exp[i])
        prev = list(exp)
        prev[k] -= 1
        val = product_for(tuple(prev)) * fs[k]
        memo[exp] = val
        return val

    acc = TPoly.zero(P.field, "P")
    for exp, c in sorted(eq.terms.items(), key=lambda kv: sum(kv[0])):
        acc = acc + product_for(exp).scale(c)
    return acc.is_zero()


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
        raise ArithmeticError(
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
    implicit_poly: TPoly | None = None
    power: int | None = None
    residual: TPoly | None = None
    lci: bool | None = None
    substitution_ok: bool | None = None

    def as_dict(self):
        return {
            "nu": self.nu,
            "matrix_rows": self.matrix_rows,
            "matrix_cols": self.matrix_cols,
            "minors_gcd": str(self.minors_gcd_poly),
            "minors_gcd_degree": self.minors_gcd_poly.total_degree(),
            "implicit_equation": None if self.implicit_poly is None else str(self.implicit_poly),
            "implicit_degree": None if self.implicit_poly is None else self.implicit_poly.total_degree(),
            "power": self.power,
            "residual": None if self.residual is None else str(self.residual),
            "base_points_lci": self.lci,
            "substitution_ok": self.substitution_ok,
        }


def equation_report(
    P: Parametrization,
    nu: int | None = None,
    saturate: bool = False,
    strategy: str = "sampled",
    sample_size: int = 12,
    seed: int = 0,
    oracle: bool = True,
    oracle_max_degree: int | None = None,
) -> EquationReport:
    """Full pipeline: lift if needed, build M, extract the minors gcd, check
    its degree against the strand bookkeeping, and cross-check against the
    interpolated implicit equation."""
    I = SegreIdeal.from_parametrization(lift_mixed(P))
    nu, strand = working_strand(I, nu, saturate)
    M = representation_matrix(I, nu)
    D = minors_gcd(M, strategy, sample_size, Random(seed))
    if D.total_degree() != strand.expected_det_degree:
        raise StrandError(
            f"the minors gcd has degree {D.total_degree()}, but the strand at "
            f"nu={nu} expects {strand.expected_det_degree}"
        )
    if not oracle:
        return EquationReport(nu, M.rows, M.cols, D)
    bound = oracle_max_degree or max(D.total_degree(), 1)
    F = implicit_by_interpolation(P, bound, seed)
    ok = verify_substitution(F, P)
    power, residual, lci = lci_diagnostic(D, F)
    return EquationReport(nu, M.rows, M.cols, D, F, power, residual, lci, ok)
