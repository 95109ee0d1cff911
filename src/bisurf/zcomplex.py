"""Graded strands of the syzygy complex over the Segre coordinate ring.

Given the ideal I = (g1..g4), this module assembles the degree-mu pieces of
the Koszul differentials as int rows, computes linear syzygy bases and
cycle-space dimensions, the Euler characteristic of a strand, the expected
degree of the strand determinant, and the critical degree from which the
representation matrix is valid (optionally lowered via the saturation index).
Ring elements of degree n are bidegree (n,n) forms in s,u,t,v (see segre), so
a product of monomials is a sum of exponents.

One builder, _koszul_rows, makes the int rows of every Koszul piece: over
QQ from the generators scaled by their common denominator, which changes no
rank and no kernel, over GF(p) from their residues. The syzygy basis is the
canonical kernel of the first piece. Over QQ the ranks behind the cycle
dimensions and the saturation pieces come from one elimination of those rows
modulo exactla.SCREEN_PRIME, the largest prime below 2^30, used only with an
exact certificate (full rank, or d_i d_(i+1) = 0), and from fraction-free
elimination otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import lcm

from .biparam import BiHomPoly, InputError, Parametrization
from .exactla import int_nullspace, int_rank, int_rref, screen_rank
from .segre import basis
from .tpoly import _ints, _scale_of

_SUBSETS = {i: tuple(combinations(range(4), i)) for i in range(5)}
# X1..X4 as the bidegree (1,1) monomials s*t, s*v, u*t, u*v
_X_EXPS = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))


class StrandError(RuntimeError):
    """The strand at the working degree contradicts the method's hypotheses."""


class SegreIdeal:
    """Four generators of one common degree d >= 1 in the quotient ring,
    given as bidegree (d,d) forms."""

    __slots__ = ("gs", "degree", "field")

    def __init__(self, gs):
        gs = tuple(gs)
        if len(gs) != 4:
            raise InputError("need exactly four generators")
        bid = gs[0].bidegree
        field = gs[0].field
        if bid[0] != bid[1]:
            raise InputError(f"mixed bidegree {bid}: lift to equal bidegree first")
        for g in gs[1:]:
            if g.bidegree != bid:
                raise InputError(f"generator bidegrees differ: {g.bidegree} vs {bid}")
            if g.field != field:
                raise InputError("generator fields differ")
        d = bid[0]
        if d < 1:
            raise InputError("generators must have degree at least 1")
        if all(g.is_zero() for g in gs):
            raise InputError("all generators are zero")
        self.gs = gs
        self.degree = d
        self.field = field

    @classmethod
    def from_parametrization(cls, P: Parametrization) -> "SegreIdeal":
        return cls(P.fs)

    def __repr__(self):
        return f"SegreIdeal(degree {self.degree}; " + ", ".join(str(g) for g in self.gs) + ")"


def _times(exp, terms):
    """The terms of the monomial exp times a term list; distinct terms give
    distinct products."""
    a0, a1, a2, a3 = exp
    return [((a0 + b0, a1 + b1, a2 + b2, a3 + b3), c) for (b0, b1, b2, b3), c in terms]


def _koszul_rows(I: SegreIdeal, i: int, mu: int):
    """(int rows, column count) of the degree-mu piece of the i-th Koszul
    differential, with the generators as ints: over QQ scaled by their
    common denominator, over GF(p) the residues.

    Columns are indexed by (size-i subset S, source monomial), rows by
    (size-(i-1) subset T, target monomial). The block for T = S minus {j}
    is sign(j, S) times multiplication by g_j, where sign(j, S) is (-1) to
    the 0-based position of j in sorted S.
    """
    if not 1 <= i <= 4:
        raise ValueError("Koszul index out of range")
    d = I.degree
    src_deg = mu - i * d
    dst_deg = mu - (i - 1) * d
    dst_dim = (dst_deg + 1) ** 2 if dst_deg >= 0 else 0
    n_rows = dst_dim * len(_SUBSETS[i - 1])
    if src_deg < 0:
        return [[] for _ in range(n_rows)], 0
    src = basis(src_deg).quads
    dst = basis(dst_deg).index
    p = I.field.characteristic
    den = _scale_of(I.gs)
    gens = [list(_ints(g, den).items()) for g in I.gs]
    negated = [[(e, (-c) % p if p else -c) for e, c in terms] for terms in gens]
    cols = len(src) * len(_SUBSETS[i])
    rows = [[0] * cols for _ in range(n_rows)]
    t_pos = {T: k for k, T in enumerate(_SUBSETS[i - 1])}
    for s_idx, S in enumerate(_SUBSETS[i]):
        for pos, j in enumerate(S):
            row0 = t_pos[S[:pos] + S[pos + 1:]] * dst_dim
            terms = negated[j] if pos % 2 else gens[j]
            for c, quad in enumerate(src, s_idx * len(src)):
                for q, v in _times(quad, terms):
                    rows[row0 + dst[q]][c] = v
    return rows, cols


def linear_syzygies(I: SegreIdeal, nu: int):
    """Canonical basis of the degree-nu syzygies, as 4-tuples of bidegree
    (nu,nu) forms: the kernel of the first Koszul differential in degree
    nu+d, whose columns come in blocks for a1..a4."""
    if nu < 0:
        raise ValueError("negative degree")
    rows, cols = _koszul_rows(I, 1, nu + I.degree)
    quads = basis(nu).quads
    k = len(quads)
    return [
        tuple(
            BiHomPoly((nu, nu), {q: x for q, x in zip(quads, v[block * k:]) if x}, I.field)
            for block in range(4)
        )
        for v in int_nullspace(rows, cols, I.field.characteristic)
    ]


def cycle_space_dim(I: SegreIdeal, i: int, mu: int) -> int:
    """Dimension of the degree-mu kernel of the i-th Koszul differential.

    Over QQ the rank mod SCREEN_PRIME counts when it is full, or when it
    meets cols - rank(d_(i+1)) at the same mu: d_i d_(i+1) = 0 bounds the
    rank of d_i by that, and the rank of d_(i+1) mod the prime is a lower
    bound on its own rank. Otherwise the rank is computed exactly.
    """
    rows, cols = _koszul_rows(I, i, mu)

    def upper():
        return cols - screen_rank(*_koszul_rows(I, i + 1, mu))

    return cols - int_rank(rows, cols, I.field.characteristic, upper if i < 4 else None)


@dataclass(frozen=True)
class StrandReport:
    """Dimension bookkeeping of one graded strand of the complex."""

    nu: int
    d: int
    dim_coefficients: int
    dim_syzygies: int
    dim_cycles2: int
    dim_cycles3: int
    euler_char: int
    expected_det_degree: int
    base_points_degree: int
    nu_conservative: int
    nu_optimized: int | None = None
    sat_indeg: int | None = None

    def as_dict(self):
        return {
            "nu": self.nu,
            "d": self.d,
            "dim_coefficients": self.dim_coefficients,
            "dim_syzygies": self.dim_syzygies,
            "dim_cycles2": self.dim_cycles2,
            "dim_cycles3": self.dim_cycles3,
            "euler_char": self.euler_char,
            "expected_det_degree": self.expected_det_degree,
            "base_points_degree": self.base_points_degree,
            "nu_conservative": self.nu_conservative,
            "nu_optimized": self.nu_optimized,
            "sat_indeg": self.sat_indeg,
        }


def strand_report(I: SegreIdeal, nu: int) -> StrandReport:
    """Dimensions of the degree-nu strand, its Euler characteristic, the
    expected determinant degree, and the implied total base-point degree."""
    d = I.degree
    dim_a = (nu + 1) ** 2
    z1 = cycle_space_dim(I, 1, nu + d)
    z2 = cycle_space_dim(I, 2, nu + 2 * d)
    z3 = cycle_space_dim(I, 3, nu + 3 * d)
    euler = dim_a - z1 + z2 - z3
    deg = z1 - 2 * z2 + 3 * z3
    return StrandReport(
        nu=nu,
        d=d,
        dim_coefficients=dim_a,
        dim_syzygies=z1,
        dim_cycles2=z2,
        dim_cycles3=z3,
        euler_char=euler,
        expected_det_degree=deg,
        base_points_degree=2 * d * d - deg,
        nu_conservative=2 * d - 1,
    )


# ---------------------------------------------------------------------------
# saturation index by graded linear algebra

class _Subspace:
    """Subspace of the degree-n graded piece, stored as its nonzero RREF rows
    (unique)."""

    __slots__ = ("degree", "rows", "pivots")

    def __init__(self, degree, rows, pivots):
        self.degree = degree
        self.rows = rows
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, _Subspace)
            and self.degree == other.degree
            and self.pivots == other.pivots
            and self.rows == other.rows
        )


def _span(rows, degree, p, dim) -> _Subspace:
    """The span of int rows (int residues over GF(p)), which it consumes."""
    return _Subspace(degree, *int_rref(rows, dim, p))


def ideal_piece(I: SegreIdeal, n: int) -> _Subspace:
    """The degree-n piece of the ideal, spanned by monomial multiples of the
    generators: the columns of the first Koszul differential in degree n."""
    rows = _koszul_rows(I, 1, n)[0]
    return _span([list(col) for col in zip(*rows)], n, I.field.characteristic, (n + 1) ** 2)


def _variable_mult_matrices(n: int):
    """Multiplication by X1..X4 from degree n to n+1, as coefficient maps."""
    src = basis(n)
    dst = basis(n + 1)
    return [
        [dst.index[tuple(a + b for a, b in zip(quad, x))] for quad in src] for x in _X_EXPS
    ]


def _cleared(row):
    """A row of Fractions times its common denominator, as ints; the scaling
    keeps the span and the kernel."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _colon_by_irrelevant(sub: _Subspace, n: int, p: int) -> _Subspace:
    """The degree-n piece of (J : (X1..X4)) given the degree-(n+1) piece of J,
    over QQ (p = 0) or GF(p)."""
    dim_n = (n + 1) ** 2
    dim_n1 = (n + 2) ** 2
    if sub.dim == dim_n1:  # J is all of degree n+1, so the colon is all of degree n
        return _Subspace(n, [[int(i == j) for j in range(dim_n)] for i in range(dim_n)], range(dim_n))
    mults = _variable_mult_matrices(n)
    pivset = dict(zip(sub.pivots, range(sub.dim)))
    red = sub.rows
    constraints = []
    for targets in mults:
        # multiplication by one variable sends the basis monomial in column c
        # to the single target monomial targets[c], and distinct monomials to
        # distinct targets, so each entry is set at most once
        for q in range(dim_n1):
            if q in pivset:
                continue
            row = [0] * dim_n
            touched = False
            for c in range(dim_n):
                tq = targets[c]
                if tq == q:
                    row[c] = 1
                    touched = True
                elif tq in pivset:
                    v = red[pivset[tq]][q]
                    if v:
                        row[c] = -v % p if p else -v
                        touched = True
            if touched:
                constraints.append(row if p else _cleared(row))
    kernel = int_nullspace(constraints, dim_n, p)
    return _span(kernel if p else [_cleared(v) for v in kernel], n, p, dim_n)


def saturation_indeg(I: SegreIdeal) -> int:
    """Least degree (at most d) in which the saturation of I is nonzero.

    Iterates J -> (J : (X1..X4)) on graded pieces tracked in a degree window,
    stopping when the chain repeats on the common window or after 2d steps;
    the result is only trustworthy for lowering the critical degree when the
    downstream validation agrees, so callers re-validate.
    """
    d = I.degree
    top = 3 * d
    current = {n: ideal_piece(I, n) for n in range(top + 1)}
    for step in range(1, 2 * d + 1):
        new_top = top - step
        nxt = {
            n: _colon_by_irrelevant(current[n + 1], n, I.field.characteristic)
            for n in range(new_top + 1)
        }
        if nxt[0].dim > 0:
            return 0
        stable = all(nxt[n] == current[n] for n in range(new_top + 1))
        current = nxt
        if stable:
            break
    for n in range(d + 1):
        if current[n].dim > 0:
            return n
    return d


def choose_nu(I: SegreIdeal, saturate: bool = False):
    """Pick the working degree, re-validating any saturation-lowered value.

    Returns (nu, report at nu). A lowered nu is accepted only when the Euler
    characteristic vanishes both at nu and at the conservative 2d-1 and the
    expected determinant degrees agree; otherwise falls back to 2d-1.
    """
    cons = 2 * I.degree - 1
    if not saturate:
        return cons, strand_report(I, cons)
    ind = saturation_indeg(I)
    opt = 2 * I.degree - 1 - ind
    rep_cons = strand_report(I, cons)
    if opt == cons:
        return cons, replace(rep_cons, nu_optimized=cons, sat_indeg=ind)
    rep_opt = strand_report(I, opt)
    valid = (
        rep_opt.euler_char == 0
        and rep_cons.euler_char == 0
        and rep_opt.expected_det_degree == rep_cons.expected_det_degree
    )
    if valid:
        return opt, replace(rep_opt, nu_optimized=opt, sat_indeg=ind)
    return cons, replace(rep_cons, nu_optimized=cons, sat_indeg=ind)


def working_strand(I: SegreIdeal, nu: int | None = None, saturate: bool = False):
    """(nu, report at nu) for a given working degree, or choose_nu's when nu is None.

    The matrix and its minors gcd are only meaningful where the strand has
    Euler characteristic 0, so any other degree raises StrandError. Degrees
    below the conservative 2d-1 pass when their strand does.
    """
    if nu is None:
        nu, rep = choose_nu(I, saturate)
    else:
        rep = strand_report(I, nu)
    if rep.euler_char:
        raise StrandError(
            f"the strand at nu={nu} has Euler characteristic {rep.euler_char}, not 0; "
            "the representation matrix is not valid in this degree"
        )
    return nu, rep
