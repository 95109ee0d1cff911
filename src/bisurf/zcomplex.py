"""Graded strands of the syzygy complex over the Segre coordinate ring.

Given the ideal I = (g1..g4), this module assembles the degree-mu pieces of
the Koszul differentials as int columns, computes linear syzygy bases and
cycle-space dimensions, the Euler characteristic of a strand, the expected
degree of the strand determinant, and the critical degree from which the
representation matrix is valid (optionally lowered via the saturation index).
Ring elements of degree n are bidegree (n,n) forms in s,u,t,v (see segre), so
a product of monomials is a sum of exponents.

Every Koszul piece is block diagonal by the character (a mod k1, c mod k2)
of s^a u^b t^c v^e, for the ideal's toric grading (k1, k2) (Botbol,
Dickenstein and Dohm, CAGD 26, 2009); _koszul_columns writes one character
of a piece as int columns, from the generators' ints (over QQ scaled by
their common denominator). Kernels run per character. The syzygy basis is
the canonical kernel of the first piece, of the transpose of its columns,
each vector one column of matrixrep's M as it stands. The saturation index
is read off the kernels of the pieces of I. A cycle dimension is ranked once
per class of characters, on the columns of d_i that the pivot rows of
d_(i+1) leave (`cycle_space_dim`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import gcd

from .biparam import InputError, Parametrization
from .exactla import SCREEN_PRIME, _forward_gf, int_nullspace, int_rank
from .segre import SegreBasis, basis
from .tpoly import _ints, _scale_of

_SUBSETS = {i: tuple(combinations(range(4), i)) for i in range(5)}


class StrandError(RuntimeError):
    """The strand at the working degree contradicts the method's hypotheses."""


class SegreIdeal:
    """Four bidegree (d,d) generators, d >= 1, in the quotient ring;
    Parametrization checks the rest. grading: the gcds (k1, k2) of d with
    the s- and t-exponents; signed: the generators' int terms, then negated."""

    __slots__ = ("gs", "degree", "field", "grading", "signed")

    def __init__(self, gs):
        P = Parametrization(gs)
        d = P.bidegree[0]
        if P.bidegree[1] != d:
            raise InputError(f"mixed bidegree {P.bidegree}: lift to equal bidegree first")
        if d < 1:
            raise InputError("generators must have degree at least 1")
        self.gs, self.degree, self.field = P.fs, d, P.field
        self.grading = tuple(gcd(d, *(e[k] for g in P.fs for e in g.terms)) for k in (0, 2))
        p, den = P.field.characteristic, _scale_of(P.fs)
        gens = [list(_ints(g, den).items()) for g in P.fs]
        self.signed = gens, [[(e, (-c) % p if p else -c) for e, c in terms] for terms in gens]

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


@lru_cache(maxsize=None)
def _characters(n: int, grading) -> tuple:
    """basis(n) split by character, one SegreBasis (maybe empty) per
    character a*k2 + c, (a, c) = (a mod k1, c mod k2) of s^a u^b t^c v^e."""
    k1, k2 = grading
    return tuple(SegreBasis(n, [q for q in basis(n).quads if (q[0] % k1, q[2] % k2) == (a, c)])
                 for a in range(k1) for c in range(k2))


@lru_cache(maxsize=None)
def _class_of(n: int, grading) -> tuple:
    """For each character a*k2 + c, the first character of its class in
    degree n, the characters of one key ((n - a) // k1, (n - c) // k2)."""
    k1, k2 = grading
    keys = [((n - a) // k1, (n - c) // k2) for a in range(k1) for c in range(k2)]
    return tuple(keys.index(key) for key in keys)


def _koszul_columns(I: SegreIdeal, i: int, mu: int, char: int, skip=()):
    """(int columns, row count) of character char of the degree-mu piece of
    the i-th Koszul differential, one list per column in order, with the
    columns whose index is in skip left out. The generators enter as ints:
    over QQ scaled by their common denominator, over GF(p) the residues.

    Columns are indexed by (size-i subset S, source monomial), rows by
    (size-(i-1) subset T, target monomial), monomials of that character in
    `_characters` order. The block for T = S minus {j} is sign(j, S) times
    multiplication by g_j, where sign(j, S) is (-1) to the 0-based position
    of j in sorted S.
    """
    if not 1 <= i <= 4:
        raise ValueError("Koszul index out of range")
    src_deg, dst_deg = mu - i * I.degree, mu - (i - 1) * I.degree
    dst = _characters(dst_deg, I.grading)[char].index if dst_deg >= 0 else {}
    n_rows = (dst_dim := len(dst)) * len(_SUBSETS[i - 1])
    if src_deg < 0:
        return [], n_rows
    gens, negated = I.signed
    t_pos = {T: k for k, T in enumerate(_SUBSETS[i - 1])}
    src = _characters(src_deg, I.grading)[char].quads
    columns = []
    for s_idx, S in enumerate(_SUBSETS[i]):
        block = [(t_pos[S[:pos] + S[pos + 1:]] * dst_dim, negated[j] if pos % 2 else gens[j])
                 for pos, j in enumerate(S)]
        for c, quad in enumerate(src, s_idx * len(src)):
            if c not in skip:
                col = [0] * n_rows
                for row0, terms in block:
                    for q, v in _times(quad, terms):
                        col[row0 + dst[q]] = v
                columns.append(col)
    return columns, n_rows


def linear_syzygies(I: SegreIdeal, nu: int):
    """Canonical basis of the degree-nu syzygies, the kernel of the first
    Koszul differential in degree nu+d, as `int_nullspace` returns it: each
    vector the coefficients of a1..a4 on basis(nu), in that order. The RREF
    of a block-diagonal matrix is its blocks', so the characters' vectors
    merge in the order of their free column, their last nonzero entry."""
    if nu < 0:
        raise ValueError("negative degree")
    p, pieces = I.field.characteristic, _characters(nu, I.grading)
    kernels = [int_nullspace([list(row) for row in zip(*cols)], len(cols), p)
               for cols, _ in (_koszul_columns(I, 1, nu + I.degree, char) for char in range(len(pieces)))]
    if len(kernels) == 1:
        return kernels[0]
    index, k, merged = basis(nu).index, len(basis(nu)), []
    for kernel, piece in zip(kernels, pieces):
        at = [j * k + index[q] for j in range(4) for q in piece.quads]
        for v in kernel:
            w = [0] * (4 * k)
            for c, x in zip(at, v):
                w[c] = x
            merged.append((max(c for c, x in zip(at, v) if x), w))
    return [w for _, w in sorted(merged)]


def _pivot_rows(I: SegreIdeal, i: int, mu: int, char: int):
    """The pivot columns of the transpose of character char of the degree-mu
    piece of d_i mod p, over QQ mod SCREEN_PRIME: rows of d_i on which a
    square submatrix of it is invertible mod that prime."""
    columns, n_rows = _koszul_columns(I, i, mu, char)
    if not columns:
        return []
    if not (q := I.field.characteristic):
        q, columns = SCREEN_PRIME, [[x % SCREEN_PRIME for x in col] for col in columns]
    return _forward_gf(columns, n_rows, q)


def cycle_space_dim(I: SegreIdeal, i: int, mu: int) -> int:
    """Dimension of the degree-mu kernel of the i-th Koszul differential.

    The columns of d_i and the rows of d_(i+1) at the same mu are indexed by
    the same (subset, monomial) pairs. The pivot rows P of d_(i+1) mod p, or
    over QQ mod SCREEN_PRIME, carry a square submatrix d_(i+1)[P, C] that is
    invertible mod that prime, hence over QQ. So for each k in P some
    y = d_(i+1) x has y_k = 1 and y_j = 0 on the rest of P, and d_i y = 0
    puts column k of d_i in the span of the columns outside P. Those columns
    alone have the rank of d_i, over QQ and over GF(p), and only they are
    ranked. Over QQ their rank mod the prime counts when it is full; a full
    column rank there is rank_q(d_i) + rank_q(d_(i+1)) = cols, which
    d_i d_(i+1) = 0 certifies; a lower one `int_rank` certifies itself.

    A class of characters (`_class_of`) is ranked once, on its first
    character, and counts once per character. In degree n the monomials of
    character (a, c) are s^(a+k1*I) t^(c+k2*J) times powers of u and v, (I, J)
    in [0, (n-a)//k1] x [0, (n-c)//k2]. k1 and k2 divide d and each generator
    monomial is s^(k1*x) u^(d-k1*x) t^(k2*y) v^(d-k2*y), so multiplying by it
    shifts (I, J) alike in every character, and one key in degree mu is one
    (I, J) range in every degree mu - m*d: a class's pieces of every d_i match
    entry for entry under that relabelling and share the first's dimension.
    """
    dim = 0
    for char, count in Counter(_class_of(mu, I.grading)).items():
        dropped = set(_pivot_rows(I, i + 1, mu, char)) if i < 4 else ()
        columns, n_rows = _koszul_columns(I, i, mu, char, dropped)
        dim += count * (len(columns) + len(dropped) - int_rank(columns, n_rows, I.field.characteristic))
    return dim


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
        return asdict(self)


def strand_report(I: SegreIdeal, nu: int) -> StrandReport:
    """Dimensions of the degree-nu strand, its Euler characteristic, the
    expected determinant degree, and the implied total base-point degree."""
    if nu < 0:
        raise ValueError("negative degree")
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

def saturation_indeg(I: SegreIdeal) -> int:
    """Least degree n <= d in which the saturation of I is nonzero: the least
    n with (I : m^(2d))_n nonzero, m = (X1..X4), or d if there is none.

    f of degree n lies in I : m^(2d) when f*x lies in I_(n+2d) for every
    bidegree (2d,2d) monomial x, each a product of 2d of the X's, that is,
    when f*x is orthogonal to each vector v of the kernel of the spanning
    rows of I_(n+2d). Multiplication by x sends the degree-n monomials to
    distinct targets t, so for each x and v this is one row over degree n,
    v[t]; n is the answer when these rows have rank below (n+1)^2. v is, up
    to the positive int scale `int_nullspace` gives it, 1 at its free
    coordinate q and -RREF[t][q] at each pivot t, so the row is a multiple of
    the negated row of the RREF test (RREF[t][q] at pivots, -1 at q). The
    rows of one character's kernel and one x lie on the monomials of one
    character psi, and are ranked per psi.

    This is the index that iterating J -> J : m gives on pieces tracked on
    degrees [0, 3d - k] after k steps, stopped when degree 0 becomes nonzero,
    when the chain repeats, or after 2d steps. With J_k = I : m^k: a colon
    in degree n reads only degree n+1, and J_k grows with k. So a nonzero
    degree 0 at step k is nonzero in J_(2d); a chain that repeats at step
    k <= 2d repeats on [0, 3d - j] at every step j >= k, so J_k = J_(2d) on
    [0, d]; otherwise step 2d holds J_(2d) on [0, d]. The result is only
    trustworthy for lowering the critical degree when the downstream
    validation agrees, so callers re-validate.
    """
    d, p, (k1, k2) = I.degree, I.field.characteristic, I.grading
    xs = basis(2 * d).quads
    for n in range(d + 1):
        src, top = _characters(n, I.grading), n + 2 * d
        constraints = [[] for _ in src]
        for char, piece in enumerate(_characters(top, I.grading)):
            kernel = int_nullspace(*_koszul_columns(I, 1, top, char), p)
            for x in xs:  # x times a monomial of character psi has character char
                psi = (char // k2 - x[0]) % k1 * k2 + (char - x[2]) % k2
                targets = [piece.index[m] for m, _ in _times(x, [(quad, 1) for quad in src[psi].quads])]
                for v in kernel:
                    row = [v[t] for t in targets]
                    if any(row):
                        constraints[psi].append(row)
        if any(int_rank(rows, len(piece), p) < len(piece) for rows, piece in zip(constraints, src)):
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
