"""Shared test utilities: independent brute-force oracles and generators.

The oracles here share no code with the package's matrix assembly: syzygy
and cycle dimensions are recomputed on the parameter side (s,u,t,v) with
plain dictionaries and a local Gaussian elimination. The package also
assembles its strands on bidegree (n,n) forms, so the method is the same
and only the code is independent: agreement catches implementation faults,
not a flaw shared by the method. The
scalar Bareiss determinant and the modular rank check are reference oracles
for the polynomial determinants and the exact ranks. Matrices are plain lists
of rows: ints or Fractions over QQ, residues in [0, p) over GF(p).

The package's polynomial classes are containers with no ring operators, so
the tests build and check polynomials with the plain term arithmetic here
(monomial, mul_terms, dot_terms, tmul, monic, evaluate, image_point,
substitute), which shares no code with bisurf._expr. koszul_rows
assembles a whole Koszul piece here, every character at once, from the
generators' int terms as the package scales them, so it checks the
package's per-character pieces; syzygy_forms is a view of the package's
syzygy vectors, not an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from random import Random

from bisurf.biparam import BiHomPoly, Parametrization
from bisurf.exactla import int_rank
from bisurf.fields import QQ, PrimeField, is_prime
from bisurf.segre import basis
from bisurf.tpoly import TPoly, _ints, _scale_of


def fraction_rank(rows, p=0) -> int:
    """Plain Gaussian elimination rank over the rationals, or over GF(p) on
    residues when p > 0."""
    rows = [[x % p for x in row] for row in rows] if p else [[Fraction(x) for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, p) if p else 1 / prow[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv
            if f:
                rows[i] = [(a - f * b) % p if p else a - f * b if b else a
                           for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def fraction_rref(rows, p=0):
    """Plain Gauss-Jordan over the rationals, or over GF(p) on residues when
    p > 0: (the reduced rows, all of them, and the pivot columns), with the
    first nonzero entry in column order as pivot."""
    rows = [[x % p for x in row] for row in rows] if p else [[Fraction(x) for x in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p) if p else 1 / rows[r][c]
        rows[r] = [x * inv % p if p else x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_nullspace(rows, p=0):
    """Kernel basis vectors from fraction_rref: one per free column in order,
    with that column set to 1 and the other free columns to 0; Fractions
    over QQ, residues over GF(p)."""
    reduced, pivots = fraction_rref(rows, p)
    ncols = len(rows[0]) if rows else 0
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for k, pc in enumerate(pivots):
            v[pc] = -reduced[k][fc] % p if p else -reduced[k][fc]
        basis.append(v)
    return basis


def monomial(exp, c, field=QQ) -> BiHomPoly:
    """The bi-homogeneous monomial c*s^a*u^b*t^g*v^e, exp = (a, b, g, e)."""
    return BiHomPoly((exp[0] + exp[1], exp[2] + exp[3]), {tuple(exp): field.coerce(c)}, field)


def mul_terms(a, b):
    """Product of two term dicts by the plain double loop over their terms;
    GF(p) residues are left unreduced."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[e] = out.get(e, 0) + ca * cb
    return out


def dot_terms(fs, gs, p=0):
    """The term dict of sum f_i*g_i over polynomials of one field, zero
    coefficients (mod p over GF(p)) dropped."""
    acc = {}
    for f, g in zip(fs, gs):
        for e, c in mul_terms(f.terms, g.terms).items():
            acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if (c % p if p else c)}


def tmul(*polys) -> TPoly:
    """Product of one or more TPolys over one field."""
    field = polys[0].field
    terms = {(0, 0, 0, 0): field.coerce(1)}
    for f in polys:
        terms = mul_terms(terms, f.terms)
    return TPoly(terms, field)


def monic(poly: TPoly) -> TPoly:
    """poly divided by its coefficient at the largest exponent in graded lex
    order (total degree, then the exponents), the package's term order."""
    if poly.is_zero():
        return poly
    lead = poly.terms[max(poly.terms, key=lambda e: (sum(e), e))]
    p = poly.field.characteristic
    inv = pow(lead, -1, p) if p else 1 / lead
    return TPoly({e: c * inv for e, c in poly.terms.items()}, poly.field)


def evaluate(terms, point, p=0):
    """Value of a term dict at a 4-tuple: exact over QQ (p = 0), a residue
    mod p over GF(p)."""
    acc = 0
    for e, c in terms.items():
        for x, k in zip(point, e):
            c = c * x**k
        acc += c
    return acc % p if p else acc


def substitute(terms, fs, p=0):
    """The term dict of eq(f1..f4), eq given by its terms, expanded with
    plain term arithmetic: each product f^e that eq needs once, as f^e'
    times one coordinate; zero coefficients (mod p over GF(p)) dropped."""
    products = {(0, 0, 0, 0): {(0, 0, 0, 0): 1}}

    def power(e):
        if e not in products:
            k = next(i for i in range(4) if e[i])
            products[e] = mul_terms(power(e[:k] + (e[k] - 1,) + e[k + 1:]), fs[k].terms)
        return products[e]

    acc = {}
    for e, c in terms.items():
        for m, x in power(e).items():
            acc[m] = acc.get(m, 0) + c * x
    return {m: x for m, x in acc.items() if (x % p if p else x)}


def image_point(P: Parametrization, point):
    """(f1..f4) of P at (s,u,t,v): exact over QQ, residues over GF(p)."""
    return tuple(evaluate(f.terms, point, P.field.characteristic) for f in P.fs)


def syzygy_forms(v, nu, field):
    """A vector of zcomplex.linear_syzygies split into its forms a1..a4 of
    bidegree (nu,nu), the coefficients on segre's degree-nu basis."""
    quads = basis(nu).quads
    k = len(quads)
    return [BiHomPoly((nu, nu), {q: x for q, x in zip(quads, v[j * k:(j + 1) * k]) if x}, field)
            for j in range(4)]


def koszul_rows(I, i, mu):
    """(int rows, column count) of the whole degree-mu piece of the i-th
    Koszul differential, with the entries zcomplex._koszul_columns gives
    them: columns (size-i subset S, monomial of basis(mu - i*d)), rows
    (size-(i-1) subset T, monomial of basis(mu - (i-1)*d)), the block of
    T = S minus its entry j at position k being (-1)^k times g_j."""
    d, p = I.degree, I.field.characteristic
    src = basis(mu - i * d).quads if mu >= i * d else ()
    dst = basis(mu - (i - 1) * d).index if mu >= (i - 1) * d else {}
    subsets = list(combinations(range(4), i))
    prev = {T: k for k, T in enumerate(combinations(range(4), i - 1))}
    den = _scale_of(I.gs)
    rows = [[0] * (len(subsets) * len(src)) for _ in range(len(prev) * len(dst))]
    for si, S in enumerate(subsets):
        for k, j in enumerate(S):
            row0 = prev[S[:k] + S[k + 1:]] * len(dst)
            for e, c in _ints(I.gs[j], den).items():
                c = (-c % p if p else -c) if k % 2 else c
                for ci, q in enumerate(src, si * len(src)):
                    rows[row0 + dst[tuple(x + y for x, y in zip(e, q))]][ci] = c
    return rows, len(subsets) * len(src)


def _biform_monomials(n):
    """Monomial exponents of bidegree (n, n): s^i u^(n-i) t^j v^(n-j)."""
    return [(i, n - i, j, n - j) for i in range(n + 1) for j in range(n + 1)]


def _mono_mult(exp, f: BiHomPoly):
    """Terms of (monomial * f) as a plain dict."""
    out = {}
    for fe, c in f.terms.items():
        key = (exp[0] + fe[0], exp[1] + fe[1], exp[2] + fe[2], exp[3] + fe[3])
        out[key] = out.get(key, Fraction(0)) + c
    return out


def biform_syzygy_dim(P: Parametrization, nu: int) -> int:
    """Brute-force dimension of {(b1..b4) of bidegree (nu,nu) : sum b_i f_i = 0},
    assembled directly on the parameter side."""
    d = P.bidegree[0]
    src = _biform_monomials(nu)
    dst = _biform_monomials(nu + d)
    dst_index = {e: i for i, e in enumerate(dst)}
    cols = []
    for f in P.fs:
        for exp in src:
            col = [Fraction(0)] * len(dst)
            for key, c in _mono_mult(exp, f).items():
                col[dst_index[key]] += c
            cols.append(col)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(dst))]
    return len(cols) - fraction_rank(rows)


def biform_cycle_dim(P: Parametrization, i: int, mu: int) -> int:
    """Brute-force kernel dimension of the degree-mu piece of the i-th Koszul
    differential for (f1..f4), on the parameter side."""
    d = P.bidegree[0]
    src_deg = mu - i * d
    if src_deg < 0:
        return 0
    dst_deg = mu - (i - 1) * d
    src = _biform_monomials(src_deg)
    dst = _biform_monomials(dst_deg)
    dst_index = {e: k for k, e in enumerate(dst)}
    subsets_i = list(combinations(range(4), i))
    subsets_prev = list(combinations(range(4), i - 1))
    prev_pos = {T: k for k, T in enumerate(subsets_prev)}
    ncols = len(subsets_i) * len(src)
    nrows = len(subsets_prev) * len(dst)
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for si, S in enumerate(subsets_i):
        for pos, j in enumerate(S):
            T = tuple(x for x in S if x != j)
            sign = -1 if pos % 2 else 1
            for ci, exp in enumerate(src):
                col = si * len(src) + ci
                for key, c in _mono_mult(exp, P.fs[j]).items():
                    rows[prev_pos[T] * len(dst) + dst_index[key]][col] += sign * c
    return ncols - fraction_rank(rows)


def random_dense(d: int, rng: Random) -> Parametrization:
    """Random parametrization with every bidegree (d,d) coefficient nonzero."""
    fs = []
    for _ in range(4):
        terms = {}
        for i in range(d + 1):
            for j in range(d + 1):
                c = 0
                while c == 0:
                    c = rng.randint(-9, 9)
                terms[(i, d - i, j, d - j)] = Fraction(c)
        fs.append(BiHomPoly((d, d), terms, QQ))
    return Parametrization(fs)


def random_biform(n: int, rng: Random, density: float = 0.6) -> BiHomPoly:
    terms = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if rng.random() < density:
                c = rng.randint(-9, 9)
                if c:
                    terms[(i, n - i, j, n - j)] = Fraction(c)
    if not terms:
        terms[(0, n, 0, n)] = Fraction(1)
    return BiHomPoly((n, n), terms, QQ)


def cofactor_det(rows):
    """Independent determinant by cofactor expansion (small matrices only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        piece = rows[0][j] * cofactor_det(minor)
        total += piece if j % 2 == 0 else -piece
    return total


def cleared(row):
    """A rational row times the common denominator of its entries, as ints;
    the scaling keeps the span and the kernel."""
    den = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


def int_rows(rows):
    """Rational rows as int rows, each cleared; the scaling keeps the rank,
    the RREF and the kernel."""
    return [cleared(row) for row in rows]


def primitive(t, p=0):
    """An int-kernel term dict divided by the gcd of its coefficients over
    the integers (p = 0); mod p it is returned as it is."""
    content = 1 if p else gcd(*t.values())
    return {e: c // content for e, c in t.items()}


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


class BadPrimeError(ValueError):
    """A denominator vanishes modulo the requested prime."""


def det_bareiss(rows, p=0):
    """Exact determinant of a square matrix over QQ (p = 0; a Fraction) or of
    residues mod p (an int residue), by fraction-free (Bareiss) elimination
    over QQ and Gaussian elimination mod p."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"determinant of a non-square {n}x{len(rows[0])} matrix")
    if p:
        rows = [[x % p for x in row] for row in rows]
        sign = 1
        det = 1
        for c in range(n):
            pr = next((i for i in range(c, n) if rows[i][c]), None)
            if pr is None:
                return 0
            if pr != c:
                rows[c], rows[pr] = rows[pr], rows[c]
                sign = -sign
            pv = rows[c][c]
            det = det * pv % p
            inv = pow(pv, p - 2, p)
            for i in range(c + 1, n):
                v = rows[i][c] * inv % p
                if v:
                    ri, rc = rows[i], rows[c]
                    for j in range(c, n):
                        ri[j] = (ri[j] - v * rc[j]) % p
        return sign * det % p
    if n == 0:
        return Fraction(1)
    scale = 1
    for row in rows:
        scale *= lcm(*(Fraction(x).denominator for x in row))
    rows = int_rows(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return Fraction(0)
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pk = rows[k]
        pv = pk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            lead = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pv * ri[j] - lead * pk[j]) // prev
            ri[k] = 0
        prev = pv
    return Fraction(sign * rows[n - 1][n - 1]) / scale


def reduce_mod(rows, p: int):
    """Image of rational rows in GF(p), as residues; raises BadPrimeError
    when a denominator is divisible by p."""
    out = []
    for row in rows:
        for x in row:
            if Fraction(x).denominator % p == 0:
                raise BadPrimeError(f"denominator of {x} vanishes mod {p}")
        out.append([PrimeField(p).coerce(x) for x in row])
    return out


def random_prime(rng: Random, bits: int = 31) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def modular_rank_agrees(rows, cols, num_primes: int = 3, rng: Random | None = None) -> bool:
    """Cross-check: the GF(p) rank of rational rows must match their rank
    over QQ for several independently chosen random primes."""
    rng = rng or Random(0)
    r_exact = int_rank(int_rows(rows), cols)
    checked = 0
    while checked < num_primes:
        p = random_prime(rng)
        try:
            rows_p = reduce_mod(rows, p)
        except BadPrimeError:
            continue
        if int_rank(rows_p, cols, p) != r_exact:
            return False
        checked += 1
    return True
