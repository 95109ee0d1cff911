"""Dense exact linear algebra on int rows, over QQ and GF(p).

Every function takes a list of int rows and a column count, plus p: p = 0
means the rows are over QQ (a caller with rational rows clears their
denominators first, which changes no rank, RREF or kernel), and p > 0 means
they hold residues in [0, p). `int_rank` gives the rank, `int_rref` the
nonzero rows of the reduced row echelon form and the pivot columns, and
`int_nullspace` the canonical kernel basis built from it. The pivot rule is
always "first nonzero entry in column order", so results are deterministic
and the RREF is the unique one.

Over QQ the forward elimination is fraction-free, and the back-substitution
combines each row with a multiple of a pivot row below it; both strip
integer content to control coefficient growth. A Fraction is formed only for
a returned entry, when each row is divided by its pivot. Before that,
`int_rank`, and `int_rref` when there are at least as many rows as columns,
eliminate the rows modulo the word-size prime SCREEN_PRIME = 2^31 - 1. That
rank is only a lower bound over QQ, so it is used only when an exact upper
bound meets it: full rank, min(rows, cols), for `int_rank`, or a bound its
caller proves (`zcomplex` uses d_i d_(i+1) = 0); full column rank for
`int_rref`, whose RREF is then [I; 0]. Otherwise fraction-free elimination
runs on the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _strip_content(row, start=0):
    """Divide the row by the gcd of its entries; entries before start must
    be zero."""
    g = gcd(*row)
    if g > 1:
        row[start:] = [x // g for x in row[start:]]


def _forward_int(rows, cols):
    """In-place integer echelon reduction; returns the pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        pv = pivot_row[c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v:
                ri = rows[i]
                for j in range(c, cols):
                    ri[j] = ri[j] * pv - pivot_row[j] * v
                _strip_content(ri, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _forward_gf(rows, cols, p):
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        inv = pow(pivot_row[c], -1, p)
        for j in range(c, cols):
            pivot_row[j] = pivot_row[j] * inv % p
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v:
                ri = rows[i]
                for j in range(c, cols):
                    ri[j] = (ri[j] - v * pivot_row[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_gf(rows, cols, p):
    """In-place reduced echelon form of plain ints mod p; returns the pivot
    columns, and the first len(pivots) rows hold the nonzero rows."""
    pivots = _forward_gf(rows, cols, p)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        rk = rows[k]
        for a in range(k):
            v = rows[a][c]
            if v:
                ra = rows[a]
                for j in range(c, cols):
                    ra[j] = (ra[j] - v * rk[j]) % p
    return pivots


def _rref_int(ints, cols):
    """The nonzero rows of the RREF of int rows over QQ, as Fractions, and
    the pivot columns: fraction-free forward elimination in place, then
    back-substitution in integers from the last pivot up, each combination
    divided by its content; every row is divided by its pivot only at the
    end."""
    pivots = _forward_int(ints, cols)
    r = len(pivots)
    for k in range(r - 1, 0, -1):
        c = pivots[k]
        rk = ints[k]
        pv = rk[c]
        for a in range(k):
            ra = ints[a]
            v = ra[c]
            if v:
                g = gcd(pv, v)
                s, t = pv // g, v // g
                for j in range(pivots[a], cols):
                    ra[j] = ra[j] * s - rk[j] * t
                _strip_content(ra, pivots[a])
    zero = Fraction(0)
    frows = []
    for k in range(r):
        rk = ints[k]
        pv = rk[pivots[k]]
        frows.append([Fraction(x, pv) if x else zero for x in rk])
    return frows, pivots


# ---------------------------------------------------------------------------
# ranks and RREFs of int rows, screened modulo one word-size prime over QQ

SCREEN_PRIME = 2_147_483_647  # 2^31 - 1


def _fewer_rows(rows, cols):
    """The rows, or those of the transpose when it has fewer: the rank is
    the same, and there are fewer rows to sweep."""
    return (zip(*rows), len(rows)) if len(rows) > cols else (rows, cols)


def screen_rank(rows, cols, p=SCREEN_PRIME) -> int:
    """Rank mod p of int rows, which are left as they are. With the default
    prime it is a lower bound on the rank over QQ and certifies nothing by
    itself."""
    if not rows or not cols:
        return 0
    rows, cols = _fewer_rows(rows, cols)
    return len(_forward_gf([[x % p for x in row] for row in rows], cols, p))


def int_rank(rows, cols, p=0, upper=None) -> int:
    """Exact rank of int rows over QQ (p = 0), or of int residues mod p; the
    rows are left as they are.

    Over QQ the screen rank r is returned only when an exact upper bound
    meets it: min(rows, cols), or upper(), a bound the caller proves and pays
    for only when the first one fails. Otherwise fraction-free elimination
    runs on a copy of the rows.
    """
    r = screen_rank(rows, cols, p or SCREEN_PRIME)
    if p or r == min(len(rows), cols) or (upper is not None and r == upper()):
        return r
    rows, cols = _fewer_rows(rows, cols)
    return len(_forward_int([list(row) for row in rows], cols))


def int_rref(rows, cols, p=0):
    """(the nonzero rows of the RREF, the pivot columns) of int rows over QQ
    (p = 0; Fraction entries) or of int residues mod p; consumes the rows.

    Over QQ, when there are at least as many rows as columns, a screen rank
    equal to cols certifies full column rank, so the RREF is [I; 0] with
    pivots 0..cols-1 and no elimination over QQ runs.
    """
    if not rows or not cols:
        return [], []
    if p:
        pivots = _rref_gf(rows, cols, p)
        return rows[: len(pivots)], pivots
    if len(rows) >= cols and screen_rank(rows, cols) == cols:
        zero, one = Fraction(0), Fraction(1)
        return [[one if j == i else zero for j in range(cols)] for i in range(cols)], list(range(cols))
    return _rref_int(rows, cols)


def int_nullspace(rows, cols, p=0):
    """Canonical kernel basis of int rows over QQ (p = 0) or of int residues
    mod p, which it consumes: one vector per free column of the RREF, in
    column order, with that column 1, the other free columns 0 and each
    pivot column the negated RREF entry. The entries are Fractions over QQ
    and residues in [0, p) over GF(p)."""
    reduced, pivots = int_rref(rows, cols, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        v = [zero] * cols
        v[fc] = one
        for row, pc in zip(reduced, pivots):
            if row[fc]:
                v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis
