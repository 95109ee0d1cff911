"""Dense exact linear algebra on int rows, over QQ and GF(p).

Every function takes a list of int rows and a column count, plus p: p = 0
means the rows are over QQ (a caller with rational rows clears their
denominators first, which changes no rank or kernel), and p > 0 means they
hold residues in [0, p). `int_rank` gives the rank and `int_nullspace` the
canonical kernel basis, read off the unique RREF (the pivot rule is always
"first nonzero entry in column order", so results are deterministic). Both
consume their rows: a caller that reads them afterwards passes a copy.
`int_nullspace` picks its method from the shape and from one elimination
modulo p, over QQ modulo SCREEN_PRIME: a kernel of dimension at most 1 there
comes from `_kernel_line`, lifted p-adically and certified over QQ, and a
larger one from the RREF. `matrixrep.membership` ranks each block of M(pt)
with `_kernel_line`, on the block's transpose.

Over QQ the forward elimination is fraction-free, and the back-substitution
combines each row with a multiple of a pivot row below it; both strip
integer content to control coefficient growth. A Fraction is formed only for
a returned entry, when each row is divided by its pivot. Before that,
`int_rank` eliminates a copy of the rows modulo SCREEN_PRIME, the largest
prime below 2^30, whose residues are single-digit CPython ints. That rank
is only a lower bound over QQ, so it is used only when it is full,
min(rows, cols). Otherwise fraction-free elimination runs on the rows
themselves; over GF(p) they are eliminated in place. `zcomplex` ranks
only the columns of a Koszul piece d_i outside the pivot rows of d_(i+1),
where a full rank is the one that d_i d_(i+1) = 0 certifies.

Every elimination modulo a prime is `_forward_gf`, with two strategies that
leave the same pivots, rows and record. A matrix with at least PACKED_MIN
rows and columns whose first, middle and last rows are together at least
PACKED_DENSITY nonzero (the dense membership blocks of M and the dense
substitution matrices of the oracle) is eliminated with each row held as one
int, a w-byte slot per column, so that a row operation is a few whole-int
operations in C. w is the bytes for 2·bits(p) + bits(min(rows, cols)) + 1:
a slot gains less than p^2 per pivot, at most min(rows, cols) times, so it
never overflows. Every other matrix, the sparse Koszul pieces among them,
is eliminated as list rows, each row operation over the nonzero entries of
the pivot row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul


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


# _forward_gf holds rows as packed ints when min(rows, cols) >= PACKED_MIN and
# the first, middle and last rows together have at least PACKED_DENSITY of
# their entries nonzero. The rule rests on the list-vs-packed table in the
# README's performance notes: dense matrices of 20 or more rows and columns
# run 1.8-4.4x faster packed, 16-row dense blocks gain nothing, a half
# nonzero 16x16 Koszul piece and the small membership blocks lose, and the
# sparse Koszul pieces run up to 11x slower.
PACKED_MIN = 20
PACKED_DENSITY = 0.5


def _forward_gf(rows, cols, p, record=None):
    """In-place echelon form of residues mod p, each pivot scaled to 1;
    returns the pivot columns. A record list receives, per pivot, the row
    swapped into place, the pivot's inverse and the (row, multiplier) pairs
    of the rows below it, so that _replay can repeat the operations.

    Two strategies give the same pivots, rows and record. A matrix with at
    least PACKED_MIN rows and columns whose first, middle and last rows are
    together at least PACKED_DENSITY nonzero is eliminated as packed int
    rows (`_forward_packed`): column j in a w-byte slot, w the bytes for
    2·bits(p) + bits(min(rows, cols)) + 1, enough since a slot starts below
    p and gains less than p^2 per pivot, at most min(rows, cols) times.
    Every other matrix is eliminated as list rows (`_forward_lists`).
    """
    n = len(rows)
    if (min(n, cols) >= PACKED_MIN
            and sum(map(bool, rows[0] + rows[n // 2] + rows[-1])) >= PACKED_DENSITY * 3 * cols):
        return _forward_packed(rows, cols, p, record)
    return _forward_lists(rows, cols, p, record)


def _forward_lists(rows, cols, p, record=None):
    """_forward_gf on list rows: each row operation runs over the nonzero
    entries of the pivot row only."""
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
        nonzero = []
        for j in range(c, cols):
            if pivot_row[j]:
                y = pivot_row[j] = pivot_row[j] * inv % p
                nonzero.append((j, y))
        ops = []
        for i in range(r + 1, nrows):
            ri = rows[i]
            v = ri[c]
            if v:
                for j, y in nonzero:
                    ri[j] = (ri[j] - v * y) % p
                ops.append((i, v))
        if record is not None:
            record.append((pr, inv, ops))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _forward_packed(rows, cols, p, record=None):
    """_forward_gf on rows held as ints, one w-byte slot per column (w as in
    _forward_gf). The current column is always slot 0 of every row not yet
    a pivot row: such a row r becomes (r + (p - v)·P) >> 8w, with v its
    slot 0 mod p and P the pivot row reduced mod p and scaled to 1, or
    r >> 8w when v = 0. Other slots are never reduced. Unpacking the pivot
    row, once per pivot, is the only work per entry after packing; the
    pivot rows are written back as lists, and the rows after them as
    zeros."""
    nrows = len(rows)
    w = (2 * p.bit_length() + min(nrows, cols).bit_length() + 8) // 8
    shift = 8 * w
    mask = (1 << shift) - 1
    frombytes, tobytes = int.from_bytes, int.to_bytes
    packed = [frombytes(b"".join([tobytes(x, w, "little") for x in row]), "little")
              for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, nrows) if (packed[i] & mask) % p), None)
        if pr is None:
            for i in range(r, nrows):
                packed[i] >>= shift
            continue
        packed[r], packed[pr] = packed[pr], packed[r]
        rows[r], rows[pr] = rows[pr], rows[r]
        top = packed[r]
        inv = pow(top & mask, -1, p)
        data = top.to_bytes((cols - c) * w, "little")
        scaled = [frombytes(data[k:k + w], "little") * inv % p for k in range(0, len(data), w)]
        rows[r][:] = [0] * c + scaled
        top = frombytes(b"".join([tobytes(x, w, "little") for x in scaled]), "little")
        ops = []
        for i in range(r + 1, nrows):
            x = packed[i]
            v = (x & mask) % p
            if v:
                x += (p - v) * top
                ops.append((i, v))
            packed[i] = x >> shift
        if record is not None:
            record.append((pr, inv, ops))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for row in rows[r:]:
        row[:] = [0] * cols
    return pivots


def _replay(record, rhs, p):
    """The right-hand side rhs (residues, changed in place) under the row
    operations of a _forward_gf record."""
    for r, (pr, inv, ops) in enumerate(record):
        rhs[r], rhs[pr] = rhs[pr], rhs[r]
        x = rhs[r] = rhs[r] * inv % p
        if x:
            for i, v in ops:
                rhs[i] = (rhs[i] - v * x) % p
    return rhs


def _solve_one_free(echelon, pivots, free, rhs, t, p):
    """The x mod p with x[free] = t and echelon[k]·x = rhs[k] for each pivot
    row k, when every column but free is a pivot: back-substitution from the
    last pivot up. rhs None stands for zero."""
    x = [0] * (len(pivots) + 1)
    x[free] = t
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        s = sum(map(mul, echelon[k][c + 1:], x[c + 1:]))
        x[c] = ((rhs[k] if rhs else 0) - s) % p
    return x


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
# ranks and kernels of int rows, screened modulo one prime over QQ

SCREEN_PRIME = 1_073_741_789  # the largest prime below 2^30


def int_rank(rows, cols, p=0) -> int:
    """Exact rank of int rows over QQ (p = 0), or of int residues mod p,
    which it consumes, as `int_nullspace` does. With more rows than columns
    the transpose is ranked in their place, with fewer rows to sweep.

    Over GF(p) the rows are eliminated in place. Over QQ a copy reduced mod
    SCREEN_PRIME is eliminated first; that rank is a lower bound, returned
    only when it is full, min(rows, cols), an exact upper bound. Otherwise
    fraction-free elimination runs on the rows themselves.
    """
    if len(rows) > cols:
        rows, cols = [list(col) for col in zip(*rows)], len(rows)
    if p:
        return len(_forward_gf(rows, cols, p))
    q = SCREEN_PRIME
    if len(_forward_gf([[x % q for x in row] for row in rows], cols, q)) == len(rows):
        return len(rows)
    return len(_forward_int(rows, cols))


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


def _reconstruct(residues, m):
    """The vector of Wang reconstructions, or None as soon as one fails."""
    out = []
    for u in residues:
        x = _rational_reconstruction(u, m)
        if x is None:
            return None
        out.append(x)
    return out


def _cleared(row):
    """A row of Fractions times its common denominator, as ints; the scaling
    keeps the span and the kernel. Residues, of denominator 1, come back as
    they are."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row]


def _annihilates(rows, vec):
    """rows·vec == 0 over QQ, on the vector times its common denominator."""
    ints = _cleared(vec)
    return not any(sum(map(mul, row, ints)) for row in rows)


def _kernel_line(rows, cols, p=0):
    """(pivots, kernel) of int rows over QQ (p = 0) or of int residues mod p.
    pivots are the pivot columns mod p, or over QQ mod q = SCREEN_PRIME, so
    d = cols - len(pivots) bounds the kernel dimension over QQ from above.
    For d <= 1, kernel is the kernel: [] or [v], v as in `int_nullspace`
    (last nonzero entry 1; Fractions over QQ); for d >= 2 it is None. Over
    GF(p) the rows are left in echelon form, each pivot 1; over QQ they are
    left as they are, as the lift reads them.

    One forward elimination mod p or q runs, over QQ recording its row
    operations. Full rank returns at once; otherwise the one free column is
    set to 1 and the pivot columns solved by back-substitution. Over QQ that
    vector v0 is lifted q-adically (Dixon): the residual -S·x/q^k is updated
    exactly on the int rows S, each step replays the record on it mod q and
    back-substitutes, and a residual not divisible by q leaves no q-adic,
    hence no rational, kernel vector. After each step the digits are
    reconstructed (Wang) and the candidate certified by S·v = 0. The kernel
    vector with v[free] = 1 solves the pivot rows, which are invertible mod
    q on the pivot columns, so by Cramer's rule its numerators and
    denominators are at most the Hadamard bound H of those rows: once
    q^k > 2 H^2 a failed reconstruction or certificate shows the kernel over
    QQ is zero. H and the first residual are computed only when the first
    reconstruction, from v0 alone, fails.
    """
    q = p or SCREEN_PRIME
    echelon = rows if p else [[x % q for x in row] for row in rows]
    record = None if p else []
    pivots = _forward_gf(echelon, cols, q, record)
    dim = cols - len(pivots)
    if dim != 1:
        return pivots, [] if dim == 0 else None
    free = next(c for c in range(cols) if c not in pivots)
    x = _solve_one_free(echelon, pivots, free, None, 1, q)
    if p:
        return pivots, [x]
    modulus, residual = q, None
    while True:
        v = _reconstruct(x, modulus)
        if v is not None and _annihilates(rows, v):
            last = next(a for a in reversed(v) if a)
            return pivots, [[a / last for a in v]]
        if residual is None:
            order = list(range(len(rows)))
            for r, (pr, _, _) in enumerate(record):
                order[r], order[pr] = order[pr], order[r]
            hadamard2 = prod(sum(a * a for a in rows[i]) for i in order[: len(pivots)])
            residual = [-sum(map(mul, row, x)) // q for row in rows]
        if modulus > 2 * hadamard2:
            return pivots, []
        rhs = _replay(record, [a % q for a in residual], q)
        y = _solve_one_free(echelon, pivots, free, rhs, 0, q)
        residual = [a - sum(map(mul, row, y)) for a, row in zip(residual, rows)]
        if any(a % q for a in residual):
            return pivots, []
        residual = [a // q for a in residual]
        x = [a + modulus * b for a, b in zip(x, y)]
        modulus *= q


def int_nullspace(rows, cols, p=0):
    """Canonical kernel basis of int rows over QQ (p = 0) or of int residues
    mod p, which it consumes: one vector per free column of the RREF, in
    column order, with that column 1, the other free columns 0 and each
    pivot column the negated RREF entry. The entries are Fractions over QQ
    and residues in [0, p) over GF(p).

    Over QQ with cols - len(rows) >= 2 the kernel has dimension at least 2,
    and fraction-free elimination runs at once. Otherwise `_kernel_line`
    returns a kernel of dimension at most 1 (mod p, or over QQ mod
    SCREEN_PRIME); above that the RREF is finished, over GF(p) by
    back-elimination of the echelon form `_kernel_line` left, and over QQ by
    fraction-free elimination of the rows.
    """
    if p or cols - len(rows) <= 1:
        pivots, kernel = _kernel_line(rows, cols, p)
        if kernel is not None:
            return kernel
    if p:
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            rk = rows[k]
            nonzero = [(j, rk[j]) for j in range(c, cols) if rk[j]]
            for a in range(k):
                ra = rows[a]
                v = ra[c]
                if v:
                    for j, y in nonzero:
                        ra[j] = (ra[j] - v * y) % p
    else:
        rows, pivots = _rref_int(rows, cols)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        v = [zero] * cols
        v[fc] = one
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis
