"""Dense exact linear algebra on int rows, over QQ and GF(p).

Every function takes a list of int rows and a column count, plus p: p = 0
means the rows are over QQ (a caller with rational rows clears their
denominators first, which changes no rank or kernel), and p > 0 means they
hold residues in [0, p). `int_rank` gives the rank and `int_nullspace` the
canonical kernel basis, read off the unique RREF (the pivot rule is always
"first nonzero entry in column order", so results are deterministic), and
`int_det` the determinant of square rows over the integers alone. All three
consume their rows: a caller that reads them afterwards passes a copy.
Results are ints: over QQ a kernel vector times its common denominator.

Over QQ both read their answer off one elimination modulo SCREEN_PRIME,
the largest prime below 2^30, whose residues are single-digit CPython ints,
and certify it by exact products: `_kernel` lifts a kernel of dimension 1
there p-adically and reconstructs a larger one, and `int_rank` reconstructs
the dependencies of the rows that its zero rows give. Only a failure, or a
kernel of two more columns than rows, runs the fraction-free elimination,
which strips integer content from every combined row and leaves each RREF
row times its pivot entry. Every elimination modulo a prime is
`_forward_gf`, on packed int rows for a large dense matrix and on list rows
otherwise; both leave the same pivots, rows and record.
"""

from __future__ import annotations

from itertools import compress, count
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
    """The nonzero rows of the RREF of int rows over QQ, row k times its
    entry at pivots[k], and the pivot columns: fraction-free forward
    elimination in place, then back-substitution in integers from the last
    pivot up, each combination divided by its content."""
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
    return ints[:r], pivots


def int_det(rows):
    """Determinant of square int rows over the integers, which it consumes:
    Bareiss elimination, a row swap and a sign flip at a zero pivot."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if rows[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            rows[k], rows[pr], sign = rows[pr], rows[k], -sign
        top = rows[k]
        for ri in rows[k + 1:]:
            ri[k + 1:] = [(x * top[k] - y * ri[k]) // prev for x, y in zip(ri[k + 1:], top[k + 1:])]
        prev = top[k]
    return sign * prev


# ---------------------------------------------------------------------------
# ranks and kernels of int rows, screened modulo one prime over QQ

SCREEN_PRIME = 1_073_741_789  # the largest prime below 2^30


def int_rank(rows, cols, p=0) -> int:
    """Exact rank of int rows over QQ (p = 0), or of int residues mod p,
    which it consumes, as `int_nullspace` does. With more rows than columns
    the transpose is ranked in their place, with fewer rows to sweep.

    Over GF(p) the rows are eliminated in place. Over QQ a copy reduced mod
    q = SCREEN_PRIME is eliminated first, with a record; its rank r is a
    lower bound. Zero row i of that echelon form is y·rows mod q, where y is
    e_i under the recorded operations applied transposed in reverse order.
    Each y is reconstructed (Wang) and all are certified by y·rows = 0 over
    QQ, as products of the rows' columns, or of the caller's own rows when
    the transpose was ranked. They are independent mod q, hence over QQ, so
    rows - r of them bound the rank by r. Only a failure runs fraction-free
    elimination.
    """
    tall = len(rows) > cols
    if p:
        if tall:
            rows, cols = [list(col) for col in zip(*rows)], len(rows)
        return len(_forward_gf(rows, cols, p))
    q, record = SCREEN_PRIME, []
    lines, n, width = (zip(*rows), cols, len(rows)) if tall else (rows, len(rows), cols)
    r = len(_forward_gf([[x % q for x in line] for line in lines], width, q, record))
    deps = []
    for i in range(r, n):
        y = [0] * n
        y[i] = 1
        for k in range(r - 1, -1, -1):
            pr, inv, ops = record[k]
            y[k] = (y[k] - sum([v * y[j] for j, v in ops])) * inv % q
            y[k], y[pr] = y[pr], y[k]
        deps.append(_reconstruct(y, q))
    if r == n or None not in deps and _annihilates(rows if tall else list(zip(*rows)), deps):
        return r
    return len(_forward_int(rows, cols))


def _rational_reconstruction(u: int, m: int):
    """(a, b) with a/b = u mod m and |a|, b <= sqrt(m/2), b > 0, or None (Wang)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _reconstruct(residues, m):
    """The Wang reconstructions of residues mod m times their common
    denominator, as ints, or None as soon as one fails."""
    pairs, out = {}, [0] * len(residues)
    for j in compress(count(), residues):
        pairs[j] = _rational_reconstruction(residues[j], m)
        if pairs[j] is None:
            return None
    den = lcm(*(b for _, b in pairs.values()))
    for j, (a, b) in pairs.items():
        out[j] = a * (den // b)
    return out


def _annihilates(rows, vectors):
    """rows·v == 0 for every int vector v. Several vectors take one exact
    product: side by side in signed slots of one int per entry, each slot
    wider than twice any |row·v|, so that a sum is zero only if every slot
    is zero."""
    if len(vectors) > 1:
        bound = max(max(map(abs, v)) for v in vectors) * max((sum(map(abs, row)) for row in rows), default=0)
        shift = bound.bit_length() + 2
        packed = [0] * len(vectors[0])
        for k, v in enumerate(vectors):
            for j in compress(count(), v):
                packed[j] += v[j] << k * shift
        vectors = [packed]
    vec = vectors[0]
    return not any(sum(map(mul, row, vec)) for row in rows)


def _basis(rows, pivots, cols, p=0):
    """The kernel basis of `int_nullspace`, read off RREF rows with these
    pivots, each times its pivot entry pv, as `_rref_int` gives them. Over
    GF(p) the rows are residues in echelon form, each pv 1, and are first
    back-eliminated in place. The canonical vector of free column f is -x/pv
    at the pivot of each row with x = row[f] nonzero; times den, the lcm of
    the pv / gcd(pv, x), it is primitive, den at f (over GF(p) den is 1)."""
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
    basis = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        hits = [(pc, row[fc], row[pc]) for row, pc in zip(rows, pivots) if row[fc]]
        v = [0] * cols
        v[fc] = den = lcm(*(pv // gcd(pv, x) for _, x, pv in hits))
        for pc, x, pv in hits:
            v[pc] = -x * den // pv % p if p else -x * den // pv
        basis.append(v)
    return basis


def _kernel(rows, cols, p=0):
    """(pivots, kernel) of int rows S over QQ (p = 0) or of residues mod p:
    the pivot columns mod p, over QQ mod q = SCREEN_PRIME, and the basis of
    `int_nullspace`, or None over QQ when it is not certified. Over GF(p) S
    is left in echelon form, each pivot 1; over QQ it is left as it is.
    Over QQ each vector is the canonical one times its common denominator,
    positive at its free column, its last nonzero entry; for d = 1 that
    column can be a pivot mod q (rows [[q, 1]]), so that entry fixes the sign.

    One elimination mod p or q runs, with a record over QQ; full rank
    returns at once. For d = cols - len(pivots) >= 2 the echelon form is
    back-eliminated and the basis read off it. Over QQ its nonzero entries
    are reconstructed (Wang) and the d vectors certified by one exact
    product. A certified vector is the canonical one: mod q the vector of
    free column f is 1 at f and 0 at the other free columns, and nonzero
    elsewhere only on pivot columns before f. An exact kernel vector of that
    shape shows that f is not a pivot over QQ, so the free columns over QQ
    include the d free columns mod q. The rank over QQ is at least the rank
    mod q, so the two sets are equal, and a kernel vector is unique once its
    values on the free columns are fixed.

    For d = 1 the free column is set to 1 and the pivot columns solved by
    back-substitution. Over QQ that vector is lifted q-adically (Dixon):
    each step replays the record on the exact residual -S·x/q^k mod q and
    back-substitutes; a residual not divisible by q leaves no rational
    kernel vector. After each step the digits are reconstructed and
    certified by S·v = 0. By Cramer's rule on the pivot rows, invertible mod
    q, the entries of the vector with v[free] = 1 are at most their
    Hadamard bound H, so once q^k > 2 H^2 a failure shows the kernel over QQ
    is zero. H and the residual are computed only after a first failure.
    """
    q = p or SCREEN_PRIME
    echelon = rows if p else [[x % q for x in row] for row in rows]
    record = None if p else []
    pivots = _forward_gf(echelon, cols, q, record)
    dim = cols - len(pivots)
    if dim == 0:
        return pivots, []
    if dim > 1:
        kernel = _basis(echelon, pivots, cols, q)
        if p:
            return pivots, kernel
        ints = [_reconstruct(v, q) for v in kernel]
        return pivots, ints if None not in ints and _annihilates(rows, ints) else None
    free = next(c for c in range(cols) if c not in pivots)
    x = _solve_one_free(echelon, pivots, free, None, 1, q)
    if p:
        return pivots, [x]
    modulus, residual = q, None
    while True:
        w = _reconstruct(x, modulus)
        if w is not None and _annihilates(rows, [w]):
            return pivots, [w if next(a for a in reversed(w) if a) > 0 else [-a for a in w]]
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
    pivot column the negated RREF entry: residues in [0, p) over GF(p), and
    over QQ times the lcm of its denominators, as ints, by every route below.

    Over QQ with cols - len(rows) >= 2 the kernel has dimension at least 2,
    and fraction-free elimination runs at once. Otherwise `_kernel` reads
    the kernel off one elimination mod p (over QQ mod SCREEN_PRIME), and
    only a kernel it does not certify takes the fraction-free RREF.
    """
    if p or cols - len(rows) <= 1:
        kernel = _kernel(rows, cols, p)[1]
        if kernel is not None:
            return kernel
    return _basis(*_rref_int(rows, cols), cols)
