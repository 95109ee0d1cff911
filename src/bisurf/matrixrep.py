"""Representation matrix of the surface and everything computed from it.

The matrix M has one row per degree-nu monomial of the quotient ring and one
column per linear syzygy; its entries are linear forms in T1..T4. M is held
as the syzygy kernel vectors themselves, int vectors, one per column, and
one int table of their coefficients, which everything below reads. Its rank
drops exactly on the surface (for isolated, locally complete intersection
base points), and the gcd D of its maximal minors is the strand determinant.
An independent oracle, the exact kernel of F -> F(f1..f4), lifted p-adically
from one prime below 2^30, finds the irreducible implicit equation F, which
divides D; D is then found from its
restrictions to random lines and split as a power of F times a residual.
One engine, `_power`, puts f1..f4 into monomials of T1..T4 for the oracle
and `verify_substitution`; on a line, binary forms are read off int values.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, prod
from operator import mul
from random import Random

from . import _expr
from .biparam import Parametrization, lift_mixed
from .exactla import _forward_int, _kernel, int_det, int_nullspace, int_rank
from .segre import basis
from .tpoly import (
    _UNIT_EXPS,
    _ZERO_EXP,
    ExactDivisionError,
    TPoly,
    _div,
    _gcd,
    _ints,
    _is_homogeneous,
    _monic,
    _monic_product,
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

    syzygies holds the columns as `linear_syzygies` returns them, int
    vectors (any other entry is a TypeError) of the coefficients of a1..a4
    on the row basis, so entry (i, j) has the coefficients syzygies[j][i::k]
    of T1..T4; ints holds them as 4-tuples. A column's scale changes no
    rank at any point; `entries` and `to_json_dict` divide it by its last
    nonzero entry (`exactla._kernel`)."""

    __slots__ = ("nu", "basis", "syzygies", "ints", "field", "_blocks")

    def __init__(self, nu, row_basis, syzygies, field):
        self.nu = nu
        self.basis = row_basis
        self.syzygies = tuple(syzygies)
        if not set(map(type, chain.from_iterable(self.syzygies))) <= {int}:
            j = next(j for j, col in enumerate(self.syzygies) if set(map(type, col)) - {int})
            raise TypeError(f"column {j} of M has an entry that is not an int")
        self.field = field
        k = len(row_basis)
        self.ints = tuple(tuple(tuple(col[i::k]) for col in self.syzygies) for i in range(k))
        self._blocks = None

    @property
    def rows(self) -> int:
        return len(self.basis)

    @property
    def cols(self) -> int:
        return len(self.syzygies)

    def _printed(self):
        """Each column divided by its last nonzero entry; a zero column stays zero."""
        lasts = [next((a for a in reversed(v) if a), 1) for v in self.syzygies]
        if p := self.field.characteristic:
            invs = [pow(last, -1, p) for last in lasts]
            return [[a * inv % p for a in v] for v, inv in zip(self.syzygies, invs)]
        zero = self.field.zero
        return [[Fraction(a, last) if a else zero for a in v] for v, last in zip(self.syzygies, lasts)]

    @property
    def entries(self):
        """The entries as linear TPolys, built on each read."""
        k, columns = self.rows, self._printed()
        return tuple(tuple(TPoly(dict(zip(_UNIT_EXPS, v[i::k])), self.field) for v in columns)
                     for i in range(k))

    def to_json_dict(self) -> dict:
        k, columns = self.rows, self._printed()
        return {
            "nu": self.nu,
            "rows": k,
            "cols": self.cols,
            "row_basis": self.basis.monomial_texts(),
            "entries": [[[str(c) for c in v[i::k]] for v in columns] for i in range(k)],
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
    product with the block's cached int coefficients. Each class of
    `_shapes` is ranked once, and its rank counts once per block. Over GF(p)
    the block's rows, reduced mod p as they are built, are ranked by
    `int_rank` in place. Over QQ the block is built from its class's
    columns, kept beside the table, and `exactla._kernel` takes the left
    kernel of a k_b-row block, the kernel of its transpose, from one
    elimination modulo SCREEN_PRIME (the largest prime below 2^30),
    certified over QQ: rank k_b minus its dimension. Only a kernel it does
    not certify (a point that is zero mod q, or an unlucky prime) falls back
    to fraction-free forward elimination of that block, so every rank is
    exact without the RREF that `int_nullspace` would finish there.

    Returns (on_surface, rank)."""
    pt = [M.field.coerce(x) for x in point]
    if not any(pt):
        raise ValueError("(0,0,0,0) is not a projective point")
    den = lcm(*(x.denominator for x in pt))
    x1, x2, x3, x4 = (x.numerator * (den // x.denominator) for x in pt)
    p, r = M.field.characteristic, 0
    for ((rows, cols), table, count), columns in zip(*_shapes(M)[1:]):
        if p:
            lines = [[(a * x1 + b * x2 + c * x3 + d * x4) % p for a, b, c, d in row]
                     for row in table]
            r += count * int_rank(lines, len(cols), p)
            continue
        lines = [[a * x1 + b * x2 + c * x3 + d * x4 for a, b, c, d in col] for col in columns]
        _, kernel = _kernel(lines, len(rows))
        rank = len(rows) - len(kernel) if kernel is not None else len(_forward_int(lines, len(rows)))
        r += count * rank
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


def _class_key(table):
    """A row and column permutation of table: its lines sorted, then its
    positions, alternately, until neither order changes (at most rows +
    cols rounds)."""
    key = tuple(map(tuple, table))
    for _ in range(len(key) + len(key[0]) if key and key[0] else 0):
        step = tuple(zip(*sorted(zip(*sorted(key)))))
        if step == key:
            break
        key = step
    return key


def _shapes(M: RepMatrix):
    """(blocks, classes, columns), found once per M: the blocks of M with
    rows, and per class of blocks with one `_class_key` (so one rank at
    every point, and maximal minors up to sign) its first block, that
    block's int coefficient table, one list per row in both fields, which
    `membership` evaluates over GF(p) and `_Block` restricts to lines, and
    its number of blocks; columns holds each class table's columns, which
    `membership` evaluates over QQ."""
    if M._blocks is None:
        ints, classes = M.ints, {}
        blocks = [(rows, cols) for rows, cols in _components(M) if rows]
        for rows, cols in blocks:
            table = [[ints[i][j] for j in cols] for i in rows]
            classes.setdefault(_class_key(table), [(rows, cols), table, 0])[2] += 1
        classes = list(classes.values())
        M._blocks = blocks, classes, [list(zip(*table)) for _, table, _ in classes]
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

_Line = namedtuple("_Line", "degree power quotient a b")


def _form(values, p):
    """The binary form {(0, 0, n - j, j): c_j mod p} in mu, lambda whose
    values at mu = 1, lambda = 0..n are the n + 1 ints values, by Newton
    interpolation over Z: j-th differences of a polynomial in Z[lambda] at
    consecutive nodes are divisible by j!, so each division is exact."""
    d, n = list(values), len(values) - 1
    for j in range(1, n + 1):
        d[j:] = [(x - y) // j for x, y in zip(d[j:], d[j - 1:])]
    c = [d[n]]
    for j in range(n - 1, -1, -1):  # c = c * (lambda - j) + d[j]
        c = [x - j * y for x, y in zip([d[j]] + c, c + [0])]
    return _expr.modp({(0, 0, n - j, j): x for j, x in enumerate(c) if x}, p)


def _values(terms, a, b, n):
    """The values of an int-kernel dict at a + t*b for t = 0..n."""
    return [sum(c * prod(map(pow, x, e)) for e, c in terms.items())
            for x in ([u + t * v for u, v in zip(a, b)] for t in range(n + 1))]


class _Block:
    """One block's maximal minors on random lines x = mu*a + lambda*b, where
    it is the pencil mu*A + lambda*B. For a random m x k matrix R, det((mu*A
    + lambda*B)*R) is by Cauchy-Binet a combination of all maximal minors,
    so a multiple of D_b(mu*a + lambda*b) unless it vanishes; so is the gcd
    G of a few. Over GF(p) more are folded, as two random forms share a
    factor with probability about 1/p. The block is its class's table from
    `_shapes`. F, each det((A + t*B)*R) (by `int_det`) and the residual's
    monomials are int values at t = 0..deg, made binary forms by `_form`."""

    def __init__(self, M, table, F, rng):
        self.entries, self.F, self.deg_f = table, _ints(F), F.total_degree()
        self.field, self.p, self.rng = M.field, M.field.characteristic, rng
        self.pool = range(self.p) if self.p else range(-9, 10)
        self.combos = 2 + 14 // self.p.bit_length() if self.p else 2

    def draw(self, n):
        return self.rng.choices(self.pool, k=n)

    def split(self, a, b):
        """The _Line through a and b (deg G, F's power in G, the quotient, a
        and b), or None when a, b span no line or F or G vanishes on it. F
        divides each combination first: gcd(f*q1, f*q2) = f*gcd(q1, q2)."""
        p = self.p
        wedge = [a[i] * b[j] - a[j] * b[i] for j in range(4) for i in range(j)]
        f = _form(_values(self.F, a, b, self.deg_f), p)
        if not f or not any(x % p if p else x for x in wedge):
            return None
        content = 1 if p else gcd(*f.values())  # primitive over Z: integral quotients
        f = {e: c // content for e, c in f.items()}
        A, B = ([[sum(map(mul, e, x)) for e in row] for row in self.entries] for x in (a, b))
        k, g = len(A), {}
        for _ in range(self.combos):
            flat = self.draw(k * len(A[0]))
            R = [flat[c::k] for c in range(k)]  # the columns of R
            X, Y = ([[sum(map(mul, row, col)) for col in R] for row in Z] for Z in (A, B))
            # residues keep int_det's ints short; _form reduces mod p anyway
            X, Y = ([[x % p for x in r] for r in Z] for Z in (X, Y)) if p else (X, Y)
            dets = [int_det([[x + t * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)])
                    for t in range(k + 1)]
            try:
                quotient = _div(_form(dets, p), f, p)
            except ExactDivisionError:
                raise ExactDivisionError("the implicit equation does not divide the minors "
                                         "gcd; inconsistent pipeline state") from None
            g = _gcd(g, quotient, p)
        if not g:
            return None
        degree, power = max(map(sum, f)) + max(map(sum, g)), 1
        try:
            while True:
                g = _div(g, f, p)
                power += 1
        except ExactDivisionError:
            return _Line(degree, power, g, a, b)

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
        for _, _, q, a, b in lines:
            forms = [_form(_values({e: 1}, a, b, r), p) for e in monos]
            rows += [[q.get(top, 0) * x.get(key, 0) - q.get(key, 0) * x.get(top, 0) for x in forms]
                     for key in ((0, 0, r - i, i) for i in range(1, r + 1))]
        kernel = int_nullspace([[x % p for x in row] for row in rows] if p else rows, len(monos), p)
        return _monic(dict(zip(monos, kernel[0])), self.field) if len(kernel) == 1 else None


def minors_gcd(M: RepMatrix, F: TPoly, degree: int, rng: Random | None = None):
    """(D, power, residual): the gcd D of the maximal minors of M, monic, as
    F^power * residual, with F the implicit equation.

    Maximal minors factor across M's connected blocks, and F divides each
    block's gcd D_b (at an image point, the degree-nu monomials at a
    preimage are a left-kernel vector of M). One _Block stands for each
    class of `_shapes`, and its degree and (power, residual) count once per
    block. Each keeps its lowest exact gcd G_b on a random line (see
    _Block), so deg G_b >= deg D_b.
    - deg G_b = deg F certifies D_b = c * F, with no probability.
    - Otherwise G_b = c * D_b on its line is trusted once the degrees sum to
      `degree`, the strand's expected degree, and split by _Block.residual.
    Blocks above deg F take turns drawing lines until then, at most
    _MAX_LINES. StrandError when the sum differs from `degree`: certified
    below it, an upper bound above it, and over GF(p) with p below
    _MIN_SPLIT_PRIME for any block not certified. RankDeficientError for a
    block with fewer columns than rows or a zero G_b on every line drawn."""
    if F.is_constant() or not _is_homogeneous(F.terms):
        raise ValueError("the implicit equation must be a nonconstant homogeneous form")
    rng = rng or Random(0)
    _blocks(M)  # the shape check
    classes = _shapes(M)[1]
    counts = [n for _, _, n in classes]
    blocks = [_Block(M, table, F, rng) for _, table, _ in classes]
    best = [None] * len(blocks)
    queue, drawn, deg_f = list(range(len(blocks))), 0, F.total_degree()

    def total():
        return sum(n * line.degree for n, line in zip(counts, best))

    while queue and drawn < _MAX_LINES and (None in best or total() > degree):
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
    found = total()
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
    power = sum(n * k for n, (k, _) in zip(counts, splits))
    residuals = [Q for n, (_, Q) in zip(counts, splits) for _ in range(n)]
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


def _power(memo, fs, e, p):
    """The term dict of f^e = f1^e1·..·f4^e4, reduced mod p, built as
    f^(e - u_k)·f_k along _step. memo holds f^0 = 1 and keeps every f^e
    built, prefixes included."""
    power = memo.get(e)
    if power is None:
        prev, k = _step(e)
        power = memo[e] = _expr.modp(_expr.mul(_power(memo, fs, prev, p), fs[k]), p)
    return power


def _substitute(coeffs, fs, p):
    """The term dict of sum c_e f^e over the terms c_e T^e of coeffs, reduced
    mod p: each f^e of coeffs' support is built once, by _power."""
    memo = {_ZERO_EXP: {_ZERO_EXP: 1}}
    return _expr.modp(_expr.collect((m, c * x) for e, c in coeffs.items()
                                    for m, x in _power(memo, fs, e, p).items()), p)


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
    expansion of f^e built by `_power` from the previous degree's layer by
    one multiplication, one row per (s,u,t,v) monomial); only the last two
    layers are held. Its kernel is the degree-deg part of the
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
    layer = {_ZERO_EXP: {_ZERO_EXP: 1}}
    for deg in range(1, max_degree + 1):
        monos = _degree_monomials(deg)
        layer = {e: _power(layer, fs, e, p) for e in monos}  # reads only the last layer
        kernel = int_nullspace(_substitution_rows(layer, monos), len(monos), p)
        if len(kernel) > 1:
            raise InterpolationError(
                f"the kernel of the substitution map in degree {deg} has "
                f"dimension {len(kernel)} over {P.field.name}: the image is not a surface"
            )
        if kernel:
            return _monic(dict(zip(monos, kernel[0])), P.field)
    raise _DegreeBoundError(f"no equation of degree at most {max_degree}")


def verify_substitution(eq: TPoly, P: Parametrization) -> bool:
    """True iff eq(f1,f2,f3,f4) expands to the zero polynomial in s,u,t,v.

    `_substitute` expands sum c_e f^e over eq's support, each f^e built once
    along the oracle's recursion f^e = f^(e - u_k)·f_k (`_power`), so each
    product forms one prefix of eq's support. The check runs on plain ints:
    eq times the common denominator of its coefficients, and the coordinates
    of _integer_coordinates. Over QQ those are scaled by one factor c, which
    multiplies the degree-k part of eq(f1..f4) by c^k; parts of different
    degrees land in different bidegrees (for any bidegree but (0,0)), so in
    disjoint terms of the expansion: eq vanishes iff each part does, and the
    test holds for non-homogeneous eq as well."""
    return not _substitute(_ints(eq), _integer_coordinates(P), P.field.characteristic)


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
