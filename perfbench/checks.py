"""Output checks made apart from the program.

Nothing here imports bisurf. Polynomials are plain dicts from exponent tuples
to Fraction (over QQ) or int (over GF(p)) coefficients; the parser, the
arithmetic and the eliminations below are the benchmark's own, so a check
that passes is evidence from outside the code it checks.

Every check raises CheckFailed with a one-line reason when an output is wrong.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

PARAM_VARS = ("s", "u", "t", "v")
T_VARS = ("T1", "T2", "T3", "T4")
SEGRE_VARS = ("X1", "X2", "X3", "X4")


class CheckFailed(AssertionError):
    """An output of the program does not pass an independent check."""


def require(ok, reason):
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# text -> polynomial dicts

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*^/()]))")


def parse_poly(text, names):
    """Parse `+ - * ^ /` and parentheses over the given variable names."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse {text[pos:pos + 20]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    tokens.append(None)
    n = len(names)
    index = {name: k for k, name in enumerate(names)}
    i = 0

    def peek():
        return tokens[i]

    def take():
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr():
        acc = {}
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        while True:
            acc = add(acc, term(), sign)
            if peek() not in ("+", "-"):
                return acc
            sign = -1 if take() == "-" else 1

    def term():
        acc = atom()
        while peek() == "*":
            take()
            acc = mul(acc, atom())
        return acc

    def atom():
        tok = take()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        if tok.isdigit():
            c = Fraction(int(tok))
            if peek() == "/":
                take()
                c /= int(take())
            base = {(0,) * n: c}
        elif tok in index:
            e = [0] * n
            e[index[tok]] = 1
            base = {tuple(e): Fraction(1)}
        elif tok == "(":
            base = expr()
            if take() != ")":
                raise ValueError("missing ')'")
        else:
            raise ValueError(f"unexpected {tok!r}")
        if peek() == "^":
            take()
            base = poly_pow(base, int(take()))
        return base

    out = expr()
    if peek() is not None:
        raise ValueError(f"trailing {peek()!r}")
    return out


def parse_input(text):
    """(bidegree, [f1..f4]) of an input file's text; each f maps (i, j) to the
    coefficient of s^i t^j after setting u = v = 1, which is one-to-one on
    bi-homogeneous polynomials of a fixed bidegree."""
    bidegree = None
    fs = {}
    for raw in text.splitlines():
        key, _, rest = raw.split("#", 1)[0].partition(":")
        key = key.strip()
        if key == "degree":
            bidegree = tuple(int(x) for x in rest.split())
        elif key in ("f1", "f2", "f3", "f4"):
            fs[key] = affine(parse_poly(rest, PARAM_VARS))
    return bidegree, [fs[k] for k in ("f1", "f2", "f3", "f4")]


def parse_equation(text):
    """A polynomial in T1..T4; lines starting with '#' are comments."""
    body = " ".join(line for line in text.splitlines() if not line.lstrip().startswith("#"))
    return parse_poly(body, T_VARS)


def affine(f):
    out = {}
    for (i, _, j, _), c in f.items():
        out[(i, j)] = out.get((i, j), 0) + c
    return {e: c for e, c in out.items() if c}


def lift_affine(fs, bidegree):
    """Substitute s -> s^(L/d1), t -> t^(L/d2) with L = lcm(d1, d2)."""
    d1, d2 = bidegree
    L = lcm(d1, d2)
    k1, k2 = L // d1, L // d2
    return [{(i * k1, j * k2): c for (i, j), c in f.items()} for f in fs], (L, L)


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(a, b, p=None):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    if p:
        return {e: c % p for e, c in out.items() if c % p}
    return {e: c for e, c in out.items() if c}


def poly_pow(a, k, p=None):
    n = len(next(iter(a))) if a else 0
    out = {(0,) * n: 1}
    for _ in range(k):
        out = mul(out, a, p)
    return out


def mod(c, p):
    """Image of a rational number in GF(p)."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def reduce_mod(a, p):
    """Image of a rational polynomial in GF(p)."""
    out = {e: mod(c, p) for e, c in a.items()}
    return {e: c for e, c in out.items() if c}


def scaled(values):
    """Rational numbers times the lcm of their denominators, as ints."""
    den = 1
    for c in values:
        den = lcm(den, Fraction(c).denominator)
    return [int(c * den) for c in values]


def integral(a):
    """The polynomial times the lcm of its denominators."""
    return dict(zip(a, scaled(a.values())))


def total_degree(a):
    return max(sum(e) for e in a)


def evaluate(a, point, p=None):
    acc = 0
    for e, c in a.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        acc += term
    return acc % p if p else acc


def proportional(a, b, p=None):
    """True when a = c * b for a nonzero scalar c."""
    if not a or set(a) != set(b):
        return False
    e0 = next(iter(a))
    for e in a:
        lhs, rhs = a[e] * b[e0], b[e] * a[e0]
        if (lhs - rhs) % p if p else lhs != rhs:
            return False
    return True


_SCREEN_PRIME = (1 << 61) - 1


def rank(rows, p=None):
    """Exact rank: Gauss over GF(p); over QQ a rank mod a large prime when it
    is already the largest possible (the rational rank is never smaller),
    else fraction-free (Bareiss) elimination."""
    if p:
        return _rank([[mod(x, p) for x in row] for row in rows], p)
    m = [scaled(row) for row in rows]
    if m and _rank([[x % _SCREEN_PRIME for x in row] for row in m], _SCREEN_PRIME) == min(
            len(m), len(m[0])):
        return min(len(m), len(m[0]))
    return _rank(m)


def _rank(m, p=None):
    r = 0
    prev = 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        pv = top[c]
        if p:
            inv = pow(pv, -1, p)
            for i in range(r + 1, len(m)):
                row = m[i]
                f = row[c] * inv % p
                if f:
                    for j in range(c, ncols):
                        row[j] = (row[j] - f * top[j]) % p
        else:
            for i in range(r + 1, len(m)):
                row = m[i]
                f = row[c]
                for j in range(c + 1, ncols):
                    row[j] = (pv * row[j] - f * top[j]) // prev
                row[c] = 0
            prev = pv
        r += 1
    return r


# ---------------------------------------------------------------------------
# checks

def check_substitution(F, fs, bidegree, p=None):
    """F(f1..f4) vanishes identically: after u = v = 1 it is a polynomial of
    degree at most deg F * d1 in s and deg F * d2 in t, so vanishing on that
    many plus one values of each is a proof."""
    dF = total_degree(F)
    n1, n2 = dF * bidegree[0], dF * bidegree[1]
    if p:
        require(p > max(n1, n2), f"grid does not fit in GF({p})")
        F = reduce_mod(F, p)
    else:
        F = integral(F)
        fs = _common_integral(fs)
    for s in range(n1 + 1):
        for t in range(n2 + 1):
            image = [evaluate(f, (s, t), p) for f in fs]
            require(
                evaluate(F, image, p) == 0,
                f"equation does not vanish at the image of (s,t) = ({s},{t})",
            )


def _common_integral(fs):
    """f1..f4 times one common integer; an equation's zeros do not move."""
    flat = scaled([c for f in fs for c in f.values()])
    out = []
    for f in fs:
        out.append(dict(zip(f, flat[:len(f)])))
        flat = flat[len(f):]
    return out


def check_irreducible(F):
    """F is irreducible over QQ (sympy's factorization)."""
    import sympy

    poly = sympy.Poly.from_dict({e: sympy.Rational(str(c)) for e, c in F.items()},
                                *sympy.symbols(T_VARS))
    _, factors = poly.factor_list()
    require(
        len(factors) == 1 and factors[0][1] == 1 and factors[0][0].total_degree() == total_degree(F),
        f"equation factors as {[(str(f.as_expr()), k) for f, k in factors]}",
    )


def check_power(D, F, power, p=None):
    """D is a nonzero scalar times F^power."""
    if p:
        D, F = reduce_mod(D, p), reduce_mod(F, p)
    else:
        D, F = integral(D), integral(F)
    require(proportional(D, poly_pow(F, power, p), p),
            f"minors gcd is not a scalar times F^{power}")


def check_strand(report, expected_degree, saturation_zero=False):
    """Euler characteristic 0, expected determinant degree as stated."""
    require(report["euler_char"] == 0, f"Euler characteristic {report['euler_char']}")
    require(
        report["expected_det_degree"] == expected_degree,
        f"expected degree {report['expected_det_degree']}, not {expected_degree}",
    )
    if saturation_zero:
        require(report["sat_indeg"] == 0, f"saturation index {report['sat_indeg']}")


def matrix_columns(M):
    """Columns of M as lists of 4 * rows coefficients (block i holds the
    coefficients of a_i over the row basis), and the row basis as (s, t)
    exponents of X^q with X1 = st, X2 = s, X3 = t, X4 = 1."""
    basis = []
    for text in M["row_basis"]:
        (q,) = parse_poly(text, SEGRE_VARS)
        basis.append((q[0] + q[1], q[0] + q[2]))
    cols = []
    for j in range(M["cols"]):
        col = []
        for i in range(4):
            col.extend(Fraction(M["entries"][r][j][i]) for r in range(M["rows"]))
        cols.append(col)
    return basis, cols


def syzygy_dim(fs, d, nu, p=None):
    """dim {(b1..b4) of bidegree (nu, nu): sum b_i f_i = 0}, on the (s,t) side."""
    row_index = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i in range(nu + d + 1) for j in range(nu + d + 1))}
    cols = []
    for f in fs:
        for a in range(nu + 1):
            for b in range(nu + 1):
                col = [0] * len(row_index)
                for (i, j), c in f.items():
                    col[row_index[(i + a, j + b)]] += c
                cols.append(col)
    rows = [list(r) for r in zip(*cols)]
    return len(cols) - rank(rows, p)


def check_columns(M, fs, d, p=None):
    """Every column of M is a syzygy of f1..f4 (checked on a grid in s,t that
    proves the identity), the columns are independent, and there are as many
    as the syzygy dimension computed here."""
    nu = M["nu"]
    k = M["rows"]
    basis, cols = matrix_columns(M)
    if p:
        fs = [reduce_mod(f, p) for f in fs]
        cols = [[mod(c, p) for c in col] for col in cols]
    else:
        fs = _common_integral(fs)
        cols = [scaled(col) for col in cols]
    n = nu + d
    for s in range(n + 1):
        for t in range(n + 1):
            mono = [s ** a * t ** b for a, b in basis]
            fv = [evaluate(f, (s, t)) for f in fs]
            for j, col in enumerate(cols):
                total = 0
                for i in range(4):
                    block = col[i * k:(i + 1) * k]
                    total += fv[i] * sum(c * m for c, m in zip(block, mono) if c)
                require((total % p if p else total) == 0,
                        f"column {j} is not a syzygy at (s,t) = ({s},{t})")
    require(rank(cols, p) == len(cols), "columns of M are dependent")
    dim = syzygy_dim(fs, d, nu, p)
    require(len(cols) == dim, f"M has {len(cols)} columns, syzygy dimension is {dim}")


def evaluate_matrix(M, point, p=None):
    """M at a point, from the matrix's printed coefficients."""
    out = []
    for row in M["entries"]:
        vals = []
        for entry in row:
            v = sum(Fraction(c) * x for c, x in zip(entry, point))
            vals.append(mod(v, p) if p else v)
        out.append(vals)
    return out


def check_membership(on, r, k, expect_on=None, own_rank=None):
    """A membership answer against the expected side or a recomputed rank."""
    require(on == (r < k), f"answer {on} disagrees with rank {r} of {k} rows")
    if expect_on is not None:
        require(on == expect_on, f"reads {'ON' if on else 'OFF'}, expected "
                                 f"{'ON' if expect_on else 'OFF'}")
    if own_rank is not None:
        require(r == own_rank, f"rank {r}, recomputed rank {own_rank}")
