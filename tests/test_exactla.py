from fractions import Fraction
from math import gcd, isqrt
from random import Random

import pytest

from bisurf import exactla
from bisurf.exactla import SCREEN_PRIME, _kernel, int_det, int_nullspace, int_rank
from bisurf.fields import is_prime

from helpers import (
    BadPrimeError,
    cleared,
    cofactor_det,
    det_bareiss,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    int_rows,
    matmul,
    modular_rank_agrees,
    reduce_mod,
)


def random_rows(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def annihilates(rows, vectors, p=0):
    """Every vector is in the kernel of rows (mod p when p > 0)."""
    product = matmul(rows, list(zip(*vectors)))
    return all((x % p if p else x) == 0 for row in product for x in row)


def copy(rows):
    return [list(row) for row in rows]


def free_columns(ns):
    """The free column of each canonical kernel vector: its last nonzero
    entry."""
    return [max(j for j, x in enumerate(v) if x) for v in ns]


def cleared_nullspace(rows, p=0):
    """The Fraction reference kernel basis, each vector times its common
    denominator, as ints: the vectors `int_nullspace` returns."""
    return [cleared(v) for v in fraction_nullspace(rows, p)]


def test_rref_examples():
    # the kernel read off the RREF: [1, 2] with pivot 0 gives (-2, 1), the
    # identity none, and zero rows the unit vectors
    assert int_rank([[1, 2], [2, 4]], 2) == 1
    assert int_nullspace([[1, 2], [2, 4]], 2) == [[-2, 1]]
    assert int_nullspace(identity(3), 3) == []
    assert int_nullspace([[0] * 5, [0] * 5], 5) == identity(5)
    assert int_rank([[0] * 5, [0] * 5], 5) == 0


def test_rref_is_reduced_and_deterministic():
    # each kernel vector is a primitive int vector, positive at its free
    # column and 0 at the other free columns, so divided by its free entry
    # the pivot columns hold the negated entries of a reduced RREF
    rng = Random(1)
    for shape in ((6, 4), (4, 6), (5, 6)):
        rows = random_rows(rng, *shape)
        ns = int_nullspace(copy(rows), shape[1])
        free = free_columns(ns)
        assert free == sorted(set(free)) and len(free) == shape[1] - int_rank(copy(rows), shape[1])
        for v, fc in zip(ns, free):
            assert v[fc] > 0 and gcd(*v) == 1 and not any(v[g] for g in free if g != fc)
            assert all(type(x) is int for x in v)
        assert annihilates(rows, ns)
        assert int_nullspace(copy(rows), shape[1]) == ns


def test_nullspace_examples():
    ns = int_nullspace([[1, 1]], 2)
    assert ns == [[-1, 1]]
    assert all(type(x) is int for x in ns[0])
    assert int_nullspace(identity(4), 4) == []
    assert len(int_nullspace([[1, 2, 3], [2, 4, 6]], 3)) == 2
    assert int_nullspace([], 2) == [[1, 0], [0, 1]]


def test_nullspace_exactness_and_rank_nullity():
    rng = Random(2)
    for _ in range(25):
        cols = rng.randint(1, 7)
        rows = random_rows(rng, rng.randint(1, 7), cols)
        ns = int_nullspace(copy(rows), cols)
        assert int_rank(copy(rows), cols) + len(ns) == cols
        assert annihilates(rows, ns)


def deficient_rows(st, entry):
    """Rows drawn from entry, then repeated rows, combinations of two rows
    and zero columns, in shuffled order."""

    @st.composite
    def draw_rows(draw):
        cols = draw(st.integers(1, 6))
        rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=5))
        for _ in range(draw(st.integers(0, 3))):
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            if draw(st.booleans()):
                rows.append(list(rows[i]))
            else:
                a, b = draw(entry), draw(entry)
                rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in rows:
                row[c] = 0
        return draw(st.permutations(rows))

    return draw_rows()


def test_rref_and_nullspace_match_fraction_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def rational_rows(draw):
        entry = st.integers(-9, 9)
        if draw(st.booleans()):
            entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
        return draw(deficient_rows(st, entry))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(rational_rows())
    def check(rows):
        cols = len(rows[0])
        pivots = fraction_rref(rows)[1]
        ns = int_nullspace(int_rows(rows), cols)
        assert ns == cleared_nullspace(rows)
        assert free_columns(ns) == [c for c in range(cols) if c not in pivots]
        assert all(type(x) is int for v in ns for x in v)
        assert annihilates(rows, ns)

    check()


@pytest.mark.parametrize("p", [7, 32003])
def test_gf_rref_and_nullspace_match_sympy(p):
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    st = hypothesis.strategies
    K = GF(p)

    def residues(matrix):
        return [[K.to_int(x) % p for x in row] for row in matrix.to_list()]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(deficient_rows(st, st.integers(0, p - 1)))
    def check(rows):
        rows = [[x % p for x in row] for row in rows]
        cols = len(rows[0])
        m = DomainMatrix([[K(x) for x in row] for row in rows], (len(rows), cols), K)
        reduced, expected_pivots = m.rref()
        ns = int_nullspace(copy(rows), cols, p)
        assert free_columns(ns) == [c for c in range(cols) if c not in expected_pivots]
        # m.nullspace() leaves its vectors unscaled over GF(p); the basis
        # read off the RREF sets each free variable to 1
        assert ns == residues(reduced.nullspace_from_rref(expected_pivots))
        assert len(ns) == cols - len(expected_pivots) == cols - int_rank(copy(rows), cols, p)
        assert all(type(x) is int and 0 <= x < p for v in ns for x in v)
        assert annihilates(rows, ns, p)

    check()


def _replays(monkeypatch):
    """A list that grows by one for each Dixon step of _kernel."""
    steps = []
    replay = exactla._replay

    def counted(record, rhs, p):
        steps.append(p)
        return replay(record, rhs, p)

    monkeypatch.setattr(exactla, "_replay", counted)
    return steps


def test_screen_prime_is_the_largest_below_2_30():
    assert is_prime(SCREEN_PRIME)
    assert not any(is_prime(n) for n in range(SCREEN_PRIME + 2, 2**30, 2))


def test_kernel_examples(monkeypatch):
    q = SCREEN_PRIME
    steps = _replays(monkeypatch)
    assert _kernel(identity(3), 3) == ([0, 1, 2], [])
    # dimension 2: read off the RREF mod q, certified over QQ
    assert _kernel([[1, 1, 1]], 3) == ([0], cleared_nullspace([[1, 1, 1]]))
    assert _kernel([[1, 1, 1]], 3, 7) == ([0], [[6, 1, 0], [6, 0, 1]])
    assert _kernel([[1, 6]], 2, 7) == ([0], [[1, 1]])
    assert not steps  # nothing is lifted over GF(p), for full rank or above dimension 1
    # one-dimensional mod q, zero over QQ: the Hadamard bound of the pivot
    # row is 1, so the failed certificate at q ends it; with large pivot
    # rows the residual of the first step is not divisible by q
    assert _kernel([[1, 0], [0, q]], 2) == ([0], [])
    a, b = 2**64 + 13, 3**40
    assert _kernel([[a, b], [q * 5, q * 7]], 2) == ([0], [])
    assert len(steps) == 1
    # q divides kernel entries: the kernel mod q is (1, 0, 0), so the free
    # column is the first one, and the lift gives (1, q, q) over QQ
    rows = [[q, -1, 0], [0, 1, -1]]
    assert _kernel(rows, 3) == ([1, 2], cleared_nullspace(rows))
    assert _kernel(rows, 3)[1] == [[1, q, q]]
    assert _kernel([[1, -q]], 2) == ([0], [[q, 1]])
    # the free column mod q is a pivot over QQ: the lift, 1 at column 0,
    # gives (1, -q), which leaves as the primitive canonical vector (-1, q)
    assert _kernel([[q, 1]], 2) == ([1], [[-1, q]]) and int_nullspace([[q, 1]], 2) == [[-1, q]]
    # the kernel (1, n) with n near 2^200 takes many Dixon steps
    steps.clear()
    n = 2**200 + 235
    assert _kernel([[n, -1], [2 * n, -2]], 2) == ([0], [[1, n]])
    assert len(steps) >= 10
    # dimension 2 mod q: a free column mod q that is a pivot over QQ, or an
    # entry q + 1 that reconstructs to 1, fails the certificate
    assert _kernel([[q, 1, 1]], 3) == ([1], None)
    rows = [[1, 2, -(q + 1)], [2, 4, -2 * (q + 1)], [3, 6, -3 * (q + 1)]]
    assert _kernel(copy(rows), 3) == ([0], None)


def test_kernel_matches_nullspace_on_large_entries():
    # differential: corank-one int matrices with entries up to 2^64, so the
    # kernel's numerators take several Dixon steps, against the Fraction
    # kernel over QQ
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.integers(-(2**64), 2**64)

    @st.composite
    def corank_one(draw):
        cols = draw(st.integers(2, 7))
        rows = draw(st.lists(st.lists(big, min_size=cols, max_size=cols),
                             min_size=cols - 1, max_size=cols - 1))
        picks = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, cols - 2), st.integers(0, cols - 2))
        for a, b, i, j in draw(st.lists(picks, max_size=3)):
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        return draw(st.permutations(rows))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(corank_one())
    def check(rows):
        cols = len(rows[0])
        canonical = fraction_nullspace(rows)
        expected = [cleared(v) for v in canonical]
        before = copy(rows)
        pivots, kernel = _kernel(rows, cols)
        dim = cols - len(pivots)
        assert dim >= len(expected)
        # above dimension 1 the kernel may be left uncertified (None), and
        # must not be when the pivots agree with QQ's and every entry of
        # the kernel is within the reconstruction bound
        bound = isqrt(SCREEN_PRIME // 2)
        fits = free_columns(expected) == [c for c in range(cols) if c not in pivots] and all(
            abs(x.numerator) <= bound and x.denominator <= bound for v in canonical for x in v)
        assert kernel == expected or (dim >= 2 and not fits and kernel is None)
        if kernel:
            assert all(type(x) is int for x in kernel[0])
        assert rows == before  # the lift reads the rows over QQ as given

    check()


def test_nullspace_matches_fraction_oracle_on_large_entries():
    # differential over QQ and GF(32003): int matrices of corank 0-3 with
    # entries up to 2^64, dependent rows added and some rows multiplied by
    # SCREEN_PRIME, so that the shape rule (at least two more columns than
    # rows), the lift (one free column mod q), the certified kernel (more
    # mod q) and the RREF after it all run
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    big = st.integers(-(2**64), 2**64)

    @st.composite
    def corank_at_most_3(draw):
        cols = draw(st.integers(1, 7))
        rank = max(cols - draw(st.integers(0, 3)), 0)
        rows = draw(st.lists(st.lists(big, min_size=cols, max_size=cols),
                             min_size=rank, max_size=rank))
        picks = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, max(rank - 1, 0)), st.integers(0, max(rank - 1, 0)))
        for a, b, i, j in draw(st.lists(picks, max_size=3 if rank else 0)):
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        for i in draw(st.sets(st.integers(0, len(rows)), max_size=2)):
            if i < len(rows):
                rows[i] = [SCREEN_PRIME * x for x in rows[i]]
        return cols, draw(st.permutations(rows))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(corank_at_most_3(), st.sampled_from([0, 32003]))
    def check(drawn, p):
        cols, rows = drawn
        if p:
            rows = [[x % p for x in row] for row in rows]
        expected = cleared_nullspace(rows, p) if rows else identity(cols)
        assert int_nullspace(copy(rows), cols, p) == expected

    check()


@pytest.mark.parametrize("p", [0, 7])
def test_nullspace_runs_at_most_one_forward_elimination(monkeypatch, p):
    # over GF(p) the RREF finishes the echelon form _kernel left; over
    # QQ the elimination mod SCREEN_PRIME runs only when cols - rows <= 1
    calls = []
    forward = exactla._forward_gf

    def counted(rows, cols, q, record=None):
        calls.append(q)
        return forward(rows, cols, q, record)

    monkeypatch.setattr(exactla, "_forward_gf", counted)
    # kernel dimension 0, 1 and 2 on three columns, then a wide row
    cases = [identity(3), [[1, 1, 0], [0, 1, 1]], [[1, 2, 3], [2, 4, 6]], [[1, 1, 1, 1]]]
    for rows in cases:
        cols = len(rows[0])
        calls.clear()
        ns = int_nullspace(copy(rows), cols, p)
        assert ns == fraction_nullspace(rows, p)
        assert calls == ([p] if p else [SCREEN_PRIME] * (cols - len(rows) <= 1))


def _calls(monkeypatch, name):
    """A list that receives the column count of each call of exactla's name."""
    calls = []
    real = getattr(exactla, name)

    def spy(rows, cols):
        calls.append(cols)
        return real(rows, cols)

    monkeypatch.setattr(exactla, name, spy)
    return calls


def test_nullspace_with_an_entry_that_reconstructs_wrong(monkeypatch):
    # rank 1, kernel (-2, 1, 0) and (q + 1, 0, 1): mod q the second vector
    # reconstructs to (1, 0, 1), which the certificate rejects, so the RREF
    # over QQ runs
    q = SCREEN_PRIME
    rows = [[k, 2 * k, -k * (q + 1)] for k in (1, 2, 3)]
    fallbacks = _calls(monkeypatch, "_rref_int")
    kernel = int_nullspace(copy(rows), 3)
    assert kernel == fraction_nullspace(rows) and kernel[1] == [q + 1, 0, 1]
    assert fallbacks == [3]
    fallbacks.clear()
    assert int_nullspace([[1, 2, 3], [2, 4, 6], [3, 6, 9]], 3) == fraction_nullspace([[1, 2, 3]])
    assert fallbacks == []


def test_every_qq_route_returns_the_primitive_canonical_vectors(monkeypatch):
    # the same kernels through each QQ route of int_nullspace: a 3 x 4 of
    # rank 2 takes the certified reconstruction (dimension 2 mod q), a 4 x 5
    # with entries up to 2^64 the Dixon lift (dimension 1), and either with
    # all rows but the last times SCREEN_PRIME, an unlucky prime for it,
    # the _rref_int fallback: its rank mod q drops, and the extra kernel
    # vectors mod q fail the certificate, while its kernel over QQ is the same
    q = SCREEN_PRIME
    steps = _replays(monkeypatch)
    fallbacks = _calls(monkeypatch, "_rref_int")
    rng = Random(7)
    two = random_rows(rng, 2, 4)
    routes = {"certified": two + [[3 * x - 2 * y for x, y in zip(*two)]],
              "lift": random_rows(rng, 4, 5, -(2**64), 2**64)}
    for route, rows in routes.items():
        expected = cleared_nullspace(rows)
        assert len(expected) == (2 if route == "certified" else 1)
        for unlucky in (False, True):
            drawn = [[q * x for x in row] for row in rows[:-1]] + [rows[-1]] if unlucky else rows
            steps.clear()
            fallbacks.clear()
            ns = int_nullspace(copy(drawn), len(rows[0]))
            assert ns == expected, (route, unlucky)
            assert all(type(x) is int for v in ns for x in v)
            for v, fc in zip(ns, free_columns(ns)):
                assert v[fc] > 0 and gcd(*v) == 1
            assert fallbacks == ([len(rows[0])] if unlucky else [])
            assert bool(steps) == (route == "lift" and not unlucky)


def test_rank_certifies_dependencies(monkeypatch):
    # r3 - r1 - r2 vanishes mod q but not over QQ; the exact dependencies
    # certify a lower rank without fraction-free elimination, also when the
    # screen swaps rows (a zero first entry) and on the transpose
    q = SCREEN_PRIME
    fallbacks = _calls(monkeypatch, "_forward_int")
    assert int_rank([[1, 2, 3], [4, 5, 6], [5, 7, 9 + q]], 3) == 3
    assert fallbacks == [3]
    fallbacks.clear()
    for rows, rank in (([[1, 2, 3], [4, 5, 6], [5, 7, 9]], 2),
                       ([[0, 1, 1], [1, 1, 0], [1, 2, 1], [2, 3, 1]], 2),
                       ([[0, 0, 2], [0, 3, 1], [5, 1, 1], [0, 3, 3], [5, 4, 6]], 3),
                       ([[0, 1], [0, 2], [0, 3]], 1)):
        assert int_rank(copy(rows), len(rows[0])) == rank == fraction_rank(rows)
        assert int_rank([list(col) for col in zip(*rows)], len(rows)) == rank
    assert fallbacks == []


def test_kernel_and_rank_match_fraction_oracle_on_small_entries():
    # differential over QQ and GF(32003): rank-deficient matrices with small
    # entries, combinations of at most cols - 1 random rows, so that
    # kernels of dimension 2 or more and rank deficits are read off one
    # elimination mod q and certified
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.integers(-3, 3)

    @st.composite
    def deficient(draw):
        cols = draw(st.integers(1, 7))
        rank = draw(st.integers(0, cols - 1))
        gens = draw(st.lists(st.lists(small, min_size=cols, max_size=cols), min_size=rank, max_size=rank))
        weights = draw(st.lists(st.lists(small, min_size=rank, max_size=rank), min_size=1, max_size=8))
        return cols, [[sum(w * g[j] for w, g in zip(ws, gens)) for j in range(cols)] for ws in weights]

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(deficient(), st.sampled_from([0, 32003]))
    def check(drawn, p):
        cols, rows = drawn
        if p:
            rows = [[x % p for x in row] for row in rows]
        assert int_nullspace(copy(rows), cols, p) == cleared_nullspace(rows, p)
        assert int_rank(copy(rows), cols, p) == fraction_rank(rows, p)

    check()


def test_det_examples():
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss(identity(5)) == 1
    with pytest.raises(ValueError):
        det_bareiss([[0] * 3, [0] * 3])


def test_det_matches_cofactor_up_to_5():
    rng = Random(3)
    for n in range(1, 6):
        for _ in range(8):
            rows = random_rows(rng, n, n, -5, 5)
            assert det_bareiss(rows) == cofactor_det(rows)


def test_det_with_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_bareiss(rows) == Fraction(1, 14) - Fraction(1, 15)


def test_int_det_matches_det_bareiss():
    # the determinant the minors gcd reads its pencils with, on sizes 0 to
    # 7, small and 120-bit entries, zero pivots that need a row swap (the
    # first, and one that appears mid-way), and singular matrices
    rng = Random(16)
    for n in range(8):
        for bits in (4, 120):
            rows = random_rows(rng, n, n, -(2**bits), 2**bits)
            assert int_det(copy(rows)) == det_bareiss(rows)
            if n >= 2:
                rows[0][0] = 0
                assert int_det(copy(rows)) == det_bareiss(rows)
            if n >= 3:
                rows[-1] = [3 * x - y for x, y in zip(rows[0], rows[1])]
                assert int_det(copy(rows)) == 0 == det_bareiss(rows)
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2, 3], [2, 4, 5], [1, 1, 1]]) == -1  # a zero second pivot


def test_rank_matches_independent_gaussian():
    rng = Random(4)
    for _ in range(25):
        cols = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 8), cols)
        assert int_rank(copy(rows), cols) == fraction_rank(rows)


def test_gf_rref_and_nullspace():
    p = 7
    rows = [[1, 2, 3], [4, 5, 6], [5, 0, 2]]
    pivots = _kernel(copy(rows), 3, p)[0]
    ns = int_nullspace(copy(rows), 3, p)
    assert len(pivots) == int_rank(copy(rows), 3, p) and len(pivots) + len(ns) == 3
    assert annihilates(rows, ns, p)
    assert det_bareiss(identity(3), p) == 1


def test_reduce_mod_and_bad_prime():
    rows = [[Fraction(1, 3), 2], [1, 1]]
    assert reduce_mod(rows, 5)[0][0] == pow(3, 3, 5)  # 1/3 mod 5
    with pytest.raises(BadPrimeError):
        reduce_mod(rows, 3)


def test_modular_rank_cross_check():
    rng = Random(5)
    for _ in range(10):
        cols = rng.randint(2, 6)
        rows = random_rows(rng, rng.randint(2, 6), cols)
        assert modular_rank_agrees(rows, cols, 3, Random(9))


# _forward_gf's two strategies: list rows and packed int rows

LARGEST_PRIME = 2**62 - 57  # the largest prime PrimeField accepts
STRATEGY_PRIMES = [2, 7, 32003, SCREEN_PRIME, LARGEST_PRIME]


def test_largest_prime():
    assert is_prime(LARGEST_PRIME)
    assert not any(is_prime(n) for n in range(LARGEST_PRIME + 2, 2**62, 2))


def both_strategies(rows, cols, p):
    """(pivots, echelon rows, record) of each strategy on a copy of rows."""
    out = []
    for forward in (exactla._forward_lists, exactla._forward_packed):
        echelon, record = copy(rows), []
        out.append((forward(echelon, cols, p, record), echelon, record))
    return out


def assert_strategies_agree(rows, cols, p):
    lists, packed = both_strategies(rows, cols, p)
    assert packed == lists
    pivots, echelon, _ = lists
    for k, c in enumerate(pivots):
        assert echelon[k][:c + 1] == [0] * c + [1]
    assert all(row == [0] * cols for row in echelon[len(pivots):])


def drawn_rows(rng, n, cols, p, kind):
    """An n x cols matrix of residues mod p: dense, 10% nonzero, or dense
    with its second half repeated rows and combinations of the first two,
    and two zero columns."""
    density = 0.1 if kind == "sparse" else 1.0
    rows = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(n)]
    if kind == "deficient":
        for i in range(max(n // 2, 2), n):
            a, b = rng.randrange(p), rng.randrange(p)
            rows[i] = list(rows[i - n // 2]) if i % 2 else [
                (a * x + b * y) % p for x, y in zip(rows[0], rows[1])]
        for c in rng.sample(range(cols), min(2, cols)):
            for row in rows:
                row[c] = 0
    return rows


@pytest.mark.parametrize("p", STRATEGY_PRIMES)
def test_forward_strategies_agree_around_the_threshold(p):
    rng = Random(p)
    sides = (15, 16, 17, exactla.PACKED_MIN - 1, exactla.PACKED_MIN, exactla.PACKED_MIN + 1)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (16, 40), (40, 16)] + [
        (n, m) for n in sides for m in sides]
    for n, cols in shapes:
        for kind in ("dense", "sparse", "deficient"):
            assert_strategies_agree(drawn_rows(rng, n, cols, p, kind), cols, p)
    assert_strategies_agree([[1] * 17 for _ in range(17)], 17, p)


def growth_rows(n, p):
    """Every row below a pivot has residue 1 in the pivot column, and every
    scaled pivot row reads 1, p-1, ..., p-1: each update adds (p-1)^2 to
    every slot, n-1 times on the last row, the most a slot can gain."""
    s = [[1]]
    for _ in range(n - 1):
        s = [[1] + [-1] * len(s)] + [[1] + [x - 1 for x in row] for row in s]
    return [[x % p for x in row] for row in s]


@pytest.mark.parametrize("p", STRATEGY_PRIMES)
def test_packed_slots_hold_the_largest_growth(p):
    # 19 updates of (p-1)^2 overflow 2·bits(p) + 1 bits (rounded up to
    # bytes) for every p >= 7; the bits(min(rows, cols)) term holds them
    rows = growth_rows(20, p)
    record = both_strategies(rows, 20, p)[0][2]
    assert all(v == 1 for _, _, ops in record for _, v in ops)
    assert_strategies_agree(rows, 20, p)


def test_forward_strategies_agree_on_drawn_matrices():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def residue_rows(draw):
        p = draw(st.sampled_from(STRATEGY_PRIMES))
        n, cols = draw(st.integers(0, 20)), draw(st.integers(0, 20))
        entry = st.integers(0, p - 1)
        if draw(st.booleans()):
            entry = st.one_of(st.just(0), entry)
        rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                             min_size=n, max_size=n))
        if rows:
            for _ in range(draw(st.integers(0, 3))):
                rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
        if cols:
            for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
                for row in rows:
                    row[c] = 0
        return p, cols, draw(st.permutations(rows))

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(residue_rows())
    def check(drawn):
        p, cols, rows = drawn
        assert_strategies_agree(rows, cols, p)

    check()
