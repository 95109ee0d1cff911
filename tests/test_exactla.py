from fractions import Fraction
from random import Random

import pytest

from bisurf import exactla
from bisurf.exactla import SCREEN_PRIME, _kernel_line, int_nullspace, int_rank
from bisurf.fields import is_prime

from helpers import (
    BadPrimeError,
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


def test_rref_examples():
    # the kernel read off the RREF: [1, 2] with pivot 0 gives (-2, 1), the
    # identity none, and zero rows the unit vectors
    assert int_rank([[1, 2], [2, 4]], 2) == 1
    assert int_nullspace([[1, 2], [2, 4]], 2) == [[-2, 1]]
    assert int_nullspace(identity(3), 3) == []
    assert int_nullspace([[0] * 5, [0] * 5], 5) == identity(5)
    assert int_rank([[0] * 5, [0] * 5], 5) == 0


def test_rref_is_reduced_and_deterministic():
    # each kernel vector is 1 at its free column and 0 at the other free
    # columns, so the pivot columns hold the negated entries of a reduced RREF
    rng = Random(1)
    for shape in ((6, 4), (4, 6), (5, 6)):
        rows = random_rows(rng, *shape)
        ns = int_nullspace(copy(rows), shape[1])
        free = free_columns(ns)
        assert free == sorted(set(free)) and len(free) == shape[1] - int_rank(copy(rows), shape[1])
        for v, fc in zip(ns, free):
            assert v[fc] == 1 and not any(v[g] for g in free if g != fc)
        assert annihilates(rows, ns)
        assert int_nullspace(copy(rows), shape[1]) == ns


def test_nullspace_examples():
    ns = int_nullspace([[1, 1]], 2)
    assert ns == [[Fraction(-1), Fraction(1)]]
    assert all(type(x) is Fraction for x in ns[0])
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
        assert ns == fraction_nullspace(rows)
        assert free_columns(ns) == [c for c in range(cols) if c not in pivots]
        assert all(type(x) is Fraction for v in ns for x in v)
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
    """A list that grows by one for each Dixon step of _kernel_line."""
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


def test_kernel_line_examples(monkeypatch):
    q = SCREEN_PRIME
    steps = _replays(monkeypatch)
    assert _kernel_line(identity(3), 3) == ([0, 1, 2], [])
    assert _kernel_line([[1, 1, 1]], 3) == ([0], None)
    assert _kernel_line([[1, 1, 1]], 3, 7) == ([0], None)
    assert _kernel_line([[1, 6]], 2, 7) == ([0], [[1, 1]])
    assert not steps  # nothing is lifted over GF(p) or for full rank
    # one-dimensional mod q, zero over QQ: the Hadamard bound of the pivot
    # row is 1, so the failed certificate at q ends it; with large pivot
    # rows the residual of the first step is not divisible by q
    assert _kernel_line([[1, 0], [0, q]], 2) == ([0], [])
    a, b = 2**64 + 13, 3**40
    assert _kernel_line([[a, b], [q * 5, q * 7]], 2) == ([0], [])
    assert len(steps) == 1
    # q divides kernel entries: the kernel mod q is (1, 0, 0), so the free
    # column is the first one, and the lift gives (1, q, q) over QQ
    rows = [[q, -1, 0], [0, 1, -1]]
    assert _kernel_line(rows, 3) == ([1, 2], fraction_nullspace(rows))
    assert _kernel_line(rows, 3)[1] == [[Fraction(1, q), 1, 1]]
    assert _kernel_line([[1, -q]], 2) == ([0], [[q, 1]])
    # the kernel (1, n) with n near 2^200 takes many Dixon steps
    steps.clear()
    n = 2**200 + 235
    assert _kernel_line([[n, -1], [2 * n, -2]], 2) == ([0], [[Fraction(1, n), 1]])
    assert len(steps) >= 10


def test_kernel_line_matches_nullspace_on_large_entries():
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
        expected = fraction_nullspace(rows)
        before = copy(rows)
        pivots, kernel = _kernel_line(rows, cols)
        dim = cols - len(pivots)
        assert dim >= len(expected)
        assert kernel == (expected if dim <= 1 else None)
        if kernel:
            assert all(type(x) is Fraction for x in kernel[0])
        assert rows == before  # the lift reads the rows over QQ as given

    check()


def test_nullspace_matches_fraction_oracle_on_large_entries():
    # differential over QQ and GF(32003): int matrices of corank 0-3 with
    # entries up to 2^64, dependent rows added and some rows multiplied by
    # SCREEN_PRIME, so that the shape rule (at least two more columns than
    # rows), the lift (one free column mod q) and the RREF after
    # _kernel_line (more mod q) all run
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
        expected = fraction_nullspace(rows, p) if rows else identity(cols)
        assert int_nullspace(copy(rows), cols, p) == expected

    check()


@pytest.mark.parametrize("p", [0, 7])
def test_nullspace_runs_at_most_one_forward_elimination(monkeypatch, p):
    # over GF(p) the RREF finishes the echelon form _kernel_line left; over
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


def test_rank_matches_independent_gaussian():
    rng = Random(4)
    for _ in range(25):
        cols = rng.randint(1, 8)
        rows = random_rows(rng, rng.randint(1, 8), cols)
        assert int_rank(copy(rows), cols) == fraction_rank(rows)


def test_gf_rref_and_nullspace():
    p = 7
    rows = [[1, 2, 3], [4, 5, 6], [5, 0, 2]]
    pivots = _kernel_line(copy(rows), 3, p)[0]
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
