from fractions import Fraction
from random import Random

import pytest

from bisurf.exactla import ExactMatrix, nullspace, rank, rref
from bisurf.fields import PrimeField

from helpers import (
    BadPrimeError,
    cofactor_det,
    det_bareiss,
    fraction_nullspace,
    fraction_rank,
    fraction_rref,
    modular_rank_agrees,
    reduce_mod,
)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return ExactMatrix(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_examples():
    _, r, _ = rref(ExactMatrix([[1, 2], [2, 4]]))
    assert r == 1
    ident = ExactMatrix.identity(3)
    red, r, pivots = rref(ident)
    assert r == 3 and red == ident and pivots == (0, 1, 2)
    _, r, _ = rref(ExactMatrix.zero(2, 5))
    assert r == 0


def test_rref_is_reduced_and_deterministic():
    rng = Random(1)
    m = random_matrix(rng, 6, 4)
    red, r, pivots = rref(m)
    for k, c in enumerate(pivots):
        assert red.entries[k][c] == 1
        for i in range(red.rows):
            if i != k:
                assert red.entries[i][c] == 0
    assert rref(m) == (red, r, pivots)


def test_nullspace_examples():
    ns = nullspace(ExactMatrix([[1, 1]]))
    assert ns.entries == ((Fraction(-1),), (Fraction(1),))
    assert nullspace(ExactMatrix.identity(4)).cols == 0
    assert nullspace(ExactMatrix([[1, 2, 3], [2, 4, 6]])).cols == 2


def test_nullspace_exactness_and_rank_nullity():
    rng = Random(2)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        ns = nullspace(m)
        assert rank(m) + ns.cols == m.cols
        if ns.cols:
            assert (m @ ns).is_zero()


def test_rref_and_nullspace_match_fraction_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def deficient(draw):
        """Small int or Fraction rows, then repeated rows, combinations of
        two rows and zero columns, in shuffled order."""
        entry = st.integers(-9, 9)
        if draw(st.booleans()):
            entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
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

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(deficient())
    def check(rows):
        m = ExactMatrix(rows)
        red, r, pivots = rref(m)
        expected, expected_pivots = fraction_rref(rows)
        assert [list(row) for row in red.entries] == expected
        assert list(pivots) == expected_pivots and r == len(expected_pivots)
        ns = nullspace(m)
        assert [list(col) for col in zip(*ns.entries)] == fraction_nullspace(rows)
        assert ns.cols == m.cols - r
        if ns.cols:
            assert (m @ ns).is_zero()

    check()


def test_det_examples():
    assert det_bareiss(ExactMatrix([[1, 2], [3, 4]])) == -2
    assert det_bareiss(ExactMatrix([[1, 2], [2, 4]])) == 0
    assert det_bareiss(ExactMatrix.identity(5)) == 1
    with pytest.raises(ValueError):
        det_bareiss(ExactMatrix.zero(2, 3))


def test_det_matches_cofactor_up_to_5():
    rng = Random(3)
    for n in range(1, 6):
        for _ in range(8):
            m = random_matrix(rng, n, n, -5, 5)
            assert det_bareiss(m) == cofactor_det([list(r) for r in m.entries])


def test_det_with_rational_entries():
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]])
    assert det_bareiss(m) == Fraction(1, 14) - Fraction(1, 15)


def test_rank_matches_independent_gaussian():
    rng = Random(4)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(m) == fraction_rank([list(r) for r in m.entries])


def test_gf_rref_and_nullspace():
    gf = PrimeField(7)
    m = ExactMatrix([[1, 2, 3], [4, 5, 6], [5, 0, 2]], gf)
    red, r, pivots = rref(m)
    ns = nullspace(m)
    assert r + ns.cols == 3
    if ns.cols:
        assert (m @ ns).is_zero()
    assert det_bareiss(ExactMatrix.identity(3, gf)) == gf.one


def test_reduce_mod_and_bad_prime():
    m = ExactMatrix([[Fraction(1, 3), 2], [1, 1]])
    mp = reduce_mod(m, 5)
    assert mp.entries[0][0] == pow(3, 3, 5)  # 1/3 mod 5
    with pytest.raises(BadPrimeError):
        reduce_mod(m, 3)


def test_modular_rank_cross_check():
    rng = Random(5)
    for _ in range(10):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6))
        assert modular_rank_agrees(m, 3, Random(9))
