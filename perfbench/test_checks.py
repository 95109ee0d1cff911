"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

P = 32003
D2_TEXT = (HERE.parent / "inputs" / "d2_example.ex").read_text(encoding="utf-8")
D2_REF = checks.parse_equation((HERE / "refs" / "d2_example.txt").read_text(encoding="utf-8"))
SEGRE_EQ = checks.parse_equation("T1*T4 - T2*T3")


def corrupted(poly):
    """The same polynomial with one coefficient changed by one."""
    out = dict(poly)
    e = sorted(out)[len(out) // 2]
    out[e] += 1
    return out


def test_substitution_check():
    bidegree, fs = checks.parse_input(D2_TEXT)
    checks.check_substitution(D2_REF, fs, bidegree)
    checks.check_substitution(checks.reduce_mod(D2_REF, P), fs, bidegree, P)
    with pytest.raises(CheckFailed):
        checks.check_substitution(corrupted(D2_REF), fs, bidegree)
    with pytest.raises(CheckFailed):
        checks.check_substitution(corrupted(checks.reduce_mod(D2_REF, P)), fs, bidegree, P)


def test_irreducibility_check():
    pytest.importorskip("sympy")
    checks.check_irreducible(SEGRE_EQ)
    with pytest.raises(CheckFailed):
        checks.check_irreducible(checks.mul(SEGRE_EQ, checks.parse_equation("T1 + T2")))
    with pytest.raises(CheckFailed):
        checks.check_irreducible(checks.poly_pow(SEGRE_EQ, 2))


def test_power_check():
    D = {e: 3 * c for e, c in checks.poly_pow(SEGRE_EQ, 3).items()}
    checks.check_power(D, SEGRE_EQ, 3)
    checks.check_power(D, SEGRE_EQ, 3, P)
    for wrong in (2, 4):
        with pytest.raises(CheckFailed):
            checks.check_power(D, SEGRE_EQ, wrong)
    with pytest.raises(CheckFailed):
        checks.check_power(corrupted(D), SEGRE_EQ, 3)
    with pytest.raises(CheckFailed):
        checks.check_power(corrupted(D), SEGRE_EQ, 3, P)


def test_reduction_mod_p_check():
    Fp = {e: 5 * c % P for e, c in checks.reduce_mod(D2_REF, P).items()}
    assert checks.proportional(Fp, checks.reduce_mod(D2_REF, P), P)
    assert not checks.proportional(corrupted(Fp), checks.reduce_mod(D2_REF, P), P)


def test_strand_check():
    good = {"euler_char": 0, "expected_det_degree": 8, "sat_indeg": 0}
    checks.check_strand(good, 8, saturation_zero=True)
    for bad, degree in ((dict(good, euler_char=1), 8), (good, 7),
                        (dict(good, sat_indeg=1), 8)):
        with pytest.raises(CheckFailed):
            checks.check_strand(bad, degree, saturation_zero=True)


@pytest.fixture(scope="module")
def d2_matrix():
    from bisurf import SegreIdeal, parse_parametrization, representation_matrix

    ideal = SegreIdeal.from_parametrization(parse_parametrization(D2_TEXT))
    return representation_matrix(ideal, 2)


def test_column_check(d2_matrix):
    _, fs = checks.parse_input(D2_TEXT)
    M = d2_matrix.to_json_dict()
    checks.check_columns(M, fs, 2)
    checks.check_columns(M, fs, 2, P)
    bad = dict(M, entries=[[list(e) for e in row] for row in M["entries"]])
    entry = bad["entries"][0][0]
    entry[0] = str(Fraction(entry[0]) + 1)
    with pytest.raises(CheckFailed):
        checks.check_columns(bad, fs, 2)
    fewer = dict(M, cols=M["cols"] - 1, entries=[row[:-1] for row in M["entries"]])
    with pytest.raises(CheckFailed, match="syzygy dimension"):
        checks.check_columns(fewer, fs, 2)


def test_membership_check(d2_matrix):
    from bisurf import membership

    M = d2_matrix.to_json_dict()
    _, fs = checks.parse_input(D2_TEXT)
    on_point = [checks.evaluate(f, (3, -2)) for f in fs]
    off_point = [1, 2, 3, 5]
    assert checks.evaluate(D2_REF, off_point) != 0
    for point, expect in ((on_point, True), (off_point, False)):
        on, r = membership(d2_matrix, point)
        own = checks.rank(checks.evaluate_matrix(M, point))
        checks.check_membership(on, r, M["rows"], expect, own)
        with pytest.raises(CheckFailed):
            checks.check_membership(on, r + 1, M["rows"], None, own)
        with pytest.raises(CheckFailed):
            checks.check_membership(not on, r, M["rows"], None, None)
        with pytest.raises(CheckFailed):
            checks.check_membership(not on, r + (1 if expect else -1), M["rows"], expect, None)


def test_rank_exact_over_qq():
    rows = [[1, 2, 3], [2, 4, 6], [Fraction(1, 2), 1, Fraction(3, 2)], [0, 1, 1]]
    assert checks.rank(rows) == 2
    assert checks.rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert checks.rank([[2, 4], [1, 2]], 3) == 1
