from fractions import Fraction
from random import Random

import pytest

from bisurf.fields import QQ, PrimeField
from bisurf.tpoly import (
    ExactDivisionError,
    LinearForm,
    TPoly,
    divides,
    exact_div,
    mvgcd,
    parse_tpoly,
    polydet,
)

from helpers import det_bareiss


def tp(text, field=QQ):
    return parse_tpoly(text, field)


def random_tpoly(rng, deg, nterms=6, field=QQ):
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        total = rng.randint(0, deg)
        for _ in range(total):
            e[rng.randint(0, 3)] += 1
        c = rng.randint(-9, 9)
        if c:
            terms[tuple(e)] = field.coerce(c)
    return TPoly(terms, field)


def test_ring_arithmetic_examples():
    assert tp("(T1+T2)^2") == tp("T1^2+2*T1*T2+T2^2")
    a = tp("3*T1*T4-T2")
    assert a * tp("0") == tp("0")
    assert a * tp("1") == a
    assert (a - a).is_zero()


def test_mixed_rings_rejected():
    with pytest.raises(ValueError):
        tp("T1") * tp("T1", PrimeField(7))


def test_exact_div_examples():
    assert exact_div(tp("T1^2-T2^2"), tp("T1-T2")) == tp("T1+T2")
    a = tp("2*T1*T3^2 - 5*T2 + 7")
    assert exact_div(a, a) == tp("1")
    with pytest.raises(ExactDivisionError):
        exact_div(tp("T1*T4-T2*T3"), tp("T1"))


def test_exact_div_inverts_multiplication():
    rng = Random(6)
    for _ in range(30):
        a = random_tpoly(rng, 3)
        b = random_tpoly(rng, 3)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a


def test_mvgcd_examples():
    assert mvgcd(tp("T1^2-T2^2"), tp("T1^2+2*T1*T2+T2^2")) == tp("T1+T2")
    a = tp("3*T1^2*T4 - 6*T2")
    assert mvgcd(a, tp("0")) == a.monic()


def test_mvgcd_recovers_constructed_factor():
    rng = Random(7)
    for _ in range(15):
        f = random_tpoly(rng, 2, 4)
        if f.is_constant():
            continue
        a = random_tpoly(rng, 2, 4)
        b = random_tpoly(rng, 2, 4)
        if a.is_zero() or b.is_zero():
            continue
        g = mvgcd(f * a, f * b)
        assert divides(f, g)


def test_mvgcd_common_factor_property():
    rng = Random(8)
    for _ in range(10):
        a, b, c = (random_tpoly(rng, 2, 3) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        assert divides(c.monic(), mvgcd(a * c, b * c))


def test_mvgcd_over_prime_field():
    gf = PrimeField(101)
    g = mvgcd(tp("T1^2-T2^2", gf), tp("T1^2+2*T1*T2+T2^2", gf))
    assert g == tp("T1+T2", gf)


def test_polydet_examples():
    quadric = polydet([[tp("T1"), tp("T2")], [tp("T3"), tp("T4")]])
    assert quadric == tp("T1*T4-T2*T3")
    n = 5
    diag = [[tp("T1") if i == j else tp("0") for j in range(n)] for i in range(n)]
    assert polydet(diag) == tp("T1^5")
    repeated = [[tp("T1"), tp("T2")], [tp("T1"), tp("T2")]]
    assert polydet(repeated).is_zero()
    with pytest.raises(ValueError):
        polydet([[tp("T1"), tp("T2")]])


def test_polydet_matches_scalar_determinant():
    rng = Random(9)
    for n in (2, 3, 5, 6):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        grid = [[TPoly.constant(x) for x in row] for row in rows]
        assert polydet(grid) == TPoly.constant(det_bareiss(rows))


def test_eval_commutes_with_det():
    rng = Random(10)
    for n in (3, 5):
        grid = [[random_tpoly(rng, 1, 3) for _ in range(n)] for _ in range(n)]
        point = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        direct = polydet(grid).eval(point)
        assert direct == det_bareiss([[e.eval(point) for e in row] for row in grid])


# The division, gcd and determinant run on int coefficients (over the
# integers for QQ, or mod p); denominators and non-unit contents are where
# that conversion can go wrong, so the polynomials below have both.

FIELDS = [QQ, PrimeField(32003), PrimeField(7)]


def rational_tpoly(rng, deg, nterms, field):
    """Random polynomial with rational coefficients sharing a non-unit factor."""
    content = Fraction(rng.choice([1, 2, 6, 10]), rng.choice([1, 3, 4]))
    terms = {}
    for _ in range(nterms):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(0, deg)):
            e[rng.randint(0, 3)] += 1
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * content
        terms[tuple(e)] = field.coerce(c)
    return TPoly(terms, field)


def test_int_kernel_regressions():
    assert exact_div(tp("T1^2"), tp("2*T1")) == tp("1/2*T1")
    assert mvgcd(tp("6*T1*T3 + 4*T2*T3"), tp("9*T1*T4 + 6*T2*T4")) == tp("T1 + 2/3*T2")
    assert mvgcd(tp("1/3*T1^2 - 1/3*T2^2"), tp("2*T1 + 2*T2")) == tp("T1 + T2")
    gf7 = PrimeField(7)
    assert exact_div(tp("T1^2", gf7), tp("2*T1", gf7)) == tp("4*T1", gf7)
    # over the integers, 2 does not divide the leading coefficient 1
    assert not divides(tp("2*T1 + T2"), tp("T1^2"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_exact_div_with_denominators(field):
    rng = Random(12)
    checked = 0
    while checked < 25:
        a = rational_tpoly(rng, 3, 5, field)
        b = rational_tpoly(rng, 2, 4, field)
        if a.is_zero() or b.is_constant():
            continue
        assert exact_div(a * b, b) == a
        with pytest.raises(ExactDivisionError):
            exact_div(a * b + TPoly.constant(1, field), b)
        checked += 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mvgcd_with_denominators(field):
    rng = Random(13)
    checked = 0
    while checked < 12:
        a, b, c = (rational_tpoly(rng, 2, 3, field) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = mvgcd(a * c, b * c)
        assert g.monic() == g
        assert divides(c.monic(), g)
        checked += 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bareiss_polydet_at_points(field):
    rng = Random(14)
    for n in (5, 6):
        grid = [[rational_tpoly(rng, 1, 3, field) for _ in range(n)] for _ in range(n)]
        det = polydet(grid)
        for _ in range(3):
            point = [field.coerce(rng.randint(-5, 5)) for _ in range(4)]
            evaluated = [[e.eval(point) for e in row] for row in grid]
            assert det.eval(point) == det_bareiss(evaluated, field.characteristic)


def test_eval_examples():
    assert tp("T1*T4-T2*T3").eval((1, 1, 1, 1)) == 0
    assert tp("T1*T4-T2*T3").eval((1, 1, 1, 2)) == 1
    assert tp("5/2").eval((9, 9, 9, 9)) == Fraction(5, 2)


def test_print_parse_round_trip():
    rng = Random(11)
    for _ in range(40):
        p = random_tpoly(rng, 3)
        assert parse_tpoly(str(p)) == p


def test_linear_form():
    lf = LinearForm([1, -2, 0, Fraction(1, 3)])
    assert str(lf) == "T1 - 2*T2 + 1/3*T4"
    assert lf.as_tpoly() == tp("T1-2*T2+1/3*T4")
    assert LinearForm([0, 0, 0, 0]).is_zero()
