"""Property tests of the term-dict kernel behind BiHomPoly and TPoly, over
the rationals and over GF(32003), and of tpoly's division and gcd on int
coefficients, also over GF(7)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from bisurf._expr import parse_expression
from bisurf.biparam import PARAM_VARS, BiHomPoly
from bisurf.fields import QQ, PrimeField
from bisurf.tpoly import ExactDivisionError, TPoly, _div, _gcd, _ints, _mul, parse_tpoly

from helpers import primitive

FIELDS = [QQ, PrimeField(32003)]
COEFFS = st.one_of(st.just(0), st.fractions(-40, 40, max_denominator=7))


def biform(data, field, n):
    """Random bidegree (n,n) form; zero coefficients leave terms out."""
    terms = {
        (i, n - i, j, n - j): field.coerce(data.draw(COEFFS))
        for i in range(n + 1)
        for j in range(n + 1)
    }
    return BiHomPoly((n, n), terms, field)


def naive_eval(f, point):
    acc = f.field.zero
    for e, c in f.terms.items():
        for x, k in zip(point, e):
            c = c * x**k
        acc = acc + c
    return acc


def parsed(text, names, field):
    return {e: field.coerce(c) for e, c in parse_expression(text, names).items()}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_commutes_with_transfers(field, data):
    n = data.draw(st.integers(0, 3))
    a, c = biform(data, field, n), biform(data, field, n)
    b = biform(data, field, data.draw(st.integers(0, 3)))
    # the same terms as TPolys: both containers run one kernel
    ta, tb, tc = (TPoly(f.terms, field) for f in (a, b, c))
    assert TPoly((a * b).terms, field) == ta * tb
    assert TPoly((a + c).terms, field) == ta + tc
    assert TPoly((a - c).terms, field) == ta - tc
    assert (a - c) + c == a and (a + (-a)).is_zero()
    # evaluation is an independent oracle for every operation
    point = [field.coerce(data.draw(st.integers(-9, 9))) for _ in range(4)]
    k = field.coerce(data.draw(COEFFS))
    # over GF(p) the oracle side is an int congruent to the value, and eval
    # must give the residue itself
    red = field.coerce
    va, vb, vc = a.eval(point), b.eval(point), c.eval(point)
    assert va == red(naive_eval(a, point))
    assert (a * b).eval(point) == red(va * vb)
    assert (a - c).eval(point) == red(va - vc) and (a + c).eval(point) == red(va + vc)
    assert (-a).eval(point) == red(-va) and a.scale(k).eval(point) == red(va * k)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_print_parse_round_trip(field, data):
    a = biform(data, field, data.draw(st.integers(0, 3)))
    assert BiHomPoly(a.bidegree, parsed(str(a), PARAM_VARS, field), field) == a
    t = TPoly(a.terms, field)
    assert parse_tpoly(str(t), field) == t


def tpoly(data, field, max_terms=4):
    """Random nonzero polynomial with rational coefficients and exponents up
    to 2, times a random non-unit constant."""
    content = field.coerce(data.draw(st.sampled_from([1, 2, 6, Fraction(4, 3)])))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 4),
        st.fractions(-40, 40, max_denominator=6),  # no denominator vanishes mod 7
        min_size=1, max_size=max_terms))
    p = TPoly({e: field.coerce(c) * content for e, c in terms.items()}, field)
    assume(not p.is_zero())
    return p


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_division_and_gcd_on_int_coefficients(field, data):
    p = field.characteristic
    a_t, b_t, c_t = (tpoly(data, field) for _ in range(3))
    a, b, c = _ints(a_t), _ints(b_t), _ints(c_t)
    assert _div(_mul(a, b, p), b, p) == a
    if b.keys() != {(0, 0, 0, 0)}:
        with pytest.raises(ExactDivisionError):
            _div(_ints(a_t * b_t + TPoly.constant(1, field)), b, p)
    c = primitive(c, p)  # a gcd over the integers leaves the content out
    g = _gcd(_mul(a, c, p), _mul(b, c, p), p)
    _div(g, c, p)  # raises unless c divides g
