"""Property tests of the term-dict arithmetic in _expr, which the parser and
tpoly's int kernel run, over the rationals and over GF(32003), and of
tpoly's division and gcd on int coefficients, also over GF(7)."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from bisurf import _expr
from bisurf._expr import parse_expression
from bisurf.biparam import PARAM_VARS, BiHomPoly
from bisurf.fields import QQ, PrimeField
from bisurf.tpoly import ExactDivisionError, TPoly, _div, _gcd, _ints, _mul, parse_tpoly

from helpers import evaluate, primitive

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


def parsed(text, names, field):
    return {e: field.coerce(c) for e, c in parse_expression(text, names).items()}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arithmetic_commutes_with_transfers(field, data):
    n = data.draw(st.integers(0, 3))
    a, c = biform(data, field, n), biform(data, field, n)
    b = biform(data, field, data.draw(st.integers(0, 3)))
    # _expr leaves GF(p) sums and products unreduced; modp reduces them once
    p = field.characteristic
    ta, tb, tc = a.terms, b.terms, c.terms
    product, total, difference, negated = (
        _expr.modp(t, p)
        for t in (_expr.mul(ta, tb), _expr.add(ta, tc), _expr.sub(ta, tc), _expr.neg(ta)))
    assert _expr.modp(_expr.add(difference, tc), p) == ta
    assert not _expr.modp(_expr.add(ta, negated), p)
    # the results are valid containers of either ring, stored as they are
    n_ab = n + b.bidegree[0]
    assert BiHomPoly((n_ab, n_ab), product, field).terms == TPoly(product, field).terms == product
    assert BiHomPoly((n, n), total, field).terms == TPoly(total, field).terms == total
    # evaluation is an independent oracle for every operation; over GF(p)
    # the oracle side is an int congruent to the value
    point = [field.coerce(data.draw(st.integers(-9, 9))) for _ in range(4)]
    red = field.coerce
    va, vb, vc = (evaluate(t, point, p) for t in (ta, tb, tc))
    assert evaluate(product, point, p) == red(va * vb)
    assert evaluate(difference, point, p) == red(va - vc)
    assert evaluate(total, point, p) == red(va + vc)
    assert evaluate(negated, point, p) == red(-va)


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
            _div(_expr.modp(_expr.add(_mul(a, b, p), {(0, 0, 0, 0): 1}), p), b, p)
    c = primitive(c, p)  # a gcd over the integers leaves the content out
    g = _gcd(_mul(a, c, p), _mul(b, c, p), p)
    _div(g, c, p)  # raises unless c divides g
