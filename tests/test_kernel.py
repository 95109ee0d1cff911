"""Property tests of the term-dict kernel behind BiHomPoly, SegreElem and
TPoly, over the rationals and over GF(32003)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from bisurf._expr import parse_expression
from bisurf.biparam import PARAM_VARS, BiHomPoly
from bisurf.fields import QQ, PrimeField
from bisurf.segre import SEGRE_VARS, SegreElem, to_segre
from bisurf.tpoly import TPoly, parse_tpoly

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
    assert to_segre(a * b) == to_segre(a) * to_segre(b)
    assert (a * b).to_tpoly() == a.to_tpoly() * b.to_tpoly()
    assert to_segre(a + c) == to_segre(a) + to_segre(c)
    assert (a - c).to_tpoly() == a.to_tpoly() - c.to_tpoly()
    assert (a - c) + c == a and (a + (-a)).is_zero()
    # evaluation is an independent oracle for every operation
    point = [field.coerce(data.draw(st.integers(-9, 9))) for _ in range(4)]
    k = field.coerce(data.draw(COEFFS))
    va, vb, vc = a.eval(point), b.eval(point), c.eval(point)
    assert va == naive_eval(a, point)
    assert (a * b).eval(point) == va * vb
    assert (a - c).eval(point) == va - vc and (a + c).eval(point) == va + vc
    assert (-a).eval(point) == -va and a.scale(k).eval(point) == va * k


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_print_parse_round_trip(field, data):
    a = biform(data, field, data.draw(st.integers(0, 3)))
    x = to_segre(a)
    assert BiHomPoly(a.bidegree, parsed(str(a), PARAM_VARS, field), field) == a
    assert SegreElem(x.degree, parsed(str(x), SEGRE_VARS, field), field) == x
    for t in (a.to_tpoly(), TPoly(a.terms, field, "T")):
        assert parse_tpoly(str(t), field, t.ring) == t
