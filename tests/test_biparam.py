from fractions import Fraction
from random import Random

import pytest

from bisurf._expr import ParseError
from bisurf.biparam import (
    BiHomPoly,
    InputError,
    Parametrization,
    gcd_of_inputs,
    lift_mixed,
    parse_parametrization,
)
from bisurf.fields import PrimeField

from helpers import evaluate, monomial, mul_terms, random_biform


def test_parse_single_monomial_line():
    P = parse_parametrization(
        "degree: 2 2\nf1: s^2*t*v\nf2: s^2*t*v\nf3: s^2*t*v\nf4: s^2*t*v\n"
    )
    assert P.fs[3].terms == {(2, 0, 1, 1): Fraction(1)}


def test_parse_segre_map(segre_param):
    assert segre_param.bidegree == (1, 1)
    assert [str(f) for f in segre_param.fs] == ["s*t", "s*v", "u*t", "u*v"]


def test_parse_affine_input_homogenizes(mixed_param):
    assert mixed_param.bidegree == (2, 3)
    for f in mixed_param.fs:
        for (a, b, c, e) in f.terms:
            assert a + b == 2 and c + e == 3
    # spot value: f1(2,1,3,1) equals the affine expression at s=2, t=3
    assert evaluate(mixed_param.fs[0].terms, (2, 1, 3, 1)) == Fraction(-8)


def test_parse_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_parametrization("degree: 1 1\nf1: s*t\nf2: s*(v\nf3: u*t\nf4: u*v\n")
    assert err.value.line == 3


def test_parse_rejects_bidegree_overflow():
    with pytest.raises(InputError, match="exceeds declared"):
        parse_parametrization("degree: 1 1\nf1: s^2*t\nf2: s*v\nf3: u*t\nf4: u*v\n")


def test_parse_rejects_all_zero():
    with pytest.raises(InputError, match="zero"):
        parse_parametrization("degree: 1 1\nf1: 0\nf2: 0\nf3: 0\nf4: 0\n")


def test_parse_missing_headers():
    with pytest.raises(ParseError, match="degree"):
        parse_parametrization("f1: s\nf2: s\nf3: s\nf4: s\n")
    with pytest.raises(ParseError, match="f4"):
        parse_parametrization("degree: 1 1\nf1: s*t\nf2: s*v\nf3: u*t\n")


def test_parse_field_header_and_override():
    text = "degree: 1 1\nfield: GF 11\nf1: s*t\nf2: s*v\nf3: u*t\nf4: u*v\n"
    P = parse_parametrization(text)
    assert P.field == PrimeField(11)
    Q = parse_parametrization(text, field_override=PrimeField(13))
    assert Q.field == PrimeField(13)


def test_parse_print_round_trip(segre_param, d2_param, mixed_param):
    for P in (segre_param, d2_param, mixed_param):
        canonical = P.to_text()
        again = parse_parametrization(canonical)
        assert again == parse_parametrization(again.to_text())
        assert again.to_text() == canonical


def test_bihompoly_invariant_enforced():
    with pytest.raises(InputError):
        BiHomPoly((1, 1), {(2, 0, 1, 0): Fraction(1)})


def test_arithmetic_preserves_bihomogeneity():
    # substitute_powers is the one operation BiHomPoly keeps
    rng = Random(5)
    for _ in range(20):
        a = random_biform(2, rng)
        for k1, k2 in ((2, 3), (1, 2), (3, 1)):
            result, bid = a.substitute_powers(k1, k2), (2 * k1, 2 * k2)
            assert result.bidegree == bid and len(result.terms) == len(a.terms)
            for (x, y, z, w) in result.terms:
                assert x + y == bid[0] and z + w == bid[1]


def test_gcd_of_inputs_segre_is_constant(segre_param):
    g = gcd_of_inputs(segre_param)
    assert g.bidegree == (0, 0)


def test_gcd_of_inputs_detects_common_factor(segre_param):
    st = monomial((1, 0, 1, 0), 1)
    scaled = Parametrization([BiHomPoly((2, 2), mul_terms(st.terms, f.terms)) for f in segre_param.fs])
    g = gcd_of_inputs(scaled)
    assert g.bidegree == (1, 1)
    assert str(g) == "s*t"


def test_gcd_of_inputs_d2_example(d2_param):
    assert gcd_of_inputs(d2_param).bidegree == (0, 0)


def test_lift_mixed_23_gives_66(mixed_param):
    L = lift_mixed(mixed_param)
    assert L.bidegree == (6, 6)
    # every exponent lands in the (3Z, 3Z, 2Z, 2Z) sublattice
    for f in L.fs:
        for (a, b, c, e) in f.terms:
            assert a % 3 == b % 3 == 0 and c % 2 == e % 2 == 0


def test_lift_equal_bidegree_unchanged(d2_param):
    assert lift_mixed(d2_param) is d2_param


def test_lift_idempotent(mixed_param):
    once = lift_mixed(mixed_param)
    assert lift_mixed(once) is once


def test_lift_12_squares_first_pair():
    P = parse_parametrization("degree: 1 2\nf1: s*t^2\nf2: s*v^2\nf3: u*t*v\nf4: u*v^2\n")
    L = lift_mixed(P)
    assert L.bidegree == (2, 2)
    assert L.fs[0].terms == {(2, 0, 2, 0): Fraction(1)}
