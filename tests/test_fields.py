from fractions import Fraction

import pytest

from bisurf.fields import QQ, PrimeField, is_prime
from bisurf.tpoly import TPoly


def test_rational_coercion_reduces():
    assert QQ.coerce(Fraction(4, 6)) == Fraction(2, 3)
    assert QQ.coerce(5) == Fraction(5)
    assert QQ.inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inverse(QQ.zero)


@pytest.mark.parametrize("x", [0.1, 1.0, "1/2", None], ids=repr)
def test_coercion_accepts_only_exact_numbers(x):
    # no floating point anywhere: a float is not silently taken as the
    # binary fraction it stores
    with pytest.raises(TypeError):
        QQ.coerce(x)
    with pytest.raises(TypeError):
        PrimeField(7).coerce(x)


def test_prime_field_arithmetic():
    gf = PrimeField(13)
    assert (gf.zero, gf.one) == (0, 1)
    a, b = gf.coerce(7), gf.coerce(-4)
    assert (a, b) == (7, 9) and type(a) is type(b) is int
    assert gf.coerce(a + b) == gf.coerce(3)
    assert gf.coerce(a * b) == gf.coerce(63)
    assert gf.coerce(a * gf.inverse(b) * b) == a
    assert gf.coerce(-a) == gf.coerce(6)
    assert gf.coerce(a ** 12) == gf.one
    for x in range(1, 13):
        assert 0 < gf.inverse(x) < 13 and x * gf.inverse(x) % 13 == 1
    for zero in (0, 13):
        with pytest.raises(ZeroDivisionError):
            gf.inverse(zero)


def test_prime_field_coerces_fractions():
    gf = PrimeField(7)
    x = gf.coerce(Fraction(1, 2))
    assert x == 4 and gf.coerce(x * 2) == gf.one
    assert gf.coerce(Fraction(-3, 5)) == gf.coerce(-3 * gf.inverse(5))
    with pytest.raises(ValueError):
        gf.coerce(Fraction(1, 7))


def test_prime_field_rejects_composites_and_large():
    with pytest.raises(ValueError):
        PrimeField(91)
    # 4611686018427388039 is the first prime above 2^62
    with pytest.raises(ValueError):
        PrimeField(4611686018427388039)


def test_mixed_prime_fields_rejected():
    # residues are plain ints, so the containers check their fields
    a = TPoly.constant(1, PrimeField(5))
    b = TPoly.constant(1, PrimeField(7))
    for op in (TPoly.__add__, TPoly.__sub__, TPoly.__mul__):
        with pytest.raises(ValueError, match="mixed coefficient fields"):
            op(a, b)
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        a + TPoly.constant(1)


def test_is_prime_on_known_values():
    primes = [2, 3, 5, 61, 2**31 - 1, 4611686018427387847]
    composites = [1, 0, 9, 15, 2**31, 4611686018427387845]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)
