from fractions import Fraction
from random import Random

import pytest

from bisurf import _expr
from bisurf.exactla import SCREEN_PRIME
from bisurf.fields import QQ, PrimeField
from bisurf.tpoly import (
    ExactDivisionError,
    TPoly,
    _det,
    _div,
    _gcd,
    _ints,
    _monic,
    _monic_product,
    _mul,
    parse_tpoly,
)

from helpers import det_bareiss, evaluate, monic, primitive, tmul


def tp(text, field=QQ):
    return parse_tpoly(text, field)


def ip(text, field=QQ):
    """The int-kernel term dict of a polynomial: its coefficients scaled to
    ints over QQ, the residues over GF(p)."""
    return _ints(tp(text, field))


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
    # the parser's sums, products and powers
    assert tp("(T1+T2)^2") == tp("T1^2+2*T1*T2+T2^2")
    a = tp("3*T1*T4-T2")
    assert tp("(3*T1*T4-T2)*0") == tp("0")
    assert tp("(3*T1*T4-T2)*1") == a
    assert tp("(3*T1*T4-T2) - (3*T1*T4-T2)").is_zero()


def test_exact_div_examples():
    assert _div(ip("T1^2-T2^2"), ip("T1-T2"), 0) == ip("T1+T2")
    a = ip("2*T1*T3^2 - 5*T2 + 7")
    assert _div(a, a, 0) == ip("1")
    with pytest.raises(ExactDivisionError):
        _div(ip("T1*T4-T2*T3"), ip("T1"), 0)


def test_exact_div_inverts_multiplication():
    rng = Random(6)
    for _ in range(30):
        a = _ints(random_tpoly(rng, 3))
        b = _ints(random_tpoly(rng, 3))
        if not b:
            continue
        assert _div(_mul(a, b, 0), b, 0) == a


def test_mvgcd_examples():
    assert _monic(_gcd(ip("T1^2-T2^2"), ip("T1^2+2*T1*T2+T2^2"), 0), QQ) == tp("T1+T2")
    a = ip("3*T1^2*T4 - 6*T2")
    assert _gcd(a, {}, 0) == a


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
        g = _gcd(_ints(tmul(f, a)), _ints(tmul(f, b)), 0)
        _div(g, _ints(f), 0)  # raises unless f divides g


def test_mvgcd_common_factor_property():
    rng = Random(8)
    for _ in range(10):
        a, b, c = (_ints(random_tpoly(rng, 2, 3)) for _ in range(3))
        if not (a and b and c):
            continue
        _div(_gcd(_mul(a, c, 0), _mul(b, c, 0), 0), c, 0)


def test_mvgcd_over_prime_field():
    gf = PrimeField(101)
    g = _gcd(ip("T1^2-T2^2", gf), ip("T1^2+2*T1*T2+T2^2", gf), 101)
    assert _monic(g, gf) == tp("T1+T2", gf)


def test_polydet_examples():
    assert _det([[ip("T1"), ip("T2")], [ip("T3"), ip("T4")]], 0) == ip("T1*T4-T2*T3")
    for n in (4, 5):
        diag = [[ip("T1") if i == j else {} for j in range(n)] for i in range(n)]
        assert _det(diag, 0) == ip(f"T1^{n}")
    repeated = [[ip("T1"), ip("T2")], [ip("T1"), ip("T2")]]
    assert _det(repeated, 0) == {}


def test_polydet_matches_scalar_determinant():
    rng = Random(9)
    for n in (2, 3, 4, 5, 6):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        grid = [[{(0, 0, 0, 0): x} if x else {} for x in row] for row in rows]
        assert _det(grid, 0) == ({(0, 0, 0, 0): int(det_bareiss(rows))} if det_bareiss(rows) else {})


def test_eval_commutes_with_det():
    rng = Random(10)
    for n in (3, 4, 5):
        grid = [[_ints(random_tpoly(rng, 1, 3)) for _ in range(n)] for _ in range(n)]
        point = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        assert evaluate(_det(grid, 0), point) == det_bareiss([[evaluate(e, point) for e in row] for row in grid])


# The division, gcd and determinant run on int coefficients, over the
# integers or mod p. QQ inputs reach them scaled by their denominators, and
# non-unit contents are where that can go wrong, so the polynomials below
# have both.

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


def primitive_ints(poly):
    """_ints of poly made primitive: by Gauss's lemma a quotient by it over
    the integers is integral."""
    return primitive(_ints(poly), poly.field.characteristic)


def test_int_kernel_regressions():
    # over the integers, 2 does not divide the leading coefficient 1
    with pytest.raises(ExactDivisionError):
        _div(ip("T1^2"), ip("2*T1 + T2"), 0)
    with pytest.raises(ExactDivisionError):
        _div(ip("T1^2"), ip("2*T1"), 0)
    gf7 = PrimeField(7)
    assert _div(ip("T1^2", gf7), ip("2*T1", gf7), 7) == ip("4*T1", gf7)
    assert _monic(_gcd(ip("6*T1*T3 + 4*T2*T3"), ip("9*T1*T4 + 6*T2*T4"), 0), QQ) == tp("T1 + 2/3*T2")
    assert _monic(_gcd(ip("1/3*T1^2 - 1/3*T2^2"), ip("2*T1 + 2*T2"), 0), QQ) == tp("T1 + T2")


def binary_form(rng, deg, p):
    """A dense form of degree deg in T3, T4 with coefficients up to 2^64 in
    size (residues mod p), whose T3^deg coefficient is nonzero."""
    form = {}
    for i in range(deg + 1):
        c = rng.randrange(p) if p else rng.randint(-(2**64), 2**64)
        if c or i == deg:
            form[(0, 0, i, deg - i)] = c or 1
    return form


@pytest.mark.parametrize("p", [0, 32003])
def test_exact_div_on_binary_forms(p):
    rng = Random(15)
    for _ in range(20):
        a = binary_form(rng, rng.randint(0, 10), p)
        b = binary_form(rng, rng.randint(1, 10), p)
        ab = _mul(a, b, p)
        assert max(map(sum, ab)) <= 20
        assert _div(ab, b, p) == a
        # only the last term the division reaches, T4^n, is off
        n = max(map(sum, ab))
        last = (0, 0, 0, n)
        ab[last] = (ab.get(last, 0) + 1) % p if p else ab.get(last, 0) + 1
        with pytest.raises(ExactDivisionError):
            _div({e: c for e, c in ab.items() if c}, b, p)
        # a divisor of degree deg a + deg b > deg a
        with pytest.raises(ExactDivisionError):
            _div(a, _mul(b, {(0, 0, max(map(sum, a)), 0): 1}, p), p)


# _monic_product packs each factor by Kronecker substitution in T3: one int
# per key (e1, e2, e3 + e4), slot j of w bits holding the coefficient of
# T3^j. Its reference is the plain product of the term dicts made monic.

PRODUCT_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(32003), PrimeField(SCREEN_PRIME)]


def plain_product(factors, field):
    return monic(tmul(TPoly.constant(1, field), *factors))


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_monic_product_matches_plain_product(field):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    p = field.characteristic
    if p:
        coefficients = st.integers(1, p - 1)
    else:
        coefficients = st.builds(Fraction, st.integers(1, 2**64) | st.integers(-(2**64), -1),
                                 st.integers(1, 2**16))
    exponents = st.tuples(*[st.integers(0, 2)] * 4)
    factor = st.dictionaries(exponents, coefficients, min_size=1, max_size=3).map(
        lambda terms: TPoly(terms, field))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.lists(factor, max_size=7), factor, st.integers(0, 8))
    def check(factors, repeated, power):
        factors = [repeated] * power + factors
        assert _monic_product(factors, field) == plain_product(factors, field)

    check()


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_monic_product_tight_bounds(field):
    """The slot width is exact for a product of monomials, whose one
    coefficient is +-prod |c|: held in slot 0 of its key (a power of T4), it
    carries into slot 1 if w is one bit short or the slots are read unsigned."""
    p = field.characteristic
    for signs in ((1, 1, 1), (-1, 1, 1), (-1, -1, -1), (1, -1, 1, -1)):
        # over GF(p) every coefficient is the largest residue p - 1
        factors = [TPoly({(0, 0, 0, k % 2): field.coerce(-1 if p else s * (2**64 - k))}, field)
                   for k, s in enumerate(signs)]
        product = _monic_product(factors, field)
        assert product == plain_product(factors, field) == tp(f"T4^{len(signs) // 2}", field)
    if not p:
        constants = [TPoly.constant(c, field) for c in (3, -5, 7)] + [tp("-T4^2")]
        assert _monic_product(constants, field) == tp("T4^2")
    # all-negative coefficients: an odd number of such factors leaves every
    # coefficient of the product negative before it is made monic
    negative = tp("-3*T1*T4 - 2*T2*T3 - 5*T3^2 - 7*T4 - 1", field)
    for n in range(1, 6):
        assert _monic_product([negative] * n, field) == plain_product([negative] * n, field)
    # a form in T3, T4 only is one key with many slots; one in T1, T2 only is
    # many keys with one slot each
    t3 = tp("-4*T3^5 + 3*T3^4*T4 - T3^2*T4^3 + 9*T3*T4^4 - 2*T4^5", field)
    t12 = tp("-4*T1^3 + 3*T1^2*T2 - T1*T2^2 + 9*T2^3 - 2*T1 + 5", field)
    for factors in ([t3] * 6, [t12] * 6, [t3, t12, negative] * 2):
        assert _monic_product(factors, field) == plain_product(factors, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_exact_div_with_denominators(field):
    p = field.characteristic
    rng = Random(12)
    checked = 0
    while checked < 25:
        a = rational_tpoly(rng, 3, 5, field)
        b = rational_tpoly(rng, 2, 4, field)
        if a.is_zero() or b.is_constant():
            continue
        ab = tmul(a, b)
        assert _monic(_div(_ints(ab), primitive_ints(b), p), field) == monic(a)
        ab_plus_1 = TPoly(_expr.add(ab.terms, {(0, 0, 0, 0): field.coerce(1)}), field)
        with pytest.raises(ExactDivisionError):
            _div(_ints(ab_plus_1), primitive_ints(b), p)
        checked += 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mvgcd_with_denominators(field):
    p = field.characteristic
    rng = Random(13)
    checked = 0
    while checked < 12:
        a, b, c = (rational_tpoly(rng, 2, 3, field) for _ in range(3))
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = _monic(_gcd(_ints(tmul(a, c)), _ints(tmul(b, c)), p), field)
        assert monic(g) == g
        _div(_ints(g), primitive_ints(c), p)  # raises unless c divides g
        checked += 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bareiss_polydet_at_points(field):
    p = field.characteristic
    rng = Random(14)
    for n in range(1, 7):
        grid = [[_ints(rational_tpoly(rng, 1, 3, field)) for _ in range(n)] for _ in range(n)]
        if n % 2 == 0:
            grid[0][0] = {}  # the first pivot needs a row swap
        det = _det(grid, p)
        for _ in range(3):
            point = [field.coerce(rng.randint(-5, 5)) for _ in range(4)]
            evaluated = [[evaluate(e, point, p) for e in row] for row in grid]
            assert evaluate(det, point, p) == det_bareiss(evaluated, p)


def test_eval_examples():
    # the evaluator the tests take as their oracle, on parsed polynomials
    assert evaluate(tp("T1*T4-T2*T3").terms, (1, 1, 1, 1)) == 0
    assert evaluate(tp("T1*T4-T2*T3").terms, (1, 1, 1, 2)) == 1
    assert evaluate(tp("5/2").terms, (9, 9, 9, 9)) == Fraction(5, 2)
    assert evaluate(tp("T1^2 + 3*T4", PrimeField(7)).terms, (3, 0, 0, 2), 7) == 1


def test_print_parse_round_trip():
    rng = Random(11)
    for _ in range(40):
        p = random_tpoly(rng, 3)
        assert parse_tpoly(str(p)) == p

