import pytest

from bisurf.biparam import InputError
from bisurf.segre import basis, x_monomial
from bisurf.zcomplex import SegreIdeal

from helpers import monomial


def bidegree_exps(n):
    return [(i, n - i, j, n - j) for i in range(n + 1) for j in range(n + 1)]


def normal_forms(n):
    """The degree-n X-monomials with no factor X1*X4."""
    return {
        (a, b, c, n - a - b - c)
        for a in range(n + 1)
        for b in range(n + 1 - a)
        for c in range(n + 1 - a - b)
        if not (a and n - a - b - c)
    }


def test_basis_sizes_and_order():
    b1 = basis(1)
    assert list(b1) == [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    assert [x_monomial(q) for q in b1] == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert b1.monomial_texts() == ["X1", "X2", "X3", "X4"]
    assert basis(2).monomial_texts()[:4] == ["X1^2", "X1*X2", "X1*X3", "X2^2"]
    assert len(basis(2)) == 9
    assert len(basis(3)) == 16


def test_basis_dimension_formula():
    for n in range(13):
        b = basis(n)
        assert len(b) == (n + 1) ** 2
        assert all(q[0] + q[1] == n and q[2] + q[3] == n for q in b)


def test_transfer_examples():
    # s*t -> X1, s^2*t*v -> X1*X2, u^2*t*v -> X3*X4
    assert x_monomial((1, 0, 1, 0)) == (1, 0, 0, 0)
    assert x_monomial((2, 0, 1, 1)) == (1, 1, 0, 0)
    assert x_monomial((0, 2, 1, 1)) == (0, 0, 1, 1)


def test_substitution_examples():
    # X1*X4 and X2*X3 are both s*u*t*v; the rule picks the normal form X2*X3
    assert x_monomial((1, 1, 1, 1)) == (0, 1, 1, 0)
    assert x_monomial((2, 0, 0, 2)) == (0, 2, 0, 0)
    assert x_monomial((0, 0, 0, 0)) == (0, 0, 0, 0)


def test_transfer_rejects_mixed_bidegree():
    exps = ((1, 0, 2, 0), (1, 0, 0, 2), (0, 1, 2, 0), (0, 1, 0, 2))
    fs = [monomial(e, 1) for e in exps]
    with pytest.raises(InputError, match="lift"):
        SegreIdeal(fs)


def test_image_is_normal_form():
    """The rule maps the bidegree (n,n) exponents one to one onto the
    (n+1)^2 normal-form quads of degree n."""
    for n in range(9):
        images = [x_monomial(e) for e in bidegree_exps(n)]
        assert len(set(images)) == (n + 1) ** 2
        assert set(images) == normal_forms(n)


def test_round_trip_biform_to_segre():
    # X1 = s*t, X2 = s*v, X3 = u*t, X4 = u*v undoes the rule
    for n in range(9):
        for e in bidegree_exps(n):
            a, b, c, d = x_monomial(e)
            assert (a + b, c + d, a + c, b + d) == e


def test_round_trip_segre_to_biform():
    for n in range(9):
        for a, b, c, d in normal_forms(n):
            assert x_monomial((a + b, c + d, a + c, b + d)) == (a, b, c, d)
