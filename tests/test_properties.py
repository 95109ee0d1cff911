"""Property test of the whole pipeline on seeded dense bidegree (1,1) inputs,
over QQ and GF(32003). Four bilinear forms with independent coefficient
vectors map P1 x P1 isomorphically onto a smooth quadric, so the theory
promises D = F exactly and a rank drop of M exactly on F = 0."""

from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from bisurf.biparam import BiHomPoly, Parametrization
from bisurf.exactla import ExactMatrix, rank
from bisurf.fields import QQ, PrimeField
from bisurf.matrixrep import (
    implicit_by_interpolation,
    lci_diagnostic,
    membership,
    minors_gcd,
    representation_matrix,
    verify_substitution,
)
from bisurf.zcomplex import SegreIdeal, choose_nu, linear_syzygies

from helpers import random_dense

FIELDS = [QQ, PrimeField(32003)]
MONOMIALS = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]


def dense_11(seed, field):
    P = random_dense(1, Random(seed))
    return Parametrization(
        BiHomPoly((1, 1), {e: field.coerce(c) for e, c in f.terms.items()}, field)
        for f in P.fs
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pipeline_on_dense_bidegree_11(field, seed):
    P = dense_11(seed, field)
    coefficients = [[f.terms.get(e, field.zero) for e in MONOMIALS] for f in P.fs]
    assume(rank(ExactMatrix(coefficients, field)) == 4)
    I = SegreIdeal.from_parametrization(P)
    nu, rep = choose_nu(I)
    for syz in linear_syzygies(I, nu):
        acc = BiHomPoly((nu + 1, nu + 1), {}, field)
        for a, f in zip(syz, P.fs):
            acc = acc + a * f
        assert acc.is_zero()
    M = representation_matrix(I, nu)
    D = minors_gcd(M, rep.expected_det_degree)
    F = implicit_by_interpolation(P, D.total_degree())
    assert verify_substitution(F, P)
    power, residual, lci = lci_diagnostic(D, F)
    assert power == 1 and lci and residual.is_constant()
    rng = Random(seed)
    s, u, t, v = 0, 0, 0, 0
    while not ((s or u) and (t or v)):
        s, u, t, v = (rng.randint(-9, 9) for _ in range(4))
    image = P.eval([field.coerce(x) for x in (s, u, t, v)])
    assert F.eval(image) == 0 and membership(M, image)[0]
    point = [field.coerce(rng.randint(-40, 40)) for _ in range(4)]
    if any(point):
        assert membership(M, point)[0] == (F.eval(point) == 0)
