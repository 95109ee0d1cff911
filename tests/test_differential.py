"""Differential test: the pipeline over GF(32003) against the one over QQ.

The strand bookkeeping must agree, and the representation matrix, the minors
gcd D and the oracle's implicit equation F computed over QQ, reduced modulo
the prime, must equal the ones computed over GF(32003)."""

import pytest

from bisurf.biparam import lift_mixed, parse_parametrization
from bisurf.fields import PrimeField
from bisurf.matrixrep import implicit_by_interpolation, minors_gcd, representation_matrix
from bisurf.tpoly import TPoly
from bisurf.zcomplex import SegreIdeal, working_strand

GF = PrimeField(32003)


def _reduced(F):
    return TPoly({e: GF.coerce(c) for e, c in F.terms.items()}, GF)


@pytest.mark.parametrize(
    "name,nu,saturate",
    [("segre.ex", None, False), ("d2_example.ex", None, True), ("mixed23.ex", 5, False)],
)
def test_modp_run_matches_qq(inputs_dir, name, nu, saturate):
    text = (inputs_dir / name).read_text(encoding="utf-8")
    runs = []
    for field in (None, GF):
        P = parse_parametrization(text, field_override=field)
        I = SegreIdeal.from_parametrization(lift_mixed(P))
        nu_run, rep = working_strand(I, nu, saturate)
        M = representation_matrix(I, nu_run)
        F = implicit_by_interpolation(P, rep.expected_det_degree)
        runs.append((rep, M, minors_gcd(M, rep.expected_det_degree), F))
    (rep_qq, M_qq, D_qq, F_qq), (rep_p, M_p, D_p, F_p) = runs
    assert rep_p == rep_qq
    reduced = [[tuple(GF.coerce(c) for c in e.coeffs) for e in row] for row in M_qq.entries]
    assert reduced == [[e.coeffs for e in row] for row in M_p.entries]
    assert _reduced(F_qq) == F_p
    assert _reduced(D_qq) == D_p
