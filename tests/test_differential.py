"""Differential test: the pipeline over GF(32003) against the one over QQ.

The strand bookkeeping must agree, and the representation matrix built over
QQ, reduced modulo the prime, must equal the one built over GF(32003)."""

import pytest

from bisurf.biparam import lift_mixed, parse_parametrization
from bisurf.fields import PrimeField
from bisurf.matrixrep import representation_matrix
from bisurf.zcomplex import SegreIdeal, working_strand

GF = PrimeField(32003)


@pytest.mark.parametrize(
    "name,nu,saturate",
    [("segre.ex", None, False), ("d2_example.ex", None, True), ("mixed23.ex", 5, False)],
)
def test_modp_run_matches_qq(inputs_dir, name, nu, saturate):
    text = (inputs_dir / name).read_text(encoding="utf-8")
    runs = []
    for field in (None, GF):
        P = lift_mixed(parse_parametrization(text, field_override=field))
        I = SegreIdeal.from_parametrization(P)
        nu_run, rep = working_strand(I, nu, saturate)
        runs.append((rep, representation_matrix(I, nu_run)))
    (rep_qq, M_qq), (rep_p, M_p) = runs
    assert rep_p == rep_qq
    reduced = [[tuple(GF.coerce(c) for c in e.coeffs) for e in row] for row in M_qq.entries]
    assert reduced == [[e.coeffs for e in row] for row in M_p.entries]
