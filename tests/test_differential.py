"""Differential tests.

The pipeline over GF(32003) against the one over QQ: the strand bookkeeping
must agree, and the representation matrix, the minors gcd D and the oracle's
implicit equation F computed over QQ, reduced modulo the prime, must equal
the ones computed over GF(32003). And D from random lines against the gcd of
all maximal minors, expanded by sympy, on small inputs."""

from itertools import combinations
from pathlib import Path
from random import Random

import pytest

from bisurf.biparam import lift_mixed, parse_parametrization
from bisurf.exactla import int_rank
from bisurf.fields import PrimeField
from bisurf.matrixrep import implicit_by_interpolation, minors_gcd, representation_matrix
from bisurf.tpoly import TPoly
from bisurf.zcomplex import SegreIdeal, working_strand

from helpers import int_rows, random_dense

GF = PrimeField(32003)
INPUTS = Path(__file__).resolve().parent.parent / "inputs"


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
        runs.append((rep, M, minors_gcd(M, F, rep.expected_det_degree)[0], F))
    (rep_qq, M_qq, D_qq, F_qq), (rep_p, M_p, D_p, F_p) = runs
    assert rep_p == rep_qq
    assert [[GF.coerce(x) for x in v] for v in M_qq.syzygies] == [list(v) for v in M_p.syzygies]
    assert tuple(tuple(map(_reduced, row)) for row in M_qq.entries) == M_p.entries
    assert _reduced(F_qq) == F_p
    assert _reduced(D_qq) == D_p


def _sympy_minors_gcd(M, R):
    """The gcd of all maximal minors of M in the sympy ring R = QQ[T1..T4]:
    an independent oracle for small matrices."""
    from sympy.polys.matrices import DomainMatrix

    T, k = R.gens, M.rows
    entries = [[sum(c * t for c, t in zip(v[i::k], T)) for v in M.syzygies] for i in range(k)]
    g = R.zero
    for cols in combinations(range(M.cols), M.rows):
        minor = DomainMatrix([[row[c] for c in cols] for row in entries], (M.rows, M.rows), R)
        g = R.gcd(g, minor.det())
    return g


def _dense_11_inputs():
    """segre.ex and seeded bidegree (1,1) draws whose four coefficient
    vectors are independent."""
    inputs = [parse_parametrization((INPUTS / "segre.ex").read_text(encoding="utf-8"))]
    seed = 0
    while len(inputs) < 4:
        P = random_dense(1, Random(seed))
        rows = [[f.terms.get(e, 0) for e in sorted(f.terms)] for f in P.fs]
        if int_rank(int_rows(rows), 4) == 4:
            inputs.append(P)
        seed += 1
    return inputs


@pytest.mark.parametrize("index", range(4))
def test_lines_match_gcd_of_all_minors(index):
    sympy = pytest.importorskip("sympy")
    P = _dense_11_inputs()[index]
    I = SegreIdeal.from_parametrization(P)
    nu, rep = working_strand(I, None, False)
    M = representation_matrix(I, nu)
    F = implicit_by_interpolation(P, rep.expected_det_degree)
    D = minors_gcd(M, F, rep.expected_det_degree)[0]
    R = sympy.QQ[sympy.symbols("T1:5")]
    expected = _sympy_minors_gcd(M, R)
    ours = R.from_sympy(sympy.sympify(str(D).replace("^", "**")))
    assert expected.LC * ours == ours.LC * expected
