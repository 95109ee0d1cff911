"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. All assertions are exact; runtime budgets are the stated caps.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from bisurf.biparam import lift_mixed, parse_parametrization
from bisurf.matrixrep import (
    implicit_by_interpolation,
    membership,
    minors_gcd,
    representation_matrix,
    verify_substitution,
)
from bisurf.segre import basis, x_monomial
from bisurf.tpoly import TPoly, parse_tpoly
from bisurf.zcomplex import (
    SegreIdeal,
    _koszul_rows,
    choose_nu,
    saturation_indeg,
    strand_report,
)

from helpers import fraction_nullspace, matmul, modular_rank_agrees, random_dense


def _emit(line: str) -> None:
    # bypass capsys so the pass/fail lines always reach the terminal under -s
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(n: int, desc: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"
            )
    except BaseException:
        _emit(f"\n[acceptance] criterion {n}: FAIL ({desc})")
        raise
    _emit(f"\n[acceptance] criterion {n}: PASS ({desc}; {elapsed:.1f}s)")


def test_criterion_1_worked_example(capsys, inputs_dir):
    from bisurf.cli import main

    with criterion(1, "bidegree (2,2) example: saturation, strand, matrix size", 60):
        code = main(["info", str(inputs_dir / "d2_example.ex"), "--saturate", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["sat_indeg"] == 1
        assert payload["nu_optimized"] == 2
        assert payload["euler_char"] == 0
        assert payload["expected_det_degree"] == 7
        code = main(["matrix", str(inputs_dir / "d2_example.ex"), "--saturate", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        matrix = json.loads(out)
        assert matrix["rows"] == 9 and matrix["cols"] == 12
    capsys.readouterr()


def test_criterion_2_implicit_equation(d2_param):
    from bisurf.matrixrep import equation_report

    with criterion(2, "degree-7 implicit equation with power 1 and constant residual", 600):
        rep = equation_report(d2_param, saturate=True, seed=0)
        assert rep.implicit_poly is not None
        assert rep.implicit_poly.total_degree() == 7
        assert rep.substitution_ok is True
        assert rep.power == 1
        assert rep.lci is True


def test_criterion_3_segre_identity(identity_ideal, segre_param):
    with criterion(3, "standard embedding: 4x7 matrix, quadric gcd, strand (4,7,4,1)", 5):
        M = representation_matrix(identity_ideal, 1)
        assert (M.rows, M.cols) == (4, 7)
        F = implicit_by_interpolation(segre_param, 2)
        D, power, residual = minors_gcd(M, F, 2)
        assert D == parse_tpoly("T1*T4 - T2*T3") and power == 1 and residual.is_constant()
        rep = strand_report(identity_ideal, 1)
        dims = (rep.dim_coefficients, rep.dim_syzygies, rep.dim_cycles2, rep.dim_cycles3)
        assert dims == (4, 7, 4, 1)
        assert rep.euler_char == 0
        assert rep.expected_det_degree == 2


def test_criterion_4_mixed_degree_lift(mixed_param):
    with criterion(4, "bidegree (2,3) lift: 36/42 matrix at nu=5, sixth power", 1800):
        lifted = lift_mixed(mixed_param)
        assert lifted.bidegree == (6, 6)
        I = SegreIdeal.from_parametrization(lifted)
        M = representation_matrix(I, 5)
        assert {M.rows, M.cols} == {36, 42}
        rep = strand_report(I, 5)
        assert rep.euler_char == 0
        F = implicit_by_interpolation(mixed_param, rep.expected_det_degree)
        assert verify_substitution(F, mixed_param)
        D, power, _ = minors_gcd(M, F, rep.expected_det_degree, Random(0))
        assert D.total_degree() == rep.expected_det_degree
        assert power == 6


def test_criterion_5_generic_base_point_free():
    with criterion(5, "five seeded dense (2,2) inputs: degree 8, euler 0, indeg 0"):
        for seed in range(5):
            P = random_dense(2, Random(seed))
            I = SegreIdeal.from_parametrization(P)
            rep = strand_report(I, 3)
            assert rep.euler_char == 0, f"seed {seed}"
            assert rep.expected_det_degree == 8, f"seed {seed}"
            assert saturation_indeg(I) == 0, f"seed {seed}"


def test_criterion_6_membership_suite(identity_ideal, d2_ideal, d2_param, d2_equation, segre_param):
    with criterion(6, "100 on-surface and 100 off-surface points per example, no failures"):
        cases = [
            (identity_ideal, 1, segre_param, parse_tpoly("T1*T4 - T2*T3"), Random(100)),
            (d2_ideal, 2, d2_param, d2_equation, Random(200)),
        ]
        for I, nu, P, eq, rng in cases:
            M = representation_matrix(I, nu)
            k = M.rows
            n_on = 0
            while n_on < 100:
                s, t = rng.randint(-40, 40), rng.randint(-40, 40)
                img = P.eval((s, 1, t, 1))
                if not any(img):
                    continue
                n_on += 1
                on, r = membership(M, img)
                assert on and r < k, f"on-surface point {img} got rank {r}"
            n_off = 0
            while n_off < 100:
                pt = tuple(Fraction(rng.randint(-20, 20)) for _ in range(4))
                if not any(pt) or eq.eval(pt) == 0:
                    continue
                n_off += 1
                on, r = membership(M, pt)
                assert (not on) and r == k, f"off-surface point {pt} got rank {r}"


def test_criterion_7_invariant_suites(identity_ideal, d2_ideal):
    with criterion(7, "dimension formula, transfer bijection, complexes, modular ranks"):
        # graded dimensions up to degree 12; the monomial rule sends the
        # bidegree (n,n) basis one to one onto normal-form X-monomials of
        # degree n, and X1..X4 -> st, sv, ut, uv sends each back
        for n in range(13):
            b = basis(n)
            assert len(b) == (n + 1) ** 2
            xs = {x_monomial(q) for q in b}
            assert len(xs) == len(b)
            assert all(sum(x) == n and not (x[0] and x[3]) for x in xs)
            for q in b:
                a, c1, c2, e = x_monomial(q)
                assert (a + c1, c2 + e, a + c2, c1 + e) == q

        # assembled differentials compose to zero
        generic = SegreIdeal.from_parametrization(random_dense(2, Random(0)))
        strands = [(identity_ideal, 1), (d2_ideal, 2), (generic, 3)]
        for I, nu in strands:
            d = I.degree
            for mu in (nu + 2 * d, nu + 3 * d):
                d1, d2, d3 = (_koszul_rows(I, i, mu)[0] for i in (1, 2, 3))
                assert not any(any(row) for row in matmul(d1, d2))
                assert not any(any(row) for row in matmul(d2, d3))

        # expected determinant degree does not depend on nu >= nu0
        for I, saturate in ((identity_ideal, True), (d2_ideal, True), (generic, False)):
            nu0, _ = choose_nu(I, saturate)
            assert (
                strand_report(I, nu0).expected_det_degree
                == strand_report(I, nu0 + 1).expected_det_degree
            )

        # modular rank cross-check over 3 random primes on assembled matrices
        prime_rng = Random(31337)
        for I, nu in strands:
            d = I.degree
            for i in (1, 2, 3):
                assert modular_rank_agrees(*_koszul_rows(I, i, nu + i * d), 3, prime_rng)


def _implicit(capsys, path, *flags):
    from bisurf.cli import main

    code = main(["implicit", str(path), "--json", *flags])
    out = capsys.readouterr().out
    assert code == 0
    return {k: parse_tpoly(v) if k in ("minors_gcd", "implicit_equation", "residual") else v
            for k, v in json.loads(out).items()}


@pytest.mark.parametrize("flags", [(), ("--saturate",)], ids=["default-nu", "saturate"])
def test_criterion_8_non_lci_base_point(capsys, inputs_dir, flags):
    # one base point, at s = t = 0, with local ideal (s,t)^2, which is not
    # a complete intersection. The residual is the linear form L whose
    # combination of the coordinates has no s^2, s*t or t^2 term: the kernel
    # of the 3 x 4 matrix of those coefficients
    path = inputs_dir / "non_lci.ex"
    with criterion(8, "non-LCI base point: D = F * L", 120):
        P = parse_parametrization(path.read_text(encoding="utf-8"))
        lowest = [(2, 0, 0, 2), (1, 1, 1, 1), (0, 2, 2, 0)]  # s^2, s*t, t^2
        (kernel,) = fraction_nullspace([[f.terms.get(m, 0) for f in P.fs] for m in lowest])
        L = TPoly(dict(zip([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], kernel)))
        rep = _implicit(capsys, path, *flags)
        F = rep["implicit_equation"]
        assert F.total_degree() == 4 and rep["power"] == 1
        assert rep["residual"] == L.monic() == parse_tpoly("T1 - 34/9*T2 + 70/9*T3 + 19/3*T4")
        assert rep["minors_gcd"] == (F * L).monic()
        assert rep["base_points_lci"] is False and rep["substitution_ok"] is True


@pytest.mark.parametrize("flags", [(), ("--saturate",)], ids=["default-nu", "saturate"])
def test_criterion_9_cone_covered_twice(capsys, inputs_dir, flags):
    # f1*f3 = f2^2: the image is a quadric cone covered twice, and the same
    # non-LCI base point leaves the residual T4
    with criterion(9, "cone with a non-LCI base point: D = F^2 * T4", 120):
        rep = _implicit(capsys, inputs_dir / "non_lci_cone.ex", *flags)
        F = parse_tpoly("T1*T3 - T2^2")
        assert rep["implicit_equation"] == F and rep["power"] == 2
        assert rep["residual"] == parse_tpoly("T4")
        assert rep["minors_gcd"] == F * F * parse_tpoly("T4")
        assert rep["base_points_lci"] is False
