from random import Random

import pytest

from bisurf.biparam import (
    BiHomPoly,
    InputError,
    Parametrization,
    lift_mixed,
    parse_parametrization,
)
from bisurf import exactla
from bisurf.exactla import SCREEN_PRIME
from bisurf.fields import PrimeField
from bisurf.zcomplex import (
    SegreIdeal,
    _koszul_columns,
    choose_nu,
    cycle_space_dim,
    linear_syzygies,
    saturation_indeg,
    strand_report,
)

from helpers import (
    biform_cycle_dim,
    biform_syzygy_dim,
    dot_terms,
    koszul_rows,
    matmul,
    modular_rank_agrees,
    monomial,
    random_dense,
    syzygy_forms,
)


def to_param(I):
    """Parameter-side view of the generators, for the brute-force oracles."""
    return Parametrization(I.gs)


def zero(n, field):
    return BiHomPoly((n, n), {}, field)


def test_ideal_validation():
    with pytest.raises(InputError):
        SegreIdeal([BiHomPoly((2, 2), {}) for _ in range(4)])
    mixed = parse_parametrization("degree: 1 2\nf1: s*t^2\nf2: s*v^2\nf3: u*t*v\nf4: u*v^2\n")
    with pytest.raises(InputError, match="lift"):
        SegreIdeal.from_parametrization(mixed)


def test_identity_syzygy_counts(identity_ideal):
    assert len(linear_syzygies(identity_ideal, 0)) == 0
    syz = linear_syzygies(identity_ideal, 1)
    assert len(syz) == 7


def test_identity_quadric_vector_is_syzygy(identity_ideal):
    # (X4, -X3, 0, 0) = (u*v, -u*t, 0, 0) pairs with (X1, X2, X3, X4) to
    # give the quotient relation
    field = identity_ideal.field
    a = [monomial((0, 1, 0, 1), 1), monomial((0, 1, 1, 0), -1), zero(1, field), zero(1, field)]
    assert not dot_terms(a, identity_ideal.gs)


def test_syzygies_satisfy_relation(identity_ideal, d2_ideal):
    for I, nu in ((identity_ideal, 1), (identity_ideal, 2), (d2_ideal, 2), (d2_ideal, 3)):
        for v in linear_syzygies(I, nu):
            assert not dot_terms(syzygy_forms(v, nu, I.field), I.gs)


def test_syzygy_matrix_shape(d2_ideal):
    rows, cols = koszul_rows(d2_ideal, 1, 2 + d2_ideal.degree)
    assert (len(rows), cols) == (25, 36)


def test_d2_syzygy_count(d2_ideal):
    assert len(linear_syzygies(d2_ideal, 2)) == 12


def test_syzygy_dims_match_brute_force(identity_ideal, d2_ideal):
    for I, nus in ((identity_ideal, (0, 1, 2)), (d2_ideal, (1, 2))):
        P = to_param(I)
        for nu in nus:
            assert len(linear_syzygies(I, nu)) == biform_syzygy_dim(P, nu)


def test_identity_cycle_dims(identity_ideal):
    assert cycle_space_dim(identity_ideal, 3, 4) == 1
    assert cycle_space_dim(identity_ideal, 2, 3) == 4


def test_d2_cycle_dims(d2_ideal):
    assert cycle_space_dim(d2_ideal, 1, 4) == 12


def test_cycle_dims_match_brute_force(identity_ideal, d2_ideal):
    for I, mus in ((identity_ideal, (3, 4)), (d2_ideal, (6,))):
        P = to_param(I)
        for mu in mus:
            for i in (2, 3):
                assert cycle_space_dim(I, i, mu) == biform_cycle_dim(P, i, mu)


def test_cycle_dim1_equals_syzygy_count(identity_ideal, d2_ideal):
    for I, nu in ((identity_ideal, 1), (d2_ideal, 2), (d2_ideal, 3)):
        assert cycle_space_dim(I, 1, nu + I.degree) == len(linear_syzygies(I, nu))


def test_differentials_compose_to_zero(identity_ideal, d2_ideal):
    # cycle_space_dim drops columns of d_i by the pivot rows of d_(i+1), so
    # the column index of d_i and the row index of d_(i+1) must name the same
    # (subset, monomial): d_i d_(i+1) = 0 as int matrices, mod p over GF(p)
    gf7 = PrimeField(7)
    d2_mod7 = SegreIdeal(BiHomPoly(g.bidegree, {e: gf7.coerce(c) for e, c in g.terms.items()}, gf7)
                         for g in d2_ideal.gs)
    dense = SegreIdeal.from_parametrization(random_dense(2, Random(1)))
    # at mu = 4d every piece d1..d4 is nonzero
    for I, mus in ((identity_ideal, (2, 3, 4, 5)), (d2_ideal, (6, 8)), (d2_mod7, (8,)),
                   (dense, (8,))):
        p = I.field.characteristic
        for mu in mus:
            for i in (1, 2, 3):
                (di, cols), (dnext, _) = koszul_rows(I, i, mu), koszul_rows(I, i + 1, mu)
                assert len(dnext) == cols and (mu < 4 * I.degree or any(map(any, dnext))), (mu, i)
                product = matmul(di, dnext)
                assert not any(x % p if p else x for row in product for x in row), (mu, i)


def test_koszul_columns_transpose_the_rows(d2_ideal):
    for i, mu in ((1, 4), (2, 6), (3, 8), (4, 8), (2, 3)):
        rows, cols = koszul_rows(d2_ideal, i, mu)
        skip = set(range(0, cols, 3))
        columns, n_rows = _koszul_columns(d2_ideal, i, mu, skip)
        assert n_rows == len(rows)
        assert columns == [[row[c] for row in rows] for c in range(cols) if c not in skip]


def test_strand_fallbacks(monkeypatch, inputs_dir):
    # over QQ a rank mod q that is not full falls back to fraction-free
    # elimination, on the columns of d_i outside the pivot rows of d_(i+1):
    # the d1 and d2 ranks of the inputs with base points at 2d-1 = 3 (whose
    # whole pieces are 36 x 64 and 144 x 96), and those of lifted mixed23 at
    # nu = 5, where d_(i+1) has no columns. Dense inputs take none.
    shapes = []
    real = exactla._forward_int
    monkeypatch.setattr(exactla, "_forward_int",
                        lambda rows, cols: shapes.append((len(rows), cols)) or real(rows, cols))
    for P, nu, expected in (
        (random_dense(2, Random(1)), 3, []),
        (random_dense(3, Random(1)), 5, []),
        (parse_parametrization((inputs_dir / "d2_example.ex").read_text(encoding="utf-8")), 3,
         [(36, 40), (80, 144)]),
        (lift_mixed(parse_parametrization((inputs_dir / "mixed23.ex").read_text(encoding="utf-8"))),
         5, [(144, 144), (216, 576)]),
    ):
        del shapes[:]
        strand_report(SegreIdeal.from_parametrization(P), nu)
        assert shapes == expected


def test_identity_strand_report(identity_ideal):
    rep = strand_report(identity_ideal, 1)
    assert (
        rep.dim_coefficients,
        rep.dim_syzygies,
        rep.dim_cycles2,
        rep.dim_cycles3,
    ) == (4, 7, 4, 1)
    assert rep.euler_char == 0
    assert rep.expected_det_degree == 2
    assert rep.base_points_degree == 0


def test_d2_strand_report(d2_ideal):
    rep = strand_report(d2_ideal, 2)
    assert (
        rep.dim_coefficients,
        rep.dim_syzygies,
        rep.dim_cycles2,
        rep.dim_cycles3,
    ) == (9, 12, 4, 1)
    assert rep.euler_char == 0
    assert rep.expected_det_degree == 7
    assert rep.base_points_degree == 1


def test_generic_dense_strand():
    P = random_dense(2, Random(0))
    I = SegreIdeal.from_parametrization(P)
    rep = strand_report(I, 3)
    assert rep.euler_char == 0
    assert rep.expected_det_degree == 8


def test_expected_degree_independent_of_nu(identity_ideal, d2_ideal):
    assert strand_report(identity_ideal, 1).expected_det_degree == strand_report(identity_ideal, 2).expected_det_degree
    assert strand_report(d2_ideal, 2).expected_det_degree == strand_report(d2_ideal, 3).expected_det_degree


def test_euler_vanishes_at_and_above_nu0(identity_ideal, d2_ideal):
    for I, nu0 in ((identity_ideal, 1), (d2_ideal, 2)):
        for nu in (nu0, nu0 + 1, nu0 + 2):
            assert strand_report(I, nu).euler_char == 0


def test_saturation_indeg_examples(identity_ideal, d2_ideal, inputs_dir):
    assert saturation_indeg(d2_ideal) == 1
    assert saturation_indeg(identity_ideal) == 0
    generic = SegreIdeal.from_parametrization(random_dense(2, Random(1)))
    assert saturation_indeg(generic) == 0

    def ideal(name, field=None):
        text = (inputs_dir / name).read_text(encoding="utf-8")
        return SegreIdeal.from_parametrization(
            lift_mixed(parse_parametrization(text, field_override=field))
        )

    for name in ("common_factor.ex", "non_lci.ex", "non_lci_cone.ex"):
        assert saturation_indeg(ideal(name)) == 1
    # four base points in general position: index 2 over both fields, read
    # off the nonzero entries of the kernel of I_(n+2d)
    for field in (None, PrimeField(32003)):
        assert saturation_indeg(ideal("four_points.ex", field)) == 2
    # lifted to bidegree (6,6): no nonzero saturation piece up to d, so d
    assert saturation_indeg(ideal("mixed23.ex", PrimeField(32003))) == 6


def test_choose_nu_degrees(identity_ideal, d2_ideal):
    # 2d-1, lowered by the saturation index when saturate is on
    for I, cons, opt in ((d2_ideal, 3, 2), (identity_ideal, 1, 1)):
        nu, rep = choose_nu(I)
        assert nu == rep.nu_conservative == cons
        nu, rep = choose_nu(I, saturate=True)
        assert nu == rep.nu_optimized == opt


def test_choose_nu_validates(d2_ideal):
    nu, rep = choose_nu(d2_ideal, saturate=True)
    assert nu == 2
    assert rep.nu_optimized == 2
    assert rep.sat_indeg == 1
    assert rep.nu_conservative == 3
    nu, rep = choose_nu(d2_ideal, saturate=False)
    assert nu == 3 and rep.nu_optimized is None


def test_modular_rank_cross_check_on_assembled(identity_ideal, d2_ideal):
    rng = Random(13)
    for I, nu in ((identity_ideal, 1), (d2_ideal, 2)):
        assert modular_rank_agrees(*koszul_rows(I, 1, nu + I.degree), 3, rng)
        assert modular_rank_agrees(*koszul_rows(I, 2, nu + 2 * I.degree), 3, rng)


def test_unlucky_screening_prime():
    # (st, sv, ut, q*uv) with q the screening prime: modulo q the last
    # generator vanishes and every strand rank drops (z1 at nu=1 would read
    # 8, not 7), so only a certified or an exact rank gives these dimensions
    exps = ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1))
    coeffs = (1, 1, 1, SCREEN_PRIME)
    I = SegreIdeal([monomial(e, c) for e, c in zip(exps, coeffs)])
    gf = PrimeField(32003)
    Ip = SegreIdeal([monomial(e, c, gf) for e, c in zip(exps, coeffs)])
    P = to_param(I)
    for nu in (0, 1, 2):
        for i in (1, 2, 3):
            mu = nu + i * I.degree
            assert cycle_space_dim(I, i, mu) == biform_cycle_dim(P, i, mu)
        assert strand_report(I, nu) == strand_report(Ip, nu)
    assert choose_nu(I, saturate=True) == choose_nu(Ip, saturate=True)
