from collections import Counter
from copy import copy
from itertools import chain, combinations
from math import comb
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
from bisurf.fields import QQ, PrimeField
from bisurf.segre import basis
from bisurf.zcomplex import (
    SegreIdeal,
    _characters,
    _class_of,
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
    random_mixed,
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


def test_grading(inputs_dir):
    # (k1, k2) is read off the generators: lifted mixed23 (s -> s^3,
    # t -> t^2) is the only corpus input with a grading; one extra term with
    # odd s- and t-exponents ends it, and one with an odd s-exponent alone
    # leaves (1, 2), whose syzygies are the whole matrix's
    def lifted(name):
        text = (inputs_dir / name).read_text(encoding="utf-8")
        return SegreIdeal.from_parametrization(lift_mixed(parse_parametrization(text)))

    for path in sorted(inputs_dir.glob("*.ex")):
        assert lifted(path.name).grading == ((3, 2) if path.name == "mixed23.ex" else (1, 1)), path
    for d in (1, 2, 3):
        for seed in range(3):
            assert SegreIdeal.from_parametrization(random_dense(d, Random(seed))).grading == (1, 1)
    mixed = lifted("mixed23.ex")
    f1 = mixed.gs[0]
    for extra, grading in (((1, 5, 1, 5), (1, 1)), ((1, 5, 0, 6), (1, 2))):
        I = SegreIdeal([BiHomPoly(f1.bidegree, {**f1.terms, extra: f1.field.one}, f1.field), *mixed.gs[1:]])
        assert I.grading == grading
    whole = copy(I)
    whole.grading = (1, 1)
    assert linear_syzygies(I, 5) == linear_syzygies(whole, 5)


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


def test_koszul_columns_transpose_the_rows(d2_ideal, mixed_param):
    # character char of a piece is the whole piece's columns of the monomials
    # of that character, on its rows of that character, both in the whole's
    # order, and skip counts its own columns; together the characters hold
    # every nonzero entry. Lifted mixed23 at mu = 24 has one source monomial,
    # so five of its six characters have no columns
    mixed = SegreIdeal.from_parametrization(lift_mixed(mixed_param))
    for I, pieces in ((d2_ideal, ((1, 4), (2, 6), (3, 8), (4, 8), (2, 3))),
                      (mixed, ((1, 11), (2, 17), (3, 23), (4, 24), (4, 26), (2, 13)))):
        k1, k2 = I.grading
        d = I.degree

        def at(n, copies, char):
            quads = basis(n).quads if n >= 0 else ()
            return [c * len(quads) + k for c in range(copies) for k, q in enumerate(quads)
                    if q[0] % k1 * k2 + q[2] % k2 == char]

        for i, mu in pieces:
            rows, cols = koszul_rows(I, i, mu)
            nonzero = 0
            for char in range(k1 * k2):
                row_at, col_at = at(mu - (i - 1) * d, comb(4, i - 1), char), at(mu - i * d, comb(4, i), char)
                columns, n_rows = _koszul_columns(I, i, mu, char)
                assert n_rows == len(row_at)
                assert columns == [[rows[r][c] for r in row_at] for c in col_at]
                skip = set(range(0, len(columns), 3))
                assert _koszul_columns(I, i, mu, char, skip)[0] == [
                    col for c, col in enumerate(columns) if c not in skip]
                nonzero += sum(map(bool, chain.from_iterable(columns)))
            assert nonzero == sum(map(bool, chain.from_iterable(rows))), (i, mu)

    # characters of one class have one piece of every d_i at mu = nu + i*d,
    # entry for entry, once rows and columns are labelled by (subset, I, J),
    # a monomial of character (a, c) being s^(a+k1*I) t^(c+k2*J) times
    # powers of u and v (cycle_space_dim); the classes' sizes show that
    # pairs are compared. Lifted (1,3) draws have grading (3, 1)
    draw = SegreIdeal.from_parametrization(lift_mixed(random_mixed(1, 3, 0, QQ)))
    for I, sizes in ((mixed, {5: [6], 6: [1, 1, 2, 2]}), (draw, {0: [1, 2], 1: [1, 2], 2: [3]})):
        k1, k2 = I.grading

        def relabelled(i, mu, char):
            columns, n_rows = _koszul_columns(I, i, mu, char)
            rows, cols = ([(S, q[0] // k1, q[2] // k2) for S in range(comb(4, j))
                           for q in (_characters(n, I.grading)[char].quads if n >= 0 else ())]
                          for j, n in ((i - 1, mu - (i - 1) * I.degree), (i, mu - i * I.degree)))
            assert (len(rows), len(cols)) == (n_rows, len(columns))
            return (sorted(rows), sorted(cols),
                    {(rows[r], cols[c]): x for c, col in enumerate(columns) for r, x in enumerate(col) if x})

        for nu, expected in sizes.items():
            for i in range(1, 5):
                first = _class_of(nu + i * I.degree, I.grading)
                assert sorted(Counter(first).values()) == expected, (nu, i)
                for x, y in combinations(range(k1 * k2), 2):
                    if first[x] == first[y]:
                        assert relabelled(i, nu + i * I.degree, x) == relabelled(i, nu + i * I.degree, y)


def test_strand_fallbacks(monkeypatch, inputs_dir):
    # over QQ a rank mod q that is not full is certified by the exact
    # dependencies the screen reads off: the d1 and d2 ranks of d2_example
    # at 2d-1 = 3 (on 36 x 40 and 144 x 80 kept columns) and of lifted
    # mixed23 at nu = 5 (per character of its grading (3, 2), six 24 x 24
    # and six 96 x 36 pieces) take no fraction-free elimination, nor do the
    # dense inputs. Only a rank that drops mod q alone falls back, on the
    # columns of d_i outside the pivot rows of d_(i+1), as int_rank was
    # given them (10 x 9, not transposed): f4 = q*uv vanishes mod q
    shapes = []
    real = exactla._forward_int
    monkeypatch.setattr(exactla, "_forward_int",
                        lambda rows, cols: shapes.append((len(rows), cols)) or real(rows, cols))
    for P, nu, expected in (
        (random_dense(2, Random(1)), 3, []),
        (random_dense(3, Random(1)), 5, []),
        (parse_parametrization((inputs_dir / "d2_example.ex").read_text(encoding="utf-8")), 3, []),
        (lift_mixed(parse_parametrization((inputs_dir / "mixed23.ex").read_text(encoding="utf-8"))),
         5, []),
        (parse_parametrization(f"degree: 1 1\nf1: s*t\nf2: s*v\nf3: u*t\nf4: {SCREEN_PRIME}*u*v\n"), 1,
         [(10, 9), (20, 36)]),
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
