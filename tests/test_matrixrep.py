from fractions import Fraction
from random import Random

import pytest

from bisurf.biparam import BiHomPoly, lift_mixed, parse_parametrization
from bisurf import _expr, exactla
from bisurf.exactla import SCREEN_PRIME, _forward_int, _kernel, int_det, int_nullspace
from bisurf.fields import QQ, PrimeField
from bisurf import matrixrep
from bisurf.matrixrep import (
    InterpolationError,
    RankDeficientError,
    RepMatrix,
    _Block,
    _blocks,
    _components,
    _degree_monomials,
    _form,
    _shapes,
    _substitute,
    _values,
    equation_report,
    implicit_by_interpolation,
    membership,
    minors_gcd,
    representation_matrix,
    verify_substitution,
)
from bisurf.tpoly import ExactDivisionError, TPoly, parse_tpoly
from bisurf.zcomplex import SegreIdeal, StrandError, working_strand

from helpers import (
    cleared,
    det_bareiss,
    dot_terms,
    evaluate,
    fraction_rank,
    image_point,
    koszul_rows,
    monic,
    mul_terms,
    random_dense,
    syzygy_forms,
    tmul,
)

QUADRIC = parse_tpoly("T1*T4 - T2*T3")
UNITS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.fixture(scope="module")
def identity_matrix_rep(identity_ideal):
    return representation_matrix(identity_ideal, 1)


@pytest.fixture(scope="module")
def d2_matrix_rep(d2_ideal):
    return representation_matrix(d2_ideal, 2)


def test_matrix_shapes(identity_matrix_rep, d2_matrix_rep):
    assert (identity_matrix_rep.rows, identity_matrix_rep.cols) == (4, 7)
    assert (d2_matrix_rep.rows, d2_matrix_rep.cols) == (9, 12)


def test_lifted_matrix_shape(mixed_param):
    I = SegreIdeal.from_parametrization(lift_mixed(mixed_param))
    M = representation_matrix(I, 5)
    assert (M.rows, M.cols) == (36, 42)
    comps = _components(M)
    assert [(len(r), len(c)) for r, c in comps] == [(6, 7)] * 6
    assert _blocks(M) == comps and _blocks(M) is _blocks(M)  # found once per M


def test_reassembly_invariant(d2_matrix_rep, d2_ideal):
    # entry (i, j) holds the coefficients v[i::k] of column j's syzygy vector
    # v, an int vector, as they are in M.ints and divided by v's last
    # nonzero entry, as field elements, in M.entries
    M, k = d2_matrix_rep, d2_matrix_rep.rows
    entries = M.entries
    for j, v in enumerate(M.syzygies):
        assert len(v) == 4 * k
        last = next(x for x in reversed(v) if x)
        for i in range(k):
            assert [entries[i][j].terms.get(u, 0) for u in UNITS] == [Fraction(x, last) for x in v[i::k]]
            assert M.ints[i][j] == tuple(v[i::k])
            assert all(type(c) is int for c in M.ints[i][j])
        assert not dot_terms(syzygy_forms(v, M.nu, M.field), d2_ideal.gs)


def test_membership_examples(identity_matrix_rep):
    on, r = membership(identity_matrix_rep, (1, 1, 1, 1))
    assert on and r == 3
    on, r = membership(identity_matrix_rep, (1, 1, 1, 2))
    assert not on and r == 4
    with pytest.raises(ValueError):
        membership(identity_matrix_rep, (0, 0, 0, 0))


def test_membership_scale_invariant(identity_matrix_rep):
    a = membership(identity_matrix_rep, (2, 3, 4, 6))
    b = membership(identity_matrix_rep, (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)))
    assert a == b


@pytest.fixture(scope="module")
def query_cases(mixed_param):
    """(M, image points, random points) for dense (2,2) at its saturated nu
    and for mixed23 lifted to (6,6) at nu=5."""
    dense = random_dense(2, Random(1))
    I = SegreIdeal.from_parametrization(dense)
    lifted = SegreIdeal.from_parametrization(lift_mixed(mixed_param))
    rng = Random(11)
    out = []
    for P, M in ((dense, representation_matrix(I, working_strand(I, None, True)[0])),
                 (mixed_param, representation_matrix(lifted, 5))):
        on = []
        while len(on) < 3:
            s, t = rng.randint(-5, 5), rng.randint(-5, 5)
            pt = image_point(P, (s, rng.randint(1, 4), t, rng.randint(1, 4)))
            if any(pt):
                on.append(pt)
        random_points = [[rng.randint(-40, 40) for _ in range(4)] for _ in range(3)]
        out.append((M, on, random_points))
    return out


def evaluated(M, point):
    """M at a point, from the coefficients in its syzygy columns."""
    k = M.rows
    return [[sum(c * x for c, x in zip(v[i::k], point)) for v in M.syzygies] for i in range(k)]


def test_membership_matches_fraction_rank(query_cases):
    for M, on, random_points in query_cases:
        answers = []
        for pt in on + random_points:
            r = fraction_rank(evaluated(M, pt))
            answers.append(membership(M, pt))
            assert answers[-1] == (r < M.rows, r), pt
        assert all(a[0] for a in answers[: len(on)])
        assert not all(a[0] for a in answers)


def test_membership_fraction_point_equals_integer_multiple(query_cases):
    dens = (2, 3, 5, 7)
    for M, on, random_points in query_cases:
        for pt in on + random_points:
            scaled = [Fraction(x, k) for x, k in zip(pt, dens)]
            assert membership(M, scaled) == membership(M, [x * 210 // k for x, k in zip(pt, dens)])


def test_membership_point_vanishing_mod_screen_prime(query_cases):
    # M(q * pt) is zero mod q, so its screen rank is 0 and every answer must
    # come from the exact fallback
    for M, on, random_points in query_cases:
        for pt in on + random_points:
            assert membership(M, [SCREEN_PRIME * x for x in pt]) == membership(M, pt)


def test_membership_reads_off_a_point_that_is_on_mod_screen_prime(query_cases, identity_matrix_rep):
    # pt + q*e4 is pt mod q, an ON point of corank 1 in each block there;
    # only the lift's certificate that the left kernel over QQ is zero reads
    # it OFF
    cases = [(M, on) for M, on, _ in query_cases] + [(identity_matrix_rep, [(1, 1, 1, 1)])]
    for M, on in cases:
        for pt in on:
            shifted = [*pt[:3], pt[3] + SCREEN_PRIME]
            assert membership(M, shifted) == (False, fraction_rank(evaluated(M, shifted))), pt


def _fallback_calls(monkeypatch):
    """A list that receives the row and column counts of each fraction-free
    elimination membership falls back to."""
    calls = []

    def spy(rows, cols):
        calls.append((len(rows), cols))
        return _forward_int(rows, cols)

    monkeypatch.setattr(matrixrep, "_forward_int", spy)
    return calls


def test_membership_falls_back_only_when_not_certified(query_cases, d2_matrix_rep, monkeypatch):
    calls, seen = _fallback_calls(monkeypatch), []
    for M, on, _ in query_cases:
        for pt in on:
            calls.clear()
            seen.append((M.rows - membership(M, pt)[1], len(calls)))
    # (corank, fallbacks): dense (2,2) has corank 1 in its one block, lifted
    # mixed23 corank 1 in each of its six blocks, except at the image of
    # t = 0, (128, -128, -128, -128), where it is 2 in each, a kernel
    # certified from its residues like the others
    assert seen == [(1, 0)] * 3 + [(6, 0), (6, 0), (12, 0)]
    # the singular point (1,0,0,0) of d2_example: rank 6 of 9
    assert membership(d2_matrix_rep, (1, 0, 0, 0)) == (True, 6)
    assert calls == []
    # q times a regular image point (rank 8) is zero mod q
    assert membership(d2_matrix_rep, [SCREEN_PRIME * x for x in (15, 11, 40, 12)]) == (True, 8)
    assert calls == [(12, 9)]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_membership_ranks_a_block_with_fewer_columns_than_rows(field):
    # blocks: rows 0-1 on column 0 (2 x 1), rows 2-3 on columns 1-2, and
    # the zero row 4 with no column
    M = _rep_matrix(["T1, 0, 0", "T2, 0, 0", "0, T3, T4", "0, T1, T2", "0, 0, 0"], field)
    assert [(len(r), len(c)) for r, c in _components(M)] == [(2, 1), (2, 2), (1, 0)]
    with pytest.raises(RankDeficientError):
        _blocks(M)
    for pt in ((1, 1, 1, 1), (1, 2, 3, 4), (0, 0, 1, 1), (0, 0, 0, 1)):
        r = fraction_rank(evaluated(M, pt))
        assert membership(M, pt) == (True, r), pt


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_equal_blocks_form_one_class(field, mixed_param, d2_param):
    # lifted mixed23's six blocks are one matrix up to row and column order,
    # at the benchmark's nu = 5 and at the default nu = 11
    lifted = SegreIdeal.from_parametrization(lift_mixed(parse_parametrization(mixed_param.to_text(),
                                                                             field)))
    for nu, shape in ((5, (6, 7)), (11, (24, 49))):
        M = representation_matrix(lifted, nu)
        assert len(_blocks(M)) == 6
        assert [(block, n) for block, _, n in _shapes(M)[1]] == [(_blocks(M)[0], 6)]
        assert tuple(map(len, _blocks(M)[0])) == shape
    # d2_example and dense (2,2) have one block, a class of its own
    for P in (d2_param, random_dense(2, Random(1))):
        I = SegreIdeal.from_parametrization(parse_parametrization(P.to_text(), field))
        M = representation_matrix(I, working_strand(I, None, True)[0])
        assert [(block, n) for block, _, n in _shapes(M)[1]] == [(_blocks(M)[0], 1)]


def _block_diagonal(*blocks):
    """Row texts for `_rep_matrix` of the block-diagonal matrix of blocks,
    each a list of rows of entry texts."""
    width, at, texts = sum(len(block[0]) for block in blocks), 0, []
    for block in blocks:
        texts += [", ".join(["0"] * at + row + ["0"] * (width - at - len(row))) for row in block]
        at += len(block[0])
    return texts


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_classes_are_blocks_equal_up_to_row_and_column_order(field):
    # C2 is C with its rows swapped and its columns reversed: one class.
    # Z and K are the addition tables of Z/4 and of (Z/2)^2 on T1..T4: every
    # row and every column of each holds T1..T4 once, but no row and column
    # order makes them equal (the tables of two groups that are not
    # isomorphic are not isotopic), and at (2,1,1,0) only K drops rank
    C = [["T1", "T2", "T3"], ["T4", "T1 + T4", "0"]]
    C2 = [["0", "T1 + T4", "T4"], ["T3", "T2", "T1"]]
    Z = [[f"T{(i + j) % 4 + 1}" for j in range(4)] for i in range(4)]
    K = [[f"T{(i ^ j) + 1}" for j in range(4)] for i in range(4)]
    M = _rep_matrix(_block_diagonal(C, C2, Z, K), field)
    blocks = _blocks(M)
    assert [tuple(map(len, block)) for block in blocks] == [(2, 3)] * 2 + [(4, 4)] * 2
    assert [(block, n) for block, _, n in _shapes(M)[1]] == [(blocks[0], 2), (blocks[2], 1),
                                                              (blocks[3], 1)]
    p = field.characteristic
    for pt in ((2, 1, 1, 0), (1, 1, 1, 1), (1, 2, 3, 4), (0, 0, 1, 1), (1, -1, 0, 0), (3, 0, 0, 1)):
        r = fraction_rank(evaluated(M, pt), p)
        assert membership(M, pt) == (r < M.rows, r), pt
    assert membership(M, (2, 1, 1, 0)) == (True, 11)


ONE = parse_tpoly("1")


def test_minors_gcd_identity(identity_matrix_rep):
    assert minors_gcd(identity_matrix_rep, QUADRIC, 2) == (QUADRIC, 1, ONE)


def test_minors_gcd_seeds_agree(identity_matrix_rep, d2_matrix_rep, d2_equation):
    for M, F, degree in ((identity_matrix_rep, QUADRIC, 2), (d2_matrix_rep, d2_equation, 7)):
        first = minors_gcd(M, F, degree, Random(0))
        for seed in (1, 7):
            assert minors_gcd(M, F, degree, Random(seed)) == first


@pytest.mark.parametrize("degree", [1, 3])
def test_minors_gcd_rejects_wrong_strand_degree(identity_matrix_rep, degree):
    # a line on which the gcd of two combinations has the degree of F
    # certifies D = c*F, whatever degree the strand expects
    with pytest.raises(StrandError, match=f"has degree 2, but the strand at nu=1 expects {degree}"):
        minors_gcd(identity_matrix_rep, QUADRIC, degree, Random(2))


def test_minors_gcd_d2_degree(d2_matrix_rep, d2_equation):
    D = minors_gcd(d2_matrix_rep, d2_equation, 7, Random(0))[0]
    assert D.total_degree() == 7
    assert D == d2_equation


def test_minors_gcd_rejects_rank_deficient(identity_ideal):
    M = representation_matrix(identity_ideal, 0)  # 1 x 0 matrix: no syzygies
    with pytest.raises(RankDeficientError):
        minors_gcd(M, QUADRIC, 0)


def test_oracle_segre(segre_param):
    assert implicit_by_interpolation(segre_param, 2) == QUADRIC


def test_oracle_rejects_bad_degree_bound(segre_param):
    with pytest.raises(ValueError):
        implicit_by_interpolation(segre_param, 0)
    with pytest.raises(InterpolationError):
        implicit_by_interpolation(segre_param, 1)


def test_oracle_d2(d2_param, d2_equation):
    assert d2_equation.total_degree() == 7
    assert verify_substitution(d2_equation, d2_param)


def test_verify_substitution_examples(segre_param):
    assert verify_substitution(QUADRIC, segre_param)
    assert not verify_substitution(parse_tpoly("T1"), segre_param)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_verify_substitution_with_denominators(field):
    # f = (1/2*s*t, s*v, u*t, u*v): the certificate scales the coordinates
    # and eq to integers; eq need not be homogeneous, since parts of
    # different degrees land in different bidegrees of s,u,t,v
    P = parse_parametrization("degree: 1 1\nf1: 1/2*s*t\nf2: s*v\nf3: u*t\nf4: u*v\n", field)
    F = parse_tpoly("2*T1*T4 - T2*T3", field)
    for eq in ("F", "2/3*F", "F*(T1+1)"):
        assert verify_substitution(parse_tpoly(eq.replace("F", f"({F})"), field), P), eq
    for eq in ("F + T1", "F + T1^2"):
        assert not verify_substitution(parse_tpoly(eq.replace("F", f"({F})"), field), P), eq


def test_verify_builds_only_the_prefixes_of_the_support(monkeypatch, d2_param, mixed_param,
                                                       d2_equation):
    # one product f^e = f^(e - u_k)·f_k per nonzero prefix of the support
    # of eq (k the first nonzero coordinate), not every f^e up to deg eq:
    # the degree-7 d2_example equation has 329 monomials of degrees 1-7
    prefixes = set()
    for e in d2_equation.terms:
        while any(e):
            prefixes.add(e)
            k = next(i for i in range(4) if e[i])
            e = e[:k] + (e[k] - 1,) + e[k + 1:]
    assert len(prefixes) < 329
    products = []
    mul = matrixrep._expr.mul

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(matrixrep._expr, "mul", counted)
    for P, expected in ((d2_param, True), (mixed_param, False)):
        products.clear()
        assert verify_substitution(d2_equation, P) is expected
        assert len(products) <= len(prefixes)


# _forward_gf's strategy on the sample inputs: packed int rows for dense
# matrices of at least exactla.PACKED_MIN rows and columns, list rows for
# the rest, where packing loses (up to 11x on the sparse Koszul pieces)

@pytest.fixture
def strategies(monkeypatch):
    """The (rows, cols, p) of each _forward_gf call, by the strategy it took."""
    taken = {"packed": [], "lists": []}
    for name, calls in taken.items():
        forward = getattr(exactla, f"_forward_{name}")

        def spy(rows, cols, p, record=None, forward=forward, calls=calls):
            calls.append((len(rows), cols, p))
            return forward(rows, cols, p, record)

        monkeypatch.setattr(exactla, f"_forward_{name}", spy)
    return taken


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
def test_dense_membership_blocks_and_oracle_matrices_are_packed(strategies, field, mixed_param):
    # dense (3,3): one 36x63 block of M, ranked mod p over GF(p) and as its
    # 63x36 transpose mod SCREEN_PRIME over QQ, at an image and an off point
    P = parse_parametrization(random_dense(3, Random(1)).to_text(), field)
    I = SegreIdeal.from_parametrization(P)
    M = representation_matrix(I, working_strand(I)[0])
    q = field.characteristic or SCREEN_PRIME
    for point, on in (((17, -149, -215, 64), True), ((1, 2, 3, 4), False)):
        strategies["packed"].clear()
        strategies["lists"].clear()
        assert membership(M, point) == (on, 35 if on else 36)
        assert strategies["packed"] == [(36, 63, q) if field.characteristic else (63, 36, q)]
        assert not strategies["lists"]
    # mixed23's oracle S of degrees 4 and 5: 87x35 and 131x56, 85% nonzero
    P = parse_parametrization(mixed_param.to_text(), field)
    implicit_by_interpolation(P, 5)
    assert {(87, 35, q), (131, 56, q)} <= set(strategies["packed"])


def test_koszul_pieces_and_sparse_oracle_matrices_take_list_rows(strategies, inputs_dir,
                                                                 d2_param):
    # every Koszul piece that the strand report, the saturation index and
    # the syzygies eliminate, at the conservative and the saturated nu, on
    # each sample input (lifted) and dense (2,2), (3,3), mod 32003: the
    # GF(p) runs pass every piece through _forward_gf
    field = PrimeField(32003)
    texts = [path.read_text(encoding="utf-8") for path in sorted(inputs_dir.glob("*.ex"))]
    texts += [random_dense(d, Random(1)).to_text() for d in (2, 3)]
    for text in texts:
        I = SegreIdeal.from_parametrization(lift_mixed(parse_parametrization(text, field)))
        for saturate in (False, True):
            nu = working_strand(I, None, saturate)[0]
            representation_matrix(I, nu)
    # d2_example's S, 183x120 and 8% nonzero at degree 7
    implicit_by_interpolation(d2_param, 7)
    assert (183, 120, SCREEN_PRIME) in strategies["lists"]
    assert not strategies["packed"]


# minors_gcd returns the LCI split D = F^power * residual

def test_lci_diagnostic_identity(identity_matrix_rep, segre_param):
    F = implicit_by_interpolation(segre_param, 2)
    D, power, residual = minors_gcd(identity_matrix_rep, F, 2)
    assert D == F and power == 1 and residual.is_constant()


def test_lci_diagnostic_d2(d2_matrix_rep, d2_equation):
    _, power, residual = minors_gcd(d2_matrix_rep, d2_equation, 7, Random(0))
    assert power == 1 and residual == ONE


def test_lci_diagnostic_error_paths(identity_matrix_rep):
    with pytest.raises(ValueError):
        minors_gcd(identity_matrix_rep, parse_tpoly("3"), 2)
    with pytest.raises(ValueError, match="homogeneous"):  # F is read on lines as a form
        minors_gcd(identity_matrix_rep, parse_tpoly("T1 + 1"), 2)
    with pytest.raises(ExactDivisionError, match="does not divide"):
        minors_gcd(identity_matrix_rep, parse_tpoly("T1+T2"), 2)


def test_gcd_degree_matches_strand_degree(identity_ideal, d2_ideal, d2_equation):
    from bisurf.zcomplex import strand_report

    dense = random_dense(1, Random(23))
    generic = SegreIdeal.from_parametrization(dense)
    cases = (
        (identity_ideal, 1, QUADRIC),
        (d2_ideal, 2, d2_equation),
        (generic, 1, implicit_by_interpolation(dense, 2)),
    )
    for I, nu, F in cases:
        M = representation_matrix(I, nu)
        degree = strand_report(I, nu).expected_det_degree
        assert minors_gcd(M, F, degree, Random(0))[0].total_degree() == degree


def test_rank_drop_iff_gcd_vanishes(identity_matrix_rep, d2_matrix_rep, d2_equation):
    cases = [
        (identity_matrix_rep, minors_gcd(identity_matrix_rep, QUADRIC, 2)[0], 60),
        (d2_matrix_rep, d2_equation, 30),
    ]
    rng = Random(17)
    for M, D, count in cases:
        for _ in range(count):
            pt = tuple(Fraction(rng.randint(-6, 6)) for _ in range(4))
            if not any(pt):
                continue
            on, r = membership(M, pt)
            assert on == (evaluate(D.terms, pt) == 0)


def test_equation_report_pipeline(d2_param):
    rep = equation_report(d2_param, saturate=True, seed=0)
    assert rep.nu == 2
    assert (rep.matrix_rows, rep.matrix_cols) == (9, 12)
    assert rep.minors_gcd_poly.total_degree() == 7
    assert rep.power == 1 and rep.lci and rep.substitution_ok
    d = rep.as_dict()
    assert d["implicit_degree"] == 7 and d["base_points_lci"] is True


def test_json_export_schema(d2_matrix_rep):
    payload = d2_matrix_rep.to_json_dict()
    assert payload["nu"] == 2
    assert payload["rows"] == 9 and payload["cols"] == 12
    assert len(payload["row_basis"]) == 9
    assert len(payload["entries"]) == 9
    assert all(len(row) == 12 for row in payload["entries"])
    assert all(len(cell) == 4 for row in payload["entries"] for cell in row)
    # coefficients are exact rational strings
    Fraction(payload["entries"][0][0][0])


def _scaled_segre(a, b, c):
    return parse_parametrization(
        f"degree: 1 1\nf1: {a}*s*t\nf2: {b}*s*v\nf3: {c}*u*t\nf4: u*v\n"
    )


def _kernel_calls(monkeypatch):
    """A list that receives (prime, dimension mod prime, kernel size or None)
    for each _kernel call of the oracle's int_nullspace."""
    calls = []

    def spy(rows, cols, p=0):
        pivots, kernel = _kernel(rows, cols, p)
        calls.append((p or SCREEN_PRIME, cols - len(pivots), None if kernel is None else len(kernel)))
        return pivots, kernel

    monkeypatch.setattr(exactla, "_kernel", spy)
    return calls


@pytest.mark.parametrize(
    "a,b,c",
    [
        (10**20 + 39, 10**20 + 3, 10**20 + 7),
        # SCREEN_PRIME kills f3: modulo it the kernel is nonzero in degree 1
        # (the lift shows it is zero over QQ) and four-dimensional in degree
        # 2, so that prime is unlucky and the RREF over QQ finds F
        (10**20 + 39, 10**20 + 3, SCREEN_PRIME),
    ],
)
def test_oracle_lifts_over_several_primes(a, b, c, monkeypatch):
    ratio = Fraction(a, b * c)
    assert ratio.numerator > 2**62 and ratio.denominator > 2**62
    calls = _kernel_calls(monkeypatch)
    fallbacks = []
    rref_int = exactla._rref_int

    def rref_spy(rows, cols):
        fallbacks.append(cols)
        return rref_int(rows, cols)

    monkeypatch.setattr(exactla, "_rref_int", rref_spy)
    F = implicit_by_interpolation(_scaled_segre(a, b, c), 2)
    assert F == TPoly({(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): -ratio})
    if c == SCREEN_PRIME:
        assert calls == [(c, 1, 0), (c, 4, None)]
        assert fallbacks == [10]
    else:
        assert calls == [(SCREEN_PRIME, 0, 0), (SCREEN_PRIME, 1, 1)]
        assert fallbacks == []


def test_oracle_skips_prime_dividing_leading_coefficient(monkeypatch):
    # F = p*T1*T3 + T1*T4 - T2*T3 with p the first kernel prime: modulo p the
    # kernel is still one-dimensional but starts at T1*T4; its free column is
    # T2*T3, so the lift from p itself recovers the leading coefficient p
    p = SCREEN_PRIME
    P = parse_parametrization(f"degree: 1 1\nf1: s*t\nf2: {p}*s*t + s*v\nf3: u*t\nf4: u*v\n")
    calls = _kernel_calls(monkeypatch)
    F = implicit_by_interpolation(P, 2)
    assert F == TPoly(
        {(1, 0, 1, 0): Fraction(1), (1, 0, 0, 1): Fraction(1, p), (0, 1, 1, 0): Fraction(-1, p)}
    )
    assert calls == [(p, 0, 0), (p, 1, 1)]


def test_oracle_rejects_a_curve_over_qq():
    # the image is the line T1 = T2, T3 = T4: two linear forms vanish on it
    # over QQ, so no single equation lifts
    P = parse_parametrization("degree: 1 1\nf1: s*t\nf2: s*t\nf3: u*v\nf4: u*v\n")
    with pytest.raises(InterpolationError, match="degree 1 has dimension 2 over QQ"):
        implicit_by_interpolation(P, 2)


def test_membership_rejects_floats(segre_param):
    # 0.1 and friends are binary fractions, not the decimals they print as;
    # the point must be given exactly
    M = representation_matrix(SegreIdeal.from_parametrization(segre_param), 1)
    with pytest.raises(TypeError):
        membership(M, (0.1, 0.2, 0.3, 0.6))
    exact = [Fraction(k, 10) for k in (1, 2, 3, 6)]
    assert membership(M, exact) == (True, 3)


@pytest.mark.parametrize("p", [32003, 7])
def test_gf_coefficients_are_int_residues(inputs_dir, p):
    text = (inputs_dir / "d2_example.ex").read_text(encoding="utf-8")
    P = parse_parametrization(text, field_override=PrimeField(p))
    I = SegreIdeal.from_parametrization(P)
    nu, strand = working_strand(I, None, True)
    M = representation_matrix(I, nu)
    F = implicit_by_interpolation(P, strand.expected_det_degree)
    D = minors_gcd(M, F, strand.expected_det_degree)[0]
    rows, cols = koszul_rows(I, 1, nu + I.degree)

    def residues(values):
        values = list(values)
        return bool(values) and all(type(c) is int and 0 <= c < p for c in values)

    assert residues(c for row in M.entries for e in row for c in e.terms.values())
    product = BiHomPoly((2 * I.degree,) * 2, mul_terms(I.gs[0].terms, I.gs[3].terms), I.field)
    for poly in (D, F, product, *P.fs):
        assert residues(poly.terms.values()), poly
    assert residues(x for v in M.syzygies for x in v)
    # the rows int_nullspace consumes, reduced in place over GF(p)
    reduced = [list(row) for row in rows]
    kernel = int_nullspace(reduced, cols, p)
    for m in (rows, reduced, kernel):
        assert residues(x for row in m for x in row)
    assert residues(c for row in M.ints for e in row for c in e)


@pytest.mark.parametrize("name,p,saturate", [("segre.ex", 2, False), ("d2_example.ex", 7, True)])
def test_folding_reaches_certified_gcd_mod_small_primes(inputs_dir, name, p, saturate):
    # mod 2 two random binary forms often share a factor: on 400 lines of
    # segre.ex two combinations left a gcd of degree 4 > 2 on 154, the nine
    # folded mod 2 on 23, so more combinations are folded on each line
    P = parse_parametrization((inputs_dir / name).read_text(encoding="utf-8"), PrimeField(p))
    I = SegreIdeal.from_parametrization(P)
    nu, strand = working_strand(I, None, saturate)
    M = representation_matrix(I, nu)
    F = implicit_by_interpolation(P, strand.expected_det_degree)
    one = TPoly.constant(1, PrimeField(p))
    for seed in range(8):
        assert minors_gcd(M, F, strand.expected_det_degree, Random(seed)) == (F, 1, one), seed


# Binary forms on a line are read off int values at mu = 1, lambda = 0..n by
# _form. Over GF(p) the values are those of the integer lift, so degrees n
# >= p, more values than the line has points, are read as exactly.

FORM_PRIMES = [0, 2, 7, 32003]


def pencil_form(X, Y, p):
    """det(mu*X + lambda*Y) as a binary form, as `_Block.split` reads it."""
    return _form([int_det([[x + t * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)])
                  for t in range(len(X) + 1)], p)


@pytest.mark.parametrize("p", FORM_PRIMES)
def test_form_matches_substitute(p):
    # forms in T of degree up to 6 on the line mu*a + lambda*b, against the
    # expansion through the four binary linear forms a_i*mu + b_i*lambda
    rng = Random(17)
    draw = (lambda: rng.randrange(p)) if p else (lambda: rng.randint(-(2**70), 2**70))
    for deg in range(7):
        for _ in range(4):
            coeffs = {e: c for e in _degree_monomials(deg) if (c := draw())}
            a, b = [draw() for _ in range(4)], [draw() for _ in range(4)]
            forms = [_expr.modp({e: c for e, c in (((0, 0, 1, 0), x), ((0, 0, 0, 1), y)) if c}, p)
                     for x, y in zip(a, b)]
            assert _form(_values(coeffs, a, b, deg), p) == _substitute(coeffs, forms, p)


def test_pencil_form_examples():
    zero = [[0] * 5 for _ in range(5)]
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert pencil_form([[1, 0], [0, 1]], [[0, 1], [1, 0]], 0) == {(0, 0, 2, 0): 1, (0, 0, 0, 2): -1}
    assert pencil_form(identity, zero, 0) == {(0, 0, 5, 0): 1}
    assert pencil_form(zero, identity, 7) == {(0, 0, 0, 5): 1}
    assert pencil_form([[1, 2], [1, 2]], [[3, 4], [3, 4]], 0) == {}
    assert pencil_form([], [], 2) == {(0, 0, 0, 0): 1}


@pytest.mark.parametrize("p", FORM_PRIMES)
def test_pencil_form_at_points(p):
    # sizes 0 to 9, above p over GF(2) and GF(7); on even sizes the first
    # pivot is zero at every lambda, so int_det swaps rows
    rng = Random(14)
    for n in range(10):
        X, Y = ([[rng.randrange(p) if p else rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        if n % 2 == 0 and n:
            X[0][0] = Y[0][0] = 0
        form = pencil_form(X, Y, p)
        for _ in range(3):
            mu, lam = rng.randint(-5, 5), rng.randint(-5, 5)
            pencil = [[mu * x + lam * y for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]
            assert evaluate(form, (0, 0, mu, lam), p) == det_bareiss(pencil, p)


# minors_gcd on hand-made matrices: a 2 x 2 block [[T1, T2], [T2, T3]] gives
# F = T1*T3 - T2^2, joined through its lower-left corner to a block whose
# determinant is the residual Q, so D = F * Q. No line certifies it, and
# the strand degree is trusted.

CONE = "T1*T3 - T2^2"

RESIDUALS = {
    "T4^2 - T1*T2": ["T1,T2,0,0", "T2,T3,0,0", "T1,T4,T4,T1", "T2,T3,T2,T4"],
    "T4^3 + T1*T2*T3": ["T1,T2,0,0,0", "T2,T3,0,0,0", "T1,T4,T4,T1,0", "T2,T1,0,T4,T2",
                        "T3,T2,T3,0,T4"],
    # deg Q = deg F: F on a line divides the quotient once more wherever Q
    # there is a multiple of F, which over GF(3) is often
    "(T1 + T2)^2 - (T1 + T2 + T3)*T4": ["T1,T2,0,0", "T2,T3,0,0", "T1,T4,T4,T1+T2",
                                        "T2,T3,T1+T2,T1+T2+T3"],
}


def _rep_matrix(texts, field):
    """A RepMatrix whose entries are the linear forms in texts, one string
    of comma-separated entries per row; stand-in quadruples index the rows.
    Column j is the vector of the coefficients of T1 in column j's entries,
    then of T2, T3 and T4, laid out as `linear_syzygies` lays out a1..a4,
    and over QQ times its common denominator, as ints."""
    entries = [[parse_tpoly(t, field) for t in row.split(",")] for row in texts]
    columns = [cleared([row[j].terms.get(u, field.zero) for u in UNITS for row in entries])
               for j in range(len(entries[0]))]
    return RepMatrix(0, [(r, 0, 0, 0) for r in range(len(entries))], columns, field)


def test_rep_matrix_rejects_columns_that_are_not_ints():
    # a one-row M whose first column holds 1/2 would keep the Fraction in
    # M.ints, and membership's QQ block rank would fail on it
    for columns, j in [([[1, Fraction(1, 2), 0, 0], [0, 0, 1, 0]], 0),
                       ([[0, 0, 1, 0], [1, Fraction(1, 2), 0, 0]], 1)]:
        with pytest.raises(TypeError, match=f"column {j} "):
            RepMatrix(0, [(0, 0, 0, 0)], columns, QQ)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_entries_print_as_linear_forms(field):
    # a column prints divided by its last nonzero entry, here 1/3
    M = _rep_matrix(["T1 - 2*T2 + 1/3*T4, 0"], field)
    first, zero = M.entries[0]
    if field is QQ:
        assert str(first) == "3*T1 - 6*T2 + T4"
    else:
        assert str(first) == "3*T1 + T2 + T4"  # 1/3 = 5 = -2 mod 7, times 3
    assert parse_tpoly(str(first), field) == parse_tpoly("3*(T1-2*T2+1/3*T4)", field)
    assert zero.is_zero() and str(zero) == "0" and not first.is_zero()
    assert M.ints == (((3, -6, 0, 1) if field is QQ else (1, 5, 0, 5), (0, 0, 0, 0)),)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=str)
@pytest.mark.parametrize("residual", list(RESIDUALS)[:2])
def test_minors_gcd_residual_of_degree_above_one(residual, field):
    # a residual of degree r needs C(r+2, 2) lines through one point: with
    # fewer, cones over plane curves of degree r through them also fit
    M = _rep_matrix(RESIDUALS[residual], field)
    F, Q = parse_tpoly(CONE, field), parse_tpoly(residual, field)
    for seed in range(4):
        assert minors_gcd(M, F, M.rows, Random(seed)) == (monic(tmul(F, Q)), 1, monic(Q)), seed


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=str)
def test_residual_takes_the_least_power_on_its_lines(field):
    residual = list(RESIDUALS)[2]
    M = _rep_matrix(RESIDUALS[residual], field)
    F, Q = parse_tpoly(CONE, field), parse_tpoly(residual, field)
    block = _Block(M, _shapes(M)[1][0][1], F, Random(0))
    # on the line x = (0, lambda, -lambda, mu), Q = lambda^2 = -F
    line = block.split([0, 0, 0, 1], [0, 1, -1, 0])
    assert (line.degree, line.power) == (4, 2)
    power, found = block.residual(line, 2)
    assert power == 1 and monic(found) == monic(Q)
    assert block.split([1, 2, 0, 1], [2, 4, 0, 2]) is None  # a and b span no line
    for seed in range(4):
        assert minors_gcd(M, F, 4, Random(seed)) == (monic(tmul(F, Q)), 1, monic(Q)), seed


@pytest.mark.parametrize("p", [3, 5])
def test_small_prime_rejects_uncertified_block(p):
    # GF(3) and GF(5) have too few lines: _Block.residual fit no residual
    # on some seeds, or read a wrong power; certified blocks (segre.ex mod 2)
    # are unaffected
    field = PrimeField(p)
    M = _rep_matrix(RESIDUALS[list(RESIDUALS)[2]], field)
    F = parse_tpoly(CONE, field)
    for seed in range(4):
        with pytest.raises(StrandError, match=rf"over GF\({p}\) .* run over QQ or mod a prime of at least 7"):
            minors_gcd(M, F, 4, Random(seed))


def test_minors_gcd_diagnostics_on_trusted_degree(monkeypatch):
    M = _rep_matrix(RESIDUALS["T4^2 - T1*T2"], QQ)
    F = parse_tpoly(CONE)
    # every line shows degree 4 = deg D, so 5 is certified too high
    with pytest.raises(StrandError, match="has degree at most 4, but the strand at nu=0 expects 5"):
        minors_gcd(M, F, 5)
    with pytest.raises(StrandError, match=r"on 200 random lines has degree 4 \(an upper bound"):
        minors_gcd(M, F, 3)
    monkeypatch.setattr(matrixrep, "_MAX_LINES", 2)
    with pytest.raises(StrandError, match="no residual of degree 2 fits 2 lines"):
        minors_gcd(M, F, 4)
