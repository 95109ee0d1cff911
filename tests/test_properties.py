"""Property tests on seeded inputs.

The whole pipeline on dense bidegree (1,1) inputs, over QQ and GF(32003):
four bilinear forms with independent coefficient vectors map P1 x P1
isomorphically onto a smooth quadric, so the theory promises D = F exactly
and a rank drop of M exactly on F = 0. The strand bookkeeping over QQ on
dense bidegree (2,2) and lifted (1,2) inputs, against plain Fraction ranks
and against GF(32003). The base-point degree and the saturation index of
bidegree (2,2) inputs with simple base points at corners of P1 x P1, and at
random points. Membership and the minors gcd of lifted mixed-bidegree
draws, whose blocks are worked once per class, against a run per block.
The one substitution engine against products built one factor at a time.
The strand, syzygies and saturation index of lifted inputs, worked one
character of their grading at a time, against the whole Koszul pieces.
"""

from copy import copy
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from bisurf import _expr, matrixrep, zcomplex
from bisurf.biparam import BiHomPoly, Parametrization, lift_mixed, parse_parametrization
from bisurf.exactla import int_nullspace, int_rank
from bisurf.fields import QQ, PrimeField
from bisurf.matrixrep import (
    InterpolationError,
    RepMatrix,
    _blocks,
    _shapes,
    implicit_by_interpolation,
    membership,
    minors_gcd,
    representation_matrix,
    verify_substitution,
)
from bisurf.tpoly import TPoly
from bisurf.zcomplex import (
    SegreIdeal,
    choose_nu,
    cycle_space_dim,
    linear_syzygies,
    saturation_indeg,
    strand_report,
    working_strand,
)

from helpers import (
    det_bareiss,
    dot_terms,
    evaluate,
    fraction_nullspace,
    fraction_rank,
    image_point,
    int_rows,
    koszul_rows,
    mul_terms,
    random_dense,
    substitute,
    syzygy_forms,
)

FIELDS = [QQ, PrimeField(32003)]
INPUTS = Path(__file__).resolve().parent.parent / "inputs"
SAMPLES = sorted(path.name for path in INPUTS.glob("*.ex"))
MONOMIALS = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]


def over(P, field):
    return Parametrization(
        BiHomPoly(f.bidegree, {e: field.coerce(c) for e, c in f.terms.items()}, field)
        for f in P.fs
    )


def dense_11(seed, field):
    return over(random_dense(1, Random(seed)), field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pipeline_on_dense_bidegree_11(field, seed):
    P = dense_11(seed, field)
    coefficients = [[f.terms.get(e, field.zero) for e in MONOMIALS] for f in P.fs]
    assume(int_rank(int_rows(coefficients), 4, field.characteristic) == 4)
    I = SegreIdeal.from_parametrization(P)
    nu, rep = choose_nu(I)
    for v in linear_syzygies(I, nu):
        assert not dot_terms(syzygy_forms(v, nu, field), P.fs, field.characteristic)
    M = representation_matrix(I, nu)
    F = implicit_by_interpolation(P, rep.expected_det_degree)
    assert verify_substitution(F, P)
    D, power, residual = minors_gcd(M, F, rep.expected_det_degree)
    assert D == F and power == 1 and residual.is_constant()
    rng = Random(seed)
    s, u, t, v = 0, 0, 0, 0
    while not ((s or u) and (t or v)):
        s, u, t, v = (rng.randint(-9, 9) for _ in range(4))
    image = image_point(P, [field.coerce(x) for x in (s, u, t, v)])
    assert evaluate(F.terms, image, field.characteristic) == 0 and membership(M, image)[0]
    point = [field.coerce(rng.randint(-40, 40)) for _ in range(4)]
    if any(point):
        assert membership(M, point)[0] == (evaluate(F.terms, point, field.characteristic) == 0)


# verify_substitution checks eq(f1..f4) = 0 by expanding sum c_e f^e over
# eq's monomials with the oracle's engine; its parts of different degrees
# fill disjoint terms. The equations F·G + H below
# have parts in several degrees (G and H are not homogeneous) and
# denominators, and the reference is a plain expansion of eq(f1..f4). The
# equation vanishes when H does on the image; a nonzero H of degree 0 alone,
# or below the top degree of F·G, fails only in its own degree, and
# coordinates with different denominators fail if each is scaled apart.

RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))  # none vanishes mod 7
NONZERO = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6))
H_DEGREES = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def t_form(data, field, degree):
    """A random form of one degree in T1..T4 with every coefficient nonzero."""
    return {e: field.coerce(data.draw(NONZERO))
            for e in product(range(degree + 1), repeat=4) if sum(e) == degree}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_verify_substitution_per_degree(field, data):
    p = field.characteristic
    d1, d2 = data.draw(st.sampled_from([(1, 1), (1, 2)]))
    quads = [(i, d1 - i, j, d2 - j) for i in range(d1 + 1) for j in range(d2 + 1)]
    fs = [BiHomPoly((d1, d2), {q: field.coerce(data.draw(RATIONALS)) for q in quads}, field)
          for _ in range(4)]
    assume(not all(f.is_zero() for f in fs))
    P = Parametrization(fs)
    try:
        F = implicit_by_interpolation(P, 2 * d1 * d2)
    except InterpolationError:  # the image is not a surface
        assume(False)
    variable = data.draw(st.sampled_from([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))
    G = {**t_form(data, field, 0), variable: field.coerce(data.draw(NONZERO))}
    terms = mul_terms(F.terms, G)
    for degree in data.draw(st.sampled_from(H_DEGREES)):
        for e, c in t_form(data, field, degree).items():
            terms[e] = terms.get(e, 0) + c
    eq = TPoly(terms, field)
    assert verify_substitution(eq, P) == (not substitute(eq.terms, fs, p))


# matrixrep._power is the one place that puts forms into monomials of
# T1..T4, and matrixrep._substitute sums c_e f^e over it. The forms drawn are
# of both kinds that reach it: bihomogeneous forms in s,u,t,v (the oracle and
# verify_substitution) and binary linear forms a*mu + b*lambda (a line of the
# minors gcd). The reference builds each f^e by repeated products.

T_EXPONENTS = [e for e in product(range(5), repeat=4) if sum(e) <= 4]


def naive_substitute(coeffs, fs, p):
    acc = {}
    for e, c in coeffs.items():
        power = {(0, 0, 0, 0): 1}
        for f, k in zip(fs, e):
            for _ in range(k):
                power = _expr.mul(power, f)
        for m, x in power.items():
            acc[m] = acc.get(m, 0) + c * x
    return {m: x % p if p else x for m, x in acc.items() if (x % p if p else x)}


@pytest.mark.parametrize("p", [0, 32003], ids=["QQ", "GF(32003)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_matches_repeated_products(p, data):
    ints = st.integers(0, p - 1) if p else st.integers(-50, 50)
    coeffs = data.draw(st.dictionaries(st.sampled_from(T_EXPONENTS), ints, max_size=6))
    coeffs = {e: c for e, c in coeffs.items() if c}
    if data.draw(st.booleans(), label="binary linear forms"):
        monos = [(0, 0, 1, 0), (0, 0, 0, 1)]
    else:
        d1, d2 = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
        monos = [(i, d1 - i, j, d2 - j) for i in range(d1 + 1) for j in range(d2 + 1)]
    fs = [{m: c for m in monos if (c := data.draw(ints))} for _ in range(4)]
    assert matrixrep._substitute(coeffs, fs, p) == naive_substitute(coeffs, fs, p)


def dense_22(seed):
    return random_dense(2, Random(seed))


def lifted_12(seed):
    """Four bidegree (1,2) forms without a u*v^2 term, lifted to bidegree
    (2,2). All of them vanish at s = t = 0, a base point that leaves
    homology in the strand, which no certificate covers."""
    rng = Random(seed)
    fs = []
    for _ in range(4):
        terms = {(i, 1 - i, j, 2 - j): Fraction(rng.choice((-3, -1, 1, 2, 5, 7)))
                 for i in range(2) for j in range(3) if i or j}
        fs.append(BiHomPoly((1, 2), terms, QQ))
    return lift_mixed(Parametrization(fs))


def fraction_cycle_dim(I, i, mu):
    """cols - the rank of the whole piece of d_i, by plain elimination over
    the ideal's field, on the transpose when it has fewer rows."""
    rows, cols = koszul_rows(I, i, mu)
    if len(rows) > cols:
        rows = [list(col) for col in zip(*rows)]
    return cols - fraction_rank(rows, I.field.characteristic)


@pytest.mark.parametrize("make", [dense_22, lifted_12], ids=["dense22", "lifted12"])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_certified_strand_ranks(make, seed):
    P = make(seed)
    I = SegreIdeal.from_parametrization(P)
    nu = 2 * I.degree - 1
    rep = strand_report(I, nu)
    with mock.patch.object(zcomplex, "cycle_space_dim", fraction_cycle_dim):
        assert rep == strand_report(I, nu)
    assert rep == strand_report(SegreIdeal.from_parametrization(over(P, PrimeField(32003))), nu)


def sample_ideal(name, field):
    if name == "dense22":
        text = random_dense(2, Random(1)).to_text()
    else:
        text = (INPUTS / name).read_text(encoding="utf-8")
    return SegreIdeal.from_parametrization(lift_mixed(parse_parametrization(text, field_override=field)))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=str)
@pytest.mark.parametrize("name", SAMPLES + ["dense22"])
def test_cycle_dims_against_the_whole_matrix(name, field):
    # cycle_space_dim ranks only the columns of d_i outside the pivot rows of
    # d_(i+1); every degree up to 2d-1 of the bidegree (2,2) inputs, and for
    # lifted mixed23 nu = 5, the benchmark's, and 6, the least degree with
    # a piece of d_(i+1)
    I = sample_ideal(name, None if field is QQ else field)
    d = I.degree
    for nu in (range(2 * d) if d <= 2 else (d - 1, d)):
        for i in (1, 2, 3):
            mu = nu + i * d
            assert cycle_space_dim(I, i, mu) == fraction_cycle_dim(I, i, mu), (nu, i)


# The corner monomials s^2t^2, u^2v^2, s^2v^2 and u^2t^2 of bidegree (2,2).
# A dense draw with k of them dropped from every generator has k simple base
# points, at those corners of P1 x P1. The saturation is then their ideal,
# whose least degree holds a (1,1) form through up to three corners and
# needs degree 2 for all four.
CORNERS = [(2, 0, 2, 0), (0, 2, 0, 2), (2, 0, 0, 2), (0, 2, 2, 0)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_saturation_indeg_at_corner_base_points(field, seed):
    P = over(random_dense(2, Random(seed)), field)
    for k in range(5):
        I = SegreIdeal(
            BiHomPoly((2, 2), {e: c for e, c in f.terms.items() if e not in CORNERS[:k]}, field)
            for f in P.fs
        )
        assert strand_report(I, 3).base_points_degree == k
        assert saturation_indeg(I) == (0, 1, 1, 1, 2)[k]


# The bidegree (2,2) monomials s^i u^(2-i) t^j v^(2-j).
MONOMIALS_22 = [(i, 2 - i, j, 2 - j) for i in range(3) for j in range(3)]


def _value(e, point):
    s, u, t, v = point
    return s ** e[0] * u ** e[1] * t ** e[2] * v ** e[3]


def through_points(seed, k):
    """(k distinct points of P1 x P1 with nonzero coordinates, at most two
    on any ruling (s/u or t/v constant), four random int combinations of a
    basis of the (2,2) forms through them), the basis from the Fraction
    kernel of the forms' values at the points. Three points on a ruling
    would put that line in the base locus of every such form, and a corner
    monomial that all four forms miss its corner, so the forms are drawn
    again until each corner monomial is in one of them."""
    rng = Random(seed)
    distinct = {}
    while len(distinct) < k:
        s, u, t, v = (rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(4))
        a, b = Fraction(s, u), Fraction(t, v)
        if sum(x == a for x, _ in distinct) < 2 and sum(y == b for _, y in distinct) < 2:
            distinct.setdefault((a, b), (s, u, t, v))
    points = list(distinct.values())
    # a zero row keeps the column count when there are no points
    values = [[_value(e, pt) for e in MONOMIALS_22] for pt in points] + [[0] * 9]
    span = int_rows(fraction_nullspace(values))
    fs = []
    while not fs or any(all(corner not in f.terms for f in fs) for corner in CORNERS):
        fs = []
        for _ in range(4):
            weights = [rng.randint(-9, 9) for _ in span]
            coeffs = [sum(w * b[i] for w, b in zip(weights, span)) for i in range(9)]
            fs.append(BiHomPoly((2, 2), {e: Fraction(c) for e, c in zip(MONOMIALS_22, coeffs) if c}, QQ))
    return points, Parametrization(fs)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=249684)  # drew three points on the ruling s/u = -4 before
@example(seed=1000000)  # drew four forms without s^2*t^2 before
def test_saturation_indeg_at_general_base_points(field, seed):
    # the saturation is the ideal of the k simple base points; its least
    # degree is 0 without points, 1 while a (1,1) form passes through them
    # and 2 when the k x 4 matrix of the (1,1) monomials at them has rank 4
    p = field.characteristic
    for k in range(5):
        points, P = through_points(seed, k)
        I = SegreIdeal.from_parametrization(over(P, field))
        assert strand_report(I, 3).base_points_degree == k
        bilinear = [[_value(e, pt) for e in MONOMIALS] for pt in points]
        full = k == 4 and det_bareiss(bilinear, p) != 0
        assert saturation_indeg(I) == (0 if k == 0 else 2 if full else 1)


def random_mixed(d1, d2, seed, field):
    """Four bidegree (d1,d2) forms over field, every coefficient a nonzero
    int in [-9, 9]."""
    rng = Random(seed)
    quads = [(i, d1 - i, j, d2 - j) for i in range(d1 + 1) for j in range(d2 + 1)]
    nonzero = [c for c in range(-9, 10) if c]
    return Parametrization(BiHomPoly((d1, d2), {q: field.coerce(rng.choice(nonzero)) for q in quads},
                                     field) for _ in range(4))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("bidegree", [(1, 2), (1, 3)], ids=str)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_block_classes_on_lifted_draws(bidegree, field, seed):
    # M of a lifted (1,k) draw has k blocks, which membership and minors_gcd
    # work once per class of blocks equal up to row and column order: the
    # rank of M(pt) at image and random points, and the same (D, power,
    # residual) as a run with every block a class of its own
    P = random_mixed(*bidegree, seed, field)
    I = SegreIdeal.from_parametrization(lift_mixed(P))
    nu, strand = working_strand(I, None, False)
    M = representation_matrix(I, nu)
    per_block = RepMatrix(M.nu, M.basis, M.syzygies, M.field)
    with mock.patch.object(matrixrep, "_class_key", lambda table: object()):
        assert [n for _, _, n in _shapes(per_block)[1]] == [1] * bidegree[1]
    assert sum(n for _, _, n in _shapes(M)[1]) == len(_blocks(M)) == bidegree[1]
    rng, p, k = Random(seed), field.characteristic, M.rows
    image = []
    while len(image) < 3:
        pt = image_point(P, [field.coerce(rng.randint(-9, 9)) for _ in range(4)])
        if any(pt):
            image.append(pt)
    others = [[field.coerce(rng.randint(-40, 40)) for _ in range(4)] for _ in range(3)]
    for pt in image + [pt for pt in others if any(pt)]:
        r = fraction_rank([[sum(c * x for c, x in zip(v[i::k], pt)) for v in M.syzygies]
                           for i in range(k)], p)
        assert membership(M, pt) == (r < k, r), pt
        assert r < k or pt not in image
    degree = strand.expected_det_degree
    F = implicit_by_interpolation(P, degree)
    assert minors_gcd(M, F, degree, Random(seed)) == minors_gcd(per_block, F, degree, Random(seed))


def whole(I):
    """I with the grading (1, 1): every Koszul piece ranked and kernelled as
    one whole matrix."""
    J = copy(I)
    J.grading = (1, 1)
    return J


def normalized(vectors, p):
    """Each vector divided by its last nonzero entry, over QQ as Fractions."""
    out = []
    for v in vectors:
        last = next(a for a in reversed(v) if a)
        out.append([x * pow(last, -1, p) % p if p else Fraction(x) / last for x in v])
    return out


def check_characters(I, nus, exact=True):
    """strand_report, linear_syzygies and saturation_indeg of I, one character
    at a time, against the whole matrix: plain Fraction (or GF(p)) ranks and
    kernels of koszul_rows when exact, else exactla's of the same rows, and
    saturation_indeg of whole(I)."""
    p = I.field.characteristic

    def whole_cycle_dim(I, i, mu):
        rows, cols = koszul_rows(I, i, mu)
        return cols - int_rank(rows, cols, p)

    for nu in nus:
        with mock.patch.object(zcomplex, "cycle_space_dim", fraction_cycle_dim if exact else whole_cycle_dim):
            expected = strand_report(I, nu)
        assert strand_report(I, nu) == expected, nu
        rows, cols = koszul_rows(I, 1, nu + I.degree)
        kernel = fraction_nullspace(rows, p) if exact else int_nullspace(rows, cols, p)
        assert normalized(linear_syzygies(I, nu), p) == normalized(kernel, p), nu
    assert saturation_indeg(I) == saturation_indeg(whole(I))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=str)
def test_lifted_mixed23_characters_against_the_whole_matrix(field):
    # six characters (3, 2); at nu = 5 the pieces are six 24x24, 96x36 and
    # 144x24 in place of 144x144, 576x216 and 864x144; nu = 11, the default,
    # over QQ is checked against exactla on the whole rows, since plain
    # Fraction elimination of them takes about 20 s
    I = sample_ideal("mixed23.ex", None if field is QQ else field)
    assert I.grading == (3, 2)
    check_characters(I, (5, 6, 11) if field.characteristic else (5, 6))
    if field is QQ:
        check_characters(I, (11,), exact=False)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003), PrimeField(7)], ids=str)
@pytest.mark.parametrize("bidegree", [(1, 2), (2, 3)], ids=str)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_lifted_draws_characters_against_the_whole_matrix(bidegree, field, seed):
    # lifted (1,2) draws are (2,2) with grading (2,1), lifted (2,3) draws
    # (6,6) with grading (3,2)
    I = SegreIdeal.from_parametrization(lift_mixed(random_mixed(*bidegree, seed, field)))
    assert I.grading == ((2, 1) if bidegree == (1, 2) else (3, 2))
    check_characters(I, (1, 2, 3) if I.degree == 2 else (5,))
