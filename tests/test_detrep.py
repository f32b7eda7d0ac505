import functools
import itertools
import operator
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubiclat import detrep
from cubiclat.detrep import (
    FormMatrix,
    ScanResult,
    build_cubic,
    contains_plane,
    det_form_matrix,
    discriminant_curve,
    projective_points,
    quadric_gram,
    smooth_fourfold_fp,
    smooth_plane_curve_fp,
)
from cubiclat.errors import (
    BadPrime,
    HalfIntegerCoefficient,
    NoPlane,
    NotCubic,
    PrimeTooLarge,
    WrongSize,
    WrongVariable,
)
from cubiclat.forms import AMBIENT_VARS, PLANE_VARS, Form, parse_form, serialize_form

import oracles


def _pf(text, p=None):
    return parse_form(text, PLANE_VARS, p)


def _matrix_from_texts(grid, p=None):
    return FormMatrix([[_pf(t, p) for t in row] for row in grid])


DIAG = _matrix_from_texts(
    [
        ["X0", "0", "0", "0"],
        ["0", "X1", "0", "0"],
        ["0", "0", "X2", "0"],
        ["0", "0", "0", "X0^3"],
    ]
)


def test_diagonal_determinant():
    det = det_form_matrix(DIAG)
    assert serialize_form(det) == "X0^4*X1*X2"
    assert det.degree == 6


def test_matrix_validation():
    with pytest.raises(WrongSize):
        _matrix_from_texts([["X0", "X1"], ["X1", "X2"], ["X0", "X0"]])
    with pytest.raises(WrongSize):
        # degree pattern broken: quadratic where the pattern wants linear
        _matrix_from_texts(
            [
                ["X0^2", "0", "0", "0"],
                ["0", "X1", "0", "0"],
                ["0", "0", "X2", "0"],
                ["0", "0", "0", "X0^3"],
            ]
        )
    with pytest.raises(WrongSize):
        # asymmetric
        _matrix_from_texts(
            [
                ["X0", "X1", "0", "0"],
                ["X2", "X1", "0", "0"],
                ["0", "0", "X2", "0"],
                ["0", "0", "0", "X0^3"],
            ]
        )
    with pytest.raises(WrongVariable):
        FormMatrix([[parse_form("Z1", AMBIENT_VARS)]])


def test_matrix_field_mixing_rejected():
    a = _pf("X0")
    b = _pf("X0", 7)
    with pytest.raises(BadPrime):
        FormMatrix([[a, b], [b, a]])


def test_matrix_json_round_trip():
    rng = random.Random(59)
    for p in (None, 7):
        m = oracles.random_form_matrix(rng, p)
        assert FormMatrix.from_json(m.to_json()) == m


def test_determinant_matches_permutation_expansion():
    rng = random.Random(61)
    for p in (None, 101):
        for _ in range(6):
            m = oracles.random_form_matrix(rng, p)
            assert det_form_matrix(m) == oracles.permutation_det(m.entries)


def test_determinant_size_budget(monkeypatch):
    zeros = FormMatrix([[Form.zero(PLANE_VARS, 1)] * 8 for _ in range(8)])
    with pytest.raises(WrongSize):
        det_form_matrix(zeros)
    monkeypatch.setattr(detrep, "MAX_DET_SIZE", 3)
    with pytest.raises(WrongSize):
        det_form_matrix(DIAG)


def test_determinant_degree_label():
    rng = random.Random(67)
    m = oracles.random_form_matrix(rng)
    assert det_form_matrix(m).degree == 6


def test_build_cubic_frozen():
    cubic = build_cubic(DIAG)
    assert (
        serialize_form(cubic)
        == "Z1^2*X0+Z2^2*X1+Z3^2*X2+X0^3"
    )
    assert contains_plane(cubic)


def test_build_and_gram_round_trip():
    rng = random.Random(71)
    for p in (None, 101):
        for _ in range(8):
            m = oracles.random_form_matrix(rng, p)
            assert quadric_gram(build_cubic(m)) == m


def test_gram_of_raw_cubic():
    cubic = parse_form("Z1^2*X0", AMBIENT_VARS)
    m = quadric_gram(cubic)
    assert serialize_form(m.entries[0][0]) == "X0"
    assert all(
        m.entries[i][j].is_zero()
        for i in range(4)
        for j in range(4)
        if (i, j) != (0, 0)
    )
    # odd mixed coefficient over Q lands on a half-integer entry
    mixed = quadric_gram(parse_form("Z1*Z2*X0 + Z1^2*X1", AMBIENT_VARS))
    assert serialize_form(mixed.entries[0][1]) == "1/2*X0"


def test_gram_rejects_half_integers_mod_2():
    cubic = parse_form("Z1*Z2*X0 + Z1^2*X1", AMBIENT_VARS, 2)
    with pytest.raises(HalfIntegerCoefficient):
        quadric_gram(cubic)


def test_gram_requires_plane():
    with pytest.raises(NoPlane):
        quadric_gram(parse_form("Z1^3", AMBIENT_VARS))
    with pytest.raises(NotCubic):
        quadric_gram(parse_form("Z1^2*X0^2", AMBIENT_VARS))
    with pytest.raises(WrongVariable):
        quadric_gram(parse_form("X0^3", PLANE_VARS))


def test_discriminant_curve_equals_det():
    rng = random.Random(73)
    for p in (None, 101):
        for _ in range(4):
            m = oracles.random_form_matrix(rng, p)
            assert discriminant_curve(build_cubic(m)) == det_form_matrix(m)


def test_projective_point_counts_and_order():
    pts = list(projective_points(3, 7))
    assert len(pts) == 57
    assert pts[0] == (1, 0, 0)
    assert len(set(pts)) == 57
    pts5 = list(projective_points(6, 7))
    assert len(pts5) == 19608


def test_fermat_sextic_smooth_mod_7():
    sextic = _pf("X0^6+X1^6+X2^6", 7)
    res = smooth_plane_curve_fp(sextic, 7)
    assert res.smooth_mod_p is True
    assert res.witness is None
    assert res.points_scanned == 57


def test_triple_conic_singular_witness():
    res = smooth_plane_curve_fp(_pf("X0^2*X1^2*X2^2"), 7)
    assert res.smooth_mod_p is False
    assert res.witness == (1, 0, 0)


def test_fermat_sextic_mod_2_singular():
    res = smooth_plane_curve_fp(_pf("X0^6+X1^6+X2^6"), 2)
    assert res.smooth_mod_p is False
    assert res.witness == (1, 0, 1)


def test_fermat_cubic_fourfold_smooth_mod_7():
    cubic = parse_form("Z1^3+Z2^3+Z3^3+X0^3+X1^3+X2^3", AMBIENT_VARS)
    res = smooth_fourfold_fp(cubic, 7)
    assert res.smooth_mod_p is True
    assert res.points_scanned == 19608


def test_fourfold_scan_cap(monkeypatch):
    cubic = parse_form("Z1^3+Z2^3+Z3^3+X0^3+X1^3+X2^3", AMBIENT_VARS)
    with pytest.raises(PrimeTooLarge):
        smooth_fourfold_fp(cubic, 11)
    res = smooth_fourfold_fp(cubic, 3)
    # mod 3 every partial derivative vanishes identically: nothing is smooth
    assert res.smooth_mod_p is False
    # the curve scan has the same point budget: P^2(F_317) has 100,807 points
    with pytest.raises(PrimeTooLarge):
        smooth_plane_curve_fp(_pf("X0^6+X1^6+X2^6"), 317)
    # and reads it at call time: P^5(F_3) has 364 points
    monkeypatch.setattr(detrep, "MAX_POINTS", 363)
    with pytest.raises(PrimeTooLarge):
        smooth_fourfold_fp(cubic, 3)


def test_scan_matches_evaluate_oracle():
    # degrees above p - 1 exercise the exponent reduction of the compiled scan
    rng = random.Random(71)
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7))
        degree = rng.randint(1, 14)
        f = oracles.random_plane_form(rng, degree)
        if rng.random() < 0.5:
            line = oracles.random_plane_form(rng, 1)
            f = f * line * line
        if all(c % p == 0 for c in f.coeffs.values()):
            continue
        res = smooth_plane_curve_fp(f, p)
        assert (res.witness, res.points_scanned) == oracles.scan_direct(f, p)
        assert res.smooth_mod_p == (res.witness is None)
    # exponents and term counts far past the compiler's nesting limit
    fermat = _pf("X0^5000+X1^5000+X2^5000")
    assert smooth_plane_curve_fp(fermat, 7) == ScanResult(True, None, 57)
    dense = _pf("+".join(f"X0^{i}*X1^{j}*X2^{80 - i - j}" for i in range(81) for j in range(81 - i)))
    assert len(dense.coeffs) == 3321
    assert smooth_plane_curve_fp(dense, 2) == ScanResult(True, None, 7)


def test_scan_rejects_bad_reductions():
    with pytest.raises(BadPrime):
        smooth_plane_curve_fp(_pf("7*X0^6+7*X1^6"), 7)
    with pytest.raises(BadPrime):
        smooth_plane_curve_fp(_pf("X0^6+X1^6"), 6)
    mixed = _pf("X0^6", 5)
    with pytest.raises(BadPrime):
        smooth_plane_curve_fp(mixed, 7)


def test_scan_result_json():
    res = smooth_plane_curve_fp(_pf("X0^2*X1^2*X2^2"), 7)
    data = res.to_json()
    assert data["smooth_mod_p"] is False
    assert data["witness"] == [1, 0, 0]
    assert data["points_scanned"] >= 1


def _line_through(u, v, p):
    # the linear form vanishing at the points u and v of P^2(F_p) (zero if u = v)
    coeffs = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return Form(PLANE_VARS, 1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), coeffs)), p)


@st.composite
def scan_curves(draw):
    """(f, p): a curve singular by construction, singular only over F_p^2, or dense."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    kind = draw(st.sampled_from(("node", "cusp", "conjugate", "dense")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    points = list(projective_points(3, p))
    if kind in ("node", "cusp"):
        # L1 and L2 pass through the drawn point, so the curve is singular there
        point = draw(st.sampled_from(points))
        l1, l2 = (_line_through(point, draw(st.sampled_from(points)), p) for _ in range(2))
        degree = draw(st.integers(3, 7))
        m = oracles.random_plane_form(rng, degree - 2, p)
        if kind == "node":
            f = l1 * l2 * m
        else:
            f = l1 * l1 * m + l2 * l2 * l2 * oracles.random_plane_form(rng, degree - 3, p)
    elif kind == "conjugate" and p > 2:
        # (X2^2 - n*X0^2)^2 + X1^2*h has nodes where X1 = 0 and X2^2 = n*X0^2,
        # a conjugate pair over F_p^2, for n a non-residue mod p (F_2 has
        # none, so p = 2 draws a dense curve instead)
        n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        f = _pf(f"X2^4 - {2 * n}*X0^2*X2^2 + {n * n}*X0^4", p)
        f = f + _pf("X1^2", p) * oracles.random_plane_form(rng, 2, p)
    else:
        f = oracles.random_plane_form(rng, draw(st.integers(1, 8)), p)
    return f, p


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scan_curves())
def test_line_scan_matches_point_scans(case):
    f, p = case
    assume(not f.is_zero())
    res = smooth_plane_curve_fp(f, p)
    assert (res.witness, res.points_scanned) == oracles.scan_direct(f, p)
    assert res == oracles.point_scan(f, p)


def _prod(*texts):
    return functools.reduce(operator.mul, map(_pf, texts))


@pytest.mark.parametrize(
    "f, p, witness, scanned",
    [
        # the only singular point (0,1,3) lies on the line X0 = 0
        (_prod("X0", "X2 - 3*X1"), 7, (0, 1, 3), 53),
        # the two lines meet at (0,0,1), the last point scanned
        (_pf("X0*X1"), 5, (0, 0, 1), 31),
        # the line X1 = 2*X0 is singular: the gcd on it is zero, so t = 0
        (_prod("X1 - 2*X0", "X1 - 2*X0", "X0 + X2"), 7, (1, 2, 0), 15),
        # nodes at (1,0,2) and (1,0,5) on one line: the smaller root wins
        (_pf("X0^2*X1^2") + _prod("X2 - 2*X0", "X2 - 2*X0", "X2 - 5*X0", "X2 - 5*X0"), 7, (1, 0, 2), 3),
        # p divides the degree, so every partial vanishes and f alone decides
        (_pf("X0^6 + X1^6 + X2^6"), 2, (1, 0, 1), 2),
        (_pf("X0^6 + X1^6 + X2^6"), 3, (1, 1, 1), 5),
        # smooth: all p^2 + p + 1 points are covered
        (_pf("X0^2 + X1^2 + X2^2"), 13, None, 183),
        # (X0^2*X1 + X0*X1^2)^2 mod 2: f and its partials vanish at every point
        (_pf("X0^4*X1^2 + X0^2*X1^4"), 2, (1, 0, 0), 1),
        # degrees in t far past any list size: exponents are reduced mod p - 1
        (_pf(f"X2^{10**20} + X0*X1*X2^{10**20 - 2}"), 5, (1, 0, 0), 1),
    ],
    ids=["x0-line", "last-point", "singular-line", "smallest-root", "fermat-mod-2", "fermat-mod-3", "smooth", "vanishes-everywhere", "huge-exponent"],
)
def test_line_scan_edge_cases(f, p, witness, scanned):
    res = smooth_plane_curve_fp(f, p)
    assert res == ScanResult(witness is None, witness, scanned)
    assert res == oracles.point_scan(f, p)
    assert (witness, scanned) == oracles.scan_direct(f, p)


CUBIC_MONOMIALS = [e for e in itertools.product(range(4), repeat=6) if sum(e) == 3]


def _linear(rng, p, through=None):
    # a random linear form in AMBIENT_VARS, vanishing at the point through if given
    coeffs = [rng.randrange(p) for _ in range(6)]
    if through is not None:
        lead = through.index(1)
        coeffs[lead] = 0
        coeffs[lead] = -sum(c * x for c, x in zip(coeffs, through)) % p
    return Form(AMBIENT_VARS, 1, {tuple(int(i == k) for i in range(6)): c for k, c in enumerate(coeffs)}, p)


@st.composite
def scan_cubics(draw):
    """(f, p): a cubic fourfold singular by construction, dense, or built from a form matrix."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    kind = draw(st.sampled_from(("singular", "dense", "matrix")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "singular":
        # every term is a product of two linear forms vanishing at the point
        point = draw(st.sampled_from(list(projective_points(6, p))))
        l1, l2, l3, l4 = (_linear(rng, p, point) for _ in range(4))
        f = l1 * l2 * _linear(rng, p) + l3 * l4 * _linear(rng, p)
    elif kind == "dense":
        f = Form(AMBIENT_VARS, 3, {e: rng.randrange(p) for e in CUBIC_MONOMIALS}, p)
    else:
        f = build_cubic(oracles.random_form_matrix(rng, p))
    return f, p


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(scan_cubics())
def test_fourfold_scan_matches_point_scans(case):
    f, p = case
    assume(not f.is_zero())
    res = smooth_fourfold_fp(f, p)
    assert res == oracles.point_scan(f, p)
    if p <= 3:
        assert (res.witness, res.points_scanned) == oracles.scan_direct(f, p)


def _af(text, p=None):
    return parse_form(text, AMBIENT_VARS, p)


# (X2 - 2*Z1)*(X2 - 5*Z1), zero on the line (1,0,0,0,0,t) at t = 2 and 5
_TWO_ROOTS = "X2^2 - 7*Z1*X2 + 10*Z1^2"


@pytest.mark.parametrize(
    "f, p, witness, scanned",
    [
        # X2 times a smooth quadric plus a diagonal cubic in the other five
        # variables: singular only at (0,...,0,1), the last point scanned
        (_af("X2*Z1^2 + X2*Z2^2 + X2*Z3^2 + X2*X0^2 + X2*X1^2 + Z1^3 + Z2^3 + Z3^3 + X0^3 + X1^3"), 7, (0, 0, 0, 0, 0, 1), 19608),
        # the cubic vanishes on the first line, so every t is a root; it is
        # singular there at t = 2 and t = 5, and the smaller root wins
        (
            functools.reduce(operator.add, (_af(v) * _af(_TWO_ROOTS) for v in ("Z2", "Z3", "X0", "X1")))
            + _af("Z2^3 + Z3^3 + X0^3 + X1^3"),
            7,
            (1, 0, 0, 0, 0, 2),
            3,
        ),
        # p divides the degree, so every partial vanishes and f = (Z1 + ... + X2)^3
        (_af("Z1^3+Z2^3+Z3^3+X0^3+X1^3+X2^3"), 3, (1, 0, 0, 0, 0, 2), 3),
        # mod 2 the compiled code reduces x^3 to x; the partials x_i^2 vanish together only at 0
        (_af("Z1^3+Z2^3+Z3^3+X0^3+X1^3+X2^3"), 2, None, 63),
    ],
    ids=["last-point", "line-of-roots", "fermat-mod-3", "fermat-mod-2"],
)
def test_fourfold_scan_edge_cases(f, p, witness, scanned):
    res = smooth_fourfold_fp(f, p)
    assert res == ScanResult(witness is None, witness, scanned)
    assert res == oracles.point_scan(f, p)


def test_fourfold_scan_rejects_huge_exponents():
    # a cubic's exponents are at most 3; anything larger is refused up front
    with pytest.raises(NotCubic):
        smooth_fourfold_fp(_af(f"Z1^{10**20}"), 7)


def test_fourfold_scan_evaluates_partials_only_at_roots(monkeypatch):
    # no timing: count the points where the compiled partials run.  The
    # Fermat cubic has 3,690 of the 19,608 points of P^5(F_7); a point
    # scan would evaluate at all of them
    points = set()
    compile_form = detrep._compile

    def counting(f):
        fn = compile_form(f)

        def wrapped(*point):
            points.add(point)
            return fn(*point)

        return wrapped

    monkeypatch.setattr(detrep, "_compile", counting)
    res = smooth_fourfold_fp(_af("Z1^3+Z2^3+Z3^3+X0^3+X1^3+X2^3"), 7)
    assert res == ScanResult(True, None, 19608)
    assert 0 < len(points) <= 4000
