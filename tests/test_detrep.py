import random

import pytest

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
