import random
from fractions import Fraction

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cubiclat.detrep import FormMatrix, det_form_matrix
from cubiclat.errors import (
    BadPrime,
    NotHomogeneous,
    ParseError,
    WrongVariable,
)
from cubiclat.forms import (
    AMBIENT_VARS,
    PLANE_VARS,
    Form,
    check_prime,
    embed_form,
    parse_form,
    serialize_form,
)

import oracles


def test_check_prime():
    for p in (2, 3, 5, 7, 101, 2147483629, 2147483629):
        check_prime(p)
    # unhashable and non-integer input is refused before the cached divisor search
    for bad in (1, 0, -3, 4, 9, 2**31, 2.5, "7", [3], None):
        with pytest.raises(BadPrime):
            check_prime(bad)
    for _ in range(2):
        with pytest.raises(BadPrime, match=r"^9 = 3 \* 3 is not prime$"):
            check_prime(9)


def test_serialize_frozen():
    f = parse_form("X0^3+X1^3+X2^3", PLANE_VARS)
    assert serialize_form(f) == "X0^3+X1^3+X2^3"
    f = parse_form("2*X1*X0 - X2^2", PLANE_VARS)
    assert serialize_form(f) == "2*X0*X1-X2^2"
    f = parse_form("-1*X0 + 3*X1 - X2", PLANE_VARS)
    assert serialize_form(f) == "-X0+3*X1-X2"
    f = parse_form("1/2*X0^2 - 3/4*X1*X2", PLANE_VARS)
    assert serialize_form(f) == "1/2*X0^2-3/4*X1*X2"
    assert serialize_form(Form.zero(PLANE_VARS, 2)) == "0"


def test_serialize_is_graded_lex_descending():
    f = parse_form("X2^2+X0*X2+X1^2+X0*X1+X0^2", PLANE_VARS)
    assert serialize_form(f) == "X0^2+X0*X1+X0*X2+X1^2+X2^2"


def test_parse_merges_and_cancels():
    f = parse_form("X0^2 + X0^2 - 2*X0^2 + X1^2", PLANE_VARS)
    assert serialize_form(f) == "X1^2"
    g = parse_form("X0 - X0", PLANE_VARS)
    assert g.is_zero()


def test_parse_round_trip_random():
    rng = random.Random(29)
    for p in (None, 5, 101):
        for _ in range(25):
            deg = rng.randint(1, 5)
            f = oracles.random_plane_form(rng, deg, p)
            assert parse_form(serialize_form(f), PLANE_VARS, p) == f


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_form("X0 +", PLANE_VARS)
    with pytest.raises(ParseError):
        parse_form("", PLANE_VARS)
    with pytest.raises(ParseError):
        parse_form("3/0*X0", PLANE_VARS)
    with pytest.raises(ParseError):
        parse_form("X0^", PLANE_VARS)
    with pytest.raises(WrongVariable):
        parse_form("Y0^2", PLANE_VARS)
    with pytest.raises(NotHomogeneous):
        parse_form("X0 + X1^2", PLANE_VARS)


def test_fp_coefficients_normalize():
    f = parse_form("6*X0 - 1*X1", PLANE_VARS, 5)
    assert serialize_form(f) == "X0+4*X1"
    g = Form(PLANE_VARS, 1, {(1, 0, 0): Fraction(1, 2)}, 5)
    # 1/2 = 3 mod 5
    assert serialize_form(g) == "3*X0"
    with pytest.raises(BadPrime):
        Form(PLANE_VARS, 1, {(1, 0, 0): Fraction(1, 5)}, 5)


def test_arithmetic_ring_laws():
    rng = random.Random(37)
    for p in (None, 7):
        for _ in range(10):
            f = oracles.random_plane_form(rng, 2, p)
            g = oracles.random_plane_form(rng, 2, p)
            h = oracles.random_plane_form(rng, 1, p)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == Form.zero(PLANE_VARS, 2, p)


def test_degree_mixing_rejected():
    f = oracles.random_plane_form(random.Random(1), 2)
    g = oracles.random_plane_form(random.Random(2), 3)
    with pytest.raises(NotHomogeneous):
        f + g
    # zero forms are degree-agnostic in sums
    assert Form.zero(PLANE_VARS, 5) + f == f


def test_field_and_variable_mixing_rejected():
    f = oracles.random_plane_form(random.Random(3), 2)
    g = oracles.random_plane_form(random.Random(4), 2, 7)
    with pytest.raises(BadPrime):
        f + g
    h = parse_form("Z1^2", AMBIENT_VARS)
    with pytest.raises(WrongVariable):
        f + h


def test_evaluate_is_multiplicative():
    rng = random.Random(41)
    for p in (None, 11):
        for _ in range(10):
            f = oracles.random_plane_form(rng, 2, p)
            g = oracles.random_plane_form(rng, 3, p)
            if p is None:
                point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            else:
                point = tuple(rng.randrange(p) for _ in range(3))
            lhs = (f * g).evaluate(point)
            rhs = f.evaluate(point) * g.evaluate(point)
            if p is not None:
                rhs %= p
            assert lhs == rhs


def test_evaluate_huge_exponent_mod_p():
    # one modular power per factor: X0^100000 costs no more than X0^2
    f = parse_form("X0^100000", PLANE_VARS, 7)
    assert f.evaluate((3, 1, 1)) == pow(3, 100000, 7)


def test_derivative_leibniz():
    rng = random.Random(43)
    for _ in range(10):
        f = oracles.random_plane_form(rng, 2)
        g = oracles.random_plane_form(rng, 2)
        for k in range(3):
            assert (f * g).derivative(k) == f.derivative(k) * g + f * g.derivative(k)


def test_derivative_drops_degree():
    f = parse_form("X0^3+X0*X1*X2", PLANE_VARS)
    df = f.derivative(0)
    assert serialize_form(df) == "3*X0^2+X1*X2"
    assert df.degree == 2
    assert serialize_form(df.derivative(1)) == "X2"


def test_embed_preserves_evaluation():
    rng = random.Random(47)
    f = oracles.random_plane_form(rng, 3)
    lifted = embed_form(f, AMBIENT_VARS)
    assert lifted.variables == AMBIENT_VARS
    point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(6))
    assert lifted.evaluate(point) == f.evaluate(point[3:])


def test_constant_term_not_homogeneous_with_positive_degree():
    with pytest.raises(NotHomogeneous):
        parse_form("X0^2 + 1", PLANE_VARS)


def test_inexact_values_rejected():
    f = parse_form("X0^2+X1*X2", PLANE_VARS, 7)
    # int(0.5) % 7 = 0 and int(2.9) % 7 = 2 used to truncate silently
    for bad in (0.5, 2.9, "2", None):
        with pytest.raises(ParseError):
            f.scale(bad)
    with pytest.raises(ParseError):
        parse_form("X0", PLANE_VARS).scale(0.1)
    assert f.scale(Fraction(1, 2)) == f.scale(4)
    assert parse_form("X0", PLANE_VARS).scale(Fraction(2, 2)).coeffs == {(1, 0, 0): 1}
    with pytest.raises(ParseError):
        Form(PLANE_VARS, 1.5, {})
    with pytest.raises(ParseError):
        Form(PLANE_VARS, 1, {(1.7, 0, 0): 1})
    with pytest.raises(ParseError):
        Form(PLANE_VARS, 1, {(1, 0, 0): "x"})
    with pytest.raises(ParseError):
        Form(PLANE_VARS, 1, {(1, 0, 0): None}, 5)
    with pytest.raises(ParseError):
        Form(PLANE_VARS, 1, {(1, 0, 0): 1.0})


@pytest.mark.parametrize(
    "args",
    [
        (PLANE_VARS, 1, {5: 1}),  # an int where the exponent tuple goes
        (5, 1, {}),  # variables that are not a sequence
        (PLANE_VARS, 1, [(1, 0, 0)]),  # coefficients that are not a dict
    ],
)
def test_malformed_containers_are_parse_errors(args):
    with pytest.raises(ParseError):
        Form(*args)


def test_evaluate_coordinates_are_exact():
    f = parse_form("X0^2+X1*X2", PLANE_VARS)
    with pytest.raises(ParseError):
        f.evaluate((0.5, 1, 1))
    assert f.evaluate((Fraction(1, 2), 1, 1)) == Fraction(5, 4)
    assert type(f.evaluate((1, 1, 1))) is Fraction
    g = parse_form("X0^2+X1*X2", PLANE_VARS, 7)
    # 1/2 = 4 mod 7
    assert g.evaluate((Fraction(1, 2), 1, 1)) == g.evaluate((4, 1, 1)) == 3
    with pytest.raises(BadPrime):
        g.evaluate((Fraction(1, 7), 1, 1))
    with pytest.raises(ParseError):
        g.evaluate((0.5, 1, 1))


def test_integral_coefficients_are_int_over_q():
    f = parse_form("2*X0 - 1/2*X1", PLANE_VARS)
    assert [type(v) for _, v in sorted(f.coeffs.items())] == [Fraction, int]
    # an integral Fraction from arithmetic comes back as an int too
    assert (f * f).coeffs[(0, 2, 0)] == Fraction(1, 4)
    assert type((f + f).coeffs[(0, 1, 0)]) is int


def _forms(p, degree):
    monomials = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    # denominators prime to every drawn p, so each coefficient has a residue
    values = st.integers(-9, 9) | st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 11, 13)))
    return st.builds(
        lambda coeffs: Form(PLANE_VARS, degree, coeffs, p),
        st.dictionaries(st.sampled_from(monomials), values, max_size=len(monomials)),
    )


@st.composite
def form_pairs(draw):
    """(f, g, h, point, p): f and g of one degree, h of another, a point."""
    p = draw(st.sampled_from((None, 2, 3, 7, 101)))
    d, e = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coordinate = st.integers(-6, 6) if p is None else st.integers(0, p - 1)
    if p is None:
        coordinate = coordinate | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    point = draw(st.tuples(coordinate, coordinate, coordinate))
    return draw(_forms(p, d)), draw(_forms(p, d)), draw(_forms(p, e)), point, p


def _revalidated(r):
    return Form(r.variables, r.degree, r.coeffs, r.p)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(form_pairs())
def test_arithmetic_agrees_with_evaluation(case):
    f, g, h, x, p = case
    reduce = (lambda v: v) if p is None else (lambda v: v % p)
    results = [f * h, f + g, f - g, f - f, -f] + [f.derivative(i) for i in range(3)]
    for r in results:
        # the unchecked arithmetic path builds exactly what the checked constructor would
        again = _revalidated(r)
        assert r == again and r.degree == again.degree
        assert [type(v) for v in r.coeffs.values()] == [type(v) for v in again.coeffs.values()]
    assert (f * h).evaluate(x) == reduce(f.evaluate(x) * h.evaluate(x))
    assert (f + g).evaluate(x) == reduce(f.evaluate(x) + g.evaluate(x))
    assert (f - g).evaluate(x) == reduce(f.evaluate(x) - g.evaluate(x))
    # Euler: sum x_i * (d_i f)(x) = deg(f) * f(x)
    euler = sum(xi * f.derivative(i).evaluate(x) for i, xi in enumerate(x))
    assert reduce(euler) == reduce(f.degree * f.evaluate(x))


def test_determinant_matches_evaluated_matrix():
    # permutation_det shares Form arithmetic; Gauss elimination on the values does not
    rng = random.Random(79)
    for p in (None, 101):
        for _ in range(4):
            m = oracles.random_form_matrix(rng, p)
            if p is None:
                # non-integral entries, kept symmetric
                m = FormMatrix([[f.scale(Fraction(1, 1 + (i + j) % 3)) for j, f in enumerate(row)] for i, row in enumerate(m.entries)])
            det = det_form_matrix(m)
            for _ in range(3):
                x = tuple(rng.randint(-5, 5) for _ in range(3))
                want = oracles.det_fraction([[f.evaluate(x) for f in row] for row in m.entries])
                assert det.evaluate(x) == (want if p is None else want % p)
