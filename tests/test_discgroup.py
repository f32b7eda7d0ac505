import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cubiclat import discgroup
from cubiclat.discgroup import (
    DiscriminantGroup,
    FiniteQuadraticForm,
    discriminant_form,
    discriminant_group,
    mayanskiy_q,
    milgram_signature,
    smith_normal_form,
    twist_parity_failure,
)
from cubiclat.errors import (
    Condition5Violated,
    DegenerateForm,
    GroupTooLarge,
    OddLattice,
    ParseError,
)
from cubiclat.lattice import (
    Lattice,
    bilinear,
    discriminant,
    e8,
    hyperbolic_u,
    rank_one,
    rescale,
    signature,
)

import oracles

A_EXE = Lattice(((3, 1, 4), (1, 3, 4), (4, 4, 12)))


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_frozen():
    assert smith_normal_form(((2, 0), (0, 4))).diagonal == (2, 4)
    assert smith_normal_form(((4, 2), (2, 4))).diagonal == (2, 6)
    assert smith_normal_form(((0, 1), (1, 0))).diagonal == (1, 1)


def test_snf_properties_random():
    rng = random.Random(31)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        dec = smith_normal_form(m)
        u, d, v = dec.u, dec.d, dec.v
        assert abs(oracles.det_fraction(u)) == 1
        assert abs(oracles.det_fraction(v)) == 1
        prod = _matmul(_matmul([list(r) for r in u], m), [list(r) for r in v])
        assert tuple(tuple(r) for r in prod) == d
        diag = dec.diagonal
        assert all(x >= 0 for x in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] == 0 or diag[i + 1] % diag[i] == 0
            else:
                assert True


def test_discriminant_group_frozen():
    assert discriminant_group(A_EXE).orders == (4, 8)
    assert discriminant_group(hyperbolic_u()).orders == ()
    assert discriminant_group(e8()).orders == ()
    assert discriminant_group(Lattice(((2, 0), (0, 6)))).orders == (2, 6)


def test_discriminant_group_order_matches_disc():
    rng = random.Random(17)
    for _ in range(20):
        lat = oracles.random_even_posdef(rng, max_rank=4, disc_cap=5000)
        dg = discriminant_group(lat)
        assert dg.order == abs(discriminant(lat))


def test_generators_live_in_dual():
    rng = random.Random(19)
    lats = [oracles.random_even_posdef(rng, max_rank=3, disc_cap=1000) for _ in range(12)]
    # Smith transforms of these reach thousands of digits
    lats += [Lattice(tuple(map(tuple, oracles.seeded_even_gram(s, n)))) for s, n in ((220, 20), (324, 24))]
    for lat in lats:
        dg = discriminant_group(lat)
        for order, gen in zip(dg.orders, dg.generators):
            # generator pairs integrally with the lattice
            for i in range(lat.rank):
                pairing = sum(
                    Fraction(lat.gram[i][j]) * gen[j] for j in range(lat.rank)
                )
                assert pairing.denominator == 1
            # is reduced mod L, and its order in Q^n / Z^n, the lcm of its
            # denominators, is exactly `order`
            assert all(0 <= c < 1 for c in gen)
            assert math.lcm(*(c.denominator for c in gen)) == order


def test_discriminant_form_frozen_small():
    f = discriminant_form(rank_one(2))
    assert f.orders == (2,)
    assert f.q_vals == (Fraction(1, 2),)
    f26 = discriminant_form(Lattice(((2, 0), (0, 6))))
    assert f26.orders == (2, 6)
    assert f26.q_vals == (Fraction(1, 2), Fraction(1, 6))
    assert f26.b_vals[0][1] == 0


def test_discriminant_form_rejects_odd():
    with pytest.raises(OddLattice):
        discriminant_form(rank_one(3))


def test_q_and_b_are_compatible():
    # q(x+y) - q(x) - q(y) == 2 b(x,y) mod 2 on every pair of elements
    for lat in (
        Lattice(((2, 0), (0, 6))),
        Lattice(((4, 2), (2, 4))),
        A_EXE,
    ):
        form = discriminant_form(lat) if lat is not A_EXE else mayanskiy_q(A_EXE, (1, 0, 0))
        elems = list(form.elements())
        for x in elems:
            for y in elems:
                s = tuple((a + b) % o for a, b, o in zip(x, y, form.orders))
                lhs = (form.value(s) - form.value(x) - form.value(y)) % 2
                rhs = (2 * form.pairing(x, y)) % 2
                assert lhs == rhs


def test_milgram_frozen_values():
    cases = [
        (rank_one(2), 1),
        (rank_one(-2), 7),
        (rank_one(4), 1),
        (rank_one(-4), 7),
        (hyperbolic_u(), 0),
        (e8(), 0),
        (rescale(e8(), -1), 0),
        (Lattice(((2, 0), (0, 6))), 2),
    ]
    for lat, expected in cases:
        assert milgram_signature(discriminant_form(lat)) == expected


def test_milgram_equals_signature_mod_8_random():
    rng = random.Random(47)
    for _ in range(15):
        lat = oracles.random_even_posdef(rng, max_rank=4, disc_cap=10**4)
        sig = signature(lat)
        residue = milgram_signature(discriminant_form(lat))
        assert residue == (sig.s_plus - sig.s_minus) % 8


def test_milgram_agrees_with_direct_sum_oracle():
    rng = random.Random(53)
    for _ in range(8):
        lat = oracles.random_even_posdef(rng, max_rank=3, disc_cap=500)
        form = discriminant_form(lat)
        assert milgram_signature(form) == oracles.milgram_direct(form)


def test_milgram_max_order(monkeypatch):
    form = discriminant_form(Lattice(((2, 0), (0, 6))))
    monkeypatch.setattr(discgroup, "MAX_ORDER", 5)
    with pytest.raises(GroupTooLarge, match="invariant factor 6 exceeds MAX_ORDER = 5"):
        milgram_signature(form)
    monkeypatch.setattr(discgroup, "MAX_ORDER", 6)
    assert milgram_signature(form) == 2


def test_milgram_past_the_old_group_cap():
    # |A| = 2.4 * 10^13; a Gauss sum over A is out of reach
    lat = Lattice(((2 * 10**6, 0, 0), (0, 2 * 10**6, 0), (0, 0, 6)))
    form = discriminant_form(lat)
    assert form.order == 24 * 10**12
    assert milgram_signature(form) == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_milgram_2_adic_u_and_v_blocks(k):
    # b(h1, h2) = 2^-k on (Z/2^k)^2, with q(h1) = q(h2) = 0 (U) or 2^(1-k) (V)
    d = 2**k
    off = Fraction(1, d)
    for diag, residue in ((Fraction(0), 0), (Fraction(2, d) % 2, 4 * (k % 2))):
        form = FiniteQuadraticForm((d, d), (diag, diag), ((diag % 1, off), (off, diag % 1)))
        assert milgram_signature(form) == oracles.milgram_direct(form) == residue


def test_degenerate_form_detected():
    # totally isotropic q on Z/2: Gauss sum has magnitude 2, not sqrt(2)
    form = FiniteQuadraticForm((2,), (Fraction(0),), ((Fraction(0),),))
    with pytest.raises(DegenerateForm):
        milgram_signature(form)


def test_mayanskiy_q_frozen():
    form = mayanskiy_q(A_EXE, (1, 0, 0))
    assert form.orders == (4, 8)
    assert form.q_vals == (Fraction(1, 4), Fraction(11, 8))
    assert milgram_signature(form) == 0


def test_mayanskiy_q_parity_violation():
    lat = Lattice(((3, 1), (1, 2)))
    with pytest.raises(Condition5Violated):
        mayanskiy_q(lat, (1, 0))


def test_twist_parity_failure_matches_unit_vector_scan():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-6, 6)
        lat = Lattice(tuple(tuple(row) for row in g))
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        want = next(
            (i for i, e in enumerate(units) if (bilinear(lat, a, e) ** 2 - bilinear(lat, e, e)) % 2),
            None,
        )
        assert twist_parity_failure(lat, a) == want


def test_finite_form_json_round_trip():
    form = mayanskiy_q(A_EXE, (1, 0, 0))
    again = FiniteQuadraticForm.from_json(form.to_json())
    assert again.orders == form.orders
    assert again.q_vals == form.q_vals
    assert again.b_vals == form.b_vals


def test_finite_form_validation():
    from cubiclat.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        # q value outside [0, 2)
        FiniteQuadraticForm((2,), (Fraction(5, 2),), ((Fraction(0),),))
    with pytest.raises(InvariantViolation):
        # q and b must agree on the diagonal mod 1
        FiniteQuadraticForm((2,), (Fraction(1, 2),), ((Fraction(0),),))
    with pytest.raises(InvariantViolation):
        # q(3g) = 3 is not 0 mod 2, so q depends on the representative
        FiniteQuadraticForm((3,), (Fraction(1, 3),), ((Fraction(1, 3),),))
    with pytest.raises(ParseError):
        FiniteQuadraticForm.from_json({"orders": [3], "q": ["1/3"], "b": [["1/3"]]})


ORDERS = (2, 4, 8, 16, 32, 3, 9, 27, 5, 25, 7, 6, 12)


@st.composite
def abstract_forms(draw):
    """Every well-defined form on at most 3 cyclic generators with |A| <= 2000.

    q(g_i) = m_i / d_i with d_i * m_i even, b(g_i, g_j) = n / gcd(d_i, d_j);
    most draws are degenerate.
    """
    orders = draw(
        st.lists(st.sampled_from(ORDERS), min_size=1, max_size=3).filter(lambda o: math.prod(o) <= 2000)
    )
    k = len(orders)
    q = [Fraction(draw(st.integers(0, 2 * d - 1).filter(lambda m: d * m % 2 == 0)), d) for d in orders]
    b = [[q[i] % 1 if i == j else None for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(orders[i], orders[j])
            b[i][j] = b[j][i] = Fraction(draw(st.integers(0, g - 1)), g)
    return FiniteQuadraticForm(tuple(orders), tuple(q), tuple(map(tuple, b))), None


@st.composite
def lattice_forms(draw):
    """The discriminant or a twisted form of an indefinite even lattice, with its signature."""
    n = draw(st.integers(2, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-6, 6))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    lat = Lattice(tuple(map(tuple, g)))
    sig = signature(lat)
    assume(sig.s_plus and sig.s_minus and not sig.s_zero and abs(discriminant(lat)) <= 2000)
    a = draw(st.none() | st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if a is None:
        return discriminant_form(lat), (sig.s_plus - sig.s_minus) % 8
    assume(twist_parity_failure(lat, a) is None)
    return mayanskiy_q(lat, a), None


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(abstract_forms() | lattice_forms())
def test_milgram_matches_direct_sum(case):
    form, lattice_residue = case
    try:
        want = oracles.milgram_direct(form)
    except AssertionError:  # the direct sum is not sqrt(|A|) on an eighth-root ray
        with pytest.raises(DegenerateForm):
            milgram_signature(form)
        return
    assert milgram_signature(form) == want
    if lattice_residue is not None:
        assert want == lattice_residue
