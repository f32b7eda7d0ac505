import gc
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cubiclat import enumeration
from cubiclat.enumeration import (
    isotropic_exists,
    long_roots,
    short_roots,
    vectors_of_norm,
)
from cubiclat.errors import (
    Degenerate,
    EnumerationTooLarge,
    NotPositiveDefinite,
    OddLattice,
    WrongRank,
)
from cubiclat.fourfold import mayanskiy_check
from cubiclat.lattice import (
    Lattice,
    bilinear,
    direct_sum,
    e8,
    hyperbolic_u,
    rank_one,
    signature,
)

import oracles

A_EXE = Lattice(((3, 1, 4), (1, 3, 4), (4, 4, 12)))


def test_a2_norm2_frozen():
    a2 = Lattice(((2, 1), (1, 2)))
    assert vectors_of_norm(a2, 2) == [(0, 1), (1, -1), (1, 0)]


def test_e8_root_count():
    assert len(vectors_of_norm(e8(), 2)) == 120
    assert len(short_roots(e8())) == 120


def test_norm10_empty_frozen():
    assert vectors_of_norm(A_EXE, 10) == []


def test_nonpositive_norms_empty():
    a2 = Lattice(((2, 1), (1, 2)))
    assert vectors_of_norm(a2, 0) == []
    assert vectors_of_norm(a2, -2) == []


def test_representatives_are_normalized_and_sorted():
    vecs = vectors_of_norm(A_EXE, 12)
    assert vecs == sorted(vecs)
    for v in vecs:
        lead = next(x for x in v if x)
        assert lead > 0
        assert bilinear(A_EXE, v, v) == 12
    assert len(set(vecs)) == len(vecs)


@st.composite
def posdef_grams(draw):
    rank = draw(st.integers(1, 3))
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = draw(st.integers(1, 30))
        for j in range(i):
            g[i][j] = g[j][i] = draw(st.integers(-30, 30))
    lat = Lattice(tuple(map(tuple, g)))
    assume(signature(lat) == (rank, 0, 0))
    return lat


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(posdef_grams(), st.integers(-2, 30))
def test_vectors_match_box_oracle(lat, n):
    assert vectors_of_norm(lat, n) == oracles.box_vectors_of_norm(lat, n)


def _random_posdef_case(rng, rank):
    # a diagonally dominant form with the sum of two diagonal entries as the
    # norm, then a unimodular change of basis, so that the decomposition has
    # nontrivial denominators
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            g[i][j] = g[j][i] = rng.randint(-1, 1)
    for i in range(rank):
        g[i][i] = sum(abs(c) for c in g[i]) + rng.randint(1, 2)
    n = sum(g[k][k] for k in rng.sample(range(rank), 2))
    u = oracles.random_unimodular(rng, rank, steps=rank)
    return Lattice(oracles.congruence(u, g)), n


def test_vectors_match_fraction_oracle_rank_4_to_8():
    rng = random.Random(11)
    for _ in range(30):
        lat, n = _random_posdef_case(rng, rng.randint(4, 8))
        assert vectors_of_norm(lat, n) == oracles.fraction_vectors_of_norm(lat, n)


E8_THETA = {2: 120, 4: 1080, 6: 3360, 8: 8760}


def test_e8_theta_counts():
    rng = random.Random(5)
    bases = [e8()] + [
        Lattice(oracles.congruence(oracles.random_unimodular(rng, 8, steps=6), e8().gram))
        for _ in range(2)
    ]
    for lat in bases:
        for n, count in E8_THETA.items():
            assert len(vectors_of_norm(lat, n)) == count


def test_e8_plus_e8_counts():
    e8e8 = direct_sum(e8(), e8())
    assert len(vectors_of_norm(e8e8, 2)) == 240
    assert len(vectors_of_norm(e8e8, 4)) == 30960


def test_rank_one_half_space():
    # the half-space rule applies at the top level: only k > 0 with a*k^2 = n
    for a in range(1, 13):
        for n in range(-2, 60):
            want = [(k,) for k in range(1, n + 1) if a * k * k == n]
            assert vectors_of_norm(rank_one(a), n) == want


def test_node_budget(monkeypatch):
    with pytest.raises(EnumerationTooLarge):
        vectors_of_norm(Lattice(((1, 0, 0), (0, 1, 0), (0, 0, 1))), 10**12)
    monkeypatch.setattr(enumeration, "MAX_NODES", 100)
    with pytest.raises(EnumerationTooLarge):
        vectors_of_norm(e8(), 4)
    monkeypatch.setattr(enumeration, "MAX_NODES", 10**4)
    assert len(vectors_of_norm(e8(), 4)) == 1080
    # r_2(10^8) / 2 = 18: the exact last level keeps this to ~10^4 nodes
    monkeypatch.setattr(enumeration, "MAX_NODES", 2 * 10**4)
    squares = vectors_of_norm(Lattice(((1, 0), (0, 1))), 10**8)
    assert len(squares) == 18
    assert all(x * x + y * y == 10**8 for x, y in squares)


@pytest.mark.parametrize(
    "call",
    [
        lambda: vectors_of_norm(e8(), 4),
        lambda: mayanskiy_check(A_EXE, (1, 0, 0)),
    ],
    ids=["vectors_of_norm", "mayanskiy_check"],
)
def test_no_reference_cycles(call):
    call()
    gc.collect()
    call()
    assert gc.collect() == 0


def test_indefinite_rejected():
    with pytest.raises(NotPositiveDefinite):
        vectors_of_norm(hyperbolic_u(), 2)
    with pytest.raises(NotPositiveDefinite):
        vectors_of_norm(Lattice(((2, 2), (2, 2))), 2)


def test_short_roots_requires_even():
    with pytest.raises(OddLattice):
        short_roots(rank_one(1))
    assert short_roots(rank_one(2)) == [(1,)]


def test_long_roots_frozen():
    assert long_roots(rank_one(6)) == [(1,)]
    assert long_roots(Lattice(((2, 0), (0, 4)))) == []
    assert long_roots(Lattice(((6, 3), (3, 6)))) == [(0, 1), (1, -1), (1, 0)]


def test_long_roots_pairings_divisible():
    lat = Lattice(((6, 3), (3, 6)))
    for v in long_roots(lat):
        assert bilinear(lat, v, v) == 6
        for i in range(lat.rank):
            basis = tuple(int(i == j) for j in range(lat.rank))
            assert bilinear(lat, v, basis) % 3 == 0


def test_isotropic_frozen():
    for t in range(-3, 4):
        exists, witness = isotropic_exists(Lattice(((0, 3), (3, 2 * t))))
        assert exists and witness == (1, 0)
    exists, witness = isotropic_exists(Lattice(((2, 3), (3, 0))))
    assert exists and witness == (0, 1)
    exists, witness = isotropic_exists(Lattice(((2, 1), (1, -2))))
    assert not exists and witness is None


def test_isotropic_witness_properties():
    rng = random.Random(13)
    found = 0
    for _ in range(60):
        a = rng.randint(-5, 5)
        b = rng.randint(-5, 5)
        c = rng.randint(-5, 5)
        lat = Lattice(((2 * a, b), (b, 2 * c)))
        try:
            exists, witness = isotropic_exists(lat)
        except Degenerate:
            assert 4 * a * c == b * b
            continue
        # oracle: brute force over a box wide enough for |a|,|b|,|c| <= 5
        brute = None
        import itertools

        for v in itertools.product(range(-20, 21), repeat=2):
            if any(v) and bilinear(lat, v, v) == 0:
                brute = v
                break
        assert exists == (brute is not None)
        if exists:
            found += 1
            assert any(witness)
            assert bilinear(lat, witness, witness) == 0
            from math import gcd

            assert gcd(witness[0], witness[1]) == 1
    assert found > 5


def test_isotropic_errors():
    with pytest.raises(WrongRank):
        isotropic_exists(rank_one(2))
    with pytest.raises(OddLattice):
        isotropic_exists(Lattice(((1, 0), (0, 2))))
    with pytest.raises(Degenerate):
        isotropic_exists(Lattice(((2, 2), (2, 2))))
