import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubiclat.errors import (
    Degenerate,
    DimensionMismatch,
    InvariantViolation,
    NotFiniteIndex,
    NotPositiveDefinite,
    NotSymmetric,
    ParseError,
)
from cubiclat.detrep import FormMatrix
from cubiclat.discgroup import FiniteQuadraticForm, smith_normal_form
from cubiclat.enumeration import _scaled, vectors_of_norm
from cubiclat.forms import PLANE_VARS, parse_form
from cubiclat.fourfold import MarkedFourfold
from cubiclat.lattice import (
    Lattice,
    _diagonal,
    Signature,
    bilinear,
    det_int,
    direct_sum,
    discriminant,
    e8,
    gram_times,
    hyperbolic_u,
    is_even,
    k3_lattice,
    orthogonal_complement,
    rank_one,
    rescale,
    signature,
    sublattice_index,
)

import oracles

A_EXE = Lattice(((3, 1, 4), (1, 3, 4), (4, 4, 12)))
A_369 = Lattice(((3, 1, 4), (1, 3, 2), (4, 2, 10)))


def test_hyperbolic_plane():
    u = hyperbolic_u()
    assert u.gram == ((0, 1), (1, 0))
    assert discriminant(u) == -1
    assert signature(u) == Signature(1, 1, 0)
    assert is_even(u)


def test_e8_invariants():
    e = e8()
    assert e.rank == 8
    assert discriminant(e) == 1
    assert signature(e) == Signature(8, 0, 0)
    assert is_even(e)
    # Cartan matrix shape: 2s on the diagonal, off-diagonal -1 exactly on edges
    assert all(e.gram[i][i] == 2 for i in range(8))
    assert sum(x == -1 for row in e.gram for x in row) == 14


def test_k3_lattice_invariants():
    k3 = k3_lattice()
    assert k3.rank == 22
    assert discriminant(k3) == -1
    assert signature(k3) == Signature(3, 19, 0)
    assert is_even(k3)


def test_construction_rejects_bad_gram():
    with pytest.raises(NotSymmetric):
        Lattice(((0, 1), (2, 0)))
    with pytest.raises(NotSymmetric):
        Lattice(((0, 1, 0), (1, 0, 0)))
    with pytest.raises(ParseError):
        Lattice(((0.5, 1), (1, 0)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Lattice(((1.5, 0), (0, 1))),
        lambda: Lattice((1, 2)),
        lambda: Lattice((("a",),)),
        lambda: gram_times(Lattice(((2, 0), (0, 2))), (0.5, 0)),
        lambda: MarkedFourfold(A_EXE, (1.5, 0, 0), (0, 1, 0)),
        lambda: vectors_of_norm(A_EXE, 2.5),
    ],
    ids=["float-entry", "flat-gram", "text-entry", "float-vector", "float-marking", "float-norm"],
)
def test_non_integer_input_is_parse_error(call):
    with pytest.raises(ParseError):
        call()


FQF_2 = {"orders": [2], "q": ["1/2"], "b": [["1/2"]]}


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: smith_normal_form([[1, 2], [3]]), DimensionMismatch),
        (lambda: smith_normal_form([[1.5]]), ParseError),
        (lambda: Lattice.from_json({}), ParseError),
        (lambda: Lattice.from_json({"gram": 5}), ParseError),
        (lambda: MarkedFourfold.from_json({"gram": [[3]]}), ParseError),
        (lambda: FiniteQuadraticForm.from_json({**FQF_2, "orders": [2.7]}), ParseError),
        (lambda: FiniteQuadraticForm.from_json({**FQF_2, "orders": "2"}), ParseError),
        (lambda: FiniteQuadraticForm.from_json({**FQF_2, "q": ["x"]}), ParseError),
        (lambda: FormMatrix.from_json("size field entries"), ParseError),
        (lambda: parse_form(5, PLANE_VARS), ParseError),
    ],
    ids=[
        "snf-ragged",
        "snf-float",
        "lattice-json-no-gram",
        "lattice-json-int-gram",
        "marked-json-no-h2",
        "fqf-json-float-order",
        "fqf-json-text-order",
        "fqf-json-text-q",
        "matrix-json-text",
        "form-int",
    ],
)
def test_json_and_snf_entry_points_raise_typed_errors(call, error):
    assert FiniteQuadraticForm.from_json(FQF_2).order == 2
    with pytest.raises(error):
        call()


def test_bilinear_basics():
    u = hyperbolic_u()
    assert bilinear(u, (1, 0), (0, 1)) == 1
    assert bilinear(u, (1, 1), (1, 1)) == 2
    with pytest.raises(DimensionMismatch):
        bilinear(u, (1, 0, 0), (0, 1))


def test_det_int_matches_gauss_oracle():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == oracles.det_fraction(m)


def test_discriminant_frozen_values():
    assert discriminant(A_EXE) == 32
    assert discriminant(A_369) == 36


def test_signature_invariant_under_unimodular_change():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        diag = [rng.choice((-4, -2, 0, 2, 6)) for _ in range(n)]
        g = tuple(
            tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
        )
        u = oracles.random_unimodular(rng, n)
        scrambled = Lattice(oracles.congruence(u, g))
        expected = Signature(
            sum(d > 0 for d in diag),
            sum(d < 0 for d in diag),
            sum(d == 0 for d in diag),
        )
        assert signature(scrambled) == expected


def test_orthogonal_complement_frozen():
    basis, comp = orthogonal_complement(A_EXE, [(1, 0, 0)])
    assert basis == [(1, -3, 0), (0, 4, -1)]
    assert comp.gram == ((24, -24), (-24, 28))
    basis, comp = orthogonal_complement(A_369, [(1, 0, 0)])
    assert comp.gram == ((24, -30), (-30, 42))
    basis, comp = orthogonal_complement(hyperbolic_u(), [(1, 0)])
    assert basis == [(1, 0)]
    assert comp.gram == ((0,),)


def test_orthogonal_complement_is_orthogonal_and_saturated():
    rng = random.Random(55)
    for _ in range(15):
        lat = oracles.random_even_posdef(rng, max_rank=3, disc_cap=400)
        a = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        if not any(a):
            a = (1,) + (0,) * (lat.rank - 1)
        basis, comp = orthogonal_complement(lat, [a])
        for v in basis:
            assert bilinear(lat, v, a) == 0
        # saturation: every box vector orthogonal to a is an integer
        # combination of the returned basis
        import itertools
        from fractions import Fraction

        for v in itertools.product(range(-2, 3), repeat=lat.rank):
            if bilinear(lat, v, a) != 0:
                continue
            if not basis:
                assert not any(v)
                continue
            # solve sum c_k basis_k = v over Q
            rows = [[Fraction(b[i]) for b in basis] for i in range(lat.rank)]
            rhs = [Fraction(x) for x in v]
            cols = len(basis)
            piv = []
            for c in range(cols):
                p = next(
                    (r for r in range(len(rows)) if r not in piv and rows[r][c] != 0),
                    None,
                )
                assert p is not None
                piv.append(p)
                inv = 1 / rows[p][c]
                rows[p] = [x * inv for x in rows[p]]
                rhs[p] *= inv
                for r in range(len(rows)):
                    if r != p and rows[r][c]:
                        f = rows[r][c]
                        rows[r] = [x - f * y for x, y in zip(rows[r], rows[p])]
                        rhs[r] -= f * rhs[p]
            coeffs = [rhs[piv[c]] for c in range(cols)]
            for r in range(len(rows)):
                if r not in piv:
                    assert rhs[r] == 0
            assert all(c.denominator == 1 for c in coeffs)


def test_sublattice_index_frozen():
    assert sublattice_index(hyperbolic_u(), [(2, 0), (0, 1)]) == 2
    assert sublattice_index(rank_one(2), [(3,)]) == 3


def test_sublattice_index_random_matches_det():
    rng = random.Random(23)
    for _ in range(20):
        lat = oracles.random_even_posdef(rng, max_rank=3, disc_cap=5000)
        n = lat.rank
        while True:
            t = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            d = oracles.det_fraction(t)
            if d != 0:
                break
        assert sublattice_index(lat, [tuple(row) for row in t]) == abs(d)


def test_sublattice_index_errors():
    u = hyperbolic_u()
    with pytest.raises(NotFiniteIndex):
        sublattice_index(u, [(1, 0)])
    with pytest.raises(NotFiniteIndex):
        sublattice_index(u, [(1, 0), (2, 0)])
    degenerate = Lattice(((2, 2), (2, 2)))
    with pytest.raises(Degenerate):
        sublattice_index(degenerate, [(1, 0), (0, 1)])


def test_rescale_and_direct_sum():
    u = hyperbolic_u()
    assert rescale(u, -1).gram == ((0, -1), (-1, 0))
    with pytest.raises(Degenerate):
        rescale(u, 0)
    s = direct_sum(rank_one(2), rank_one(-4))
    assert s.gram == ((2, 0), (0, -4))
    assert signature(s) == Signature(1, 1, 0)


def test_is_even():
    assert is_even(rank_one(2))
    assert not is_even(rank_one(3))
    assert not is_even(Lattice(((2, 1), (1, 3))))


def test_degenerate_signature():
    lat = Lattice(((2, 2), (2, 2)))
    assert signature(lat) == Signature(1, 0, 1)
    assert discriminant(lat) == 0


def test_json_round_trip():
    lat = Lattice(((3, 1), (1, 3)))
    assert Lattice.from_json(lat.to_json()) == lat


@st.composite
def symmetric_matrices(draw):
    # rank 1-8, one of: B^T B + a positive diagonal (positive definite, with
    # nontrivial denominators in its decomposition); B^T B for k x n B
    # (degenerate when k < n); a plain symmetric matrix with some zero
    # diagonal entries; a diagonal block beside a zero-diagonal block, its
    # basis permuted, so that hyperbolic steps follow ordinary pivots.  The
    # last three may get a zero row and rational entries.
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("posdef", "gram", "plain", "split")))
    entries = st.sampled_from((0, 0, 1, -1, 2, -3, 5))
    if kind in ("plain", "split"):
        m = draw(st.integers(0, n)) if kind == "split" else n
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if kind == "plain" or i >= m:
                    g[i][j] = g[j][i] = draw(entries)
            if i < m:
                g[i][i] = draw(st.sampled_from((1, -1, 2, -3, 5)))
        zeros = range(m, n) if kind == "split" else draw(st.sets(st.integers(0, n - 1)))
        for i in zeros:
            g[i][i] = 0
        order = draw(st.permutations(range(n)))
        g = [[g[i][j] for j in order] for i in order]
    else:
        k = n if kind == "posdef" else draw(st.integers(1, n + 1))
        b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
        g = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        if kind == "posdef":
            for i in range(n):
                g[i][i] += draw(st.integers(1, 3))
            return g
    if draw(st.integers(0, 3)) == 0:
        z = draw(st.integers(0, n - 1))
        for j in range(n):
            g[z][j] = g[j][z] = 0
    if draw(st.integers(0, 2)) == 0:
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = Fraction(g[i][j], draw(st.sampled_from((1, 2, 3, 4, 9))))
    return g


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(symmetric_matrices(), st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_integer_elimination_matches_fraction_oracles(g, x):
    diag = _diagonal(g)
    assert diag == oracles.fraction_diagonal(g)
    if any(isinstance(v, Fraction) for row in g for v in row):
        return
    det = det_int(g)
    assert (math.prod(diag) == det) if det else (0 in diag)
    lat = Lattice(tuple(map(tuple, g)))
    assert signature(lat) == Signature(
        sum(d > 0 for d in diag), sum(d < 0 for d in diag), sum(d == 0 for d in diag)
    )
    try:
        want = oracles.fraction_scaled(lat)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            _scaled(lat)
        return
    scale, rows = _scaled(lat)
    assert (scale, rows) == want
    n = lat.rank
    x = x[:n]
    assert scale * bilinear(lat, x, x) == sum(
        w * (d * x[i] + sum(nij * xj for nij, xj in zip(row, x))) ** 2
        for i, (w, d, row) in enumerate(rows)
    )
