import random

import pytest
from hypothesis import given, settings, strategies as st

from cubiclat import discgroup, fourfold
from cubiclat.discgroup import discriminant_group, mayanskiy_q, milgram_signature, twist_parity_failure
from cubiclat.errors import (
    BadEpsilon,
    NotPositiveDefinite,
    PreconditionError,
    SignatureViolation,
    WrongRank,
    ZeroD,
)
from cubiclat.fourfold import (
    FamilyClass,
    FamilyParams,
    MarkedFourfold,
    build_family_lattice,
    classify_family,
    delta,
    exists_odd_delta,
    is_trivially_rational_rank3,
    mayanskiy_check,
    ns_to_ax_disc,
    pfaffian_obstruction,
    rk2_discriminant_formula,
)
from cubiclat.lattice import Lattice, bilinear, discriminant, is_even, signature

import oracles

A_EXE = Lattice(((3, 1, 4), (1, 3, 4), (4, 4, 12)))
A_369 = Lattice(((3, 1, 4), (1, 3, 2), (4, 2, 10)))
A_ODD = Lattice(((3, 1, 4), (1, 3, 1), (4, 1, 10)))  # discriminant 37

MARK = ((1, 0, 0), (0, 1, 0))


def test_marking_accepts_standard_instances():
    for lat in (A_EXE, A_369, A_ODD):
        m = MarkedFourfold(lat, *MARK)
        assert m.quadric_class == (1, -1, 0)


def test_marking_rejects_bad_squares():
    with pytest.raises(PreconditionError):
        MarkedFourfold(A_EXE, (0, 0, 1), (0, 1, 0))  # h2^2 = 12, not 3
    with pytest.raises(PreconditionError):
        MarkedFourfold(Lattice(((3, 2), (2, 3))), (1, 0), (0, 1))  # h2.p = 2
    with pytest.raises(NotPositiveDefinite):
        MarkedFourfold(Lattice(((3, 1), (1, -3))), (1, 0), (0, 1))


def test_delta_rank2_frozen():
    m = MarkedFourfold(Lattice(((3, 1), (1, 3))), (1, 0), (0, 1))
    assert delta(m, (0, 1)) == -2
    assert delta(m, (1, 0)) == 2
    # Gram of (h2, q) is the leading block of the rank-2 criterion matrix
    q = m.quadric_class
    g = [
        [bilinear(m.lattice, x, y) for y in ((1, 0), q)]
        for x in ((1, 0), q)
    ]
    assert g == [[3, 2], [2, 4]]


def test_delta_rank3_frozen():
    m = MarkedFourfold(Lattice(((3, 1, 4), (1, 3, 1), (4, 1, 6))), *MARK)
    assert delta(m, (0, 0, 1)) == 3


def test_exists_odd_delta():
    assert exists_odd_delta(MarkedFourfold(A_369, *MARK)) is False
    assert exists_odd_delta(MarkedFourfold(A_ODD, *MARK)) is True


def test_trivially_rational_rank3():
    assert is_trivially_rational_rank3(MarkedFourfold(A_EXE, *MARK)) is False
    assert is_trivially_rational_rank3(MarkedFourfold(A_369, *MARK)) is False
    assert discriminant(A_ODD) == 37
    assert is_trivially_rational_rank3(MarkedFourfold(A_ODD, *MARK)) is True
    with pytest.raises(WrongRank):
        is_trivially_rational_rank3(
            MarkedFourfold(Lattice(((3, 1), (1, 3))), (1, 0), (0, 1))
        )


def test_rk2_formula_matches_det():
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                m = ((3, 2, a), (2, 4, c), (a, c, b))
                det = oracles.det_fraction(m)
                val = rk2_discriminant_formula(a, b, c)
                assert val == det
                assert (val % 2 != 0) == (c % 2 != 0)


def test_ns_to_ax_disc():
    assert ns_to_ax_disc(-9, 2) == 36
    assert ns_to_ax_disc(-9, 1) == 9
    assert ns_to_ax_disc(5, 1) == 5
    with pytest.raises(BadEpsilon):
        ns_to_ax_disc(-9, 0)
    with pytest.raises(BadEpsilon):
        ns_to_ax_disc(-9, 3)


def test_family_construction():
    params = FamilyParams(3, -2)
    lat = build_family_lattice(params)
    assert lat.gram == ((2, 3), (3, -4))
    assert is_even(lat)
    assert signature(lat) == (1, 1, 0)
    with pytest.raises(ZeroD):
        FamilyParams(0, -1)
    with pytest.raises(SignatureViolation):
        FamilyParams(1, 1)  # 4c - d^2 = 3 >= 0


def test_family_classification():
    assert classify_family(FamilyParams(2, -1)) is FamilyClass.NOT_TRIVIALLY_RATIONAL
    assert classify_family(FamilyParams(3, -1)) is FamilyClass.UNDETERMINED
    for d in range(-6, 7):
        if d == 0:
            continue
        for c in range(-6, 7):
            if 4 * c - d * d >= 0:
                continue
            cls = classify_family(FamilyParams(d, c))
            lat = build_family_lattice(FamilyParams(d, c))
            disc = discriminant(lat)
            assert disc == 4 * c - d * d
            if d % 2 == 0:
                assert cls is FamilyClass.NOT_TRIVIALLY_RATIONAL
                assert disc % 2 == 0
            else:
                assert cls is FamilyClass.UNDETERMINED
                assert disc % 2 != 0


def test_mayanskiy_a_exe_passes_both_variants():
    for variant in ("against-A0", "against-A"):
        report = mayanskiy_check(A_EXE, (1, 0, 0), variant)
        assert report.all_pass
        assert [c.index for c in report.conditions] == [1, 2, 3, 4, 5, 6]
        assert all(c.passed for c in report.conditions)


def test_mayanskiy_a369_depends_on_root_convention():
    # ambient-pairing convention: realizable
    report = mayanskiy_check(A_369, (1, 0, 0), "against-A")
    assert report.all_pass
    # complement-only convention: condition 4 sees a norm-6 vector whose
    # pairings inside A0 are all divisible by 3
    report0 = mayanskiy_check(A_369, (1, 0, 0), "against-A0")
    assert not report0.all_pass
    failed = [c for c in report0.conditions if not c.passed]
    assert [c.index for c in failed] == [4]
    assert "found" in failed[0].detail


def test_mayanskiy_default_variant_is_complement_pairing():
    by_default = mayanskiy_check(A_369, (1, 0, 0))
    explicit = mayanskiy_check(A_369, (1, 0, 0), "against-A0")
    assert by_default.to_json() == explicit.to_json()


def test_mayanskiy_condition5_blocks_condition6():
    lat = Lattice(((3, 1), (1, 2)))
    report = mayanskiy_check(lat, (1, 0))
    cond5 = report.conditions[4]
    cond6 = report.conditions[5]
    assert not cond5.passed
    assert not cond6.passed
    assert not report.all_pass


def test_mayanskiy_rejects_wrong_norm_via_condition1():
    report = mayanskiy_check(A_EXE, (0, 0, 1))  # norm 12
    assert not report.conditions[0].passed
    assert not report.all_pass


def test_pfaffian_frozen():
    scan = pfaffian_obstruction(MarkedFourfold(A_369, *MARK))
    assert scan.obstructed is False
    vecs = {c.vector: (c.pair_h2, c.pair_p, c.pairs_like_pfaffian) for c in scan.candidates}
    assert vecs[(0, 0, 1)] == (4, 2, True)
    assert vecs[(1, -1, -1)] == (-2, -4, False)
    scan = pfaffian_obstruction(MarkedFourfold(A_EXE, *MARK))
    assert scan.obstructed is True
    assert scan.candidates == ()


def test_pfaffian_requires_rank3():
    with pytest.raises(WrongRank):
        pfaffian_obstruction(MarkedFourfold(Lattice(((3, 1), (1, 3))), (1, 0), (0, 1)))


def test_marked_json_round_trip():
    m = MarkedFourfold(A_369, *MARK)
    again = MarkedFourfold.from_json(m.to_json())
    assert again.lattice == m.lattice
    assert again.h2 == m.h2
    assert again.p == m.p


@pytest.mark.parametrize(
    "gram, a, detail",
    [
        (((2, 0), (0, 2)), (0, 1), "residue 0 mod 8 on group of orders [2, 2]"),
        (((1, 0), (0, 2)), (1, 1), "residue 1 mod 8 on group of orders [2]"),
        (((1, 0), (0, 3)), (1, 1), "residue 2 mod 8 on group of orders [3]"),
        (((1, 0), (0, 4)), (1, 1), "residue 3 mod 8 on group of orders [4]"),
        (((1, 0), (0, 5)), (1, 1), "residue 4 mod 8 on group of orders [5]"),
        (((1, 0), (0, 6)), (1, 1), "residue 5 mod 8 on group of orders [6]"),
        (((2, 0), (0, 2)), (0, 2), "residue 6 mod 8 on group of orders [2, 2]"),
        (((1, 0), (0, 2)), (1, 2), "residue 7 mod 8 on group of orders [2]"),
        # m = b(a,a) = 0: the twisted form is -q_L
        (((2, -1), (-1, 2)), (0, 0), "residue 6 mod 8 on group of orders [3]"),
        # m = 1: L = Za + a^perp and the form is -q_(a^perp)
        (((1, 0), (0, 2)), (1, 0), "residue 7 mod 8 on group of orders [2]"),
    ],
    ids=[f"residue-{r}" for r in range(8)] + ["m=0", "m=1"],
)
def test_condition6_residues(gram, a, detail):
    lat = Lattice(gram)
    cond6 = mayanskiy_check(lat, a).conditions[5]
    assert cond6.detail == detail
    residue = int(detail.split()[1])
    assert cond6.passed is (residue == 0)
    assert oracles.milgram_direct(mayanskiy_q(lat, a)) == residue


@st.composite
def twisted_lattices(draw):
    """(lat, a) with G = U^T D U: D diagonal, U unimodular, a in [-3,3]^n.

    Condition 5 says a is characteristic: G a = diag(G) mod 2, which with
    x = U a reads D (x - 1) = 0 mod 2.  D_k is drawn even wherever x_k is
    even, so condition 5 holds and |A| = prod D_k <= 4^n.
    """
    n = draw(st.integers(1, 6))
    a = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(draw(st.integers(0, 2 * n))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.sampled_from((-1, 1)))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    x = [sum(r * y for r, y in zip(row, a)) for row in u]
    d = [draw(st.sampled_from((2, 4) if xk % 2 == 0 else (1, 2, 3, 4))) for xk in x]
    gram = tuple(
        tuple(sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    return Lattice(gram), tuple(a)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(twisted_lattices())
def test_condition6_is_milgram_residue(case):
    lat, a = case
    assert twist_parity_failure(lat, a) is None
    residue = (bilinear(lat, a, a) - lat.rank) % 8
    if lat.rank >= 2:
        cond6 = mayanskiy_check(lat, a).conditions[5]
        assert cond6.detail.startswith(f"residue {residue} mod 8 ")
    if discriminant_group(lat).order <= 2000:
        form = mayanskiy_q(lat, a)
        assert milgram_signature(form) == residue
        assert oracles.milgram_direct(form) == residue


def test_condition6_never_sums_the_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("condition 6 must not sum the discriminant group")

    monkeypatch.setattr(discgroup, "milgram_signature", refuse)
    monkeypatch.setattr(fourfold, "milgram_signature", refuse)
    monkeypatch.setattr(discgroup.FiniteQuadraticForm, "elements", refuse)
    report = mayanskiy_check(A_EXE, (1, 0, 0))
    assert report.all_pass
    # |A| = 3 * 10^12, far past MAX_GROUP_ORDER
    huge = mayanskiy_check(Lattice(((3, 0, 0), (0, 10**6, 0), (0, 0, 10**6))), (1, 0, 0))
    assert [c.index for c in huge.conditions] == [1, 2, 3, 4, 5, 6]
    assert huge.conditions[5].detail == "residue 0 mod 8 on group of orders [1000000, 3000000]"
    assert huge.all_pass
