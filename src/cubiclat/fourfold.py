"""Rationality-flavoured criteria for marked lattices of algebraic classes.

A marking fixes the square-3 class of the ambient polarization and the
class of a plane; the parity index delta(t) = b(t, h2 - p) drives the
trivial-rationality tests, and the six realizability conditions plus the
norm-10 scan sit on top of the lattice layer.
"""

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

# milgram_signature is not called here; perfbench/selftest.py re-binds it as fourfold.milgram_signature
from .discgroup import discriminant_group, milgram_signature, twist_parity_failure
from .enumeration import vectors_of_norm
from .errors import (
    BadEpsilon,
    NotPositiveDefinite,
    ParseError,
    PreconditionError,
    SignatureViolation,
    WrongRank,
    ZeroD,
)
from .lattice import (
    Lattice,
    Vector,
    _ints,
    _json_ints,
    bilinear,
    discriminant,
    gram_times,
    is_even,
    orthogonal_complement,
    signature,
)

LONG_ROOT_VARIANTS = ("against-A0", "against-A")


def _require_positive_definite(lat: Lattice, what: str):
    sig = signature(lat)
    if sig != (lat.rank, 0, 0):
        raise NotPositiveDefinite(
            f"{what} must be positive definite, got signature {tuple(sig)}"
        )


@dataclass(frozen=True)
class MarkedFourfold:
    """Positive definite lattice with marked classes h2 and p.

    The marking must satisfy b(h2,h2) = 3, b(p,p) = 3, b(h2,p) = 1; the
    residual quadric class q = h2 - p then automatically has b(q,q) = 4
    and b(h2,q) = 2.
    """

    lattice: Lattice
    h2: Vector
    p: Vector

    def __post_init__(self):
        h2, p = _ints(self.h2, "h2"), _ints(self.p, "p")
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "p", p)
        _require_positive_definite(self.lattice, "a marked lattice")
        checks = (
            ("b(h2,h2)", bilinear(self.lattice, h2, h2), 3),
            ("b(p,p)", bilinear(self.lattice, p, p), 3),
            ("b(h2,p)", bilinear(self.lattice, h2, p), 1),
        )
        for name, got, want in checks:
            if got != want:
                raise PreconditionError(f"marking needs {name} = {want}, got {got}")

    @property
    def quadric_class(self) -> Vector:
        return tuple(a - b for a, b in zip(self.h2, self.p))

    def to_json(self) -> dict:
        return {
            "gram": [list(row) for row in self.lattice.gram],
            "h2": list(self.h2),
            "p": list(self.p),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MarkedFourfold":
        """The marked lattice of {"gram": rows, "h2": class, "p": class}."""
        if not isinstance(data, dict):
            raise ParseError("marked input must be an object with gram, h2, p")
        for key in ("gram", "h2", "p"):
            if key not in data:
                raise ParseError(f"marked input is missing {key!r}")
        return cls(Lattice.from_json(data), _json_ints(data["h2"], "h2"), _json_ints(data["p"], "p"))


def delta(m: MarkedFourfold, t: Sequence[int]) -> int:
    """Parity index delta(t) = b(t, h2 - p)."""
    return bilinear(m.lattice, t, m.quadric_class)


def exists_odd_delta(m: MarkedFourfold) -> bool:
    """Whether some class has odd delta; linear mod 2, so a basis check suffices."""
    return any(x % 2 for x in gram_times(m.lattice, m.quadric_class))


def is_trivially_rational_rank3(m: MarkedFourfold) -> bool:
    """Rank-3 shortcut: trivial rationality is equivalent to odd |discriminant|."""
    if m.lattice.rank != 3:
        raise WrongRank(f"rank {m.lattice.rank}, need rank 3")
    return abs(discriminant(m.lattice)) % 2 == 1


def rk2_discriminant_formula(a: int, b: int, c: int) -> int:
    """det [[3,2,a],[2,4,c],[a,c,b]] = -4a^2 + 8b + 4ca - 3c^2; odd iff c is odd."""
    return -4 * a * a + 8 * b + 4 * c * a - 3 * c * c


def ns_to_ax_disc(d_ns: int, epsilon: int) -> int:
    """|disc| transfer from a rank-2 surface lattice: 4^(epsilon-1) * |d_ns|.

    epsilon in {1,2} encodes whether the two natural classes stay
    independent; it is an input here, not something this code derives.
    """
    if epsilon not in (1, 2):
        raise BadEpsilon(f"epsilon must be 1 or 2, got {epsilon}")
    return 4 ** (epsilon - 1) * abs(operator.index(d_ns))


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (d, c) of the rank-2 family [[2,d],[d,2c]] with signature (1,1)."""

    d: int
    c: int

    def __post_init__(self):
        if self.d == 0:
            raise ZeroD("d = 0 is excluded from the family")
        if 4 * self.c - self.d * self.d >= 0:
            raise SignatureViolation(
                f"4c - d^2 = {4 * self.c - self.d * self.d} must be negative"
            )


def build_family_lattice(params: FamilyParams) -> Lattice:
    return Lattice(((2, params.d), (params.d, 2 * params.c)))


class FamilyClass(Enum):
    NOT_TRIVIALLY_RATIONAL = "NotTriviallyRational"
    UNDETERMINED = "Undetermined"


def classify_family(params: FamilyParams) -> FamilyClass:
    """Even d forces even transcendental discriminant: never trivially rational.

    Odd d leaves the criterion silent, hence Undetermined rather than a
    rationality claim.
    """
    if params.d % 2 == 0:
        return FamilyClass.NOT_TRIVIALLY_RATIONAL
    return FamilyClass.UNDETERMINED


@dataclass(frozen=True)
class Condition:
    index: int
    label: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[Condition, ...]
    variant: str
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_json(self) -> dict:
        return {
            "conditions": [c.to_json() for c in self.conditions],
            "variant": self.variant,
            "notes": list(self.notes),
            "all_pass": self.all_pass,
        }


def mayanskiy_check(
    lat: Lattice,
    a: Sequence[int],
    long_root_variant: str = "against-A0",
) -> ConditionReport:
    """Report on the six realizability conditions for (lat, a).

    1. b(a,a) = 3
    2. the orthogonal complement A0 of a is even
    3. A0 has no norm-2 vectors
    4. A0 has no norm-6 vectors with pairings divisible by 3 (variant
       selects whether divisibility is tested against A0 or against the
       whole lattice)
    5. b(a,v)^2 - b(v,v) is even on a basis (well-definedness of the
       twisted form)
    6. the Milgram residue of the twisted form vanishes mod 8; by
       Milgram's theorem it is (b(a,a) - rank) mod 8 and never degenerate
       once condition 5 holds
    """
    if long_root_variant not in LONG_ROOT_VARIANTS:
        raise PreconditionError(
            f"unknown long root variant {long_root_variant!r}; "
            f"choose from {LONG_ROOT_VARIANTS}"
        )
    if lat.rank < 2:
        raise WrongRank("need rank >= 2")
    _require_positive_definite(lat, "the ambient lattice")
    av = _ints(a, "a")
    conditions = []

    norm_a = bilinear(lat, av, av)
    conditions.append(
        Condition(1, "a has self-intersection 3", norm_a == 3, f"b(a,a) = {norm_a}")
    )

    basis, a0 = orthogonal_complement(lat, [av])
    gram_txt = str([list(r) for r in a0.gram])
    conditions.append(
        Condition(
            2,
            "complement of a is even",
            is_even(a0),
            f"A0 gram {gram_txt} on basis {[list(v) for v in basis]}",
        )
    )

    def to_ambient(v: Vector) -> Vector:
        return tuple(
            sum(v[k] * basis[k][i] for k in range(len(basis)))
            for i in range(lat.rank)
        )

    norm2 = vectors_of_norm(a0, 2)
    if norm2:
        w = norm2[0]
        detail = f"{len(norm2)} found, e.g. {list(w)} (in ambient coords {list(to_ambient(w))})"
    else:
        detail = "none"
    conditions.append(Condition(3, "no norm-2 vectors in A0", not norm2, detail))

    long_hits = []
    for v in vectors_of_norm(a0, 6):
        if long_root_variant == "against-A0":
            pairings = gram_times(a0, v)
        else:
            pairings = gram_times(lat, to_ambient(v))
        if all(x % 3 == 0 for x in pairings):
            long_hits.append(v)
    if long_hits:
        w = long_hits[0]
        detail = (
            f"{len(long_hits)} found, e.g. {list(w)} "
            f"(in ambient coords {list(to_ambient(w))})"
        )
    else:
        detail = "none"
    conditions.append(
        Condition(
            4,
            f"no norm-6 vectors with 3-divisible pairings ({long_root_variant})",
            not long_hits,
            detail,
        )
    )

    parity_bad = twist_parity_failure(lat, av)
    detail = "b(a,v)^2 - b(v,v) even on the basis" if parity_bad is None else f"fails on basis vector {parity_bad}"
    conditions.append(Condition(5, "twisted form is well-defined", parity_bad is None, detail))

    if parity_bad is None:
        # Milgram's theorem (Milnor-Husemoller, App. 4) and Nikulin's gluing
        # (1979, sec. 1) give the residue without summing A_L.  Condition 5
        # makes L' = (L, b(.,a)^2 - b) an even lattice, L* lies in L'^#, and
        # q_L' restricts to the twisted form on A_L.  For m = b(a,a) >= 2, L'
        # has signature (1, n-1) and A_L' = A_L + <a/(m-1)> orthogonally:
        # gcd(m-1, G.a) divides a.G.a = m, so it is 1 and the summands meet
        # only in 0; the cyclic one has q = m/(m-1) and residue 2 - m.  So the
        # residue is (2 - n) - (2 - m) = m - n and the form is never
        # degenerate.  For m = 1, L = Za + a^perp and the form is -q_(a^perp),
        # residue 1 - n; for m = 0, a = 0 and it is -q_L, residue -n.
        sigma = (norm_a - lat.rank) % 8
        passed = sigma == 0
        detail = f"residue {sigma} mod 8 on group of orders {list(discriminant_group(lat).orders)}"
    else:
        passed, detail = False, "not evaluable: the twisted form is ill-defined"
    conditions.append(Condition(6, "Milgram residue of the twisted form is 0", passed, detail))

    notes = ["conditions 3 and 4 use the adopted root definitions"]
    if lat.rank > 3:
        notes.append("rank > 3 input: outside the documented scope of the criteria")
    return ConditionReport(tuple(conditions), long_root_variant, tuple(notes))


@dataclass(frozen=True)
class NormTenCandidate:
    vector: Vector
    pair_h2: int
    pair_p: int

    @property
    def pairs_like_pfaffian(self) -> bool:
        # sign is a free choice on the +-pair, so match |b(t,h2)| = 4
        return abs(self.pair_h2) == 4

    def to_json(self) -> dict:
        return {
            "vector": list(self.vector),
            "pair_h2": self.pair_h2,
            "pair_p": self.pair_p,
            "pairs_like_pfaffian": self.pairs_like_pfaffian,
        }


@dataclass(frozen=True)
class PfaffianScan:
    obstructed: bool
    candidates: tuple[NormTenCandidate, ...]

    def to_json(self) -> dict:
        return {
            "obstructed": self.obstructed,
            "candidates": [c.to_json() for c in self.candidates],
        }


def pfaffian_obstruction(m: MarkedFourfold) -> PfaffianScan:
    """Scan for norm-10 classes; none at all obstructs the pfaffian shape.

    When candidates exist the caller still has to match the pairing
    pattern (|b(t,h2)| = 4); pairs_like_pfaffian flags those.
    """
    if m.lattice.rank != 3:
        raise WrongRank(f"rank {m.lattice.rank}, need rank 3")
    cands = tuple(
        NormTenCandidate(v, bilinear(m.lattice, v, m.h2), bilinear(m.lattice, v, m.p))
        for v in vectors_of_norm(m.lattice, 10)
    )
    return PfaffianScan(not cands, cands)
