"""Integral lattices as integer Gram matrices, with exact invariants.

Everything here runs on Python ints (fractions.Fraction only for the rational
matrices of _diagonal); no floating point is used anywhere, so discriminants
and signatures are exact at any rank and any entry size.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import NamedTuple, Sequence

from .errors import (
    Degenerate,
    DimensionMismatch,
    InvariantViolation,
    NotFiniteIndex,
    NotSymmetric,
    ParseError,
)

Vector = tuple[int, ...]


class Signature(NamedTuple):
    s_plus: int
    s_minus: int
    s_zero: int


@dataclass(frozen=True)
class Lattice:
    """A free Z-module of finite rank with an integer symmetric bilinear form."""

    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_ints(row, "gram row") for row in self.gram)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise NotSymmetric("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(
                        f"gram[{i}][{j}] = {rows[i][j]} differs from gram[{j}][{i}] = {rows[j][i]}"
                    )
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def to_json(self) -> dict:
        return {"gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, data: dict) -> "Lattice":
        """The lattice of {"gram": rows}, rows being JSON arrays of integers."""
        if not isinstance(data, dict) or "gram" not in data:
            raise ParseError("expected a top-level 'gram' key")
        return cls(_json_int_rows(data["gram"], "gram", "rows"))


def _ints(v: Sequence[int], what: str = "vector") -> Vector:
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise ParseError(f"{what} must hold integers, got {v!r}") from None


# the JSON loaders are stricter than _ints: they take only arrays, and
# refuse booleans, which _ints reads as 0 and 1


def _json_ints(data, what: str) -> Vector:
    """A JSON array of integers as a tuple."""
    if not isinstance(data, list):
        raise ParseError(f"{what} must be a JSON array")
    if not all(type(x) is int for x in data):
        raise ParseError(f"{what} must hold JSON integers only")
    return tuple(data)


def _json_int_rows(data, what: str, noun: str) -> tuple[Vector, ...]:
    """A JSON array of arrays of integers as a tuple of rows."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError(f"{what} must be a JSON array of {noun}")
    return tuple(_json_ints(row, what) for row in data)


def _check_vector(lat: Lattice, v: Sequence[int]) -> Vector:
    v = _ints(v)
    if len(v) != lat.rank:
        raise DimensionMismatch(
            f"vector of length {len(v)} against a rank-{lat.rank} lattice"
        )
    return v


def gram_times(lat: Lattice, v: Sequence[int]) -> Vector:
    """The column G*v, i.e. the pairings of v against the basis."""
    v = _check_vector(lat, v)
    return tuple(sum(row[j] * v[j] for j in range(lat.rank)) for row in lat.gram)


def bilinear(lat: Lattice, v: Sequence[int], w: Sequence[int]) -> int:
    """The pairing b(v, w) = v^T G w."""
    w = _check_vector(lat, w)
    gv = gram_times(lat, v)
    return sum(gv[i] * w[i] for i in range(lat.rank))


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix, Bareiss fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees prev divides the product
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def discriminant(lat: Lattice) -> int:
    """det of the Gram matrix; 0 exactly when the form is degenerate."""
    return det_int(lat.gram)


def _eliminate(rows: Sequence[Sequence[int]]) -> list[tuple[int, int, list[int]]]:
    """Fraction-free (Bareiss) symmetric elimination of an integer matrix.

    Returns (index, P_k, row) per pivot, so that D_k = P_k / P_(k-1), P_0 = 1,
    diagonalizes the form over Q; row holds the pivot's entries when taken.
    The pivot is the first remaining nonzero diagonal entry, else e_i + e_j of
    norm 2b for the first b(e_i, e_j) = b != 0.  Every remaining row is
    updated, also where row[piv] = 0, so each // is exact.
    """
    a = [list(row) for row in rows]
    alive = list(range(len(a)))
    out = []
    prev = 1
    while alive:
        piv = next((i for i in alive if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive if i < j and a[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            for k in alive:
                a[piv][k] = a[k][piv] = a[piv][k] + a[j][k]
            a[piv][piv] = 2 * a[piv][j]
        alive.remove(piv)
        top = a[piv]
        d = top[piv]
        for i in alive:
            row = a[i]
            f = row[piv]
            for j in alive:
                row[j] = (row[j] * d - f * top[j]) // prev
        out.append((piv, d, top))
        prev = d
    return out


def _diagonal(rows: Sequence[Sequence]) -> list[Fraction]:
    """Diagonal of a form congruent over Q to rows, a matrix of ints or Fractions.

    D_k = P_k / (c*P_(k-1)) from _eliminate on c*rows, c the lcm of the
    denominators; a trailing 0 stands for each dimension of the radical.
    """
    c = lcm(*(x.denominator for row in rows for x in row))
    ps = [p for _, p, _ in _eliminate([[x.numerator * (c // x.denominator) for x in row] for row in rows])]
    return [Fraction(p, c * q) for p, q in zip(ps, [1] + ps)] + [Fraction(0)] * (len(rows) - len(ps))


def signature(lat: Lattice) -> Signature:
    """Counts (s_plus, s_minus, s_zero) of the signs of D_k = P_k / P_(k-1)."""
    ps = [p for _, p, _ in _eliminate(lat.gram)]
    plus = sum((p > 0) == (q > 0) for p, q in zip(ps, [1] + ps))
    return Signature(plus, len(ps) - plus, lat.rank - len(ps))


def is_even(lat: Lattice) -> bool:
    """True when b(v, v) is even for every v; equivalent to an even diagonal."""
    return all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank))


def rescale(lat: Lattice, m: int) -> Lattice:
    if operator.index(m) == 0:
        raise Degenerate("rescaling by 0 kills the form")
    return Lattice(tuple(tuple(m * x for x in row) for row in lat.gram))


def direct_sum(a: Lattice, b: Lattice) -> Lattice:
    na, nb = a.rank, b.rank
    rows = []
    for i in range(na):
        rows.append(tuple(a.gram[i]) + (0,) * nb)
    for i in range(nb):
        rows.append((0,) * na + tuple(b.gram[i]))
    return Lattice(tuple(rows))


def _integer_kernel(rows: list[list[int]], n: int) -> list[Vector]:
    """Basis of {x in Z^n : each row pairs to 0 with x}.

    Unimodular column reduction; the kernel of an integer matrix is
    automatically saturated, so the result is a basis of the full kernel.
    """
    c = [list(r) for r in rows]
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    free = list(range(n))
    for r in range(len(c)):
        while True:
            nz = [j for j in free if c[r][j] != 0]
            if len(nz) <= 1:
                break
            j1, j2 = nz[0], nz[1]
            a, b = c[r][j1], c[r][j2]
            g, x, y = _xgcd(a, b)
            # det of the 2x2 column op is (x*a + y*b)/g = 1
            for mat in (c, t):
                for row in mat:
                    v1, v2 = row[j1], row[j2]
                    row[j1] = x * v1 + y * v2
                    row[j2] = (a // g) * v2 - (b // g) * v1
        nz = [j for j in free if c[r][j] != 0]
        if nz:
            free.remove(nz[0])
    basis = []
    for j in free:
        col = [t[i][j] for i in range(n)]
        lead = next((x for x in col if x != 0), 0)
        if lead < 0:
            col = [-x for x in col]
        basis.append(tuple(col))
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, x, y) with g = gcd > 0 and x*a + y*b = g
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def orthogonal_complement(
    lat: Lattice, vectors: Sequence[Sequence[int]]
) -> tuple[list[Vector], Lattice]:
    """Basis and Gram matrix of {w in L : b(w, v) = 0 for the given v}.

    The sublattice is saturated in L (a kernel always is), so the basis
    extends to no larger sublattice with the same rational span.
    """
    rows = [list(gram_times(lat, v)) for v in vectors]
    basis = _integer_kernel(rows, lat.rank)
    gram = tuple(
        tuple(bilinear(lat, u, w) for w in basis) for u in basis
    )
    return basis, Lattice(gram)


def sublattice_index(lat: Lattice, sub_basis: Sequence[Sequence[int]]) -> int:
    """Index [L : L'] for a finite-index sublattice L' given by its basis.

    Computed as sqrt(d(L')/d(L)) and cross-checked against |det| of the
    coordinate matrix; a mismatch is an internal error, not bad input.
    """
    n = lat.rank
    if len(sub_basis) != n:
        raise NotFiniteIndex(
            f"{len(sub_basis)} vectors cannot span finite index in rank {n}"
        )
    vecs = [_check_vector(lat, v) for v in sub_basis]
    coord = [[vecs[j][i] for j in range(n)] for i in range(n)]
    det_coord = det_int(coord)
    if det_coord == 0:
        raise NotFiniteIndex("vectors are linearly dependent")
    d = discriminant(lat)
    if d == 0:
        raise Degenerate("index formula needs a non-degenerate form")
    sub_gram = tuple(tuple(bilinear(lat, u, w) for w in vecs) for u in vecs)
    d_sub = det_int(sub_gram)
    ratio = Fraction(d_sub, d)
    if ratio.denominator != 1 or ratio <= 0:
        raise InvariantViolation(f"d(L')/d(L) = {ratio} is not a positive integer")
    k = isqrt(ratio.numerator)
    if k * k != ratio.numerator:
        raise InvariantViolation(f"d(L')/d(L) = {ratio} is not a perfect square")
    if k != abs(det_coord):
        raise InvariantViolation(
            f"index {k} from discriminants, {abs(det_coord)} from coordinates"
        )
    return k


# standard building blocks

def hyperbolic_u() -> Lattice:
    return Lattice(((0, 1), (1, 0)))


def rank_one(n: int) -> Lattice:
    return Lattice(((n,),))


# E8 as its Cartan matrix, Bourbaki numbering: the chain is
# 1-3-4-5-6-7-8 and node 2 hangs off node 4.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8() -> Lattice:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for a, b in _E8_EDGES:
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return Lattice(tuple(tuple(row) for row in g))


def k3_lattice() -> Lattice:
    """U + U + U + E8(-1) + E8(-1): rank 22, signature (3,19), discriminant -1."""
    u = hyperbolic_u()
    e8_neg = rescale(e8(), -1)
    out = direct_sum(u, u)
    out = direct_sum(out, u)
    out = direct_sum(out, e8_neg)
    return direct_sum(out, e8_neg)
