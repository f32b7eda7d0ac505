"""Complete short-vector enumeration in positive-definite lattices.

Fincke-Pohst on an integer-scaled decomposition.  The pivots and rows of
the fraction-free elimination lattice._eliminate are read once as
L*Q(x) = sum_i W_i*(d_i*x_i + S_i)^2 with integers W_i, d_i and
S_i = sum_{j>i} N_ij*x_j.  The walk carries L times the norm still to place
as an int: every search interval comes from an integer square root, never
floating point, so the enumeration is provably complete, and level 0 solves
W_0*t^2 = rest outright.  The walk keeps to the half space whose last
nonzero coordinate is positive, one vector of each pair {v, -v}, and visits
at most MAX_NODES nodes: beyond that, EnumerationTooLarge.
"""

from math import gcd, isqrt, lcm

from .errors import Degenerate, EnumerationTooLarge, NotPositiveDefinite, OddLattice, WrongRank
from .lattice import Lattice, Vector, _eliminate, _ints, discriminant, gram_times, is_even

# nodes one vectors_of_norm call may visit; E8+E8 at norm 4 visits 73,071
MAX_NODES = 10**6


def _scaled(lat: Lattice) -> tuple[int, list[tuple[int, int, list[int]]]]:
    # L and the rows (W_i, d_i, N_i) of L*Q(x) = sum_i W_i*(d_i*x_i + S_i)^2:
    # Q(x) = sum_i (P_i*x_i + sum_{j>i} r_ij*x_j)^2 / (P_(i-1)*P_i) from the
    # pivots of _eliminate; dividing row i by its content g_i gives d_i = P_i/g_i,
    # N_ij = r_ij/g_i and W_i = L*g_i^2/(P_(i-1)*P_i), L least to make all whole
    pivots = _eliminate(lat.gram)
    # Sylvester: positive definite iff the pivots are 0..n-1 in order, all P_i > 0
    if [i for i, p, _ in pivots if p > 0] != list(range(lat.rank)):
        raise NotPositiveDefinite("form is not positive definite")
    prev = 1
    parts = []
    for i, p, row in pivots:
        g = gcd(p, *row[i + 1:])
        parts.append((g * g, prev * p, p // g, [0] * (i + 1) + [r // g for r in row[i + 1:]]))
        prev = p
    scale = lcm(*(den // gcd(num, den) for num, den, _, _ in parts))
    return scale, [(scale * num // den, d, row) for num, den, d, row in parts]


def _walk(level, rest, s, free, x, rows, found, budget) -> int:
    # Place x[level], ..., x[0] below the fixed x[level+1:], append each hit
    # to found and return the unspent node budget.  rest is L times the norm
    # still to place, s = S_level, and free says x[level+1:] is all zero, so
    # that x[level] must be >= 0 (and > 0 at level 0).
    w, d, _ = rows[level]
    if level == 0:
        r, over = divmod(rest, w)
        t = isqrt(r)
        if over or t * t != r:
            return budget
        for t in (t, -t) if t and not free else (t,):
            m, off = divmod(t - s, d)
            if not off:
                x[0] = m
                found.append(tuple(x))
        return budget
    b = isqrt(rest // w)
    lo, hi = -((b + s) // d), (b - s) // d
    if free and lo < 0:
        lo = 0
    budget -= hi - lo + 1
    if budget < 0:
        raise EnumerationTooLarge(f"the walk needs more than MAX_NODES = {MAX_NODES} nodes")
    child = rows[level - 1][2]
    base = sum(child[j] * x[j] for j in range(level + 1, len(x)))
    step = child[level]
    for m in range(lo, hi + 1):
        x[level] = m
        t = d * m + s
        budget = _walk(level - 1, rest - w * t * t, base + step * m, not m and free, x, rows, found, budget)
    return budget


def vectors_of_norm(lat: Lattice, n: int) -> list[Vector]:
    """All nonzero v with b(v,v) = n, one representative per {v,-v} pair.

    Representatives have positive first nonzero coordinate and the list is
    sorted lexicographically.  Requires a positive definite lattice.  A walk
    that would visit more than MAX_NODES nodes raises EnumerationTooLarge.
    """
    (n,) = _ints((n,), "norm")
    scale, rows = _scaled(lat)
    if n <= 0 or not rows:
        # positive definite: only the zero vector sits at norm <= 0
        return []
    found: list[Vector] = []
    _walk(len(rows) - 1, scale * n, 0, True, [0] * len(rows), rows, found, MAX_NODES)
    return sorted(v if next(c for c in v if c) > 0 else tuple(-c for c in v) for v in found)


def short_roots(lat: Lattice) -> list[Vector]:
    """Norm-2 vectors of an even positive-definite lattice."""
    if not is_even(lat):
        raise OddLattice("root enumeration is defined on even lattices")
    return vectors_of_norm(lat, 2)


def long_roots(lat: Lattice) -> list[Vector]:
    """Norm-6 vectors whose pairings with the whole lattice lie in 3Z.

    Divisibility is checked against a basis of the given lattice, i.e.
    G*v must vanish mod 3 componentwise.
    """
    if not is_even(lat):
        raise OddLattice("root enumeration is defined on even lattices")
    out = []
    for v in vectors_of_norm(lat, 6):
        if all(x % 3 == 0 for x in gram_times(lat, v)):
            out.append(v)
    return out


def isotropic_exists(lat: Lattice) -> tuple[bool, Vector | None]:
    """Whether a rank-2 even lattice [[2a,b],[b,2c]] has a nonzero isotropic vector.

    Exists exactly when b^2 - 4ac is a perfect square; the witness
    returned is primitive.
    """
    if lat.rank != 2:
        raise WrongRank(f"rank {lat.rank}, need rank 2")
    if discriminant(lat) == 0:
        raise Degenerate("isotropic test expects a non-degenerate form")
    if not is_even(lat):
        raise OddLattice("isotropic test is stated for even forms")
    a = lat.gram[0][0] // 2
    b = lat.gram[0][1]
    c = lat.gram[1][1] // 2
    disc = b * b - 4 * a * c
    if disc < 0:
        return False, None
    r = isqrt(disc)
    if r * r != disc:
        return False, None
    if a == 0:
        return True, (1, 0)
    x, y = -b + r, 2 * a
    g = gcd(x, y)
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    witness = (x, y)
    if a * x * x + b * x * y + c * y * y != 0:
        raise AssertionError("isotropic witness fails to be isotropic")
    return True, witness
