"""Independent oracles used by the test suite.

Everything here recomputes results through a different algorithm than the
library (box search instead of interval descent, Gauss-Jordan instead of
Bareiss, permutation expansion instead of cofactors) so that agreement is
meaningful.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction

from cubiclat.detrep import FormMatrix, ScanResult, _compile, _system, projective_points
from cubiclat.errors import NotPositiveDefinite
from cubiclat.forms import Form, PLANE_VARS
from cubiclat.lattice import Lattice, bilinear


def det_fraction(matrix) -> Fraction:
    """Plain Gauss elimination over Q with partial pivoting by first nonzero."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def inverse_fraction(matrix):
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def box_vectors_of_norm(lat: Lattice, n: int):
    """Brute-force enumeration: |v_i|^2 <= n * (G^-1)_ii for pos. definite G."""
    if n <= 0:
        return []
    ginv = inverse_fraction(lat.gram)
    bounds = []
    for i in range(lat.rank):
        radius2 = Fraction(n) * ginv[i][i]
        bound = math.isqrt(radius2.numerator // radius2.denominator) + 1
        bounds.append(bound)
    found = set()
    for v in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if not any(v):
            continue
        if bilinear(lat, v, v) != n:
            continue
        first = next(x for x in v if x)
        if first < 0:
            v = tuple(-x for x in v)
        found.add(v)
    return sorted(found)


def fraction_vectors_of_norm(lat: Lattice, n: int):
    """Fincke-Pohst on an exact Fraction decomposition, walking v and -v.

    The library's enumeration before it moved to integer arithmetic; fast
    enough for rank 4-8 differential checks where the box search is not.
    """
    if n <= 0:
        return []
    rank = lat.rank
    q = [[Fraction(x) for x in row] for row in lat.gram]
    for i in range(rank):
        assert q[i][i] > 0, "form is not positive definite"
        for j in range(i + 1, rank):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, rank):
            for l in range(k, rank):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]

    def interval(qii, s, t):
        # all integers m with qii*(m+s)^2 <= t, as [lo, hi]
        if t < 0:
            return 1, 0
        rp = t / qii * s.denominator**2
        big = math.isqrt(rp.numerator * rp.denominator) // rp.denominator
        return -((big + s.numerator) // s.denominator), (big - s.numerator) // s.denominator

    found = []
    x = [0] * rank

    def descend(level, remaining):
        if level < 0:
            if remaining == 0 and any(x) and next(c for c in x if c) > 0:
                found.append(tuple(x))
            return
        s = sum((q[level][j] * x[j] for j in range(level + 1, rank)), Fraction(0))
        lo, hi = interval(q[level][level], s, remaining)
        for m in range(lo, hi + 1):
            x[level] = m
            descend(level - 1, remaining - q[level][level] * (m + s) ** 2)
        x[level] = 0

    descend(rank - 1, Fraction(n))
    return sorted(found)


def fraction_diagonal(rows) -> list[Fraction]:
    """Diagonal of a form congruent over Q to rows, by elimination over Fraction.

    The library's lattice._diagonal before it moved to integer (Bareiss)
    elimination, with the same pivot rule: the first remaining nonzero
    diagonal entry, or else e_i + e_j for the first nonzero b(e_i, e_j),
    which makes the plane they span <2b, -b/2>.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    alive = list(range(len(a)))
    out = []
    while alive:
        piv = next((i for i in alive if a[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive if i < j and a[i][j] != 0), None)
            if pair is None:
                return out + [Fraction(0)] * len(alive)
            piv, j = pair
            for k in alive:
                a[piv][k] += a[j][k]
            for k in alive:
                a[k][piv] += a[k][j]
        d = a[piv][piv]
        out.append(d)
        alive.remove(piv)
        top = a[piv]
        for i in alive:
            row = a[i]
            if row[piv] == 0:
                continue
            f = row[piv] / d
            for j in alive:
                row[j] -= f * top[j]
    return out


def fraction_scaled(lat: Lattice):
    """(L, [(W_i, d_i, N_i)]) with L*Q(x) = sum_i W_i*(d_i*x_i + sum_j N_ij*x_j)^2.

    The library's enumeration._scaled before it moved to integer
    elimination: an exact rational Cholesky-style decomposition
    Q(x) = sum_i q_ii*(x_i + sum_{j>i} q_ij*x_j)^2, then each row scaled by
    the lcm of its denominators and the weights by the lcm of theirs.
    """
    n = lat.rank
    q = [[Fraction(x) for x in row] for row in lat.gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise NotPositiveDefinite("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    dens = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n))) for i in range(n)]
    weights = [q[i][i] / (d * d) for i, d in enumerate(dens)]
    scale = math.lcm(*(w.denominator for w in weights))
    return scale, [
        ((w * scale).numerator, d, [(q[i][j] * d).numerator if j > i else 0 for j in range(n)])
        for i, (w, d) in enumerate(zip(weights, dens))
    ]


def rank2_isometry(g1, g2, box: int = 5):
    """Search integer P with det +-1 and P^T g1 P == g2.  Returns P or None."""
    for p00, p01, p10, p11 in itertools.product(range(-box, box + 1), repeat=4):
        if abs(p00 * p11 - p01 * p10) != 1:
            continue
        c00 = g1[0][0] * p00 * p00 + 2 * g1[0][1] * p00 * p10 + g1[1][1] * p10 * p10
        if c00 != g2[0][0]:
            continue
        c11 = g1[0][0] * p01 * p01 + 2 * g1[0][1] * p01 * p11 + g1[1][1] * p11 * p11
        if c11 != g2[1][1]:
            continue
        c01 = (
            g1[0][0] * p00 * p01
            + g1[0][1] * (p00 * p11 + p01 * p10)
            + g1[1][1] * p10 * p11
        )
        if c01 == g2[0][1]:
            return ((p00, p01), (p10, p11))
    return None


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        k = rng.choice((-2, -1, 1, 2))
        for c in range(n):
            m[i][c] += k * m[j][c]
    if rng.random() < 0.5 and n > 1:
        m[0], m[1] = m[1], m[0]
    return tuple(tuple(row) for row in m)


def congruence(u, g):
    """u^T g u for integer matrices."""
    n = len(g)
    ug = [
        [sum(u[k][i] * g[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return tuple(
        tuple(sum(ug[i][k] * u[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def random_even_posdef(rng: random.Random, max_rank: int = 4, disc_cap: int = 10**4):
    """Rejection-sample an even positive definite Gram matrix."""
    from cubiclat.lattice import discriminant, signature

    while True:
        r = rng.randint(1, max_rank)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        lat = Lattice(tuple(tuple(row) for row in g))
        if signature(lat) != (r, 0, 0):
            continue
        if abs(discriminant(lat)) > disc_cap:
            continue
        return lat


def random_posdef(rng: random.Random, max_rank: int = 3, entry_cap: int = 30):
    """Rejection-sample an integer positive definite Gram matrix (odd allowed)."""
    from cubiclat.lattice import signature

    while True:
        r = rng.randint(1, max_rank)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = rng.randint(1, entry_cap)
            for j in range(i + 1, r):
                bound = min(entry_cap, (g[i][i] + g[j][j]) // 3 + 1)
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        lat = Lattice(tuple(tuple(row) for row in g))
        if signature(lat) == (r, 0, 0):
            return lat


def seeded_even_gram(seed: int, n: int):
    """A symmetric n x n matrix, entries in [-9, 9] and an even diagonal in [-10, 10].

    Random(220) at n = 20 and Random(324) at n = 24 give Smith transforms
    with thousands of digits.
    """
    rng = random.Random(seed)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-9, 9)
        g[i][i] = 2 * rng.randint(-5, 5)
    return g


def milgram_direct(form) -> int:
    """Residue via a straight complex sum over the public element API."""
    total = 0j
    count = 0
    for elem in form.elements():
        count += 1
        total += cmath.exp(1j * cmath.pi * float(form.value(elem)))
    magnitude = math.sqrt(count)
    assert abs(abs(total) - magnitude) < 1e-6 * magnitude
    angle = cmath.phase(total) / (2 * cmath.pi) * 8
    residue = round(angle) % 8
    assert abs(angle - round(angle)) < 1e-6
    return residue


def permutation_det(entries):
    """Sum over permutations; entries is a square grid of Forms."""
    n = len(entries)
    sample = entries[0][0]
    total = Form.zero(sample.variables, 0, sample.p)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = None
        for i in range(n):
            f = entries[i][perm[i]]
            term = f if term is None else term * f
        total = total + (term if sign > 0 else -term)
    return total


def random_plane_form(rng: random.Random, degree: int, p=None, lo: int = -3, hi: int = 3):
    exps = [
        e
        for e in itertools.product(range(degree + 1), repeat=3)
        if sum(e) == degree
    ]
    coeffs = {}
    for e in exps:
        c = rng.randint(lo, hi)
        if c:
            coeffs[e] = c if p is None else c % p
    return Form(PLANE_VARS, degree, coeffs, p)


def scan_direct(f: Form, p: int):
    """(witness, points scanned) of a smoothness scan, by Form.evaluate.

    The points of P^(n-1)(F_p) are the p-tuples whose first nonzero
    coordinate is 1, ordered by that coordinate's position, then
    lexicographically; the witness is the first at which f and all its
    partials vanish mod p, or None.
    """
    n = len(f.variables)
    g = Form(f.variables, f.degree, f.coeffs, p)
    forms = [g] + [g.derivative(i) for i in range(n)]
    lead = lambda v: next(i for i, x in enumerate(v) if x)
    points = sorted(
        (v for v in itertools.product(range(p), repeat=n) if any(v) and v[lead(v)] == 1),
        key=lambda v: (lead(v), v),
    )
    for count, point in enumerate(points, 1):
        if all(h.evaluate(point) == 0 for h in forms):
            return point, count
    return None, len(points)


def point_scan(f: Form, p: int) -> ScanResult:
    """A smoothness scan that evaluates f mod p and its partials point by point.

    The library's scans before they moved to lines: compiled evaluation at
    every point of projective_points, with the same scan checks and budget.
    """
    value_fn, *partial_fns = map(_compile, _system(f, p))
    for count, point in enumerate(projective_points(len(partial_fns), p), 1):
        if value_fn(*point) != 0:
            continue
        if all(fn(*point) == 0 for fn in partial_fns):
            return ScanResult(False, point, count)
    return ScanResult(True, None, count)


def random_form_matrix(rng: random.Random, p=None):
    lin = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            f = random_plane_form(rng, 1, p)
            lin[i][j] = lin[j][i] = f
    quad = [random_plane_form(rng, 2, p) for _ in range(3)]
    cub = random_plane_form(rng, 3, p)
    entries = [
        [lin[0][0], lin[0][1], lin[0][2], quad[0]],
        [lin[1][0], lin[1][1], lin[1][2], quad[1]],
        [lin[2][0], lin[2][1], lin[2][2], quad[2]],
        [quad[0], quad[1], quad[2], cub],
    ]
    return FormMatrix(entries)
