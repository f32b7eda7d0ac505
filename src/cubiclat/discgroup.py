"""Discriminant groups of non-degenerate lattices and finite quadratic forms.

The discriminant group A_L = L*/L is read off the Smith normal form of the
Gram matrix.  Quadratic values live in Q/2Z (reduced to [0,2)), pairings in
Q/Z (reduced to [0,1)).  The Milgram residue is read off a rational
diagonalization of each p-part, so every step is exact.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    Condition5Violated,
    Degenerate,
    DegenerateForm,
    DimensionMismatch,
    GroupTooLarge,
    InvariantViolation,
    OddLattice,
    ParseError,
)
from .forms import _least_divisor
from .lattice import Lattice, _diagonal, _ints, _json_ints, discriminant, gram_times, is_even

# largest invariant factor milgram_signature factors: trial division up to
# its square root, 10^6 steps; the prime 999,999,999,989 takes about 0.1 s
MAX_ORDER = 10**12


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d_1 | d_2 | ..., d_i >= 0."""

    u: tuple[tuple[int, ...], ...]
    d: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form of an integer matrix, with both transforms."""
    a = [list(_ints(row, "matrix row")) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise DimensionMismatch("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):
        # row_i += k * row_j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, k):
        # col_i += k * col_j
        for r in a:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (
                    best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])
                ):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q, r = divmod(a[i][t], a[t][t])
                    row_add(i, t, -q)
                    if r:
                        row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q, r = divmod(a[t][j], a[t][t])
                    col_add(j, t, -q)
                    if r:
                        col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot clears its row and column; force divisibility of the block
            bad = next(
                (
                    (i, j)
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if bad is None:
                break
            row_add(t, bad[0], 1)
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return SmithDecomposition(freeze(u), freeze(a), freeze(v))


def pairing_q(
    lat: Lattice, x: Sequence[Fraction], y: Sequence[Fraction]
) -> Fraction:
    """b extended to L tensor Q."""
    n = lat.rank
    out = Fraction(0)
    for i in range(n):
        if x[i] == 0:
            continue
        row = lat.gram[i]
        out += x[i] * sum(Fraction(row[j]) * y[j] for j in range(n))
    return out


@dataclass(frozen=True)
class DiscriminantGroup:
    """Invariant factors > 1 and rational coordinate generators of L*/L."""

    orders: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "generators": [[str(x) for x in g] for g in self.generators],
        }


def discriminant_group(lat: Lattice) -> DiscriminantGroup:
    """Generators and orders of A_L = L*/L.

    From U*G*V = D the dual is spanned by the columns of V*D^-1, so the
    i-th column of V divided by d_i generates a cyclic factor of order d_i.
    Each generator is reduced mod L, to coordinates in [0, 1), so that its
    numerators stay below d_i however large V grows.  Factors with d_i = 1
    are dropped.
    """
    disc = discriminant(lat)
    if disc == 0:
        raise Degenerate("degenerate lattice has no finite discriminant group")
    snf = smith_normal_form(lat.gram)
    orders = []
    gens = []
    n = lat.rank
    for i in range(n):
        d = snf.d[i][i]
        if d == 1:
            continue
        orders.append(d)
        gens.append(tuple(Fraction(snf.v[j][i] % d, d) for j in range(n)))
    if math.prod(orders) != abs(disc):
        raise InvariantViolation(
            f"group order {math.prod(orders)} != |disc| {abs(disc)}"
        )
    return DiscriminantGroup(tuple(orders), tuple(gens))


def _mod2(x: Fraction) -> Fraction:
    return x - 2 * (x / 2).__floor__()


def _mod1(x: Fraction) -> Fraction:
    return x - x.__floor__()


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """A finite abelian group with q: A -> Q/2Z and its pairing b: AxA -> Q/Z.

    Stored on cyclic generators: orders[i] is the order of g_i, q_vals[i]
    is q(g_i) in [0,2), b_vals[i][j] is b(g_i,g_j) in [0,1).  The value on
    an arbitrary element sum(c_i g_i) follows from bilinearity.
    """

    orders: tuple[int, ...]
    q_vals: tuple[Fraction, ...]
    b_vals: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.orders)
        if len(self.q_vals) != k or len(self.b_vals) != k:
            raise InvariantViolation("generator tables have mismatched lengths")
        for d in self.orders:
            if d <= 1:
                raise InvariantViolation("orders must be > 1")
        for i in range(k):
            q = self.q_vals[i]
            if not (0 <= q < 2):
                raise InvariantViolation(f"q value {q} not reduced to [0,2)")
            if self.orders[i] ** 2 * q % 2 != 0:
                raise InvariantViolation(
                    f"q({i}) = {q} is ill-defined on a generator of order {self.orders[i]}"
                )
            if len(self.b_vals[i]) != k:
                raise InvariantViolation("pairing table is not square")
            if _mod1(q) != self.b_vals[i][i]:
                raise InvariantViolation("q and b disagree on a generator")
            for j in range(k):
                b = self.b_vals[i][j]
                if not (0 <= b < 1):
                    raise InvariantViolation(f"b value {b} not reduced to [0,1)")
                if b != self.b_vals[j][i]:
                    raise InvariantViolation("pairing table is not symmetric")
                if (b * math.gcd(self.orders[i], self.orders[j])).denominator != 1:
                    raise InvariantViolation(
                        f"b({i},{j}) = {b} incompatible with generator orders"
                    )

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def value(self, coeffs: Sequence[int]) -> Fraction:
        """q(sum c_i g_i) in [0,2)."""
        k = len(self.orders)
        if len(coeffs) != k:
            raise InvariantViolation("coefficient vector has wrong length")
        total = Fraction(0)
        for i in range(k):
            ci = coeffs[i]
            if ci == 0:
                continue
            total += ci * ci * self.q_vals[i]
            for j in range(i + 1, k):
                total += 2 * ci * coeffs[j] * self.b_vals[i][j]
        return _mod2(total)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        """b(sum x_i g_i, sum y_j g_j) in [0,1)."""
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj:
                    total += xi * yj * self.b_vals[i][j]
        return _mod1(total)

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))

    def to_json(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": [str(x) for x in self.q_vals],
            "b": [[str(x) for x in row] for row in self.b_vals],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteQuadraticForm":
        """The form to_json wrote; tables it does not describe raise ParseError."""
        if not isinstance(data, dict) or not all(key in data for key in ("orders", "q", "b")):
            raise ParseError("a finite quadratic form is an object with orders, q and b")
        if not isinstance(data["b"], list):
            raise ParseError("b must be a JSON array of rows")
        try:
            return cls(
                _json_ints(data["orders"], "orders"),
                _json_fractions(data["q"], "q"),
                tuple(_json_fractions(row, "b") for row in data["b"]),
            )
        except InvariantViolation as exc:
            raise ParseError(f"not a finite quadratic form: {exc}") from None


def _json_fractions(data, what: str) -> tuple[Fraction, ...]:
    # the fraction texts of to_json, such as "3/4"
    if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
        raise ParseError(f"{what} must be a JSON array of fraction texts")
    try:
        return tuple(Fraction(s) for s in data)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} holds a text that is not a fraction: {data!r}") from None


def discriminant_form(lat: Lattice) -> FiniteQuadraticForm:
    """q_L(x) = b(x,x) mod 2Z on A_L; defined only for even non-degenerate L."""
    if not is_even(lat):
        raise OddLattice("discriminant form needs an even lattice")
    dg = discriminant_group(lat)
    gens = dg.generators
    q = tuple(_mod2(pairing_q(lat, g, g)) for g in gens)
    b = tuple(
        tuple(_mod1(pairing_q(lat, gi, gj)) for gj in gens) for gi in gens
    )
    return FiniteQuadraticForm(dg.orders, q, b)


def _split(x: int | Fraction, p: int) -> tuple[int, int]:
    # (v, u) with x = p^v * n/w: lowest terms put p in n or in w, not both,
    # and u = n*w is n/w mod 8, and mod squares for an odd p
    v, u = 0, x.numerator * x.denominator
    while u % p == 0:
        u //= p
        v += 1
    return (-v if x.denominator % p == 0 else v), u


def milgram_signature(form: FiniteQuadraticForm) -> int:
    """Residue sigma mod 8 with sum over A of exp(pi*i*q(x)) = sqrt(|A|) * e^(2*pi*i*sigma/8).

    Nothing is summed.  For each prime p dividing |A|, with k_i = v_p(d_i),
    G_p is the rational matrix of q and b on h_i = (d_i / p^k_i) * g_i.
    Writing each entry of a diagonalization of G_p as p^v * u, the 2-part
    adds the oddity, u + 4*[v odd and u = +-3 mod 8], and an odd p subtracts
    the p-excess, (p - 1) + 4*[u not a square mod p] for each odd v
    (Conway-Sloane, SPLAG ch. 15 sec. 7).  DegenerateForm is raised exactly
    when an entry is 0 or the v do not sum to -(sum of k_i), GroupTooLarge
    when an invariant factor is over MAX_ORDER.
    """
    primes = set()
    for d in form.orders:
        if d > MAX_ORDER:
            raise GroupTooLarge(f"invariant factor {d} exceeds MAX_ORDER = {MAX_ORDER}")
        while d > 1:
            p = _least_divisor(d) or d
            primes.add(p)
            d = _split(d, p)[1]
    # A_p is the discriminant form of the Z_p-lattice with Gram matrix G_p^-1
    # (when b is non-degenerate on A_p, which holds exactly when det G_p *
    # p^(sum k_i) is a p-adic unit), and G_p^-1 = G_p^-1 * G_p * G_p^-1 is
    # congruent to G_p over Q; oddity and p-excess are invariants of the
    # rational class, and the entries of _diagonal multiply to det G_p
    sigma = 0
    for p in sorted(primes):
        gens = [(i, *_split(d, p)) for i, d in enumerate(form.orders) if d % p == 0]
        rows = [
            [ci * cj * (form.q_vals[i] if i == j else form.b_vals[i][j]) for j, _, cj in gens]
            for i, _, ci in gens
        ]
        diag = _diagonal(rows)
        local = [_split(x, p) for x in diag if x]
        if len(local) < len(diag) or sum(v for v, _ in local) != -sum(k for _, k, _ in gens):
            raise DegenerateForm(f"the pairing has a kernel on the {p}-part of the group")
        for v, u in local:
            if p == 2:
                sigma += u % 8 + (4 if v % 2 and u % 8 in (3, 5) else 0)
            elif v % 2:
                sigma -= p - 1 + (4 if pow(u, (p - 1) // 2, p) != 1 else 0)
    return sigma % 8


def twist_parity_failure(lat: Lattice, a: Sequence[int]) -> int | None:
    """First basis index i with b(a,e_i)^2 - b(e_i,e_i) odd, or None if there is none.

    b(a,v)^2 - b(v,v) is linear in v mod 2, so None means it is even on all of L.
    """
    ga = gram_times(lat, a)
    return next((i for i in range(lat.rank) if (ga[i] ** 2 - lat.gram[i][i]) % 2), None)


def mayanskiy_q(lat: Lattice, a: Sequence[int]) -> FiniteQuadraticForm:
    """The twisted form alpha -> (b(alpha,a))^2 - b(alpha,alpha) mod 2Z on A_L.

    Well-defined on L*/L exactly when b(v,a)^2 - b(v,v) is even for every
    v in L; since that expression is linear mod 2, checking a basis
    suffices, and failure raises Condition5Violated.  The polarization is
    b_q(alpha,beta) = b(alpha,a)*b(beta,a) - b(alpha,beta) mod Z.
    """
    if discriminant(lat) == 0:
        raise Degenerate("twisted form needs a non-degenerate lattice")
    i = twist_parity_failure(lat, a)
    if i is not None:
        raise Condition5Violated(
            f"b(a,e_{i})^2 - b(e_{i},e_{i}) is odd; the form is ill-defined on A_L"
        )
    dg = discriminant_group(lat)
    gens = dg.generators
    a_frac = tuple(Fraction(x) for x in a)
    evals = []
    for g in gens:
        val = pairing_q(lat, g, a_frac)
        if val.denominator != 1:
            raise InvariantViolation("dual vector pairs non-integrally with a")
        evals.append(val.numerator)
    q = []
    b = []
    for i, gi in enumerate(gens):
        q.append(_mod2(Fraction(evals[i] ** 2) - pairing_q(lat, gi, gi)))
        row = []
        for j, gj in enumerate(gens):
            row.append(_mod1(Fraction(evals[i] * evals[j]) - pairing_q(lat, gi, gj)))
        b.append(tuple(row))
    return FiniteQuadraticForm(dg.orders, tuple(q), tuple(b))
