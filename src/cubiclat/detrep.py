"""Symmetric form matrices, the plane-containing cubic, and mod-p smoothness.

The degree pattern for a size-n matrix is: linear entries on the leading
(n-1) x (n-1) block, quadratics along the last row and column, a cubic in
the corner, so the determinant is homogeneous of degree n + 2.  Size 4
gives the sextic story; build_cubic and quadric_gram are mutually inverse
on cubics that contain the plane where the first three coordinates vanish.

Smoothness scans cover all points of projective space over F_p and certify
only the reduction mod p; a witness is returned in a fixed scan order, so
results are deterministic.  Both scans walk the lines (prefix, t) of the
scan order.  Plane curves restrict the form and its partials to each line,
and their univariate gcd over F_p gives the line's singular points.
Fourfolds restrict only the cubic, and evaluate the partials at its roots.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (
    BadPrime,
    HalfIntegerCoefficient,
    NoPlane,
    NotCubic,
    ParseError,
    PrimeTooLarge,
    WrongSize,
    WrongVariable,
)
from .forms import AMBIENT_VARS, PLANE_VARS, Form, check_prime, embed_form, parse_field, parse_form, serialize_form

# points one smoothness scan may visit: P^5(F_7) has 19,608 and P^5(F_11)
# 177,156; P^2(F_313) has 98,283 and P^2(F_317) 100,807
MAX_POINTS = 10**5
# largest form matrix the cofactor determinant expands; each size step costs
# about 8x, and a dense size-7 matrix takes about 3 s
MAX_DET_SIZE = 7


def _expected_degree(size: int, i: int, j: int) -> int:
    if i < size - 1 and j < size - 1:
        return 1
    if i == size - 1 and j == size - 1:
        return 3
    return 2


class FormMatrix:
    """Symmetric matrix of plane forms following the degree pattern."""

    __slots__ = ("size", "entries", "p")

    def __init__(self, entries):
        rows = [list(row) for row in entries]
        size = len(rows)
        if size < 1 or any(len(row) != size for row in rows):
            raise WrongSize("entries must form a non-empty square matrix")
        self.size = size
        first = rows[0][0]
        self.p = first.p
        for i in range(size):
            for j in range(size):
                f = rows[i][j]
                if not isinstance(f, Form):
                    raise WrongSize("entries must be Form instances")
                if f.variables != PLANE_VARS:
                    raise WrongVariable(
                        f"matrix entries live in {PLANE_VARS}, got {f.variables}"
                    )
                if f.p != self.p:
                    raise BadPrime("entries mix coefficient fields")
                want = _expected_degree(size, i, j)
                if not f.is_zero() and f.degree != want:
                    raise WrongSize(
                        f"entry ({i},{j}) has degree {f.degree}, pattern wants {want}"
                    )
                if f != rows[j][i]:
                    raise WrongSize(f"entries ({i},{j}) and ({j},{i}) differ")
        # normalize zero-form degree labels to the pattern
        self.entries = tuple(
            tuple(
                Form.zero(PLANE_VARS, _expected_degree(size, i, j), self.p)
                if rows[i][j].is_zero()
                else rows[i][j]
                for j in range(size)
            )
            for i in range(size)
        )

    def __eq__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        return (
            self.size == other.size
            and self.p == other.p
            and self.entries == other.entries
        )

    __hash__ = None

    def field_label(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "field": self.field_label(),
            "entries": [
                [serialize_form(f) for f in row] for row in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormMatrix":
        if not isinstance(data, dict):
            raise ParseError("matrix input must be an object with size, field, entries")
        for key in ("size", "field", "entries"):
            if key not in data:
                raise ParseError(f"form matrix is missing {key!r}")
        p = parse_field(data["field"])
        size, rows = data["size"], data["entries"]
        if not (
            type(size) is int
            and isinstance(rows, list)
            and len(rows) == size
            and all(isinstance(r, list) and len(r) == size for r in rows)
        ):
            raise WrongSize("entries do not match the declared size")
        if not all(isinstance(text, str) for row in rows for text in row):
            raise ParseError("form matrix entries must be form texts")
        return cls([[parse_form(text, PLANE_VARS, p) for text in row] for row in rows])


def _det_forms(block) -> Form:
    # cofactor expansion along the first row
    size = len(block)
    if size == 1:
        return block[0][0]
    total = None
    for j in range(size):
        entry = block[0][j]
        if entry.is_zero():
            continue
        minor = [
            [block[i][k] for k in range(size) if k != j] for i in range(1, size)
        ]
        term = entry * _det_forms(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    if total is None:
        sample = block[0][0]
        return Form.zero(sample.variables, 0, sample.p)
    return total


def det_form_matrix(m: FormMatrix) -> Form:
    """Determinant by cofactor expansion; degree size + 2 under the pattern.

    A matrix larger than MAX_DET_SIZE raises WrongSize.
    """
    if m.size > MAX_DET_SIZE:
        raise WrongSize(
            f"size {m.size} exceeds the cofactor determinant's cap MAX_DET_SIZE = {MAX_DET_SIZE}"
        )
    out = _det_forms([list(row) for row in m.entries])
    if out.is_zero():
        return Form.zero(PLANE_VARS, m.size + 2, m.p)
    return out


def build_cubic(m: FormMatrix) -> Form:
    """The cubic sum_{i,j<=3} Z_i Z_j L_ij + sum_i 2 Z_i Q_i + H in six variables.

    The double sum runs over ordered pairs, so each off-diagonal L_ij
    lands with multiplicity 2, matching quadric_gram's halving on the way
    back.  Requires size 4.
    """
    if m.size != 4:
        raise WrongSize(f"size {m.size}, need 4")
    total = Form.zero(AMBIENT_VARS, 3, m.p)
    for i in range(3):
        for j in range(3):
            total = total + _z_shift(m.entries[i][j], (i, j))
    for i in range(3):
        total = total + _z_shift(m.entries[i][3], (i,)).scale(2)
    total = total + embed_form(m.entries[3][3], AMBIENT_VARS)
    if total.is_zero():
        return Form.zero(AMBIENT_VARS, 3, m.p)
    return total


def _z_shift(f: Form, z_indices) -> Form:
    # multiply the lifted plane form by the product of the chosen Z variables
    lifted = embed_form(f, AMBIENT_VARS)
    out = {}
    for exps, value in lifted.coeffs.items():
        key = list(exps)
        for z in z_indices:
            key[z] += 1
        out[tuple(key)] = value
    return Form(AMBIENT_VARS, lifted.degree + len(z_indices), out, f.p)


def contains_plane(f: Form) -> bool:
    """True when the cubic vanishes on X0 = X1 = X2 = 0."""
    _require_ambient_cubic(f)
    return all(sum(exps[3:]) >= 1 for exps in f.coeffs)


def _require_ambient_cubic(f: Form):
    if f.variables != AMBIENT_VARS:
        raise WrongVariable(
            f"expected the six ambient variables {AMBIENT_VARS}, got {f.variables}"
        )
    if not f.is_zero() and f.degree != 3:
        raise NotCubic(f"degree {f.degree}, need 3")


def quadric_gram(f: Form) -> FormMatrix:
    """Recover the symmetric matrix of the quadric bundle from the cubic.

    Inverse of build_cubic: off-diagonal Z_i Z_j coefficients and the
    Z_i-linear quadratics are halved.  Characteristic 2 has no half, so
    p = 2 is rejected.
    """
    _require_ambient_cubic(f)
    if not contains_plane(f):
        raise NoPlane("the cubic does not vanish on the plane")
    if f.p == 2:
        raise HalfIntegerCoefficient("cannot halve coefficients over F_2")
    half = Fraction(1, 2) if f.p is None else pow(2, -1, f.p)
    buckets: dict[tuple, dict] = {}
    for exps, value in f.coeffs.items():
        zpart = exps[:3]
        xpart = (0, 0, 0) + exps[3:]
        buckets.setdefault(zpart, {})[xpart[3:]] = value
    entries = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            entries[i][j] = Form.zero(PLANE_VARS, _expected_degree(4, i, j), f.p)

    def plane_form(coeffs, degree, scale=None):
        if scale is None:
            return Form(PLANE_VARS, degree, coeffs, f.p)
        return Form(
            PLANE_VARS, degree, {e: v * scale for e, v in coeffs.items()}, f.p
        )

    for zpart, coeffs in buckets.items():
        zdeg = sum(zpart)
        if zdeg == 0:
            entries[3][3] = plane_form(coeffs, 3)
        elif zdeg == 1:
            i = zpart.index(1)
            entries[i][3] = entries[3][i] = plane_form(coeffs, 2, half)
        else:
            ones = [k for k, e in enumerate(zpart) if e >= 1]
            if len(ones) == 1:
                i = ones[0]
                entries[i][i] = plane_form(coeffs, 1)
            else:
                i, j = ones
                entries[i][j] = entries[j][i] = plane_form(coeffs, 1, half)
    return FormMatrix(entries)


def discriminant_curve(f: Form) -> Form:
    """The degree-6 determinant of the quadric bundle of a plane-containing cubic."""
    return det_form_matrix(quadric_gram(f))


@dataclass(frozen=True)
class ScanResult:
    smooth_mod_p: bool
    witness: tuple[int, ...] | None
    points_scanned: int

    def to_json(self) -> dict:
        return {
            "smooth_mod_p": self.smooth_mod_p,
            "witness": list(self.witness) if self.witness is not None else None,
            "points_scanned": self.points_scanned,
        }


def _reduce_exponent(e: int, p: int) -> int:
    # x^e = x^((e-1) % (p-1) + 1) for every x in F_p once e >= 1
    return (e - 1) % (p - 1) + 1 if e else 0


def _source(terms, p: int) -> str:
    # straight-line code for sum(c * v0^e0 * ...) mod p: a dense smooth cubic
    # over P^5(F_7) scans in about 15 ms with it and about 60 ms with a loop
    # over the terms (2-vCPU Xeon VM); sum() and the exponent reduction keep
    # it shallow enough to compile at any term count and exponent
    products = []
    for exps, c in terms:
        factors = [str(c)]
        for i, e in enumerate(exps):
            factors.extend([f"v{i}"] * _reduce_exponent(e, p))
        products.append("*".join(factors))
    return f"sum([{','.join(products)}]) % {p}"


def _lambda(nargs: int, body: str):
    args = ",".join(f"v{i}" for i in range(nargs))
    return eval(f"lambda {args}: {body}", {"__builtins__": {}, "sum": sum}, {})


def _compile(f: Form):
    return _lambda(len(f.variables), _source(f.coeffs.items(), f.p))


def projective_points(nvars: int, p: int):
    """All points of P^(nvars-1) over F_p, in the fixed scan order.

    Points are listed by the position of their first nonzero coordinate
    (normalized to 1), remaining coordinates in lexicographic order.
    """
    for lead in range(nvars):
        for tail in itertools.product(range(p), repeat=nvars - lead - 1):
            yield (0,) * lead + (1,) + tail


def _system(f: Form, p: int) -> list:
    # g = f mod p and its partials, once the scan's prime, budget and field are checked
    check_prime(p)
    nvars = len(f.variables)
    points = (p**nvars - 1) // (p - 1)
    if points > MAX_POINTS:
        raise PrimeTooLarge(
            f"P^{nvars - 1}(F_{p}) has {points} points, more than the scan cap MAX_POINTS = {MAX_POINTS}"
        )
    if f.p is not None and f.p != p:
        raise BadPrime(f"form lives over F_{f.p}, scan requested mod {p}")
    g = Form(f.variables, f.degree, f.coeffs, p)
    if g.is_zero():
        raise BadPrime(f"{p} divides every coefficient")
    return [g] + [g.derivative(i) for i in range(nvars)]


def _poly_gcd(a: list, b: list, p: int) -> list:
    # Euclid on coefficient lists over F_p, constant term first; a leading
    # zero of a just gives q = 0, and the gcd comes back without one
    while True:
        while b and not b[-1]:
            b = b[:-1]
        if not b:
            return a
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            a = a[:shift] + [(x - q * c) % p for x, c in zip(a[shift:-1], b)]
        a, b = b, a


def _line_scan(system: list) -> ScanResult:
    # For each (x0, x1) in projective_points(2, p), the points (x0, x1, t),
    # t = 0..p-1, come consecutively in scan order: restrict the plane system
    # to that line and fold its gcd over F_p, whose smallest root t is the
    # line's first singular point.  (0,0,1) comes last.
    p = system[0].p
    monomials, term_lists = {}, []
    for h in system:
        terms = {}
        for exps, c in h.coeffs.items():
            key = tuple(_reduce_exponent(e, p) for e in exps)
            terms[key] = (terms.get(key, 0) + c) % p
        term_lists.append([(monomials.setdefault(key[:2], len(monomials)), key[2], c) for key, c in terms.items() if c])
    # all empty when the system vanishes on all of F_p^3
    width = 1 + max((k for terms in term_lists for _, k, _ in terms), default=0)
    top = max(map(max, monomials), default=0)

    def restrict(x0, x1):
        # each h(x0, x1, t) as a coefficient list in t
        r0, r1 = ([pow(x, e, p) for e in range(top + 1)] for x in (x0, x1))
        values = [r0[e0] * r1[e1] for e0, e1 in monomials]
        for terms in term_lists:
            poly = [0] * width
            for m, k, c in terms:
                poly[k] += c * values[m]
            yield [c % p for c in poly]

    for line, prefix in enumerate(projective_points(2, p)):
        common = []
        for poly in restrict(*prefix):
            common = _poly_gcd(common, poly, p)
            if len(common) == 1:
                break
        else:
            for t in range(p):  # Horner
                if not reduce(lambda v, c: (v * t + c) % p, reversed(common), 0):
                    return ScanResult(False, prefix + (t,), line * p + t + 1)
    singular = all(sum(poly) % p == 0 for poly in restrict(0, 0))
    return ScanResult(not singular, (0, 0, 1) if singular else None, p * p + p + 1)


def smooth_plane_curve_fp(f: Form, p: int) -> ScanResult:
    """Scan P^2(F_p) for points where the curve and all three partials vanish.

    Certifies smoothness of the reduction mod p only; it says nothing
    about the curve over Q beyond that.
    """
    if f.variables != PLANE_VARS:
        raise WrongVariable(f"expected plane variables {PLANE_VARS}")
    return _line_scan(_system(f, p))


def smooth_fourfold_fp(f: Form, p: int) -> ScanResult:
    """Scan P^5(F_p) for singular points of the cubic."""
    _require_ambient_cubic(f)
    g, *partials = _system(f, p)
    # For each prefix in projective_points(5, p), the points (prefix, t),
    # t = 0..p-1, come consecutively in scan order: restrict g to that line,
    # a cubic in t, and test the partials only at its roots, smallest first.
    # Its t^3 coefficient is that of X2^3 on every line, so the (p^5 - 1)/(p - 1)
    # lines have at most p^3 distinct restrictions, and their roots are
    # cached.  (0,...,0,1) comes last.
    by_power = [[] for _ in range(4)]  # the terms of t^3, t^2, t and 1
    for exps, c in g.coeffs.items():
        by_power[3 - exps[5]].append((exps[:5], c))
    restrict = _lambda(5, f"({','.join(_source(terms, p) for terms in by_power)})")
    partial_fns = [_compile(h) for h in partials]
    roots_of = {}
    for line, prefix in enumerate(projective_points(5, p)):
        coeffs = restrict(*prefix)
        roots = roots_of.get(coeffs)
        if roots is None:
            c3, c2, c1, c0 = coeffs
            roots = roots_of[coeffs] = [t for t in range(p) if not (((c3 * t + c2) * t + c1) * t + c0) % p]
        for t in roots:
            point = prefix + (t,)
            if not any(fn(*point) for fn in partial_fns):
                return ScanResult(False, point, line * p + t + 1)
    last = (0, 0, 0, 0, 0, 1)
    singular = not sum(restrict(0, 0, 0, 0, 0)) % p and not any(fn(*last) for fn in partial_fns)
    return ScanResult(not singular, last if singular else None, (p**6 - 1) // (p - 1))
