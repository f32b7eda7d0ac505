"""Homogeneous polynomials over Q or a prime field, with a stable text format.

Coefficients are int or Fraction over Q (int whenever the value is
integral) and canonical residues 0..p-1 over F_p; monomials are exponent
tuples aligned with the declared variable names.
Zero forms keep a nominal degree label so matrix slots stay typed, and
arithmetic treats them as compatible with any degree.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import add

from .errors import BadPrime, NotHomogeneous, ParseError, WrongVariable

PLANE_VARS = ("X0", "X1", "X2")
AMBIENT_VARS = ("Z1", "Z2", "Z3", "X0", "X1", "X2")


def check_prime(p: int):
    if not isinstance(p, int) or p < 2:
        raise BadPrime(f"{p!r} is not a prime")
    if p >= 2**31:
        raise BadPrime(f"prime {p} too large (need p < 2^31)")
    d = _least_divisor(p)
    if d:
        raise BadPrime(f"{p} = {d} * {p // d} is not prime")


@lru_cache(maxsize=64)
def _least_divisor(p: int) -> int:
    # every Form over F_p checks p (trial division up to 46,340), and
    # milgram_signature factors invariant factors up to MAX_ORDER = 10^12
    # (trial division up to 10^6): once per number
    return next((d for d in range(2, isqrt(p) + 1) if p % d == 0), 0)


def parse_field(label) -> int | None:
    """The prime p of a field label "Fp:<p>", or None for "Q"."""
    if label == "Q":
        return None
    digits = label[3:] if isinstance(label, str) and label.startswith("Fp:") else ""
    if not digits.isdecimal():
        raise BadPrime(f"unknown field label {label!r} (use Q or Fp:<p>)")
    p = int(digits)
    check_prime(p)
    return p


def _coerce(value, p):
    # exact values only: a float would be truncated or rounded without notice
    if not isinstance(value, (int, Fraction)):
        raise ParseError(f"{value!r} is not an int or a Fraction")
    if p is None:
        return value.numerator if value.denominator == 1 else value
    if value.denominator % p == 0:
        raise BadPrime(f"denominator of {value} vanishes mod {p}")
    return value.numerator * pow(value.denominator, -1, p) % p


def _exponent(value) -> int:
    if not isinstance(value, int):
        raise ParseError(f"degree or exponent {value!r} is not an int")
    return value


class Form:
    """A homogeneous polynomial in the given variables."""

    __slots__ = ("variables", "degree", "coeffs", "p")

    def __init__(self, variables, degree, coeffs=None, p=None):
        if p is not None:
            check_prime(p)
        try:
            self.variables = tuple(variables)
        except TypeError:
            raise ParseError(f"variables must be a sequence of names, got {variables!r}") from None
        self.degree = _exponent(degree)
        if self.degree < 0:
            raise NotHomogeneous("degree must be non-negative")
        self.p = p
        if coeffs is None:
            coeffs = {}
        elif not isinstance(coeffs, dict):
            raise ParseError(f"coefficients must be a dict keyed by exponent tuples, got {coeffs!r}")
        clean = {}
        nvars = len(self.variables)
        for exps, value in coeffs.items():
            if not isinstance(exps, tuple):
                raise ParseError(f"exponent key {exps!r} is not a tuple")
            exps = tuple(map(_exponent, exps))
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise NotHomogeneous(f"bad exponent tuple {exps}")
            if sum(exps) != self.degree:
                raise NotHomogeneous(
                    f"monomial of degree {sum(exps)} in a degree-{self.degree} form"
                )
            value = _coerce(value, p)
            if value == 0:
                continue
            if exps in clean:
                raise NotHomogeneous(f"duplicate monomial {exps}")
            clean[exps] = value
        self.coeffs = clean

    @classmethod
    def _result(cls, like: "Form", degree: int, coeffs: dict) -> "Form":
        # arithmetic on checked forms needs no re-validation: reduce mod p,
        # make integral values int and drop zeros
        form = object.__new__(cls)
        form.variables, form.degree, form.p = like.variables, degree, like.p
        p = like.p
        if p is None:
            form.coeffs = {e: v.numerator if v.denominator == 1 else v for e, v in coeffs.items() if v}
        else:
            form.coeffs = {e: r for e, v in coeffs.items() if (r := v % p)}
        return form

    @classmethod
    def zero(cls, variables, degree, p=None) -> "Form":
        return cls(variables, degree, {}, p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _compatible(self, other: "Form"):
        if self.variables != other.variables:
            raise WrongVariable(
                f"mixed variable sets {self.variables} and {other.variables}"
            )
        if self.p != other.p:
            raise BadPrime(f"mixed coefficient fields ({self.p} vs {other.p})")

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        # zero forms compare equal whatever their nominal degree
        return (
            self.variables == other.variables
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other: "Form") -> "Form":
        self._compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise NotHomogeneous(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        merged = dict(self.coeffs)
        for exps, value in other.coeffs.items():
            merged[exps] = merged.get(exps, 0) + value
        return Form._result(self, self.degree, merged)

    def __neg__(self) -> "Form":
        return Form._result(self, self.degree, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, other: "Form") -> "Form":
        self._compatible(other)
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + v1 * v2
        return Form._result(self, self.degree + other.degree, out)

    def scale(self, value) -> "Form":
        value = _coerce(value, self.p)
        return Form(
            self.variables,
            self.degree,
            {e: v * value for e, v in self.coeffs.items()},
            self.p,
        )

    def derivative(self, index: int) -> "Form":
        out = {}
        for exps, value in self.coeffs.items():
            e = exps[index]
            if e == 0:
                continue
            key = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[key] = out.get(key, 0) + e * value
        return Form._result(self, max(self.degree - 1, 0), out)

    def evaluate(self, point):
        if len(point) != len(self.variables):
            raise WrongVariable("point has wrong length")
        point = [_coerce(x, self.p) for x in point]
        total = Fraction(0) if self.p is None else 0
        for exps, value in self.coeffs.items():
            term = value
            for x, e in zip(point, exps):
                term = term * (x**e if self.p is None else pow(x, e, self.p))
            total = total + term
        return total if self.p is None else total % self.p

    def __str__(self):
        return serialize_form(self)

    def __repr__(self):
        field = "Q" if self.p is None else f"F{self.p}"
        return f"Form({serialize_form(self)!r}, degree={self.degree}, field={field})"


def embed_form(form: Form, variables) -> Form:
    """The same polynomial viewed in a larger variable set (matched by name)."""
    variables = tuple(variables)
    try:
        where = [variables.index(v) for v in form.variables]
    except ValueError:
        raise WrongVariable(
            f"{form.variables} is not contained in {variables}"
        ) from None
    out = {}
    for exps, value in form.coeffs.items():
        key = [0] * len(variables)
        for pos, e in zip(where, exps):
            key[pos] = e
        out[tuple(key)] = value
    return Form(variables, form.degree, out, form.p)


def serialize_form(form: Form) -> str:
    """Canonical text: terms in descending lexicographic exponent order."""
    if form.is_zero():
        return "0"
    parts = []
    for exps in sorted(form.coeffs, reverse=True):
        value = form.coeffs[exps]
        factors = []
        for name, e in zip(form.variables, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if form.p is None:
            negative = value < 0
            mag = -value if negative else value
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            parts.append(("-" if negative else "+") + "*".join(factors))
        else:
            if value != 1 or not factors:
                factors.insert(0, str(value))
            parts.append("+" + "*".join(factors))
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def parse_form(text: str, variables, p=None) -> Form:
    """Parse the textual form grammar.

    form   := [sign] term { sign term }
    term   := coeff | coeff ['*'] factors | factors
    factor := variable ['^' exponent], factors joined by optional '*'
    coeff  := integer ['/' integer]

    Whitespace is ignored.  Variables must come from the declared set;
    all terms must share one total degree.
    """
    if not isinstance(text, str):
        raise ParseError(f"a form is a text, got {text!r}")
    variables = tuple(variables)
    by_length = sorted(variables, key=len, reverse=True)
    pos = 0
    n = len(text)

    def ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg):
        raise ParseError(f"{msg} at position {pos}")

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            fail("expected an integer")
        return int(text[start:pos])

    def read_variable():
        nonlocal pos
        for name in by_length:
            if text.startswith(name, pos):
                pos += len(name)
                return name
        start = pos
        while pos < n and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        raise WrongVariable(
            f"unknown variable {text[start:pos]!r} (declared: {', '.join(variables)})"
        )

    def read_term(sign: int):
        nonlocal pos
        coeff = None
        exps = [0] * len(variables)
        ws()
        if pos < n and text[pos].isdigit():
            num = read_int()
            if pos < n and text[pos] == "/":
                pos += 1
                den = read_int()
                if den == 0:
                    fail("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
        seen_factor = False
        while True:
            ws()
            if pos < n and text[pos] == "*":
                pos += 1
                ws()
                if pos >= n or not (text[pos].isalpha() or text[pos] == "_"):
                    fail("expected a variable after '*'")
            if pos < n and (text[pos].isalpha() or text[pos] == "_"):
                name = read_variable()
                e = 1
                ws()
                if pos < n and text[pos] == "^":
                    pos += 1
                    ws()
                    e = read_int()
                exps[variables.index(name)] += e
                seen_factor = True
                continue
            break
        if coeff is None and not seen_factor:
            fail("expected a term")
        if coeff is None:
            coeff = Fraction(1)
        return tuple(exps), sign * coeff

    ws()
    if pos >= n:
        fail("empty input")
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
    raw = {}
    degree = None
    while True:
        exps, coeff = read_term(sign)
        term_degree = sum(exps)
        if degree is None:
            degree = term_degree
        elif degree != term_degree:
            raise NotHomogeneous(
                f"term of degree {term_degree} in a degree-{degree} expression"
            )
        raw[exps] = raw.get(exps, Fraction(0)) + coeff
        ws()
        if pos >= n:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            fail(f"unexpected character {text[pos]!r}")
        pos += 1
    return Form(variables, degree, raw, p)
