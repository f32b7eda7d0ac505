"""Command line front end.

Exit codes: 0 on success, 2 when an input violates a documented
precondition (including bad usage), 1 when an internal cross-check fails.
JSON output is an envelope {command, inputs, result, citations}; the
citations list states the mathematical claim each check relies on, so
logs are readable on their own.  repro output is deterministic:
bit-identical across runs.

A subcommand is one entry in the command table: the @command decorator on
its handler registers the group, the name, the CLAIMS key (or a repro
suite's citation list) and the argparse arguments, and both the parser and
the envelope's command and citations are built from that entry.  A handler
takes the parsed arguments and returns (inputs, result, human_lines).
"""

import argparse
import json
import sys

from . import detrep, discgroup, enumeration, forms, fourfold, lattice
from .errors import CubiclatError, InvariantViolation, ParseError, PreconditionError
from .lattice import _json_int_rows, _json_ints

CLAIMS = {
    "disc": "the discriminant is the exact integer determinant of the Gram matrix",
    "sig": "the signature comes from exact rational symmetric elimination",
    "even": "a lattice is even exactly when every diagonal Gram entry is even",
    "discgroup": "invariant factors of L*/L are read off the Smith normal form of the Gram matrix",
    "milgram": "sum over A of exp(pi*i*q(x)) = sqrt(|A|)*exp(2*pi*i*sigma/8) for non-degenerate q",
    "complement": "the orthogonal complement is the saturated kernel of pairing against the given classes",
    "index": "[L:L'] = sqrt(d(L')/d(L)) for a finite-index sublattice",
    "norm": "short-vector enumeration is complete (exact integer square-root bounds at every level)",
    "shortroots": "short roots are the norm-2 vectors of an even positive definite lattice",
    "longroots": "long roots are norm-6 vectors with all basis pairings divisible by 3",
    "isotropic": "a rank-2 even form [[2a,b],[b,2c]] represents zero iff b^2-4ac is a perfect square",
    "delta": "delta(t) = b(t, h2 - p) measures intersection parity with the residual quadric class",
    "oddelta": "delta is linear mod 2, so odd values exist iff one basis vector has odd delta",
    "trivrat": "a rank-3 marked lattice is trivially rational exactly when |disc| is odd",
    "formula": "det [[3,2,a],[2,4,c],[a,c,b]] = -4a^2+8b+4ca-3c^2, odd exactly when c is odd",
    "nsax": "|d(A)| = 4^(epsilon-1)*|d(NS)| transfers a surface discriminant upward",
    "family": "in the family [[2,d],[d,2c]], even d forces an even discriminant: never trivially rational",
    "mayanskiy": "six conditions on (A, a): a^2=3, even complement, no short roots, no long roots, parity, Milgram residue 0",
    "pfaffian": "a pfaffian-shaped sublattice requires a norm-10 class pairing to 4 with h2",
    "det": "the patterned determinant is homogeneous of degree size+2",
    "build": "Z_i*Z_j*L_ij + 2*Z_i*Q_i + H is a cubic containing the plane X0=X1=X2=0",
    "gram": "halving mixed coefficients recovers the symmetric quadric matrix (inverse of build)",
    "disccurve": "the discriminant curve is the determinant of the quadric bundle over the plane",
    "smooth": "the scan certifies smoothness of the reduction mod p only",
}

# frozen instances used by the repro suites
GRAM_DISC32 = [[3, 1, 4], [1, 3, 4], [4, 4, 12]]
GRAM_DISC36 = [[3, 1, 4], [1, 3, 2], [4, 2, 10]]

# demo matrix for the construction walk-through; chosen so that both the
# sextic curve and the cubic fourfold reduce smoothly mod 7
DEMO_MATRIX = {
    "size": 4,
    "field": "Q",
    "entries": [
        [
            "2*X0+X1",
            "-2*X2",
            "2*X1-X2",
            "X0^2-2*X0*X1-X0*X2-X1^2-2*X1*X2-2*X2^2",
        ],
        [
            "-2*X2",
            "2*X0-2*X1-2*X2",
            "-2*X0+X1-2*X2",
            "-X0^2+2*X0*X1-2*X0*X2+X1^2+X1*X2+X2^2",
        ],
        [
            "2*X1-X2",
            "-2*X0+X1-2*X2",
            "-2*X0+X1",
            "-2*X0^2-2*X1^2",
        ],
        [
            "X0^2-2*X0*X1-X0*X2-X1^2-2*X1*X2-2*X2^2",
            "-X0^2+2*X0*X1-2*X0*X2+X1^2+X1*X2+X2^2",
            "-2*X0^2-2*X1^2",
            "-X0^3+X0^2*X1+X0^2*X2-2*X0*X1^2-2*X0*X1*X2-2*X0*X2^2-X1^3-X1^2*X2-2*X1*X2^2+X2^3",
        ],
    ],
}


def _fail(msg: str):
    raise PreconditionError(msg)


# the input loaders every handler shares; outside input that is not what
# they expect ends in a PreconditionError (exit 2), never a TypeError


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON {what}: {exc}") from exc


def _read_input(args, flag: str, text: bool = False):
    """The primary input: inline --flag or --file, exactly one; JSON unless text."""
    inline = getattr(args, flag, None)
    path = args.file
    if (inline is None) == (path is None):
        _fail(f"provide exactly one of --{flag} or --file")
    if inline is None:
        try:
            with open(path) as fh:
                inline = fh.read()
        except (OSError, UnicodeError) as exc:
            raise PreconditionError(f"cannot read {path}: {exc}") from exc
        if text:
            inline = inline.strip()
    return inline if text else _parse_json(inline, "input")


def _json_arg(args, flag: str, what: str):
    raw = getattr(args, flag)
    if raw is None:
        _fail(f"--{flag} is required")
    return _parse_json(raw, what)


def _load_lattice(args) -> lattice.Lattice:
    data = _read_input(args, "gram")
    # bare rows stand for {"gram": rows}
    return lattice.Lattice.from_json(data if isinstance(data, dict) else {"gram": data})


def _load_marked(args) -> fourfold.MarkedFourfold:
    return fourfold.MarkedFourfold.from_json(_read_input(args, "marked"))


def _load_vector(args, flag: str) -> tuple:
    return _json_ints(_json_arg(args, flag, "vector"), f"--{flag}")


def _load_matrix(args) -> detrep.FormMatrix:
    return detrep.FormMatrix.from_json(_read_input(args, "matrix"))


def _load_form(args, flag: str, variables):
    """The form text (inline --flag or --file) and its parse over --field."""
    p = forms.parse_field(args.field)
    text = _read_input(args, flag, text=True)
    return text, forms.parse_form(text, variables, p)


GROUPS = {
    "lat": "lattice invariants",
    "enum": "vector enumeration",
    "fourfold": "marked lattice criteria",
    "detrep": "determinantal representations",
    "repro": "frozen verification suites",
}
COMMANDS = []  # (group, name, citations, arguments, handler) in parser order


def command(group: str, name: str, cite, *arguments):
    """Register the decorated handler as the subcommand `group name`."""

    def register(handler):
        citations = [CLAIMS[cite]] if isinstance(cite, str) else cite
        COMMANDS.append((group, name, citations, arguments, handler))
        return handler

    return register


def _arg(*flags, **options):
    return flags, options


COMMON = (
    _arg("--output", choices=("human", "json"), default="human", help="output mode"),
    _arg("--file", help="read the primary input from a JSON/text file"),
)
GRAM = _arg("--gram", help="inline Gram matrix as JSON")
MARKED = _arg("--marked", help="inline marked lattice as JSON")
MATRIX = _arg("--matrix", help="inline form matrix as JSON")
FIELD = _arg("--field", default="Q", help="Q or Fp:<p>")
PRIME = _arg("-p", type=int, required=True, help="prime to reduce at")
JSONL = _arg("--jsonl", action="store_true", help="stream one JSON vector per line instead of the envelope")


def _int_flag(name: str):
    return _arg(f"-{name}", f"--{name}", type=int, required=True)


@command("lat", "disc", "disc", GRAM)
def _lat_disc(args):
    lat = _load_lattice(args)
    d = lattice.discriminant(lat)
    return lat.to_json(), d, [str(d)]


@command("lat", "sig", "sig", GRAM)
def _lat_sig(args):
    lat = _load_lattice(args)
    sig = lattice.signature(lat)
    result = {"s_plus": sig.s_plus, "s_minus": sig.s_minus, "s_zero": sig.s_zero}
    return lat.to_json(), result, [f"signature (s+, s-, s0) = ({sig.s_plus}, {sig.s_minus}, {sig.s_zero})"]


@command("lat", "even", "even", GRAM)
def _lat_even(args):
    lat = _load_lattice(args)
    val = lattice.is_even(lat)
    return lat.to_json(), val, [str(val).lower()]


@command("lat", "discgroup", "discgroup", GRAM)
def _lat_discgroup(args):
    lat = _load_lattice(args)
    dg = discgroup.discriminant_group(lat).to_json()
    human = [f"invariant factors: {dg['orders']}", f"generators (rational coordinates): {dg['generators']}"]
    return lat.to_json(), dg, human


@command("lat", "milgram", "milgram", GRAM)
def _lat_milgram(args):
    lat = _load_lattice(args)
    form = discgroup.discriminant_form(lat)
    sigma = discgroup.milgram_signature(form)
    sig = lattice.signature(lat)
    if sigma != (sig.s_plus - sig.s_minus) % 8:
        raise InvariantViolation(f"Milgram residue {sigma} but signature {sig.s_plus} - {sig.s_minus}")
    result = {"residue": sigma, "orders": list(form.orders)}
    return lat.to_json(), result, [f"Milgram residue: {sigma} (group orders {list(form.orders)})"]


@command("lat", "complement", "complement", GRAM, _arg("--vectors", help="inline vectors as JSON"))
def _lat_complement(args):
    lat = _load_lattice(args)
    vectors = _json_int_rows(_json_arg(args, "vectors", "vectors"), "--vectors", "vectors")
    basis, comp = lattice.orthogonal_complement(lat, vectors)
    result = {"basis": [list(v) for v in basis], "gram": [list(r) for r in comp.gram]}
    inputs = {"gram": lat.to_json()["gram"], "vectors": vectors}
    return inputs, result, [f"basis: {result['basis']}", f"gram: {result['gram']}"]


@command("lat", "index", "index", GRAM, _arg("--basis", help="inline basis as JSON"))
def _lat_index(args):
    lat = _load_lattice(args)
    basis = _json_int_rows(_json_arg(args, "basis", "basis"), "--basis", "vectors")
    idx = lattice.sublattice_index(lat, basis)
    return {"gram": lat.to_json()["gram"], "basis": basis}, idx, [str(idx)]


def _vector_list(inputs, vecs):
    human = [f"{len(vecs)} vector(s)"] + [" ".join(str(x) for x in v) for v in vecs]
    return inputs, [list(v) for v in vecs], human


@command("enum", "norm", "norm", GRAM, _arg("--norm", type=int, required=True, help="target norm"), JSONL)
def _enum_norm(args):
    lat = _load_lattice(args)
    vecs = enumeration.vectors_of_norm(lat, args.norm)
    return _vector_list({**lat.to_json(), "norm": args.norm}, vecs)


@command("enum", "shortroots", "shortroots", GRAM, JSONL)
def _enum_shortroots(args):
    lat = _load_lattice(args)
    return _vector_list(lat.to_json(), enumeration.short_roots(lat))


@command("enum", "longroots", "longroots", GRAM, JSONL)
def _enum_longroots(args):
    lat = _load_lattice(args)
    return _vector_list(lat.to_json(), enumeration.long_roots(lat))


@command("enum", "isotropic", "isotropic", GRAM)
def _enum_isotropic(args):
    lat = _load_lattice(args)
    exists, witness = enumeration.isotropic_exists(lat)
    result = {"exists": exists, "witness": list(witness) if witness else None}
    human = [f"isotropic vector exists: {str(exists).lower()}"]
    if witness:
        human.append(f"witness: {list(witness)}")
    return lat.to_json(), result, human


@command("fourfold", "delta", "delta", MARKED, _arg("--t", help="class to evaluate, inline JSON"))
def _ff_delta(args):
    marked = _load_marked(args)
    t = _load_vector(args, "t")
    val = fourfold.delta(marked, t)
    return {**marked.to_json(), "t": list(t)}, val, [str(val)]


@command("fourfold", "oddelta", "oddelta", MARKED)
def _ff_oddelta(args):
    marked = _load_marked(args)
    val = fourfold.exists_odd_delta(marked)
    return marked.to_json(), val, [str(val).lower()]


@command("fourfold", "trivrat", "trivrat", MARKED)
def _ff_trivrat(args):
    marked = _load_marked(args)
    val = fourfold.is_trivially_rational_rank3(marked)
    return marked.to_json(), val, [str(val).lower()]


@command("fourfold", "pfaffian", "pfaffian", MARKED)
def _ff_pfaffian(args):
    marked = _load_marked(args)
    scan = fourfold.pfaffian_obstruction(marked)
    human = [f"obstructed: {str(scan.obstructed).lower()}"]
    for cand in scan.candidates:
        human.append(
            f"candidate {list(cand.vector)}: b(t,h2) = {cand.pair_h2}, "
            f"b(t,p) = {cand.pair_p}"
            + (" [pfaffian pairing]" if cand.pairs_like_pfaffian else "")
        )
    return marked.to_json(), scan.to_json(), human


@command("fourfold", "formula", "formula", _int_flag("a"), _int_flag("b"), _int_flag("c"))
def _ff_formula(args):
    det = fourfold.rk2_discriminant_formula(args.a, args.b, args.c)
    result = {"det": det, "det_odd": det % 2 != 0, "c_odd": args.c % 2 != 0}
    inputs = {"a": args.a, "b": args.b, "c": args.c}
    return inputs, result, [f"det = {det} ({'odd' if det % 2 else 'even'})"]


@command(
    "fourfold",
    "nsax",
    "nsax",
    _arg("--dns", type=int, required=True, help="surface lattice discriminant"),
    _arg("--epsilon", type=int, required=True, help="1 or 2"),
)
def _ff_nsax(args):
    val = fourfold.ns_to_ax_disc(args.dns, args.epsilon)
    return {"dns": args.dns, "epsilon": args.epsilon}, val, [str(val)]


@command("fourfold", "family", "family", _int_flag("d"), _int_flag("c"))
def _ff_family(args):
    params = fourfold.FamilyParams(args.d, args.c)
    lat = fourfold.build_family_lattice(params)
    cls = fourfold.classify_family(params)
    result = {
        "gram": [list(r) for r in lat.gram],
        "classification": cls.value,
        "disc": lattice.discriminant(lat),
    }
    return {"d": args.d, "c": args.c}, result, [f"gram: {result['gram']}", f"classification: {cls.value}"]


@command(
    "fourfold",
    "mayanskiy",
    "mayanskiy",
    GRAM,
    _arg("--a", help="square-3 class, inline JSON"),
    _arg("--long-root-variant", choices=fourfold.LONG_ROOT_VARIANTS, default="against-A0"),
)
def _ff_mayanskiy(args):
    lat = _load_lattice(args)
    a = _load_vector(args, "a")
    report = fourfold.mayanskiy_check(lat, a, args.long_root_variant)
    human = [
        f"condition {c.index} ({c.label}): {'PASS' if c.passed else 'FAIL'} [{c.detail}]"
        for c in report.conditions
    ]
    human.append(f"all conditions pass: {str(report.all_pass).lower()}")
    inputs = {"gram": lat.to_json()["gram"], "a": list(a), "variant": args.long_root_variant}
    return inputs, report.to_json(), human


@command("detrep", "det", "det", MATRIX)
def _det(args):
    m = _load_matrix(args)
    text = forms.serialize_form(detrep.det_form_matrix(m))
    return m.to_json(), text, [text]


@command("detrep", "build", "build", MATRIX)
def _build(args):
    m = _load_matrix(args)
    text = forms.serialize_form(detrep.build_cubic(m))
    return m.to_json(), text, [text]


@command(
    "detrep", "gram", "gram", _arg("--cubic", help="cubic form text in the six ambient variables"), FIELD
)
def _gram(args):
    text, cubic = _load_form(args, "cubic", forms.AMBIENT_VARS)
    m = detrep.quadric_gram(cubic)
    return {"cubic": text, "field": m.field_label()}, m.to_json(), [json.dumps(m.to_json())]


@command(
    "detrep", "disccurve", "disccurve", MATRIX, _arg("--cubic", help="cubic form text (alternative input)"), FIELD
)
def _disccurve(args):
    if args.matrix is not None or (args.file and args.cubic is None):
        m = _load_matrix(args)
        cubic = detrep.build_cubic(m)
        inputs = m.to_json()
    else:
        text, cubic = _load_form(args, "cubic", forms.AMBIENT_VARS)
        inputs = {"cubic": text}
    text_out = forms.serialize_form(detrep.discriminant_curve(cubic))
    return inputs, text_out, [text_out]


def _scan_lines(res, p):
    human = [f"smooth mod {p}: {str(res.smooth_mod_p).lower()}"]
    if res.witness:
        human.append(f"singular witness: {list(res.witness)}")
    return human


@command("detrep", "smoothcurve", "smooth", _arg("--form", help="plane form text"), FIELD, PRIME)
def _smoothcurve(args):
    text, form = _load_form(args, "form", forms.PLANE_VARS)
    res = detrep.smooth_plane_curve_fp(form, args.p)
    return {"form": text, "p": args.p}, res.to_json(), _scan_lines(res, args.p)


@command("detrep", "smoothfourfold", "smooth", _arg("--cubic", help="cubic form text"), FIELD, PRIME)
def _smoothfourfold(args):
    text, cubic = _load_form(args, "cubic", forms.AMBIENT_VARS)
    res = detrep.smooth_fourfold_fp(cubic, args.p)
    return {"cubic": text, "p": args.p}, res.to_json(), _scan_lines(res, args.p)


def _check(name, passed, detail):
    return {"check": name, "passed": bool(passed), "detail": detail}


def _suite(inputs, head, checks, **tail):
    """A repro suite's (inputs, result, human): one PASS/FAIL line per check."""
    all_pass = all(c["passed"] for c in checks)
    human = [f"{'PASS' if c['passed'] else 'FAIL'}: {c['check']} ({c['detail']})" for c in checks]
    human.append(f"all checks pass: {str(all_pass).lower()}")
    return inputs, {**head, "checks": checks, "all_pass": all_pass, **tail}, human


@command(
    "repro",
    "exe",
    [
        "the rank-3 lattice [[3,1,4],[1,3,4],[4,4,12]] has discriminant 32",
        "its discriminant group has invariant factors (4, 8)",
        "the twisted form on the discriminant group has Milgram residue 0 mod 8",
        "the complement of the square-3 class is even with no short or long roots",
        "no norm-10 class exists, so no pfaffian-shaped sublattice can be marked",
        "even discriminant: the marked lattice is not trivially rational",
    ],
)
def _repro_exe(args):
    lat = lattice.Lattice(tuple(tuple(r) for r in GRAM_DISC32))
    a = (1, 0, 0)
    checks = []
    d = lattice.discriminant(lat)
    checks.append(_check("discriminant is 32", d == 32, f"disc = {d}"))
    basis, comp = lattice.orthogonal_complement(lat, [a])
    checks.append(
        _check(
            "complement of a is even of determinant 96",
            lattice.is_even(comp) and lattice.discriminant(comp) == 96,
            f"gram = {[list(r) for r in comp.gram]} on basis {[list(v) for v in basis]}",
        )
    )
    dg = discgroup.discriminant_group(lat)
    checks.append(
        _check(
            "discriminant group is Z/4 x Z/8",
            dg.orders == (4, 8),
            f"invariant factors {list(dg.orders)}",
        )
    )
    reports = {}
    for variant in fourfold.LONG_ROOT_VARIANTS:
        rep = fourfold.mayanskiy_check(lat, a, variant)
        reports[variant] = rep
        checks.append(
            _check(
                f"all six conditions pass ({variant})",
                rep.all_pass,
                "; ".join(
                    f"{c.index}:{'PASS' if c.passed else 'FAIL'}" for c in rep.conditions
                ),
            )
        )
    form = discgroup.mayanskiy_q(lat, a)
    sigma = discgroup.milgram_signature(form)
    checks.append(_check("Milgram residue is 0", sigma == 0, f"residue {sigma}"))
    ten = enumeration.vectors_of_norm(lat, 10)
    checks.append(
        _check("no norm-10 vectors: pfaffian shape obstructed", not ten, f"{len(ten)} found")
    )
    marked = fourfold.MarkedFourfold(lat, (1, 0, 0), (0, 1, 0))
    triv = fourfold.is_trivially_rational_rank3(marked)
    checks.append(
        _check("even discriminant: not trivially rational", triv is False, f"trivially rational = {triv}")
    )
    inputs = {"gram": GRAM_DISC32, "a": list(a)}
    return _suite(inputs, inputs, checks, mayanskiy={v: r.to_json() for v, r in reports.items()})


@command(
    "repro",
    "p369",
    [
        "the rank-3 lattice [[3,1,4],[1,3,2],[4,2,10]] has discriminant 36",
        "a surface lattice of discriminant -9 transfers to 36 at epsilon = 2",
        "the rank-2 form [[0,3],[3,2t]] represents zero for every t",
        "no class in the standard basis has odd delta, so trivial rationality is not detected",
        "the norm-10 class (0,0,1) pairs (4,2) with (h2,p): the pfaffian-shaped sublattice exists",
    ],
)
def _repro_p369(args):
    lat = lattice.Lattice(tuple(tuple(r) for r in GRAM_DISC36))
    checks = []
    d = lattice.discriminant(lat)
    checks.append(_check("discriminant is 36", d == 36, f"disc = {d}"))
    transfer = fourfold.ns_to_ax_disc(-9, 2)
    checks.append(
        _check(
            "4^(2-1) * |-9| = 36 matches",
            transfer == 36 == d,
            f"ns_to_ax_disc(-9, 2) = {transfer}",
        )
    )
    iso_all = []
    for t in range(-3, 4):
        surf = lattice.Lattice(((0, 3), (3, 2 * t)))
        exists, witness = enumeration.isotropic_exists(surf)
        iso_all.append({"t": t, "exists": exists, "witness": list(witness)})
    checks.append(
        _check(
            "[[0,3],[3,2t]] represents zero for t in -3..3",
            all(e["exists"] for e in iso_all),
            f"witnesses {[e['witness'] for e in iso_all]}",
        )
    )
    marked = fourfold.MarkedFourfold(lat, (1, 0, 0), (0, 1, 0))
    odd = fourfold.exists_odd_delta(marked)
    checks.append(_check("no basis class has odd delta", odd is False, f"exists_odd_delta = {odd}"))
    triv = fourfold.is_trivially_rational_rank3(marked)
    checks.append(
        _check("even discriminant: not trivially rational", triv is False, f"trivially rational = {triv}")
    )
    scan = fourfold.pfaffian_obstruction(marked)
    wanted = next(
        (c for c in scan.candidates if c.vector == (0, 0, 1)), None
    )
    checks.append(
        _check(
            "norm-10 candidate (0,0,1) pairs (4,2) with (h2,p)",
            wanted is not None and wanted.pair_h2 == 4 and wanted.pair_p == 2,
            f"candidates {[list(c.vector) for c in scan.candidates]}",
        )
    )
    reports = {
        variant: fourfold.mayanskiy_check(lat, (1, 0, 0), variant)
        for variant in fourfold.LONG_ROOT_VARIANTS
    }
    inputs = {"gram": GRAM_DISC36}
    return _suite(
        inputs,
        inputs,
        checks,
        isotropic=iso_all,
        pfaffian=scan.to_json(),
        mayanskiy={v: r.to_json() for v, r in reports.items()},
    )


@command(
    "repro",
    "mainteo",
    [
        "the family [[2,d],[d,2c]] with d nonzero and 4c-d^2 < 0 is even of signature (1,1)",
        "even d forces an even discriminant, hence never trivially rational; odd d stays undetermined",
        "a symmetric matrix of linear/quadratic/cubic forms with plane entries produces a plane-containing cubic whose quadric matrix round-trips",
        "the sextic discriminant curve of the quadric bundle equals the matrix determinant",
    ],
)
def _repro_mainteo(args):
    ok_even = ok_sig = ok_parity = ok_class = True
    count = 0
    for d in range(-10, 11):
        if d == 0:
            continue
        for c in range(-10, 11):
            if 4 * c - d * d >= 0:
                continue
            count += 1
            params = fourfold.FamilyParams(d, c)
            lat = fourfold.build_family_lattice(params)
            sig = lattice.signature(lat)
            cls = fourfold.classify_family(params)
            disc = lattice.discriminant(lat)
            ok_even = ok_even and lattice.is_even(lat)
            ok_sig = ok_sig and sig == (1, 1, 0)
            ok_parity = ok_parity and (disc % 2 == 0) == (d % 2 == 0)
            ok_class = ok_class and (
                (cls is fourfold.FamilyClass.NOT_TRIVIALLY_RATIONAL) == (d % 2 == 0)
            )
    checks = [
        _check("every family member is even", ok_even, f"{count} members"),
        _check("every family member has signature (1,1)", ok_sig, f"{count} members"),
        _check("disc parity follows d parity", ok_parity, f"{count} members"),
        _check("classification triggers exactly for even d", ok_class, f"{count} members"),
    ]
    m = detrep.FormMatrix.from_json(DEMO_MATRIX)
    cubic = detrep.build_cubic(m)
    round_trip = detrep.quadric_gram(cubic)
    det = detrep.det_form_matrix(m)
    curve = detrep.discriminant_curve(cubic)
    checks.append(
        _check("cubic contains the plane", detrep.contains_plane(cubic), forms.serialize_form(cubic))
    )
    checks.append(_check("quadric matrix round-trips", round_trip == m, "gram(build(M)) == M"))
    checks.append(
        _check(
            "discriminant curve equals det of the matrix",
            curve == det,
            forms.serialize_form(det),
        )
    )

    def scanned(scan):
        return f"scanned {scan.points_scanned} points" + (
            f", witness {list(scan.witness)}" if scan.witness else ""
        )

    curve_scan = detrep.smooth_plane_curve_fp(det, 7)
    fourfold_scan = detrep.smooth_fourfold_fp(cubic, 7)
    checks.append(_check("sextic curve smooth mod 7", curve_scan.smooth_mod_p, scanned(curve_scan)))
    checks.append(_check("cubic fourfold smooth mod 7", fourfold_scan.smooth_mod_p, scanned(fourfold_scan)))
    return _suite(
        {"range": "1 <= |d| <= 10, |c| <= 10"},
        {"family_members": count},
        checks,
        demo_matrix=DEMO_MATRIX,
        demo_cubic=forms.serialize_form(cubic),
        demo_sextic=forms.serialize_form(det),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubiclat",
        description="exact lattice and determinantal computations for cubic fourfolds containing a plane",
    )
    top = parser.add_subparsers(dest="group")
    common = argparse.ArgumentParser(add_help=False)
    for flags, options in COMMON:
        common.add_argument(*flags, **options)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="cmd")
        for group, text in GROUPS.items()
    }
    for group, name, citations, arguments, handler in COMMANDS:
        sub = groups[group].add_parser(name, parents=[common])
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(handler=handler, command=f"{group} {name}", citations=citations)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        inputs, result, human = args.handler(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubiclatError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "jsonl", False):
        for item in result:
            print(json.dumps(item))
        return 0
    if args.output == "json":
        envelope = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "citations": args.citations,
        }
        print(json.dumps(envelope, indent=2))
    else:
        for line in human:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
