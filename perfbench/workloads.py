"""The four workloads: seeded inputs, the op each one times, and its checks.

Every workload turns a seed into a fixed, shuffled list of ops that the
runner times in repeated passes.  The mix of op kinds is the same for
every seed and is chosen so that the median and the p90 fall inside
blocks of ops of one kind.  An op's ``run`` calls the library only
through module attributes looked up at call time, so that the tracer's
rebinding reaches every call.  Its ``check`` validates the output against
an oracle that does not use the library.
"""

import itertools
import json
import re
import subprocess
import sys
from typing import Callable, NamedTuple

H2, PLANE = (1, 0, 0), (0, 1, 0)
SQUARE3 = (1, 0, 0)


class CheckFailed(Exception):
    pass


class Op(NamedTuple):
    kind: str
    run: Callable
    check: Callable


class Plan(NamedTuple):
    ops: list
    warmup: list
    final_check: Callable | None = None


class Workload(NamedTuple):
    name: str
    op: str
    why: str
    layers: tuple
    build: Callable
    reference: str  # the reference task that timings are scaled by
    in_process: bool = True


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# -- integer helpers shared by generators and checks ---------------------------


def det_int(m):
    """Leibniz expansion; fine for the 3x3 to 5x5 matrices used here."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
            if not term:
                break
        total += term
    return total


def positive_definite(g):
    return all(det_int([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def norm(gram, v):
    n = len(v)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def gram_times(gram, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in gram)


def check_representatives(vecs, gram, n, count):
    expect(len(vecs) == count, f"{len(vecs)} vectors of norm {n}, expected {count}")
    expect(all(a < b for a, b in zip(vecs, vecs[1:])), "vector list is not strictly sorted")
    for v in vecs:
        expect(next(x for x in v if x) > 0, f"{v} has a negative leading coordinate")
        expect(norm(gram, v) == n, f"{v} does not have norm {n}")


def skewed(gram, rng, steps):
    """U^T G U for a seeded unimodular U built from elementary row operations."""
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        for c in range(n):
            u[i][c] += k * u[j][c]
    ug = [[sum(u[k][i] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(ug[i][k] * u[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def e8_gram():
    """Cartan matrix of E8, Bourbaki numbering."""
    g = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for a, b in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
        g[a - 1][b - 1] = g[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in g)


def block_sum(a, b):
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i]) + (0,) * nb if i < na else (0,) * na + tuple(b[i - na])
        for i in range(na + nb)
    )


def random_candidate(rng, gauss_sum=None):
    """A positive definite [[3,1,a],[1,3,b],[a,b,c]]; |disc| from tens to ~4000.

    Condition 5 holds exactly when a and c have the same parity; only then
    does mayanskiy_check evaluate the Gauss sum.  `gauss_sum` forces it
    either way.
    """
    while True:
        a, b, c = rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(5, 500)
        if gauss_sum is not None and ((a - c) % 2 == 0) != gauss_sum:
            c += 1
        g = ((3, 1, a), (1, 3, b), (a, b, c))
        if positive_definite(g):
            return g


# -- polynomials as {exponents: coefficient} dicts ------------------------------


def monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


def random_poly(rng, degree, p, nvars=3):
    """A dense form: every monomial gets a nonzero coefficient, so the
    number of terms, and with it the cost of a scan, does not vary by seed."""
    if p is None:
        return {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in monomials(nvars, degree)}
    return {e: rng.randrange(1, p) for e in monomials(nvars, degree)}


def poly_text(coeffs, names):
    if not coeffs:
        return "0"
    parts = []
    for exps, c in sorted(coeffs.items(), reverse=True):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        parts.append(("-" if c < 0 else "+") + (f"{abs(c)}*{mono}" if mono else str(abs(c))))
    return "".join(parts).lstrip("+")


def poly_eval(coeffs, point, p):
    total = 0
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(point, exps):
            term *= x**e
        total += term
    return total % p if p is not None else total


def poly_diff(coeffs, k):
    out = {}
    for exps, c in coeffs.items():
        if exps[k]:
            key = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
            out[key] = out.get(key, 0) + c * exps[k]
    return out


def poly_equal(form_coeffs, coeffs, p):
    want = {e: (c % p if p is not None else c) for e, c in coeffs.items()}
    return dict(form_coeffs) == {e: c for e, c in want.items() if c}


def random_form_matrix(rng, size, p):
    """Symmetric plane-form matrix: linear block, quadratic border, cubic corner."""
    m = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            degree = 3 if i == j == size - 1 else 2 if j == size - 1 else 1
            m[i][j] = m[j][i] = random_poly(rng, degree, p)
    return m


def matrix_json(m, p):
    return {
        "size": len(m),
        "field": "Q" if p is None else f"Fp:{p}",
        "entries": [[poly_text(f, ("X0", "X1", "X2")) for f in row] for row in m],
    }


def cubic_of(m):
    """sum Z_i Z_j L_ij + 2 sum Z_i Q_i + H in (Z1,Z2,Z3,X0,X1,X2), built directly."""
    out = {}

    def add(z, poly, scale):
        for e, c in poly.items():
            key = tuple(z) + e
            out[key] = out.get(key, 0) + scale * c

    for i in range(3):
        for j in range(3):
            z = [0, 0, 0]
            z[i] += 1
            z[j] += 1
            add(z, m[i][j], 1)
        add([int(k == i) for k in range(3)], m[i][3], 2)
    add([0, 0, 0], m[3][3], 1)
    return {e: c for e, c in out.items() if c}


def check_det_at_point(det_coeffs, m, p, point):
    """det(M)(x) computed as the determinant of the evaluated matrix."""
    values = [[poly_eval(f, point, p) for f in row] for row in m]
    want = det_int(values)
    got = poly_eval(det_coeffs, point, p)
    if p is not None:
        want %= p
    expect(got == want, f"det at {point}: {got} != {want}")


def check_scan(scan, coeffs, p, nvars):
    total = (p**nvars - 1) // (p - 1)
    if scan.smooth_mod_p:
        expect(scan.witness is None, "smooth scan returned a witness")
        expect(scan.points_scanned == total, f"full scan counted {scan.points_scanned}, not {total}")
        return
    w = scan.witness
    expect(w is not None and 1 <= scan.points_scanned <= total, "bad singular scan result")
    reduced = {e: c % p for e, c in coeffs.items()}
    expect(poly_eval(reduced, w, p) == 0, f"witness {w} is not on the form mod {p}")
    for k in range(nvars):
        expect(poly_eval(poly_diff(reduced, k), w, p) == 0, f"witness {w}: partial {k} != 0")


# -- screen --------------------------------------------------------------------

# Two thirds of the candidates reach the Gauss sum and one third stop at
# condition 5, so the median falls among the Gauss-sum candidates instead
# of on the edge between the two kinds.
SCREEN_OPS = 800


def build_screen(lib, rng, ctx):
    ff = lib.fourfold
    pool = [random_candidate(rng, gauss_sum=i % 3 != 0) for i in range(SCREEN_OPS)]
    rng.shuffle(pool)

    def op(gram):
        def run():
            lat = lib.lattice.Lattice(gram)
            marked = ff.MarkedFourfold(lat, H2, PLANE)
            reports = tuple(ff.mayanskiy_check(lat, SQUARE3, v) for v in ff.LONG_ROOT_VARIANTS)
            return (
                reports,
                ff.pfaffian_obstruction(marked),
                ff.exists_odd_delta(marked),
                ff.is_trivially_rational_rank3(marked),
            )

        kind = "gauss-sum" if (gram[0][2] - gram[2][2]) % 2 == 0 else "no-gauss-sum"
        return Op(kind, run, lambda out: check_screen(gram, ff.LONG_ROOT_VARIANTS, out))

    ops = [op(g) for g in pool]
    sample = rng.sample(pool, 6)
    return Plan(ops, ops[:30], lambda: check_screen_oracles(lib, ctx, sample))


def check_screen(gram, variants, out):
    reports, scan, odd, trivial = out
    for report, variant in zip(reports, variants):
        expect(report.variant == variant, "report variant mismatch")
        expect([c.index for c in report.conditions] == [1, 2, 3, 4, 5, 6], "conditions 1-6")
        expect(report.conditions[0].passed, "b(a,a) = 3 holds for every candidate")
    vecs = [c.vector for c in scan.candidates]
    check_representatives(vecs, gram, 10, len(vecs))
    expect(scan.obstructed == (not vecs), "obstructed flag disagrees with the candidates")
    for cand in scan.candidates:
        gv = gram_times(gram, cand.vector)
        expect((cand.pair_h2, cand.pair_p) == gv[:2], "candidate pairings")
    # delta(e_i) = g[i][0] - g[i][1]: only e_2 can be odd, with parity of a - b
    expect(odd == ((gram[2][0] - gram[2][1]) % 2 == 1), "exists_odd_delta")
    expect(trivial == (det_int(gram) % 2 == 1), "is_trivially_rational_rank3")


def _found(detail):
    m = re.match(r"(\d+) found", detail)
    return int(m.group(1)) if m else 0


def check_screen_oracles(lib, ctx, sample):
    """Recompute a seeded sample with the box-search and direct-Gauss-sum oracles."""
    oracles = ctx["oracles"]
    for gram in sample:
        lat = lib.lattice.Lattice(gram)
        a0_basis = ((1, -3, 0), (0, -gram[0][2], 1))  # kernel of b(., a) = 3x + y + a z
        norm2 = [v for v in oracles.box_vectors_of_norm(lat, 2) if gram_times(gram, v)[0] == 0]
        norm6 = [v for v in oracles.box_vectors_of_norm(lat, 6) if gram_times(gram, v)[0] == 0]
        for variant in lib.fourfold.LONG_ROOT_VARIANTS:
            report = lib.fourfold.mayanskiy_check(lat, SQUARE3, variant)
            c = {cond.index: cond for cond in report.conditions}
            expect(_found(c[3].detail) == len(norm2), f"{gram}: norm-2 count in A0")
            against = a0_basis if variant == "against-A0" else ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            hits = [
                v for v in norm6 if all(norm_pair(gram, v, w) % 3 == 0 for w in against)
            ]
            expect(_found(c[4].detail) == len(hits), f"{gram}: long roots ({variant})")
            parity = all((gram[0][i] ** 2 - gram[i][i]) % 2 == 0 for i in range(3))
            expect(c[5].passed == parity, f"{gram}: condition 5")
            residue = re.search(r"residue (\d+) mod 8", c[6].detail)
            if residue:
                sigma = oracles.milgram_direct(lib.discgroup.mayanskiy_q(lat, SQUARE3))
                expect(int(residue.group(1)) == sigma, f"{gram}: Milgram residue")
        marked = lib.fourfold.MarkedFourfold(lat, H2, PLANE)
        got = [cand.vector for cand in lib.fourfold.pfaffian_obstruction(marked).candidates]
        expect(got == oracles.box_vectors_of_norm(lat, 10), f"{gram}: norm-10 classes")


def norm_pair(gram, v, w):
    return sum(x * y for x, y in zip(gram_times(gram, v), w))


# -- deep_enum -----------------------------------------------------------------

E8_COUNTS = {2: 120, 4: 1080, 6: 3360, 8: 8760}  # theta series of E8, halved
SKEW_STEPS = 4


def build_deep_enum(lib, rng, ctx):
    e8 = e8_gram()
    # the p90 falls in the norm-4 block, the median in the norm-2 block
    items = [(e8, 8), (e8, 6)] + [(e8, 4)] * 3 + [(block_sum(e8, e8), 2)] * 2 + [(e8, 2)] * 20
    items += [(skewed(e8, rng, SKEW_STEPS), 2) for _ in range(13)]
    rng.shuffle(items)

    def op(gram, n):
        count = E8_COUNTS[n] * (len(gram) // 8)  # E8+E8 has twice the roots of E8 at norm 2

        def run():
            return lib.enumeration.vectors_of_norm(lib.lattice.Lattice(gram), n)

        kind = f"norm{n}-rank{len(gram)}" + ("-skewed" if gram != e8 and len(gram) == 8 else "")
        return Op(kind, run, lambda vecs: check_representatives(vecs, gram, n, count))

    ops = [op(*item) for item in items]
    return Plan(ops, [op(e8, 2), op(e8, 4), op(skewed(e8, rng, SKEW_STEPS), 2)])


# -- detrep --------------------------------------------------------------------

# (size, field prime or None, curve prime, fourfold prime), listed from the
# heaviest kind down: the p90 falls among the 211 scans, the median among
# the 53 scans
DETREP_MIX = (
    [(4, None, 211, 7)] * 3
    + [(5, None, 41, None)] * 2
    + [(4, None, 53, 5)] * 6
    + [(4, None, 31, 3), (4, None, 13, 3)]
    + [(4, p, p, p) for p in (3, 5, 7)]
) * 2


def build_detrep(lib, rng, ctx):
    dr = lib.detrep

    def op(size, p, pc, pf):
        m = random_form_matrix(rng, size, p)
        doc = matrix_json(m, p)
        point = tuple(rng.randint(-5, 5) for _ in range(3))

        def run():
            fm = dr.FormMatrix.from_json(doc)
            det = dr.det_form_matrix(fm)
            if size != 4:
                return fm, det, dr.smooth_plane_curve_fp(det, pc)
            cubic = dr.build_cubic(fm)
            return (
                fm,
                det,
                dr.smooth_plane_curve_fp(det, pc),
                cubic,
                dr.quadric_gram(cubic),
                dr.discriminant_curve(cubic),
                dr.smooth_fourfold_fp(cubic, pf),
            )

        def check(out):
            det, curve_scan = out[1], out[2]
            expect(det.degree == size + 2 or not det.coeffs, "determinant degree")
            check_det_at_point(det.coeffs, m, p, point)
            check_scan(curve_scan, det.coeffs, pc, 3)
            if size != 4:
                return
            cubic, back, curve, ff_scan = out[3:]
            own = cubic_of(m)
            expect(poly_equal(cubic.coeffs, own, p), "build_cubic")
            for i in range(4):
                for j in range(4):
                    expect(poly_equal(back.entries[i][j].coeffs, m[i][j], p), "round trip")
            expect(curve.coeffs == det.coeffs, "discriminant_curve != det_form_matrix")
            check_scan(ff_scan, own, pf, 6)

        label = f"size{size}-{'Q' if p is None else f'F{p}'}-curve{pc}"
        return Op(label, run, check)

    ops = [op(*item) for item in DETREP_MIX]
    rng.shuffle(ops)
    return Plan(ops, [op(4, None, 13, 3), op(4, 5, 5, 5), op(5, None, 13, None)])


# -- cli -----------------------------------------------------------------------

CLI_ROUNDS = 2  # `repro mainteo`, the heaviest command, runs twice a round
CLI_TIMEOUT_S = 30.0


def cli_envelope(proc, command):
    expect(proc.returncode == 0, f"{command}: exit code {proc.returncode}: {proc.stderr[-300:]}")
    try:
        env = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{command}: output is not JSON ({exc})") from None
    expect(env.get("command") == command, f"envelope command {env.get('command')!r}")
    return env["result"]


def build_cli(lib, rng, ctx):
    python, env, cwd = sys.executable, ctx["child_env"], ctx["root"]

    def op(args, check):
        command = " ".join(args[:2])
        argv = [python, "-m", "cubiclat", *args, "--output", "json"]

        def run():
            return subprocess.run(
                argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
            )

        return Op(command, run, lambda proc: check(cli_envelope(proc, command)))

    def all_pass(result):
        expect(result["all_pass"] is True, "all_pass is not true")

    def round_of_commands():
        cand = random_candidate(rng)
        even = random_even_posdef(rng)
        e8s = skewed(e8_gram(), rng, SKEW_STEPS)
        m = random_form_matrix(rng, 4, None)
        curve = random_poly(rng, 4, None)
        pc = rng.choice((23, 29, 31, 37))
        gram_arg = lambda g: json.dumps([list(r) for r in g])
        marked = json.dumps({"gram": [list(r) for r in cand], "h2": list(H2), "p": list(PLANE)})

        def pfaffian(res):
            vecs = [tuple(c["vector"]) for c in res["candidates"]]
            check_representatives(vecs, cand, 10, len(vecs))
            expect(res["obstructed"] == (not vecs), "obstructed flag")

        def mayanskiy(res):
            expect([c["index"] for c in res["conditions"]] == [1, 2, 3, 4, 5, 6], "conditions")
            expect(res["conditions"][0]["passed"], "condition 1")

        def smoothcurve(res):
            scan = ScanView(res["smooth_mod_p"], res["witness"], res["points_scanned"])
            check_scan(scan, curve, pc, 3)

        return [
            op(["repro", "exe"], all_pass),
            op(["repro", "p369"], all_pass),
            op(["repro", "mainteo"], all_pass),
            op(["repro", "mainteo"], all_pass),
            op(["lat", "disc", "--gram", gram_arg(cand)], lambda r: expect(r == det_int(cand), "disc")),
            # Milgram: an even positive definite lattice has residue rank mod 8
            op(
                ["lat", "milgram", "--gram", gram_arg(even)],
                lambda r: expect(r["residue"] == len(even) % 8, "Milgram residue"),
            ),
            op(
                ["enum", "norm", "--gram", gram_arg(e8s), "--norm", "2"],
                lambda r: check_representatives([tuple(v) for v in r], e8s, 2, 120),
            ),
            op(["fourfold", "mayanskiy", "--gram", gram_arg(cand), "--a", "[1,0,0]"], mayanskiy),
            op(["fourfold", "pfaffian", "--marked", marked], pfaffian),
            op(
                ["detrep", "det", "--matrix", json.dumps(matrix_json(m, None))],
                lambda r: expect(isinstance(r, str) and r != "0", "determinant text"),
            ),
            op(
                ["detrep", "smoothcurve", "--form=" + poly_text(curve, ("X0", "X1", "X2")), "-p", str(pc)],
                smoothcurve,
            ),
        ]

    ops = [op for _ in range(CLI_ROUNDS) for op in round_of_commands()]
    rng.shuffle(ops)
    return Plan(ops, ops[:3])


class ScanView(NamedTuple):
    smooth_mod_p: bool
    witness: tuple | None
    points_scanned: int


def random_even_posdef(rng):
    while True:
        r = rng.randint(2, 3)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(1, 4)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        if positive_definite(g):
            return tuple(tuple(row) for row in g)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "screen",
            "one positive definite candidate [[3,1,a],[1,3,b],[a,b,c]] (|a|,|b| <= 6, 5 <= c <= 500) "
            "with h2=(1,0,0), p=(0,1,0): mayanskiy_check for both long-root variants, "
            "pfaffian_obstruction, exists_odd_delta, is_trivially_rational_rank3",
            "the paper's own use; many small rank-2/3 calls, so it carries the per-call overhead "
            "of every lattice layer and the |A|-sized Gauss sum",
            ("discgroup", "enumeration", "lattice", "fourfold"),
            build_screen,
            "lattice",
        ),
        Workload(
            "deep_enum",
            "one vectors_of_norm call; per pass of 40: E8 at norm 8, 6, 4 (x3) and 2 (x20), "
            "E8+E8 at norm 2 (x2), and 13 seeded 4-step skewed bases of E8 at norm 2",
            "a few deep Fincke-Pohst walks, the opposite use of enumeration to screen; "
            "discgroup and detrep are absent",
            ("enumeration", "lattice"),
            build_deep_enum,
            "lattice",
        ),
        Workload(
            "detrep",
            "one seeded form matrix: from_json, det_form_matrix, smooth_plane_curve_fp at a prime "
            "<= 211; size 4 adds build_cubic, quadric_gram, discriminant_curve and "
            "smooth_fourfold_fp at p <= 7",
            "the only workload on forms and detrep: form arithmetic in the cofactor determinant "
            "and evaluation in the mod-p scans; no lattice layer runs",
            ("detrep", "forms"),
            build_detrep,
            "scan",
        ),
        Workload(
            "cli",
            "one `python -m cubiclat ... --output json` subprocess, closed loop with one client: "
            "repro exe/p369/mainteo and single lat, enum, fourfold and detrep commands",
            "the only workload that pays for interpreter start-up, import and argparse",
            ("cli",),
            build_cli,
            "spawn",
            in_process=False,
        ),
    )
}
