"""cubiclat benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` and the oracles from ``tests/oracles.py``.  With ``--trace 0`` the
run measures the end-to-end metrics with no wrappers installed.  With
``--trace 1`` it first runs untraced for half the time, then runs the very
same ops again with every public library function wrapped in a span, and
reports per-layer metrics per op plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from spans import WORK_KEYS, Tracer, installed_wrappers, library_modules  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

LAYERS = ("lattice", "discgroup", "enumeration", "fourfold", "forms", "detrep", "cli")
SETUP_REPEATS = 5
MIN_OPS = 100
MIN_PASSES = 3
HARD_CAP_S = 120.0  # stop adding passes after this much wall time
OP_TIMEOUT_S = 60.0  # in-process ops; cli ops use the subprocess timeout
IMPORT_PROBES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics, all per op of the traced run unless the unit says otherwise
PER_LAYER = {f"{layer}.self_s": "s/op" for layer in LAYERS}
PER_LAYER.update({f"{layer}.failed": "count" for layer in LAYERS})
for _name in (
    "lattice.Lattice.__init__",
    "lattice.signature",
    "lattice.discriminant",
    "lattice.bilinear",
    "lattice.gram_times",
    "lattice.orthogonal_complement",
    "discgroup.milgram_signature",
    "discgroup.mayanskiy_q",
    "discgroup.discriminant_group",
    "discgroup.smith_normal_form",
    "enumeration.vectors_of_norm",
    "fourfold.MarkedFourfold.__init__",
    "fourfold.mayanskiy_check",
    "fourfold.pfaffian_obstruction",
    "fourfold.exists_odd_delta",
    "fourfold.is_trivially_rational_rank3",
    "forms.Form.__init__",
    "forms.Form.__add__",
    "forms.Form.__mul__",
    "forms.parse_form",
    "forms.embed_form",
    "detrep.FormMatrix.from_json",
    "detrep.FormMatrix.__init__",
    "detrep.build_cubic",
    "detrep.quadric_gram",
    "detrep.det_form_matrix",
    "detrep.discriminant_curve",
    "detrep.smooth_plane_curve_fp",
    "detrep.smooth_fourfold_fp",
    "cli.subprocess",
):
    PER_LAYER[f"{_name}.calls"] = "calls/op"
    PER_LAYER[f"{_name}.self_s"] = "s/op"
PER_LAYER.update(
    {
        "enumeration.vectors": "vectors/op",
        "discgroup.group_elements": "elements/op",
        "detrep.points_scanned": "points/op",
        "forms.det_terms": "terms/op",
        "cli.import_s": "s",
        "trace.overhead_ratio": "ratio",
    }
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op ran past {OP_TIMEOUT_S} s")


def environment(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "unknown",
    }


def child_environment(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def import_library(root):
    """Fresh import of cubiclat from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cubiclat" or n.startswith("cubiclat.") or n == "oracles"]:
        del sys.modules[name]
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    lib = SimpleNamespace(
        **{name: importlib.import_module(f"cubiclat.{name}") for name in LAYERS + ("errors",)}
    )
    if not Path(lib.lattice.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"cubiclat was imported from {lib.lattice.__file__}, not {src}")
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(1, tests)
    oracles = importlib.import_module("oracles")
    return lib, oracles


def run_op(op, tracer, timed):
    """Run one op; returns (latency in s, error text or None)."""
    if timed:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    span = tracer.begin("op") if tracer else None
    t0 = time.perf_counter()
    error = None
    try:
        out = op.run()
    except Exception as exc:  # a failed op is counted, never fatal
        error = f"{op.kind}: {type(exc).__name__}: {exc}"
        if not isinstance(exc, (OpTimeout, subprocess.TimeoutExpired)):
            error += "\n" + traceback.format_exc(limit=-3)
    finally:
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None:
        try:
            op.check(out)
        except CheckFailed as exc:
            error = f"{op.kind}: check failed: {exc}"
    return latency, error


def measure(plan, speed, in_process, seconds=None, passes=None, tracer=None):
    """Time repeated passes over the op set; each op keeps its median latency.

    Runs `passes` passes, or else passes until there are at least MIN_PASSES
    passes, MIN_OPS timed ops and `seconds` of op time.  Latencies are
    scaled to the reference speed (see reference.py).
    """
    scaled = [[] for _ in plan.ops]
    raw = [[] for _ in plan.ops]
    errors, busy, executed, done = [], 0.0, 0, 0
    wall0 = time.perf_counter()
    while True:
        for i, op in enumerate(plan.ops):
            speed.before_op()
            latency, error = run_op(op, tracer, in_process)
            scaled[i].append(speed.scale(latency))
            raw[i].append(latency)
            busy += latency
            executed += 1
            if error:
                errors.append(error)
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif done >= MIN_PASSES and busy >= seconds and executed >= MIN_OPS:
            break
        if time.perf_counter() - wall0 > HARD_CAP_S:
            break
    return SimpleNamespace(
        per_op=[statistics.median(x) for x in scaled],
        raw_per_op=[statistics.median(x) for x in raw],
        errors=errors, busy=busy, executed=executed, passes=done,
    )


def setup(workload, root, seed, child_env, speed):
    """Import, generate inputs and warm up; returns (lib, plan, raw s, scaled s)."""
    before = speed.refresh()
    t0 = time.perf_counter()
    lib, oracles = import_library(root)
    ctx = {"root": str(root), "child_env": child_env, "oracles": oracles}
    plan = workload.build(lib, random.Random(seed), ctx)
    for op in plan.warmup:
        _, error = run_op(op, None, workload.in_process)
        if error:
            raise RuntimeError(f"warm-up op failed: {error}")
    seconds = time.perf_counter() - t0
    return lib, plan, seconds, seconds * (before + speed.refresh()) / 2


def import_seconds(root, child_env):
    """Median time of `import cubiclat.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import cubiclat.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env, cwd=root,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def per_layer(tracer, ops, overhead, import_s):
    calls, self_s = tracer.summary()
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + ".")) / ops
        values[f"{layer}.failed"] = tracer.failed[layer]
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if metric in values or kind not in ("calls", "self_s"):
            continue
        values[metric] = (calls[base] if kind == "calls" else self_s.get(base, 0.0)) / ops
    for key in WORK_KEYS:
        values[key] = tracer.work[key] / ops
    values["cli.import_s"] = import_s
    values["trace.overhead_ratio"] = overhead
    return values, calls, self_s


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    needed = (root / "src" / "cubiclat" / "__init__.py", root / "tests" / "oracles.py")
    if not all(path.is_file() for path in needed):
        print(f"error: {root} is not a cubiclat checkout (src/cubiclat, tests/oracles.py)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    child_env = child_environment(root)
    signal.signal(signal.SIGALRM, _alarm)

    env = environment(args.seed)
    print(f"# workload {workload.name}: op = {workload.op}")
    print(f"# why: {workload.why}; layers expected: {', '.join(workload.layers)}")
    print("# environment: " + json.dumps(env))

    setup_speed = reference.speed("lattice")
    raw_setup, times = [], []
    for _ in range(SETUP_REPEATS):
        lib, plan, raw, scaled = setup(workload, root, args.seed, child_env, setup_speed)
        raw_setup.append(raw)
        times.append(scaled)
    setup_s = statistics.median(times)
    speed = reference.speed(workload.reference, child_env, root)
    modules = library_modules()

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": workload.name, "op": workload.op, "why": workload.why,
              "layers": list(workload.layers), "environment": env,
              "setup_runs_s": times, "setup_runs_raw_s": raw_setup}
    if args.trace:
        base = measure(plan, speed, workload.in_process, seconds=args.seconds / 2)
        tracer = Tracer(modules, lib.errors.PreconditionError)
        tracer.install()
        try:
            traced = plan if workload.in_process else with_subprocess_spans(plan, tracer)
            run = measure(traced, speed, workload.in_process, passes=base.passes, tracer=tracer)
        finally:
            tracer.uninstall()
        left = installed_wrappers(modules)
        if left:
            print(f"error: wrappers left installed: {left}", file=sys.stderr)
            return 1
        ops = run.executed
        overhead = sum(run.per_op) / sum(base.per_op)
        metrics, calls, self_s = per_layer(tracer, ops, overhead, import_seconds(root, child_env))
        units = PER_LAYER
        span_file = out_dir / f"spans-{workload.name}.tsv"
        tracer.write(span_file)
        report["spans"] = {"file": str(span_file.relative_to(root)), "count": len(tracer.span_start)}
        report["functions"] = {
            name: {"calls": calls[name], "self_s": self_s[name]}
            for name in sorted(self_s, key=self_s.get, reverse=True)
        }
        print(f"# traced {ops} ops in {run.passes} passes; op time untraced {base.busy:.3f} s, "
              f"traced {run.busy:.3f} s; {len(tracer.span_start)} spans -> {span_file.relative_to(root)}")
        for name, info in list(report["functions"].items())[:25]:
            print(f"#   {name:45s} calls {info['calls']:>9d}  self {info['self_s']:.4f} s")
    else:
        run = measure(plan, speed, workload.in_process, seconds=args.seconds)
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "ops_per_s": len(run.per_op) / sum(run.per_op),
            "op_p50_ms": percentile(run.per_op, 50) * 1000,
            "op_p90_ms": percentile(run.per_op, 90) * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units = END_TO_END
        if installed_wrappers(modules):
            print("error: an untraced run found span wrappers installed", file=sys.stderr)
            return 1

    errors = list(run.errors)
    if plan.final_check and not args.trace:
        try:
            plan.final_check()
        except CheckFailed as exc:
            errors.append(f"oracle sample: {exc}")
    attempted = run.executed
    kinds = {}
    for op, scaled, raw in zip(plan.ops, run.per_op, run.raw_per_op):
        kinds.setdefault(op.kind, []).append((scaled, raw))
    report["kinds"] = {
        k: {"ops": len(v),
            "median_ms": statistics.median(x for x, _ in v) * 1000,
            "unscaled_median_ms": statistics.median(r for _, r in v) * 1000}
        for k, v in kinds.items()
    }
    report["raw"] = {
        "ops_per_s": len(run.raw_per_op) / sum(run.raw_per_op),
        "op_p50_ms": percentile(run.raw_per_op, 50) * 1000,
        "op_p90_ms": percentile(run.raw_per_op, 90) * 1000,
        "setup_s": statistics.median(raw_setup),
    }
    for error in errors[:5]:
        print(f"# FAILED {error}", file=sys.stderr)
    report.update({"attempted": attempted, "failed": len(errors), "passes": run.passes,
                   "error_rate": len(errors) / attempted, "metrics": metrics})
    print(f"# {len(plan.ops)} distinct ops x {run.passes} passes = {attempted} timed ops, "
          f"{len(errors)} failed, error_rate {len(errors) / attempted:.4f}")
    for kind, info in sorted(report["kinds"].items(), key=lambda kv: kv[1]["median_ms"]):
        print(f"#   {kind:28s} {info['ops']:5d} ops, median {info['median_ms']:.3f} ms "
              f"(unscaled {info['unscaled_median_ms']:.3f} ms)")
    print("# unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in report["raw"].items()))
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    with open(out_dir / f"report-{workload.name}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def with_subprocess_spans(plan, tracer):
    """In the cli workload the whole child process is the cli layer: give it a span."""

    def traced(run):
        def run_in_span():
            idx = tracer.begin("cli.subprocess")
            try:
                return run()
            finally:
                tracer.end(idx)

        return run_in_span

    return plan._replace(ops=[op._replace(run=traced(op.run)) for op in plan.ops])


if __name__ == "__main__":
    sys.exit(main())
