"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches the metrics run.py prints, that the
tracer rebinds every import of a wrapped function and restores the
originals, that an untraced run installs no wrappers, and that a short
traced run of each workload gives nonzero self time to every layer the
workload is expected to load.
"""

import json
import random
import sys
from pathlib import Path

import run
from reference import speed
from spans import MARK, Tracer, installed_wrappers, library_modules
from workloads import WORKLOADS, Plan

ROOT = Path.cwd().resolve()
# a few cheap ops of each workload, chosen by kind prefix
MINI = {
    "screen": ("gauss-sum", 20),
    "deep_enum": ("norm2-rank8", 4),
    "detrep": ("size4-F", 3),
    "cli": ("repro exe", 1),
}


def mini_plan(workload, lib, child_env):
    ctx = {"root": str(ROOT), "child_env": child_env, "oracles": None}
    plan = workload.build(lib, random.Random(7), ctx)
    prefix, count = MINI[workload.name]
    ops = [op for op in plan.ops if op.kind.startswith(prefix)][:count]
    assert len(ops) == count, f"{workload.name}: found {len(ops)} ops of kind {prefix}"
    return Plan(ops, [])


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer"


def test_rebinding(lib):
    modules = library_modules()
    originals = {
        "fourfold.vectors_of_norm": lib.fourfold.vectors_of_norm,
        "discgroup.discriminant": lib.discgroup.discriminant,
        "enumeration.discriminant": lib.enumeration.discriminant,
        "fourfold.milgram_signature": lib.fourfold.milgram_signature,
    }
    package = sys.modules["cubiclat"]
    tracer = Tracer(modules, lib.errors.PreconditionError)
    tracer.install()
    try:
        for name in originals:
            mod, attr = name.split(".")
            assert getattr(getattr(lib, mod).__dict__[attr], MARK, False), f"{name} not wrapped"
        assert getattr(package.vectors_of_norm, MARK, False), "package re-export not wrapped"
        assert getattr(lib.forms.Form.__mul__, MARK, False), "Form.__mul__ not wrapped"
        assert lib.fourfold.vectors_of_norm is lib.enumeration.vectors_of_norm, "one wrapper per function"
        # a call through the re-binding in fourfold must open an enumeration span
        lat = lib.lattice.Lattice(((3, 1, 0), (1, 3, 0), (0, 0, 5)))
        lib.fourfold.pfaffian_obstruction(lib.fourfold.MarkedFourfold(lat, (1, 0, 0), (0, 1, 0)))
        calls, _ = tracer.summary()
        assert calls["enumeration.vectors_of_norm"] == 1, "call bypassed its span"
        assert calls["lattice.discriminant"] == 0 and calls["lattice.signature"] >= 1
    finally:
        tracer.uninstall()
    assert not installed_wrappers(modules), "wrappers left after uninstall"
    for name, fn in originals.items():
        mod, attr = name.split(".")
        assert getattr(lib, mod).__dict__[attr] is fn, f"{name} not restored"


def test_untraced_installs_nothing(lib, child_env):
    modules = library_modules()
    seen = []
    plan = mini_plan(WORKLOADS["screen"], lib, child_env)
    probe = plan.ops[0]
    plan.ops.append(probe._replace(run=lambda: (seen.extend(installed_wrappers(modules)), probe.run())[1]))
    result = run.measure(plan, speed("lattice"), True, passes=1)
    assert not result.errors, result.errors
    assert not seen and not installed_wrappers(modules), f"untraced run saw wrappers: {seen}"


def test_layers_get_self_time(workload, child_env):
    lib, _ = run.import_library(ROOT)
    plan = mini_plan(workload, lib, child_env)
    tracer = Tracer(library_modules(), lib.errors.PreconditionError)
    tracer.install()
    try:
        if not workload.in_process:
            plan = run.with_subprocess_spans(plan, tracer)
        result = run.measure(
            plan, speed(workload.reference, child_env, ROOT), workload.in_process, passes=1, tracer=tracer
        )
    finally:
        tracer.uninstall()
    assert not result.errors, result.errors
    values, _, _ = run.per_layer(tracer, result.executed, 1.0, 0.0)
    for layer in workload.layers:
        assert values[f"{layer}.self_s"] > 0, f"{workload.name}: no self time in {layer}"


def main():
    child_env = run.child_environment(ROOT)
    lib, _ = run.import_library(ROOT)
    tests = [("BENCHMARK.json lists the printed metrics", test_benchmark_json, ()),
             ("tracer rebinds every import and restores it", test_rebinding, (lib,)),
             ("untraced run installs no wrappers", test_untraced_installs_nothing, (lib, child_env))]
    tests += [(f"{name}: expected layers get self time", test_layers_get_self_time, (w, child_env))
              for name, w in WORKLOADS.items()]
    failed = 0
    for label, fn, args in tests:
        try:
            fn(*args)
            print(f"PASS {label}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
