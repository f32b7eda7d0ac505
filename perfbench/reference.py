"""Scaling timings to a nominal machine speed.

On a shared virtual machine the speed of the whole machine drifts: a fixed
pure-Python loop takes 1x to 2x its best time in spells that last
from seconds to minutes, and CPU time drifts with wall time.  Latencies
are therefore divided by the time of a fixed reference task measured next
to them, and multiplied by that task's nominal time.  The reference tasks
belong to the benchmark, not to the library, so a change to the library
moves the scaled figures and a change of machine speed does not.

- For the lattice workloads, the reference is a fixed mix of Fraction
  arithmetic, tuple and dict work and an integer loop over a working set
  of a few hundred kilobytes.  It is the kind of work that the lattice
  layers do.
- For ``detrep``, the reference evaluates an ``eval``-compiled polynomial
  over a grid mod p, as the scans do.  It also multiplies polynomials
  stored as dicts of Fractions, as the determinant does.  The lattice
  reference tracked the scans to only 17%, and this one to 4%.
- For subprocess ops, it is a child started with the same interpreter and
  environment that imports the standard-library modules cubiclat uses.
  Scaled by it, `repro exe` moved 2-5% while its raw time moved 38%; a
  bare ``python -c pass`` child tracked it less well.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

LATTICE_NOMINAL_S = 0.004
SCAN_NOMINAL_S = 0.003
SPAWN_NOMINAL_S = 0.06
SPAWN_TASK = "import argparse, dataclasses, enum, fractions, itertools, json, typing"


def process_task():
    q = [Fraction(i, 7) for i in range(1, 9)]
    counts = {}
    for k in range(60):
        x = Fraction(0)
        for a in q:
            x += a * a - Fraction(k, 3)
        key = tuple(int(x) % (m + 2) for m in range(4))
        counts[key] = counts.get(key, 0) + 1
    buckets = [0] * 64
    for c in itertools.product(range(14), range(14)):
        num = 0
        for i in range(2):
            ci = c[i]
            if ci:
                num += ci * ci * (5 + i)
                for j in range(i + 1, 2):
                    num += ci * c[j] * 6
        buckets[num % 64] += 1
    # a working set that does not fit in the first cache levels
    rows = [(i, Fraction(i, 7), (i * 31) % 101) for i in range(1000)]
    sums = {}
    for _, x, key in rows:
        sums[key] = sums.get(key, 0) + x
    return counts, buckets, sums


_SCAN_TERMS = " + ".join(
    f"{(i * 37) % 11 + 1}*x*" + "*".join(["y"] * (i % 4) + ["z"] * (3 - i % 4)) for i in range(12)
)
_SCAN_POLY = eval(f"lambda x, y, z: ({_SCAN_TERMS}) % 211")


def scan_task():
    zeros = 0
    for y in range(40):
        for z in range(40):
            if _SCAN_POLY(1, y, z) == 0:
                zeros += 1
    a = {(i, 3 - i, 0): Fraction(i + 1, 2) for i in range(4)}
    b = {(i, j, 4 - i - j): Fraction(i - j) for i in range(5) for j in range(5 - i)}
    for _ in range(6):
        product = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                product[key] = product.get(key, 0) + v1 * v2
    return zeros, product


class Speed:
    """Factor that scales a latency to the nominal speed of a reference task.

    `before_op` re-times the reference (best of two) once `every_s` seconds
    of op time have passed since the last timing.
    """

    def __init__(self, task, nominal_s, every_s):
        self.task, self.nominal_s, self.every_s = task, nominal_s, every_s
        self.factor = None
        self._since = every_s

    def _time_task(self):
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0

    def refresh(self):
        self.factor = self.nominal_s / min(self._time_task(), self._time_task())
        self._since = 0.0
        return self.factor

    def before_op(self):
        if self._since >= self.every_s:
            self.refresh()

    def scale(self, latency):
        """Scale a latency measured since the last `before_op`."""
        self._since += latency
        return latency * self.factor


def speed(kind, env=None, cwd=None):
    """The Speed for a workload's reference kind: lattice, scan or spawn."""
    if kind == "lattice":
        return Speed(process_task, LATTICE_NOMINAL_S, every_s=0.1)
    if kind == "scan":
        return Speed(scan_task, SCAN_NOMINAL_S, every_s=0.1)
    argv = [sys.executable, "-c", SPAWN_TASK]
    return Speed(
        lambda: subprocess.run(argv, env=env, cwd=cwd, check=True, timeout=30),
        SPAWN_NOMINAL_S,
        every_s=0.5,
    )
