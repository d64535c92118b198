"""Closed-loop benchmark of the colorlie package.

    python3 perfbench/run.py --workload flag --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the sample problems are read from ``problems/``.

One caller in one thread runs the workload's ops back to back, each op
starting when the previous one returns.  A pass runs every op
``op.repeat`` times; passes repeat until the next one would overrun
``--seconds`` (there is always one).  Every output is checked exactly by
``check.py``.  Set-up (import plus input building) is repeated
SETUP_REPEATS times and its median reported.

Times are reported in seconds at a reference machine pace: the machine
this runs on shares its cores and drifts by tens of percent within
seconds, so ``PaceSampler`` times a fixed pure-Python kernel on a timer
and each raw interval is scaled by the kernel's pace around it.  An
op's time is the median over its executions; ``wall_s`` is the sum of
these over all ops, the time of one pass with each op run once.

The last line of stdout is the JSON result; the line before it is an
``info`` object with the op count, pass count, the percentile behind
``op_tail_s``, the raw (unscaled) wall time and the digest summary.
Per-op times go to ``.perfbench-out/ops-<workload>-<seed>.json``.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the same untraced passes run first, then one more pass
runs with every package layer wrapped by ``spans.py``; the result holds
the per-layer metrics of that pass and ``trace.overhead_s``, its wall
time minus the untraced one.  Spans are written to
``.perfbench-out/spans-<workload>-<seed>.bin``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

import check
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
# calibration kernel seconds on the reference machine; see PaceSampler
REFERENCE_PACE_S = 0.0011

BUILDERS = {
    "flag": workloads.flag_ops,
    "primitives": workloads.primitives_ops,
    "cli": lambda cl, rng, workdir: workloads.cli_ops(
        cl, rng, workdir, os.path.join(ROOT, "problems")),
}

# Functions named for per-function metrics, by layer.
NAMED = {
    "linalg": ["rref", "kernel_basis", "solve_unique", "inverse", "char_poly",
               "rational_roots", "nil_subspace_check", "Matrix.mul"],
    "graded": ["compose", "flatten_map", "unflatten_map", "graded_kernel",
               "homogeneous_eigenvalues"],
    "algebra": ["color_bracket", "bracket_closure", "bracket_subspaces",
                "ColorAlgebra.coordinates", "ad_representation", "derived_series",
                "lower_central_series", "is_ideal"],
    "structure": ["color_flag", "ideal_chain", "codim_one_ideal"],
    "grading": ["element_add", "eval_bicharacter"],
    "fileformat": ["load_problem"],
    "cli": ["main"],
}


def per_layer_names():
    names = []
    for layer in spans.LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    for layer, fns in NAMED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
    return names + ["algebra.color_bracket.nonzero_ratio", "trace.overhead_s"]


def import_package():
    """Fresh import of the package, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "colorlie" or m.startswith("colorlie.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "colorlie")):
        raise SystemExit(f"no package source at {src}/colorlie: run from a checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    cl = importlib.import_module("colorlie")
    importlib.import_module("colorlie.cli")
    return cl


class PaceSampler:
    """Measures the machine's pace while the benchmark runs.

    A timer signal runs ``calibration_kernel`` every PERIOD seconds, also
    in the middle of long ops.  ``scale`` turns the raw seconds of an
    interval into seconds at the reference pace, using the trimmed mean
    of the kernel times ticked inside the interval or within WINDOW of
    it.  The kernel calls no package code, and the time spent in it is
    taken out of each interval's raw time (``spent``, ``clock``).
    """

    PERIOD = 0.025
    WINDOW = 0.025   # ticks this close to an interval also count for it

    def __init__(self):
        self.at, self.pace, self.spent = [], [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.pace.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Seconds on the run's clock, not counting the sampler's ticks."""
        return time.perf_counter() - self.spent

    def scale(self, t0, t1, raw):
        lo = bisect.bisect_left(self.at, t0 - self.WINDOW)
        hi = bisect.bisect_right(self.at, t1 + self.WINDOW)
        if hi <= lo:  # no tick came near: take the nearest ones
            lo, hi = max(0, lo - 1), lo + 1
        near = sorted(self.pace[lo:hi])
        cut = len(near) // 5   # trimmed mean: drop the fastest and slowest fifth
        near = near[cut:len(near) - cut]
        return raw * REFERENCE_PACE_S * len(near) / sum(near)


# integer and rational matrices for the calibration kernel
_CAL = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
_CAL_Q = [[Fraction((i * 5 + j * 2) % 7 - 3, 1 + (i + j) % 3) for j in range(6)]
          for i in range(6)]


def calibration_kernel():
    """Fixed pure-Python work shaped like the package's inner loops:
    integer matrix products in generator expressions, as in the nil check,
    and Gauss-Jordan elimination over small Fractions on lists of rows,
    as in the exact linear algebra.  It calls no package code."""
    p = _CAL
    for _ in range(2):
        p = [[sum(p[i][k] * _CAL[k][j] for k in range(6)) for j in range(6)]
             for i in range(6)]
    a = [list(row) for row in _CAL_Q]
    for c in range(6):
        piv = next((i for i in range(c, 6) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(6):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return p, a


def timed(sampler, fn):
    """Run fn; return its result, start, end and raw seconds less the
    sampler's time inside it."""
    spent = sampler.spent
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    return out, t0, t1, t1 - t0 - (sampler.spent - spent)


def setup(workload, seed, workdir, sampler):
    """Import the package and build the inputs, SETUP_REPEATS times; the
    ops of the last round are kept and the median time is reported."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        (cl, ops), t0, t1, raw = timed(sampler, lambda: build(workload, seed, workdir))
        intervals.append((t0, t1, raw))
    # the inputs live for the whole run: keep them out of the collector's
    # scans, so collection cost inside an op tracks the op's own garbage
    gc.collect()
    gc.freeze()
    return cl, ops, intervals


def build(workload, seed, workdir):
    cl = import_package()
    return cl, BUILDERS[workload](cl, random.Random(f"{workload}:{seed}"), workdir)


def call_safely(op):
    try:
        return op.call()
    except Exception as e:  # counted as a failure by the op's check
        return e


def run_pass(ops, sampler, corrupt=False):
    """One closed-loop pass, each op run ``op.repeat`` times back to back:
    per op the list of (start, end, raw seconds), the first output of
    each op, and the failure count."""
    times, outputs, failed = [], [], 0
    for op in ops:
        runs = []
        for k in range(op.repeat):
            out, t0, t1, raw = timed(sampler, lambda: call_safely(op))
            runs.append((t0, t1, raw))
            try:
                if corrupt:
                    out = op.corrupt(out)
                ok = op.check(out)
            except Exception:  # a malformed output is a failed op, not a crash
                ok = False
            failed += not ok
            if k == 0:
                outputs.append(out)
        times.append(runs)
    return times, outputs, failed


def timed_passes(ops, sampler, seconds, corrupt=False):
    """Passes until the next one would overrun ``seconds``; at least one."""
    passes, failed, first_outputs = [], 0, None
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        times, outputs, bad = run_pass(ops, sampler, corrupt)
        passes.append(times)
        failed += bad
        if first_outputs is None:
            first_outputs = outputs
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes, failed, first_outputs


def tail(samples):
    """Highest whole percentile with at least ten samples beyond it, and
    the sample at that percentile (nearest rank)."""
    n = len(samples)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, sorted(samples)[rank - 1]


def digest_report(workload, ops, outputs, record):
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    table = recorded.setdefault(workload, {})
    compared = changed = 0
    for op, out in zip(ops, outputs):
        key = f"{op.name}:{op.key}"
        try:
            value = check.digest(op.canon(out))
        except Exception:  # an op that raised has no canonical output
            value = None
        if key in table:
            compared += 1
            changed += table[key] != value
        if record:
            table[key] = value
    if record:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return compared, changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt every output before checking (self-test)")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests in digests.json")
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    sampler = PaceSampler()
    try:
        with sampler:
            cl, ops, setup_times = setup(args.workload, args.seed, workdir, sampler)
            passes, failed, outputs = timed_passes(ops, sampler, args.seconds, args.corrupt)
            if args.trace:
                tracer = spans.Tracer(sampler.clock)
                spans.install(tracer, cl)
                gc.collect()
                traced, _, bad = run_pass(ops, sampler, args.corrupt)
                failed += bad
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    # per op, the median over all its executions in all passes
    per_op = [statistics.median(sampler.scale(*t) for p in passes for t in p[i])
              for i in range(len(ops))]
    raw_op = [statistics.median(t[2] for p in passes for t in p[i]) for i in range(len(ops))]
    wall_s = sum(per_op)
    pct, tail_s = tail(per_op)
    executions = sum(op.repeat for op in ops)
    attempted = executions * (len(passes) + args.trace)
    compared, changed = digest_report(args.workload, ops, outputs, args.record_digests)
    info = {"workload": args.workload, "seed": args.seed, "ops": len(ops),
            "passes": len(passes), "op_tail_percentile": pct,
            "raw_wall_s": sum(raw_op),
            "pace_samples": len(sampler.pace),
            "digest_compared": compared, "digest_changed": changed}

    os.makedirs(OUT_DIR, exist_ok=True)
    op_file = os.path.join(OUT_DIR, f"ops-{args.workload}-{args.seed}.json")
    with open(op_file, "w", encoding="utf-8") as fh:
        json.dump({op.name: {"s": s, "raw_s": r} for op, s, r in zip(ops, per_op, raw_op)},
                  fh, indent=0)
    info["op_file"] = os.path.relpath(op_file, ROOT)

    if args.trace:
        layer = tracer.layer_metrics()
        metrics = {}
        for name in per_layer_names()[:-2]:
            unit = "count" if name.endswith(".calls") else "s"
            metrics[name] = {"value": layer.get(name, 0), "unit": unit}
        brackets = layer.get("algebra.color_bracket.calls", 0)
        metrics["algebra.color_bracket.nonzero_ratio"] = {
            "value": tracer.nonzero_brackets / brackets if brackets else 0.0, "unit": "ratio"}
        traced_wall = sum(statistics.median(sampler.scale(*t) for t in runs) for runs in traced)
        metrics["trace.overhead_s"] = {"value": traced_wall - wall_s, "unit": "s"}
        span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.bin")
        tracer.write(span_file)
        info.update(spans=len(tracer.span_name), span_file=os.path.relpath(span_file, ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(sampler.scale(*t) for t in setup_times),
            "wall_s": wall_s,
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": tail_s,
            "ok_ratio": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ok_ratio": "ratio", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
