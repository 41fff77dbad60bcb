"""dialab benchmark: one workload, one process, one pass after another.

    python3 bench/run.py --workload dsq --seed 1 --seconds 35 --trace 0

Run from anywhere; the library is imported from the `src/` next to this
directory, never from an installed copy.  Each pass re-imports dialab from
scratch, so its caches start cold as for a command-line user, then:

  set-up  import, seeded inputs, the basis of every complex    -> setup_s
  timed   the workload's computation, tracing off              -> wall_s
  checks  every result against the oracles in oracles.py

Passes repeat until --seconds have gone by; times are medians over passes.
With --trace 1 the first half of the time runs untraced passes and the
second half traced ones, which report the per-layer metrics and the tracing
overhead.  The last line of stdout is the JSON result; the exit code is 1
when any case failed and 2 when the sources are missing.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh_dialab():
    """Import dialab anew, dropping every module of an earlier import."""
    for name in [m for m in sys.modules
                 if m == "dialab" or m.startswith("dialab.")]:
        del sys.modules[name]
    dl = importlib.import_module("dialab")
    if SRC not in Path(dl.__file__).resolve().parents:
        raise ImportError("dialab imported from %s, not %s"
                          % (dl.__file__, SRC))
    return dl


class Pass:
    """Set-up, timed part and checks of one pass."""

    def __init__(self, workload, seed, toy, traced, deep):
        gc.collect()
        t0 = perf_counter()
        dl = fresh_dialab()
        tracer = tracing.Tracer(traced)
        if traced:
            tracing.install(dl, tracer)
        cases = workload(dl, seed, toy, tracer)
        self.setup = perf_counter() - t0
        gc.collect()
        results = []
        t1 = perf_counter()
        for case in cases:
            try:
                results.append((case, case.run(), None))
            except Exception as exc:    # a raising case is a failed case
                results.append((case, None, exc))
        self.wall = perf_counter() - t1
        self.layers = tracing.layer_values(dl, tracer) if traced else None
        self.terms = sum(case.terms for case in cases)
        self.attempted = len(cases)
        self.outputs = {}
        self.failures = []
        for case, out, exc in results:
            try:
                bad = [repr(exc)] if exc else case.check(out, deep)
            except Exception as check_exc:
                bad = [repr(check_exc)]
            self.outputs[case.name] = out
            if bad:
                self.failures.append((case.name, bad))


def run(workload, seed, seconds, trace, toy=False):
    """All passes of one run; returns (untraced passes, traced passes)."""
    plain, traced = [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (traced if trace else plain):
            break
        traced_pass = bool(trace and plain and elapsed >= seconds / 2)
        p = Pass(workload, seed, toy, traced_pass, deep=not plain)
        (traced if traced_pass else plain).append(p)
    return plain, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(plain):
    walls = [p.wall for p in plain]
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "terms_per_s": plain[0].terms / wall,
        "setup_s": statistics.median(p.setup for p in plain),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plain, traced):
    # median_low keeps counts whole: it is always one of the samples
    values = {name: statistics.median_low(p.layers[name] for p in traced)
              for name in traced[0].layers}
    values["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced)
        - statistics.median(p.wall for p in plain))
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny inputs, for the benchmark's self-check")
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "dialab" / "__init__.py").is_file() or \
            not spec_file.is_file():
        print("bench: need %s and %s/dialab" % (spec_file, SRC),
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        fresh_dialab()
    except ImportError as exc:
        print("bench: cannot import dialab: %s" % exc, file=sys.stderr)
        return 2

    plain, traced = run(WORKLOADS[args.workload], args.seed, args.seconds,
                        args.trace, args.toy)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if args.trace:
        declared, values = spec["per_layer"], per_layer(plain, traced)
    else:
        declared, values = spec["end_to_end"], end_to_end(plain)

    walls = [p.wall for p in plain]
    lo, hi = quartiles(walls)
    print("workload %s seed %d trace %d toy %d: %d untraced and %d traced "
          "passes, python %s, nproc %d, sequential single-threaded"
          % (args.workload, args.seed, args.trace, args.toy, len(plain),
             len(traced), platform.python_version(), os.cpu_count()))
    print("wall_s quartiles %.6f %.6f s over %d passes" % (lo, hi, len(walls)))
    for name, out in passes[0].outputs.items():
        print("case %s -> %r" % (name, out))
    for p in passes:
        for name, bad in p.failures:
            print("FAILED %s: %s" % (name, "; ".join(bad)))
    for m in declared:
        print("%s %r %s" % (m["name"], values[m["name"]], m["unit"]))
    print("fail_ratio %r ratio (%d failed of %d cases)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
