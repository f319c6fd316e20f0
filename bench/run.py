#!/usr/bin/env python3
"""The conefaces benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload six_point_p3 --seed 1 --seconds 35 --trace 0

Workloads: six_point_p3, ternary_sweep, cli_mix (see
``bench/workloads.py`` and ``BENCHMARK.json``).  Load is a closed loop
with one client in one process and no threads: the program is
single-threaded, and cli_mix runs one subprocess at a time.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs each input once with the layer tracer installed and
once without, reports the per-layer metrics, and writes the spans to
``.bench_out/``.  A human-readable table goes first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# fresh interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
# the tail is the slowest op time with at least this many ops beyond it
TAIL_BEYOND = 10


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import conefaces from this checkout's src/; returns the import time."""
    if not (SRC / "conefaces" / "__init__.py").is_file():
        fail(f"no conefaces sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import conefaces
    seconds = time.perf_counter() - start
    if Path(conefaces.__file__).resolve().parent != SRC / "conefaces":
        fail(f"conefaces was imported from {conefaces.__file__}, not {SRC}")
    return seconds


def setup_probe(workload, seed):
    """Fresh-interpreter set-up: import conefaces and build the inputs."""
    import_program()
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    w.inputs(seed, "timed", w.pool)
    w.warmup_inputs(seed)
    print("ready", flush=True)


def time_setup(workload, seed):
    """Median wall time from spawning a fresh interpreter until its inputs
    are built, over SETUP_PROBES interpreters."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.close()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or code != 0:
            fail(f"set-up probe exited with code {code}")
    return statistics.median(samples)


def tail(times):
    """(time, percentile, ops beyond): the highest percentile of the op
    times that has at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(times)
    k = max(0, len(ordered) - 1 - TAIL_BEYOND)
    percentile = 100.0 * k / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[k], percentile, len(ordered) - 1 - k


class Loop:
    """Closed loop over the workload's inputs for a fixed number of seconds."""

    def __init__(self, w, seed, seconds):
        self.seconds = seconds
        self.round = w.round
        self.pool = w.inputs(seed, "timed", w.pool)
        self.warm = w.warmup_inputs(seed)
        # a fresh process per op shares no cache, so its inputs may repeat
        self.repeats = not w.in_process

    def items(self):
        """Inputs in order, in whole rounds, until time is up; in-process
        workloads never repeat an input, so a run stops early if the pool
        runs out."""
        start = time.perf_counter()
        i = 0
        while i % self.round or i == 0 or time.perf_counter() - start < self.seconds:
            if i >= len(self.pool) and not self.repeats:
                print(f"note: input pool of {len(self.pool)} exhausted", file=sys.stderr)
                break
            yield i, self.pool[i % len(self.pool)]
            i += 1
        self.elapsed = time.perf_counter() - start


def call(op):
    """Run op(); returns (result, seconds, error)."""
    start = time.perf_counter()
    try:
        result = op()
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter() - start, None


def checked(w, item, result, error):
    if error is None:
        try:
            if w.check(item, result):
                return True
            error = f"wrong result {result!r}"[:300]
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    print(f"failed op on {item!r}"[:300] + f": {error}", file=sys.stderr)
    return False


def run_plain(w, loop):
    """Untraced run; returns (op times, results)."""
    w.warm_up(loop.warm)
    times, results = [], []
    for _, item in loop.items():
        result, seconds, error = call(lambda: w.op(item))
        times.append(seconds)
        results.append((item, result, error))
    return times, results


def run_traced(w, loop, tracer):
    """Each input once traced and once untraced, alternating which goes
    first; returns (traced times, untraced times, results)."""
    w.warm_up(loop.warm)
    traced, plain, results = [], [], []
    child_trace = OUT_DIR / f"cli_trace_{os.getpid()}.json"
    for i, item in loop.items():
        for trace_it in ((True, False) if i % 2 == 0 else (False, True)):
            if not w.in_process:
                path = child_trace if trace_it else None
                result, seconds, error = call(lambda: w.op(item, trace_path=path))
                if path is not None and path.exists():
                    with open(path) as fh:
                        tracer.absorb(json.load(fh), i)
                    path.unlink()
            else:
                # the same input runs twice: empty the caches the first run filled
                tracer.clear_caches()
                if trace_it:
                    result, seconds, error = call(lambda: tracer.run(i, lambda: w.op(item)))
                else:
                    result, seconds, error = call(lambda: w.op(item))
            (traced if trace_it else plain).append(seconds)
            results.append((item, result, error))
    return traced, plain, results


def machine():
    import numpy
    from conefaces import rational

    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scalar={rational.Rat.__module__}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_s = import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    setup_s = time_setup(args.workload, args.seed)
    loop = Loop(w, args.seed, args.seconds)

    if args.trace:
        tracer = Tracer()
        traced, plain, results = run_traced(w, loop, tracer)
    else:
        times, results = run_plain(w, loop)
    attempted = len(results)
    passed = sum(checked(w, item, result, error) for item, result, error in results)
    failed = attempted - passed

    print(machine())
    print(f"workload {w.name} seed {args.seed}: {attempted} ops checked, "
          f"timed phase {loop.elapsed:.3f} s")
    if args.trace:
        if w.in_process:
            tracer.import_s.append(import_s)
            tracer.numpy_loaded.append("numpy" in sys.modules)
        tracer.write(OUT_DIR / f"trace-{w.name}-{args.seed}.jsonl")
        overhead = sum(plain) / sum(traced) if traced and sum(traced) else 0.0
        metrics = tracer.summary(len(traced), overhead)
        print(f"traced ops {len(traced)}, untraced ops {len(plain)}, "
              f"{len(tracer.spans)} spans")
    else:
        if w.in_process:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:  # the largest child's
            peak_kib = max((r[2] for _, r, e in results if e is None), default=0)
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "ops_per_s": {"value": passed / loop.elapsed, "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(times), "unit": "s"},
            "op_s.tail": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # fail_ratio can be 0, so it travels as attempted/failed in the JSON
        print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ratio ({failed} of {attempted})")
        print(f"  op_s.tail is p{tail_pct:.1f} of {len(times)} ops ({beyond} beyond it); "
              f"setup_s is the median of {SETUP_PROBES} fresh interpreters")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
