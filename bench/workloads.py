"""The benchmark workloads: seeded inputs, one op, and its check.

Inputs are built by the benchmark from its seed, never by
``sampling.random_configuration(d_independent=...)``: that call fills the
``is_d_independent`` cache, and ``face_report`` would then read the
verdict from the cache and hide the layer that dominates.  Every timed op
gets a fresh configuration, and warm-up inputs come from their own random
stream, so no timed op is served from a cache filled by an earlier op.

Import ``conefaces`` before this module when timing the import.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from conefaces import (
    certificates,
    constructions,
    gap_analysis,
    ideal_components,
    independence,
    sampling,
)
from conefaces.ideal_components import PointConfiguration
from conefaces.polynomials import ProjectivePoint

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# what the `conefaces` console script runs
CONSOLE_SCRIPT = "import sys; from conefaces.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60

COORD_BOUND = 50
CLI_SAMPLES = 2000  # the library's and the CLI's default


def random_points(rng, n, size):
    """Distinct projective points with integer coordinates in
    [-COORD_BOUND, COORD_BOUND], resampled until in general linear position."""
    while True:
        points, seen = [], set()
        while len(points) < size:
            coords = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(n))
            if not any(coords):
                continue
            point = ProjectivePoint(coords)
            key = point.canonical()
            if key not in seen:
                seen.add(key)
                points.append(point)
        g = PointConfiguration(n, tuple(points))
        if independence.is_general_linear_position(g):
            return g


def _stream(workload, seed, part):
    return random.Random(f"{workload}/{seed}/{part}")


class Workload:
    """name, pool (timed inputs built per run), inputs(), warmup_inputs(),
    op(item) and check(item, result)."""

    in_process = True  # False: each op is a fresh process
    # a run stops only between rounds of this many consecutive inputs, so
    # that every run holds whole rounds of a mixed schedule
    round = 1

    def warm_up(self, inputs):
        for item in inputs:
            self.op(item)


class SixPointP3(Workload):
    """face_report(G, 2) on six points in P^3: dims 10 vs 11."""

    name = "six_point_p3"
    pool = 96
    expected = (4, 10, 11, "yes")

    def inputs(self, seed, part, count):
        rng = _stream(self.name, seed, part)
        return [random_points(rng, 4, 6) for _ in range(count)]

    def warmup_inputs(self, seed):
        return self.inputs(seed, "warmup", 1)

    def op(self, g):
        return ideal_components.face_report(g, 2)

    def check(self, g, report):
        got = (report.dim_Id, report.dim_I2_2d, report.dim_Isym2_2d, report.d_independent)
        return got == self.expected


# Rounds of one heavy d=4 op and three light d=3 ops.  Sizes are visited
# in a spread order, so that the first rounds of every run already mix small
# and large sets, including those with a positive gap (d=3 size 7, d=4 sizes
# 11 and 12).  Light ops stay the majority, so op_s.p50 falls inside one
# cluster of op times instead of between the light and the heavy one.
D4_SIZES = (12, 1, 7, 10, 4, 11, 2, 8, 5, 9, 3, 6)
D3_SIZES = (7, 1, 4, 6, 2, 5, 3)
TERNARY_SCHEDULE = tuple(
    step
    for r, size in enumerate(D4_SIZES)
    for step in [(4, size)] + [(3, D3_SIZES[(3 * r + k) % 7]) for k in range(3)]
)


class TernarySweep(Workload):
    """face_report(G, d) on generic plane sets; the gap must match
    ternary_prediction (criterion 3)."""

    name = "ternary_sweep"
    pool = 2 * len(TERNARY_SCHEDULE)
    round = 4

    def inputs(self, seed, part, count):
        rng = _stream(self.name, seed, part)
        steps = [TERNARY_SCHEDULE[i % len(TERNARY_SCHEDULE)] for i in range(count)]
        return [(d, random_points(rng, 3, size)) for d, size in steps]

    def warmup_inputs(self, seed):
        rng = _stream(self.name, seed, "warmup")
        return [(3, random_points(rng, 3, 7))]

    def op(self, item):
        d, g = item
        return ideal_components.face_report(g, d)

    def check(self, item, report):
        d, g = item
        predicted = gap_analysis.ternary_prediction(d, g.size)
        # the prediction is for d-independent sets, which generic sets are
        return (
            predicted["relation"] in ("equal", "strict_gap")
            and report.d_independent == "yes"
            and report.gap == predicted["predicted_gap"]
        )


def _snd_json(n, d):
    return {
        "points": constructions.snd_points(n, d).to_json(),
        "basis": [q.to_json() for q in constructions.snd_basis(n, d)],
    }


def _certify_expected(scheme, seed):
    cert = certificates.build_certificate(
        list(scheme.Q), scheme.R, 1, scheme.gamma, samples=CLI_SAMPLES, seed=seed,
    )
    return (0 if cert.not_sos else 1), cert.to_json()


class CliMix(Workload):
    """The README's commands, each run as a fresh `conefaces` process and
    compared with the same call made in-process."""

    name = "cli_mix"
    in_process = False
    # one cycle of distinct commands, repeated for the whole run: six light
    # ones, so op_s.p50 falls among them, then seven3, random and the two
    # certificates, so the tail falls among the certificates
    pool = round = 10

    def __init__(self):
        self._expected = {}

    def inputs(self, seed, part, count):
        """(argv, expect) pairs; expect() gives (exit code, JSON data)."""
        rng = _stream(self.name, seed, part)
        two_d = 2 * rng.choice((3, 4, 5))
        two_d4 = 2 * rng.choice((2, 3))
        snd_d = rng.choice((3, 4))
        snd_d4 = rng.choice((2, 3))
        seed36, seed44, dims_seed, random_seed = (rng.randrange(10**6) for _ in range(4))
        dims_size = rng.randint(3, 5)
        random_size = rng.randint(5, 7)
        six = constructions.EXAMPLE_SIX_POINTS
        seven = constructions.SEVEN_POINTS_PERTURBED
        commands = [
            (["gapscan", "--n", "3", "--two-d", str(two_d)],
             lambda: (0, gap_analysis.gap_profile(3, two_d).to_json())),
            (["gapscan", "--n", "4", "--two-d", str(two_d4)],
             lambda: (0, gap_analysis.gap_profile(4, two_d4).to_json())),
            (["construct", "snd", "--n", "3", "--d", str(snd_d)],
             lambda: (0, _snd_json(3, snd_d))),
            (["construct", "snd", "--n", "4", "--d", str(snd_d4)],
             lambda: (0, _snd_json(4, snd_d4))),
            (["construct", "six4"],
             lambda: (0, constructions.six_point_scheme(six).to_json())),
            (["construct", "seven3"],
             lambda: (0, constructions.seven_point_scheme(seven).to_json())),
            (["certify", "--case", "36", "--epsilon", "1", "--samples", str(CLI_SAMPLES),
              "--seed", str(seed36)],
             lambda: _certify_expected(constructions.seven_point_scheme(seven), seed36)),
            (["certify", "--case", "44", "--epsilon", "1", "--samples", str(CLI_SAMPLES),
              "--seed", str(seed44)],
             lambda: _certify_expected(constructions.six_point_scheme(six), seed44)),
            (["dims", "--n", "3", "--d", "2", "--random-size", str(dims_size),
              "--seed", str(dims_seed)],
             lambda: (0, ideal_components.face_report(
                 sampling.random_configuration(3, dims_size, seed=dims_seed), 2).to_json())),
            (["random", "--n", "3", "--size", str(random_size), "--d-independent", "3",
              "--seed", str(random_seed)],
             lambda: (0, sampling.random_configuration(
                 3, random_size, seed=random_seed, d_independent=3).to_json())),
        ]
        return commands[:count]

    def warmup_inputs(self, seed):
        return [(["gapscan", "--n", "4", "--two-d", "4"], None)]

    def op(self, item, trace_path=None):
        """Run the command; returns (exit code, stdout bytes, peak RSS in KiB)."""
        argv = item[0]
        if trace_path is None:
            cmd = [sys.executable, "-c", CONSOLE_SCRIPT, *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "cli_boot.py"), str(trace_path), *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryFile(dir=OUT_DIR) as out, \
                tempfile.TemporaryFile(dir=OUT_DIR) as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            status, usage = _wait(proc, CLI_TIMEOUT_S)
            out.seek(0)
            stdout = out.read()
            if status != 0:
                err.seek(0)
                sys.stderr.write(err.read().decode(errors="replace")[-2000:])
        return status, stdout, usage.ru_maxrss

    def check(self, item, result):
        """Exit code and stdout bytes against the in-process call, which is
        made once per distinct command."""
        argv, expect = item
        key = tuple(argv)
        if key not in self._expected:
            code, data = expect()
            self._expected[key] = (code, (json.dumps(data, indent=2) + "\n").encode())
        return result[:2] == self._expected[key]


def _wait(proc, timeout):
    """Reap proc with os.wait4, which reports this child's own peak RSS;
    kill it once timeout seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"{proc.args} ran longer than {timeout} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


WORKLOADS = {w.name: w for w in (SixPointP3(), TernarySweep(), CliMix())}
