"""Benchmark of the ifnet command line, end to end and layer by layer.

Run from the root of a checkout (no install needed, the package is imported
from src/):

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads are `census`, `contract`, `simulate` and `sweep_sync` (see
workloads.py).  Every invocation goes through the public entry point
`ifnet.cli.main` in this process, with IFNET_THREADS pinned to 2 (the
CLI default on a 2-CPU machine), so the census and sweep thread pools run.

Times are rescaled to a reference machine speed (see calibrate.py): each
measured call is flanked by a fixed reference loop, and its wall time is
multiplied by REFERENCE_S over the loop's mean time.  On a shared machine
the raw wall time of one call moves by up to 2x with the host's load, for
seconds to minutes at a time; the rescaled time moves far less.  The raw
figures are kept in the record line.

With --trace 0 the run reports the end-to-end metrics:

- work_per_s: units of work per second of a warm `cli.main` call.  The
  seed gives a few distinct inputs (so one run averages over their differing
  costs); they are run in rounds until --seconds have passed (at least two
  rounds), and the rate is the summed units of the inputs over the sum of
  each input's median rescaled wall time.
- setup_s: median over fresh interpreters of the rescaled time they spend in
  `import ifnet` and `load_config` of the workload's config (interpreter
  start-up, which the package cannot change, is left out).
- peak_rss_mb: peak RSS of a fresh process that runs the first input once.

With --trace 1 each round runs every input untraced and then traced by the
boundary tracer (tracer.py), and the run reports the per-layer metrics,
medians over rounds.  Counts that must repeat exactly for a fixed seed are
compared between rounds; drift counts as a failure.

Every invocation counts as an operation (each sweep cell as one more).  An
operation fails on a non-zero exit code, an exception, a failed domain check
or output bytes that differ from the first run of the same input.  The last
line of stdout is the result object; the line before it records the
environment, the output checksum and the raw timings.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import rescale, reference_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the CLI default (the CPU count) on the machine the bounds were set on
THREADS = "2"
SETUP_REPEATS = 9
MIN_ROUNDS = 2
MAX_MEASURE_S = 90.0  # no round starts later, so a run ends well inside 180 s
CHILD_TIMEOUT_S = 150

SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); from calibrate import reference_s; "
    "r0 = reference_s(); t0 = time.perf_counter(); sys.path.insert(0, sys.argv[2]); "
    "import ifnet; ifnet.load_config(sys.argv[3]); t1 = time.perf_counter(); "
    "print(t1 - t0, r0, reference_s())"
)
CLI_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); from ifnet import cli; sys.exit(cli.main(sys.argv[2:]))"

END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# traced-run metrics that come from the run itself rather than from a boundary
RUN_UNITS = {"cli.output_bytes": "bytes", "trace.wall_s": "s", "trace.overhead_s": "s",
             "trace.absent_boundaries": "count"}


class Terminated(BaseException):
    """SIGTERM, raised so that clean-up runs (Ops.run catches SystemExit)."""


def _terminate(signum, frame):
    raise Terminated()


def git_sha():
    """Commit of the checkout, or None outside a git working tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(ifnet, numpy):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "IFNET_THREADS": os.environ["IFNET_THREADS"],
        "IFNET_NUMBA": os.environ.get("IFNET_NUMBA"),
        "numba_enabled": bool(ifnet.NUMBA_ENABLED),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


class Ops:
    """Runs CLI invocations in this process and keeps the error count."""

    def __init__(self, workload, inputs):
        from ifnet import cli

        self._cli = cli
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = [None] * len(inputs)
        self.units = [0] * len(inputs)
        self.output_bytes = [0] * len(inputs)

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run(self, k):
        """One invocation of input k; its wall time, or None if it failed."""
        inp = self.inputs[k]
        if inp.out is not None:
            shutil.rmtree(inp.out, ignore_errors=True)
        buf = io.StringIO()
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self._cli.main(inp.argv)
        except (Exception, SystemExit) as exc:
            self.fail(f"input {k}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        if rc != 0:
            self.fail(f"input {k}: exit code {rc}")
            return None
        text = buf.getvalue().encode("utf-8")
        digest = hashlib.sha256(text)
        size = len(text)
        if inp.out is not None:
            for path in sorted(inp.out.iterdir()):
                data = path.read_bytes()
                digest.update(path.name.encode("utf-8") + b"\0" + data)
                size += len(data)
        digest = digest.hexdigest()
        if self.digests[k] is not None:
            if digest != self.digests[k]:
                self.fail(f"input {k}: output differs from its first run")
                return None
            return wall
        doc = json.loads(text)
        cells, bad_cells = self.workload.cells(doc)
        self.attempted += cells
        for _ in range(bad_cells):
            self.fail(f"input {k}: sweep cell failed")
        problems = self.workload.check(inp, doc)
        if problems:
            self.fail(f"input {k}: " + "; ".join(problems))
            return None
        self.digests[k] = digest
        self.units[k] = self.workload.units(inp, doc)
        self.output_bytes[k] = size
        return wall

    def output_sha256(self):
        return hashlib.sha256("".join(d or "-" for d in self.digests).encode()).hexdigest()


def child_env():
    return dict(os.environ, IFNET_THREADS=THREADS)


def measure_peak_rss(ops):
    """Peak RSS (MB) of a fresh process running the first input once.

    Must run before any other child process: RUSAGE_CHILDREN reports the
    largest child waited for so far."""
    inp = ops.inputs[0]
    ops.attempted += 1
    proc = subprocess.run([sys.executable, "-c", CLI_CHILD, str(SRC), *inp.argv],
                          stdout=subprocess.DEVNULL, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        ops.fail(f"peak-rss child: exit code {proc.returncode}")
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def measure_setup(config):
    """Median rescaled and raw set-up time of fresh interpreters.  Each child
    times itself and runs the reference loop before and after, on its own CPU."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(BENCH), str(SRC), str(config)],
                              env=child_env(), timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}: {proc.stderr}")
        wall, ref_before, ref_after = map(float, proc.stdout.split())
        raw.append(wall)
        scaled.append(rescale(wall, ref_before, ref_after))
    return statistics.median(scaled), statistics.median(raw)


def keep_going(rounds, start, seconds):
    elapsed = time.perf_counter() - start
    return elapsed < MAX_MEASURE_S and (rounds < MIN_ROUNDS or elapsed < seconds)


def run_end_to_end(ops, seconds, config):
    rss = measure_peak_rss(ops)
    setup, raw_setup = measure_setup(config)
    ops.run(0)  # warm-up: imports, caches
    walls = [[] for _ in ops.inputs]  # rescaled
    raw = [[] for _ in ops.inputs]
    rounds = 0
    refs = [reference_s()]
    start = time.perf_counter()
    while keep_going(rounds, start, seconds):
        for k in range(len(ops.inputs)):
            wall = ops.run(k)
            refs.append(reference_s())
            if wall is not None:
                raw[k].append(wall)
                walls[k].append(rescale(wall, refs[-2], refs[-1]))
        rounds += 1

    def rate(per_input):
        typical = [statistics.median(w) for w in per_input if w]
        return sum(ops.units) / sum(typical) if len(typical) == len(per_input) else 0.0

    metrics = {"work_per_s": rate(walls), "setup_s": setup, "peak_rss_mb": rss}
    detail = {"rounds": rounds, "raw_work_per_s": rate(raw), "raw_setup_s": raw_setup,
              "walls": walls, "raw_walls": raw, "reference_s": refs}
    return metrics, detail


def run_traced(ops, seconds):
    from tracer import ANCHORS, LAYER_METRICS, Tracer, layer_values

    tracer = Tracer()
    ops.run(0)  # warm-up
    per_round = []
    plain_walls, traced_walls = [], []
    absent = []
    rounds = 0
    start = time.perf_counter()
    while keep_going(rounds, start, seconds):
        tracer.reset()
        plain = traced = 0.0
        for k in range(len(ops.inputs)):
            plain += ops.run(k) or 0.0
            tracer.install()
            try:
                traced += ops.run(k) or 0.0
            finally:
                tracer.uninstall()
        values, absent = layer_values(tracer.stats)
        if per_round:
            drift = [a for a in ANCHORS if values[a] != per_round[0][a]]
            if drift:
                ops.fail(f"round {rounds}: exact counts drifted: {drift}")
        per_round.append(values)
        plain_walls.append(plain)
        traced_walls.append(traced)
        rounds += 1
    metrics = {m: statistics.median(r[m] for r in per_round) for m in LAYER_METRICS}
    metrics["cli.output_bytes"] = sum(ops.output_bytes)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_walls, plain_walls))
    metrics["trace.absent_boundaries"] = len(absent)
    units = {m: spec[0] for m, spec in LAYER_METRICS.items()} | RUN_UNITS
    detail = {"rounds": rounds, "absent_boundaries": absent, "observer_errors": tracer.observer_errors,
              "plain_round_walls": plain_walls, "traced_round_walls": traced_walls}
    return metrics, units, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ifnet" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ["IFNET_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import ifnet

    if Path(ifnet.__file__).resolve().parent != SRC / "ifnet":
        print(f"bench: imported ifnet from {ifnet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import FIXTURE_WHY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    signal.signal(signal.SIGTERM, _terminate)
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=BENCH))
    try:
        inputs = workload.inputs(args.seed, work)
        ops = Ops(workload, inputs)
        if args.trace:
            metrics, units, detail = run_traced(ops, args.seconds)
        else:
            metrics, detail = run_end_to_end(ops, args.seconds, inputs[0].config)
            units = END_TO_END_UNITS
    except Terminated:
        print("bench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "fixture": workload.fixture, "fixture_why": FIXTURE_WHY[workload.fixture],
        "env": environment(ifnet, numpy), "inputs": len(inputs), "units": ops.units,
        "output_sha256": ops.output_sha256(), "problems": ops.problems, **detail,
    }
    print(json.dumps(record))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
