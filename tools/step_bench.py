"""Time the return-map step and censuses on two trees, and pair their bench runs.

    python3 tools/step_bench.py PARENT_ROOT CHANGE_ROOT [--out BENCH_step_filter.json]
        [--cases CASE ...] [--workloads W ...]

PARENT_ROOT and CHANGE_ROOT are checkouts of the repository (each with src/
and bench/).  The network is the dale64 recipe at size n with k excitatory
rows (n/8 unless a case names k): `default_rng(5)`, |H| uniform in
[0.2, 0.5], rows 0..k-1 excitatory and the rest inhibitory, a zero
diagonal, gamma 1, beta 1.2, theta 1, alpha -1.  A case is

- "step n": one `_kernels.step_batch` call on the 1000 census starts
  `cycles._census_starts(p, 1000, 0)`;
- "census n [k [samples]]": `cycles.cycle_census(p, samples, 0)`, 200
  samples unless it names them;
- "census mixed8": the eight censuses of one bench `census` run at seed 1,
  on bench/fixtures/mixed8.json with 30 samples and eta 1e-4, at the seeds
  `sub_seed(1, k)`, k = 0..7, of bench/workloads.py;
- "live net_a": one start of net_a (two neurons, coupling 0.5; its exact
  anti-phase start 0.9;0) held live for 2000 returns by `cycles._fates`,
  with `cycles._MAX_PERIOD` set to 1, below the orbit's period 2.

The default cases are step 64, step 256, step 512 and census 256.  Each case
runs alone in --processes fresh interpreters per tree, the trees
alternating, and records per process the best of --repeats timed calls
after one untimed call (with --repeats 0, the time of that one call), the
process's peak RSS (`ru_maxrss`) and the SHA-256 of (out, fired) or of the
census reports' or fate table's repr; the two trees' hashes must agree.
Then `bench/run.py --trace 0` runs from each root for every workload of
--workloads, --pairs pairs of runs (--claim-pairs for the --claim workload,
sweep_sync unless named, whose work_per_s is the claim when it runs), the
parent first in even-numbered pairs.  The record holds
every run, the claim and per workload the quartiles of each end-to-end
metric (the shape of the other BENCH_*.json records).  With --pairs 0 it
only times the cases.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

CASES = ["step 64", "step 256", "step 512", "census 256"]
WORKLOADS = ["sweep_sync", "census", "contract", "simulate"]
METRICS = {"work_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}


def dale(n, k=None):
    """The dale64 recipe at size n with k excitatory rows, n/8 by default."""
    import numpy as np
    from ifnet import network

    H = np.random.default_rng(5).uniform(0.2, 0.5, (n, n))
    H[n // 8 if k is None else k:] *= -1.0
    np.fill_diagonal(H, 0.0)
    return network(n, 1.0, 1.2, 1.0, -1.0, H)


def digest(result):
    """SHA-256 of a step's (out, fired) bytes or of a census report's repr."""
    import numpy as np

    if isinstance(result, tuple):
        return hashlib.sha256(result[0].tobytes() + result[1].tobytes()).hexdigest()
    with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
        return hashlib.sha256(repr(result).encode()).hexdigest()


def runner(case):
    """The call that one case times, for the ifnet (and bench/) on sys.path."""
    import numpy as np
    from ifnet import _kernels, cycles, load_config, network

    kind, n, *rest = case.split()
    if case == "census mixed8":
        from workloads import FIXTURES, sub_seed

        p = load_config(str(FIXTURES / "mixed8.json")).params
        return lambda: [cycles.cycle_census(p, 30, sub_seed(1, k), eta=1e-4) for k in range(8)]
    if case == "live net_a":
        cycles._MAX_PERIOD = 1
        p = network(2, 1.0, 1.2, 1.0, -1.0, [[0.0, 0.5], [0.5, 0.0]])
        return partial(cycles._fates, p, np.array([[0.9, 0.0]]), 2000, 1e-6)
    p = dale(int(n), *map(int, rest[:1]))
    return (partial(_kernels.step_batch, p, cycles._census_starts(p, 1000, 0)) if kind == "step"
            else partial(cycles.cycle_census, p, int(rest[1]) if rest[1:] else 200, 0))


def child(case, repeats):
    """Print [best ms, sha256, peak RSS MB] of one case for the ifnet on sys.path."""
    run = runner(case)
    times = []
    for _ in range(1 + repeats):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps([round(1e3 * min(times[1:] or times), 3), digest(result), round(rss, 1)]))


def time_cases(roots, cases, processes, repeats):
    out = {}
    for case in cases:
        per = {side: [] for side in roots}
        for k in range(processes):
            for side in (list(roots) if k % 2 == 0 else list(roots)[::-1]):
                cmd = [sys.executable, __file__, "--child", case, "--repeats", str(repeats)]
                path = os.pathsep.join(str(roots[side] / d) for d in ("src", "bench"))
                proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path},
                                      capture_output=True, text=True, check=True)
                per[side].append(json.loads(proc.stdout))
        rec = {}
        for side in roots:
            ms, rss = [r[0] for r in per[side]], [r[2] for r in per[side]]
            rec[f"{side}_ms"], rec[f"{side}_median_ms"] = ms, statistics.median(ms)
            rec[f"{side}_peak_rss_mb"], rec[f"{side}_median_peak_rss_mb"] = rss, round(statistics.median(rss), 1)
            rec[f"{side}_sha256"] = sorted({r[1] for r in per[side]})
        rec["speedup"] = round(rec["parent_median_ms"] / rec["change_median_ms"], 2)
        rec["sha256_equal"] = rec["parent_sha256"] == rec["change_sha256"] and len(rec["parent_sha256"]) == 1
        out[case] = rec
    return out


def bench_run(root, workload, seed):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    run = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
           "output_sha256": record["output_sha256"]}
    run.update({m: round(result["metrics"][m]["value"], 6) for m in METRICS})
    return run


def quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs, workload):
    side = {w: [r for r in runs if r["workload"] == workload and r["which"] == w] for w in ("parent", "change")}
    out = {"seeds": sorted({r["seed"] for r in side["change"]}), "pairs": len(side["change"]),
           "output_sha256_equal": {r["output_sha256"] for r in side["parent"]}
           == {r["output_sha256"] for r in side["change"]},
           "failed": {w: sum(r["failed"] for r in side[w]) for w in side},
           "correct": all(r["correct"] for r in runs if r["workload"] == workload)}
    for metric, better in METRICS.items():
        p, c = ([r[metric] for r in side[w]] for w in ("parent", "change"))
        wins = sum((b > a) if better == "higher" else (b < a) for a, b in zip(p, c))
        out[metric] = {"better": better, "parent_q1_median_q3": quartiles(p), "change_q1_median_q3": quartiles(c),
                       "median_ratio": round(statistics.median(c) / statistics.median(p), 4),
                       "change_better_pairs": wins}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("parent", nargs="?", type=Path)
    ap.add_argument("change", nargs="?", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_step_filter.json"))
    ap.add_argument("--cases", nargs="+", default=CASES)
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    ap.add_argument("--processes", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--claim", default="sweep_sync", choices=WORKLOADS, help="the workload whose work_per_s is claimed")
    ap.add_argument("--expected", default="about 1.04x", help="the gain the claim expects")
    ap.add_argument("--claim-pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=401, help="first bench seed")
    args = ap.parse_args()
    if args.child is not None:
        return child(args.child, args.repeats)
    if args.parent is None or args.change is None:
        ap.error("PARENT_ROOT and CHANGE_ROOT are required")
    import numpy as np

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"label": args.out.stem.removeprefix("BENCH_"),
              "what": f"the cases {', '.join(args.cases)} of tools/step_bench.py (each alone in "
                      f"{args.processes} processes per tree, trees alternating; "
                      + (f"best of {args.repeats} calls after one untimed call" if args.repeats else "one call")
                      + ", and the process's peak RSS), then bench/run.py end-to-end runs, of a parent tree "
                      "and a change",
              "machine": f"{os.cpu_count()} CPUs, CPython {platform.python_version()}, numpy {np.__version__}",
              "command": "python3 bench/run.py --workload W --seed S --seconds 20 --trace 0, from each root",
              "order": "pairs one after another, the parent first in even-numbered pairs; workloads in the order "
                       + ", ".join(args.workloads),
              "cases": time_cases(roots, args.cases, args.processes, args.repeats)}
    runs = []
    for workload in args.workloads if args.pairs else []:
        for k in range(args.claim_pairs if workload == args.claim else args.pairs):
            for which in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                run = bench_run(roots[which], workload, args.seed + k)
                runs.append({"workload": workload, "seed": args.seed + k, "pair": k, "which": which, **run})
                print(json.dumps(runs[-1]), file=sys.stderr)
    if runs:
        record["summary"] = {w: summarize(runs, w) for w in args.workloads}
        if args.claim in args.workloads:
            m = record["summary"][args.claim]["work_per_s"]
            gain = m["change_q1_median_q3"][1] - m["parent_q1_median_q3"][1]
            iqr = m["parent_q1_median_q3"][2] - m["parent_q1_median_q3"][0]
            pairs = record["summary"][args.claim]["pairs"]
            record["claim"] = {"workload": args.claim, "metric": "work_per_s", "better": "higher", "pairs": pairs,
                               "expected": args.expected,
                               "change_better_pairs": m["change_better_pairs"], "median_ratio": m["median_ratio"],
                               "median_gain": round(gain, 6), "parent_iqr": round(iqr, 6),
                               "met": m["change_better_pairs"] >= 0.9 * pairs and gain > iqr}
        record["runs"] = runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
