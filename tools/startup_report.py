"""Print the start-up cost of `import ifnet; ifnet.load_config(CONFIG)` in
fresh interpreters, for one or more checkouts side by side:

    python3 tools/startup_report.py [--config CONFIG] ROOT...

ROOT is the root of a checkout, holding `src/` and `bench/`.  Per ROOT it
prints two figures:

- probe_s: the benchmark's own set-up probe, `measure_setup` of that root's
  `bench/run.py`: the median over 9 fresh interpreters of their rescaled
  set-up time (the bench's `setup_s`);
- ifnet_import_ms: the self time `python -X importtime` gives the modules
  of the ifnet package, summed per interpreter, median over 9.

CONFIG (bench/fixtures/mixed8.json by default) is read relative to each
ROOT.  Set-up time has the interpreter's and NumPy's start in it, so only
the difference between two roots on one machine means much.
"""

import argparse
import statistics
import subprocess
import sys

REPEATS = 9
PROBE = "import sys; sys.path.insert(0, 'bench'); import run; print(run.measure_setup(sys.argv[1])[0])"
LOAD = "import sys; sys.path.insert(0, 'src'); import ifnet; ifnet.load_config(sys.argv[1])"


def ifnet_import_ms(root: str, config: str) -> float:
    """Sum of the `-X importtime` self times of the ifnet modules, in ms, of one
    fresh interpreter running LOAD in root."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", LOAD, config], cwd=root,
                          capture_output=True, text=True, check=True)
    # each line: "import time: SELF_US | CUMULATIVE_US | [indent]MODULE"
    rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return sum(int(r[0].split(":")[1]) for r in rows if r[2].strip().split(".")[0] == "ifnet") / 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="bench/fixtures/mixed8.json")
    ap.add_argument("roots", nargs="+")
    args = ap.parse_args(argv)
    for root in args.roots:
        probe = subprocess.run([sys.executable, "-c", PROBE, args.config], cwd=root,
                               capture_output=True, text=True, check=True)
        imports = statistics.median(ifnet_import_ms(root, args.config) for _ in range(REPEATS))
        print(f"{root}  probe_s {float(probe.stdout):.4f}  ifnet_import_ms {imports:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
