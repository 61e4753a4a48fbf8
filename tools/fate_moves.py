"""Compare the census fates and entries of two source trees.

Runs 48 censuses (eight networks, seeds 0-2, eta 1e-4 and 1e-6, 300 samples
each, the CLI's default of 2000 returns) on each tree, each tree in a
subprocess of its own, and prints per census how many samples moved from
each old fate to each new one, how many transients got smaller and how many
larger, how many periods differ, whether the census entries agree, and each
tree's column-returns (the column counts of every `_kernels._step_columns`
call its fate table made).  A closing line per kind of move counts the
censuses with an outcome move, a larger transient, a period move and an
entry move.  Each path is a tree's root or its `src` directory: PATH/src is
read when PATH itself holds no `ifnet` package, and a path with neither
exits 2 with a usage line:

    python3 tools/fate_moves.py OLD NEW

A fate is synchronized, grazing, unresolved, a certified or an uncertified
cycle, or the name of the error its solve raised.  An entry is the count,
period, certified flag, itinerary and a SHA-256 of the point bytes of one
`cycle_census` entry; a census that raises has the error's name in place of
its entries.  The networks are mixed8, dale4 and dale64 (tests/golden; dale64
has uncertified cycles), net_c, net_d, net_death (the test fixtures), a
12-neuron all-inhibitory network with |H| uniform in [0.6, 0.9]
(default_rng(12)) and inhib64: the dale64 recipe of tools/step_bench.py
(`dale`) at n = 64 with no excitatory row, |H| uniform in [0.2, 0.5] from
default_rng(5), every row inhibitory and a zero diagonal.  Each inhib64
census merges the uncertified cycles of 296 to 300 of its samples into 5
entries, so a change to how entries join shows there.  The exit status is 0 whatever
moved, and 2 on a bad argument.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
NETWORKS = ["mixed8", "dale4", "dale64", "net_c", "net_d", "net_death", "inhib12", "inhib64"]
SEEDS, ETAS, SAMPLES = (0, 1, 2), (1e-4, 1e-6), 300
USAGE = "usage: python3 tools/fate_moves.py OLD NEW  (each a source tree's root or its src directory)"


def build(name):
    import numpy as np
    from ifnet import load_config, network

    if name in ("mixed8", "dale4", "dale64"):
        return load_config(str(GOLDEN / f"{name}.json")).params
    if name == "inhib64":
        from step_bench import dale  # tools/ is this script's directory, first on sys.path

        return dale(64, 0)
    H = {"net_c": [[0.0, 0.6, 0.6], [-0.6, 0.0, -0.6], [-0.6, -0.6, 0.0]],
         "net_d": [[0.0, -0.6], [-0.6, 0.0]],
         "net_death": [[0.0, 0.6, 0.6], [-0.9, 0.0, -0.6], [-0.9, -0.6, 0.0]],
         "inhib12": -np.random.default_rng(12).uniform(0.6, 0.9, (12, 12))}[name]
    return network(len(H), 1.0, 1.2, 1.0, -1.0, H)


def row_fates(got) -> list:
    """Each row's FateReport, or the error its solve raised, from a FateTable
    read row by row through its `report`."""
    fates = []
    for r in range(len(got.outcome)):
        try:
            fates.append(got.report(r))
        except Exception as exc:  # the solve's error, whatever its type
            fates.append(exc)
    return fates


def entries(params, seed, eta):
    """[count, period, certified, itinerary, points hash] of each entry of a
    census, or the name of the error it raised."""
    from ifnet import cycles

    try:
        rep = cycles.cycle_census(params, SAMPLES, seed, eta=eta)
    except Exception as exc:  # the solve's error, whatever its type
        return type(exc).__name__
    return [[e.count, e.cycle.period, e.cycle.certified, list(e.cycle.itinerary),
             hashlib.sha256(e.cycle.points.tobytes()).hexdigest()] for e in rep.entries]


def dump() -> None:
    """Print, as JSON, [fate, transient, period] of every sample, the entries
    and the column-returns of every census of the ifnet on sys.path."""
    from ifnet import _kernels, cycles

    step, columns = _kernels._step_columns, [0]

    def counted(params, X):
        columns[0] += X.shape[1]
        return step(params, X)

    out = {}
    for name in NETWORKS:
        params = build(name)
        for seed in SEEDS:
            for eta in ETAS:
                rows, columns[0], _kernels._step_columns = [], 0, counted
                table = cycles._fates(params, cycles._census_starts(params, SAMPLES, seed), 2000, eta)
                _kernels._step_columns = step
                for fate in row_fates(table):
                    if isinstance(fate, Exception):
                        rows.append([type(fate).__name__, None, None])
                    elif fate.outcome == "cycle":
                        kind = "certified" if fate.cycle.certified else "uncertified"
                        rows.append([f"{kind} cycle", fate.transient_steps, fate.cycle.period])
                    else:
                        rows.append([fate.outcome, fate.transient_steps, None])
                out[f"{name} seed {seed} eta {eta:g}"] = {"rows": rows, "entries": entries(params, seed, eta),
                                                          "columns": columns[0]}
    json.dump(out, sys.stdout)


def source(path: str) -> Path:
    """The directory that holds a tree's `ifnet` package: PATH or PATH/src."""
    for src in (Path(path), Path(path) / "src"):
        if (src / "ifnet" / "__init__.py").is_file():
            return src.resolve()
    usage()


def usage() -> None:
    print(USAGE, file=sys.stderr)
    sys.exit(2)


def fates_of(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def main(argv) -> int:
    if argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(argv) != 3:
        usage()
    old, new = (fates_of(src) for src in [source(argv[1]), source(argv[2])])
    moved = {"an outcome move": [], "a larger transient": [], "a period move": [], "an entry move": []}
    for census, got in old.items():
        rows = list(zip(got["rows"], new[census]["rows"]))
        pairs = Counter((a[0], b[0]) for a, b in rows)
        both = [(a[1], b[1]) for a, b in rows if a[1] is not None and b[1] is not None]  # transients of both trees
        smaller, larger = sum(b < a for a, b in both), sum(b > a for a, b in both)
        periods = sum(a[2] != b[2] for a, b in rows)
        text = ", ".join(f"{a} -> {b}: {c}" if a != b else f"{a}: {c}" for (a, b), c in sorted(pairs.items()))
        was, now = (len(e) if isinstance(e, list) else e for e in (got["entries"], new[census]["entries"]))
        same = got["entries"] == new[census]["entries"]
        print(f"{census}: {text}; transients {smaller} smaller, {larger} larger; periods differ on {periods}; "
              f"entries {'agree' if same else f'differ ({was} -> {now})'}; "
              f"column-returns {got['columns']} -> {new[census]['columns']}")
        for what, hit in zip(moved, (any(a != b for a, b in pairs), larger, periods, not same)):
            if hit:
                moved[what].append(census)
    for what, names in moved.items():
        print(f"censuses with {what}: {len(names)} of {len(old)}" + (f" ({', '.join(names)})" if names else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
