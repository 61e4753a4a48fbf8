"""Compare the census fates and entries of two source trees.

Runs 42 censuses (seven networks, seeds 0-2, eta 1e-4 and 1e-6, 300 samples
each, the CLI's default of 2000 returns) on the `src` directory of each tree,
each tree in a subprocess of its own, and prints per census how many samples
moved from each old fate to each new one, whether the transient and the
period agree on every sample, and whether the census entries agree:

    python3 tools/fate_moves.py OLD_SRC NEW_SRC

A fate is synchronized, grazing, unresolved, a certified or an uncertified
cycle, or the name of the error its solve raised.  An entry is the count,
period, certified flag, itinerary and a SHA-256 of the point bytes of one
`cycle_census` entry; a census that raises has the error's name in place of
its entries.  The networks are mixed8, dale4 and dale64 (tests/golden; dale64
has uncertified cycles), net_c, net_d, net_death (the test fixtures) and a
12-neuron all-inhibitory network with |H| uniform in [0.6, 0.9]
(default_rng(12)).  The exit status is 0 whatever moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
NETWORKS = ["mixed8", "dale4", "dale64", "net_c", "net_d", "net_death", "inhib12"]
SEEDS, ETAS, SAMPLES = (0, 1, 2), (1e-4, 1e-6), 300


def build(name):
    import numpy as np
    from ifnet import load_config, network

    if name in ("mixed8", "dale4", "dale64"):
        return load_config(str(GOLDEN / f"{name}.json")).params
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
    """Print, as JSON, [fate, transient, period] of every sample and the
    entries of every census of the ifnet on sys.path."""
    from ifnet import cycles

    out = {}
    for name in NETWORKS:
        params = build(name)
        for seed in SEEDS:
            for eta in ETAS:
                rows = []
                for fate in row_fates(cycles._fates(params, cycles._census_starts(params, SAMPLES, seed), 2000, eta)):
                    if isinstance(fate, Exception):
                        rows.append([type(fate).__name__, None, None])
                    elif fate.outcome == "cycle":
                        kind = "certified" if fate.cycle.certified else "uncertified"
                        rows.append([f"{kind} cycle", fate.transient_steps, fate.cycle.period])
                    else:
                        rows.append([fate.outcome, fate.transient_steps, None])
                out[f"{name} seed {seed} eta {eta:g}"] = {"rows": rows, "entries": entries(params, seed, eta)}
    json.dump(out, sys.stdout)


def fates_of(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    run = subprocess.run([sys.executable, __file__, "--dump"], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def main(argv) -> int:
    if argv[1:] == ["--dump"]:
        dump()
        return 0
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[2])
    old, new = fates_of(argv[1]), fates_of(argv[2])
    moved, entry_moved = [], []
    for census, got in old.items():
        rows = list(zip(got["rows"], new[census]["rows"]))
        pairs = Counter((a[0], b[0]) for a, b in rows)
        differ = sum(a[1:] != b[1:] for a, b in rows)
        text = ", ".join(f"{a} -> {b}: {c}" if a != b else f"{a}: {c}" for (a, b), c in sorted(pairs.items()))
        was, now = (len(e) if isinstance(e, list) else e for e in (got["entries"], new[census]["entries"]))
        same = got["entries"] == new[census]["entries"]
        print(f"{census}: {text}; transient and period {'agree' if not differ else f'differ on {differ}'}; "
              f"entries {'agree' if same else f'differ ({was} -> {now})'}")
        if any(a != b for a, b in pairs) or differ:
            moved.append(census)
        if not same:
            entry_moved.append(census)
    for what, names in (("a fate move", moved), ("an entry move", entry_moved)):
        print(f"censuses with {what}: {len(names)} of {len(old)}" + (f" ({', '.join(names)})" if names else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
