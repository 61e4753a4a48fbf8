"""Compare the census fates of two source trees, sample by sample.

Runs 36 censuses (six networks, seeds 0-2, eta 1e-4 and 1e-6, 300 samples
each, the CLI's default of 2000 returns) on the `src` directory of each tree,
each tree in a subprocess of its own, and prints per census how many samples
moved from each old fate to each new one, and whether the transient and the
period agree on every sample:

    python3 tools/fate_moves.py OLD_SRC NEW_SRC

A fate is synchronized, grazing, unresolved, a certified or an uncertified
cycle, or the name of the error its solve raised.  The networks are mixed8 and
dale4 (tests/golden), net_c, net_d, net_death (the test fixtures) and a
12-neuron all-inhibitory network with |H| uniform in [0.6, 0.9]
(default_rng(12)).  The exit status is 0 whatever moved.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
NETWORKS = ["mixed8", "dale4", "net_c", "net_d", "net_death", "inhib12"]
SEEDS, ETAS, SAMPLES = (0, 1, 2), (1e-4, 1e-6), 300


def build(name):
    import numpy as np
    from ifnet import load_config, network

    if name in ("mixed8", "dale4"):
        return load_config(str(GOLDEN / f"{name}.json")).params
    H = {"net_c": [[0.0, 0.6, 0.6], [-0.6, 0.0, -0.6], [-0.6, -0.6, 0.0]],
         "net_d": [[0.0, -0.6], [-0.6, 0.0]],
         "net_death": [[0.0, 0.6, 0.6], [-0.9, 0.0, -0.6], [-0.9, -0.6, 0.0]],
         "inhib12": -np.random.default_rng(12).uniform(0.6, 0.9, (12, 12))}[name]
    return network(len(H), 1.0, 1.2, 1.0, -1.0, H)


def dump() -> None:
    """Print, as JSON, [fate, transient, period] of every sample of every census
    of the ifnet on sys.path."""
    from ifnet import cycles

    out = {}
    for name in NETWORKS:
        params = build(name)
        for seed in SEEDS:
            for eta in ETAS:
                fates, _ = cycles._fates(params, cycles._census_starts(params, SAMPLES, seed), 2000, eta)
                rows = []
                for fate in fates:
                    if isinstance(fate, Exception):
                        rows.append([type(fate).__name__, None, None])
                    elif fate.outcome == "cycle":
                        kind = "certified" if fate.cycle.certified else "uncertified"
                        rows.append([f"{kind} cycle", fate.transient_steps, fate.cycle.period])
                    else:
                        rows.append([fate.outcome, fate.transient_steps, None])
                out[f"{name} seed {seed} eta {eta:g}"] = rows
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
    moved = []
    for census, rows in old.items():
        pairs = Counter((a[0], b[0]) for a, b in zip(rows, new[census]))
        differ = sum(a[1:] != b[1:] for a, b in zip(rows, new[census]))
        text = ", ".join(f"{a} -> {b}: {c}" if a != b else f"{a}: {c}" for (a, b), c in sorted(pairs.items()))
        print(f"{census}: {text}; transient and period {'agree' if not differ else f'differ on {differ}'}")
        if any(a != b for a, b in pairs) or differ:
            moved.append(census)
    print(f"censuses with a move: {len(moved)} of {len(old)}" + (f" ({', '.join(moved)})" if moved else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
