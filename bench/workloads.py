"""The benchmark's workloads: CLI arguments, units of work and domain checks.

Each workload turns the run's seed into a few distinct inputs (one CLI
invocation each).  The benchmark repeats them in rounds, so every input is
timed several times and the inputs of one seed average out their mix of
cheap and dear samples.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import ifnet
from ifnet.cycles import CycleCertificate

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# why each fixture network is a benchmark input
FIXTURE_WHY = {
    "mixed8": "n=8 Dale network, one excitatory row: seeds give a certified period-6 cycle "
              "(~70% of starts) and ~30% synchronized starts, so refinement, certification "
              "and dedup all run",
    "net_c": "the tests' 1 excitatory + 2 inhibitory network, |H|=0.6: satisfies H3/H4, so "
             "zone contraction, absorption and the adapted metric all apply",
    "net_sync9": "nine all-to-all excitatory neurons: every H in the sweep keeps "
                 "ceil(theta/H)^2 <= 9, so global synchronization holds in every cell",
}


def sub_seed(seed: int, k: int) -> int:
    """Seed of input k of a run, a 63-bit integer fixed by (seed, k)."""
    digest = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Input:
    argv: list
    config: Path
    out: Optional[Path] = None


class Workload:
    name = ""
    why = ""
    fixture = ""
    inputs_per_run = 1

    def inputs(self, seed: int, work: Path) -> list:
        return [self.make_input(sub_seed(seed, k), k, work) for k in range(self.inputs_per_run)]

    def make_input(self, seed: int, k: int, work: Path) -> Input:
        raise NotImplementedError

    def units(self, inp: Input, doc: dict) -> int:
        raise NotImplementedError

    def check(self, inp: Input, doc: dict) -> list:
        """Domain-check failures of one invocation's output (empty when sound)."""
        raise NotImplementedError

    def cells(self, doc: dict) -> tuple:
        """(attempted, failed) sweep cells inside one invocation."""
        return 0, 0


class Census(Workload):
    name = "census"
    why = "cycle census on mixed8: per-sample params invariants and dynamics wrappers dominate; no L1 batch driver runs"
    fixture = "mixed8"
    samples = 30
    inputs_per_run = 8

    def __init__(self):
        self._params = None

    def make_input(self, seed, k, work):
        config = FIXTURES / "mixed8.json"
        return Input(["cycles", "--config", str(config), "--eta", "1e-4",
                      "--samples", str(self.samples), "--seed", str(seed)], config)

    def units(self, inp, doc):
        return int(doc["samples"])

    def check(self, inp, doc):
        if self._params is None:
            self._params = ifnet.load_config(str(inp.config)).params
        problems = []
        total = (doc["synchronized_fraction"] + doc["grazing_fraction"]
                 + doc["unresolved_fraction"] + sum(c["basin_fraction"] for c in doc["cycles"]))
        if abs(total - 1.0) > 1e-9:
            problems.append(f"fate fractions sum to {total!r}")
        for idx, c in enumerate(doc["cycles"]):
            cert = c["certificate"]
            if not c["certified"] or cert is None:
                problems.append(f"cycle {idx} is not certified")
                continue
            cycle = ifnet.LimitCycle(
                period=c["period"], points=np.array(c["points"], dtype=np.float64),
                itinerary=tuple(c["itinerary"]), min_margin=c["min_margin"],
                certificate=CycleCertificate(lam=cert["lambda"], ball_radius=cert["ball_radius"],
                                             residual=cert["residual"]),
                certified=True, time_period=c["time_period"],
            )
            if not ifnet.certify_cycle(self._params, cycle):
                problems.append(f"cycle {idx} fails re-certification")
        return problems


class Contract(Workload):
    name = "contract"
    why = "contraction, absorption and adapted-metric checks on net_c: cli._metric_check over dynamics wrappers, plus batched L1 drivers"
    fixture = "net_c"
    samples = 300
    inputs_per_run = 6

    def make_input(self, seed, k, work):
        config = FIXTURES / "net_c.json"
        return Input(["contract", "--config", str(config),
                      "--samples", str(self.samples), "--seed", str(seed)], config)

    def units(self, inp, doc):
        zones = sum(int(z["pairs"]) for z in doc["zones"])
        return zones + self.samples + int(doc["adapted_metric"]["pairs_checked"])

    def check(self, inp, doc):
        problems = [f"zone c={z['c']!r} has {z['violations']} violations"
                    for z in doc["zones"] if z["violations"]]
        if not doc["absorption"]["ok"]:
            problems.append("absorption check failed")
        if not doc["adapted_metric"]["ok"]:
            problems.append("adapted metric check failed")
        return problems


class Simulate(Workload):
    name = "simulate"
    why = "one long net_c orbit written as JSON and CSV: L3 serialization dominates and one orbit cannot be batched"
    fixture = "net_c"
    max_iter = 50000
    inputs_per_run = 2

    def make_input(self, seed, k, work):
        doc = json.loads((FIXTURES / "net_c.json").read_text(encoding="utf-8"))
        rng = np.random.default_rng(seed)
        v0 = rng.uniform(doc["alpha"], doc["theta"], size=doc["n"])
        v0[rng.integers(doc["n"])] = 0.0
        doc["V0"] = [float(x) for x in v0]
        config = work / f"simulate_{k}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = work / f"simulate_{k}"
        return Input(["simulate", "--config", str(config), "--max-iter", str(self.max_iter),
                      "--dt", "0.01", "--t-total", "200", "--out", str(out)], config, out)

    def units(self, inp, doc):
        return int(doc["steps"])

    def check(self, inp, doc):
        with open(inp.out / "spikes.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != self.max_iter:
            problems.append(f"spikes.csv has {len(rows)} rows, expected {self.max_iter}")
        cum = [float(r["cum_time"]) for r in rows]
        if any(b < a for a, b in zip(cum, cum[1:])):
            problems.append("cum_time decreases")
        return problems


class SweepSync(Workload):
    name = "sweep_sync"
    why = "16-cell synchronization sweep on net_sync9: ~90% in _kernels.sync_run/step, per-cell set-up negligible"
    fixture = "net_sync9"
    samples = 300
    inputs_per_run = 6

    def make_input(self, seed, k, work):
        config = FIXTURES / "net_sync9.json"
        return Input(["sweep", "--config", str(config), "--cell", "synchro",
                      "--grid", "H:0.34:0.9:16", "--samples", str(self.samples),
                      "--seed", str(seed)], config)

    def units(self, inp, doc):
        return sum(int(c["result"]["samples"]) for c in doc["cells"] if c["status"] == "ok")

    def check(self, inp, doc):
        return [f"cell {c['index']} is not ok" for c in doc["cells"]
                if c["status"] != "ok" or not c["result"]["ok"]]

    def cells(self, doc):
        bad = sum(1 for c in doc["cells"] if c["status"] != "ok" or not c["result"]["ok"])
        return len(doc["cells"]), bad


WORKLOADS = {w.name: w for w in (Census, Contract, Simulate, SweepSync)}
