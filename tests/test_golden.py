"""Byte-for-byte golden outputs of the command line.

Each case runs `ifnet.cli.main` in-process on a config kept in tests/golden/
and compares every file the run writes to its --out directory with the
recorded copy in tests/golden/<case>/.  The recorded bytes fix the JSON and
CSV output for a fixed (config, seed), so a refactor that moves any of them
shows up here.  A change that means to move them records the cases it moves
again with

    PYTHONPATH=src python tests/test_golden.py CASE...

(every case when none is named) and says so.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ifnet import config
from ifnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> argv, with config names relative to GOLDEN
CASES = {
    "analyze_net_c": ["analyze", "--config", "net_c.json"],
    "cycles_mixed8": ["cycles", "--config", "mixed8.json", "--samples", "30", "--eta", "1e-4"],
    "contract_net_c": ["contract", "--config", "net_c.json", "--samples", "300"],
    "simulate_mixed8": ["simulate", "--config", "mixed8_v0.json", "--max-iter", "300",
                        "--dt", "0.01", "--t-total", "20"],
    "simulate_net_c": ["simulate", "--config", "net_c_v0.json", "--max-iter", "2000",
                       "--dt", "0.01", "--t-total", "20"],
    "sweep_synchro_net_sync9": ["sweep", "--config", "net_sync9.json", "--cell", "synchro",
                                "--grid", "H:0.34:0.9:4", "--samples", "100"],
    "sweep_analyze_net_c": ["sweep", "--config", "net_c.json", "--cell", "analyze",
                            "--grid", "H:0.2:0.6:2", "--grid", "beta:1.1:1.3:2"],
    "expansion_net_b": ["expansion", "--config", "net_b.json", "--samples", "8"],
    "simulate_mixed8_transient": ["simulate", "--config", "mixed8_v0.json", "--max-iter", "20",
                                  "--dt", "0.01", "--t-total", "5"],
    "simulate_net_c_edges": ["simulate", "--config", "net_c_edges.json", "--max-iter", "7",
                             "--dt", "0.05", "--t-total", "3"],
    "cycles_dale4": ["cycles", "--config", "dale4.json", "--samples", "30"],
    # lambda = 0.99982 makes n0 about 3e4 returns: pins the bytes of a long adapted-metric check
    "contract_net_c_slow": ["contract", "--config", "net_c_slow.json", "--samples", "300"],
    # the census at the CLI defaults (1000 samples, eta 1e-6, seed 0), with H3 (mixed8) and without (dale4)
    "cycles_mixed8_default": ["cycles", "--config", "mixed8.json"],
    "cycles_dale4_default": ["cycles", "--config", "dale4.json"],
    # net_b has an anti-phase block, so this pins its two-step residual
    "analyze_net_b": ["analyze", "--config", "net_b.json"],
    "expansion_net_b_200": ["expansion", "--config", "net_b.json", "--samples", "200"],
    # pair (1, 2) meets O1 to O3 and neuron 3 fires on every witness
    "expansion_net_o3": ["expansion", "--config", "net_o3.json", "--samples", "20"],
    # n = 64 Dale network (rows 1-8 excitatory, |H| in [0.2, 0.5], default_rng(5)): cycles of
    # periods 16 and 6 above c_bar, and step batches past _kernels._DENSE_MAX terms
    "cycles_dale64": ["cycles", "--config", "dale64.json", "--samples", "200"],
}

# Test ids.  The first cases keep the "-<n>" suffix of the thread count they
# were once run under, so their reported names stay unchanged.
IDS = {name: f"{name}-{suffix}" for name, suffix in (
    ("analyze_net_c", 1), ("cycles_mixed8", 2), ("contract_net_c", 1),
    ("simulate_mixed8", 1), ("sweep_synchro_net_sync9", 1))}


def run_case(name: str, out: Path, stdout=None) -> int:
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
    with contextlib.redirect_stdout(stdout or io.StringIO()):
        return main(argv + ["--out", str(out)])


def outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def check_case(name: str, out: Path) -> None:
    """Run the case: every --out file holds the recorded bytes, and stdout the
    recorded <command>.json."""
    stdout = io.StringIO()
    assert run_case(name, out, stdout) == 0
    got = outputs(out)
    want = outputs(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{name}/{fname} differs from the recorded bytes"
    assert stdout.getvalue().encode("utf-8") == want[f"{CASES[name][0]}.json"]


@pytest.mark.parametrize("name", CASES, ids=[IDS.get(name, name) for name in CASES])
def test_golden_output(name, tmp_path):
    check_case(name, tmp_path / "out")


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", [name for name in CASES if name.startswith("simulate_")])
def test_golden_simulate_in_chunks_of_any_size(name, chunk, tmp_path, monkeypatch):
    # simulate.json, spikes.csv and trajectory.csv are written a chunk of rows at a time
    monkeypatch.setattr(config, "CHUNK_ROWS", chunk)
    check_case(name, tmp_path / "out")


def record(names) -> None:
    """Rewrite the recorded outputs of the named cases from the current code."""
    import shutil

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    for name in names:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        if run_case(name, GOLDEN / name) != 0:
            sys.exit(f"case {name} failed")


if __name__ == "__main__":
    record(sys.argv[1:] or list(CASES))
