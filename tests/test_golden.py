"""Byte-for-byte golden outputs of the command line.

Each case runs `ifnet.cli.main` in-process on a config kept in tests/golden/
and compares every file the run writes to its --out directory with the
recorded copy in tests/golden/<case>/.  The recorded bytes fix the JSON and
CSV output for a fixed (config, seed, thread count), so a refactor that
moves any of them shows up here.  A change that means to move them records
them again with

    PYTHONPATH=src python tests/test_golden.py

and says so.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ifnet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# case -> (argv with config names relative to GOLDEN, IFNET_THREADS values)
CASES = {
    "analyze_net_c": (["analyze", "--config", "net_c.json"], ("1",)),
    "cycles_mixed8": (["cycles", "--config", "mixed8.json", "--samples", "30",
                       "--eta", "1e-4"], ("2",)),
    "contract_net_c": (["contract", "--config", "net_c.json", "--samples", "300"], ("1",)),
    "simulate_mixed8": (["simulate", "--config", "mixed8_v0.json", "--max-iter", "300",
                         "--dt", "0.01", "--t-total", "20"], ("1",)),
    "sweep_synchro_net_sync9": (["sweep", "--config", "net_sync9.json", "--cell", "synchro",
                                 "--grid", "H:0.34:0.9:4", "--samples", "100"], ("1", "2")),
}


def run_case(name: str, out: Path) -> int:
    argv, _ = CASES[name]
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv + ["--out", str(out)])


def outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name,threads", [
    (name, t) for name, (_, threads) in CASES.items() for t in threads
])
def test_golden_output(name, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("IFNET_THREADS", threads)
    assert run_case(name, tmp_path / "out") == 0
    got = outputs(tmp_path / "out")
    want = outputs(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for fname, data in want.items():
        assert got[fname] == data, f"{name}/{fname} differs from the recorded bytes"


def record() -> None:
    """Rewrite every case's recorded outputs from the current code."""
    import os
    import shutil

    for name, (_, threads) in CASES.items():
        os.environ["IFNET_THREADS"] = threads[0]
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        if run_case(name, GOLDEN / name) != 0:
            sys.exit(f"case {name} failed")


if __name__ == "__main__":
    record()
