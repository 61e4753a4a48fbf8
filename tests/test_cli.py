import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ifnet import ParseError, RejectConfig, _kernels, dynamics
from ifnet.cli import main
from ifnet.config import dump_json, load_config, params_to_doc, parse_config
from ifnet.cycles import cycle_census
from ifnet.dynamics import sample_trajectory

NET_A_DOC = {
    "n": 2, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
    "H": [[0.0, 0.5], [0.5, 0.0]], "V0": [0.9, 0.0],
}
NET_C_DOC = {
    "n": 3, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
    "H": [[0.0, 0.6, 0.6], [-0.6, 0.0, -0.6], [-0.6, -0.6, 0.0]],
}
NET_D_DOC = {
    "n": 2, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
    "H": [[0.0, -0.6], [-0.6, 0.0]],
}


def write_config(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "ifnet", *args], capture_output=True, text=True)


# ---------------------------------------------------------------- config


def test_config_round_trip(net_c):
    doc = params_to_doc(net_c)
    again = parse_config(doc)
    assert again.params.n == net_c.n
    assert again.params.beta == net_c.beta
    assert np.array_equal(again.params.H, net_c.H)


def test_dump_json_writes_numpy_values_as_python_ones():
    doc = {"z": (np.int64(3), np.float32(0.1), np.bool_(False)),
           "a": np.array([[0.1, -0.0], [1e-300, 2.0]]),
           "m": {"x": np.float64(1 / 3), "k": np.int32(-7), "t": np.True_},
           "l": [np.arange(2), (1, 2.5), None, "s"]}
    assert dump_json(doc) == (
        '{\n  "a": [\n    [\n      0.1,\n      -0.0\n    ],\n    [\n      1e-300,\n'
        '      2.0\n    ]\n  ],\n  "l": [\n    [\n      0,\n      1\n    ],\n    [\n'
        '      1,\n      2.5\n    ],\n    null,\n    "s"\n  ],\n  "m": {\n    "k": -7,\n'
        '    "t": true,\n    "x": 0.3333333333333333\n  },\n  "z": [\n    3,\n'
        '    0.10000000149011612,\n    false\n  ]\n}\n'
    )
    with pytest.raises(TypeError):
        dump_json({"x": object()})


def test_config_accepts_K_for_beta(tmp_path):
    doc = dict(NET_A_DOC)
    del doc["beta"]
    doc["K"] = 2.4
    doc["gamma"] = 2.0
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.params.beta == pytest.approx(1.2)


def test_config_parse_errors(tmp_path):
    doc = dict(NET_A_DOC)
    doc["H"] = [[0.0, 0.5]]
    with pytest.raises(ParseError, match="H"):
        load_config(write_config(tmp_path, doc))
    doc = dict(NET_A_DOC)
    del doc["gamma"]
    with pytest.raises(ParseError, match="gamma"):
        load_config(write_config(tmp_path, doc))
    # with "K", network reports a gamma that cannot divide K
    doc = dict(NET_A_DOC, K=2.4)
    del doc["beta"]
    with pytest.raises(ParseError, match="field 'K'"):
        load_config(write_config(tmp_path, dict(doc, K="2.4")))
    with pytest.raises(ParseError, match="field 'gamma'"):
        load_config(write_config(tmp_path, dict(doc, gamma="2")))
    with pytest.raises(RejectConfig, match="gamma must be > 0"):
        load_config(write_config(tmp_path, dict(doc, gamma=0)))


def test_config_rejects_bad_model(tmp_path):
    doc = dict(NET_A_DOC)
    doc["beta"] = 0.9
    with pytest.raises(RejectConfig):
        load_config(write_config(tmp_path, doc))


# ---------------------------------------------------------------- commands


def test_cli_analyze_net_c(tmp_path):
    cfg = write_config(tmp_path, NET_C_DOC)
    out = tmp_path / "out"
    res = run_cli(["analyze", "--config", str(cfg), "--out", str(out)])
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["constants"]["c_star"] == pytest.approx(0.710102, abs=1e-6)
    assert doc["constants"]["epsilon"] == pytest.approx(0.570820, abs=1e-6)
    assert doc["hypotheses"]["H3"] is True
    assert doc["neuron_classes"] == ["excitatory", "inhibitory", "inhibitory"]


def test_cli_analyze_reports_antiphase(tmp_path):
    cfg = write_config(tmp_path, NET_A_DOC)
    res = run_cli(["analyze", "--config", str(cfg)])
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["antiphase"]["x"] == pytest.approx(0.3, abs=1e-14)
    assert doc["antiphase"]["point"][0] == pytest.approx(0.9, abs=1e-14)
    assert doc["antiphase"]["residual"] <= 1e-12


def test_cli_simulate_spike_rows(tmp_path):
    cfg = write_config(tmp_path, NET_A_DOC)
    out = tmp_path / "sim"
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out), "--max-iter", "6"])
    assert res.returncode == 0, res.stderr
    lines = (out / "spikes.csv").read_text().splitlines()
    assert lines[0] == "step,t_bar,cum_time,firing_set,V_after"
    assert len(lines) == 7
    for row in lines[1:]:
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(math.log(1.5), rel=1e-12)
        assert fields[3] in ("1", "2")


def test_cli_simulate_trajectory(tmp_path):
    cfg = write_config(tmp_path, NET_A_DOC)
    out = tmp_path / "sim"
    res = run_cli(["simulate", "--config", str(cfg), "--out", str(out),
                   "--max-iter", "4", "--dt", "0.05", "--t-total", "1.0"])
    assert res.returncode == 0, res.stderr
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,V1,V2,post_spike"
    flags = [r.rsplit(",", 1)[1] for r in lines[1:]]
    assert "1" in flags  # at least one post-spike row


def test_cli_cycles_net_d(tmp_path):
    cfg = write_config(tmp_path, NET_D_DOC)
    out = tmp_path / "cyc"
    res = run_cli(["cycles", "--config", str(cfg), "--out", str(out),
                   "--samples", "150", "--eta", "1e-4"])
    assert res.returncode == 0, res.stderr
    doc = json.loads((out / "cycles.json").read_text())
    assert len(doc["cycles"]) == 1
    cyc = doc["cycles"][0]
    assert cyc["period"] == 2 and cyc["certified"]
    assert cyc["certificate"]["residual"] <= 1e-10
    assert (out / "cycle_00.csv").exists()
    fractions = (doc["synchronized_fraction"] + doc["grazing_fraction"]
                 + doc["unresolved_fraction"] + sum(c["basin_fraction"] for c in doc["cycles"]))
    assert fractions == pytest.approx(1.0, abs=1e-12)


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def test_cli_csv_text_equals_csv_writer(tmp_path):
    """spikes.csv, trajectory.csv and cycle_NN.csv hold what csv.writer writes for typed rows."""
    golden = Path(__file__).resolve().parent / "golden"
    cfg = load_config(str(golden / "net_c_edges.json"))
    out = tmp_path / "sim"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(golden / "net_c_edges.json"), "--out", str(out),
                     "--max-iter", "40", "--dt", "0.05", "--t-total", "3"]) == 0
    states, fired, t_bars = _kernels.run_orbit(cfg.params, cfg.v0, 40)
    spikes = [[k, t, c, ";".join(str(i + 1) for i in np.flatnonzero(f)), ";".join(map(repr, v))]
              for k, (t, c, f, v) in enumerate(zip(t_bars.tolist(), np.cumsum(t_bars).tolist(),
                                                   fired, states.tolist()))]
    assert (out / "spikes.csv").read_text() == _csv_writer_text(
        ["step", "t_bar", "cum_time", "firing_set", "V_after"], spikes)
    times, values, post = sample_trajectory(cfg.params, cfg.v0, 0.05, 3.0)
    assert "-0.0" in (out / "trajectory.csv").read_text()
    assert (out / "trajectory.csv").read_text() == _csv_writer_text(
        ["t", "V1", "V2", "V3", "post_spike"],
        ([t, *row, flag] for t, row, flag in zip(times.tolist(), values.tolist(), post.tolist())))

    mixed8 = load_config(str(golden / "mixed8.json")).params
    out = tmp_path / "cyc"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["cycles", "--config", str(golden / "mixed8.json"), "--out", str(out),
                     "--samples", "30", "--eta", "1e-4"]) == 0
    report = cycle_census(mixed8, sample_count=30, seed=0, eta=1e-4)
    assert report.entries
    for idx, entry in enumerate(report.entries):
        assert (out / f"cycle_{idx:02d}.csv").read_text() == _csv_writer_text(
            ["index"] + [f"V{i + 1}" for i in range(8)],
            ([j, *pt] for j, pt in enumerate(entry.cycle.points.tolist())))


def test_cli_synchro_exit_codes(tmp_path):
    nine = {"n": 9, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
            "H": [[0.0 if i == j else 0.4 for j in range(9)] for i in range(9)]}
    cfg = write_config(tmp_path, nine)
    res = run_cli(["synchro", "--config", str(cfg), "--samples", "200"])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ok"] is True
    # inhibitory network violates the hypothesis -> exit 3
    cfg_c = write_config(tmp_path, NET_C_DOC, name="c.json")
    res = run_cli(["synchro", "--config", str(cfg_c), "--samples", "10"])
    assert res.returncode == 3


def test_cli_config_error_exit_code(tmp_path):
    doc = dict(NET_A_DOC)
    doc["beta"] = 0.5
    cfg = write_config(tmp_path, doc)
    res = run_cli(["analyze", "--config", str(cfg)])
    assert res.returncode == 2


@pytest.mark.parametrize("beta", [1e200, 1e300])
def test_cli_rejects_a_network_whose_constants_overflow(tmp_path, capsys, beta):
    # beta * (beta - theta) overflows, so c_star and c_bar are -inf and epsilon is nan
    cfg = write_config(tmp_path, dict(NET_C_DOC, beta=beta))
    for command in ("analyze", "expansion"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "c_star = -inf" in err


def test_cli_expansion_net_b(tmp_path):
    doc = {"n": 2, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
           "H": [[0.0, 0.2], [0.2, 0.0]]}
    cfg = write_config(tmp_path, doc)
    res = run_cli(["expansion", "--config", str(cfg), "--samples", "16"])
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    pair = out["pairs"][0]
    assert pair["O1"] and pair["O2"] and pair["O3"]
    assert pair["repeller"]["fixed_point"] == pytest.approx(0.8, abs=1e-10)
    assert pair["repeller"]["multiplier"] == pytest.approx(2.25, abs=1e-9)
    assert all(r.get("expanded", True) for r in out["witnesses"]["rows"])


def test_cli_sweep_antiphase_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path, NET_A_DOC)
    res = run_cli(["sweep", "--config", str(cfg), "--grid", "H:0.1:0.9:9",
                   "--cell", "analyze"])
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["cells"]) == 9
    for cell in doc["cells"]:
        h = cell["overrides"]["H"]
        x = 0.5 * (math.sqrt(h * h + 4 * 1.2 * 0.2) - h)
        assert cell["status"] == "ok"
        assert cell["result"]["antiphase"]["point"][0] == pytest.approx(1.2 - x, abs=1e-12)


def test_cli_contract_smoke(tmp_path):
    cfg = write_config(tmp_path, NET_C_DOC)
    res = run_cli(["contract", "--config", str(cfg), "--samples", "2000", "--seed", "3"])
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["zones"]) == 4
    assert all(z["violations"] == 0 for z in doc["zones"])
    assert doc["absorption"]["ok"]
    assert doc["adapted_metric"]["ok"]
    assert doc["adapted_metric"]["mu_tilde"] < 1.0


def test_cli_emitted_config_round_trips(tmp_path):
    cfg = write_config(tmp_path, NET_C_DOC)
    res = run_cli(["analyze", "--config", str(cfg)])
    doc = json.loads(res.stdout)
    again = parse_config(doc["config"])
    assert again.params.n == 3
    assert again.params.beta == 1.2
    assert np.array_equal(again.params.H, np.array(NET_C_DOC["H"]))


def test_cli_two_axis_sweep(tmp_path):
    cfg = write_config(tmp_path, NET_A_DOC)
    res = run_cli(["sweep", "--config", str(cfg), "--grid", "H:0.2:0.4:2",
                   "--grid", "beta:1.1:1.3:2", "--cell", "analyze"])
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert len(doc["cells"]) == 4
    seen = {(c["overrides"]["H"], c["overrides"]["beta"]) for c in doc["cells"]}
    assert seen == {(0.2, 1.1), (0.2, 1.3), (0.4, 1.1), (0.4, 1.3)}
    for cell in doc["cells"]:
        assert cell["status"] == "ok"
        assert cell["result"]["config"]["beta"] == cell["overrides"]["beta"]


def test_cli_sweep_cells_do_not_depend_on_axis_order(tmp_path, capsys):
    from ifnet.cli import main

    cfg = write_config(tmp_path, NET_C_DOC)
    results = []
    for axes in (["beta:0.9:0.9:1", "theta:0.5:0.5:1"], ["theta:0.5:0.5:1", "beta:0.9:0.9:1"]):
        grid = [arg for axis in axes for arg in ("--grid", axis)]
        assert main(["sweep", "--config", str(cfg), *grid]) == 0
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        assert cell["status"] == "ok"
        results.append(cell["result"])
    assert results[0] == results[1]
    assert results[0]["config"]["beta"] == 0.9 and results[0]["config"]["theta"] == 0.5


def test_cli_sweep_K_config_holds_beta_fixed(tmp_path, capsys):
    from ifnet.cli import main

    doc = dict(NET_C_DOC, K=2.4, gamma=2.0)
    del doc["beta"]
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", str(cfg), "--grid", "gamma:0.5:1.5:3"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert [c["status"] for c in cells] == ["ok"] * 3
    for cell in cells:
        assert cell["result"]["config"]["gamma"] == cell["overrides"]["gamma"]
        assert cell["result"]["config"]["beta"] == 2.4 / 2.0


def test_cli_sweep_repeat_determinism(tmp_path):
    cfg = write_config(tmp_path, NET_D_DOC)
    args = ["sweep", "--config", str(cfg), "--grid", "H:-0.8:-0.6:3",
            "--cell", "cycles", "--samples", "60", "--seed", "42"]
    first = run_cli(args)
    again = run_cli(args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == again.stdout


UNUSABLE_OPTIONS = [
    ["cycles", "--samples", "0"],
    ["cycles", "--samples", "-3"],
    ["contract", "--samples", "0"],
    ["simulate", "--max-iter", "-1"],
    ["simulate", "--max-iter", "0"],
    ["cycles", "--tol", "nan"],
    ["cycles", "--tol", "0"],
    ["cycles", "--tol=-1e-12"],
    ["cycles", "--eta", "inf"],
    ["cycles", "--eta=-1e-4"],
    ["simulate", "--dt", "nan", "--t-total", "1.0"],
    ["simulate", "--dt", "0", "--t-total", "1.0"],
    ["simulate", "--dt", "0.1", "--t-total", "inf"],
    ["simulate", "--dt", "0.1", "--t-total=-1"],
    ["simulate", "--dt", "0.01"],
    ["simulate", "--t-total", "20"],
    ["simulate", "--dt", "1e-9", "--t-total", "1e9"],
    ["simulate", "--dt", "1e-300", "--t-total", "1e300"],  # t_total/dt overflows to inf
]


# The "-None" suffix is left from a dropped second parameter; it keeps each
# case's reported name unchanged.
@pytest.mark.parametrize("args", UNUSABLE_OPTIONS,
                         ids=[f"args{i}-None" for i in range(len(UNUSABLE_OPTIONS))])
def test_cli_rejects_unusable_options(tmp_path, capsys, args):
    from ifnet.cli import main

    cfg = write_config(tmp_path, NET_C_DOC)
    assert main([args[0], "--config", str(cfg), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [b"\xff{}", b'{"n": ' + b"1" * 5000 + b"}", b"[" * 10**5 + b"]" * 10**5],
                         ids=["not-utf8", "5000-digit-integer", "deep-nesting"])
def test_cli_unreadable_config_exits_2_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "net.json"
    path.write_bytes(text)
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_cli_simulate_bounds_rows_of_a_firing_storm(tmp_path, capsys, monkeypatch):
    # 11 grid rows, but with gamma = 1e5 every firing adds two more (111633 rows in all)
    cfg = write_config(tmp_path, dict(NET_C_DOC, gamma=1e5))
    monkeypatch.setattr(dynamics, "MAX_TRAJECTORY_ROWS", 1000)
    assert main(["simulate", "--config", str(cfg), "--dt", "0.1", "--t-total", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    # with gamma = 1e300 the waits are ~1e-300: the run must stop at its first firing
    cfg = write_config(tmp_path, dict(NET_C_DOC, gamma=1e300))
    res = subprocess.run([sys.executable, "-m", "ifnet", "simulate", "--config", str(cfg),
                          "--dt", "0.1", "--t-total", "1"], capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and res.stderr.startswith("config error: ")
    assert res.stderr.count("\n") == 1, res.stderr


def test_cli_ends_a_failed_allocation_in_one_line(tmp_path, capsys):
    from ifnet.cli import main

    # the state array alone would take 21.3 PiB, beyond any user address
    # space, so the allocation fails at once and nothing is allocated
    cfg = write_config(tmp_path, NET_C_DOC)
    assert main(["simulate", "--config", str(cfg), "--max-iter", "1000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_cli_ends_a_failed_output_write_in_one_line(tmp_path, capsys, command):
    cfg = write_config(tmp_path, NET_C_DOC)
    taken = tmp_path / "taken"
    taken.write_text("")
    # --out a file, --out below a file, and an --out whose output names are directories
    blocked = tmp_path / "blocked"
    for name in ("analyze.json", "spikes.csv"):
        (blocked / name).mkdir(parents=True)
    for out in (taken, taken / "below", blocked):
        assert main([command, "--config", str(cfg), "--out", str(out), "--max-iter", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
