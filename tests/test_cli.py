import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ifnet import NumericalStall, ParseError, RejectConfig, _kernels, cli, config, cycles, dynamics
from ifnet.cli import main
from ifnet.config import dump_json, load_config, params_to_doc, parse_config
from ifnet.cycles import cycle_census
from ifnet.dynamics import sample_trajectory

GOLDEN = Path(__file__).resolve().parent / "golden"
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


def test_cli_simulate_cumulative_time(tmp_path):
    cfg = write_config(tmp_path, {**NET_C_DOC, "V0": [0.0, 0.4, 0.2]})
    res = run_cli(["simulate", "--config", str(cfg), "--max-iter", "5"])
    assert res.returncode == 0, res.stderr
    spikes = json.loads(res.stdout)["spikes"]
    assert len(spikes) == 5
    total = 0.0
    for row in spikes:
        total += row["t_bar"]
        assert row["cum_time"] == pytest.approx(total, rel=1e-15)


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


def test_cli_simulate_steps_one_orbit_for_both_outputs(tmp_path, monkeypatch):
    """trajectory.csv reads its firings off the orbit spikes.csv holds: no return_map
    call, and run_orbit runs again only for the firings past --max-iter."""
    cfg = write_config(tmp_path, NET_A_DOC)
    calls = {"return_map": 0, "run_orbit": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(dynamics, "return_map")
    counted(_kernels, "run_orbit")
    texts = []
    for max_iter, runs in (("40", 1), ("2", 3)):  # net_a fires 24 times in 10 time units
        calls.update(return_map=0, run_orbit=0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / max_iter),
                         "--max-iter", max_iter, "--dt", "0.05", "--t-total", "10"]) == 0
        assert calls == {"return_map": 0, "run_orbit": runs}
        texts.append((tmp_path / max_iter / "trajectory.csv").read_text())
    assert texts[0] == texts[1]


def test_cli_expansion_steps_every_witness_in_one_batch(tmp_path, monkeypatch):
    """The 999 witness pairs of --samples 1000 take one step of all 1998 states."""
    cfg = write_config(tmp_path, {**NET_A_DOC, "H": [[0.0, 0.2], [0.2, 0.0]]})
    columns = []
    original = _kernels._step_columns

    def step(params, X):
        columns.append(X.shape[1])
        return original(params, X)
    monkeypatch.setattr(_kernels, "_step_columns", step)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["expansion", "--config", str(cfg), "--samples", "1000"]) == 0
    assert columns == [2 * 999]
    assert len(json.loads(out.getvalue())["witnesses"]["rows"]) == 999


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


def test_cli_cycles_exits_4_on_a_numerical_stall(capsys, monkeypatch):
    def stall(params, word, eta):
        raise NumericalStall("solve stalled")

    monkeypatch.setattr(cycles, "_solve", stall)
    assert main(["cycles", "--config", str(GOLDEN / "mixed8.json"), "--samples", "30", "--eta", "1e-4"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numerical stall: ") and err.count("\n") == 1, err


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


def test_value_columns_of_one_value_give_one_str_per_column():
    columns = cli._value_columns(np.zeros((5, 3)))
    assert columns == ["0.0"] * 3  # the str of each column whole, not sliced
    assert [config.text_grid(5, [column]) for column in columns] == [["0.0"] * 5] * 3
    assert cli._value_columns(np.array([[0.0, 1.5], [0.0, -0.0]])) == [["0.0", "0.0"], ["1.5", "-0.0"]]


def test_cli_simulate_past_one_chunk_equals_the_reference_encoders(tmp_path):
    """An orbit and a trajectory of more rows than a chunk: simulate.json and stdout
    hold what json.dumps(indent=2, sort_keys=True) writes for typed rows, spikes.csv
    and trajectory.csv what csv.writer writes."""
    golden = Path(__file__).resolve().parent / "golden"
    cfg = load_config(str(golden / "mixed8_v0.json"))
    steps, dt, t_total = 2 * config.CHUNK_ROWS + 3, 0.005, 25.0
    out = tmp_path / "sim"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["simulate", "--config", str(golden / "mixed8_v0.json"), "--out", str(out),
                     "--max-iter", str(steps), "--dt", str(dt), "--t-total", str(t_total)]) == 0
    states, fired, t_bars = _kernels.run_orbit(cfg.params, cfg.v0, steps)
    fields = ["step", "t_bar", "cum_time", "firing_set", "V_after"]
    spikes = [dict(zip(fields, (k, t, c, ";".join(str(i + 1) for i in np.flatnonzero(f)), ";".join(map(repr, v)))))
              for k, (t, c, f, v) in enumerate(zip(t_bars.tolist(), np.cumsum(t_bars).tolist(),
                                                   fired, states.tolist()))]
    times, values, post = sample_trajectory(cfg.params, cfg.v0, dt, t_total)
    assert len(times) > config.CHUNK_ROWS
    text = json.dumps({"steps": steps, "v0": cfg.v0.tolist(), "spikes": spikes, "spikes_csv": "spikes.csv",
                       "trajectory_csv": "trajectory.csv", "trajectory_rows": len(times)},
                      sort_keys=True, indent=2) + "\n"
    assert (out / "simulate.json").read_text() == text
    assert stdout.getvalue() == text
    assert (out / "spikes.csv").read_text() == _csv_writer_text(fields, (list(r.values()) for r in spikes))
    assert (out / "trajectory.csv").read_text() == _csv_writer_text(
        ["t"] + [f"V{i + 1}" for i in range(8)] + ["post_spike"],
        ([t, *row, flag] for t, row, flag in zip(times.tolist(), values.tolist(), post.tolist())))


def test_cli_simulate_text_memory_does_not_grow_with_max_iter(tmp_path):
    """simulate formats and writes its rows a chunk at a time, so its traced peak
    grows with --max-iter by the orbit arrays alone (about 51 bytes a step) plus
    2 MB.  stdout goes to a file: a StringIO would hold the whole text."""
    golden = Path(__file__).resolve().parent / "golden"
    peaks = {}
    tracemalloc.start()
    try:
        for steps in (20000, 80000):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                assert main(["simulate", "--config", str(golden / "net_c_v0.json"), "--out", str(tmp_path / str(steps)),
                             "--max-iter", str(steps), "--dt", "0.01", "--t-total", "20"]) == 0
            peaks[steps] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peaks[80000] - peaks[20000] <= 51 * 60000 + 2_000_000, peaks


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


def test_cli_contract_without_an_inhibitory_neuron_exits_3(tmp_path):
    # H3 and H4 hold on three all-to-all excitatory neurons, but absorption needs an inhibitory one
    exc3 = {"n": 3, "gamma": 1.0, "beta": 1.2, "theta": 1.0, "alpha": -1.0,
            "H": [[0.0 if i == j else 0.6 for j in range(3)] for i in range(3)]}
    res = run_cli(["contract", "--config", str(write_config(tmp_path, exc3)), "--samples", "10"])
    assert res.returncode == 3 and res.stderr.startswith("hypothesis violated: ")
    assert res.stderr.count("\n") == 1, res.stderr


def test_cli_contract_with_an_empty_zone_exits_3(tmp_path):
    # beta 2.0 is past beta_plus, so c_bar = -0.30 and C_{c_bar} is empty: the
    # hypothesis is named, not the zone level the command chose itself, and
    # cycles, whose census starts lie in the same zone, says it alike
    cfg = write_config(tmp_path, dict(NET_C_DOC, beta=2.0))
    for command in ("contract", "cycles"):
        res = run_cli([command, "--config", str(cfg), "--samples", "10"])
        assert (res.returncode, res.stdout) == (3, ""), command
        assert res.stderr == "hypothesis violated: C_{c_bar} is empty (beta >= beta_plus)\n", command
    res = run_cli(["sweep", "--config", str(cfg), "--cell", "contract", "--grid", "beta:1.9:2.0:2", "--samples", "10"])
    cells = json.loads(res.stdout)["cells"]
    assert [c["error"] for c in cells] == ["HypothesisViolated: C_{c_bar} is empty (beta >= beta_plus)"] * 2


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


def test_cli_expansion_reports_a_repeller_that_fails(tmp_path, capsys):
    # pair [2, 3] meets O1 to O3, but its two-step map has no sign change on the interval
    doc = {"n": 3, "gamma": 1.0, "beta": 2.37, "theta": 1.0, "alpha": -1.46,
           "H": [[0.44, 0.42, -0.33], [1.03, 0.88, 0.35], [1.35, -0.01, -1.35]]}
    cfg = write_config(tmp_path, doc)
    assert main(["expansion", "--config", str(cfg), "--samples", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    pair = next(p for p in out["pairs"] if p["pair"] == [2, 3])
    assert pair["O1"] and pair["O2"] and pair["O3"] and "repeller" not in pair
    assert pair["repeller_error"] == "no sign change of the two-step map on (0.5680843526957207, 0.5878648035631404)"
    assert out["witnesses"]["pair"] == [2, 3]


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
    ["analyze", "--samples", "5"],  # an option the command does not read
    ["synchro", "--max-iter", "3"],
    ["sweep", "--grid", "beta:1.2:1.3:2", "--eta", "1e-4"],  # one the default cell, analyze, does not read
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


@pytest.mark.parametrize("argv", [["analyze"], ["cycles", "--config", "CFG", "--samples", "abc"], ["bogus"], []],
                         ids=["missing-config", "samples-abc", "unknown-command", "empty-argv"])
def test_cli_bad_command_line_exits_2_in_one_line(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, NET_C_DOC)
    assert main([str(cfg) if a == "CFG" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_cli_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ifnet analyze")


def test_cli_parser_is_built_once_and_keeps_no_state_between_runs(tmp_path, capsys):
    # runs in turn on the one cached parser print what each prints on a freshly
    # built one: a --grid list starts empty in every run (argparse's `append`
    # default is one shared list), and a run that ends in a parse error leaves
    # nothing behind for the next
    cfg = str(write_config(tmp_path, NET_D_DOC))
    runs = [["sweep", "--config", cfg, "--grid", "H:-0.8:-0.6:2"],
            ["sweep", "--config", cfg, "--grid", "beta:1.2:1.3:2", "--grid", "H:-0.7:-0.6:2"],
            ["cycles", "--config", cfg, "--max-iter", "50", "--dt", "0.1"],  # --dt: not read by cycles
            ["analyze", "--config", cfg],
            ["cycles", "--config", cfg, "--samples", "40", "--eta", "1e-4"]]

    def run(argv):
        code = cli.main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    cli.build_parser.cache_clear()
    in_turn = [run(argv) for argv in runs]
    assert cli.build_parser.cache_info().misses == 1 and cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in in_turn] == [0, 0, 2, 0, 0]
    assert "unrecognized arguments: --dt 0.1" in in_turn[2][2]
    for argv, got in zip(runs, in_turn):
        cli.build_parser.cache_clear()
        assert run(argv) == got, argv


def test_readme_command_lines_parse_and_list_what_each_command_reads():
    """Every `ifnet` line of README's CLI block, its [...] markers stripped, parses and passes
    the option checks, and names exactly the options its command reads (for sweep, --seed
    and those of its cell)."""
    from ifnet.cli import COMMANDS, READS, _check_options, build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```bash\n", 1)[1].split("```", 1)[0]
    lines = [line.replace("[", "").replace("]", "").split()[1:] for line in block.splitlines()
             if line.startswith("ifnet ")]
    assert sorted(argv[0] for argv in lines) == sorted(COMMANDS)
    for argv in lines:
        given = vars(build_parser().parse_args(argv))
        _check_options(given)
        reads = ("seed", *READS[given["cell"]], "grid", "cell") if argv[0] == "sweep" else READS[argv[0]]
        flags = {"--config", "--out", *("--" + name.replace("_", "-") for name in reads)}
        assert {arg for arg in argv if arg.startswith("--")} == flags, argv


def test_samples_floors_are_stated_in_help_and_readme(tmp_path, capsys):
    # expansion runs at least 8 witness points and contract at least 100 metric pairs;
    # both floors are documented, and expansion's is the one the command applies
    helps = {}
    for command in ("expansion", "contract", "sweep"):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert "at least 8: a smaller value runs 8" in helps["expansion"]
    assert "max(100, SAMPLES // 10) pairs" in helps["contract"]
    assert "an expansion or contract cell raises it to that command's floor" in helps["sweep"]
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert "`expansion` samples at least 8 witness points" in readme
    assert "`max(100, samples // 10)` pairs" in readme
    cfg = write_config(tmp_path, {**NET_A_DOC, "H": [[0.0, 0.2], [0.2, 0.0]]})
    outs = []
    for samples in ("1", "8"):
        assert main(["expansion", "--config", str(cfg), "--samples", samples]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(json.loads(outs[0])["witnesses"]["rows"]) == 7


# config bytes -> the reason the error line must give, where one is pinned
@pytest.mark.parametrize("text, reason", [(b"\xff{}", None), (b"[1, 2]", "config root must be a JSON object"),
                                          (b'{"n": ' + b"1" * 5000 + b"}", None), (b"[" * 10**5 + b"]" * 10**5, None)],
                         ids=["not-utf8", "root-not-an-object", "5000-digit-integer", "deep-nesting"])
def test_cli_unreadable_config_exits_2_in_one_line(tmp_path, capsys, text, reason):
    path = tmp_path / "net.json"
    path.write_bytes(text)
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert reason is None or err == f"config error: {reason}\n", err


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
    options = ["--max-iter", "3"] if command == "simulate" else []
    for out in (taken, taken / "below", blocked):
        assert main([command, "--config", str(cfg), "--out", str(out), *options]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
