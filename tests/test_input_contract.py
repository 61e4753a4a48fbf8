"""The CLI input contract over mutated configs and option values: every input
ends in a result or in a documented exit code (0-4), with exactly one stderr
line when it is not 0.  A config value that is not a JSON number, or is not
finite, a V0 coordinate outside [alpha, theta] or jumps into one neuron that
sum past the float range end in exit 2, and so do a simulate whose cum_time
passes the float range, a command whose document holds another value past
the float range (gamma = 1e-308: a cycle's time_period, synchro's
bound_t_trans), an option the command does not read and an option value no
command can use.

Each config example mutates one or two scalar fields, H entries or V0 entries
of a golden config with an edge value, then runs every command in-process
with each option it reads at a cheap value.  Each option example gives one
command one or two options with edge values.  Each grid example gives sweep,
under one --cell, up to three --grid axes: well-formed ones of one or two
steps, and ones that are malformed or empty, repeat or do not name a
parameter, have no steps or more than a sweep may run, or have bounds that
are not finite numbers.
"""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ifnet.cli import _GRID_PARAMS, COMMANDS, READS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
# left out: mixed8 is mixed8_v0 without V0, and contract alone takes 0.25 s on net_c_slow
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))
           if p.stem not in ("net_c_slow", "mixed8")}
# a cheap value of each option, given to each command that reads it
CHEAP = {"seed": "0", "samples": "20", "eta": "1e-6", "max_iter": "50", "dt": "0.1", "t_total": "1"}
GRID = ["--grid", "beta:1.3:1.3:1"]  # sweep runs its default cell, analyze
EDGES = [0.0, -0.0, 1e300, -1e300, 5e-324, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
         math.nan, math.inf, True, None, "x", "0.5", []]
SCALARS = ("n", "gamma", "beta", "theta", "alpha")


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def reads(command: str) -> tuple:
    """The options a command line of `command` may give: for sweep, --seed and its cell's."""
    return ("seed", *READS["analyze"]) if command == "sweep" else READS[command]


def finite_number(value) -> bool:
    """A JSON number that a float holds: not a bool, inf or an integer beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def apply(doc: dict, mutations) -> bool:
    """Apply (target, value) mutations in place; True when the result must end in exit 2.

    A target is a scalar field name, ("H", j, i) or ("V0", i); a later
    mutation of the same target replaces an earlier one."""
    final = {}
    for target, value in mutations:
        if isinstance(target, str):
            doc[target] = value
        else:
            if target[0] == "V0" and "V0" not in doc:
                doc["V0"] = [0.0] * len(doc["H"])
            row = doc["V0"] if target[0] == "V0" else doc["H"][target[1]]
            row[target[-1]] = value
        final[target] = value
    return (any(must_reject(target, value) for target, value in final.items()) or v0_outside(doc)
            or jumps_overflow(doc))


def must_reject(target, value) -> bool:
    if target == "n":
        return isinstance(value, bool) or not isinstance(value, int)
    return not finite_number(value)


def v0_outside(doc: dict) -> bool:
    """A V0 of numbers with a coordinate outside [alpha, theta], both numbers too."""
    v0, lo, hi = doc.get("V0", []), doc["alpha"], doc["theta"]
    if not all(map(finite_number, [*v0, lo, hi])):
        return False
    return any(not lo <= x <= hi for x in v0)


def jumps_overflow(doc: dict) -> bool:
    """alpha, theta and H all numbers, and max(|alpha|, theta) plus the |H[j][i]|, j != i,
    past the float range for some neuron i."""
    H, lo, hi = doc["H"], doc["alpha"], doc["theta"]
    if not all(finite_number(x) for x in [lo, hi, *(x for row in H for x in row)]):
        return False
    return any(max(abs(lo), hi) + sum(abs(row[i]) for j, row in enumerate(H) if j != i) == math.inf
               for i in range(len(H)))


@st.composite
def mutated_configs(draw):
    name = draw(st.sampled_from(sorted(CONFIGS)))
    n = CONFIGS[name]["n"]
    targets = st.one_of(
        st.sampled_from(SCALARS),
        st.tuples(st.just("H"), st.integers(0, n - 1), st.integers(0, n - 1)),
        st.tuples(st.just("V0"), st.integers(0, n - 1)),
    )
    return name, draw(st.lists(st.tuples(targets, st.sampled_from(EDGES)), min_size=1, max_size=2))


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=mutated_configs())
@example(case=("net_c_v0", [(("V0", 1), "x")]))
@example(case=("net_c_v0", [(("V0", 1), [0.1])]))
@example(case=("net_c", [("gamma", 10**400)]))
@example(case=("net_c", [(("H", 0, 1), "0.5")]))
@example(case=("net_c_v0", [(("V0", 0), "0.5")]))
@example(case=("net_c_v0", [(("V0", 2), None)]))
@example(case=("net_c_v0", [(("V0", 2), math.inf)]))  # written as the literal 1e400
@example(case=("net_c", [("gamma", math.nan)]))
@example(case=("net_c", [("theta", math.inf)]))
@example(case=("net_c", [(("H", 1, 2), 5e-324)]))
@example(case=("net_c", [(("V0", 0), 2.0)]))
@example(case=("net_c_v0", [(("V0", 1), True)]))
@example(case=("mixed8_v0", [(("H", 1, 0), -1.7976931348623157e308)]))
@example(case=("mixed8_v0", [(("H", 1, 0), -1.7976931348623157e308), (("H", 2, 0), -1.7976931348623157e308)]))
@example(case=("net_c_v0", [("gamma", 1e-307)]))  # cum_time overflows at step 11
@example(case=("mixed8_v0", [("gamma", 1e-308)]))  # a cycle's time_period overflows
@example(case=("net_sync9", [("gamma", 1e-308)]))  # synchro's bound_t_trans overflows
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, case):
    name, mutations = case
    doc = copy.deepcopy(CONFIGS[name])
    malformed = apply(doc, mutations)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    for command in COMMANDS:
        options = [arg for opt in reads(command) for arg in (flag(opt), CHEAP[opt])]
        code, err = run_command([command, "--config", str(path), *options, *(GRID if command == "sweep" else [])])
        assert code in (0, 1, 2, 3, 4), (command, code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (command, code, err)
        if malformed:
            assert code == 2 and err.startswith("config error: "), (command, code, err)


def test_simulate_ends_a_cumulative_time_overflow_in_one_line(tmp_path):
    """gamma = 1e-305 makes net_c_v0's cum_time overflow at step 1004: exit 2 with one
    config error line, before any --out file is opened or stdout written, and a
    sweep cell it happens in fails."""
    doc = {**CONFIGS["net_c_v0"], "gamma": 1e-305}
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    out, stdout, err = tmp_path / "out", io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(path), "--max-iter", "2000", "--dt", "0.1", "--t-total", "5",
                     "--out", str(out)])
    assert (code, err.getvalue()) == (2, "config error: cum_time overflows the float range at step 1004 (gamma = 1e-305)\n")
    assert stdout.getvalue() == "" and list(out.iterdir()) == []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(path), "--cell", "simulate", "--grid", "beta:1.2:1.2:1", "--max-iter", "2000"])
    assert code == 1 and err.getvalue().endswith("\n1 sweep cell(s) failed\n")
    cell = json.loads(stdout.getvalue())["cells"][0]
    assert cell["status"] == "error" and cell["error"].startswith("RejectConfig: cum_time overflows the float range at step ")


@pytest.mark.parametrize("name, command, path", [
    ("mixed8", ["cycles", "--samples", "30", "--eta", "1e-4"], "cycles[0].time_period"),
    ("net_sync9", ["synchro", "--samples", "10"], "bound_t_trans"),
])
def test_a_value_past_the_float_range_ends_in_one_line(tmp_path, name, command, path):
    """gamma = 1e-308 makes a wait, and so a cycle's period time or the synchronization
    time bound, overflow: exit 2 with one config error line naming the value's key path,
    before any --out file is opened or stdout written, and a sweep cell it happens in fails."""
    doc = {**json.loads((GOLDEN / f"{name}.json").read_text()), "gamma": 1e-308}
    cfg = tmp_path / "slow.json"
    cfg.write_text(json.dumps(doc))
    out, stdout, err = tmp_path / "out", io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main([*command, "--config", str(cfg), "--out", str(out)])
    assert (code, err.getvalue()) == (2, f"config error: {path} overflows the float range\n")
    assert stdout.getvalue() == "" and list(out.iterdir()) == []
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = main(["sweep", "--config", str(cfg), "--cell", command[0], "--grid", "beta:1.2:1.2:1", *command[1:]])
    assert code == 1 and err.getvalue().endswith("\n1 sweep cell(s) failed\n")
    cell = json.loads(stdout.getvalue())["cells"][0]
    assert (cell["status"], cell["error"]) == ("error", f"RejectConfig: {path} overflows the float range")


OPTION_EDGES = ["0", "-1", "-0.0", "5e-324", "1e300", "nan", "inf", "abc"]
HUGE = str(10**30)  # not for --samples, which stays at most 50 so that every run is short
COUNTS = ("seed", "samples", "max_iter")  # the options argparse reads as int


def refused(given: dict) -> bool:
    """Option values that end in exit 2 whatever the command and config: text its
    option cannot read, a count below 1, a real that is not a finite positive
    number, --dt or --t-total without the other, or more than 10**6 grid rows."""
    values = {}
    for name, text in given.items():
        try:
            values[name] = (int if name in COUNTS else float)(text)
        except ValueError:
            return True
    if any(values[name] < 1 for name in ("samples", "max_iter") if name in values):
        return True
    if any(not (math.isfinite(values[name]) and values[name] > 0) for name in ("eta", "dt", "t_total")
           if name in values):
        return True
    if ("dt" in values) != ("t_total" in values):
        return True
    return "dt" in values and values["t_total"] / values["dt"] > 10**6


@st.composite
def option_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    # an option is drawn from those the command reads or from all six, so that some values reach the run
    read = st.sampled_from(reads(command)) if reads(command) else st.nothing()
    names = draw(st.lists(st.one_of(read, st.sampled_from(sorted(CHEAP))), min_size=1, max_size=2, unique=True))
    # besides the edge values, a cheap one, for the same reason
    return command, {name: draw(st.sampled_from([CHEAP[name], *OPTION_EDGES, *([] if name == "samples" else [HUGE])]))
                     for name in names}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=option_lines())
@example(case=("analyze", {"samples": "5"}))
@example(case=("synchro", {"max_iter": "1", "eta": "1"}))
@example(case=("sweep", {"samples": "5"}))
@example(case=("simulate", {"max_iter": HUGE}))
def test_every_option_value_ends_in_a_documented_exit(case):
    command, given = case
    options = [arg for name, value in given.items() for arg in (flag(name), value)]
    code, err = run_command([command, "--config", str(GOLDEN / "net_c.json"), *options,
                             *(GRID if command == "sweep" else [])])
    assert code in (0, 1, 2, 3, 4), (case, code, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (case, code, err)
    if not set(given) <= set(reads(command)) or refused(given):
        assert code == 2 and err.startswith("config error: "), (case, code, err)


@pytest.mark.parametrize("axis", ["beta:nan:2:2", "beta:1.1:inf:2", "beta:-1e308:1e308:1"])
def test_sweep_rejects_a_grid_axis_without_finite_bounds(axis):
    # np.linspace gives nan for each: the cells' overrides could not be written as JSON
    code, err = run_command(["sweep", "--config", str(GOLDEN / "net_b.json"), "--grid", axis])
    assert code == 2 and err.startswith("config error: ") and err.count("\n") == 1, (code, err)


GRID_BOUNDS = ["1.1", "1.3", "0.5", "-0.5", "0", "-0.0", "5e-324", "1e308", "-1e308"]
GRID_STEPS = ["1", "2"]  # a valid axis runs one cell per step
# per part of PARAM:LO:HI:STEPS, texts that break it
GRID_BREAKS = [[" beta ", "K", "n", ""], ["nan", "inf", "-inf", "1e400", "x", ""],
               ["nan", "inf", "-inf", "1e400", "x", ""], ["0", "-1", "2.0", "x", "", HUGE, "1000001"]]
MALFORMED_AXES = ["", ":", ":::", "beta:1.1:1.3", "beta:1.1:1.3:2:2", "beta 1.1 1.3 2"]


def grid_refused(cell: str, axes: list) -> bool:
    """The grids sweep refuses with exit 2 whatever the config: no axis or more
    than two, an unknown cell, an axis that is not PARAM:LO:HI:STEPS with a
    known parameter, an integer STEPS of at least 1 and finite LO, HI and
    HI - LO, two axes naming one parameter, or more than 10**6 cells."""
    if not 1 <= len(axes) <= 2 or cell not in COMMANDS or cell == "sweep":
        return True
    names, cells = [], 1
    for axis in axes:
        try:
            name, lo, hi, steps = axis.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError:
            return True
        if name.strip() not in _GRID_PARAMS or steps < 1 or not math.isfinite(hi - lo):
            return True
        names.append(name.strip())
        cells *= steps
    return len(set(names)) < len(names) or cells > 10**6


@st.composite
def grid_axes(draw):
    """A --grid axis: well-formed, broken in one part, or malformed."""
    parts = [draw(st.sampled_from(choices)) for choices in (_GRID_PARAMS, GRID_BOUNDS, GRID_BOUNDS, GRID_STEPS)]
    broken = draw(st.sampled_from([None] * 4 + [0, 1, 2, 3, "shape"]))
    if broken == "shape":
        return draw(st.sampled_from(MALFORMED_AXES))
    if broken is not None:
        parts[broken] = draw(st.sampled_from(GRID_BREAKS[broken]))
    return ":".join(parts)


@st.composite
def grid_lines(draw):
    cell = draw(st.sampled_from(sorted(COMMANDS)))
    axes = [draw(grid_axes()) for _ in range(draw(st.sampled_from([1, 1, 1, 2, 2, 2, 0, 3])))]
    if axes and draw(st.sampled_from([False] * 3 + [True])):  # the same parameter twice, other bounds
        axes[1:] = [axes[0].split(":")[0] + ":0.5:1.1:1"]
    return cell, axes


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=grid_lines())
@example(case=("analyze", ["beta:nan:2:2"]))
@example(case=("synchro", ["H:0.34:0.9:2", " H :0.5:1.1:1"]))
@example(case=("contract", ["beta:1.1:1.3:0"]))
@example(case=("expansion", ["K:1:2:1"]))
@example(case=("cycles", []))
@example(case=("analyze", ["beta:1.1:1.3:1001", "H:0.1:0.2:1000"]))  # refused before any cell runs
@example(case=("simulate", ["beta:1.1:1.3:2", "H:-0.5:0.5:2"]))
@example(case=("cycles", ["theta:0.5:1.1:2"]))
@example(case=("contract", ["alpha:-0.5:-0.0:2"]))
@example(case=("expansion", ["H:-0.5:1.3:2", "beta:1.1:1e308:2"]))
@example(case=("synchro", ["gamma:5e-324:1e308:2"]))
def test_every_sweep_grid_ends_in_a_documented_exit(case):
    cell, axes = case
    options = [arg for name in ("seed", *READS.get(cell, ())) for arg in (flag(name), CHEAP[name])]
    code, err = run_command(["sweep", "--config", str(GOLDEN / "net_c.json"), "--cell", cell, *options,
                             *(arg for axis in axes for arg in ("--grid", axis))])
    assert code in (0, 1, 2, 3, 4), (case, code, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (case, code, err)
    event(f"exit {code}")
    if grid_refused(cell, axes):
        assert code == 2 and err.startswith("config error: "), (case, code, err)
    else:  # a cell that fails is reported in the document: exit 1
        assert code in (0, 1), (case, code, err)
