"""The CLI input contract over mutated configs: every input ends in a result or
in a documented exit code (0-4), with exactly one stderr line when it is not 0,
and a value that is not a JSON number, or is not finite, ends in exit 2.

Each example mutates one or two scalar fields, H entries or V0 entries of a
golden config with an edge value, then runs every command in-process with
cheap options.
"""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifnet.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
# left out: mixed8 is mixed8_v0 without V0, and contract alone takes 0.25 s on net_c_slow
CONFIGS = {p.stem: json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))
           if p.stem not in ("net_c_slow", "mixed8")}
OPTIONS = ["--samples", "20", "--max-iter", "50", "--dt", "0.1", "--t-total", "1"]
EDGES = [0.0, -0.0, 1e300, -1e300, 5e-324, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
         True, None, "x", "0.5", []]
SCALARS = ("n", "gamma", "beta", "theta", "alpha")


def finite_number(value) -> bool:
    """A JSON number that a float holds: not a bool, inf or an integer beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def apply(doc: dict, mutations) -> bool:
    """Apply (target, value) mutations in place; True when the result must end in exit 2.

    A target is a scalar field name, ("H", j, i) or ("V0", i); a later
    mutation of the same target replaces an earlier one.  A bool among the
    numbers of H or V0 reads as 0 or 1, so it does not oblige exit 2."""
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
    return any(must_reject(target, value) for target, value in final.items())


def must_reject(target, value) -> bool:
    if target == "n":
        return isinstance(value, bool) or not isinstance(value, int)
    if isinstance(target, str):
        return not finite_number(value)
    return not (finite_number(value) or isinstance(value, bool))


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
@example(case=("net_c", [(("H", 1, 2), 5e-324)]))
def test_every_input_ends_in_a_documented_exit(tmp_path_factory, case):
    name, mutations = case
    doc = copy.deepcopy(CONFIGS[name])
    malformed = apply(doc, mutations)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    for command in COMMANDS:
        grid = ["--grid", "beta:1.3:1.3:1"] if command == "sweep" else []
        code, err = run_command([command, "--config", str(path), *OPTIONS, *grid])
        assert code in (0, 1, 2, 3, 4), (command, code, err)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (command, code, err)
        if malformed:
            assert code == 2 and err.startswith("config error: "), (command, code, err)
