"""What a process loads: `import ifnet` and `load_config` load the config,
errors and params modules only, each CLI command adds just the modules it
calls, and every public name still resolves, on first access."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ifnet

GOLDEN = Path(__file__).resolve().parent / "golden"

# the names of dir(ifnet) before the package loaded its analysis modules on first
# access, dunders aside; `bench/run.py` reads NUMBA_ENABLED
NAMES = [
    "DerivedConstants", "FateReport", "HypothesisViolated", "IfnetError", "InsufficientSamples",
    "LimitCycle", "NUMBA_ENABLED", "NetworkParams", "NeuronKind", "NoFixedPoint", "NumericalStall",
    "ParseError", "PreconditionFailed", "RejectConfig", "ReturnStep", "RunConfig", "__version__",
    "_kernels", "_sampling", "absorption_check", "adapted_distance", "antiphase_state",
    "certify_cycle", "check_O_conditions", "config", "contraction", "cycle_census", "cycles",
    "detect_cycle", "dynamics", "errors", "estimate_lipschitz_c", "expansion_witness", "flow",
    "jvac_check", "lambda_for_zone", "load_config", "network", "o_pairs", "params", "repeller",
    "return_map", "sample_trajectory", "state_at_threshold", "sync_test", "verify_contraction",
]
SUBMODULES = {"_kernels", "_sampling", "config", "contraction", "cycles", "dynamics", "errors", "params"}
# the submodule objects the package names are, by submodule
HOMES = {"contraction": ["absorption_check", "adapted_distance", "check_O_conditions", "estimate_lipschitz_c",
                         "expansion_witness", "jvac_check", "lambda_for_zone", "o_pairs", "repeller",
                         "verify_contraction"],
         "cycles": ["FateReport", "LimitCycle", "certify_cycle", "cycle_census", "detect_cycle", "sync_test"],
         "dynamics": ["ReturnStep", "antiphase_state", "flow", "return_map", "sample_trajectory",
                      "state_at_threshold"],
         "params": ["DerivedConstants", "NetworkParams", "NeuronKind", "lambda_for_zone", "network"]}


def _loaded(code: str, *args) -> set:
    """The ifnet modules, and hashlib, that a fresh interpreter holds once it
    has run `code` (which sees `args` as sys.argv[1:]) to its exit."""
    probe = ("import atexit, json, sys\n"
             "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules\n"
             "    if m.split('.')[0] in ('ifnet', 'hashlib', '_hashlib'))), file=sys.stderr))\n")
    proc = subprocess.run([sys.executable, "-c", probe + code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.splitlines()[-1]))


def _cli_loaded(*argv) -> set:
    """The modules `python -m ifnet ARGV` holds at its exit."""
    return _loaded("import runpy\nsys.argv[0] = 'ifnet'\nrunpy.run_module('ifnet', run_name='__main__')\n", *argv)


def test_load_config_loads_config_errors_and_params_only():
    loaded = _loaded("import ifnet\nifnet.load_config(sys.argv[1])\n", str(GOLDEN / "net_c.json"))
    assert loaded == {"ifnet", "ifnet.config", "ifnet.errors", "ifnet.params"}


def test_simulate_loads_no_analysis_module_and_no_hashlib(tmp_path):
    loaded = _cli_loaded("simulate", "--config", str(GOLDEN / "net_c_v0.json"), "--max-iter", "50",
                         "--out", str(tmp_path))
    assert {"ifnet._kernels", "ifnet.dynamics"} <= loaded
    assert loaded.isdisjoint({"ifnet.cycles", "ifnet.contraction", "hashlib"})


def test_cycles_loads_no_contraction():
    loaded = _cli_loaded("cycles", "--config", str(GOLDEN / "mixed8.json"), "--samples", "4")
    assert "ifnet.cycles" in loaded and "ifnet.contraction" not in loaded


@pytest.mark.parametrize("name", NAMES)
def test_every_name_resolves_on_first_access(name, monkeypatch):
    if name in ifnet._LAZY:  # drop what an earlier access bound, so the module __getattr__ runs here
        monkeypatch.delitem(vars(ifnet), name, raising=False)
    value = getattr(ifnet, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"ifnet.{name}")
    assert vars(ifnet)[name] is value  # bound, so later accesses skip __getattr__


@pytest.mark.parametrize("module", sorted(HOMES))
def test_names_are_the_defining_modules_objects(module):
    home = importlib.import_module(f"ifnet.{module}")
    assert [name for name in HOMES[module] if getattr(ifnet, name) is not getattr(home, name)] == []


def test_numba_enabled_is_false():
    assert ifnet.NUMBA_ENABLED is False


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ifnet import *", namespace)
    public = {name for name in NAMES if not name.startswith("_")}
    assert public <= set(ifnet.__all__) <= set(namespace)


def test_dir_lists_every_lazy_name():
    assert set(NAMES) | set(ifnet.__all__) <= set(dir(ifnet))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'ifnet' has no attribute 'no_such_name'"):
        ifnet.no_such_name
