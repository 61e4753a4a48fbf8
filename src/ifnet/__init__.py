"""Event-driven simulation and dynamical analysis of leaky integrate-and-fire
pulse-coupled networks: closed-form return map, contraction/expansion
diagnostics, certified limit-cycle detection and synchronization tests.

`import ifnet` loads `config`, `errors` and `params` only, which
`load_config` and `network` need.  Every other public name, and the
submodules `contraction`, `cycles`, `dynamics`, `_kernels` and `_sampling`,
load on first access (PEP 562), so a process pays only for what it runs."""

from importlib import import_module as _import_module

from .config import RunConfig, load_config
from .errors import (
    HypothesisViolated,
    IfnetError,
    InsufficientSamples,
    NoFixedPoint,
    NumericalStall,
    ParseError,
    PreconditionFailed,
    RejectConfig,
)
from .params import (
    DerivedConstants,
    NetworkParams,
    NeuronKind,
    lambda_for_zone,
    network,
)

__version__ = "0.1.0"

# Deprecated: the kernels are plain Python and there is no numba backend.
# Kept, always False, for callers that still record it: `bench/run.py` writes
# it into each run's environment record, so it stays until that stops.
NUMBA_ENABLED = False

# name -> the submodule that defines it (a submodule maps to itself), imported
# on first access
_LAZY = {
    **dict.fromkeys(("absorption_check", "adapted_distance", "check_O_conditions", "estimate_lipschitz_c",
                     "expansion_witness", "jvac_check", "o_pairs", "repeller", "verify_contraction"),
                    "contraction"),
    **dict.fromkeys(("FateReport", "LimitCycle", "certify_cycle", "cycle_census", "detect_cycle", "sync_test"),
                    "cycles"),
    **dict.fromkeys(("ReturnStep", "antiphase_state", "flow", "return_map", "sample_trajectory",
                     "state_at_threshold"), "dynamics"),
    **{m: m for m in ("contraction", "cycles", "dynamics", "_kernels", "_sampling")},
}

__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_LAZY[name]}")
    globals()[name] = value = module if _LAZY[name] == name else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
