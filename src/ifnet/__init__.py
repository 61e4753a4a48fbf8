"""Event-driven simulation and dynamical analysis of leaky integrate-and-fire
pulse-coupled networks: closed-form return map, contraction/expansion
diagnostics, certified limit-cycle detection and synchronization tests."""

from .config import RunConfig, load_config
from .contraction import (
    absorption_check,
    adapted_distance,
    check_O_conditions,
    estimate_lipschitz_c,
    expansion_witness,
    jvac_check,
    lambda_for_zone,
    o_pairs,
    repeller,
    verify_contraction,
)
from .cycles import (
    FateReport,
    LimitCycle,
    certify_cycle,
    cycle_census,
    detect_cycle,
    sync_test,
)
from .dynamics import (
    ReturnStep,
    antiphase_state,
    flow,
    return_map,
    sample_trajectory,
    state_at_threshold,
)
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
    network,
)

__version__ = "0.1.0"

# Deprecated: the kernels are plain Python and there is no numba backend.
# Kept, always False, for callers that still record it: `bench/run.py` writes
# it into each run's environment record, so it stays until that stops.
NUMBA_ENABLED = False
