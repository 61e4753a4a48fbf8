"""Configuration files and bit-stable serialization.

Network config schema (JSON):

    {"n": int, "gamma": num, "beta": num, "theta": num, "alpha": num,
     "H": [[num, ...], ...],          # n rows of n numbers, H[j][i] = j -> i
     "K": num,                        # optional, accepted instead of beta
     "V0": [num, ...]}                # optional initial state for `simulate`

Either "beta" or "K" must be present; with "K", beta = K/gamma.  Outputs are
reproducible byte for byte: floats serialize through repr (shortest
round-trip, at most 17 significant digits), JSON keys are sorted, CSV rows use
LF terminators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError
from .params import NetworkParams, network

_SCALARS = {"gamma": float, "theta": float, "alpha": float}


@dataclass
class RunConfig:
    params: NetworkParams
    v0: Optional[np.ndarray] = None
    raw: dict = field(default_factory=dict)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    if "n" not in doc:
        raise ParseError("missing field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"field 'n' must be an integer, got {n!r}")
    vals = {}
    for name, cast in _SCALARS.items():
        if name not in doc:
            raise ParseError(f"missing field '{name}'")
        if not isinstance(doc[name], (int, float)) or isinstance(doc[name], bool):
            raise ParseError(f"field '{name}' must be a number, got {doc[name]!r}")
        vals[name] = cast(doc[name])
    if "beta" in doc:
        if not isinstance(doc["beta"], (int, float)) or isinstance(doc["beta"], bool):
            raise ParseError(f"field 'beta' must be a number, got {doc['beta']!r}")
        beta = float(doc["beta"])
    elif "K" in doc:
        if not isinstance(doc["K"], (int, float)) or isinstance(doc["K"], bool):
            raise ParseError(f"field 'K' must be a number, got {doc['K']!r}")
        if vals["gamma"] == 0:
            raise ParseError("field 'K' requires nonzero 'gamma'")
        beta = float(doc["K"]) / vals["gamma"]
    else:
        raise ParseError("missing field 'beta' (or 'K')")
    if "H" not in doc:
        raise ParseError("missing field 'H'")
    H = doc["H"]
    if (not isinstance(H, list) or len(H) != n
            or any(not isinstance(r, list) or len(r) != n for r in H)):
        raise ParseError(f"field 'H' must be an {n}x{n} array of numbers")
    try:
        H_arr = np.array(H, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field 'H' contains a non-numeric entry: {exc}") from exc
    params = network(n=n, gamma=vals["gamma"], beta=beta,
                     theta=vals["theta"], alpha=vals["alpha"], H=H_arr)
    v0 = None
    if "V0" in doc:
        if not isinstance(doc["V0"], list) or len(doc["V0"]) != n:
            raise ParseError(f"field 'V0' must be a list of {n} numbers")
        v0 = np.array(doc["V0"], dtype=np.float64)
    return RunConfig(params=params, v0=v0, raw=doc)


def load_config(path: str) -> RunConfig:
    """Parse and validate a network config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path} at line {exc.lineno}: {exc.msg}") from exc
    return parse_config(doc)


def params_to_doc(params: NetworkParams) -> dict:
    """Config document that reloads to an identical NetworkParams."""
    return {
        "n": params.n, "gamma": params.gamma, "beta": params.beta,
        "theta": params.theta, "alpha": params.alpha,
        "H": [[float(x) for x in row] for row in params.H],
    }


def _plain(obj):
    """The Python value json writes for a NumPy array or scalar."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, repr floats, trailing newline.

    NumPy arrays and scalars are written as the matching lists and Python
    numbers and booleans."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"


def fmt(x: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))
