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

`dump_json` writes `json.dumps(obj, sort_keys=True, indent=2)` text.  The
indenting encoder is pure Python and slow per value, so simulate hands its
spike rows over as a `Records`: columns that already hold each row's JSON
text (`row_texts` formats each distinct array row once, `json_strings`
quotes each distinct string once).  The encoder writes a placeholder for the
table, replaced afterwards by one `%` row template per row; the text equals
json.dumps of the rows, as both write numbers as repr and escape strings
with json.dumps.  A cell spelling a non-finite float raises ValueError; a
document string spelling a placeholder makes the encoder run again with
another one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count
from typing import Optional

import numpy as np

from .errors import ParseError
from .params import NetworkParams, network

_SCALARS = {"gamma": float, "theta": float, "alpha": float}


@dataclass
class RunConfig:
    params: NetworkParams
    v0: Optional[np.ndarray] = None


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
    return RunConfig(params=params, v0=v0)


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
        "H": params.H.tolist(),
    }


def row_texts(arr, fmt=repr) -> list:
    """fmt(row.tolist()) for each row of a 1-D or 2-D array, called once per distinct
    row, keyed by the row's bytes (0.0 == -0.0, but they print differently)."""
    arr = np.ascontiguousarray(arr)
    width = math.prod(arr.shape[1:])
    keys = arr.reshape(len(arr), width).view(np.dtype((np.void, arr.itemsize * width)))
    _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    return np.array([fmt(row) for row in arr[first].tolist()], object)[inverse].tolist()


def json_strings(texts: list) -> list:
    """The JSON text of each str, encoded once per distinct value."""
    quoted = {t: json.dumps(t) for t in set(texts)}
    return list(map(quoted.__getitem__, texts))


@dataclass
class Records:
    """A table `dump_json` writes as a list of objects: `columns` maps each key
    to one JSON text per row (a float's repr, a `json_strings` entry, ...)."""

    columns: dict


def _plain(obj):
    """The Python value json writes for a NumPy array or scalar."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# a non-finite float as repr and as json.dumps(allow_nan=True) spell it
_NON_FINITE = frozenset(("nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"))


def _encode_records(columns: dict, indent: int) -> str:
    """The indent=2 text of a `Records` whose "]" sits at column `indent`."""
    keys = sorted(columns)
    if any(not _NON_FINITE.isdisjoint(columns[k]) for k in keys):
        raise ValueError("Out of range float values are not JSON compliant")
    if not keys or not len(columns[keys[0]]):
        return "[]"
    pad, field_pad = " " * (indent + 2), " " * (indent + 4)
    fields = ",\n".join(f"{field_pad}{json.dumps(k).replace('%', '%%')}: %s" for k in keys)
    row = f"{pad}{{\n{fields}\n{pad}}}"
    body = ",\n".join(map(row.__mod__, zip(*(columns[k] for k in keys))))
    return "[\n" + body + "\n" + " " * indent + "]"


_MARK = "\x00records"


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, repr floats, trailing newline.

    NumPy arrays and scalars are written as the matching lists and Python
    numbers and booleans, a `Records` as the list of its rows."""
    tables = []

    def default(o):
        if isinstance(o, Records):
            tables.append(o.columns)
            return f"{mark}{len(tables) - 1}"
        return _plain(o)

    for salt in count():
        mark = f"{_MARK}{salt}:"
        tables.clear()
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=default)
        tokens = [json.dumps(f"{mark}{i}") for i in range(len(tables))]
        if all(text.count(token) == 1 for token in tokens):
            break
        # a string in the document spells a marker: encode again with another one
    parts, end = [], 0
    for columns, token in zip(tables, tokens):  # markers appear in encoding order
        at = text.index(token, end)
        head = text[text.rfind("\n", 0, at) + 1:at]
        parts += [text[end:at], _encode_records(columns, len(head) - len(head.lstrip(" ")))]
        end = at + len(token)
    parts.append(text[end:])
    return "".join(parts) + "\n"
