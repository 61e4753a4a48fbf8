"""Configuration files and bit-stable serialization.

Network config schema (JSON):

    {"n": int, "gamma": num, "beta": num, "theta": num, "alpha": num,
     "H": [[num, ...], ...],          # n rows of n numbers, H[j][i] = j -> i
     "K": num,                        # optional, accepted instead of beta
     "V0": [num, ...]}                # optional initial state for `simulate`

Either "beta" or "K" must be present; with "K", beta = K/gamma.  `params.network`
checks every value, and "V0" with its check for "H" (n numbers, all finite).

Outputs are reproducible byte for byte: floats serialize through repr (shortest
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
from .params import NetworkParams, network, number, number_array


@dataclass
class RunConfig:
    params: NetworkParams
    v0: Optional[np.ndarray] = None


def parse_config(doc) -> RunConfig:
    """Read a config document; `network` checks every value it holds."""
    if not isinstance(doc, dict):
        raise ParseError("config root must be a JSON object")
    if "beta" not in doc and "K" in doc:
        try:
            doc = {**doc, "beta": number("K", doc["K"]) / doc["gamma"]}
        except (KeyError, TypeError, ArithmeticError):  # no gamma, or one `network` rejects before beta
            doc = {**doc, "beta": math.nan}
    for name in ("n", "gamma", "beta", "theta", "alpha", "H"):
        if name not in doc:
            raise ParseError(f"missing field '{name}'" + (" (or 'K')" if name == "beta" else ""))
    params = network(doc["n"], doc["gamma"], doc["beta"], doc["theta"], doc["alpha"], doc["H"])
    v0 = number_array("V0", doc["V0"], (params.n,)) if "V0" in doc else None
    return RunConfig(params=params, v0=v0)


def load_config(path: str) -> RunConfig:
    """Read, parse and validate a network config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, not UTF-8, an int over 4300 digits
        raise ParseError(f"cannot read config {path}: {exc}") from exc
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
