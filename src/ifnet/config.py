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

`dump_json` writes `json.dumps(obj, sort_keys=True, indent=2)` text.  CPython
encodes with `indent` only in its pure-Python encoder, which costs a few
function calls per value, so a long list of flat records (a `Records`, such
as simulate's spike rows) takes a faster path to the same bytes: the C
encoder writes the whole list in one call, its item separator a comma, a
newline and the field indentation, and the row boundaries are then rewritten
to the indented layout.  The result is the same text because an encoded JSON
string never holds a raw newline, so inside the list a separator followed by
"{" can only start the next row (a field separator is followed by the quote
of a key).  Both encoders write numbers with the repr of int and float and
escape strings with the same function.  Only non-empty lists of non-empty
dicts with str keys and scalar values take this path; any other `Records` is
written as a plain list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
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


class Records:
    """A list of flat JSON objects that `dump_json` writes in one encoder call.

    `rows` holds dicts with str keys and str, number, bool or None values
    (NumPy scalars included); the text equals that of the plain list."""

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        self.rows = rows


def _plain(obj):
    """The Python value json writes for a NumPy array or scalar, or a `Records`."""
    if isinstance(obj, Records):
        return obj.rows
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# Values whose encoding the compact C encoder and the indenting encoder agree
# on and which hold no nested container (NumPy scalars go through _plain).
_SCALAR_TYPES = (str, int, float, type(None), np.bool_, np.integer, np.floating)
_MARK = "\x00records:"


def _flat(rows: list) -> bool:
    """Whether a record list can take the one-call path (module docstring)."""
    if not rows or set(map(type, rows)) != {dict} or not all(rows):
        return False
    if set(map(type, chain.from_iterable(rows))) != {str}:
        return False
    value_types = set(map(type, chain.from_iterable(map(dict.values, rows))))
    return all(issubclass(t, _SCALAR_TYPES) for t in value_types)


def _encode_records(rows: list, indent: int) -> str:
    """The indent=2 text of a flat record list whose "]" sits at column `indent`."""
    pad, field_pad = " " * (indent + 2), " " * (indent + 4)
    text = json.dumps(rows, sort_keys=True, allow_nan=False, default=_plain,
                      separators=(",\n" + field_pad, ": "))
    body = text[2:-2].replace("},\n" + field_pad + "{",
                              "\n" + pad + "},\n" + pad + "{\n" + field_pad)
    return "[\n" + pad + "{\n" + field_pad + body + "\n" + pad + "}\n" + " " * indent + "]"


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, repr floats, trailing newline.

    NumPy arrays and scalars are written as the matching lists and Python
    numbers and booleans, a `Records` as the list of its rows."""
    fast = []

    def default(o):
        if isinstance(o, Records) and _flat(o.rows):
            fast.append(o.rows)
            return f"{_MARK}{len(fast) - 1}"
        return _plain(o)

    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=default)
    tokens = [json.dumps(f"{_MARK}{i}") for i in range(len(fast))]
    if any(text.count(token) != 1 for token in tokens):
        # a string in the document spells a marker: write every record list plainly
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"
    parts, end = [], 0
    for rows, token in zip(fast, tokens):  # markers appear in encoding order
        at = text.index(token, end)
        head = text[text.rfind("\n", 0, at) + 1:at]
        parts += [text[end:at], _encode_records(rows, len(head) - len(head.lstrip(" ")))]
        end = at + len(token)
    parts.append(text[end:])
    return "".join(parts) + "\n"
