"""Configuration files and bit-stable serialization.

Network config schema (JSON):

    {"n": int, "gamma": num, "beta": num, "theta": num, "alpha": num,
     "H": [[num, ...], ...],          # n rows of n numbers, H[j][i] = j -> i
     "K": num,                        # optional, accepted instead of beta
     "V0": [num, ...]}                # optional initial state for `simulate`

Either "beta" or "K" must be present; with "K", beta = K/gamma.  `params.network`
checks every value, and "V0" with its check for "H" (n numbers, all finite),
each coordinate then in [alpha, theta].

Outputs are reproducible byte for byte: floats serialize through repr (shortest
round-trip, at most 17 significant digits), JSON keys are sorted, CSV rows use
LF terminators.

`dump_json` writes `json.dumps(obj, sort_keys=True, indent=2)` text.  The
indenting encoder is pure Python and slow per value, so simulate hands its
spike rows over as a `Records`: columns that already hold each row's JSON
text (`row_texts` formats each distinct array row once, `json_strings`
quotes each distinct string once).  The encoder writes a placeholder for the
table, replaced afterwards by the table's text: one `text_grid` list that
holds, row by row, each cell after the separator and key before it, so the
whole document is joined once.  The text equals json.dumps of the rows, as
both write numbers as repr and escape strings with json.dumps.  A cell
spelling a non-finite float raises ValueError; a document string spelling a
placeholder makes the encoder run again with another one.  The CSV files
are laid out the same way, with "," and a newline between the cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import count
from typing import Optional

import numpy as np

from .errors import ParseError, RejectConfig
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
    if v0 is not None and not ((v0 >= params.alpha) & (v0 <= params.theta)).all():
        raise RejectConfig(f"V0 has a coordinate outside [alpha, theta] = [{params.alpha}, {params.theta}]")
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
    raw = arr.reshape(len(arr), math.prod(arr.shape[1:])).view(np.uint8)
    size = raw.shape[1]
    if size <= 8:  # one key per row, fastest as an unsigned integer
        keys = raw.view(f"u{size}" if size in (1, 2, 4, 8) else np.dtype((np.void, size)))
        _, first, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
    else:  # zero-padded uint64 words, one sort key each: a void key sorts about ten times slower
        if size % 8:
            raw = np.hstack((raw, np.zeros((len(raw), -size % 8), np.uint8)))
        words = raw.view(np.uint64)
        order = np.lexsort(words.T)  # stable: each group of equal rows starts at its first row
        new = np.zeros(len(raw), np.bool_)
        new[:1] = True
        for word in words.T:
            w = word[order]
            new[1:] |= w[1:] != w[:-1]
        first, inverse = order[new], np.empty(len(raw), np.intp)
        inverse[order] = np.cumsum(new) - 1
    return np.array([fmt(row) for row in arr[first].tolist()], object)[inverse].tolist()


def text_grid(rows: int, parts: list) -> list:
    """The pieces of a text table, row by row: each part is a str that every row
    repeats or a column of one text per row."""
    pieces = [None] * (rows * len(parts))
    for k, part in enumerate(parts):
        pieces[k::len(parts)] = [part] * rows if isinstance(part, str) else part
    return pieces


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


def _encode_records(columns: dict, indent: int) -> list:
    """The indent=2 text of a `Records` whose "]" sits at column `indent`, in pieces."""
    if any(not _NON_FINITE.isdisjoint(cells) for cells in columns.values()):
        raise ValueError("Out of range float values are not JSON compliant")
    pad, rows = "\n" + " " * (indent + 2), len(next(iter(columns.values()), ()))
    parts = [f"{pad}}},{pad}{{"]  # a record per row, after the record before it ends
    for k, key in enumerate(sorted(columns)):  # each cell after its key
        parts += [f"{',' if k else ''}{pad}  {json.dumps(key)}: ", columns[key]]
    return [f"[{pad}{{", *text_grid(rows, parts)[1:], f"{pad}}}\n{' ' * indent}]"] if rows else ["[]"]


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
        parts += [text[end:at], *_encode_records(columns, len(head) - len(head.lstrip(" ")))]
        end = at + len(token)
    parts += [text[end:], "\n"]
    return "".join(parts)
