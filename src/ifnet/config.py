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

`json_blocks` writes `json.dumps(obj, sort_keys=True, indent=2)` text in blocks
(`dump_json` joins them).  The indenting encoder is pure Python and slow per
value, so simulate hands its spike rows over as a `Records`: a table that
formats its cells a chunk of CHUNK_ROWS rows at a time (`row_texts` formats
each distinct array row of a chunk once, `json_strings` quotes each distinct
string once).  `default` turns a table into None, and the encoder (pure
Python with an indent, making its chunks one at a time) yields the "null" of
that None next; `json_blocks` yields the text so far and then the table's
rows in its place, each chunk laid out as one `text_grid` list that holds, row by row,
each cell after the separator and key before it.  A column whose cells in a
chunk all have one text may give that one str (`row_texts` does when every
row has the same bytes, and skips its sort): `text_grid` joins it with the
separators and keys beside it, so every row of the chunk repeats one piece.
The text equals json.dumps of the rows, as both write numbers as repr and
escape strings with json.dumps.  A table's cells are text its maker vouches
for: simulate checks its arrays are finite before it makes any.  A table with
a `csv` path is written there as CSV from the same chunks, in the same pass;
`write_csv` writes a table as CSV alone.  So the text in memory at a time is
one chunk, however many rows a table has.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

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


def row_texts(arr, fmt=repr):
    """fmt(row.tolist()) for each row of a 1-D or 2-D array, called once per distinct
    row, keyed by the row's bytes (0.0 == -0.0, but they print differently); one str,
    the text of every row, when all rows have the same bytes."""
    arr = np.ascontiguousarray(arr)
    raw = arr.reshape(len(arr), math.prod(arr.shape[1:])).view(np.uint8)
    if raw.shape[1] % 8:
        raw = np.hstack((raw, np.zeros((len(raw), -raw.shape[1] % 8), np.uint8)))
    words = raw.view(np.uint64)  # zero-padded uint64 words, one sort key each: a void key sorts slower
    if len(words) and (words == words[0]).all():
        return fmt(arr[0].tolist())
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
    repeats or a column of one text per row.  A run of adjacent str parts is one
    piece of each row."""
    parts = [part for joined, run in itertools.groupby(parts, lambda part: isinstance(part, str))
             for part in (["".join(run)] if joined else run)]
    pieces = [None] * (rows * len(parts))
    for k, part in enumerate(parts):
        pieces[k::len(parts)] = [part] * rows if isinstance(part, str) else part
    return pieces


def json_strings(texts):
    """The JSON text of each str, encoded once per distinct value; of one str, its text."""
    if isinstance(texts, str):
        return json.dumps(texts)
    quoted = {t: json.dumps(t) for t in set(texts)}
    return list(map(quoted.__getitem__, texts))


CHUNK_ROWS = 4096  # table rows each writer formats and writes at a time


@dataclass
class Records:
    """A table of `rows` rows that the writers read a chunk of at most CHUNK_ROWS
    rows at a time: `cells(lo, hi)` maps each key to the text of its cells in rows
    lo..hi-1 (a float's repr, an int's str, ...), a list of one text per row or
    one str that every row of the chunk holds.  JSON writes it as a list of
    objects, the cells of the keys in `strings` quoted (`json_strings`) and the
    others as they are; CSV writes a column per key, in the order `cells` gives
    them.  `json_blocks` also writes a table with a `csv` path there, from the
    same chunks."""

    rows: int
    cells: Callable
    strings: frozenset = frozenset()
    csv: Optional[str] = None

    def chunks(self):
        """(lo, hi, cells) of each chunk of rows in order; one empty chunk for no rows."""
        for lo in range(0, max(self.rows, 1), CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, self.rows)
            yield lo, hi, self.cells(lo, hi)


def _plain(obj):
    """The Python value json writes for a NumPy array or scalar."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _csv_rows(path, chunks):
    """Pass on each (lo, hi, cells) chunk of a table after writing it to `path` as CSV
    lines: the header first, fields joined by "," (none needs quoting)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for lo, hi, cells in chunks:
            parts = [part for column in cells.values() for part in (column, ",")]
            parts[-1] = "\n"
            fh.write((",".join(cells) + "\n" if lo == 0 else "") + "".join(text_grid(hi - lo, parts)))
            yield lo, hi, cells


def write_csv(path, table: Records) -> None:
    """Write `table` as a CSV file, a chunk of rows at a time."""
    for _ in _csv_rows(path, table.chunks()):
        pass


def _table_text(table: Records, indent: int):
    """The indent=2 text of a `Records` whose "]" sits at column `indent`, a chunk of
    rows at a time; each chunk also goes to `table.csv` when that is set."""
    pad = "\n" + " " * (indent + 2)
    for lo, hi, cells in table.chunks() if table.csv is None else _csv_rows(table.csv, table.chunks()):
        if table.rows:
            parts = [f"{pad}}},{pad}{{"]  # a record per row, after the record before it ends
            for k, key in enumerate(sorted(cells)):  # each cell after its key
                parts += [f"{',' if k else ''}{pad}  {json.dumps(key)}: ",
                          json_strings(cells[key]) if key in table.strings else cells[key]]
            pieces = text_grid(hi - lo, parts)
            if lo == 0:  # the first record opens the list; str parts after the separator share its piece
                pieces[0] = f"[{pad}{{" + pieces[0].removeprefix(parts[0])
            yield "".join(pieces)
    yield f"{pad}}}\n{' ' * indent}]" if table.rows else "[]"


def json_blocks(obj):
    """Canonical JSON text in blocks: sorted keys, repr floats, trailing newline.

    NumPy arrays and scalars are written as the matching lists and Python
    numbers and booleans, a `Records` as the list of its rows, a chunk of rows
    per block; the text between tables is one block."""
    table = []

    def default(o):
        if isinstance(o, Records):
            table.append(o)
            return None
        return _plain(o)

    text = []  # the document since the last table
    for chunk in json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=default).iterencode(obj):
        if table:  # chunk is the "null" of the table `default` was just asked for
            head = "".join(text)
            line = head[head.rfind("\n") + 1:]
            yield head
            yield from _table_text(table.pop(), len(line) - len(line.lstrip(" ")))
            text = []
        else:
            text.append(chunk)
    text.append("\n")
    yield "".join(text)


def dump_json(obj) -> str:
    """The whole text of `json_blocks`."""
    return "".join(json_blocks(obj))
