"""dump_json writes a `Records` table exactly as json.dumps(indent=2) writes its rows.

A `Records` gives the JSON text of its cells a chunk of rows at a time;
`json_blocks` writes each table in the document's text, a chunk per block.
These tests build tables from plain rows (strings through `json_strings`,
floats as their repr) and compare the text with the indenting encoder's text
for the same rows: at several depths, beside null values (the encoder's
stand-in for a table), with strings that hold escapes, non-ASCII text,
percent signs and the spellings of an older splice marker, for empty tables
and for one of 2500 rows, with the chunk size as set and at 1 to 8 rows.  A
column may give a chunk whose cells all have one text as that one str, as
`row_texts` does.  They also check `row_texts` against formatting every row.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifnet import config
from ifnet.config import Records, _plain, dump_json, json_strings, row_texts, text_grid

# the placeholders dump_json once wrote for a table and spliced its text over
MARKERS = ["\x00records0:0", "\x00records0:1", "\x00records1:0", "\x00records0:"]
TRICKY = ["},", "},\n", "null", "}, {", "\n", '"', "\\", "\x00", "é", "日本", " ", "\U0001f600",
          "%s", "%", "%%(x)s", "[\n  {", "\n    }\n  ]", json.dumps(MARKERS[0])] + MARKERS

texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY),
                  st.lists(st.sampled_from(TRICKY), max_size=4).map("".join))
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, texts)


def records(columns: dict) -> Records:
    """A `Records` of text columns of equal length."""
    return Records(len(next(iter(columns.values()), [])), lambda lo, hi: {k: v[lo:hi] for k, v in columns.items()})


class Table(Records):
    """A `Records` that keeps its rows, for the reference encoder.  A column gives
    a chunk whose cells all have one text as that str, as `row_texts` does."""

    def __init__(self, data: list):
        keys = data[0] if data else {}
        columns = {k: cell_texts([r[k] for r in data]) for k in keys}

        def cells(lo, hi):
            return {k: v[lo] if hi > lo and v[lo:hi] == [v[lo]] * (hi - lo) else v[lo:hi] for k, v in columns.items()}

        super().__init__(len(data), cells)
        self.data, self.texts = data, columns


def cell_texts(values: list) -> list:
    """JSON text of each cell: json_strings for a str column, repr for a float."""
    if all(isinstance(v, str) for v in values):
        return json_strings(values)
    return [repr(v) if type(v) is float else json.dumps(v) for v in values]


def hold(rows: list) -> list:
    """The rows with every second column (the second, the fourth) holding the first
    row's value, so that each chunk of such a column has one text."""
    return [{**r, **{k: rows[0][k] for k in list(r)[1::2]}} for r in rows]


tables = st.lists(texts, min_size=1, max_size=5, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: scalars for k in keys}), max_size=6)).map(
    lambda rows: Table(hold(rows)))


def plain(obj):
    """The document with every table replaced by its list of rows."""
    if isinstance(obj, Table):
        return obj.data
    if isinstance(obj, Records):  # a bare table: its cells read back
        columns = obj.cells(0, obj.rows)
        return [dict(zip(columns, map(json.loads, cells))) for cells in zip(*columns.values())]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


def reference(doc) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"


def sweep_like(cells):
    return {"cell_command": "simulate", "grid": ["beta:1:2:2"],
            "cells": [{"index": i, "status": "ok", "result": {"spikes": rec, "steps": rec.rows}}
                      for i, rec in enumerate(cells)]}


documents = st.one_of(
    tables,
    st.fixed_dictionaries({"spikes": tables, "steps": st.integers(),
                           "v0": st.lists(finite, max_size=3).map(np.array), "note": texts}),
    st.lists(st.one_of(tables, scalars), max_size=4),
    st.lists(tables, max_size=4).map(sweep_like),
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_dump_json_equals_indented_encoder(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    Table([]),
    {"spikes": Table([]), "steps": 0},
    {"a": Table([{"x": 1}]), "b": [Table([{"y": "\n"}, {"y": "},"}]), records({"z": []})]},
    sweep_like([Table([{"step": 0, "t_bar": 0.5}]), Table([]), Table([{"step": 0}] * 3)]),
])
def test_dump_json_record_placements(doc):
    assert dump_json(doc) == reference(doc)


def tables_in(obj) -> list:
    """The `Table`s of a document."""
    if isinstance(obj, Table):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    return [t for v in obj for t in tables_in(v)] if isinstance(obj, list) else []


@settings(max_examples=200, deadline=None)
@given(doc=documents, chunk=st.integers(1, 8))
def test_dump_json_in_chunks_of_any_size(tmp_path_factory, doc, chunk):
    """Each table with rows also has a `csv` path, written in the same pass: each
    CSV line is the row's cell texts joined by ","."""
    written = [t for t in tables_in(doc) if t.rows]
    for k, table in enumerate(written):
        table.csv = str(tmp_path_factory.getbasetemp() / f"table_{k}.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config, "CHUNK_ROWS", chunk)
        assert dump_json(doc) == reference(doc)
    for table in written:
        with open(table.csv, encoding="utf-8", newline="") as fh:
            lines = [list(table.texts), *zip(*table.texts.values())]
            assert fh.read() == "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_a_table_with_a_csv_path_writes_both_files_from_one_pass(tmp_path, monkeypatch, chunk):
    """The JSON rows quote the cells of `strings` and the CSV rows hold them as they
    are; each chunk of cells is made once, for both."""
    if chunk is not None:
        monkeypatch.setattr(config, "CHUNK_ROWS", chunk)
    size = config.CHUNK_ROWS
    rows = 2 * size + 3
    rng = np.random.default_rng(1)
    t = rng.standard_normal(rows).tolist()
    names = [["1;2", "é", "\\", "日本", ""][k] for k in rng.integers(5, size=rows)]
    calls = []

    def cells(lo, hi):
        calls.append((lo, hi))
        # "kind" is one str, the text of every row of the chunk, and the first key
        # of a JSON record
        return {"step": list(map(str, range(lo, hi))), "t": list(map(repr, t[lo:hi])), "name": names[lo:hi],
                "kind": "é;\\"}

    for count in (rows, 0):
        calls.clear()
        path = tmp_path / f"table_{count}.csv"
        doc = {"a": [None, {"spikes": Records(count, cells, frozenset({"name", "kind"}), str(path))}], "z": None}
        want = [{"step": k, "t": t[k], "name": names[k], "kind": "é;\\"} for k in range(count)]
        assert dump_json(doc) == json.dumps({"a": [None, {"spikes": want}], "z": None}, sort_keys=True, indent=2) + "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "t", "name", "kind"])
        writer.writerows([k, t[k], names[k], "é;\\"] for k in range(count))
        assert path.read_text(encoding="utf-8") == buf.getvalue()
        assert calls == [(lo, min(lo + size, count)) for lo in range(0, max(count, 1), size)]


def test_dump_json_large_table_of_tricky_keys_and_cells():
    rng = np.random.default_rng(0)
    keys = sorted(set(TRICKY))
    values = [*TRICKY, None, True, False, 0, -7, 2**70, 0.0, -0.0, 1e-300, 1.5e300, 0.1]
    # a str column, a float column and mixed columns
    kinds = {k: ("str", "float", "mixed")[i % 3] for i, k in enumerate(keys)}
    rows = []
    for _ in range(2500):
        rows.append({k: (TRICKY[rng.integers(len(TRICKY))] if kind == "str" else
                         float(rng.standard_normal()) if kind == "float" else values[rng.integers(len(values))])
                     for k, kind in kinds.items()})
    doc = {"note": MARKERS[0], "spikes": Table(rows), "more": [Table(rows[:3]), {"deep": Table(rows[-2000:])}]}
    assert dump_json(doc) == reference(doc)


def test_dump_json_single_row_table_at_depth_3():
    doc = {"a": {"b": {"c": Table([{"t": 0.5, "%s": "},\n", "k": None}])}}, "z": 1}
    assert dump_json(doc) == reference(doc)


def test_dump_json_document_spelling_the_marker():
    for note in (*MARKERS, 'x"' + MARKERS[0], [MARKERS[0]], {MARKERS[0]: MARKERS[1]}):
        doc = {"note": note, "spikes": Table([{"a": 1.5, "b": "c"}, {"a": 2.0, "b": "d"}]),
               "more": [Table([{"a": 0.0, "b": MARKERS[0]}])]}
        assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize("bad", [float("nan"), np.float64("nan"), float("inf"), np.float32("-inf")])
def test_dump_json_rejects_non_finite_rows(bad):
    # a `Records` holds text its maker vouches for (simulate checks its arrays
    # before it makes any), so rows of values are what the encoder checks
    doc = {"spikes": [{"t": 1.0}, {"t": float(bad)}], "table": Table([{"t": 1.0}])}
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        dump_json(doc)
    with pytest.raises(ValueError):
        dump_json({"t": bad})


def test_row_texts_formats_every_row_by_its_bytes():
    v = np.array([0.0, -0.0, 0.0, 1.5, -0.0, 1.5])
    assert row_texts(v) == ["0.0", "-0.0", "0.0", "1.5", "-0.0", "1.5"]
    states = np.array([[0.0, 0.6], [-0.0, 0.6], [0.0, 0.6], [0.25, -0.0]])
    calls = []

    def fmt(row):
        calls.append(row)
        return ";".join(map(repr, row))

    assert row_texts(states, fmt) == [";".join(map(repr, r)) for r in states.tolist()]
    assert len(calls) == 3  # one call per distinct row
    fired = np.array([[True, False, True], [False, True, False], [True, False, True]])
    assert row_texts(fired, str) == list(map(str, fired.tolist()))
    # rows of 1 to 8 bytes, each zero-padded to one uint64 word
    for width in range(1, 9):
        rows = np.hstack((fired, ~fired, fired[::-1]))[:, :width]
        assert row_texts(rows, str) == list(map(str, rows.tolist())), width
    assert row_texts(v.astype(np.float32), str) == list(map(str, v.astype(np.float32).tolist()))
    assert row_texts(states[:, ::-1]) == list(map(repr, states[:, ::-1].tolist()))
    assert row_texts(np.empty((0, 3))) == []


def test_row_texts_gives_one_str_for_rows_of_the_same_bytes():
    calls = []

    def fmt(row):
        calls.append(row)
        return ";".join(map(repr, row))

    assert row_texts(np.zeros((5, 3)), fmt) == "0.0;0.0;0.0"
    assert len(calls) == 1  # one call for the chunk, before any sort
    assert row_texts(np.full(4, -0.0)) == "-0.0"
    assert row_texts(np.array([[0.5, 0.0, 0.5]] * 3) != 0.0, str) == "[True, False, True]"
    assert row_texts(np.array([0.0, -0.0])) == ["0.0", "-0.0"]  # equal, but not the same bytes
    assert row_texts(np.array([[0.0, 1.0], [-0.0, 1.0]]), fmt) == ["0.0;1.0", "-0.0;1.0"]
    assert row_texts(np.array([])) == []
    assert row_texts(np.array([[0.25, -0.0]]), fmt) == "0.25;-0.0"  # one row


def test_text_grid_makes_a_run_of_str_parts_one_piece_of_each_row():
    assert text_grid(2, ["{", "a", ["1", "2"], ",", "b", "}"]) == ["{a", "1", ",b}", "{a", "2", ",b}"]
    assert text_grid(3, ["x", ",", "y"]) == ["x,y"] * 3
    assert text_grid(0, ["x", []]) == []


def test_row_texts_tells_apart_wide_rows_that_differ_in_one_word():
    # rows of 24 bytes (three uint64 words), each differing from the base row in one
    # word only, or only in the sign of a zero; and rows of 12 and 9 bytes, which
    # are zero-padded to whole words
    base = [0.0, 0.5, -0.25]
    rows = [base, [-0.0, 0.5, -0.25], [0.0, -0.0, -0.25], [0.0, 0.5, 0.0], [0.0, 0.5, -0.0],
            [1.0, 0.5, -0.25], [0.0, 0.5000000000000001, -0.25], base, [-0.0, 0.5, -0.25]]
    states = np.array(rows)
    calls = []

    def fmt(row):
        calls.append(row)
        return ";".join(map(repr, row))

    assert row_texts(states, fmt) == [";".join(map(repr, r)) for r in rows]
    assert len(calls) == 7  # one call per distinct row of bytes
    for wide in (states.astype(np.float32), states[:, :2].astype(np.float32), states != 0.0):
        distinct = {r.tobytes() for r in wide}
        calls.clear()
        assert row_texts(wide, fmt) == [";".join(map(repr, r)) for r in wide.tolist()]
        assert len(calls) == len(distinct)
    flags = np.zeros((4, 9), np.bool_)
    flags[1, 8] = flags[2, 0] = flags[3, 8] = True  # the ninth byte alone sits in the padded word
    assert row_texts(flags, str) == list(map(str, flags.tolist()))
