"""dump_json writes a `Records` table exactly as json.dumps(indent=2) writes its rows.

A `Records` holds one JSON text per row and key; `dump_json` splices each
table into the document's text, laid out as one list of separators and
cells.  These tests build tables from plain rows (strings through
`json_strings`, floats as their repr) and compare the text with the
indenting encoder's text for the same rows: at several depths, with strings
that hold escapes, non-ASCII text, percent signs and the splice marker, for
empty tables and for one of 2500 rows.  They also check `row_texts` against
formatting every row.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifnet.config import _MARK, Records, _plain, dump_json, json_strings, row_texts

MARKERS = [_MARK + "0:0", _MARK + "0:1", _MARK + "1:0", _MARK + "0:"]
TRICKY = ["},", "},\n", "}, {", "\n", '"', "\\", "\x00", "é", "日本", " ", "\U0001f600",
          "%s", "%", "%%(x)s", "[\n  {", "\n    }\n  ]", json.dumps(MARKERS[0])] + MARKERS

texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY),
                  st.lists(st.sampled_from(TRICKY), max_size=4).map("".join))
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite, texts)


class Table(Records):
    """A `Records` that keeps its rows, for the reference encoder."""

    __slots__ = ("rows",)

    def __init__(self, rows: list):
        keys = rows[0] if rows else {}
        super().__init__({k: cell_texts([r[k] for r in rows]) for k in keys})
        self.rows = rows


def cell_texts(values: list) -> list:
    """JSON text of each cell: json_strings for a str column, repr for a float."""
    if all(isinstance(v, str) for v in values):
        return json_strings(values)
    return [repr(v) if type(v) is float else json.dumps(v) for v in values]


tables = st.lists(texts, min_size=1, max_size=5, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: scalars for k in keys}), max_size=6)).map(Table)


def plain(obj):
    """The document with every table replaced by its list of rows."""
    if isinstance(obj, Table):
        return obj.rows
    if isinstance(obj, Records):  # a bare table: its cells read back
        return [dict(zip(obj.columns, map(json.loads, cells))) for cells in zip(*obj.columns.values())]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


def reference(doc) -> str:
    return json.dumps(plain(doc), sort_keys=True, indent=2, allow_nan=False, default=_plain) + "\n"


def sweep_like(cells):
    return {"cell_command": "simulate", "grid": ["beta:1:2:2"],
            "cells": [{"index": i, "status": "ok", "result": {"spikes": rec, "steps": len(rec.rows)}}
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
    {"a": Table([{"x": 1}]), "b": [Table([{"y": "\n"}, {"y": "},"}]), Records({"z": []})]},
    sweep_like([Table([{"step": 0, "t_bar": 0.5}]), Table([]), Table([{"step": 0}] * 3)]),
])
def test_dump_json_record_placements(doc):
    assert dump_json(doc) == reference(doc)


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
    doc = {"spikes": Table([{"t": 1.0}, {"t": float(bad)}])}
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        dump_json(doc)
    with pytest.raises(ValueError):  # the spelling of json.dumps(allow_nan=True)
        dump_json({"spikes": Records({"t": ["1.0", json.dumps(float(bad))]})})
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
    for rows in (fired[:, :1], fired[:, :2], np.hstack((fired, fired[:, :1])), v.astype(np.float32)):
        assert row_texts(rows, str) == list(map(str, rows.tolist()))  # rows of 1, 2 and 4 bytes
    assert row_texts(states[:, ::-1]) == list(map(repr, states[:, ::-1].tolist()))
    assert row_texts(np.empty((0, 3))) == []


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
