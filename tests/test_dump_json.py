"""dump_json writes a `Records` list exactly as json.dumps(indent=2) writes the plain list.

The record-list path encodes the rows with the C encoder and rewrites the row
boundaries; these tests compare its text with the indenting encoder's text
for the same document, for record lists at several depths and for rows whose
strings spell the boundaries, escapes and the splice marker.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifnet.config import _MARK, Records, _plain, dump_json

TRICKY = ["},", "},\n", "}, {", "\n", '"', "\\", "\x00", "é", "日本", " ", "\U0001f600",
          _MARK, _MARK + "0", _MARK + "1", json.dumps(_MARK + "0"), "[\n  {", "\n    }\n  ]"]

texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY),
                  st.lists(st.sampled_from(TRICKY), max_size=4).map("".join))
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), finite, texts,
    finite.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
flat_rows = st.lists(st.dictionaries(texts, scalars, min_size=1, max_size=5), max_size=6)
# rows the fast path must turn down: empty dicts, nested values, int keys
odd_rows = st.lists(st.one_of(
    st.dictionaries(texts, st.one_of(scalars, st.lists(scalars, max_size=2),
                                     st.dictionaries(texts, scalars, max_size=2)), max_size=3),
    st.dictionaries(st.integers(), scalars, min_size=1, max_size=3),
), max_size=4)
records = st.one_of(flat_rows, odd_rows).map(Records)


def plain(obj):
    """The document with every Records replaced by its list of rows."""
    if isinstance(obj, Records):
        return plain(obj.rows)
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
    records,
    st.fixed_dictionaries({"spikes": records, "steps": st.integers(), "v0": st.lists(finite, max_size=3),
                           "note": texts}),
    st.lists(st.one_of(records, scalars), max_size=4),
    st.lists(records, max_size=4).map(sweep_like),
)


@settings(max_examples=400, deadline=None)
@given(doc=documents)
def test_dump_json_equals_indented_encoder(doc):
    assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    Records([]),
    {"spikes": Records([]), "steps": 0},
    {"a": Records([{"x": 1}]), "b": [Records([{"y": "\n"}, {"y": "},"}]), Records([])]},
    sweep_like([Records([{"step": 0, "t_bar": 0.5}]), Records([]), Records([{"step": 0}] * 3)]),
])
def test_dump_json_record_placements(doc):
    assert dump_json(doc) == reference(doc)


def test_dump_json_document_spelling_the_marker():
    for note in (_MARK + "0", 'x"' + _MARK + "0", [_MARK + "0"]):
        doc = {"note": note, "spikes": Records([{"a": 1.5, "b": "c"}, {"a": 2.0, "b": "d"}])}
        assert dump_json(doc) == reference(doc)


@pytest.mark.parametrize("bad", [float("nan"), np.float64("nan"), float("inf"), np.float32("-inf")])
def test_dump_json_rejects_non_finite_rows(bad):
    doc = {"spikes": Records([{"t": 1.0}, {"t": bad}])}
    with pytest.raises(ValueError):
        reference(doc)
    with pytest.raises(ValueError):
        dump_json(doc)
