import sys
import types

import numpy as np
import pytest

import spans
from spans import Recorder, SpanTable, instrument, layer_metrics, self_times, unattributed


def table_of(rows, counts=None) -> SpanTable:
    """Spans from (name, start, end, parent) rows."""
    names = sorted({r[0] for r in rows})
    return SpanTable(
        "hand-built",
        names,
        np.array([names.index(r[0]) for r in rows]),
        np.array([r[3] for r in rows]),
        np.array([r[1] for r in rows], dtype=float),
        np.array([r[2] for r in rows], dtype=float),
        counts or {},
    )

# A(0-10) holds B(1-4) and D(5-9); B holds C(2-3); E(11-12) is a second top-level span.
ROWS = [
    ("A", 0.0, 10.0, -1),
    ("B", 1.0, 4.0, 0),
    ("C", 2.0, 3.0, 1),
    ("D", 5.0, 9.0, 0),
    ("E", 11.0, 12.0, -1),
]


def test_self_time_subtracts_direct_children_only():
    table = table_of(ROWS)
    assert list(self_times(table)) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_and_unattributed_add_up_to_wall():
    table = table_of(ROWS)
    rest = unattributed(table, wall=15.0)
    assert rest == 4.0
    assert self_times(table).sum() + rest == 15.0


def test_layer_metrics_sum_self_time_calls_and_counts():
    table = table_of(ROWS + [("B", 12.5, 13.0, -1)], counts={1: {"rows": 7}, 5: {"rows": 3}})
    metrics = layer_metrics(table, {
        "b_s": ("B", "self"),
        "b_calls": ("B", "calls"),
        "b_rows": ("B", "rows"),
        "a_total_s": ("A", "total"),
        "absent_s": ("Z", "self"),
        "absent_rows": ("Z", "rows"),
    })
    assert metrics == {
        "b_s": 2.5, "b_calls": 2, "b_rows": 10, "a_total_s": 10.0, "absent_s": 0, "absent_rows": 0,
    }


def test_recorder_nests_spans_and_counts_from_arguments_and_result(tmp_path):
    recorder = Recorder("r1")

    def inner(n, scale=2):
        return list(range(n * scale))

    traced_inner = recorder.wrap("inner", inner, lambda args, result: {"items": len(result), "n": args["n"]})

    def outer():
        return traced_inner(2) + traced_inner(1, scale=3)

    assert recorder.wrap("outer", outer)() == [0, 1, 2, 3, 0, 1, 2]
    table = recorder.table()
    assert [table.names[i] for i in table.name] == ["outer", "inner", "inner"]
    assert list(table.parent) == [-1, 0, 0]
    assert table.counts == {1: {"items": 4, "n": 2}, 2: {"items": 3, "n": 1}}
    assert all(table.start <= table.end)
    table.save(tmp_path / "s.npz")
    loaded = SpanTable.load(tmp_path / "s.npz")
    assert loaded.run_id == "r1" and loaded.counts == table.counts
    assert list(loaded.end) == list(table.end)


def test_recorder_closes_span_when_the_call_raises():
    recorder = Recorder("r2")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    table = recorder.table()
    assert len(table.name) == 1 and table.end[0] >= table.start[0]
    assert recorder.wrap("after", lambda: 1)() == 1
    assert list(recorder.table().parent) == [-1, -1]


def test_instrument_wraps_module_and_class_attributes_then_restores(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Box:
        def get(self, key):
            return key * 2

    def load(box, key):
        return box.get(key) + 1

    module.Box, module.load = Box, load
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = Recorder("r3")
    restore = instrument(recorder, [
        ("fake_layer", "load", "layer.load", None),
        ("fake_layer", "Box.get", "layer.get", None),
    ])
    assert module.load(Box(), 4) == 9
    restore()
    assert module.load is load and Box.__dict__["get"].__name__ == "get"
    table = recorder.table()
    assert [table.names[i] for i in table.name] == ["layer.load", "layer.get"]
    assert list(table.parent) == [-1, 0]


def test_every_instrumented_name_exists_in_rwdval():
    restore = instrument(Recorder("r4"), spans.RUN_LAYERS + spans.SETUP_LAYERS)
    restore()
