"""Self-time arithmetic and span recording of the traced benchmark run."""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from spans import Span, Tracer, self_times, summarize  # noqa: E402


def test_self_time_of_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),     # overlaps a: root loses [1, 6] once
        Span("c", 2.0, 3.0, 1),     # grandchild: only a loses it
        Span("d", 9.0, 12.0, 0),    # runs past its parent: clipped to [9, 10]
        Span("a", 7.0, 8.0, 0),     # second call of a
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1 - 1, 2.0, 3.0, 1.0, 3.0, 1.0])
    stats = summarize(spans)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self_s"] == pytest.approx(3.0)
    assert stats["root"]["self_s"] == pytest.approx(3.0)


def test_self_times_of_disjoint_children_sum_to_the_root():
    spans = [Span("root", 0.0, 5.0, -1), Span("x", 0.5, 1.5, 0),
             Span("y", 2.0, 4.0, 0), Span("z", 2.5, 3.0, 2)]
    assert sum(self_times(spans)) == pytest.approx(5.0)


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    counted = tracer.count("hits", lambda: None)
    assert outer(1) == 4
    counted()
    counted()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.counts["hits"] == 2


def test_tracer_closes_spans_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[1].parent == -1


def test_install_replaces_every_binding(monkeypatch):
    def original():
        return 1

    owner = types.SimpleNamespace(fn=original)
    importer = types.ModuleType("nk_triad._probe")
    importer.fn, importer.other = original, len
    monkeypatch.setitem(sys.modules, "nk_triad._probe", importer)
    tracer = Tracer()
    tracer.install(owner, "fn", tracer.wrap("fn", original))
    assert owner.fn is importer.fn is not original
    assert importer.other is len
    assert importer.fn() == 1 and tracer.spans[0].name == "fn"
