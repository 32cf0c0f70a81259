"""Self-time arithmetic, wrapper install/restore and span parenting."""

from __future__ import annotations

import threading
import types

import pytest

import tracing
from tracing import Span, Tracer


def _span(span_id, start, end, parent=None, name="s"):
    return Span(span_id=span_id, name=name, start=start, parent=parent, run_id="r", end=end)


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),  # overlaps 3 (parallel workers)
        _span(3, 3.0, 6.0, parent=1),
        _span(4, 8.0, 12.0, parent=1),  # runs past its parent: clipped at 10
        _span(5, 2.0, 3.0, parent=2),
        _span(6, 20.0, 21.0),  # separate root
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0, 6: 1.0})


def test_covered_merges_touching_and_nested_intervals():
    assert tracing._covered([(0, 1), (1, 2), (0.5, 0.7), (5, 6), (3, 3)]) == pytest.approx(3.0)
    assert tracing._covered([]) == 0.0


def test_wrap_records_spans_and_restore_puts_originals_back():
    module = types.SimpleNamespace(double=lambda x: 2 * x)
    original = module.double
    tracer = Tracer("run-1")
    tracer.wrap(module, "double", "mod.double", lambda span, result: span.attrs.update(result=result))
    assert module.double(4) == 8
    tracer.restore()
    assert module.double is original
    [span] = tracer.spans
    assert (span.name, span.parent, span.run_id, span.attrs) == ("mod.double", None, "run-1", {"result": 8})
    assert span.end >= span.start


def test_pool_thread_spans_are_parented_to_the_open_main_thread_span():
    tracer = Tracer("r")
    batch = tracer.open("sandbox.execute_batch")

    def work():
        outer = tracer.open("sandbox.execute")
        tracer.close(tracer.open("sandbox.compare_output"))
        tracer.close(outer)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.close(batch)
    parents = {s.name: s.parent for s in tracer.spans}
    execute_id = next(s.span_id for s in tracer.spans if s.name == "sandbox.execute")
    assert parents == {
        "sandbox.execute": batch.span_id,
        "sandbox.compare_output": execute_id,
        "sandbox.execute_batch": None,
    }


def test_layer_metrics_counts_and_busy_fraction():
    spans = [
        _span(1, 0.0, 2.0, name="sandbox.execute_batch"),
        _span(2, 0.0, 1.0, parent=1, name="sandbox.execute"),
        _span(3, 0.0, 1.0, parent=1, name="sandbox.execute"),
        _span(4, 0.0, 0.1, parent=2, name="subprocess.popen"),
        _span(5, 0.0, 0.1, parent=3, name="subprocess.popen"),
        _span(6, 0.1, 0.2, parent=3, name="subprocess.popen"),
        _span(7, 2.0, 2.5, name="degeneration.detect"),
        _span(8, 2.5, 2.6, name="degeneration.detect"),
    ]
    spans[6].attrs = {"kind": "none"}
    spans[7].attrs = {"kind": "stuttering"}
    spans[1].attrs = {"status": "pass", "program_ms": 500}
    spans[2].attrs = {"status": "sandbox_error", "program_ms": 0}
    m = tracing.layer_metrics(spans, jobs=2)
    assert m["sandbox.executions"] == (2, "count")
    assert m["sandbox.children_per_execution"] == (1.5, "count")
    assert m["sandbox.worker_busy_frac"][0] == pytest.approx(0.5)
    assert m["sandbox.faults"] == (1, "count")
    assert m["sandbox.status.pass"] == (1, "count")
    assert m["sandbox.program_frac"][0] == pytest.approx(0.25)
    assert m["degeneration.detect_ms_p95"][0] == pytest.approx(480.0)
    assert m["degeneration.gated.stuttering"] == (1, "count")
    assert m["degeneration.gated.gibberish"] == (0, "count")
