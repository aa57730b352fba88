"""Tracer hygiene: originals come back, and self times reconcile."""

import numpy as np
import pytest

from repro.database import Database
from repro.query.options import QueryOptions
from repro.query.predicates import Equals, InList
from repro.serving.server import Server

from perfbench.tracer import (
    TARGETS,
    Span,
    Tracer,
    reconcile,
    resolve,
    self_times,
)


def originals():
    return [vars(resolve(m, o))[a] for m, o, a, _name in TARGETS]


def test_every_patched_attribute_is_restored():
    before = originals()
    tracer = Tracer()
    with tracer:
        during = originals()
        assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, originals()))
    tracer.check_restored()


def test_restored_after_an_exception_inside_a_traced_call():
    before = originals()
    db = Database()
    db.create_table("t", {"v": [1, 2, 3]})
    tracer = Tracer()
    with pytest.raises(Exception):
        with tracer:
            tracer.begin(1, "op.count")
            try:
                db.query("missing", Equals("v", 1))
            finally:
                tracer.end()
    assert all(a is b for a, b in zip(before, originals()))


def _spans(*specs):
    """Build spans from (name, start, end, parent index, helper)."""
    out = []
    for name, start, end, parent, helper in specs:
        span = Span(name, out[parent] if parent is not None else None, 1, helper)
        span.start, span.end = start, end
        out.append(span)
    return out[0], out[1:]


def test_self_time_subtracts_the_union_of_children():
    root, spans = _spans(
        ("op", 0.0, 10.0, None, False),
        ("a", 1.0, 9.0, 0, False),
        ("b", 2.0, 4.0, 1, False),
        ("c", 3.0, 6.0, 1, False),   # overlaps b: union is 2..6
        ("p", 2.5, 8.5, 1, True),    # helper: off the blocking chain
    )
    selfs = self_times(spans, [root])
    assert selfs[id(root)] == pytest.approx(2.0)
    assert selfs[id(spans[0])] == pytest.approx(4.0)
    assert selfs[id(spans[3])] == pytest.approx(6.0)
    # Overlapping blocking siblings break the sum; the check reports it.
    assert reconcile(spans, [root], selfs) == pytest.approx(1.0)


def test_layer_self_times_reconcile_with_served_and_out_of_core_requests():
    rng = np.random.default_rng(3)
    db = Database(memory_budget_bytes=4096)
    db.create_table("f", {"v": rng.integers(0, 20, 4096).tolist()}, partitions=4)
    db.create_index("f", "v")
    server = Server(database=db, workers=1, use_cache=True)
    tracer = Tracer()
    try:
        with tracer:
            for request in range(1, 7):
                tracer.begin(request, "op.count")
                values = [request, request + 1]
                options = QueryOptions(workers=1)
                if request % 2:
                    server.query("f", InList("v", values), options=options).count()
                else:
                    db.query("f", InList("v", values), options).row_ids()
                tracer.end()
    finally:
        server.close()
        db.close()
    selfs = self_times(tracer.spans, tracer.roots)
    assert reconcile(tracer.spans, tracer.roots, selfs) < 1e-6
    names = {span.name for span in tracer.spans}
    assert {"Server.query", "Database.query", "ResidencyManager.prefetch",
            "CompiledKernel.evaluate"} <= names
    for span in tracer.spans:
        if span.name == "Database.query" and span.request % 2:
            assert span.parent.name == "Server.query"
        if span.name == "ResidencyManager.prefetch":
            assert span.helper
            assert span.parent.name == "ParallelExecutor.execute_many"
