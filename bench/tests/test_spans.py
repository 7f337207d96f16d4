"""Self-time arithmetic and the wrapper table."""

import pytest

from bench import spans


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    recorded = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("c", 6.0, 8.0, 2, 0),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 2.0, 2.0]
    # self times partition the root: nothing counted twice, nothing lost
    assert sum(spans.self_times(recorded)) == 10.0


def test_aggregate_sums_by_name_and_keeps_inclusive_time():
    recorded = [
        ("root", 0.0, 10.0, -1, 0),
        ("layer", 1.0, 4.0, 0, 0),
        ("layer", 5.0, 9.0, 0, 0),
        ("inner", 6.0, 8.0, 2, 0),
    ]
    agg = spans.aggregate(recorded)
    assert agg["layer"] == {"self_s": 5.0, "incl_s": 7.0, "calls": 2}
    assert agg["inner"] == {"self_s": 2.0, "incl_s": 2.0, "calls": 1}
    assert spans.children_named(recorded, "inner", "layer") == 1
    assert spans.children_named(recorded, "inner", "root") == 0


def test_tracer_records_parents_and_collapses_reentry():
    tracer = spans.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + wrapped_same()

    wrapped_inner = tracer._wrap("inner", inner)
    wrapped_same = tracer._wrap("outer", inner)  # same layer calling itself
    wrapped_outer = tracer._wrap("outer", outer)
    with tracer.span(spans.ROOT):
        assert wrapped_outer() == 2
    recorded = tracer.take_spans()
    assert [(s[0], s[3]) for s in recorded] == [
        (spans.ROOT, -1),
        ("outer", 0),
        ("inner", 1),
    ]
    assert all(own >= 0 for own in spans.self_times(recorded))


def test_every_target_resolves_and_uninstall_restores():
    from repro.models.tinylm import TinyLM
    from repro.workers import actor

    before = (TinyLM.forward, TinyLM.__call__, actor.generate)
    tracer = spans.Tracer()
    with tracer:
        assert tracer.unresolved == []
        assert TinyLM.forward is not before[0]
        # aliases and by-name imports are re-bound too
        assert TinyLM.__call__ is TinyLM.forward
        assert actor.generate is not before[2]
        # @register's annotations survive the wrapper
        assert actor.ActorWorker.update_actor._transfer_protocol == "3d_proto"
    assert (TinyLM.forward, TinyLM.__call__, actor.generate) == before


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + [("gone.layer", "repro.models.adam", "Adam.nope")]
    )
    tracer = spans.Tracer()
    with tracer:
        assert tracer.unresolved == ["gone.layer"]


def test_graph_node_counter_counts_and_restores():
    from repro.models.autograd import Tensor

    raw = Tensor.__dict__["_from_op"]
    with spans.count_graph_nodes() as nodes:
        (Tensor([1.0], requires_grad=True) * 2.0 + 1.0).sum()
    assert nodes.calls == 3
    assert Tensor.__dict__["_from_op"] is raw


def test_take_spans_refuses_open_spans():
    tracer = spans.Tracer()
    with tracer.span("open"):
        with pytest.raises(RuntimeError):
            tracer.take_spans()
