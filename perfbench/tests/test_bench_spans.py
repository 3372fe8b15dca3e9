import pytest

import spans
from spans import Span, Tracer


def tree() -> Tracer:
    """op 0: a [0, 10] with children b [1, 4] (child c [2, 3]) and d [5, 9]."""
    tr = Tracer()
    tr.spans = [
        Span("a", 0.0, 10.0, -1, 0),
        Span("b", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("d", 5.0, 9.0, 0, 0),
        Span("e", 12.0, 13.0, -1, 0),
    ]
    return tr


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(tree().spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_partition_top_level_time():
    tr = tree()
    assert sum(spans.self_times(tr.spans)) == spans.top_level_time(tr, 0) == 11.0


def test_entries_skip_nested_calls_of_the_same_name():
    nested = [Span("p", 0.0, 3.0, -1, 0), Span("p", 1.0, 2.0, 0, 0),
              Span("q", 4.0, 5.0, -1, 0), Span("p", 4.2, 4.8, 2, 0)]
    assert spans.entries(nested, "p") == 2


def test_tracer_records_parent_and_operation():
    tr = Tracer()
    tr.op = 7
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    assert [(s.name, s.parent, s.op) for s in tr.spans] == [("outer", -1, 7), ("inner", 0, 7)]
    assert tr.spans[0].start <= tr.spans[1].start <= tr.spans[1].end <= tr.spans[0].end


def test_out_of_order_close_is_an_error():
    tr = Tracer()
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_layer_metrics_are_per_traced_operation():
    tr = Tracer()
    tr.spans = [Span("trainer.train", 0.0, 4.0, -1, 1),
                Span("netcore.backward", 1.0, 2.0, 0, 1),
                Span("trainer.train", 10.0, 12.0, -1, 3)]
    tr.add("netcore.train_flops", 6e9)
    out = spans.layer_metrics(tr, [1, 3])
    assert out["trainer.train_s"] == 3.0
    assert out["trainer.loop_self_s"] == 2.5
    assert out["netcore.backward_s"] == 0.5
    assert out["netcore.backward_calls"] == 0.5
    assert out["netcore.gflops_per_s"] == 1.0


def test_instrument_restores_every_original():
    from careql import cli, encoder, netcore, trainer

    before = (trainer.episode_note_inputs, encoder.episode_note_inputs,
              netcore.Tensor.__dict__["backward"], cli.cmd_synth)
    restore = spans.instrument(Tracer())
    assert trainer.episode_note_inputs is not before[0]
    assert trainer.episode_note_inputs is encoder.episode_note_inputs
    restore()
    after = (trainer.episode_note_inputs, encoder.episode_note_inputs,
             netcore.Tensor.__dict__["backward"], cli.cmd_synth)
    assert all(a is b for a, b in zip(before, after))
