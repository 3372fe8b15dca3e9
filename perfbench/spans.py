"""Span recorder for traced benchmark runs.

Spans are recorded from outside the program: ``instrument`` swaps careql's
public entry points for wrappers that open a span around each call, and
puts the originals back when the traced operation ends. Nothing under
``src/`` changes. A span holds its name, start, end, parent span and the
operation it belongs to; counters are added at the same boundaries. Spans
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from careql import bdesr, cli, dataset, encoder, netcore, ope, synthgym, trainer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the parent span in Tracer.spans, -1 at top level
    op: int          # operation id


class Tracer:
    """In-memory spans and counters of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), float("nan"), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    Children of one span run one after another on one thread, so their
    durations do not overlap and the covered time is their sum.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def entries(spans: list[Span], name: str) -> int:
    """Spans of one name whose parent has another name: calls from outside."""
    return sum(1 for s in spans
               if s.name == name and (s.parent < 0 or spans[s.parent].name != name))


# ---------------------------------------------------------------------------
# Instrumentation of careql's public entry points
# ---------------------------------------------------------------------------


def _rows(x) -> int:
    return np.atleast_2d(getattr(x, "data", x)).shape[0]


def _matmul_flops(*modules) -> int:
    """2 * inputs * outputs summed over the 2-D weights of some modules."""
    return sum(2 * p.data.size for m in modules if m is not None
               for p in m.params().values() if p.data.ndim == 2)


def _count_ingest(tr, args, kwargs, result):
    tr.add("dataset.rows", sum(len(ep.transitions) + 1 for ep in result.episodes))
    tr.add("dataset.bytes_read", sum(os.path.getsize(p) for p in args[:3]))


def _count_export(tr, args, kwargs, result):
    tr.add("dataset.bytes_written", sum(os.path.getsize(p) for p in result.values()))


def _count_rollout(tr, args, kwargs, result):
    tr.add("synthgym.rollout_transitions", result.n_transitions)


def _count_checkpoint(tr, args, kwargs, result):
    tr.add("netcore.checkpoint_bytes", os.path.getsize(args[0]))


def _count_qnet(tr, args, kwargs, result):
    tr.add("netcore.qnet_forward_rows", _rows(args[1]))


def _count_encoder(tr, args, kwargs, result):
    tr.add("encoder.forward_rows", _rows(args[1]))


def _count_train(tr, args, kwargs, result):
    # Per step: target forward, online forward and the two backward matmuls
    # of every Q-model weight; BCQ adds classifier probs, logits and backward.
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    policy = result.policy
    per_row = 4 * _matmul_flops(policy.model)
    if policy.behavior_classifier is not None:
        per_row += 4 * _matmul_flops(policy.behavior_classifier)
    tr.add("netcore.train_flops", per_row * cfg.batch_size * cfg.total_steps)


def _count_evaluate(tr, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tr.add("ope.episodes", result.n_episodes)
    tr.add("ope.bootstrap_replicates", cfg.n_bootstrap)
    tr.add("ope.ess", result.effective_sample_size)


def _count_bdesr(tr, args, kwargs, result):
    tr.add("bdesr.episodes_scored", len(result["scores"]))


def _specs():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    policy_episode = [(trainer.LearnedPolicy, name, "trainer.policy_episode", None)
                      for name in ("episode_inputs", "episode_greedy_actions",
                                   "episode_action_probs", "episode_state_features")]
    return [
        (dataset, "ingest", "dataset.ingest", _count_ingest),
        (dataset, "export", "dataset.export", _count_export),
        (dataset, "normalize", "dataset.normalize", None),
        (synthgym, "generate_mdp", "synthgym.generate_mdp", None),
        (synthgym, "rollout", "synthgym.rollout", _count_rollout),
        (synthgym, "write_ground_truth", "synthgym.ground_truth_io", None),
        (synthgym, "load_ground_truth", "synthgym.ground_truth_io", None),
        (netcore.Tensor, "backward", "netcore.backward", None),
        (netcore.Adam, "step", "netcore.adam_step", None),
        (netcore.DuelingQNetwork, "__call__", "netcore.qnet_forward", _count_qnet),
        (netcore, "save_checkpoint", "netcore.checkpoint_io", _count_checkpoint),
        (netcore, "load_checkpoint", "netcore.checkpoint_io", _count_checkpoint),
        (encoder.StateEncoder, "forward", "encoder.forward", _count_encoder),
        (encoder, "episode_note_inputs", "encoder.note_inputs", None),
        (trainer, "train", "trainer.train", _count_train),
        (trainer, "build_transition_table", "trainer.build_table", None),
        (trainer.QModel, "q_values", "trainer.q_values", None),
        (trainer, "cql_loss", "trainer.loss", None),
        (trainer, "cross_entropy_loss", "trainer.loss", None),
        *policy_episode,
        (trainer, "bellman_residuals", "trainer.residuals", None),
        (ope, "evaluate_policy", "ope.evaluate", _count_evaluate),
        (ope, "fqe_network", "ope.fqe_network", None),
        (ope, "fqe_tabular", "ope.fqe_tabular", None),
        (ope, "fit_behavior", "ope.fit_behavior", None),
        (ope, "opera", "ope.opera", None),
        (bdesr, "bdesr_report", "bdesr.report", _count_bdesr),
        (cli, "cmd_synth", "cli.synth", None),
        (cli, "cmd_ingest", "cli.ingest", None),
        (cli, "cmd_train", "cli.train", None),
        (cli, "cmd_eval", "cli.eval", None),
        (cli, "cmd_report", "cli.report", None),
    ]


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result
    return wrapper


def _namespaces():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "careql" or key.startswith("careql."))]


def instrument(tracer: Tracer):
    """Wrap every entry point of ``_specs``; returns a function that undoes it.

    Methods are replaced on their class. A module function is replaced in
    every careql module that holds the same object, so trainer's imported
    ``episode_note_inputs`` is traced as well as ``encoder``'s own.
    """
    undo = []
    namespaces = _namespaces()
    for owner, attr, name, counter in _specs():
        original = owner.__dict__[attr]
        wrapped = _wrap(tracer, original, name, counter)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, original))
            continue
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, span name): self seconds per traced operation.
_SELF_TIME = [
    ("dataset.ingest_s", "dataset.ingest"),
    ("dataset.export_s", "dataset.export"),
    ("dataset.normalize_s", "dataset.normalize"),
    ("synthgym.generate_mdp_s", "synthgym.generate_mdp"),
    ("synthgym.rollout_s", "synthgym.rollout"),
    ("synthgym.ground_truth_io_s", "synthgym.ground_truth_io"),
    ("netcore.backward_s", "netcore.backward"),
    ("netcore.adam_step_s", "netcore.adam_step"),
    ("netcore.qnet_forward_s", "netcore.qnet_forward"),
    ("netcore.checkpoint_io_s", "netcore.checkpoint_io"),
    ("encoder.forward_s", "encoder.forward"),
    ("encoder.note_inputs_s", "encoder.note_inputs"),
    ("trainer.loop_self_s", "trainer.train"),
    ("trainer.build_table_s", "trainer.build_table"),
    ("trainer.q_values_s", "trainer.q_values"),
    ("trainer.loss_s", "trainer.loss"),
    ("trainer.policy_episode_s", "trainer.policy_episode"),
    ("trainer.residuals_s", "trainer.residuals"),
    ("ope.evaluate_self_s", "ope.evaluate"),
    ("ope.fqe_network_s", "ope.fqe_network"),
    ("ope.fqe_tabular_s", "ope.fqe_tabular"),
    ("ope.fit_behavior_s", "ope.fit_behavior"),
    ("ope.opera_s", "ope.opera"),
    ("bdesr.report_s", "bdesr.report"),
    ("cli.synth_s", "cli.synth"),
    ("cli.ingest_s", "cli.ingest"),
    ("cli.train_s", "cli.train"),
    ("cli.eval_s", "cli.eval"),
    ("cli.report_s", "cli.report"),
]

# (metric, span name): entries into the span per traced operation.
_CALLS = [
    ("netcore.backward_calls", "netcore.backward"),
    ("netcore.adam_steps", "netcore.adam_step"),
    ("netcore.qnet_forward_calls", "netcore.qnet_forward"),
    ("encoder.forward_calls", "encoder.forward"),
    ("encoder.note_inputs_calls", "encoder.note_inputs"),
    ("trainer.q_values_calls", "trainer.q_values"),
    ("trainer.policy_episode_calls", "trainer.policy_episode"),
]

# counters reported per traced operation under their own name
_COUNTS = [
    "dataset.bytes_read", "dataset.bytes_written", "synthgym.rollout_transitions",
    "netcore.qnet_forward_rows", "netcore.checkpoint_bytes", "encoder.forward_rows",
    "ope.episodes", "ope.bootstrap_replicates", "bdesr.episodes_scored",
]


def layer_metrics(tracer: Tracer, op_ids: list[int]) -> dict[str, float]:
    """Per-operation layer metrics over the traced operations ``op_ids``.

    ``_s`` values are self time, except ``trainer.train_s``, which is the
    whole duration of ``trainer.train``.
    """
    n_ops = max(len(op_ids), 1)
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        by_name[span.name] += t
        total[span.name] += span.end - span.start
    counts = tracer.counts
    out = {metric: by_name[name] / n_ops for metric, name in _SELF_TIME}
    out.update({metric: entries(spans, name) / n_ops for metric, name in _CALLS})
    out.update({name: counts[name] / n_ops for name in _COUNTS})
    out["trainer.train_s"] = total["trainer.train"] / n_ops
    ingest_s = total["dataset.ingest"]
    out["dataset.ingest_rows_per_s"] = counts["dataset.rows"] / ingest_s if ingest_s else 0.0
    train_s = total["trainer.train"]
    out["netcore.gflops_per_s"] = counts["netcore.train_flops"] / train_s / 1e9 \
        if train_s else 0.0
    out["ope.ess_fraction"] = counts["ope.ess"] / counts["ope.episodes"] \
        if counts["ope.episodes"] else 0.0
    return out


def top_level_time(tracer: Tracer, op: int) -> float:
    """Summed duration of the top-level spans of one operation."""
    return sum(s.end - s.start for s in tracer.spans if s.op == op and s.parent < 0)
