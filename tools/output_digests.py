"""Print sha256 digests of careql's outputs, to show that a change keeps them.

For each seed it prints one line per item:

- every file that a ``synth -> ingest -> train -> eval -> report`` chain
  writes through ``cli.main``, with the benchmark's ``pipeline_cli`` config
  at 200 episodes (the ingest snapshot is digested by its arrays, because
  the zip archive records its write time);
- the trained parameters of 50-step multimodal CQL and BCQ runs at the
  acceptance config, and of variants of it (`TRAIN_VARIANTS`): DQN, target
  refreshes within the run (every step, every 20 steps, and every 15 steps,
  which leaves a partial last interval), frozen encoders, the structured and
  notes modalities, the other note strategies, no attention and encoder
  depth 0;
- the outputs of one ``eval_ope_network`` pass: behaviour fit, network OPE,
  BDESR, Bellman residuals and tabular OPE;
- one network FQE fit of a single iteration on that pass's batch: its
  ``q_rows`` and its estimate;
- every file that a small multimodal ``synth -> train -> eval ->
  cross-eval`` chain writes through ``cli.main`` with a fitted behaviour
  model (``MULTIMODAL_CONFIG``): BDESR, network OPE and the DR curve of
  each FQE snapshot.

Run it from the repository root on two revisions and compare the outputs::

    PYTHONPATH=src python3 tools/output_digests.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/output_digests.py > before.txt
    diff before.txt after.txt

The second form digests another checkout's ``careql`` with this script and
this checkout's ``perfbench`` configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from careql import cli, dataset, ope, trainer  # noqa: E402
from careql.encoder import NoteStrategy  # noqa: E402
from perfbench import workloads  # noqa: E402

PIPELINE_EPISODES = 200
TRAIN_EPISODES = 500
TRAIN_STEPS = 50
SEEDS = (1, 3)
# (name, TrainConfig changes, EncoderConfig changes, modality) of each
# training run beside the acceptance config's CQL and BCQ
TRAIN_VARIANTS = [
    ("dqn_multimodal", {"algorithm": "dqn"}, {}, "multimodal"),
    ("cql_refresh1", {"target_update": 1}, {}, "multimodal"),
    ("cql_refresh20", {"target_update": 20}, {}, "multimodal"),
    ("bcq_refresh15", {"algorithm": "bcq", "target_update": 15}, {}, "multimodal"),
    ("bcq_refresh20", {"algorithm": "bcq", "target_update": 20}, {}, "multimodal"),
    ("cql_frozen_encoders", {"freeze_encoders": True, "target_update": 20}, {}, "multimodal"),
    ("bcq_frozen_encoders", {"algorithm": "bcq", "freeze_encoders": True,
                             "target_update": 20}, {}, "multimodal"),
    ("cql_structured", {}, {}, "structured"),
    ("cql_notes", {}, {}, "notes"),
    ("cql_raw", {}, {"strategy": NoteStrategy("raw")}, "multimodal"),
    ("cql_impute", {}, {"strategy": NoteStrategy("impute")}, "multimodal"),
    ("cql_stack", {}, {"strategy": NoteStrategy("stack")}, "multimodal"),
    ("cql_no_attention", {}, {"use_attention": False}, "multimodal"),
    ("cql_encoder_depth0", {}, {"depth": 0}, "multimodal"),
]
# the multimodal chain's config; its seed is each digest seed, and its
# evaluation cohort for cross-eval is synthesized at seed + 100
MULTIMODAL_CONFIG = {
    "dataset": {"synth": {"n_features": 6, "d_n": 8, "n_episodes": 120, "max_len": 10,
                          "min_gap": 0.0, "split_fractions": [0.8, 0.0, 0.2]}},
    "modality": "multimodal",
    "encoder": {"d": 8, "d_k": 4, "depth": 1},
    "train": {"total_steps": 60, "batch_size": 64, "hidden_width": 16, "trunk_depth": 2,
              "eval_interval": 20, "target_update": 20, "learning_rate": 1e-3},
    "ope": {"behavior": "fitted", "behavior_fit_steps": 100, "n_bootstrap": 25,
            "fqe_iterations": 3, "fqe_steps": 20, "fqe_width": 16},
    "cross_eval": {"snapshot_points": 3},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    if path.name == dataset.SNAPSHOT_NAME:
        h = hashlib.sha256()
        with np.load(path) as arrays:
            for name in sorted(arrays.files):
                h.update(name.encode())
                h.update(arrays[name].tobytes())
        return h.hexdigest()
    return _sha(path.read_bytes())


def pipeline_lines(seed: int, work: Path) -> list[str]:
    config = workloads.write_pipeline_config(work / "config.json", seed, PIPELINE_EPISODES)
    out = work / "chain"
    codes = workloads.PipelineCli.chain(config, out)
    lines = [f"seed {seed} pipeline exit codes {codes}"]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"seed {seed} pipeline {path.relative_to(out)} {file_digest(path)}")
    return lines


def train_lines(seed: int) -> list[str]:
    mdp, _, data = workloads.make_task(seed, TRAIN_EPISODES)
    enc = workloads.acceptance_encoder(mdp.n_features, mdp.d_n)
    runs = [(f"{algorithm}_multimodal", {"algorithm": algorithm}, {}, "multimodal")
            for algorithm in ("cql", "bcq")] + TRAIN_VARIANTS
    lines = []
    for name, train_changes, enc_changes, modality in runs:
        cfg = replace(workloads.acceptance_train_config(seed, TRAIN_STEPS), **train_changes)
        policy = trainer.train(data, cfg, replace(enc, **enc_changes), modality).policy
        lines.append(f"seed {seed} params {name} {workloads.params_digest(policy)}")
    return lines


def eval_lines(seed: int, work: Path) -> list[str]:
    task = workloads.EvalOpeNetwork(seed, work / "eval")
    out = task.run(0)
    batch = ope.eval_batch(task.held, ope.soften(task.policy, workloads.EPS_SOFT))
    fqe = ope.fqe_network(batch, workloads.GAMMA, replace(task.net_cfg.fqe, iterations=1))
    return [f"seed {seed} eval_pass {_sha(json.dumps(out, sort_keys=True).encode())}",
            f"seed {seed} fqe_network_1 q_rows {_sha(fqe.q_rows.tobytes())} "
            f"estimate {fqe.estimate!r}"]


def multimodal_lines(seed: int, work: Path) -> list[str]:
    config = work / "multimodal.json"
    config.write_text(json.dumps({**MULTIMODAL_CONFIG, "seed": seed}), encoding="utf-8")
    out = work / "multimodal"
    cohort_a, cohort_b, runs = (str(out / name) for name in ("data_a", "data_b", "runs"))
    steps = [
        ["synth", "--seed", str(seed), "--out", cohort_a],
        ["synth", "--seed", str(seed + 100), "--out", cohort_b],
        ["train", "--data", cohort_a, "--out", f"{runs}/train"],
        ["eval", "--data", cohort_a, "--checkpoint", f"{runs}/train/checkpoint.json",
         "--out", f"{runs}/eval"],
        ["cross-eval", "--train-data", cohort_a, "--eval-data", cohort_b,
         "--out", f"{runs}/cross"],
    ]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            codes.append(cli.main([argv[0], "--config", str(config), *argv[1:]]))
            if codes[-1] != 0:
                break
    lines = [f"seed {seed} multimodal exit codes {codes}"]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"seed {seed} multimodal {path.relative_to(out)} {file_digest(path)}")
    return lines


def main() -> int:
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for line in (pipeline_lines(seed, work) + train_lines(seed)
                         + eval_lines(seed, work) + multimodal_lines(seed, work)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
