"""Print sha256 digests of careql's outputs, to show that a change keeps them.

For each seed it prints one line per item:

- every file that a ``synth -> ingest -> train -> eval -> report`` chain
  writes through ``cli.main``, with the benchmark's ``pipeline_cli`` config
  at 200 episodes (the snapshot that export writes beside the data files
  is digested by its arrays, because the zip archive records its write
  time);
- the trained parameters of 50-step multimodal CQL and BCQ runs at the
  acceptance config, and of variants of it (`TRAIN_VARIANTS`): DQN, target
  refreshes within the run (every step, every 20 steps, and every 15 steps,
  which leaves a partial last interval), the structured and notes
  modalities, the other note strategies, no attention and encoder depth 0;
- the outputs of one ``eval_ope_network`` pass: behaviour fit, network OPE,
  BDESR, Bellman residuals and tabular OPE;
- one network FQE fit of a single iteration on that pass's batch: its
  ``q_rows`` and its estimate;
- every file that a small multimodal ``synth -> train -> eval ->
  cross-eval`` chain writes through ``cli.main`` with a fitted behaviour
  model (``MULTIMODAL_CONFIG``): BDESR, network OPE and the DR curve of
  each FQE snapshot;
- the widths and store arrays of the datasets that each library derivation
  returns on a gap-family rollout (``store_lines``): the rollout, its
  normalization, its train, empty val and test splits, its episodes taken
  backwards and every other one, its rediscretization, and the ingest of its
  files with and without ground truth; and the files that export writes
  after that ingest;
- the synthetic generator on each (n_severity, n_context) pair of
  ``GENERATOR_SEVERITIES`` x ``GENERATOR_CONTEXTS`` with at least 2 states
  (``generator_lines``): every ``TabularMDP`` field of the first attempt's
  MDP (``_build_mdp``), the five arrays ``_factor_structure`` reads from it,
  and the MDP that ``generate_mdp`` certifies or its ``GeneratorError``, at
  the default ``min_gap`` and at ``GENERATOR_STRICT_GAP``, which some pairs
  meet only on a later attempt and some not at all.

``ope_value_lines`` also prints, by ``repr``, every number of the eval
pass's network and tabular OPE reports and of each ``ope_report.json`` that
the chains write, so that a change which moves them in the last bits shows
by how much.

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
import itertools
import json
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from careql import cli, dataset, ope, synthgym, trainer  # noqa: E402
from careql.encoder import NoteStrategy  # noqa: E402
from perfbench import workloads  # noqa: E402

PIPELINE_EPISODES = 200
STORE_EPISODES = 150
TRAIN_EPISODES = 500
TRAIN_STEPS = 50
SEEDS = (1, 3)
GENERATOR_SEVERITIES = (1, 2, 3, 5, 9, 12)
GENERATOR_CONTEXTS = (1, 2, 3, 8, 9, 13)
GENERATOR_STRICT_GAP = 0.2
# (name, TrainConfig changes, EncoderConfig changes, modality) of each
# training run beside the acceptance config's CQL and BCQ
TRAIN_VARIANTS = [
    ("dqn_multimodal", {"algorithm": "dqn"}, {}, "multimodal"),
    ("cql_refresh1", {"target_update": 1}, {}, "multimodal"),
    ("cql_refresh20", {"target_update": 20}, {}, "multimodal"),
    ("bcq_refresh15", {"algorithm": "bcq", "target_update": 15}, {}, "multimodal"),
    ("bcq_refresh20", {"algorithm": "bcq", "target_update": 20}, {}, "multimodal"),
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
    return lines + report_file_lines(f"seed {seed} pipeline", out)


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
            f"estimate {fqe.estimate!r}",
            *ope_value_lines(f"seed {seed} eval_pass network", out["network"]),
            *ope_value_lines(f"seed {seed} eval_pass tabular", out["tabular"])]


def ope_value_lines(label: str, report: dict) -> list[str]:
    """Every number of an OPE report (``OPEReport.to_dict``) by ``repr``: its
    estimates, standard errors and OPERA weights, its ESS, episode count, FQE
    mode and fallback flag."""
    lines = [f"{label} {group} {name} {value!r}"
             for group in ("estimates", "standard_errors", "opera_weights")
             for name, value in report[group].items()]
    return lines + [f"{label} {key} {report[key]!r}"
                    for key in ("effective_sample_size", "n_episodes", "fqe_mode",
                                "used_inverse_variance_fallback")]


def report_file_lines(label: str, out: Path) -> list[str]:
    """``ope_value_lines`` of each ``ope_report.json`` under ``out``."""
    return [line for path in sorted(out.rglob("ope_report.json"))
            for line in ope_value_lines(f"{label} {path.relative_to(out)}",
                                        json.loads(path.read_text(encoding="utf-8")))]


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
    return lines + report_file_lines(f"seed {seed} multimodal", out)


def store_digest(data) -> str:
    """sha256 of a dataset's widths and of every store array's dtype, shape and values."""
    h = hashlib.sha256(json.dumps([data.n_features, data.d_n]).encode())
    for f in fields(dataset.EpisodeStore):
        a = getattr(data.store, f.name)
        h.update(f"{f.name} {a.dtype.str} {a.shape}".encode())
        h.update(json.dumps(a.tolist()).encode() if a.dtype == object else a.tobytes())
    return h.hexdigest()


def store_lines(seed: int, work: Path) -> list[str]:
    mdp = synthgym.generate_mdp(workloads.gap_generator_config(), seed=seed)
    behavior = synthgym.near_clinician_behavior(mdp, 0.3)
    rolled = synthgym.rollout(mdp, behavior, n_episodes=STORE_EPISODES,
                              max_len=workloads.MAX_LEN, seed=seed + 1,
                              split_fractions=(0.8, 0.0, 0.2))
    normalized = dataset.normalize(rolled)
    files = dataset.export(rolled, work / "store_files")
    synthgym.write_ground_truth(work / "ground_truth.json", mdp, behavior, rolled)
    ingested = dataset.ingest(files["structured"], files["notes"], files["manifest"])
    derived = {
        "rollout": rolled,
        "normalize": normalized,
        "split_train": normalized.split("train"),
        "split_val_empty": normalized.split("val"),
        "split_test": normalized.split("test"),
        "backwards_every_other": replace(normalized, episodes=normalized.episodes[::-2]),
        "rediscretize": dataset.rediscretize(rolled, dataset.DoseBins(
            (0.5, 1.5, 2.5, 3.5), (1.5, 2.5, 3.5, 4.5))),
        "ingest": ingested,
        "attach_ground_truth": synthgym.attach_ground_truth(
            ingested, synthgym.load_ground_truth(work / "ground_truth.json")),
    }
    lines = [f"seed {seed} store {name} {len(data)} {store_digest(data)}"
             for name, data in derived.items()]
    exported = dataset.export(ingested, work / "store_export")
    lines += [f"seed {seed} store export {name} {file_digest(path)}"
              for name, path in sorted(exported.items())]
    return lines


def arrays_digest(*arrays) -> str:
    """sha256 of each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def mdp_digest(mdp) -> str:
    """sha256 of every ``TabularMDP`` field: arrays by ``arrays_digest``, the
    rest (the oracle values among them) by ``repr``."""
    h = hashlib.sha256()
    for f in fields(synthgym.TabularMDP):
        value = getattr(mdp, f.name)
        text = arrays_digest(value) if isinstance(value, np.ndarray) else repr(value)
        h.update(f"{f.name} {text}".encode())
    return h.hexdigest()


def generator_lines(seed: int) -> list[str]:
    lines = []
    for n_u, n_v in itertools.product(GENERATOR_SEVERITIES, GENERATOR_CONTEXTS):
        if n_u * n_v < 2:
            continue
        cfg = synthgym.GeneratorConfig(n_severity=n_u, n_context=n_v)
        mdp = synthgym._build_mdp(cfg, seed, 0)
        outcomes = []
        for min_gap in (cfg.min_gap, GENERATOR_STRICT_GAP):
            try:
                outcomes.append(mdp_digest(synthgym.generate_mdp(
                    replace(cfg, min_gap=min_gap), seed)))
            except synthgym.GeneratorError as exc:
                outcomes.append(f"error {exc}")
        lines.append(f"seed {seed} generator {n_u}x{n_v} build {mdp_digest(mdp)} "
                     f"factors {arrays_digest(*synthgym._factor_structure(mdp))} "
                     f"generate {' | '.join(outcomes)}")
    return lines


def main() -> int:
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            for line in (pipeline_lines(seed, work) + train_lines(seed)
                         + eval_lines(seed, work) + multimodal_lines(seed, work)
                         + store_lines(seed, work) + generator_lines(seed)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
