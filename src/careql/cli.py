"""Command-line entry point for reproducible experiments.

Subcommands: synth (generate a synthetic dataset + ground truth), ingest
(validate data files and keep their parsed snapshot), train, eval / ope /
bdesr (policy evaluation), ablate (component, note-strategy and window
sweeps), cross-eval (train cohort A, evaluate on cohort B), report (collect
run outputs into CSV/JSON tables and plot-data files).

Every run writes the exact resolved configuration next to its outputs;
re-running with the same config and seed reproduces every artifact
bit-for-bit. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric failure.

The default output root is $CAREQL_OUT (falling back to ./careql_runs).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import bdesr as bdesr_mod
from . import dataset as ds_mod
from . import ope as ope_mod
from . import synthgym as gym_mod
from . import trainer as tr_mod
from .encoder import EncoderConfig, EncoderError, NoteStrategy
from .netcore import NonFiniteGradientError, load_param_values

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

ENV_OUT_ROOT = "CAREQL_OUT"
# the OPE estimates of a run's summary, in table order
METRICS = ("opera", "dr", "fqe", "wis")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

# The one schema: every key a config file may set, each with its default. A
# user value must have its default's JSON type (see ``_expected``).
DEFAULT_CONFIG: dict = {
    "dataset": {
        "synth": {
            "n_severity": 5, "n_context": 3, "n_features": 42, "d_n": 64,
            "gamma": 0.95, "term_prob_mid": 0.25, "term_prob_edge": 0.55,
            "noise_structured": 0.3, "noise_note": 0.1, "note_prob": 0.7,
            "min_gap": 0.08, "behavior_epsilon": 0.3,
            "n_episodes": 2000, "max_len": 18,
            "split_fractions": [1.0, 0.0, 0.0], "seed": 0,
        },
        "files": {"ground_truth": ""},
        "normalize": True,
        "share_bins": False,
    },
    "modality": "multimodal",
    "encoder": {
        "d": 64, "d_k": 32, "depth": 2, "strategy": "context", "window": 3,
        "use_attention": True,
    },
    "train": {
        "algorithm": "cql", "total_steps": 5000, "batch_size": 256,
        "learning_rate": 1e-4, "gamma": 0.99, "cql_alpha": 2.0,
        "bcq_threshold": 0.3, "target_update": 1000, "hidden_width": 512,
        "trunk_depth": 3, "eval_interval": 500, "grad_clip": None,
        "freeze_encoders": False,
    },
    "ope": {
        "gamma": 0.99, "n_bootstrap": 200, "eps_soft": 0.01,
        "clip_percentile": 99.0, "behavior": "auto",
        "behavior_floor": 1e-3, "behavior_fit_steps": 2000,
        "fqe_iterations": 25, "fqe_steps": 120, "fqe_width": 64,
        "fqe_depth": 2,
    },
    "bdesr": {"alpha": 0.5, "beta": 0.5, "p": 20.0},
    "ablate": {
        "strategies": ["raw", "impute", "stack", "context"],
        "windows": [3, 5, 7],
    },
    "cross_eval": {"snapshot_points": 8},
    "seeds": [0, 1, 2, 3, 4],
    "seed": 0,
}
# Numeric keys that may also be null (a null default is such a number).
NULLABLE_KEYS = ("train.grad_clip", "ope.clip_percentile")
# Integer keys, or lists of integers, whose least value is not 1.
INTEGER_MINIMA = {"seed": 0, "seeds": 0, "dataset.synth.seed": 0,
                  "encoder.depth": 0, "ope.fqe_depth": 0, "ope.n_bootstrap": 2}


def _expected(value, default, path: str) -> str | None:
    """None when ``value`` has the JSON type of ``default``, else that type in
    words: the same bool or string type, an integer >= its least value, a
    finite number, or a list of items of the default items' type. true/false
    are never numbers, and null is a number at ``NULLABLE_KEYS``."""
    if value is None and path in NULLABLE_KEYS:
        return None
    if isinstance(default, list):
        items = value if isinstance(value, list) else [object()]   # object() fits no type
        wrong = [w for w in (_expected(v, default[0], path) for v in items) if w]
        return f"a list, each item {wrong[0]}" if wrong else None
    if isinstance(default, (bool, str)):
        return None if type(value) is type(default) else \
            ("a boolean" if isinstance(default, bool) else "a string")
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        least = INTEGER_MINIMA.get(path, 1)
        return None if number and isinstance(value, int) and value >= least \
            else f"an integer >= {least}"
    if number and (isinstance(value, int) or math.isfinite(value)):
        return None
    return "a number or null" if path in NULLABLE_KEYS else "a number"


def _deep_merge(base: dict, override: dict, path: str = "",
                schema: dict = DEFAULT_CONFIG) -> dict:
    """``base`` with ``override`` laid over it, each value type-checked
    against its default in ``schema``, the same section of ``DEFAULT_CONFIG``."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown configuration key")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            merged[key] = _deep_merge(base[key], value, here, schema[key])
        else:
            wanted = _expected(value, schema[key], here)
            _check(wanted is None, here, f"expected {wanted}")
            merged[key] = value
    return merged


def _check(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _build(path: str, make, keys=()):
    """``make()``, which builds a config dataclass; the range error it raises
    becomes a ConfigError naming ``path.key`` for the first of ``keys`` the
    error mentions, or ``path`` when it mentions none."""
    try:
        return make()
    except (gym_mod.GeneratorError, tr_mod.TrainerError, ope_mod.OpeError,
            EncoderError) as exc:
        key = next((k for k in keys if re.search(rf"\b{k}\b", str(exc))), None)
        raise ConfigError(f"{path}.{key}: {exc}" if key else f"{path}: {exc}") from None


def _validate_config(cfg: dict) -> None:
    """Range and choice checks; ``_deep_merge`` has checked every type.

    The ranges of the synthetic generator, training, OPE and note strategy
    keys are those of the dataclasses they configure, which are built here
    once; the checks below cover what no dataclass checks.
    """
    s, e, o = cfg["dataset"]["synth"], cfg["encoder"], cfg["ope"]
    _build("dataset.synth", lambda: _generator_config(cfg), s)
    _build("train", lambda: _train_config(cfg, 0), cfg["train"])
    _build("ope", lambda: _ope_config(cfg, 0), o)
    _build("ope.behavior_floor", lambda: ope_mod.BehaviorFitConfig(floor=o["behavior_floor"]))
    _build("encoder", lambda: NoteStrategy(e["strategy"], e["window"]), ("strategy", "window"))
    for kind in cfg["ablate"]["strategies"]:
        _build("ablate.strategies", lambda: NoteStrategy(kind))
    _check(0.0 < s["behavior_epsilon"] < 1.0, "dataset.synth.behavior_epsilon",
           "must be in (0, 1)")
    fr = s["split_fractions"]
    _check(len(fr) == 3 and abs(sum(fr) - 1.0) < 1e-9 and min(fr) >= 0.0,
           "dataset.synth.split_fractions", "must be 3 fractions summing to 1")
    _check(cfg["modality"] in tr_mod.MODALITIES, "modality",
           f"must be one of {tr_mod.MODALITIES}")
    _check(0.0 < o["eps_soft"] < 1.0, "ope.eps_soft", "must be in (0, 1)")
    _check(o["behavior"] in ("auto", "logged", "fitted"), "ope.behavior",
           "must be auto|logged|fitted")
    b = cfg["bdesr"]
    _check(b["alpha"] >= 0 and b["beta"] >= 0
           and abs(b["alpha"] + b["beta"] - 1.0) < 1e-9,
           "bdesr.alpha", "weights must be nonnegative and sum to 1")
    _check(0.0 < b["p"] < 50.0, "bdesr.p", "must be in (0, 50)")
    _check(bool(cfg["seeds"]), "seeds", "expected a nonempty list")


def load_config(path: str | Path | None) -> dict:
    if path is None:
        cfg = copy.deepcopy(DEFAULT_CONFIG)
    else:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except OSError as exc:      # a directory, or no permission
            raise ConfigError(f"config {path}: cannot read ({exc.strerror})")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path}: not UTF-8 text ({exc})")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: top level must be an object")
        cfg = _deep_merge(DEFAULT_CONFIG, user)
    _validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _generator_config(cfg: dict) -> gym_mod.GeneratorConfig:
    fields = {f.name for f in dataclasses.fields(gym_mod.GeneratorConfig)}
    return gym_mod.GeneratorConfig(**{k: v for k, v in cfg["dataset"]["synth"].items()
                                      if k in fields})


def _encoder_config(cfg: dict, dataset: ds_mod.OfflineDataset) -> EncoderConfig:
    e = cfg["encoder"]
    return EncoderConfig(
        n_features=dataset.n_features, d_n=dataset.d_n, d=e["d"], d_k=e["d_k"],
        depth=e["depth"], strategy=NoteStrategy(e["strategy"], e["window"]),
        use_attention=e["use_attention"],
    )


def _train_config(cfg: dict, seed: int) -> tr_mod.TrainConfig:
    return tr_mod.TrainConfig(**cfg["train"], seed=seed)


def _ope_config(cfg: dict, seed: int) -> ope_mod.OpeConfig:
    o = cfg["ope"]
    return ope_mod.OpeConfig(
        gamma=o["gamma"], n_bootstrap=o["n_bootstrap"],
        clip_percentile=o["clip_percentile"], seed=seed,
        fqe=ope_mod.FqeNetConfig(iterations=o["fqe_iterations"],
                                 steps_per_iteration=o["fqe_steps"],
                                 width=o["fqe_width"], depth=o["fqe_depth"],
                                 seed=seed),
    )


def _seed(args, default: int) -> int:
    """The --seed flag, or ``default`` when it is absent."""
    if args.seed is None:
        return default
    _check(args.seed >= 0, "--seed", "expected an integer >= 0")
    return args.seed


def _out_dir(args, command: str) -> Path:
    if args.out:
        out, source = Path(args.out), "--out"
    else:
        out, source = Path(os.environ.get(ENV_OUT_ROOT, "careql_runs")) / command, ENV_OUT_ROOT
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigError(f"{source}: cannot make the output directory {out} ({exc.strerror})")
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_provenance(out: Path, cfg: dict, seed: int) -> None:
    resolved = copy.deepcopy(cfg)
    resolved["seed"] = seed
    _write_json(out / "resolved_config.json", resolved)


def _read_cohort(data_dir: str | Path, gt_path: str | Path = ""):
    """A directory's dataset files, with the ground truth attached: that at
    ``gt_path``, which must exist when given, or else the directory's
    ``ground_truth.json`` when present."""
    data = Path(data_dir)
    dataset = ds_mod.ingest(data / "structured.csv", data / "notes.jsonl",
                            data / "manifest.json")
    if gt_path and not Path(gt_path).exists():
        raise ds_mod.DatasetError(f"ground truth {gt_path}: no such file")
    gt = None
    gt_path = Path(gt_path) if gt_path else data / "ground_truth.json"
    if gt_path.exists():
        try:
            gt = gym_mod.load_ground_truth(gt_path)
            dataset = gym_mod.attach_ground_truth(dataset, gt)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ds_mod.DatasetError(
                f"ground truth {gt_path}: cannot attach ({type(exc).__name__}: {exc})") from exc
    return dataset, gt


def _load_bundle(data_dir: str | Path, cfg: dict):
    """Dataset files + optional ground truth; normalization per config."""
    dataset, gt = _read_cohort(data_dir, cfg["dataset"]["files"]["ground_truth"])
    if cfg["dataset"]["normalize"]:
        dataset = ds_mod.normalize(dataset)
    return dataset, gt


def _load(what: str, path: str | Path, read):
    """``read(path)``; a missing or malformed file is a data error naming it."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ds_mod.DatasetError(
            f"{what} {path}: cannot load ({type(exc).__name__}: {exc})") from exc


def _load_run_file(path: Path, read):
    """``read`` of the JSON in one of a run's output files."""
    return _load("run file", path, lambda p: read(json.loads(p.read_text(encoding="utf-8"))))


def _check_widths(label: str, modality: str, expected, data, also=()) -> None:
    """A data error unless ``data`` has the ``n_features`` and ``d_n`` of
    ``expected`` where a ``modality`` model reads them, and those in ``also``."""
    for name in dict.fromkeys(tr_mod.MODALITY_WIDTHS[modality] + also):
        want, got = getattr(expected, name), getattr(data, name)
        if want != got:
            raise ds_mod.DatasetError(f"{label}: {name} differs ({want} vs {got})")


def _behavior_model(cfg: dict, dataset: ds_mod.OfflineDataset, seed: int):
    mode = cfg["ope"]["behavior"]
    has_logged = not np.isnan(dataset.store.behavior_prob).any()
    if mode == "logged" or (mode == "auto" and has_logged):
        if not has_logged:
            raise ds_mod.DatasetError(
                "ope.behavior is 'logged' but the dataset has no logged "
                "behavior probabilities; use 'fitted'")
        return ope_mod.LoggedBehavior()
    fit_cfg = ope_mod.BehaviorFitConfig(floor=cfg["ope"]["behavior_floor"],
                                        steps=cfg["ope"]["behavior_fit_steps"],
                                        seed=seed)
    return ope_mod.fit_behavior(dataset, cfg=fit_cfg)


def _eval_split(dataset: ds_mod.OfflineDataset) -> ds_mod.OfflineDataset:
    """The test split, or the whole dataset when it has no test episodes."""
    return dataset.split("test") or dataset


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _synth_rollout(cfg: dict, seed: int):
    """The configured synthetic MDP, its behaviour policy and a logged dataset."""
    s = cfg["dataset"]["synth"]
    mdp = gym_mod.generate_mdp(_generator_config(cfg), seed=seed)
    behavior = gym_mod.near_clinician_behavior(mdp, s["behavior_epsilon"])
    dataset = gym_mod.rollout(mdp, behavior, n_episodes=s["n_episodes"],
                              max_len=s["max_len"], seed=seed,
                              split_fractions=tuple(s["split_fractions"]))
    return mdp, behavior, dataset


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg["dataset"]["synth"]["seed"])
    out = _out_dir(args, "synth")
    mdp, behavior, dataset = _synth_rollout(cfg, seed)
    paths = ds_mod.export(dataset, out)
    gym_mod.write_ground_truth(out / "ground_truth.json", mdp, behavior, dataset)
    _write_provenance(out, cfg, seed)
    print(f"wrote {len(dataset)} episodes ({dataset.n_transitions} transitions) "
          f"to {out}")
    print(f"certified gaps: structured-only "
          f"{mdp.oracle['gap_structured_only']:.4f}, "
          f"note-only {mdp.oracle['gap_note_only']:.4f}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    dataset, gt = _load_bundle(args.data, cfg)
    splits = {name: int((dataset.store.split == name).sum()) for name in ds_mod.SPLITS}
    print(f"episodes: {len(dataset)}  transitions: {dataset.n_transitions}")
    print(f"features: {dataset.n_features}  d_n: {dataset.d_n}")
    print(f"splits: {splits}")
    print(f"ground truth: {'attached' if gt else 'absent'}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg["seed"])
    out = _out_dir(args, "train")
    dataset, _ = _load_bundle(args.data, cfg)
    enc_cfg = _encoder_config(cfg, dataset)
    train_cfg = _train_config(cfg, seed)
    result = tr_mod.train(dataset, train_cfg, enc_cfg, modality=cfg["modality"])
    result.policy.save(out / "checkpoint.json")
    with (out / "train_log.jsonl").open("w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_provenance(out, cfg, seed)
    print(f"trained {cfg['train']['algorithm']} ({cfg['modality']}) for "
          f"{train_cfg.total_steps} steps; final loss "
          f"{result.log[-1]['loss']:.6f}")
    print(f"checkpoint: {out / 'checkpoint.json'}")
    return EXIT_OK


def _ope_report_for(cfg: dict, behavior, test, policy, seed: int):
    """OPE of ``policy`` on the split ``test`` under the behavior model
    ``behavior`` (see ``_behavior_model``)."""
    target = ope_mod.soften(policy, cfg["ope"]["eps_soft"])
    return ope_mod.evaluate_policy(test, target, behavior, _ope_config(cfg, seed))


def _write_ope_outputs(out: Path, report, variant: str) -> None:
    _write_json(out / "ope_report.json", report.to_dict())
    lines = [f"metric,{variant}"]
    for metric in METRICS:
        lines.append(f"{metric},{getattr(report, metric)!r}")
    _write_csv(out / "ope_report.csv", lines)


def _write_bdesr_outputs(out: Path, report: dict, variant: str) -> None:
    _write_json(out / "bdesr_report.json", report)
    lines = [f"cohort,{variant}",
             f"low_bdesr,{report['low_bdesr']!r}",
             f"high_bdesr,{report['high_bdesr']!r}"]
    _write_csv(out / "bdesr_report.csv", lines)


def _write_residuals(out: Path, res) -> None:
    _write_json(out / "residuals.json", {
        "mean": res.mean, "std": res.std, "n": int(res.samples.size),
        "hist_counts": res.hist_counts.tolist(),
        "hist_edges": res.hist_edges.tolist(),
    })


def cmd_eval(args, ope_only: bool = False, bdesr_only: bool = False) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg["seed"])
    out = _out_dir(args, "eval")
    dataset, _ = _load_bundle(args.data, cfg)
    policy = _load("checkpoint", args.checkpoint, tr_mod.LearnedPolicy.load)
    _check_widths(f"checkpoint {args.checkpoint} vs data {args.data}", policy.modality,
                  policy.model.enc_cfg, dataset)
    test = _eval_split(dataset)
    if not bdesr_only:
        report = _ope_report_for(cfg, _behavior_model(cfg, dataset, seed), test, policy, seed)
        # before any file, so that residuals which overflow leave none
        _write_residuals(out, tr_mod.bellman_residuals(policy, test, cfg["ope"]["gamma"]))
        _write_ope_outputs(out, report, variant="policy")
        print(f"OPE: opera={report.opera:.4f} dr={report.dr:.4f} "
              f"fqe={report.fqe:.4f} wis={report.wis:.4f} "
              f"(n={report.n_episodes}, fqe={report.fqe_mode})")
    if not ope_only:
        b = cfg["bdesr"]
        report_b = bdesr_mod.bdesr_report(test, policy, alpha=b["alpha"],
                                          beta=b["beta"], p=b["p"])
        _write_bdesr_outputs(out, report_b, variant="policy")
        print(f"BDESR: low={report_b['low_bdesr']:.4f} "
              f"high={report_b['high_bdesr']:.4f} (p={b['p']})")
    _write_provenance(out, cfg, seed)
    return EXIT_OK


def _ablation_variants(cfg: dict):
    """(section, variant name, config overlay) for the three sweeps."""
    def components(strategy: str, use_attention: bool) -> dict:
        return {"train": {"algorithm": "bcq"},
                "encoder": {"strategy": strategy, "use_attention": use_attention}}

    variants = [
        ("components", "base", components("impute", False)),
        ("components", "+attention", components("impute", True)),
        ("components", "+attention+gate", components("context", True)),
    ]
    for kind in cfg["ablate"]["strategies"]:
        variants.append(("strategies", kind, {"encoder": {"strategy": kind}}))
    for window in cfg["ablate"]["windows"]:
        variants.append(("windows", f"W={window}",
                         {"encoder": {"strategy": "stack", "window": window}}))
    return variants


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args, "ablate")
    if args.data:
        dataset, _ = _load_bundle(args.data, cfg)
    else:
        dataset = _synth_rollout(cfg, cfg["dataset"]["synth"]["seed"])[2]
        if cfg["dataset"]["normalize"]:
            dataset = ds_mod.normalize(dataset)
    test = _eval_split(dataset)
    # the behavior model depends on the seed and the cohort, not the variant
    behaviors = {seed: _behavior_model(cfg, dataset, seed) for seed in cfg["seeds"]}
    rows = []
    for section, name, overlay in _ablation_variants(cfg):
        variant = _deep_merge(cfg, overlay)
        per_seed = {metric: [] for metric in METRICS}
        for seed in cfg["seeds"]:
            result = tr_mod.train(dataset, _train_config(variant, seed),
                                  _encoder_config(variant, dataset),
                                  modality=cfg["modality"])
            report = _ope_report_for(cfg, behaviors[seed], test, result.policy, seed)
            for metric in METRICS:
                per_seed[metric].append(getattr(report, metric))
        rows.append({
            "section": section, "variant": name,
            "metrics": {metric: {"mean": float(np.mean(per_seed[metric])),
                                 "std": float(np.std(per_seed[metric]))}
                        for metric in METRICS},
        })
    _write_json(out / "ablation.json", {"seeds": cfg["seeds"], "rows": rows})
    lines = ["section,variant," + ",".join(
        f"{m}_mean,{m}_std" for m in METRICS)]
    for row in rows:
        cells = [row["section"], row["variant"]]
        for metric in METRICS:
            cells.append(repr(row["metrics"][metric]["mean"]))
            cells.append(repr(row["metrics"][metric]["std"]))
        lines.append(",".join(cells))
    _write_csv(out / "ablation.csv", lines)
    _write_provenance(out, cfg, cfg["seed"])
    print(f"wrote {len(rows)} ablation rows over seeds {cfg['seeds']} to {out}")
    return EXIT_OK


def cmd_cross_eval(args) -> int:
    cfg = load_config(args.config)
    seed = _seed(args, cfg["seed"])
    out = _out_dir(args, "cross_eval")
    train_ds_raw, _ = _read_cohort(args.train_data)
    eval_ds_raw, _ = _read_cohort(args.eval_data)
    # the evaluation cohort is normalized with the training cohort's statistics
    scaled = ("n_features",) if cfg["dataset"]["normalize"] else ()
    _check_widths(f"cohort {args.train_data} vs cohort {args.eval_data}", cfg["modality"],
                  train_ds_raw, eval_ds_raw, scaled)
    if cfg["dataset"]["share_bins"]:
        eval_ds_raw = ds_mod.rediscretize(eval_ds_raw, train_ds_raw.bin_edges)
    if cfg["dataset"]["normalize"]:
        train_ds = ds_mod.normalize(train_ds_raw)
        # evaluation cohort is scaled with the training cohort's statistics
        eval_ds = ds_mod.normalize(eval_ds_raw, stats=train_ds.feature_stats)
    else:
        train_ds, eval_ds = train_ds_raw, eval_ds_raw

    enc_cfg = _encoder_config(cfg, train_ds)
    train_cfg = _train_config(cfg, seed)
    snapshot_interval = max(train_cfg.total_steps
                            // cfg["cross_eval"]["snapshot_points"], 1)
    result = tr_mod.train(train_ds, train_cfg, enc_cfg,
                          modality=cfg["modality"],
                          snapshot_interval=snapshot_interval)

    test = _eval_split(eval_ds)
    behavior = _behavior_model(cfg, eval_ds, seed)
    gamma = cfg["ope"]["gamma"]
    report = _ope_report_for(cfg, behavior, test, result.policy, seed)
    residuals = tr_mod.bellman_residuals(result.policy, test, gamma)

    # DR across training iterations on the evaluation cohort, one batch each;
    # the last snapshot is the final step's, so the policy ends the loop
    # holding its final parameters
    curve_lines = ["step,dr"]
    for step, values in result.snapshots:
        load_param_values(result.policy.all_params(), values)
        target = ope_mod.soften(result.policy, cfg["ope"]["eps_soft"])
        batch = ope_mod.eval_batch(test, target, behavior)
        fqe_res = ope_mod.fqe_network(batch, gamma, _ope_config(cfg, seed).fqe)
        point = ope_mod.dr(batch, fqe_res.q_rows, gamma)
        curve_lines.append(f"{step},{point!r}")
    # no file is written until every estimate is computed, so that a run
    # which fails leaves no report for `careql report` to count
    _write_residuals(out, residuals)
    result.policy.save(out / "checkpoint.json")
    _write_ope_outputs(out, report, variant="cross")
    _write_csv(out / "dr_curve.csv", curve_lines)
    _write_provenance(out, cfg, seed)
    print(f"cross-eval: opera={report.opera:.4f} dr={report.dr:.4f} "
          f"fqe={report.fqe:.4f} wis={report.wis:.4f}")
    print(f"dr curve: {out / 'dr_curve.csv'}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise ds_mod.DatasetError(f"run directory {run_dir}: "
                                  + ("not a directory" if run_dir.exists() else "not found"))

    def variant(path: Path) -> str:
        """The run-relative directory of a run file, "policy" for the run itself."""
        rel = str(path.parent.relative_to(run_dir))
        return rel if rel != "." else "policy"

    variants = {}
    for path in sorted(run_dir.rglob("ope_report.json")):
        variants[variant(path)] = _load_run_file(
            path, lambda p: {m: p["estimates"][m] for m in METRICS})
    out = run_dir / "report"
    try:
        out.mkdir(exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ds_mod.DatasetError(f"report directory {out}: cannot make it ({exc.strerror})")
    if variants:
        names = sorted(variants)
        lines = ["metric," + ",".join(names)]
        for metric in METRICS:
            cells = [repr(variants[n][metric]) for n in names]
            lines.append(f"{metric}," + ",".join(cells))
        _write_csv(out / "summary.csv", lines)
        _write_json(out / "radar.json", variants)
    hist_rows = ["variant,bin_left,bin_right,count"]
    for path in sorted(run_dir.rglob("residuals.json")):
        name = variant(path)
        bins = _load_run_file(path, lambda p: list(zip(
            p["hist_edges"][:-1], p["hist_edges"][1:], p["hist_counts"])))
        for left, right, count in bins:
            hist_rows.append(f"{name},{left!r},{right!r},{count}")
    if len(hist_rows) > 1:
        _write_csv(out / "residual_hist.csv", hist_rows)
    print(f"report written to {out} ({len(variants)} variant(s))")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="careql",
        description="Offline multimodal Q-learning: synthetic data, training, "
                    "off-policy evaluation, and reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, seed=True, out=True, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="experiment config JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if out:
            p.add_argument("--out", default=None,
                           help=f"output directory (default ${ENV_OUT_ROOT}/{name})")
        for flag, required in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                           required=required)
        p.set_defaults(func=func)
        return p

    add("synth", cmd_synth)
    add("ingest", cmd_ingest, seed=False, out=False, data=True)
    add("train", cmd_train, data=True)
    add("eval", cmd_eval, data=True, checkpoint=True)
    add("ope", lambda a: cmd_eval(a, ope_only=True), data=True, checkpoint=True)
    add("bdesr", lambda a: cmd_eval(a, bdesr_only=True), data=True,
        checkpoint=True)
    ablate_p = add("ablate", cmd_ablate, seed=False)
    ablate_p.add_argument("--data", default=None)
    add("cross-eval", cmd_cross_eval, train_data=True, eval_data=True)
    report_p = sub.add_parser("report")
    report_p.add_argument("--run-dir", dest="run_dir", required=True)
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, gym_mod.GeneratorError, tr_mod.TrainerError,
            ds_mod.DatasetError, ope_mod.OpeError, bdesr_mod.BdesrError,
            tr_mod.TrainingDiverged, tr_mod.NonFiniteQError,
            NonFiniteGradientError) as exc:
        kind, code = _classify(exc)
        print(f"{kind}: {exc}", file=sys.stderr)
        return code


def _classify(exc: Exception) -> tuple[str, int]:
    if isinstance(exc, (ConfigError, gym_mod.GeneratorError, tr_mod.TrainerError)):
        return "configuration error", EXIT_CONFIG
    if isinstance(exc, ds_mod.DatasetError):
        return "data error", EXIT_DATA
    return "numeric failure", EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
