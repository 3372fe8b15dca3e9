import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import careql
from careql import dataset as dataset_mod
from careql.cli import DEFAULT_CONFIG, ConfigError, build_parser, load_config, main
from careql.dataset import SNAPSHOT_NAME, ingest

TINY_SYNTH = {
    "dataset": {
        "synth": {
            "n_severity": 3, "n_context": 2, "n_features": 6, "d_n": 8,
            "n_episodes": 120, "max_len": 10, "min_gap": 0.0, "seed": 0,
            "split_fractions": [0.8, 0.0, 0.2],
        },
    },
    "encoder": {"d": 8, "d_k": 4, "depth": 1},
    "train": {"total_steps": 120, "batch_size": 64, "hidden_width": 16,
              "trunk_depth": 2, "eval_interval": 40, "target_update": 50,
              "learning_rate": 1e-3},
    "ope": {"n_bootstrap": 25, "fqe_iterations": 3, "fqe_steps": 20,
            "fqe_width": 16},
    "seeds": [0, 1],
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = json.loads(json.dumps(TINY_SYNTH))
    if extra:
        for key, value in extra.items():
            node = cfg
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def synth_dir(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestConfig:
    def test_defaults_mirror_reference_hyperparameters(self):
        cfg = load_config(None)
        assert cfg["train"]["batch_size"] == 256
        assert cfg["train"]["learning_rate"] == 1e-4
        assert cfg["train"]["bcq_threshold"] == 0.3
        assert cfg["train"]["cql_alpha"] == 2.0
        assert cfg["bdesr"]["p"] == 20.0

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"learning_rat": 0.1}}))
        with pytest.raises(ConfigError, match="train.learning_rat"):
            load_config(path)

    def test_invalid_value_named_in_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"gamma": 1.5}}))
        with pytest.raises(ConfigError, match="train.gamma"):
            load_config(path)

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"train.gamma": 2.0})
        code = main(["synth", "--config", str(path), "--out",
                     str(tmp_path / "x")])
        assert code == 2
        assert "train.gamma" in capsys.readouterr().err


def config_leaves(node=DEFAULT_CONFIG, prefix=""):
    """(dotted path, default) of every settable value of the schema."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def wrong_type_values(default):
    """JSON values whose type is not the type of ``default``."""
    if isinstance(default, list):
        return ["x", {}] + [[v] for v in wrong_type_values(default[0])]
    if isinstance(default, bool):
        return [1, "true", None]
    if isinstance(default, str):
        return [5, True, None, ["x"]]
    if isinstance(default, int):
        return [True, 1.5, "1", None, [1]]
    return [True, "x", [1.0], float("inf")]     # a number, or a nullable one


def readme_config_block() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    return re.sub(r"//.*", "", block)


class TestSchema:
    @pytest.mark.parametrize("path, default", list(config_leaves()),
                             ids=[path for path, _ in config_leaves()])
    def test_wrong_json_type_names_the_key(self, tmp_path, path, default):
        for value in wrong_type_values(default):
            user = value
            for key in reversed(path.split(".")):
                user = {key: user}
            config = tmp_path / "bad.json"
            config.write_text(json.dumps(user))
            with pytest.raises(ConfigError) as info:
                load_config(config)
            assert str(info.value).startswith(f"{path}: "), (value, str(info.value))

    @pytest.mark.parametrize("tiny", [False, True], ids=["defaults", "tiny_synth"])
    def test_resolved_config_loads_back_unchanged(self, tmp_path, tiny):
        config = ["--config", str(write_config(tmp_path))] if tiny else []
        assert main(["synth", *config, "--out", str(tmp_path / "data")]) == 0
        resolved = tmp_path / "data" / "resolved_config.json"
        assert load_config(resolved) == json.loads(resolved.read_text())

    def test_documented_configs_load(self, tmp_path):
        demo = Path(__file__).parents[1] / "configs" / "demo.json"
        assert load_config(demo)["train"]["total_steps"] == 3000
        readme = tmp_path / "readme.json"
        readme.write_text(readme_config_block())
        cfg = load_config(readme)
        assert cfg["dataset"]["synth"]["split_fractions"] == [1.0, 0, 0]

    def test_readme_config_shows_schema_defaults(self):
        # a key renamed or removed from the schema cannot survive in the docs
        defaults = dict(config_leaves())
        shown = list(config_leaves(json.loads(readme_config_block())))
        assert shown
        for path, value in shown:
            assert path in defaults, path
            assert value == defaults[path], path


class TestSynth:
    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["synth", "--config", str(cfg), "--out", str(out_b)]) == 0
        for name in ("structured.csv", "notes.jsonl", "manifest.json",
                     "ground_truth.json", "resolved_config.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_generated_files_reingest_cleanly(self, synth_dir):
        assert main(["ingest", "--data", str(synth_dir)]) == 0

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", str(cfg), "--out", str(out_a)])
        main(["synth", "--config", str(cfg), "--out", str(out_b), "--seed", "9"])
        assert (out_a / "structured.csv").read_bytes() != \
            (out_b / "structured.csv").read_bytes()


class TestTrainEval:
    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--data",
                     str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_behavior_model_reads_the_stored_column(self, synth_dir, monkeypatch):
        # whether every behaviour probability is logged is read off the
        # store's column, without building any episode's transitions
        from careql import cli
        from careql.dataset import Episode
        from careql.ope import LoggedBehavior

        cfg = load_config(None)
        data, gt = cli._load_bundle(synth_dir, cfg)
        assert gt is not None

        def transition(episode, t):
            raise AssertionError(f"built transition {t} of episode {episode.index}")

        monkeypatch.setattr(Episode, "__getitem__", transition)
        assert isinstance(cli._behavior_model(cfg, data, 0), LoggedBehavior)

    @pytest.mark.parametrize("behavior", ["auto", "fitted"])
    def test_eval_gathers_the_test_split_once(self, tmp_path, synth_dir, monkeypatch,
                                              behavior):
        # OPE and BDESR read one test-split dataset, gathered from the cohort once
        from careql.dataset import EpisodeStore

        cfg = str(write_config(tmp_path, {"train.total_steps": 5, "ope.behavior": behavior,
                                          "ope.behavior_fit_steps": 5}))
        checkpoint = tmp_path / "train" / "checkpoint.json"
        assert main(["train", "--config", cfg, "--data", str(synth_dir),
                     "--out", str(checkpoint.parent)]) == 0
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        n_test = sum(entry["split"] == "test" for entry in manifest["episodes"])
        gathered = []
        take = EpisodeStore.take

        def spy(store, index):
            # taking every episode in order returns the store and gathers nothing
            result = take(store, index)
            if result is not store:
                gathered.append(len(index))
            return result

        monkeypatch.setattr(EpisodeStore, "take", spy)
        assert main(["eval", "--config", cfg, "--data", str(synth_dir), "--checkpoint",
                     str(checkpoint), "--out", str(tmp_path / "eval")]) == 0
        assert gathered == [n_test]

    def test_two_seeds_two_parseable_logs(self, tmp_path, synth_dir):
        cfg = write_config(tmp_path)
        logs = []
        for seed in (0, 1):
            out = tmp_path / f"run{seed}"
            assert main(["train", "--config", str(cfg), "--data",
                         str(synth_dir), "--out", str(out), "--seed",
                         str(seed)]) == 0
            records = [json.loads(line) for line in
                       (out / "train_log.jsonl").read_text().splitlines()]
            assert all({"step", "loss", "mean_q", "reg_term"}
                       == set(r) for r in records)
            logs.append(records)
        assert logs[0] != logs[1]

    def test_train_twice_bit_identical(self, tmp_path, synth_dir):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("ra", "rb"):
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--data",
                         str(synth_dir), "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "checkpoint.json").read_bytes() == \
            (outs[1] / "checkpoint.json").read_bytes()
        assert (outs[0] / "train_log.jsonl").read_bytes() == \
            (outs[1] / "train_log.jsonl").read_bytes()

    def test_eval_writes_reports_with_schema(self, tmp_path, synth_dir):
        cfg = write_config(tmp_path)
        train_out = tmp_path / "train"
        assert main(["train", "--config", str(cfg), "--data", str(synth_dir),
                     "--out", str(train_out)]) == 0
        eval_out = tmp_path / "eval"
        assert main(["eval", "--config", str(cfg), "--data", str(synth_dir),
                     "--checkpoint", str(train_out / "checkpoint.json"),
                     "--out", str(eval_out)]) == 0
        report = json.loads((eval_out / "ope_report.json").read_text())
        assert set(report["estimates"]) == {"wis", "dr", "fqe", "opera"}
        csv_lines = (eval_out / "ope_report.csv").read_text().splitlines()
        assert csv_lines[0] == "metric,policy"
        assert [line.split(",")[0] for line in csv_lines[1:]] == \
            ["opera", "dr", "fqe", "wis"]
        bdesr = json.loads((eval_out / "bdesr_report.json").read_text())
        assert 0.0 <= bdesr["low_bdesr"] <= 1.0
        residuals = json.loads((eval_out / "residuals.json").read_text())
        assert sum(residuals["hist_counts"]) == residuals["n"]
        # the residuals cover the evaluated split, as the OPE report does
        cohort = ingest(*(synth_dir / name for name in
                          ("structured.csv", "notes.jsonl", "manifest.json")))
        test = cohort.split("test")
        assert report["n_episodes"] == len(test) < len(cohort)
        assert residuals["n"] == test.n_transitions

    def test_ope_and_bdesr_subcommands(self, tmp_path, synth_dir):
        cfg = write_config(tmp_path)
        train_out = tmp_path / "train"
        main(["train", "--config", str(cfg), "--data", str(synth_dir),
              "--out", str(train_out)])
        ope_out = tmp_path / "ope_only"
        assert main(["ope", "--config", str(cfg), "--data", str(synth_dir),
                     "--checkpoint", str(train_out / "checkpoint.json"),
                     "--out", str(ope_out)]) == 0
        assert (ope_out / "ope_report.json").exists()
        assert not (ope_out / "bdesr_report.json").exists()
        bdesr_out = tmp_path / "bdesr_only"
        assert main(["bdesr", "--config", str(cfg), "--data", str(synth_dir),
                     "--checkpoint", str(train_out / "checkpoint.json"),
                     "--out", str(bdesr_out)]) == 0
        assert (bdesr_out / "bdesr_report.json").exists()
        assert not (bdesr_out / "ope_report.json").exists()


class TestAblate:
    def test_variant_sets_and_schema(self, tmp_path):
        cfg = write_config(tmp_path, {
            "train.total_steps": 40,
            "ope.n_bootstrap": 10,
            "ope.fqe_iterations": 2,
            "ope.fqe_steps": 10,
            "dataset.synth.n_episodes": 60,
            "seeds": [0, 1],
        })
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "ablation.json").read_text())
        rows = payload["rows"]
        components = [r["variant"] for r in rows if r["section"] == "components"]
        assert components == ["base", "+attention", "+attention+gate"]
        strategies = [r["variant"] for r in rows if r["section"] == "strategies"]
        assert strategies == ["raw", "impute", "stack", "context"]
        windows = [r["variant"] for r in rows if r["section"] == "windows"]
        assert windows == ["W=3", "W=5", "W=7"]
        for row in rows:
            for metric in ("opera", "dr", "fqe", "wis"):
                cell = row["metrics"][metric]
                assert set(cell) == {"mean", "std"}
                assert np.isfinite(cell["mean"]) and np.isfinite(cell["std"])
        header = (out / "ablation.csv").read_text().splitlines()[0]
        assert header.startswith("section,variant,opera_mean,opera_std")


def count_behavior_fits(monkeypatch) -> list:
    """A list that grows by one on every ``ope.fit_behavior`` call."""
    from careql import ope

    fits = []
    fit = ope.fit_behavior

    def spy(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(ope, "fit_behavior", spy)
    return fits


class TestBehaviorFitOnce:
    def test_ablate_fits_once_per_seed(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {
            "train.total_steps": 10, "ope.n_bootstrap": 5, "ope.fqe_iterations": 1,
            "ope.fqe_steps": 5, "ope.behavior": "fitted", "ope.behavior_fit_steps": 5,
            "dataset.synth.n_episodes": 40, "ablate.strategies": ["raw"],
            "ablate.windows": [3], "seeds": [0, 1],
        })
        fits = count_behavior_fits(monkeypatch)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert len(fits) == 2   # 5 variants x 2 seeds, one fit per seed

    def test_cross_eval_fits_once(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {
            "train.total_steps": 10, "cross_eval.snapshot_points": 2,
            "ope.n_bootstrap": 5, "ope.fqe_iterations": 1, "ope.fqe_steps": 5,
            "ope.behavior": "fitted", "ope.behavior_fit_steps": 5})
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        fits = count_behavior_fits(monkeypatch)
        assert main(["cross-eval", "--config", str(cfg), "--train-data", str(data),
                     "--eval-data", str(data), "--out", str(tmp_path / "cross")]) == 0
        assert len(fits) == 1   # OPE and the DR curve share one behavior model


class TestCrossEval:
    def test_cross_eval_and_consistency(self, tmp_path):
        cfg = write_config(tmp_path, {"cross_eval.snapshot_points": 2,
                                      "ope.n_bootstrap": 15,
                                      "ope.fqe_iterations": 2,
                                      "ope.fqe_steps": 10})
        data_a = tmp_path / "da"
        data_b = tmp_path / "db"
        main(["synth", "--config", str(cfg), "--out", str(data_a)])
        main(["synth", "--config", str(cfg), "--out", str(data_b), "--seed", "5"])

        cross_out = tmp_path / "cross"
        assert main(["cross-eval", "--config", str(cfg),
                     "--train-data", str(data_a), "--eval-data", str(data_b),
                     "--out", str(cross_out)]) == 0
        curve = (cross_out / "dr_curve.csv").read_text().splitlines()
        assert curve[0] == "step,dr"
        assert len(curve) >= 3  # at least two snapshot points
        for line in curve[1:]:
            step, value = line.split(",")
            assert np.isfinite(float(value))

        # same-dataset cross-eval reproduces the train+eval pipeline output
        same_out = tmp_path / "same"
        assert main(["cross-eval", "--config", str(cfg),
                     "--train-data", str(data_a), "--eval-data", str(data_a),
                     "--out", str(same_out)]) == 0
        train_out = tmp_path / "train"
        main(["train", "--config", str(cfg), "--data", str(data_a),
              "--out", str(train_out)])
        eval_out = tmp_path / "eval"
        main(["eval", "--config", str(cfg), "--data", str(data_a),
              "--checkpoint", str(train_out / "checkpoint.json"),
              "--out", str(eval_out)])
        same = json.loads((same_out / "ope_report.json").read_text())
        direct = json.loads((eval_out / "ope_report.json").read_text())
        assert same == direct
        assert (same_out / "checkpoint.json").read_bytes() == \
            (train_out / "checkpoint.json").read_bytes()

    def test_a_failing_dr_snapshot_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a run that fails leaves no ope_report.json for `careql report` to count
        from careql import ope

        cfg = write_config(tmp_path, {"cross_eval.snapshot_points": 2, "ope.n_bootstrap": 5,
                                      "ope.fqe_iterations": 1, "ope.fqe_steps": 5,
                                      "train.total_steps": 20})
        data = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        fits, fit = [], ope.fqe_network

        def failing(*args, **kwargs):
            # the final policy's OPE fits once, then each DR-curve snapshot
            fits.append(1)
            if len(fits) == 3:
                raise ope.OpeError("injected fault in the second snapshot")
            return fit(*args, **kwargs)

        monkeypatch.setattr(ope, "fqe_network", failing)
        out = tmp_path / "cross"
        capsys.readouterr()
        code = main(["cross-eval", "--config", str(cfg), "--train-data", str(data),
                     "--eval-data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4, err
        assert err.startswith("numeric failure: injected fault"), err
        assert len(fits) == 3
        assert not [p for p in out.rglob("*") if p.is_file()]

    def test_bcq_cross_eval_writes_a_dr_curve(self, tmp_path):
        cfg = write_config(tmp_path, {"train.algorithm": "bcq",
                                      "cross_eval.snapshot_points": 2,
                                      "ope.n_bootstrap": 10,
                                      "ope.fqe_iterations": 2,
                                      "ope.fqe_steps": 8,
                                      "train.total_steps": 40})
        data = tmp_path / "data"
        main(["synth", "--config", str(cfg), "--out", str(data)])
        out = tmp_path / "cross"
        assert main(["cross-eval", "--config", str(cfg), "--train-data", str(data),
                     "--eval-data", str(data), "--out", str(out)]) == 0
        curve = (out / "dr_curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in curve] == ["step", "20", "40"]


class TestShareBins:
    def test_cross_eval_with_shared_dose_bins(self, tmp_path):
        cfg = write_config(tmp_path, {"dataset.share_bins": True,
                                      "cross_eval.snapshot_points": 1,
                                      "ope.n_bootstrap": 10,
                                      "ope.fqe_iterations": 2,
                                      "ope.fqe_steps": 8,
                                      "train.total_steps": 40})
        data_a = tmp_path / "da"
        data_b = tmp_path / "db"
        main(["synth", "--config", str(cfg), "--out", str(data_a)])
        main(["synth", "--config", str(cfg), "--out", str(data_b), "--seed", "4"])
        # skew the evaluation cohort's own bins; share_bins must override them
        man_path = data_b / "manifest.json"
        man = json.loads(man_path.read_text())
        man["bin_edges"] = {"iv": [0.2, 0.4, 0.6, 0.8],
                            "vaso": [0.2, 0.4, 0.6, 0.8]}
        man_path.write_text(json.dumps(man, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "cross"
        assert main(["cross-eval", "--config", str(cfg),
                     "--train-data", str(data_a), "--eval-data", str(data_b),
                     "--out", str(out)]) == 0
        assert (out / "ope_report.json").exists()


class TestReport:
    def test_report_emission_and_idempotence(self, tmp_path, synth_dir):
        cfg = write_config(tmp_path)
        train_out = tmp_path / "run" / "train"
        main(["train", "--config", str(cfg), "--data", str(synth_dir),
              "--out", str(train_out)])
        eval_out = tmp_path / "run" / "eval"
        main(["eval", "--config", str(cfg), "--data", str(synth_dir),
              "--checkpoint", str(train_out / "checkpoint.json"),
              "--out", str(eval_out)])
        run_dir = tmp_path / "run"
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        report_dir = run_dir / "report"
        summary = (report_dir / "summary.csv").read_text()
        assert summary.splitlines()[0] == "metric,eval"
        radar = json.loads((report_dir / "radar.json").read_text())
        assert set(radar["eval"]) == {"opera", "dr", "fqe", "wis"}
        hist = (report_dir / "residual_hist.csv").read_text()
        first = {name: (report_dir / name).read_bytes()
                 for name in ("summary.csv", "radar.json", "residual_hist.csv")}
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        for name, blob in first.items():
            assert (report_dir / name).read_bytes() == blob, name

    def test_missing_run_dir_exits_3(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path / "ghost")]) == 3


def test_default_out_dir_uses_env_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CAREQL_OUT", str(tmp_path / "root"))
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert (tmp_path / "root" / "synth" / "structured.csv").exists()


# Malformed inputs and the exit code each must give: 2 for configuration,
# 3 for data. A checkpoint is data, so every way it can be unreadable is 3.
STRUCTURED_META = {
    "modality": "structured", "algorithm": "cql", "bcq_threshold": 0.3,
    "strategy": {"kind": "context", "window": 3},
    "encoder": {"n_features": 6, "d_n": 8, "d": 8, "d_k": 4, "depth": 1,
                "use_attention": True},
    "qnet": {"width": 16, "depth": 2},
}
CHECKPOINT_FAULTS = {
    "missing_file": None,
    "not_json": "{format_version: 1",
    "not_an_object": "[1, 2]",
    "tensors_not_an_object": json.dumps(
        {"format_version": 1, "metadata": STRUCTURED_META, "tensors": [1.0]}),
    "wrong_format_version": json.dumps(
        {"format_version": 99, "metadata": STRUCTURED_META, "tensors": {}}),
    "missing_metadata_keys": json.dumps(
        {"format_version": 2, "metadata": {}, "tensors": {}}),
    "missing_tensors": json.dumps(
        {"format_version": 2, "metadata": STRUCTURED_META, "tensors": {}}),
}


def _set_first_value(value):
    def edit(payload):
        payload["tensors"]["q.advantage.W"]["values"][0] = value
    return edit


# (edit of a multimodal checkpoint that `careql train` wrote, the key that
# `careql eval` must name when it refuses the edited file with exit 3)
TRAINED_CHECKPOINT_FAULTS = {
    "format_version_boolean": (lambda payload: payload.update(format_version=True),
                               "format_version"),
    # a checkpoint of float64 values, written before training ran in float32
    "format_version_1": (lambda payload: payload.update(format_version=1),
                         "format_version: 1"),
    "value_boolean": (_set_first_value(True), "q.advantage.W"),
    "value_string": (_set_first_value("0.5"), "q.advantage.W"),
    "value_nan": (_set_first_value(float("nan")), "q.advantage.W"),
    "value_beyond_float_range": (_set_first_value(10**400), "q.advantage.W"),
    "value_beyond_float32_range": (_set_first_value(1e39), "q.advantage.W"),
    # the model then builds no attention, and the file's attention tensors
    # would be dropped
    "attention_tensors_unused": (
        lambda payload: payload["metadata"]["encoder"].update(use_attention=0), ".attn."),
}
# (edit of a multimodal BCQ checkpoint with a one-layer Q trunk that `careql
# train` wrote, the metadata key `careql eval` must name when it refuses the
# edited file with exit 3): a value of a JSON type that `save` never writes,
# which the model would otherwise build from (true as 1, 1 as true, 3.0 as 3)
# or fail on without naming it (8.0 as a width)
METADATA_TYPE_FAULTS = {
    "bcq_threshold_boolean": (lambda payload: payload["metadata"].update(bcq_threshold=True),
                              "bcq_threshold"),
    "window_float": (lambda payload: payload["metadata"]["strategy"].update(window=3.0),
                     "strategy.window"),
    "encoder_depth_boolean": (lambda payload: payload["metadata"]["encoder"].update(depth=True),
                              "encoder.depth"),
    "qnet_depth_boolean": (lambda payload: payload["metadata"]["qnet"].update(depth=True),
                           "qnet.depth"),
    "encoder_width_float": (lambda payload: payload["metadata"]["encoder"].update(d=8.0),
                            "encoder.d"),
    "use_attention_integer": (
        lambda payload: payload["metadata"]["encoder"].update(use_attention=1),
        "encoder.use_attention"),
}


def _overflow_q(payload):
    """Q-head biases, finite in float32, whose sum overflows: V + A is inf
    and the dueling mean-centring then gives NaN."""
    tensors = payload["tensors"]
    tensors["q.value.b"]["values"] = [3e38]
    tensors["q.advantage.b"]["values"] = [3e38] * len(tensors["q.advantage.b"]["values"])


# (modality, algorithm and edit of a checkpoint that `careql train` wrote)
# whose Q is not finite, which `careql eval` must refuse with exit 4
NON_FINITE_Q_FAULTS = {
    "structured_bcq_q_overflow": ("structured", "bcq", _overflow_q),
    "multimodal_cql_q_overflow": ("multimodal", "cql", _overflow_q),
}
CLIP_PERCENTILE_FAULTS = {"above_100": 150, "zero": 0, "negative": -5.0,
                          "string": "abc", "boolean": True}
# (key, value) pairs that `careql train` must reject with exit 2 naming the key
TRAIN_CONFIG_FAULTS = {
    "eps_soft_string": ("ope.eps_soft", "x"),
    "learning_rate_string": ("train.learning_rate", "x"),
    "gamma_string": ("train.gamma", "x"),
    "cql_alpha_boolean": ("train.cql_alpha", True),
    "bdesr_p_string": ("bdesr.p", "x"),
    "behavior_floor_too_large": ("ope.behavior_floor", 0.5),
    "behavior_floor_zero": ("ope.behavior_floor", 0.0),
    "fqe_width_string": ("ope.fqe_width", "x"),
    "behavior_fit_steps_string": ("ope.behavior_fit_steps", "x"),
    "fqe_iterations_zero": ("ope.fqe_iterations", 0),
    "fqe_steps_boolean": ("ope.fqe_steps", True),
    "fqe_depth_negative": ("ope.fqe_depth", -1),
    "total_steps_boolean": ("train.total_steps", True),
    "batch_size_boolean": ("train.batch_size", True),
    "n_episodes_boolean": ("dataset.synth.n_episodes", True),
    "synth_seed_negative": ("dataset.synth.seed", -1),
    "encoder_depth_boolean": ("encoder.depth", False),
    "snapshot_points_zero": ("cross_eval.snapshot_points", 0),
    "seeds_boolean": ("seeds", [True]),
    "windows_boolean": ("ablate.windows", [True]),
    "strategies_number": ("ablate.strategies", 5),
    "split_fractions_strings": ("dataset.synth.split_fractions", ["a", 0, 0]),
    "normalize_string": ("dataset.normalize", "no"),
    "use_attention_string": ("encoder.use_attention", "false"),
    "split_fractions_booleans": ("dataset.synth.split_fractions", [True, False, False]),
    "ground_truth_number": ("dataset.files.ground_truth", 5),
    "source_removed": ("dataset.source", "synth"),
    "grad_clip_removed": ("train.grad_clip", 1.0),
    "freeze_encoders_removed": ("train.freeze_encoders", False),
    # ranges checked by the dataclass a section configures
    "note_prob_above_one": ("dataset.synth.note_prob", 1.5),
    "term_prob_mid_zero": ("dataset.synth.term_prob_mid", 0.0),
    "term_prob_edge_above_one": ("dataset.synth.term_prob_edge", 1.5),
    "noise_note_negative": ("dataset.synth.noise_note", -0.1),
    "noise_structured_negative": ("dataset.synth.noise_structured", -1.0),
    "synth_gamma_one": ("dataset.synth.gamma", 1.0),
    "algorithm_unknown": ("train.algorithm", "sarsa"),
    "bcq_threshold_above_one": ("train.bcq_threshold", 1.5),
    "cql_alpha_negative": ("train.cql_alpha", -1.0),
    "train_gamma_one": ("train.gamma", 1.0),
    "learning_rate_negative": ("train.learning_rate", -1e-4),
    "target_update_zero": ("train.target_update", 0),
    "hidden_width_zero": ("train.hidden_width", 0),
    "ope_gamma_one": ("ope.gamma", 1.0),
    "strategy_unknown": ("encoder.strategy", "bogus"),
    "ablate_strategy_unknown": ("ablate.strategies", ["raw", "bogus"]),
}
# (key, value) pairs that even `careql synth`, which trains nothing, rejects
SYNTH_CONFIG_FAULTS = {
    "learning_rate_zero": ("train.learning_rate", 0.0),
    "cql_alpha_negative": ("train.cql_alpha", -1.0),
}
# keys that earlier versions read, which every command now rejects as unknown
REMOVED_KEYS = [key for name, (key, _) in TRAIN_CONFIG_FAULTS.items()
                if name.endswith("_removed")]


def set_cell(line: int, column: int, value: str):
    """Edit of a CSV text that sets one cell (lines count from 1, the header)."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        cells = lines[line - 1].split(",")
        cells[column] = value
        lines[line - 1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return edit


def edit_line(line: int, change):
    """Edit of a text that replaces one line with ``change(line text)``."""
    def edit(text: str) -> str:
        lines = text.splitlines()
        lines[line - 1] = change(lines[line - 1])
        return "\n".join(lines) + "\n"
    return edit


def edit_note(line: int, change):
    """Edit of a notes file that rewrites one note object in place."""
    def rewrite(raw: str) -> str:
        obj = json.loads(raw)
        change(obj)
        return json.dumps(obj)
    return edit_line(line, rewrite)


def edit_json(change):
    """Edit of a JSON file that changes its decoded contents."""
    def edit(text: str) -> str:
        obj = json.loads(text)
        change(obj)
        return json.dumps(obj)
    return edit


def drop_episode_rows(episode_id: str):
    def edit(text: str) -> str:
        return "".join(line + "\n" for line in text.splitlines()
                       if not line.startswith(episode_id + ","))
    return edit


# TINY_SYNTH files (F=6): CSV columns episode_id, step, f0..f5, iv_dose (8),
# vaso_dose (9), done (10), survived (11); line 2 is step 0 of ep000000 and
# so is the first note, since the first frame always has one.
DATA_FILE_FAULTS = {
    # (file, edit of its text, line the error must name or None)
    "dose_inf": ("structured.csv", set_cell(2, 8, "inf"), 2),
    "dose_negative": ("structured.csv", set_cell(2, 9, "-1.0"), 2),
    "feature_nan": ("structured.csv", set_cell(2, 3, "nan"), 2),
    "step_not_integer": ("structured.csv", set_cell(2, 1, "0.5"), 2),
    "step_out_of_range": ("structured.csv", set_cell(2, 1, "1" + "0" * 20), 2),
    "float_malformed": ("structured.csv", set_cell(2, 3, "1.2.3"), 2),
    "cell_count": ("structured.csv", edit_line(2, lambda l: l.rsplit(",", 1)[0]), 2),
    "done_2": ("structured.csv", set_cell(2, 10, "2"), 2),
    "step_duplicate": ("structured.csv", edit_line(2, lambda l: l + "\n" + l), 3),
    "episode_not_in_manifest": ("structured.csv", set_cell(2, 0, "stranger"), 2),
    "manifest_episode_without_rows": ("structured.csv", drop_episode_rows("ep000000"),
                                      None),
    "note_without_episode_id": ("notes.jsonl",
                                edit_note(1, lambda o: o.pop("episode_id")), 1),
    "note_json_array": ("notes.jsonl", edit_line(1, lambda l: "[1, 2]"), 1),
    "note_embedding_not_numeric": ("notes.jsonl", edit_note(
        1, lambda o: o.update(embedding=["a"] * len(o["embedding"]))), 1),
    "note_embedding_nan": ("notes.jsonl", edit_line(
        1, lambda l: re.sub(r"\[[^,]*,", "[NaN,", l, count=1)), 1),
    "note_embedding_length": ("notes.jsonl",
                              edit_note(1, lambda o: o.update(embedding=[1.0])), 1),
    "note_unknown_frame": ("notes.jsonl", edit_note(1, lambda o: o.update(step=999)), 1),
    "manifest_entry_without_id": ("manifest.json",
                                  edit_json(lambda m: m["episodes"][0].pop("id")), None),
    "manifest_n_features_not_integer": ("manifest.json",
                                        edit_json(lambda m: m.update(n_features="six")),
                                        None),
    "manifest_field_missing": ("manifest.json", edit_json(lambda m: m.pop("d_n")), None),
    "manifest_edges_decreasing": ("manifest.json", edit_json(
        lambda m: m["bin_edges"].update(iv=[4.0, 3.0, 2.0, 1.0])), None),
    "manifest_edges_not_numbers": ("manifest.json", edit_json(
        lambda m: m["bin_edges"].update(iv=[str(edge) for edge in m["bin_edges"]["iv"]])),
                                   None),
    "ground_truth_not_json": ("ground_truth.json", lambda t: t[:40], None),
    "ground_truth_lacks_episode": ("ground_truth.json", edit_json(
        lambda g: g["episode_states"].pop("ep000000")), None),
    "ground_truth_absorbing_short": ("ground_truth.json", edit_json(
        lambda g: g["mdp"]["absorbing"].pop()), None),
    "ground_truth_initial_dist_short": ("ground_truth.json", edit_json(
        lambda g: g["mdp"]["initial_dist"].pop()), None),
    "ground_truth_reward_terminal_short": ("ground_truth.json", edit_json(
        lambda g: g["mdp"]["reward_terminal"].pop()), None),
    "ground_truth_terminal_prob_one_entry": ("ground_truth.json", edit_json(
        lambda g: g["mdp"].update(terminal_prob=[0.5])), None),
    "ground_truth_behavior_probs_column_short": ("ground_truth.json", edit_json(
        lambda g: [row.pop() for row in g["behavior_probs"]]), None),
    "ground_truth_episode_states_short": ("ground_truth.json", edit_json(
        lambda g: g["episode_states"]["ep000000"].pop()), None),
    "ground_truth_state_id_beyond_S": ("ground_truth.json", edit_json(
        lambda g: g["episode_states"]["ep000000"].__setitem__(
            0, len(g["mdp"]["absorbing"]))), None),
}
# what the message of each ground-truth fault must name beside the file
GROUND_TRUTH_FAULT_NAMES = {
    "ground_truth_absorbing_short": "absorbing",
    "ground_truth_initial_dist_short": "initial_dist",
    "ground_truth_reward_terminal_short": "reward_terminal",
    "ground_truth_terminal_prob_one_entry": "terminal_prob",
    "ground_truth_behavior_probs_column_short": "behavior_probs",
    "ground_truth_episode_states_short": "'ep000000'",
    "ground_truth_state_id_beyond_S": "state ids must lie in [0, 8)",
}

# (file, edit of its bytes) that leave a data file no longer UTF-8 text
DATA_FILE_BYTE_FAULTS = {
    "structured_trailing_ff": ("structured.csv", lambda data: data + b"\xff"),
    "notes_trailing_ff": ("notes.jsonl", lambda data: data + b"\xff"),
    "manifest_latin1_id": ("manifest.json", lambda data: data.replace(
        b'"ep000000"', '"ep00000\xe9"'.encode("latin-1"), 1)),
}

# extra arguments of each seeded command whose --seed flag must be >= 0
SEED_FLAG_ARGS = {"synth": [], "train": ["--data", "{data}"],
                  "eval": ["--data", "{data}", "--checkpoint", "{checkpoint}"]}
# (file under the run directory, its bytes) that `careql report` must reject
# with exit 3 naming the file; an empty name makes the run directory a file
REPORT_FAULTS = {
    "ope_report_not_json": ("eval/ope_report.json", b'{"estimates": '),
    "ope_report_not_utf8": ("eval/ope_report.json", b'{"estimates": "\xff"}'),
    "ope_report_without_estimates": ("eval/ope_report.json", b'{"n_episodes": 3}'),
    "residuals_without_hist_counts": ("eval/residuals.json", b'{"hist_edges": [0.0, 1.0]}'),
    "run_dir_is_a_file": ("", b"{}"),
    "report_dir_is_a_file": ("report", b""),
}
# (command, modality of the checkpoint, synth keys of the data it is run on,
# the width named): a checkpoint trained on TINY_SYNTH (F=6, d_n=8) and data
# of another width that the model reads
WIDTH_FAULTS = {
    "eval_multimodal_F": ("eval", "multimodal", {"dataset.synth.n_features": 8}, "n_features"),
    "ope_structured_F": ("ope", "structured", {"dataset.synth.n_features": 8}, "n_features"),
    "bdesr_multimodal_F": ("bdesr", "multimodal", {"dataset.synth.n_features": 8}, "n_features"),
    "eval_multimodal_d_n": ("eval", "multimodal", {"dataset.synth.d_n": 4}, "d_n"),
    "eval_notes_d_n": ("eval", "notes", {"dataset.synth.d_n": 4}, "d_n"),
}


def empty_cohort(data: Path) -> None:
    """Rewrite a cohort's files to list no episodes: a header-only
    structured.csv, an empty notes.jsonl and a manifest with ``"episodes": []``."""
    structured = data / "structured.csv"
    structured.write_text(structured.read_text().splitlines(keepends=True)[0])
    (data / "notes.jsonl").write_text("")
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(json.dumps({**manifest, "episodes": []}))
    (data / "ground_truth.json").unlink()


class TestFaultInjection:
    @pytest.mark.parametrize("contents", list(CHECKPOINT_FAULTS.values()),
                             ids=list(CHECKPOINT_FAULTS))
    def test_unloadable_checkpoint_exits_3_naming_it(self, tmp_path, synth_dir,
                                                     capsys, contents):
        checkpoint = tmp_path / "checkpoint.json"
        if contents is not None:
            checkpoint.write_text(contents)
        code = main(["eval", "--config", str(write_config(tmp_path)),
                     "--data", str(synth_dir), "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error:") and str(checkpoint) in err

    @staticmethod
    def eval_edited(tmp_path, data, checkpoint, edit, capsys):
        """Exit code and stderr of `careql eval` on ``checkpoint`` edited by ``edit``."""
        payload = json.loads(checkpoint.read_text())
        edit(payload)
        checkpoint.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["eval", "--config", str(write_config(tmp_path)),
                     "--data", str(data), "--checkpoint", str(checkpoint),
                     "--out", str(tmp_path / "eval")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", list(TRAINED_CHECKPOINT_FAULTS.values()),
                             ids=list(TRAINED_CHECKPOINT_FAULTS))
    def test_edited_checkpoint_exits_3_naming_the_key(self, tmp_path, synth_dir, capsys,
                                                      edit, key):
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, "multimodal")
        code, err = self.eval_edited(tmp_path, synth_dir, checkpoint, edit, capsys)
        assert code == 3, err
        assert err.startswith("data error:") and str(checkpoint) in err and key in err, err
        assert not (tmp_path / "eval" / "ope_report.json").exists()

    @pytest.mark.parametrize("edit, key", list(METADATA_TYPE_FAULTS.values()),
                             ids=list(METADATA_TYPE_FAULTS))
    def test_mistyped_metadata_exits_3_naming_the_key(self, tmp_path, synth_dir, capsys,
                                                      edit, key):
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, "multimodal",
                                           {"train.algorithm": "bcq", "train.trunk_depth": 1})
        code, err = self.eval_edited(tmp_path, synth_dir, checkpoint, edit, capsys)
        assert code == 3, err
        assert err.startswith("data error:") and str(checkpoint) in err and key in err, err
        assert not (tmp_path / "eval" / "ope_report.json").exists()

    # a numpy warning on stderr before the error would be noise: the error names the fault
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("modality, algorithm, edit", list(NON_FINITE_Q_FAULTS.values()),
                             ids=list(NON_FINITE_Q_FAULTS))
    def test_non_finite_q_exits_4_before_writing(self, tmp_path, synth_dir, capsys,
                                                 modality, algorithm, edit):
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, modality,
                                           {"train.algorithm": algorithm})
        code, err = self.eval_edited(tmp_path, synth_dir, checkpoint, edit, capsys)
        assert code == 4, err
        assert err.startswith("numeric failure:") and "non-finite Q" in err, err
        assert not [p for p in (tmp_path / "eval").rglob("*") if p.is_file()]

    def test_zero_logged_behavior_probability_exits_3_naming_the_episode(
            self, tmp_path, synth_dir, capsys):
        # a behaviour policy that only ever takes action 0 gives every other
        # logged action probability 0, which the importance weights cannot use
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, "multimodal")
        path = synth_dir / "ground_truth.json"
        gt = json.loads(path.read_text())
        gt["behavior_probs"] = [[1.0] + [0.0] * (len(row) - 1) for row in gt["behavior_probs"]]
        path.write_text(json.dumps(gt))
        test = ingest(*(synth_dir / name for name in
                        ("structured.csv", "notes.jsonl", "manifest.json"))).split("test").store
        first = test.episode_id[test.episode_index[np.flatnonzero(test.action != 0)[0]]]
        capsys.readouterr()
        code = main(["eval", "--config", str(write_config(tmp_path)), "--data", str(synth_dir),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith(f"data error: episode {first!r}: zero behavior probability"), err

    @pytest.mark.parametrize("value", list(CLIP_PERCENTILE_FAULTS.values()),
                             ids=list(CLIP_PERCENTILE_FAULTS))
    def test_bad_clip_percentile_exits_2_naming_it(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, {"ope.clip_percentile": value})
        code = main(["eval", "--config", str(cfg), "--data", str(tmp_path),
                     "--checkpoint", str(tmp_path / "checkpoint.json"),
                     "--out", str(tmp_path / "eval")])
        assert code == 2
        assert "ope.clip_percentile" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 100, 0.5])
    def test_valid_clip_percentile_accepted(self, tmp_path, value):
        cfg = load_config(write_config(tmp_path, {"ope.clip_percentile": value}))
        assert cfg["ope"]["clip_percentile"] == value

    @pytest.mark.parametrize("key, value", list(TRAIN_CONFIG_FAULTS.values()),
                             ids=list(TRAIN_CONFIG_FAULTS))
    def test_bad_config_value_exits_2_naming_it(self, tmp_path, synth_dir, capsys,
                                                key, value):
        cfg = write_config(tmp_path, {key: value}, name="bad.json")
        code = main(["train", "--config", str(cfg), "--data", str(synth_dir),
                     "--out", str(tmp_path / "train")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and key.split(".")[-1] in err

    @pytest.mark.parametrize("key, value", list(SYNTH_CONFIG_FAULTS.values()),
                             ids=list(SYNTH_CONFIG_FAULTS))
    def test_config_range_checked_by_every_command(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {key: value}, name="bad.json")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {key}: "), err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_2_as_unknown(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path, {key: 1.0}, name="bad.json")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"configuration error: {key}: unknown configuration key"), err

    @pytest.mark.parametrize("command", list(SEED_FLAG_ARGS))
    def test_negative_seed_flag_exits_2_naming_it(self, tmp_path, synth_dir, capsys,
                                                  command):
        cfg = str(write_config(tmp_path, {"train.total_steps": 5}, name="short.json"))
        checkpoint = tmp_path / "train" / "checkpoint.json"
        if command == "eval":
            assert main(["train", "--config", cfg, "--data", str(synth_dir),
                         "--out", str(checkpoint.parent)]) == 0
        args = [a.format(data=synth_dir, checkpoint=checkpoint)
                for a in SEED_FLAG_ARGS[command]]
        capsys.readouterr()
        code = main([command, "--config", cfg, *args, "--seed", "-1",
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error:") and "--seed" in err

    @pytest.mark.parametrize("name, edit, line", list(DATA_FILE_FAULTS.values()),
                             ids=list(DATA_FILE_FAULTS))
    def test_malformed_data_file_exits_3_naming_it(self, synth_dir, capsys, name,
                                                   edit, line):
        path = synth_dir / name
        path.write_text(edit(path.read_text()))
        code = main(["ingest", "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and str(path) in err, err
        if line is not None:
            assert f"line {line}:" in err, err

    @pytest.mark.parametrize("fault", list(GROUND_TRUTH_FAULT_NAMES))
    def test_malformed_ground_truth_names_the_field(self, synth_dir, capsys, fault):
        name, edit, _ = DATA_FILE_FAULTS[fault]
        path = synth_dir / name
        path.write_text(edit(path.read_text()))
        code = main(["ingest", "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert str(path) in err and GROUND_TRUTH_FAULT_NAMES[fault] in err, err

    @pytest.mark.parametrize("name, edit, line", list(DATA_FILE_FAULTS.values()),
                             ids=list(DATA_FILE_FAULTS))
    def test_malformed_data_file_after_a_snapshot_gives_the_same_error(
            self, synth_dir, capsys, name, edit, line):
        # a snapshot of the clean files changes no error of an edited one,
        # whether it is still there or deleted
        assert main(["ingest", "--data", str(synth_dir)]) == 0
        assert (synth_dir / SNAPSHOT_NAME).is_file()
        capsys.readouterr()
        path = synth_dir / name
        path.write_text(edit(path.read_text()))
        outcomes = []
        for _ in range(2):
            code = main(["ingest", "--data", str(synth_dir)])
            outcomes.append((code, capsys.readouterr().err))
            (synth_dir / SNAPSHOT_NAME).unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3 and str(path) in outcomes[0][1]

    @pytest.mark.parametrize("name, edit", list(DATA_FILE_BYTE_FAULTS.values()),
                             ids=list(DATA_FILE_BYTE_FAULTS))
    def test_data_file_not_utf8_exits_3_naming_it(self, synth_dir, capsys, name, edit):
        path = synth_dir / name
        path.write_bytes(edit(path.read_bytes()))
        code = main(["ingest", "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and str(path) in err and "UTF-8" in err, err

    def test_cohort_with_no_episodes_exits_3_naming_the_manifest(self, tmp_path, synth_dir,
                                                                 capsys):
        empty_cohort(synth_dir)
        # synth wrote the snapshot of the files it wrote, which no command replaces
        snapshot = (synth_dir / SNAPSHOT_NAME).read_bytes()
        cfg = str(write_config(tmp_path))
        message = f"data error: manifest {synth_dir / 'manifest.json'}: lists no episodes"
        for command, *args in (["ingest"], ["train", "--out", str(tmp_path / "train")],
                               ["eval", "--checkpoint", str(tmp_path / "checkpoint.json"),
                                "--out", str(tmp_path / "eval")]):
            code = main([command, "--config", cfg, "--data", str(synth_dir), *args])
            err = capsys.readouterr().err
            assert code == 3, (command, err)
            assert err.startswith(message), (command, err)
            assert (synth_dir / SNAPSHOT_NAME).read_bytes() == snapshot

    def test_snapshot_of_a_cohort_with_no_episodes_is_refused(self, synth_dir, capsys,
                                                              monkeypatch):
        # a snapshot that earlier code wrote for such files is read, not
        # parsed, and refused like the files themselves
        empty_cohort(synth_dir)
        paths = [synth_dir / name for name in ("structured.csv", "notes.jsonl", "manifest.json")]
        contents = {key: path.read_bytes()
                    for key, path in zip(("structured", "notes", "manifest"), paths)}
        dataset_mod._write_snapshot(paths[0], dataset_mod._digest(contents.values()),
                                    dataset_mod._parse(paths, dict(contents)))

        def parse(*args):
            raise AssertionError("the snapshot was not read")

        monkeypatch.setattr(dataset_mod, "_parse", parse)
        code = main(["ingest", "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert f"manifest {paths[2]}: lists no episodes" in err, err

    @pytest.mark.parametrize("command", ["ingest", "train"])
    @pytest.mark.parametrize("fault", ["missing", "directory"])
    def test_configured_ground_truth_that_cannot_be_read_exits_3(self, tmp_path, synth_dir,
                                                                 capsys, command, fault):
        path = tmp_path / "nowhere" / "gt.json"
        if fault == "directory":
            path.mkdir(parents=True)
        cfg = str(write_config(tmp_path, {"dataset.files.ground_truth": str(path)}))
        out = [] if command == "ingest" else ["--out", str(tmp_path / "train")]
        code = main([command, "--config", cfg, "--data", str(synth_dir), *out])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and str(path) in err, err

    def test_unreadable_data_file_exits_3_naming_it(self, synth_dir, capsys):
        path = synth_dir / "notes.jsonl"
        path.unlink()
        path.mkdir()
        code = main(["ingest", "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error: cannot read") and str(path) in err, err

    def test_config_not_utf8_exits_2_naming_it(self, tmp_path, synth_dir, capsys):
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes() + b"\xff")
        code = main(["train", "--config", str(cfg), "--data", str(synth_dir),
                     "--out", str(tmp_path / "train")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error:") and str(cfg) in err, err

    @pytest.mark.parametrize("fault", ["directory", "permission"])
    def test_config_that_cannot_be_read_exits_2_naming_it(self, tmp_path, synth_dir, capsys,
                                                          monkeypatch, fault):
        cfg = write_config(tmp_path)
        if fault == "directory":
            cfg.unlink()
            cfg.mkdir()
        else:   # chmod cannot keep a file from a superuser, so the read is refused here
            def refuse(path, *args, **kwargs):
                raise PermissionError(13, "Permission denied", str(path))
            monkeypatch.setattr(Path, "read_text", refuse)
        code = main(["ingest", "--config", str(cfg), "--data", str(synth_dir)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"configuration error: config {cfg}: cannot read ("), err

    @pytest.mark.parametrize("name, contents", list(REPORT_FAULTS.values()),
                             ids=list(REPORT_FAULTS))
    def test_malformed_run_file_exits_3_naming_it(self, tmp_path, capsys, name, contents):
        run_dir = tmp_path / "run"
        path = run_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(contents)
        code = main(["report", "--run-dir", str(run_dir)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and str(path) in err, err

    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_out_naming_a_file_exits_2_naming_it(self, tmp_path, synth_dir, capsys, command):
        out = tmp_path / "taken"
        out.write_text("")
        args = [a.format(data=synth_dir) for a in SEED_FLAG_ARGS[command]]
        code = main([command, "--config", str(write_config(tmp_path)), *args,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error: --out:") and str(out) in err, err
        assert out.read_text() == ""

    @pytest.mark.parametrize("argv", [["ingest", "--data", "d", "--seed", "5"],
                                      ["ingest", "--data", "d", "--out", "o"],
                                      ["ablate", "--seed", "5"]])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        # parsed only, so that a command which took the flag would not run
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_uncertifiable_gap_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dataset.synth.min_gap": 0.9})
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error: could not certify modality gaps "
                              ">= 0.9 after 5 attempts"), err

    def test_out_root_naming_a_file_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "taken"
        root.write_text("")
        monkeypatch.setenv("CAREQL_OUT", str(root))
        code = main(["synth", "--config", str(write_config(tmp_path))])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("configuration error: CAREQL_OUT:") and str(root) in err, err

    @pytest.mark.parametrize("command, modality, synth, width", list(WIDTH_FAULTS.values()),
                             ids=list(WIDTH_FAULTS))
    def test_checkpoint_width_mismatch_exits_3_naming_both(self, tmp_path, synth_dir, capsys,
                                                           command, modality, synth, width):
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, modality)
        cfg = write_config(tmp_path, {**synth, "modality": modality}, name="other.json")
        other = tmp_path / "other"
        assert main(["synth", "--config", str(cfg), "--out", str(other)]) == 0
        capsys.readouterr()
        code = main([command, "--config", str(cfg), "--data", str(other),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and str(checkpoint) in err, err
        assert f"{width} differs" in err and str(other) in err, err

    def test_structured_checkpoint_ignores_the_note_width(self, tmp_path, synth_dir):
        checkpoint = self.short_checkpoint(tmp_path, synth_dir, "structured")
        cfg = write_config(tmp_path, {"dataset.synth.d_n": 4, "modality": "structured",
                                      "ope.n_bootstrap": 5}, name="other.json")
        other = tmp_path / "other"
        assert main(["synth", "--config", str(cfg), "--out", str(other)]) == 0
        assert main(["eval", "--config", str(cfg), "--data", str(other),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]) == 0

    @staticmethod
    def short_checkpoint(tmp_path, data, modality, extra=None):
        cfg = write_config(tmp_path, {"train.total_steps": 5, "modality": modality,
                                      **(extra or {})}, name="short.json")
        out = tmp_path / "train"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        return out / "checkpoint.json"

    def test_cross_eval_cohort_width_mismatch_exits_3_naming_both(self, tmp_path, synth_dir,
                                                                  capsys):
        cfg = write_config(tmp_path, {"dataset.synth.n_features": 8}, name="wide.json")
        wide = tmp_path / "wide"
        assert main(["synth", "--config", str(cfg), "--out", str(wide)]) == 0
        capsys.readouterr()
        code = main(["cross-eval", "--config", str(write_config(tmp_path)),
                     "--train-data", str(synth_dir), "--eval-data", str(wide),
                     "--out", str(tmp_path / "cross")])
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("data error:") and "n_features differs (6 vs 8)" in err, err
        assert str(synth_dir) in err and str(wide) in err, err


class TestSnapshot:
    def chain(self, tmp_path, root: Path, drop_snapshot: bool) -> dict[str, bytes]:
        """synth -> ingest -> train -> eval in ``root``; the bytes of every
        file it writes but the snapshot, keyed by path under ``root``."""
        cfg = str(write_config(tmp_path, {"train.total_steps": 20, "ope.n_bootstrap": 5}))
        data, runs = root / "data", root / "runs"
        steps = [["synth", "--config", cfg, "--out", str(data)],
                 ["ingest", "--config", cfg, "--data", str(data)],
                 ["train", "--config", cfg, "--data", str(data), "--out", str(runs / "train")],
                 ["eval", "--config", cfg, "--data", str(data), "--checkpoint",
                  str(runs / "train" / "checkpoint.json"), "--out", str(runs / "eval")]]
        for argv in steps:
            if drop_snapshot:
                (data / SNAPSHOT_NAME).unlink(missing_ok=True)
            assert main(argv) == 0
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != SNAPSHOT_NAME}

    def test_a_chain_parses_no_text_and_writes_the_same_files(self, tmp_path, capsys,
                                                              monkeypatch):
        parses = []
        read = dataset_mod._read_structured

        def spy(*args, **kwargs):
            parses.append(args[0])
            return read(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "_read_structured", spy)
        root = tmp_path / "chain"
        kept = self.chain(tmp_path, root, drop_snapshot=False)
        kept_out = capsys.readouterr()
        # synth's export wrote the snapshot that each later step reads
        assert len(parses) == 0 and (root / "data" / SNAPSHOT_NAME).is_file()
        shutil.rmtree(root)
        parses.clear()
        dropped = self.chain(tmp_path, root, drop_snapshot=True)
        assert len(parses) == 3
        assert capsys.readouterr() == kept_out
        assert dropped.keys() == kept.keys()
        for name in kept:
            assert dropped[name] == kept[name], name

    def test_ingest_exits_0_when_the_snapshot_cannot_be_written(self, synth_dir, capsys,
                                                                 monkeypatch):
        assert main(["ingest", "--data", str(synth_dir)]) == 0
        expected = capsys.readouterr()
        # synth wrote a snapshot; without it, ingest parses and fails to write one
        (synth_dir / SNAPSHOT_NAME).unlink()
        files = sorted(p.name for p in synth_dir.iterdir())

        def refuse(*args, **kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["ingest", "--data", str(synth_dir)]) == 0
        assert capsys.readouterr() == expected
        assert sorted(p.name for p in synth_dir.iterdir()) == files


class TestBlasThreads:
    # numpy reads the BLAS thread counts when it is first imported, which for
    # the console script is when it imports the package
    @pytest.mark.parametrize("preset, expected", [(None, "1 1"), ("3", "3 1")])
    def test_importing_the_package_sets_one_thread_unless_set(self, preset, expected):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        env = {key: value for key, value in os.environ.items() if key not in names}
        env["PYTHONPATH"] = str(Path(careql.__file__).resolve().parents[1])
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        script = ("import os, sys; import careql; assert 'numpy' in sys.modules; "
                  "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == expected
