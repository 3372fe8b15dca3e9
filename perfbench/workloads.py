"""The benchmark's three closed-loop workloads.

Each workload is built from a seed (its set-up), then runs one operation at
a time, each starting when the previous one returned: one client, one
thread. ``run`` is the timed operation; ``check`` validates its outputs
outside the timed region and returns a list of problems (empty when the
operation is correct). careql is called through its modules (``trainer.
train``, not an imported name) so that traced runs see every call.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import io
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from careql import bdesr, cli, dataset, ope, synthgym, trainer
from careql.encoder import EncoderConfig, NoteStrategy

GAMMA = 0.95
MAX_LEN = 18
EPS_SOFT = 0.01
# Criterion 4 accepts tabular OPERA within 2 SE of the exact value, which a
# correct estimator misses on about one seed in twenty; a per-run gate that
# must never fire on correct code needs a wider multiple.
OPE_SE_GATE = 4.0


def gap_generator_config() -> synthgym.GeneratorConfig:
    """The acceptance suite's gap family: 5 severities x 3 contexts, F=12, d_n=16."""
    return synthgym.GeneratorConfig(n_severity=5, n_context=3, n_features=12,
                                    d_n=16, gamma=GAMMA, min_gap=0.08)


def acceptance_encoder(n_features: int, d_n: int) -> EncoderConfig:
    return EncoderConfig(n_features=n_features, d_n=d_n, d=16, d_k=8, depth=1,
                         strategy=NoteStrategy("context"), use_attention=True)


def acceptance_train_config(seed: int, total_steps: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(total_steps=total_steps, batch_size=256,
                               learning_rate=1e-3, gamma=GAMMA, cql_alpha=2.0,
                               bcq_threshold=0.3, target_update=250, seed=seed,
                               algorithm="cql", hidden_width=64, trunk_depth=3,
                               eval_interval=1000)


def make_task(seed: int, n_episodes: int):
    """Gap-family MDP, its behaviour policy and a normalized logged dataset."""
    mdp = synthgym.generate_mdp(gap_generator_config(), seed=seed)
    behavior = synthgym.near_clinician_behavior(mdp, 0.3)
    data = dataset.normalize(synthgym.rollout(mdp, behavior, n_episodes=n_episodes,
                                              max_len=MAX_LEN, seed=seed + 1))
    return mdp, behavior, data


def params_digest(policy) -> str:
    h = hashlib.sha256()
    for key, p in sorted(policy.all_params().items()):
        h.update(key.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def policy_regret(mdp, policy, canon) -> float:
    """Optimal value minus the exact value of the policy's greedy action table."""
    actions = policy.action_table(canon)
    return mdp.oracle["value_optimal"] - synthgym.exact_policy_value(mdp, actions,
                                                                   gamma=GAMMA)


class TrainCqlMultimodal:
    """Repeated ``trainer.train`` on the gap family at the acceptance config.

    Almost all time is the netcore tape, the encoder and the trainer loop;
    the per-episode evaluation paths are bypassed.
    """

    name = "train_cql_multimodal"
    N_EPISODES = 2000
    STEPS = 200
    SPANS = frozenset({"trainer.train", "trainer.build_table", "trainer.q_values",
                       "trainer.loss", "netcore.backward", "netcore.adam_step",
                       "netcore.qnet_forward", "encoder.forward",
                       "encoder.note_inputs"})

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.mdp, _, self.data = make_task(seed, self.N_EPISODES)
        self.enc = acceptance_encoder(self.mdp.n_features, self.mdp.d_n)
        self.canon = synthgym.canonical_inputs(self.mdp, self.data.feature_stats)
        self.regrets: list[float] = []
        trainer.train(self.data, acceptance_train_config(seed, 10), self.enc)

    def op_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def run(self, i: int):
        return trainer.train(self.data,
                             acceptance_train_config(self.op_seed(i), self.STEPS),
                             self.enc)

    def check(self, i: int, result) -> list[str]:
        problems = []
        losses = [rec["loss"] for rec in result.log]
        if not losses or not np.all(np.isfinite(losses)):
            problems.append(f"non-finite or missing losses {losses}")
        regret = policy_regret(self.mdp, result.policy, self.canon)
        if not regret >= -1e-9:
            problems.append(f"regret {regret} below zero: the oracle is not optimal")
        self.regrets.append(regret)
        if i == 0:
            again = trainer.train(self.data,
                                  acceptance_train_config(self.op_seed(i), self.STEPS),
                                  self.enc)
            if params_digest(again.policy) != params_digest(result.policy):
                problems.append("same seed trained to different parameters")
        return problems

    def quality(self) -> dict[str, float]:
        return {"trainer.policy_regret": float(np.mean(self.regrets)) if self.regrets else 0.0,
                "ope.tabular_abs_err": 0.0, "ope.tabular_err_over_se": 0.0}


class EvalOpeNetwork:
    """Repeated evaluation of one checkpoint on a held-out set.

    One pass: fitted behaviour, network-mode OPE (FQE, bootstrap, OPERA),
    BDESR, Bellman residuals, and tabular-mode OPE of the policy's action
    table. The work is per-episode loops and one-episode forwards that
    never call backward.
    """

    name = "eval_ope_network"
    N_TRAIN = 1000
    N_HELD = 500
    CHECKPOINT_STEPS = 200
    SPANS = frozenset({"ope.fit_behavior", "ope.evaluate", "ope.fqe_network",
                       "ope.fqe_tabular", "ope.opera", "bdesr.report",
                       "trainer.residuals", "trainer.build_table",
                       "trainer.policy_episode", "trainer.q_values",
                       "netcore.qnet_forward", "netcore.backward",
                       "netcore.adam_step", "encoder.forward",
                       "encoder.note_inputs"})

    def __init__(self, seed: int, work: Path):
        mdp, behavior, train_data = make_task(seed, self.N_TRAIN)
        enc = acceptance_encoder(mdp.n_features, mdp.d_n)
        trained = trainer.train(train_data,
                                acceptance_train_config(seed, self.CHECKPOINT_STEPS), enc)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "checkpoint.json"
        trained.policy.save(path)
        self.policy = trainer.LearnedPolicy.load(path)
        held = synthgym.rollout(mdp, behavior, n_episodes=self.N_HELD,
                                max_len=MAX_LEN, seed=seed + 2, id_prefix="held")
        self.held = dataset.normalize(held, stats=train_data.feature_stats)
        self.mdp = mdp
        canon = synthgym.canonical_inputs(mdp, train_data.feature_stats)
        self.regret = policy_regret(mdp, self.policy, canon)
        self.table = synthgym.eps_soft_matrix(self.policy.action_table(canon),
                                              mdp.n_actions, EPS_SOFT)
        self.exact_value = synthgym.exact_policy_value(mdp, self.table, gamma=GAMMA,
                                                       horizon=MAX_LEN)
        returns = [ep.discounted_return(GAMMA) for ep in self.held.episodes]
        self.return_range = (min(returns), max(returns))
        self.net_cfg = ope.OpeConfig(gamma=GAMMA, n_bootstrap=200, seed=seed,
                                     fqe=ope.FqeNetConfig(iterations=5,
                                                          steps_per_iteration=40,
                                                          seed=seed))
        self.tab_cfg = ope.OpeConfig(gamma=GAMMA, n_bootstrap=200, seed=seed)
        self.behavior_cfg = ope.BehaviorFitConfig(steps=200, seed=seed)
        self.first: dict | None = None
        self.abs_err = self.err_over_se = 0.0
        self._pass(replace(self.held, episodes=self.held.episodes[:50]))

    def _pass(self, data) -> dict:
        behavior = ope.fit_behavior(data, cfg=self.behavior_cfg)
        network = ope.evaluate_policy(data, ope.soften(self.policy, EPS_SOFT),
                                      behavior, self.net_cfg)
        scores = bdesr.bdesr_report(data, self.policy)
        residuals = trainer.bellman_residuals(self.policy, data, GAMMA)
        tabular = ope.evaluate_policy(data, ope.TabularPolicy(self.table),
                                      ope.LoggedBehavior(), self.tab_cfg,
                                      policy_table=self.table,
                                      n_states=self.mdp.n_states)
        return {"network": network.to_dict(), "tabular": tabular.to_dict(),
                "bdesr": [scores["low_bdesr"], scores["high_bdesr"]],
                "residual_mean": residuals.mean}

    def run(self, i: int) -> dict:
        return self._pass(self.held)

    def check(self, i: int, out: dict) -> list[str]:
        problems = []
        lo, hi = self.return_range
        for mode in ("network", "tabular"):
            report = out[mode]
            wis = report["estimates"]["wis"]
            if not lo - 1e-12 <= wis <= hi + 1e-12:
                problems.append(f"{mode} WIS {wis} outside logged returns [{lo}, {hi}]")
            weights = np.array(list(report["opera_weights"].values()))
            if (weights < -1e-12).any() or abs(weights.sum() - 1.0) > 1e-9:
                problems.append(f"{mode} OPERA weights off the simplex: {weights}")
        opera, se = out["tabular"]["estimates"]["opera"], out["tabular"]["standard_errors"]["opera"]
        self.abs_err = abs(opera - self.exact_value)
        self.err_over_se = self.abs_err / se
        if not self.abs_err <= OPE_SE_GATE * se:
            problems.append(f"tabular OPERA {opera} is {self.err_over_se:.2f} SE "
                            f"from the exact value {self.exact_value}")
        if self.first is None:
            self.first = out
        elif out != self.first:
            problems.append("evaluation of the same checkpoint changed between passes")
        return problems

    def quality(self) -> dict[str, float]:
        return {"trainer.policy_regret": self.regret, "ope.tabular_abs_err": self.abs_err,
                "ope.tabular_err_over_se": self.err_over_se}


def write_pipeline_config(path: Path, seed: int, n_episodes: int) -> Path:
    """CLI config: F=42, d_n=64 synthetic data and 100 steps of structured BCQ."""
    cfg = {
        "dataset": {"synth": {"n_features": 42, "d_n": 64, "n_episodes": n_episodes,
                              "max_len": MAX_LEN, "seed": seed,
                              "split_fractions": [0.8, 0.1, 0.1]}},
        "modality": "structured",
        "train": {"algorithm": "bcq", "total_steps": 100, "learning_rate": 1e-3,
                  "gamma": GAMMA, "target_update": 50, "hidden_width": 64,
                  "trunk_depth": 3, "eval_interval": 50},
        "ope": {"gamma": GAMMA, "n_bootstrap": 100, "fqe_iterations": 4,
                "fqe_steps": 40},
        "seed": seed,
    }
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


class PipelineCli:
    """``synth -> ingest -> train -> eval -> report`` through ``cli.main``.

    A file-backed synthetic dataset (F=42, d_n=64) and short structured-only
    BCQ: writes and reads of data files and checkpoints sit beside training
    and evaluation, and the encoder is bypassed.
    """

    name = "pipeline_cli"
    N_EPISODES = 1000
    FILES = ("structured.csv", "notes.jsonl", "manifest.json")
    WARM_UP_EPISODES = 100
    SPANS = frozenset({"cli.synth", "cli.ingest", "cli.train", "cli.eval",
                       "cli.report", "dataset.ingest", "dataset.export",
                       "dataset.normalize", "synthgym.generate_mdp",
                       "synthgym.rollout", "synthgym.ground_truth_io",
                       "netcore.checkpoint_io", "trainer.train", "ope.evaluate",
                       "ope.fqe_network", "bdesr.report", "trainer.residuals"})

    def __init__(self, seed: int, work: Path):
        self.work = work
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        self.config = write_pipeline_config(work / "config.json", seed, self.N_EPISODES)
        self.first: dict[str, str] | None = None
        self.chain(write_pipeline_config(work / "warm_up.json", seed, self.WARM_UP_EPISODES),
                   work / "warm_up")
        shutil.rmtree(work / "warm_up")

    @staticmethod
    def chain(config: Path, out: Path) -> list[int]:
        data, runs = out / "data", out / "runs"
        steps = [
            ["synth", "--config", str(config), "--out", str(data)],
            ["ingest", "--config", str(config), "--data", str(data)],
            ["train", "--config", str(config), "--data", str(data),
             "--out", str(runs / "train")],
            ["eval", "--config", str(config), "--data", str(data),
             "--checkpoint", str(runs / "train" / "checkpoint.json"),
             "--out", str(runs / "eval")],
            ["report", "--run-dir", str(runs)],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes

    def run(self, i: int) -> list[int]:
        return self.chain(self.config, self.work / f"op{i}")

    def check(self, i: int, codes: list[int]) -> list[str]:
        out = self.work / f"op{i}"
        try:
            return self._check(out, codes)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, codes: list[int]) -> list[str]:
        if codes != [0] * 5:
            return [f"exit codes {codes}"]
        data, runs = out / "data", out / "runs"
        produced = [data / name for name in self.FILES] + [
            data / "resolved_config.json", runs / "train" / "resolved_config.json",
            runs / "eval" / "resolved_config.json", runs / "eval" / "ope_report.json",
            runs / "report" / "summary.csv"]
        missing = [str(p.relative_to(out)) for p in produced if not p.is_file()]
        if missing:
            return [f"missing {missing}"]
        current = {path.name: file_digest(path)
                   for path in [data / name for name in self.FILES]
                   + [runs / "eval" / "ope_report.json"]}
        if self.first is not None:
            return [f"{name} differs from the first chain's"
                    for name in current if current[name] != self.first[name]]
        # every later chain must reproduce these bytes, so one round trip
        # checks them all
        self.first = current
        dataset.export(dataset.ingest(*(data / name for name in self.FILES)),
                       out / "reexport")
        return [f"export(ingest({name})) differs from what synth wrote"
                for name in self.FILES
                if not filecmp.cmp(data / name, out / "reexport" / name, shallow=False)]

    def quality(self) -> dict[str, float]:
        return {"trainer.policy_regret": 0.0, "ope.tabular_abs_err": 0.0,
                "ope.tabular_err_over_se": 0.0}


WORKLOADS = {w.name: w for w in (TrainCqlMultimodal, EvalOpeNetwork, PipelineCli)}
