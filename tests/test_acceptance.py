"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each criterion prints a [criterion NN] PASS line with its measured margins
(visible with -s, or in the captured output on failure). The shared trained
families are session-scoped fixtures so the whole suite stays within its
runtime budget.
"""

import json
import sys

import numpy as np
import pytest

from careql.bdesr import bdesr_report
from careql.cli import main as cli_main
from careql.dataset import N_ACTIONS, export, ingest, normalize
from careql.encoder import EncoderConfig, NoteStrategy, StateEncoder
from careql.netcore import DuelingQNetwork, Tensor, collect_params, gradient_check
from careql.ope import (
    LoggedBehavior,
    OpeConfig,
    TabularPolicy,
    eval_batch,
    evaluate_policy,
    fqe_tabular,
)
from careql.synthgym import (
    GeneratorConfig,
    canonical_inputs,
    eps_soft_matrix,
    exact_policy_value,
    generate_mdp,
    near_clinician_behavior,
    rollout,
)
from careql.trainer import (
    TrainConfig,
    bcq_allowed_mask,
    bellman_residuals,
    cql_loss,
    dqn_loss,
    train,
)

MAX_LEN = 18
GAMMA = 0.95


def report_pass(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS - {message}", file=sys.stderr)


def recovery_generator_config():
    # 5 latent severity states, notes uninformative (single context)
    return GeneratorConfig(n_severity=5, n_context=1, n_features=12, d_n=8,
                           gamma=GAMMA, min_gap=0.0)


def gap_generator_config():
    # severity x context factors; both modalities required for optimality
    return GeneratorConfig(n_severity=5, n_context=3, n_features=12, d_n=16,
                           gamma=GAMMA, min_gap=0.08)


def encoder_config(n_features, d_n):
    return EncoderConfig(n_features=n_features, d_n=d_n, d=16, d_k=8, depth=1,
                         strategy=NoteStrategy("context"), use_attention=True)


def train_config(seed, algorithm="cql", alpha=2.0, total_steps=4000):
    return TrainConfig(total_steps=total_steps, batch_size=256,
                       learning_rate=1e-3, gamma=GAMMA, cql_alpha=alpha,
                       bcq_threshold=0.3, target_update=250, seed=seed,
                       algorithm=algorithm, hidden_width=64, trunk_depth=3,
                       eval_interval=1000)


@pytest.fixture(scope="session")
def recovery_family():
    """Five seeds of the 5-state task with CQL policies (criteria 3, 4, 7)."""
    family = []
    for seed in range(5):
        mdp = generate_mdp(recovery_generator_config(), seed=seed)
        behavior = near_clinician_behavior(mdp, 0.3)
        dataset = normalize(rollout(mdp, behavior, n_episodes=10_000,
                                    max_len=MAX_LEN, seed=seed + 100))
        enc = encoder_config(mdp.n_features, mdp.d_n)
        result = train(dataset, train_config(seed), enc)
        family.append({
            "seed": seed, "mdp": mdp, "behavior": behavior, "dataset": dataset,
            "canon": canonical_inputs(mdp, dataset.feature_stats),
            "cql": result.policy,
        })
        print(f"  [setup] recovery seed {seed} trained", file=sys.stderr)
    return family


@pytest.fixture(scope="session")
def scarce_family():
    """Five seeds at 1500 episodes with CQL and DQN policies (criterion 6)."""
    family = []
    for seed in range(5):
        mdp = generate_mdp(recovery_generator_config(), seed=seed)
        behavior = near_clinician_behavior(mdp, 0.3)
        dataset = normalize(rollout(mdp, behavior, n_episodes=1500,
                                    max_len=MAX_LEN, seed=seed + 400))
        enc = encoder_config(mdp.n_features, mdp.d_n)
        cql_policy = train(dataset, train_config(seed, "cql", 2.0, 3000), enc).policy
        dqn_policy = train(dataset, train_config(seed, "dqn", 0.0, 3000), enc).policy
        family.append({"seed": seed, "dataset": dataset,
                       "cql": cql_policy, "dqn": dqn_policy})
        print(f"  [setup] scarce seed {seed} trained", file=sys.stderr)
    return family


@pytest.fixture(scope="session")
def gap_family():
    """Multimodal vs unimodal models on the latent-factor family (criterion 5)."""
    family = []
    for seed in range(5):
        mdp = generate_mdp(gap_generator_config(), seed=seed)
        behavior = near_clinician_behavior(mdp, 0.3)
        dataset = normalize(rollout(mdp, behavior, n_episodes=10_000,
                                    max_len=MAX_LEN, seed=seed + 200))
        enc = encoder_config(mdp.n_features, mdp.d_n)
        canon = canonical_inputs(mdp, dataset.feature_stats)
        values = {}
        for modality in ("multimodal", "structured", "notes"):
            policy = train(dataset, train_config(seed), enc,
                           modality=modality).policy
            actions = policy.action_table(canon)
            values[modality] = exact_policy_value(mdp, actions, gamma=GAMMA)
        family.append({"seed": seed, "mdp": mdp, "values": values})
        print(f"  [setup] gap seed {seed}: {values}", file=sys.stderr)
    return family


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness (<= 1e-4 relative, 10 seeds)
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    worst = {"dense": 0.0, "structured_encoder": 0.0, "gated_fusion": 0.0,
             "cross_attention": 0.0, "composite": 0.0}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        enc_cfg = EncoderConfig(n_features=5, d_n=4, d=6, d_k=3, depth=2,
                                strategy=NoteStrategy("context"),
                                use_attention=True)
        enc = StateEncoder(enc_cfg, rng)
        qnet = DuelingQNetwork(enc_cfg.state_dim, rng, width=8, depth=3,
                               n_actions=N_ACTIONS)
        structured = rng.normal(size=(4, 5))
        f_c = rng.normal(size=(4, 4))
        f_e = rng.normal(size=(4, 4))
        actions = rng.integers(0, N_ACTIONS, size=4)
        targets = rng.normal(size=4)

        worst["dense"] = max(worst["dense"], gradient_check(
            lambda: enc.note_proj(Tensor(f_e)).square().mean(),
            enc.note_proj.params()))
        worst["structured_encoder"] = max(worst["structured_encoder"],
                                          gradient_check(
            lambda: enc.structured(Tensor(structured)).square().mean(),
            enc.structured.params()))
        worst["gated_fusion"] = max(worst["gated_fusion"], gradient_check(
            lambda: enc.gate(enc.note_proj(Tensor(f_c)),
                             enc.note_proj(Tensor(f_e))).square().mean(),
            enc.gate.params()))
        worst["cross_attention"] = max(worst["cross_attention"], gradient_check(
            lambda: enc.attention(enc.note_proj(Tensor(f_e)),
                                  enc.structured(Tensor(structured))
                                  ).square().mean(),
            enc.attention.params()))

        def composite_loss():
            q = qnet(enc.forward(structured, f_c, f_e))
            loss, _ = cql_loss(q, actions, targets, alpha=2.0)
            return loss

        worst["composite"] = max(worst["composite"], gradient_check(
            composite_loss, collect_params(enc, qnet)))
    for name, err in worst.items():
        assert err <= 1e-4, f"{name}: relative error {err:.3e} exceeds 1e-4"
    report_pass(1, "analytic vs central differences over 10 seeds, worst "
                   + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# Criterion 2: CQL(alpha=0) == DQN loss to 1e-12 on 100 random batches
# ---------------------------------------------------------------------------


def test_criterion_02_cql_reduction():
    rng = np.random.default_rng(7)
    net = DuelingQNetwork(6, rng, width=12, depth=2, n_actions=N_ACTIONS)
    worst = 0.0
    for _ in range(100):
        states = rng.normal(size=(32, 6))
        actions = rng.integers(0, N_ACTIONS, size=32)
        targets = rng.normal(size=32)
        q = net(Tensor(states))
        a, _ = cql_loss(q, actions, targets, alpha=0.0)
        b, _ = dqn_loss(net(Tensor(states)), actions, targets)
        worst = max(worst, abs(a.item() - b.item()))
    assert worst <= 1e-12
    report_pass(2, f"worst |cql(alpha=0) - dqn| = {worst:.1e} over 100 batches")


# ---------------------------------------------------------------------------
# Criterion 3: CQL recovers the DP-optimal policy within 0.05 (3 of 3 seeds)
# ---------------------------------------------------------------------------


def test_criterion_03_oracle_policy_recovery(recovery_family):
    gaps = []
    for entry in recovery_family[:3]:
        actions = entry["cql"].action_table(entry["canon"])
        learned = exact_policy_value(entry["mdp"], actions, gamma=GAMMA)
        optimal = entry["mdp"].oracle["value_optimal"]
        gaps.append(optimal - learned)
        assert learned >= optimal - 0.05, \
            f"seed {entry['seed']}: learned {learned:.4f} vs optimal {optimal:.4f}"
    report_pass(3, "value gaps to DP optimum: "
                   + ", ".join(f"{g:.4f}" for g in gaps) + " (tol 0.05, 3/3)")


# ---------------------------------------------------------------------------
# Criterion 4: OPE vs the DP oracle on 1e4 episodes
# ---------------------------------------------------------------------------


def empirical_model_dp_value(episodes, pi, gamma, n_states):
    """Independent linear solve of the empirical Bellman system."""
    counts = np.zeros((n_states, N_ACTIONS))
    r_sum = np.zeros((n_states, N_ACTIONS))
    flow = np.zeros((n_states, N_ACTIONS, n_states))
    for ep in episodes:
        for tr in ep.transitions:
            s, a = tr.state_id, tr.action.flat
            counts[s, a] += 1.0
            r_sum[s, a] += tr.reward
            if not tr.done:
                flow[s, a, tr.next_state_id] += 1.0
    safe = np.maximum(counts, 1.0)
    seen = counts > 0
    c = (pi * np.where(seen, r_sum / safe, 0.0)).sum(axis=1)
    M = gamma * np.einsum("sa,sat->st", pi * np.where(seen, 1.0 / safe, 0.0),
                          flow)
    v = np.linalg.solve(np.eye(n_states) - M, c)
    return float(np.mean([v[ep.transitions[0].state_id] for ep in episodes]))


def test_criterion_04_ope_oracle_accuracy(recovery_family):
    entry = recovery_family[0]
    mdp, dataset = entry["mdp"], entry["dataset"]
    target = TabularPolicy(eps_soft_matrix(mdp.optimal_action, N_ACTIONS,
                                           eps=0.05))
    oracle = exact_policy_value(mdp, target.probs, gamma=GAMMA, horizon=MAX_LEN)

    # tabular FQE against an independent DP linear solve of the same
    # empirical model
    fqe_result = fqe_tabular(eval_batch(dataset, target), target.probs, GAMMA)
    dp_same_model = empirical_model_dp_value(dataset.episodes, target.probs,
                                             GAMMA, mdp.n_states)
    fqe_gap = abs(fqe_result.estimate - dp_same_model)
    assert fqe_gap <= 1e-6, f"tabular FQE vs empirical DP: {fqe_gap:.2e}"

    report = evaluate_policy(dataset, target, LoggedBehavior(),
                             OpeConfig(gamma=GAMMA, n_bootstrap=200, seed=0),
                             policy_table=target.probs, n_states=mdp.n_states)
    assert report.fqe_mode == "tabular"
    margins = {}
    for name, bound in (("wis", 3.0), ("dr", 3.0), ("opera", 2.0)):
        err = abs(getattr(report, name) - oracle)
        se = report.standard_errors[name]
        margins[name] = err / se
        assert err <= bound * se, \
            f"{name}: |{getattr(report, name):.4f} - {oracle:.4f}| " \
            f"= {err:.4f} > {bound} x SE ({se:.4f})"
    weights = np.array(list(report.opera_weights.values()))
    assert np.all(weights >= -1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    # sanity at Monte-Carlo scale against the true-model value
    assert abs(fqe_result.estimate - oracle) < 0.05
    report_pass(4, f"fqe-vs-empirical-DP {fqe_gap:.1e}; err/SE "
                   + ", ".join(f"{k}={v:.2f}" for k, v in margins.items())
                   + "; opera weights convex")


# ---------------------------------------------------------------------------
# Criterion 5: multimodal beats both unimodal policies (>= 4/5 seeds)
# ---------------------------------------------------------------------------


def test_criterion_05_multimodal_advantage(gap_family):
    wins = 0
    trained_gaps = []
    deltas = []
    for entry in gap_family:
        v = entry["values"]
        oracle = entry["mdp"].oracle
        delta = min(oracle["gap_structured_only"], oracle["gap_note_only"])
        deltas.append(delta)
        best_unimodal = max(v["structured"], v["notes"])
        trained_gaps.append(v["multimodal"] - best_unimodal)
        if v["multimodal"] > v["structured"] and v["multimodal"] > v["notes"]:
            wins += 1
    mean_gap = float(np.mean(trained_gaps))
    mean_delta = float(np.mean(deltas))
    assert wins >= 4, f"multimodal won only {wins}/5 seeds"
    assert mean_gap >= mean_delta / 2.0, \
        f"mean trained gap {mean_gap:.4f} < certified delta/2 = {mean_delta / 2:.4f}"
    report_pass(5, f"{wins}/5 seeds, mean trained gap {mean_gap:.4f} vs "
                   f"required {mean_delta / 2:.4f}")


# ---------------------------------------------------------------------------
# Criterion 6: CQL mean Bellman residual <= DQN's (5 of 5 seeds)
# ---------------------------------------------------------------------------


def test_criterion_06_overestimation_reduction(scarce_family):
    pairs = []
    for entry in scarce_family:
        r_cql = bellman_residuals(entry["cql"], entry["dataset"], GAMMA).mean
        r_dqn = bellman_residuals(entry["dqn"], entry["dataset"], GAMMA).mean
        pairs.append((entry["seed"], r_cql, r_dqn))
        assert r_cql <= r_dqn, \
            f"seed {entry['seed']}: cql {r_cql:+.4f} > dqn {r_dqn:+.4f}"
    report_pass(6, "mean residuals (cql vs dqn): "
                   + ", ".join(f"s{s}: {c:+.3f}<={d:+.3f}" for s, c, d in pairs))


# ---------------------------------------------------------------------------
# Criterion 7: low-discrepancy cohort survives at least as often (>= 4/5)
# ---------------------------------------------------------------------------


def test_criterion_07_bdesr_direction(recovery_family):
    wins = 0
    rates = []
    for entry in recovery_family:
        rep = bdesr_report(entry["dataset"], entry["cql"], alpha=0.5, beta=0.5,
                           p=20.0)
        rates.append((rep["low_bdesr"], rep["high_bdesr"]))
        if rep["low_bdesr"] >= rep["high_bdesr"]:
            wins += 1
    assert wins >= 4, f"low >= high in only {wins}/5 seeds: {rates}"
    report_pass(7, f"{wins}/5 seeds at p=20; (low, high) rates: "
                   + ", ".join(f"({lo:.3f}, {hi:.3f})" for lo, hi in rates))


# ---------------------------------------------------------------------------
# Criterion 8: ablation plumbing emits the exact variant sets
# ---------------------------------------------------------------------------


def test_criterion_08_ablation_plumbing(tmp_path):
    cfg = {
        "dataset": {"synth": {"n_severity": 3, "n_context": 2, "n_features": 6,
                              "d_n": 8, "n_episodes": 80, "max_len": 8,
                              "min_gap": 0.0, "seed": 0,
                              "split_fractions": [1.0, 0.0, 0.0]}},
        "encoder": {"d": 8, "d_k": 4, "depth": 1},
        "train": {"total_steps": 30, "batch_size": 32, "hidden_width": 16,
                  "trunk_depth": 2, "eval_interval": 10, "target_update": 10,
                  "learning_rate": 1e-3},
        "ope": {"n_bootstrap": 8, "fqe_iterations": 2, "fqe_steps": 8,
                "fqe_width": 8},
        "seeds": [0, 1],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "ablate"
    assert cli_main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "ablation.json").read_text())
    rows = payload["rows"]
    by_section = {}
    for row in rows:
        by_section.setdefault(row["section"], []).append(row["variant"])
    assert by_section["components"] == ["base", "+attention", "+attention+gate"]
    assert by_section["strategies"] == ["raw", "impute", "stack", "context"]
    assert by_section["windows"] == ["W=3", "W=5", "W=7"]
    assert payload["seeds"] == [0, 1]
    for row in rows:
        for metric in ("opera", "dr", "fqe", "wis"):
            cell = row["metrics"][metric]
            assert set(cell) == {"mean", "std"}
            assert np.isfinite(cell["mean"]) and np.isfinite(cell["std"])
    report_pass(8, f"{len(rows)} variant rows with mean/std cells over 2 seeds")


# ---------------------------------------------------------------------------
# Criterion 9: bit-for-bit determinism and ingest/export round-trip
# ---------------------------------------------------------------------------


def test_criterion_09_determinism_and_round_trip(tmp_path):
    cfg = {
        "dataset": {"synth": {"n_severity": 3, "n_context": 2, "n_features": 6,
                              "d_n": 8, "n_episodes": 100, "max_len": 10,
                              "min_gap": 0.0, "seed": 3,
                              "split_fractions": [1.0, 0.0, 0.0]}},
        "encoder": {"d": 8, "d_k": 4, "depth": 1},
        "train": {"total_steps": 60, "batch_size": 32, "hidden_width": 16,
                  "trunk_depth": 2, "eval_interval": 20, "target_update": 20,
                  "learning_rate": 1e-3},
        "ope": {"n_bootstrap": 10, "fqe_iterations": 2, "fqe_steps": 8,
                "fqe_width": 8},
        "seeds": [0],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    data_a, data_b = tmp_path / "da", tmp_path / "db"
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data_a)]) == 0
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data_b)]) == 0
    synth_files = ["structured.csv", "notes.jsonl", "manifest.json",
                   "ground_truth.json", "resolved_config.json"]
    for name in synth_files:
        assert (data_a / name).read_bytes() == (data_b / name).read_bytes(), name

    run_a, run_b = tmp_path / "ra", tmp_path / "rb"
    for run in (run_a, run_b):
        assert cli_main(["train", "--config", str(cfg_path), "--data",
                         str(data_a), "--out", str(run)]) == 0
    for name in ("checkpoint.json", "train_log.jsonl", "resolved_config.json"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name

    # ingest(export(x)) == x byte-for-byte on the canonical files
    loaded = ingest(data_a / "structured.csv", data_a / "notes.jsonl",
                    data_a / "manifest.json")
    re_exported = export(loaded, tmp_path / "rt")
    for name, path in re_exported.items():
        original = data_a / path.name
        assert path.read_bytes() == original.read_bytes(), name
    report_pass(9, f"{len(synth_files)} synth files, 3 train artifacts, and the "
                   f"export round-trip are bit-identical")


# ---------------------------------------------------------------------------
# Criterion 10: BCQ constraint never admits a below-threshold action
# ---------------------------------------------------------------------------


def test_criterion_10_bcq_constraint():
    rng = np.random.default_rng(5)
    n = 100_000
    tau = 0.3
    q = rng.normal(size=(n, N_ACTIONS))
    probs = rng.dirichlet(np.full(N_ACTIONS, 0.3), size=n)
    mask = bcq_allowed_mask(probs, tau)
    assert mask.any(axis=1).all()
    chosen = np.where(mask, q, -np.inf).argmax(axis=1)
    ratios = probs[np.arange(n), chosen] / probs.max(axis=1)
    assert (ratios >= tau - 1e-12).all()
    report_pass(10, f"constrained argmax respected tau={tau} on {n} draws "
                    f"(min ratio {ratios.min():.3f})")
