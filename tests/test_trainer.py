import json
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from careql import encoder as encoder_mod
from careql import netcore
from careql import trainer as trainer_mod
from careql.bdesr import bdesr_report
from careql.dataset import N_ACTIONS, EpisodeStore, store_of
from careql.encoder import EncoderConfig, NoteStrategy, StateEncoder
from careql.netcore import TRAIN_DTYPE, Dense, Tensor, cast_params, clone_param_values
from careql.ope import (
    BehaviorFitConfig,
    FqeNetConfig,
    LoggedBehavior,
    OpeConfig,
    eval_batch,
    evaluate_policy,
    fit_behavior,
    fqe_network,
    soften,
)
from careql.synthgym import (
    GeneratorConfig,
    canonical_inputs,
    exact_policy_value,
    generate_mdp,
    near_clinician_behavior,
    optimal_values,
    rollout,
)
from careql.trainer import (
    ActionClassifier,
    LearnedPolicy,
    NonFiniteQError,
    TrainConfig,
    TrainerError,
    TrainingDiverged,
    bcq_allowed_mask,
    bcq_masked_q,
    bellman_residuals,
    build_transition_table,
    cql_loss,
    dqn_loss,
    dqn_target,
    train,
)

import reference_ops as ops
from stores import set_rows
from test_encoder import loop_episode_note_inputs


def small_setup(seed=0, n_episodes=300, n_severity=3, n_context=1, noise=0.15):
    cfg = GeneratorConfig(n_severity=n_severity, n_context=n_context,
                          n_features=6, d_n=4, noise_structured=noise,
                          noise_note=0.05, min_gap=0.0, gamma=0.9)
    mdp = generate_mdp(cfg, seed=seed)
    behavior = near_clinician_behavior(mdp, 0.3)
    ds = rollout(mdp, behavior, n_episodes=n_episodes, seed=seed + 1)
    enc_cfg = EncoderConfig(n_features=6, d_n=4, d=8, d_k=4, depth=1,
                            strategy=NoteStrategy("context"))
    return mdp, behavior, ds, enc_cfg


def quick_train_cfg(**kw):
    defaults = dict(total_steps=400, batch_size=64, learning_rate=1e-3,
                    gamma=0.9, target_update=100, eval_interval=100,
                    hidden_width=32, trunk_depth=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestDqnTarget:
    def test_terminal_ignores_next_q(self):
        next_q = np.full((1, N_ACTIONS), 1e6)
        y = dqn_target(np.array([1.0]), np.array([True]), next_q, gamma=0.99)
        assert y[0] == 1.0

    def test_gamma_zero_returns_reward(self):
        next_q = np.random.default_rng(0).normal(size=(4, N_ACTIONS))
        r = np.array([0.0, 0.0, 1.0, -1.0])
        y = dqn_target(r, np.zeros(4, dtype=bool), next_q, gamma=0.0)
        assert np.array_equal(y, r)

    def test_hand_built_table(self):
        # two states, next-Q rows [2, 5, ...0] and [-1, 3, ...0]
        next_q = np.zeros((2, N_ACTIONS))
        next_q[0, 0], next_q[0, 1] = 2.0, 5.0
        next_q[1, 0], next_q[1, 1] = -1.0, 3.0
        r = np.array([0.0, 1.0])
        done = np.array([False, True])
        y = dqn_target(r, done, next_q, gamma=0.5)
        assert np.array_equal(y, [0.0 + 0.5 * 5.0, 1.0])


class TestCqlLoss:
    def test_alpha_zero_equals_dqn_loss_100_batches(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            B = 16
            q_data = rng.normal(size=(B, N_ACTIONS))
            actions = rng.integers(0, N_ACTIONS, size=B)
            y = rng.normal(size=B)
            a, _ = cql_loss(Tensor(q_data), actions, y, alpha=0.0)
            b, _ = dqn_loss(Tensor(q_data), actions, y)
            assert abs(float(a.data) - float(b.data)) <= 1e-12

    def test_matches_hand_computation_single_transition(self):
        q_row = np.linspace(-1.0, 1.0, N_ACTIONS)[None, :]
        action = np.array([3])
        y = np.array([0.25])
        alpha = 2.0
        loss, diag = cql_loss(Tensor(q_row), action, y, alpha)
        bellman = 0.5 * (q_row[0, 3] - 0.25) ** 2
        reg = np.log(np.exp(q_row[0]).sum()) - q_row[0, 3]
        assert abs(float(loss.data) - (bellman + alpha * reg)) < 1e-10
        assert diag["reg"] == pytest.approx(reg)

    def test_regularizer_nonnegative(self):
        # logsumexp over actions always dominates the logged action's Q
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(32, N_ACTIONS)))
        actions = rng.integers(0, N_ACTIONS, size=32)
        _, diag = cql_loss(q, actions, rng.normal(size=32), alpha=1.0)
        assert diag["reg"] >= 0.0

    def test_gradient_flows_through_regularizer(self):
        rng = np.random.default_rng(2)
        q_param = Tensor(rng.normal(size=(8, N_ACTIONS)), requires_grad=True,
                         name="q")
        loss, _ = cql_loss(q_param, rng.integers(0, N_ACTIONS, 8),
                           rng.normal(size=8), alpha=2.0)
        loss.backward()
        assert np.abs(q_param.grad).max() > 0


def constrained_argmax(q, probs, tau):
    """The action BCQ's rule picks: the argmax of its masked Q row."""
    return int(bcq_masked_q(q[None, :], probs, tau).argmax(axis=1)[0])


class TestBcqConstraint:
    def test_tau_zero_unconstrained(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=N_ACTIONS)
        probs = rng.dirichlet(np.ones(N_ACTIONS))
        assert constrained_argmax(q, probs, tau=0.0) == int(q.argmax())

    def test_tau_one_only_modal_actions(self):
        q = np.zeros(N_ACTIONS)
        q[3] = 10.0
        probs = np.full(N_ACTIONS, 0.01)
        probs[7] = 1.0 - 0.01 * 24
        assert constrained_argmax(q, probs, tau=1.0) == 7

    def test_uniform_probs_any_tau_unconstrained(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=N_ACTIONS)
        probs = np.full(N_ACTIONS, 1.0 / N_ACTIONS)
        for tau in (0.1, 0.5, 1.0):
            assert constrained_argmax(q, probs, tau) == int(q.argmax())

    def test_mask_never_empty_and_respects_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            probs = rng.dirichlet(rng.uniform(0.1, 2.0, N_ACTIONS))
            tau = rng.uniform(0.0, 1.0)
            mask = bcq_allowed_mask(probs, tau)[0]
            assert mask.any()
            chosen = constrained_argmax(rng.normal(size=N_ACTIONS), probs, tau)
            assert probs[chosen] / probs.max() >= tau


TABLE_COLUMNS = ("structured", "f_c", "f_e", "next_structured", "next_f_c", "next_f_e")


def table_rows(store, inputs):
    """Per-frame model inputs at each transition's state and next state."""
    frame = store.decision_frame
    return dict(zip(TABLE_COLUMNS, (*(x[frame] for x in inputs),
                                    *(x[frame + 1] for x in inputs))))


class TestTransitionTable:
    def test_table_shapes_and_flags(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=20)
        store = ds.store
        inputs = build_transition_table(store, enc_cfg.strategy, "multimodal")
        n = store.action.shape[0]
        assert n == ds.n_transitions
        # inputs at every frame, one more than the transitions per episode
        assert inputs[0] is store.structured
        assert inputs[1].shape == inputs[2].shape == (n + len(ds), 4)
        rows = table_rows(store, inputs)
        assert rows["structured"].shape == (n, 6)
        assert rows["f_c"].shape == (n, 4)
        # one terminal per episode
        assert store.done.sum() == len(ds)
        assert (store.state_id >= 0).all()

    def test_structured_only_model_gets_zero_width_notes(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=5)
        n_frames = ds.store.structured.shape[0]
        _, f_c, f_e = build_transition_table(ds.store, enc_cfg.strategy, "structured")
        assert f_c.shape == f_e.shape == (n_frames, 0)

    def test_context_inputs_constant_within_episode(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=10)
        inputs = build_transition_table(ds.store, NoteStrategy("context"), "multimodal")
        f_c = table_rows(ds.store, inputs)["f_c"]
        for e_i in range(10):
            rows = f_c[ds.store.episode_index == e_i]
            first = rows[0]
            if np.any(first != 0.0):
                assert np.allclose(rows, first[None, :])


def per_transition_table(dataset, strategy):
    """Reference flattening: one append per transition into every input
    column, the note inputs from the per-frame reference loop."""
    cols = {name: [] for name in TABLE_COLUMNS}
    for ep in dataset.episodes:
        f_c, f_e = loop_episode_note_inputs(ep, strategy)
        frames = ep.frames()
        for t in range(len(ep)):
            cols["structured"].append(frames[t].structured)
            cols["f_c"].append(f_c[t])
            cols["f_e"].append(f_e[t])
            cols["next_structured"].append(frames[t + 1].structured)
            cols["next_f_c"].append(f_c[t + 1])
            cols["next_f_e"].append(f_e[t + 1])
    return {name: np.stack(rows) for name, rows in cols.items()}


class TestActionClassifier:
    def test_zero_depth_classifier_is_one_dense_layer_with_the_same_draws(self):
        x = np.random.default_rng(2).normal(size=(5, 6))
        clf = ActionClassifier(6, np.random.default_rng(3), width=0, depth=0)
        layer = Dense(6, N_ACTIONS, np.random.default_rng(3), "ref")
        assert list(clf.params()) == ["behavior.head.W", "behavior.head.b"]
        logits = x @ layer.W.data.T + layer.b.data
        expected = np.exp(logits - logits.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.array_equal(clf.probs(x), expected)

    @pytest.mark.parametrize("spread", [1.0, 1e3])
    def test_probs_bit_equal_to_reference_softmax(self, spread):
        # an identity head makes the logits the input rows themselves; a large
        # spread underflows most entries of each row to zero
        clf = ActionClassifier(N_ACTIONS, np.random.default_rng(6), width=0, depth=0)
        clf.head.W.data[...] = np.eye(N_ACTIONS)
        clf.head.b.data[...] = 0.0
        logits = spread * np.random.default_rng(7).normal(size=(9, N_ACTIONS))
        assert np.array_equal(clf.logits(Tensor(logits)).data, logits)
        assert np.array_equal(clf.probs(logits), ops.softmax(Tensor(logits)).data)

    def test_classifier_trunk_matches_relu_oracle(self):
        clf = ActionClassifier(7, np.random.default_rng(4), width=9, depth=2)
        x = np.random.default_rng(5).normal(size=(4, 7))
        h = x
        for layer in clf.trunk:
            h = np.maximum(h @ layer.W.data.T + layer.b.data, 0.0)
        expected = h @ clf.head.W.data.T + clf.head.b.data
        assert np.abs(clf.logits(Tensor(x)).data - expected).max() < 1e-12
        assert [name.rsplit(".", 1)[0] for name in clf.params()][::2] == \
            ["behavior.trunk0", "behavior.trunk1", "behavior.head"]


class TestTransitionTableReference:
    @pytest.mark.parametrize("kind", ["raw", "impute", "stack", "context"])
    def test_byte_equal_to_per_transition_reference(self, kind):
        _, _, ds, _ = small_setup(n_episodes=40)
        # unknown behaviour probabilities and state ids on every other episode
        store = set_rows(ds.store, range(0, len(ds), 2), behavior_prob=np.nan, state_id=-1)
        ds = replace(ds, episodes=store.views())
        strategy = NoteStrategy(kind, window=2)
        rows = table_rows(ds.store, build_transition_table(ds.store, strategy, "multimodal"))
        reference = per_transition_table(ds, strategy)
        for name, expected in reference.items():
            got = rows[name]
            assert got.dtype == expected.dtype and got.shape == expected.shape, name
            assert got.tobytes() == expected.tobytes(), name


class TestTrain:
    def test_identical_seeds_identical_logs_and_params(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=50)
        cfg = quick_train_cfg(total_steps=150, algorithm="cql", seed=3)
        a = train(ds, cfg, enc_cfg)
        b = train(ds, cfg, enc_cfg)
        assert a.log == b.log
        pa, pb = a.policy.all_params(), b.policy.all_params()
        for key in pa:
            assert np.array_equal(pa[key].data, pb[key].data), key

    def test_log_schema(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        result = train(ds, quick_train_cfg(total_steps=120, eval_interval=40), enc_cfg)
        assert [r["step"] for r in result.log] == [40, 80, 120]
        for record in result.log:
            assert set(record) == {"step", "loss", "mean_q", "reg_term"}

    def test_cql_suppresses_ood_q_values(self):
        mdp, behavior, ds, enc_cfg = small_setup(n_episodes=200)
        conservative = train(ds, quick_train_cfg(algorithm="cql", cql_alpha=2.0), enc_cfg)
        plain = train(ds, quick_train_cfg(algorithm="dqn"), enc_cfg)
        canon = canonical_inputs(mdp)
        rare = behavior.probs < 0.02  # actions the behavior almost never takes
        q_cons = conservative.policy.forward(canon.structured, canon.context_note,
                                             canon.event_note)[1]
        q_plain = plain.policy.forward(canon.structured, canon.context_note,
                                       canon.event_note)[1]
        assert q_cons[rare].mean() < q_plain[rare].mean()

    def test_cql_recovers_near_optimal_policy_small(self):
        mdp, _, ds, enc_cfg = small_setup(n_episodes=400, seed=5)
        cfg = quick_train_cfg(total_steps=1500, algorithm="cql", cql_alpha=1.0,
                              learning_rate=2e-3, target_update=200, seed=5)
        result = train(ds, cfg, enc_cfg)
        actions = result.policy.action_table(canonical_inputs(mdp))
        learned_value = exact_policy_value(mdp, actions, gamma=mdp.gamma)
        optimal_value = mdp.oracle["value_optimal"]
        assert learned_value > optimal_value - 0.15

    def test_bcq_trains_and_constrains(self):
        _, behavior, ds, enc_cfg = small_setup(n_episodes=100)
        cfg = quick_train_cfg(algorithm="bcq", bcq_threshold=0.3, total_steps=300)
        result = train(ds, cfg, enc_cfg)
        policy = result.policy
        assert policy.behavior_classifier is not None
        frame = ds.store.decision_frame[:64]
        inputs = [x[frame] for x in build_transition_table(ds.store, enc_cfg.strategy,
                                                             "multimodal")]
        state = policy.model.state_tensor(*inputs).data
        probs = policy.behavior_classifier.probs(state)
        greedy = policy.forward(*inputs)[2]
        ratio = probs[np.arange(64), greedy] / probs.max(axis=1)
        assert (ratio >= cfg.bcq_threshold - 1e-12).all()

    def test_freeze_encoders_keeps_encoder_fixed(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        cfg = quick_train_cfg(total_steps=100, freeze_encoders=True)
        result = train(ds, cfg, enc_cfg)
        fresh = train(ds, quick_train_cfg(total_steps=1, freeze_encoders=True), enc_cfg)
        enc_after = {k: p.data for k, p in result.policy.model.encoder.params().items()}
        enc_init = {k: p.data for k, p in fresh.policy.model.encoder.params().items()}
        for key in enc_after:
            assert np.array_equal(enc_after[key], enc_init[key]), key

    def test_frozen_encoder_gets_no_gradient(self):
        # nothing zeroes a frozen parameter's gradient, so a gradient that
        # reached one in any step would still be there after training
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        result = train(ds, quick_train_cfg(total_steps=3, freeze_encoders=True), enc_cfg)
        frozen = [p for key, p in result.policy.model.params().items()
                  if key.startswith("state.")]
        assert frozen
        assert all(p.grad is None or not p.grad.any() for p in frozen)

    def test_conservatism_monotone_in_alpha(self):
        # stronger regularization weakly lowers the mean Q over the full
        # action set (almost all of it out-of-distribution under the
        # concentrated behavior policy)
        _, _, ds, enc_cfg = small_setup(n_episodes=150, seed=11)
        frame = ds.store.decision_frame
        inputs = [x[frame] for x in build_transition_table(ds.store, enc_cfg.strategy,
                                                             "multimodal")]
        mean_q = []
        for alpha in (0.0, 0.5, 2.0, 8.0):
            cfg = quick_train_cfg(total_steps=2500, algorithm="cql",
                                  cql_alpha=alpha, seed=11)
            policy = train(ds, cfg, enc_cfg).policy
            q = policy.forward(*inputs)[1]
            mean_q.append(q.mean())
        for lo, hi in zip(mean_q[1:], mean_q[:-1]):
            assert lo <= hi + 1e-6, mean_q

    def test_unimodal_models_train(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=40)
        for modality in ("structured", "notes"):
            result = train(ds, quick_train_cfg(total_steps=60), enc_cfg,
                           modality=modality)
            assert np.isfinite(result.log[-1]["loss"])

    def test_divergence_aborts_with_snapshot(self, monkeypatch):
        import careql.trainer as trainer_mod

        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        real = trainer_mod.cql_loss
        calls = {"n": 0}

        def exploding(q, actions, targets, alpha):
            calls["n"] += 1
            if calls["n"] >= 3:
                return Tensor(np.array(np.inf)), {"bellman": np.inf,
                                                  "mean_q": np.inf, "reg": 0.0}
            return real(q, actions, targets, alpha)

        monkeypatch.setattr(trainer_mod, "cql_loss", exploding)
        with pytest.raises(TrainingDiverged, match="step 3") as exc_info:
            train(ds, quick_train_cfg(total_steps=100), enc_cfg)
        assert isinstance(exc_info.value.checkpoint, dict)
        assert exc_info.value.checkpoint  # snapshot captured

    def test_invalid_config_rejected(self):
        with pytest.raises(TrainerError):
            TrainConfig(total_steps=100, algorithm="sarsa")
        with pytest.raises(TrainerError):
            TrainConfig(total_steps=100, gamma=1.0)
        with pytest.raises(TrainerError):
            TrainConfig(total_steps=0)


def spy_tables(monkeypatch) -> list[tuple[dict, list[int]]]:
    """Wrap ``trainer.target_q_table``; each call appends the values of the
    model parameters it was given and the row count of each ``q_values``
    forward it ran."""
    calls, open_calls = [], []
    real_table, real_q = trainer_mod.target_q_table, trainer_mod.QModel.q_values

    def table(model, inputs, batch_size):
        calls.append((clone_param_values(model.params()), []))
        open_calls.append(calls[-1][1])
        try:
            return real_table(model, inputs, batch_size)
        finally:
            open_calls.pop()

    def q_values(model, *inputs):
        if open_calls:
            open_calls[-1].append(inputs[0].shape[0])
        return real_q(model, *inputs)

    monkeypatch.setattr(trainer_mod, "target_q_table", table)
    monkeypatch.setattr(trainer_mod.QModel, "q_values", q_values)
    return calls


class TestTargetTable:
    @pytest.mark.parametrize("n_episodes, batch_size, algorithm", [
        (30, 16, "cql"), (30, 16, "bcq"), (2, 64, "cql"),
    ])
    def test_one_table_of_full_batches_per_refresh(self, monkeypatch, n_episodes,
                                                   batch_size, algorithm):
        _, _, ds, enc_cfg = small_setup(n_episodes=n_episodes)
        calls = spy_tables(monkeypatch)
        # refreshes after steps 3 and 6: tables for steps 1-3, 4-6 and 7
        cfg = quick_train_cfg(total_steps=7, target_update=3, batch_size=batch_size,
                              algorithm=algorithm)
        train(ds, cfg, enc_cfg)
        n_frames = (ds.split("train") or ds).store.structured.shape[0]
        if n_episodes == 2:
            assert n_frames < batch_size
        target_rows = [rows for _, forwards in calls for rows in forwards]
        assert len(target_rows) == 3 * -(-n_frames // batch_size)
        assert set(target_rows) == {batch_size}

    def test_multimodal_bcq_encodes_twice_per_step(self, monkeypatch):
        # the Q step's state, whose features the classifier loss also reads,
        # and the next state of the target mask, plus the table's forwards
        # at each refresh
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        calls = []
        real_forward = StateEncoder.forward

        def forward(encoder, *args):
            calls.append(args[0].shape[0])
            return real_forward(encoder, *args)

        monkeypatch.setattr(StateEncoder, "forward", forward)
        cfg = quick_train_cfg(total_steps=7, target_update=3, batch_size=16, algorithm="bcq")
        train(ds, cfg, enc_cfg)
        n_frames = (ds.split("train") or ds).store.structured.shape[0]
        assert len(calls) == 2 * cfg.total_steps + 3 * -(-n_frames // cfg.batch_size)
        assert set(calls) == {cfg.batch_size}

    @pytest.mark.parametrize("algorithm, freeze", [("cql", False), ("bcq", False),
                                                   ("cql", True)])
    def test_each_table_is_the_model_at_its_refresh(self, monkeypatch, algorithm, freeze):
        # the table of steps 1-3 is the initial model's Q, that of steps 4-6
        # the model's after step 3, and that of step 7 the model's after step 6
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        calls = spy_tables(monkeypatch)
        cfg = quick_train_cfg(total_steps=7, target_update=3, batch_size=16,
                              algorithm=algorithm, freeze_encoders=freeze)
        result = train(ds, cfg, enc_cfg, snapshot_interval=cfg.target_update)
        initial = trainer_mod.QModel("multimodal", enc_cfg,
                                     np.random.default_rng([cfg.seed, 11]),
                                     cfg.hidden_width, cfg.trunk_depth).params()
        cast_params(initial)
        assert [step for step, _ in result.snapshots] == [3, 6, 7]
        expected = [{k: p.data for k, p in initial.items()}] + \
            [values for _, values in result.snapshots[:2]]
        assert len(calls) == len(expected)
        for (given, _), values in zip(calls, expected):
            assert set(given) <= set(values)
            for key, value in given.items():
                assert value.tobytes() == values[key].tobytes(), key
        # the model moved between refreshes, so the tables differ
        assert any(not np.array_equal(calls[0][0][k], calls[1][0][k]) for k in calls[0][0])

    def test_bcq_target_is_the_max_over_supported_actions(self, monkeypatch):
        # each step's regression target, against a loop over the batch: the
        # reward plus gamma times the largest target-table Q among the
        # actions whose behaviour-probability ratio to the modal action is
        # at least tau (no bootstrap when done). The structured model's next
        # state is the raw next frame cast to TRAIN_DTYPE, which names the
        # transition.
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        store = (ds.split("train") or ds).store
        events = []
        real_table = trainer_mod.target_q_table
        real_probs = trainer_mod.ActionClassifier.probs
        real_loss = trainer_mod.cql_loss

        def table(model, inputs, batch_size):
            events.append(("table", real_table(model, inputs, batch_size)))
            return events[-1][1]

        def probs(classifier, x):
            events.append(("probs", (x, real_probs(classifier, x))))
            return events[-1][1][1]

        def loss(q, actions, targets, alpha):
            events.append(("y", targets))
            return real_loss(q, actions, targets, alpha)

        monkeypatch.setattr(trainer_mod, "target_q_table", table)
        monkeypatch.setattr(trainer_mod.ActionClassifier, "probs", probs)
        monkeypatch.setattr(trainer_mod, "cql_loss", loss)
        tau, gamma = 0.95, 0.9
        cfg = quick_train_cfg(total_steps=5, target_update=2, batch_size=32,
                              algorithm="bcq", bcq_threshold=tau, gamma=gamma)
        train(ds, cfg, enc_cfg, modality="structured")

        frame_of = {row.tobytes(): f
                    for f, row in enumerate(store.structured.astype(TRAIN_DTYPE))}
        assert len(frame_of) == store.structured.shape[0]
        transition_of = {f + 1: k for k, f in enumerate(store.decision_frame)}
        current, next_states, n_steps, n_masked, n_done = None, None, 0, 0, 0
        for kind, value in events:
            if kind == "table":
                current = value.astype(np.float64)
            elif kind == "probs":
                next_states = value
            else:
                x, p = next_states
                for i in range(x.shape[0]):
                    f = frame_of[x[i].tobytes()]
                    k = transition_of[f]
                    allowed = [a for a in range(N_ACTIONS) if p[i, a] / p[i].max() >= tau]
                    best = max(current[f, a] for a in allowed)
                    n_masked += best < current[f].max()
                    n_done += bool(store.done[k])
                    bootstrap = 0.0 if store.done[k] else 1.0
                    assert value[i] == store.reward[k] + gamma * bootstrap * best
                n_steps += 1
        assert n_steps == cfg.total_steps
        assert n_masked and n_done

    @pytest.mark.parametrize("dtype", [TRAIN_DTYPE, np.float64])
    def test_rows_equal_minibatch_forwards(self, dtype):
        # a batch of 64 rows, like every batch size the repository's configs
        # use, rounds each row's product the same wherever the row sits in
        # it, in the training dtype as in float64
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        model = trainer_mod.QModel("multimodal", enc_cfg, np.random.default_rng(4), 16, 2)
        cast_params(model.params(), dtype)
        inputs = tuple(x.astype(dtype)
                       for x in build_transition_table(ds.store, enc_cfg.strategy, "multimodal"))
        table = trainer_mod.target_q_table(model, inputs, 64)
        rng = np.random.default_rng(5)
        for _ in range(5):
            frame = rng.integers(0, ds.store.structured.shape[0], size=64)
            q = model.q_values(*(x[frame] for x in inputs))[1].data
            assert q.tobytes() == table[frame].tobytes()


class TestLearnedPolicy:
    @pytest.mark.parametrize("key, value, message", [
        ("algorithm", "sarsa", "unknown algorithm 'sarsa'"),
        ("bcq_threshold", 5.0, "bcq_threshold must be in"),
        ("qnet", {"width": 0, "depth": 1}, "qnet width and depth must be >= 1, got 0 and 1"),
        ("qnet", {"width": 16, "depth": 0}, "qnet width and depth must be >= 1, got 16 and 0"),
    ])
    def test_checkpoint_out_of_range_rejected(self, tmp_path, key, value, message):
        _, _, ds, enc_cfg = small_setup(n_episodes=10)
        path = tmp_path / "policy.json"
        train(ds, quick_train_cfg(total_steps=2, algorithm="bcq"), enc_cfg).policy.save(path)
        payload = json.loads(path.read_text())
        payload["metadata"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(TrainerError, match=message):
            LearnedPolicy.load(path)

    def test_save_load_round_trip(self, tmp_path):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        result = train(ds, quick_train_cfg(total_steps=80, algorithm="bcq"), enc_cfg)
        path = tmp_path / "policy.json"
        result.policy.save(path)
        loaded = LearnedPolicy.load(path)
        ep = ds.episodes[0]
        assert np.array_equal(loaded.episode_greedy_actions(ep),
                              result.policy.episode_greedy_actions(ep))
        probs = loaded.episode_action_probs(ep, eps=0.01)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("modality, algorithm", [("multimodal", "bcq"),
                                                     ("structured", "cql")])
    def test_load_of_save_gives_the_same_q_bit_for_bit(self, tmp_path, modality, algorithm):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        policy = train(ds, quick_train_cfg(total_steps=20, algorithm=algorithm), enc_cfg,
                       modality=modality).policy
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = LearnedPolicy.load(path)
        for key, p in loaded.all_params().items():
            assert p.data.dtype == TRAIN_DTYPE
            assert p.data.tobytes() == policy.all_params()[key].data.tobytes(), key
        for ours, theirs in zip(loaded.forward_rows(ds.store), policy.forward_rows(ds.store)):
            assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_q_overflowing_at_final_frames_stops_ope_bdesr_and_residuals(self):
        # OPE, BDESR and the residuals check Q at every frame, final ones too
        _, _, ds, enc_cfg = small_setup(n_episodes=20)
        model = trainer_mod.QModel("structured", enc_cfg, np.random.default_rng(0), 16, 2)
        model.qnet.trunk.layers[0].W.data[...] = 1.0
        policy = LearnedPolicy(model=model, algorithm="dqn", bcq_threshold=0.3)
        store = ds.store
        structured = store.structured.copy()
        structured[store.frame_offsets + store.lengths] = 1.7e308
        overflowing = replace(ds, episodes=replace(store, structured=structured).views())
        inputs = policy.episode_inputs(overflowing.store)
        assert np.isfinite(policy.forward(*(x[store.decision_frame] for x in inputs))[1]).all()
        cfg = OpeConfig(gamma=0.9, n_bootstrap=5, seed=0,
                        fqe=FqeNetConfig(iterations=2, steps_per_iteration=5, width=8))
        for run in (lambda: evaluate_policy(overflowing, soften(policy), LoggedBehavior(), cfg),
                    lambda: bdesr_report(overflowing, policy),
                    lambda: bellman_residuals(policy, overflowing, gamma=0.9)):
            with pytest.raises(NonFiniteQError, match="non-finite Q"):
                run()

    def test_eps_soft_probs(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=20)
        result = train(ds, quick_train_cfg(total_steps=50), enc_cfg)
        ep = ds.episodes[0]
        greedy = result.policy.episode_greedy_actions(ep)
        probs = result.policy.episode_action_probs(ep, eps=0.12)
        assert probs.shape == (len(ep.transitions), N_ACTIONS)
        for t, a in enumerate(greedy):
            assert probs[t, a] == pytest.approx(0.88)


def one_episode_forward(policy, episode):
    """Greedy actions, state features and Q rows of one episode through the
    row-level methods: the per-episode path evaluation took before batching."""
    structured = np.stack([frame.structured for frame in episode.frames()])
    f_c, f_e = loop_episode_note_inputs(episode, policy.strategy)
    T = len(episode)
    features, q, _ = policy.forward(structured, f_c, f_e)
    return policy.forward(structured[:T], f_c[:T], f_e[:T])[2], features, q


@dataclass
class OneEpisodeAtATime:
    """A learned policy answering the flat protocol with one forward per episode."""

    policy: LearnedPolicy
    eps: float = 0.0

    def greedy_rows(self, store):
        return np.concatenate([one_episode_forward(self.policy, ep)[0]
                               for ep in store.views()])

    def evaluation_rows(self, store):
        features = np.concatenate([one_episode_forward(self.policy, ep)[1]
                                   for ep in store.views()])
        greedy = self.greedy_rows(store)
        probs = np.full((len(greedy), N_ACTIONS), self.eps / (N_ACTIONS - 1))
        probs[np.arange(len(greedy)), greedy] = 1.0 - self.eps
        return features, probs


def split_forward(policy, episodes):
    """``forward_rows`` over the store of some episodes, split by episode."""
    store = store_of(episodes)
    features, _, greedy = policy.forward_rows(store)
    return (np.split(features, store.frame_offsets[1:]),
            np.split(greedy, store.offsets[1:]))


@pytest.fixture(scope="module", params=["multimodal_cql", "structured_bcq"])
def trained_policy(request):
    _, _, ds, enc_cfg = small_setup(n_episodes=120)
    modality, algorithm = request.param.split("_")
    result = train(ds, quick_train_cfg(total_steps=120, algorithm=algorithm),
                   enc_cfg, modality=modality)
    return result.policy, ds


class TestBatchedForward:
    def test_matches_one_episode_forwards(self, trained_policy):
        policy, ds = trained_policy
        episodes = list(ds.episodes[:60])
        assert len({len(ep) for ep in episodes}) > 1
        features, actions = split_forward(policy, episodes)
        assert len(features) == len(actions) == len(episodes)
        for ep, feats, greedy in zip(episodes, features, actions):
            ref_greedy, ref_feats, ref_q = one_episode_forward(policy, ep)
            assert np.array_equal(greedy, ref_greedy)
            assert np.abs(feats - ref_feats).max() <= 1e-12
            q = policy.model.qnet(Tensor(feats.astype(policy.model.dtype))).data
            assert np.abs(q - ref_q).max() <= 1e-12

    def test_one_episode_methods_are_the_batched_forward(self, trained_policy):
        policy, ds = trained_policy
        features, actions = split_forward(policy, list(ds.episodes[:3]))
        for i, ep in enumerate(ds.episodes[:3]):
            assert np.array_equal(policy.episode_greedy_actions(ep), actions[i])
            assert np.abs(policy.episode_state_features(ep) - features[i]).max() <= 1e-12
            probs = policy.episode_action_probs(ep, eps=0.2)
            assert np.array_equal(probs.argmax(axis=1), actions[i])

    def test_bdesr_same_cohorts_and_scores(self, trained_policy):
        policy, ds = trained_policy
        assert bdesr_report(ds, policy) == bdesr_report(ds, OneEpisodeAtATime(policy))

    def test_network_evaluation_same_wis_and_close_estimates(self, trained_policy):
        policy, ds = trained_policy
        episodes = list(ds.episodes[:80])
        behavior = fit_behavior(replace(ds, episodes=episodes), cfg=BehaviorFitConfig(steps=100))
        cfg = OpeConfig(gamma=0.9, n_bootstrap=20, seed=0,
                        fqe=FqeNetConfig(iterations=3, steps_per_iteration=20,
                                         width=16))
        batched = evaluate_policy(replace(ds, episodes=episodes), soften(policy), behavior, cfg)
        looped = evaluate_policy(replace(ds, episodes=episodes), soften(OneEpisodeAtATime(policy)),
                                 behavior, cfg)
        assert batched.fqe_mode == looped.fqe_mode == "network"
        assert batched.wis == looped.wis
        assert batched.effective_sample_size == looped.effective_sample_size
        for name in ("dr", "fqe", "opera"):
            assert abs(getattr(batched, name) - getattr(looped, name)) <= 1e-12, name

    def test_one_flattening_and_one_encoder_forward_per_call(self, trained_policy,
                                                             monkeypatch):
        policy, ds = trained_policy
        episodes = list(ds.episodes[:40])
        behavior = fit_behavior(replace(ds, episodes=episodes), cfg=BehaviorFitConfig(steps=10))
        cfg = OpeConfig(gamma=0.9, n_bootstrap=5, seed=0,
                        fqe=FqeNetConfig(iterations=2, steps_per_iteration=5, width=8))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        note_inputs = counted("flatten", encoder_mod.episode_note_inputs)
        for module in (encoder_mod, trainer_mod):
            monkeypatch.setattr(module, "episode_note_inputs", note_inputs)
        monkeypatch.setattr(StateEncoder, "forward", counted("encode", StateEncoder.forward))
        encodes = 1 if policy.model.modality == "multimodal" else 0
        # a structured-only model reads no note inputs, so none are computed
        flattens = 0 if policy.model.modality == "structured" else 1
        report = evaluate_policy(replace(ds, episodes=episodes), soften(policy), behavior, cfg)
        assert report.fqe_mode == "network"
        assert (calls["flatten"], calls["encode"]) == (flattens, encodes)
        calls.clear()
        # BDESR computes the store's note inputs once for its one forward
        bdesr_report(replace(ds, episodes=episodes), policy)
        assert (calls["flatten"], calls["encode"]) == (flattens, encodes)

    def test_one_q_forward_per_forward_rows_and_residuals(self, trained_policy, monkeypatch):
        # state features, Q and choices come from one QModel.q_values call
        policy, ds = trained_policy
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trainer_mod.QModel, "q_values",
                            counted("q", trainer_mod.QModel.q_values))
        monkeypatch.setattr(StateEncoder, "forward", counted("encode", StateEncoder.forward))
        encodes = 1 if policy.model.modality == "multimodal" else 0
        for run in (lambda: policy.forward_rows(ds.store),
                    lambda: bellman_residuals(policy, ds, gamma=0.9)):
            calls.clear()
            run()
            assert (calls["q"], calls["encode"]) == (1, encodes)

    def test_no_per_episode_note_inputs_or_forwards(self, trained_policy, monkeypatch):
        # training, OPE, BDESR and the residuals compute note and model inputs
        # once per call, for every episode of the store they are given
        policy, ds = trained_policy
        episodes = Counter()

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                store = next(a for a in args if isinstance(a, EpisodeStore))
                episodes[name, store.lengths.size] += 1
                return fn(*args, **kwargs)
            return wrapper

        note_inputs = spy("note_inputs", encoder_mod.episode_note_inputs)
        for module in (encoder_mod, trainer_mod):
            monkeypatch.setattr(module, "episode_note_inputs", note_inputs)
        monkeypatch.setattr(LearnedPolicy, "episode_inputs",
                            spy("episode_inputs", LearnedPolicy.episode_inputs))
        # a structured-only model reads no note inputs, so none are computed
        notes = 0 if policy.model.modality == "structured" else 1
        train_split = ds.split("train")
        train(train_split, quick_train_cfg(total_steps=3, algorithm=policy.algorithm),
              policy.model.enc_cfg, modality=policy.model.modality)
        assert episodes == Counter({("note_inputs", len(train_split)): notes})
        episodes.clear()
        cfg = OpeConfig(gamma=0.9, n_bootstrap=5, seed=0,
                        fqe=FqeNetConfig(iterations=2, steps_per_iteration=5, width=8))
        evaluate_policy(ds, soften(policy), LoggedBehavior(), cfg)
        bdesr_report(ds, policy)
        # one policy forward each for OPE, BDESR and the residuals
        bellman_residuals(policy, ds, gamma=0.9)
        assert episodes == Counter({("note_inputs", len(ds)): 3 * notes,
                                    ("episode_inputs", len(ds)): 3})


def spy_product_dtypes(monkeypatch) -> list[np.dtype]:
    """Wrap netcore's affine product and its backward wherever they are
    called; the list collects the dtype of every array operand of every
    call: input, weights, bias, output gradient and parameter gradients."""
    dtypes = []
    real_affine, real_backward = netcore._affine, netcore._affine_backward

    def affine(x, W, b):
        dtypes.extend(a.dtype for a in (x, W, b) if a is not None)
        return real_affine(x, W, b)

    def affine_backward(g, x, Wd, W, b, want_x):
        arrays = (g, x, Wd, W.data, W.grad) + (() if b is None else (b.data, b.grad))
        dtypes.extend(a.dtype for a in arrays if a is not None)
        return real_backward(g, x, Wd, W, b, want_x)

    for module in (netcore, encoder_mod):
        monkeypatch.setattr(module, "_affine", affine)
        monkeypatch.setattr(module, "_affine_backward", affine_backward)
    return dtypes


class TestTrainDtype:
    # a float64 operand would silently promote its product to float64
    @pytest.mark.parametrize("modality, algorithm", [
        ("multimodal", "cql"), ("multimodal", "bcq"), ("structured", "bcq")])
    def test_training_products_are_float32(self, monkeypatch, modality, algorithm):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        dtypes = spy_product_dtypes(monkeypatch)
        result = train(ds, quick_train_cfg(total_steps=6, target_update=3, batch_size=16,
                                           algorithm=algorithm), enc_cfg, modality=modality)
        assert dtypes and set(dtypes) == {np.dtype(TRAIN_DTYPE)}
        features, q, _ = result.policy.forward_rows(ds.store)
        assert features.dtype == q.dtype == np.float64

    def test_ope_fits_are_float32_and_estimates_float64(self, monkeypatch):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        policy = soften(train(ds, quick_train_cfg(total_steps=4), enc_cfg).policy)
        dtypes = spy_product_dtypes(monkeypatch)
        behavior = fit_behavior(ds, BehaviorFitConfig(steps=3))
        assert dtypes and set(dtypes) == {np.dtype(TRAIN_DTYPE)}
        dtypes.clear()
        fqe = fqe_network(eval_batch(ds, policy, behavior), 0.9,
                          FqeNetConfig(iterations=2, steps_per_iteration=3, width=8))
        assert dtypes and set(dtypes) == {np.dtype(TRAIN_DTYPE)}
        assert fqe.q_rows.dtype == fqe.initial_values.dtype == np.float64
        assert behavior.logged_probs(ds.store).dtype == np.float64
        report = evaluate_policy(ds, policy, behavior, OpeConfig(
            gamma=0.9, n_bootstrap=4, fqe=FqeNetConfig(iterations=1, steps_per_iteration=2,
                                                       width=8)))
        values = report.to_dict()
        numbers = [*values["estimates"].values(), *values["standard_errors"].values(),
                   *values["opera_weights"].values(), values["effective_sample_size"]]
        assert all(type(v) is float for v in numbers)
        residuals = bellman_residuals(policy, ds, gamma=0.9)
        assert residuals.samples.dtype == residuals.hist_edges.dtype == np.float64
        assert type(residuals.mean) is type(residuals.std) is float


class _TabularQStub:
    """Duck-typed policy with Q read off a fixed per-state table."""

    def __init__(self, mdp, q_table):
        self.mdp = mdp
        self.q_table = q_table

    def forward_rows(self, store):
        # Q at each frame's nearest state; the residuals read only Q
        dists = ((store.structured[:, None, :] - self.mdp.emission_l_mean[None, :, :]) ** 2
                 ).sum(axis=2)
        return None, self.q_table[dists.argmin(axis=1)], None


class TestBellmanResiduals:
    def deterministic_chain(self):
        # deterministic drift to recovery: zero residual at the DP fixed point
        from careql.synthgym import TabularMDP

        S = 4
        transition = np.zeros((S, N_ACTIONS, S))
        transition[0, :, 1] = 1.0
        transition[1, :, 2] = 1.0   # resolves into survival
        transition[2, :, 2] = 1.0
        transition[3, :, 3] = 1.0
        terminal_prob = np.zeros((S, N_ACTIONS))
        terminal_prob[1:] = 1.0
        absorbing = np.zeros(S, dtype=bool)
        absorbing[2:] = True
        rng = np.random.default_rng(0)
        proto = np.eye(S, 6) * 3.0
        return TabularMDP(
            transition=transition, reward_terminal=np.array([1.0, 1.0, 1.0, -1.0]),
            terminal_prob=terminal_prob, absorbing=absorbing, gamma=0.9,
            initial_dist=np.array([1.0, 0, 0, 0]),
            emission_l_mean=proto, emission_l_noise=0.0,
            emission_n_proto=rng.normal(size=(S, 4)), emission_n_noise=0.0,
            note_present_prob=np.array([1.0, 1.0, 0, 0]),
            context_prototype=rng.normal(size=(S, 4)), first_frame_note_prob=1.0,
            n_severity=2, n_context=1,
            severity_of=np.array([0, 1, -1, -1]), context_of=np.array([0, 0, -1, -1]),
            optimal_action=np.zeros(S, dtype=np.int64),
        )

    def test_zero_residual_at_dp_fixed_point(self):
        from careql.synthgym import BehaviorPolicy

        mdp = self.deterministic_chain()
        v_star, _ = optimal_values(mdp)
        term = mdp.absorbing.astype(float)
        q_star = mdp.transition @ (term * mdp.reward_terminal) \
            + mdp.gamma * (mdp.transition * (1 - term)[None, None, :]) @ v_star
        probs = np.full((4, N_ACTIONS), 1.0 / N_ACTIONS)
        ds = rollout(mdp, BehaviorPolicy(probs), n_episodes=20, seed=1)
        res = bellman_residuals(_TabularQStub(mdp, q_star), ds, gamma=0.9)
        assert np.abs(res.samples).max() < 1e-8

    def test_inflating_q_shifts_mean_residual(self):
        mdp = self.deterministic_chain()
        from careql.synthgym import BehaviorPolicy

        v_star, _ = optimal_values(mdp)
        term = mdp.absorbing.astype(float)
        q_star = mdp.transition @ (term * mdp.reward_terminal) \
            + mdp.gamma * (mdp.transition * (1 - term)[None, None, :]) @ v_star
        probs = np.full((4, N_ACTIONS), 1.0 / N_ACTIONS)
        ds = rollout(mdp, BehaviorPolicy(probs), n_episodes=20, seed=2)
        base = bellman_residuals(_TabularQStub(mdp, q_star), ds, gamma=0.9)
        # inflate Q at ordinary states only: the fitted side rises by c on
        # every transition, the bootstrapped max rises by gamma*c on the
        # non-terminal half (each episode here is exactly 2 transitions,
        # the first bootstrapping from inflated state 1)
        c = 0.5
        inflated = q_star.copy()
        inflated[:2] += c
        shifted = bellman_residuals(_TabularQStub(mdp, inflated), ds, gamma=0.9)
        assert shifted.mean == pytest.approx(base.mean - c + 0.9 * c / 2, abs=1e-12)

    def test_one_forward_matches_two_forwards_of_the_table(self, monkeypatch):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        policy = train(ds, quick_train_cfg(total_steps=50), enc_cfg).policy
        store, frame = ds.store, ds.store.decision_frame
        inputs = build_transition_table(store, policy.strategy, "multimodal")
        q = policy.forward(*(x[frame] for x in inputs))[1]
        next_q = policy.forward(*(x[frame + 1] for x in inputs))[1]
        expected = dqn_target(store.reward, store.done, next_q, 0.9) \
            - q[np.arange(frame.size), store.action]
        forwards = Counter()
        forward = StateEncoder.forward

        def counted(*args, **kwargs):
            forwards["encode"] += 1
            return forward(*args, **kwargs)

        monkeypatch.setattr(StateEncoder, "forward", counted)
        res = bellman_residuals(policy, ds, gamma=0.9)
        assert forwards["encode"] == 1
        assert np.abs(res.samples - expected).max() <= 1e-12

    def test_histogram_counts_sum_to_samples(self):
        _, _, ds, enc_cfg = small_setup(n_episodes=30)
        result = train(ds, quick_train_cfg(total_steps=50), enc_cfg)
        res = bellman_residuals(result.policy, ds, gamma=0.9)
        assert res.hist_counts.sum() == res.samples.size
