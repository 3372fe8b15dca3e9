from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from careql import ope as ope_mod
from careql.dataset import N_ACTIONS, store_of
from careql.netcore import DuelingQNetwork, Tensor, clone_param_values, load_param_values, no_grad
from careql.ope import (
    BehaviorFitConfig,
    FqeNetConfig,
    LoggedBehavior,
    OpeConfig,
    OpeError,
    TabularPolicy,
    _tabular_fqe,
    dr,
    eval_batch,
    evaluate_policy,
    fit_behavior,
    fqe_network,
    fqe_tabular,
    opera,
    wis,
)
from careql.synthgym import (
    BehaviorPolicy,
    GeneratorConfig,
    GeneratorError,
    TabularMDP,
    eps_soft_matrix,
    exact_policy_value,
    generate_mdp,
    near_clinician_behavior,
    rollout,
    state_values,
)

GAMMA = 0.95
MAX_LEN = 18


@pytest.fixture(scope="module")
def synth():
    """5-state chain, behavior eps=0.3, a distinct eps-soft target policy."""
    cfg = GeneratorConfig(n_severity=5, n_context=1, n_features=6, d_n=4,
                          gamma=GAMMA, min_gap=0.0)
    mdp = generate_mdp(cfg, seed=0)
    behavior = near_clinician_behavior(mdp, 0.3)
    dataset = rollout(mdp, behavior, n_episodes=2000, max_len=MAX_LEN, seed=1)
    target = TabularPolicy(eps_soft_matrix(mdp.optimal_action, N_ACTIONS, eps=0.05))
    oracle = exact_policy_value(mdp, target.probs, gamma=GAMMA, horizon=MAX_LEN)
    return mdp, behavior, dataset, target, oracle


def deterministic_chain_mdp():
    """Action-independent deterministic drift; every episode lasts 2 steps."""
    S = 4
    transition = np.zeros((S, N_ACTIONS, S))
    transition[0, :, 1] = 1.0
    transition[1, :, 2] = 1.0   # resolve into survival
    transition[2, :, 2] = 1.0
    transition[3, :, 3] = 1.0
    terminal_prob = np.zeros((S, N_ACTIONS))
    terminal_prob[1:] = 1.0
    absorbing = np.zeros(S, dtype=bool)
    absorbing[2:] = True
    rng = np.random.default_rng(0)
    return TabularMDP(
        transition=transition, reward_terminal=np.array([1.0, 1.0, 1.0, -1.0]),
        terminal_prob=terminal_prob, absorbing=absorbing, gamma=GAMMA,
        initial_dist=np.array([1.0, 0, 0, 0]),
        emission_l_mean=np.eye(S, 5), emission_l_noise=0.0,
        emission_n_proto=rng.normal(size=(S, 4)), emission_n_noise=0.0,
        note_present_prob=np.array([1.0, 1.0, 0.0, 0.0]),
        context_prototype=rng.normal(size=(S, 4)), first_frame_note_prob=1.0,
        n_severity=2, n_context=1,
        severity_of=np.array([0, 1, -1, -1]), context_of=np.array([0, 0, -1, -1]),
        optimal_action=np.zeros(S, dtype=np.int64),
    )


def decision_states(batch):
    """The latent state of every decision of a batch."""
    return batch.store.state_id[batch.store.decision_frame]


def q_pi_table(mdp, pi):
    v = state_values(mdp, pi, gamma=mdp.gamma)
    term = mdp.absorbing.astype(float)
    return mdp.transition @ (term * mdp.reward_terminal) \
        + mdp.gamma * (mdp.transition * (1 - term)[None, None, :]) @ v


class TestWis:
    def test_behavior_evaluates_to_mean_return(self, synth):
        mdp, behavior, dataset, _, _ = synth
        target = TabularPolicy(behavior.probs)
        result = wis(eval_batch(dataset, target, LoggedBehavior()), GAMMA)
        returns = np.array([ep.discounted_return(GAMMA) for ep in dataset.episodes])
        assert result.estimate == pytest.approx(returns.mean(), abs=1e-12)
        assert np.allclose(result.weights, 1.0)

    def test_single_episode_returns_its_return(self, synth):
        _, _, dataset, target, _ = synth
        ep = dataset.episodes[0]
        result = wis(eval_batch(replace(dataset, episodes=[ep]), target, LoggedBehavior()), GAMMA)
        assert result.estimate == pytest.approx(ep.discounted_return(GAMMA))

    def test_estimate_bounded_by_observed_returns(self, synth):
        _, _, dataset, target, _ = synth
        result = wis(eval_batch(dataset, target, LoggedBehavior()), GAMMA)
        assert result.returns.min() - 1e-12 <= result.estimate
        assert result.estimate <= result.returns.max() + 1e-12

    def test_close_to_oracle_on_synthetic(self, synth):
        _, _, dataset, target, oracle = synth
        result = wis(eval_batch(dataset, target, LoggedBehavior()), GAMMA)
        # bootstrap SE via report happens elsewhere; coarse bound here
        assert abs(result.estimate - oracle) < 0.1

    def test_zero_behavior_probability_rejected(self, synth):
        from dataclasses import replace

        _, _, dataset, target, _ = synth
        ep = dataset.episodes[0]
        bad = replace(ep, transitions=tuple(
            replace(tr, behavior_prob=None) for tr in ep.transitions))
        with pytest.raises(OpeError, match="behavior"):
            wis(eval_batch(replace(dataset, episodes=[bad]), target, LoggedBehavior()), GAMMA)


class TestFqeTabular:
    def empirical_dp_value(self, episodes, pi, gamma, n_states):
        """Independent linear solve of the empirical Bellman system."""
        sums = np.zeros((n_states, N_ACTIONS))
        counts = np.zeros((n_states, N_ACTIONS))
        flows = {}
        for ep in episodes:
            for tr in ep.transitions:
                s, a = tr.state_id, tr.action.flat
                counts[s, a] += 1
                sums[s, a] += tr.reward
                if not tr.done:
                    flows[(s, a, tr.next_state_id)] = flows.get(
                        (s, a, tr.next_state_id), 0) + 1
        M = np.zeros((n_states, n_states))
        c = np.zeros(n_states)
        for s in range(n_states):
            for a in range(N_ACTIONS):
                if counts[s, a] == 0 or pi[s, a] == 0:
                    continue
                c[s] += pi[s, a] * sums[s, a] / counts[s, a]
                for (s2, a2, ns), k in flows.items():
                    if s2 == s and a2 == a:
                        M[s, ns] += pi[s, a] * gamma * k / counts[s, a]
        v = np.linalg.solve(np.eye(n_states) - M, c)
        init = [v[ep.transitions[0].state_id] for ep in episodes]
        return float(np.mean(init))

    def test_matches_independent_linear_solve(self, synth):
        mdp, _, dataset, target, _ = synth
        subset = list(dataset.episodes[:800])
        result = fqe_tabular(eval_batch(replace(dataset, episodes=subset), target),
                             target.probs, GAMMA)
        expected = self.empirical_dp_value(subset, target.probs, GAMMA,
                                           mdp.n_states)
        assert result.estimate == pytest.approx(expected, abs=1e-6)

    def test_gamma_zero_gives_mean_immediate_reward(self, synth):
        mdp, _, dataset, target, _ = synth
        batch = eval_batch(dataset, target)
        result = fqe_tabular(batch, target.probs, 0.0)
        # with gamma=0, Q(s,a) is the empirical mean immediate reward
        sums = np.zeros((mdp.n_states, N_ACTIONS))
        counts = np.zeros((mdp.n_states, N_ACTIONS))
        for ep in dataset.episodes:
            for tr in ep.transitions:
                counts[tr.state_id, tr.action.flat] += 1
                sums[tr.state_id, tr.action.flat] += tr.reward
        q = sums / np.maximum(counts, 1.0)
        expected = np.mean([
            float(target.probs[ep.transitions[0].state_id]
                  @ q[ep.transitions[0].state_id])
            for ep in dataset.episodes])
        assert result.estimate == pytest.approx(expected, abs=1e-9)
        np.testing.assert_allclose(result.q_rows, q[decision_states(batch)], atol=1e-12)

    def test_close_to_true_dp_value(self, synth):
        mdp, _, dataset, target, oracle = synth
        result = fqe_tabular(eval_batch(dataset, target), target.probs, GAMMA)
        assert abs(result.estimate - oracle) < 0.1


class TestFqeNetwork:
    def test_close_to_oracle(self, synth):
        mdp, _, dataset, target, oracle = synth
        cfg = FqeNetConfig(iterations=15, steps_per_iteration=80, width=32,
                           depth=2, seed=0)
        result = fqe_network(eval_batch(replace(dataset, episodes=dataset.episodes[:1000]),
                                        target), GAMMA, cfg)
        assert abs(result.estimate - oracle) < 0.15

    def test_gamma_zero_matches_mean_immediate_reward(self, synth):
        # with gamma=0 the value is the mean immediate reward of the target
        # policy at initial states; the tabular solve computes it exactly
        mdp, _, dataset, target, _ = synth
        cfg = FqeNetConfig(iterations=6, steps_per_iteration=120, width=32,
                           seed=0)
        subset = list(dataset.episodes[:500])
        batch = eval_batch(replace(dataset, episodes=subset), target)
        result = fqe_network(batch, 0.0, cfg)
        exact = fqe_tabular(batch, target.probs, 0.0)
        assert abs(result.estimate - exact.estimate) < 0.05
        # q_rows is the fitted Q at every decision, initial ones included
        first = batch.store.offsets
        assert result.q_rows.shape == batch.pi.shape
        np.testing.assert_allclose((batch.pi[first] * result.q_rows[first]).sum(axis=1),
                                   result.initial_values, atol=1e-12)

    def test_iteration_k_regresses_on_its_own_iterate(self, synth, monkeypatch):
        # iteration k's regression targets are r + gamma (1 - d) sum_a
        # pi(a|s') Q_k(s', a), with Q_k the network as iteration k starts:
        # at k = 0 a network freshly drawn from the seed. Random features make
        # every decision's row unique, so a minibatch's rows name its decisions.
        _, _, dataset, target, _ = synth
        batch = eval_batch(replace(dataset, episodes=dataset.episodes[:60]), target)
        batch = replace(batch, features=np.random.default_rng(7).normal(
            size=(batch.features.shape[0], 5)))
        cfg = FqeNetConfig(iterations=3, steps_per_iteration=4, width=16, depth=1, seed=2)
        store, X, X_next = batch.store, batch.decision_features, batch.next_features
        decision_of = {row.tobytes(): k for k, row in enumerate(X)}
        assert len(decision_of) == X.shape[0]
        forwards, iterates, regressions = [], [], []
        real_call, real_loss = DuelingQNetwork.__call__, ope_mod.dqn_loss

        def call(net, x):
            forwards.append((net, x.data))
            return real_call(net, x)

        def loss(q, actions, targets):
            net, x = forwards[-1]
            if len(regressions) % cfg.steps_per_iteration == 0:
                iterates.append(clone_param_values(net.params()))
            regressions.append((len(iterates) - 1, [decision_of[r.tobytes()] for r in x],
                                targets))
            return real_loss(q, actions, targets)

        monkeypatch.setattr(DuelingQNetwork, "__call__", call)
        monkeypatch.setattr(ope_mod, "dqn_loss", loss)
        fqe_network(batch, GAMMA, cfg)

        def network(values=None):
            net = DuelingQNetwork(X.shape[1], np.random.default_rng([cfg.seed, 41]),
                                  width=cfg.width, depth=cfg.depth, n_actions=N_ACTIONS,
                                  name="fqe")
            if values is not None:
                load_param_values(net.params(), values)
            return net

        assert len(iterates) == cfg.iterations
        assert len(regressions) == cfg.iterations * cfg.steps_per_iteration
        for key, p in network().params().items():
            assert p.data.tobytes() == iterates[0][key].tobytes(), key
        assert any(not np.array_equal(iterates[0][k], iterates[1][k]) for k in iterates[0])
        expected = []
        for values in iterates:
            with no_grad():
                next_q = network(values)(Tensor(X_next)).data
            y = store.reward.copy()
            for i in np.flatnonzero(~store.done):
                assert store.episode_index[i + 1] == store.episode_index[i]
                y[i] += GAMMA * (batch.pi[i + 1] * next_q[i]).sum()
            expected.append(y)
        for k, decisions, targets in regressions:
            np.testing.assert_allclose(targets, expected[k][decisions], rtol=1e-12, atol=1e-12)


class TestDr:
    def test_zero_model_reduces_to_pdis(self, synth):
        _, _, dataset, target, _ = synth
        subset = list(dataset.episodes[:300])
        estimate = dr(eval_batch(replace(dataset, episodes=subset), target, LoggedBehavior()),
                      None, GAMMA)
        # explicit self-normalized per-decision importance sampling
        n = len(subset)
        t_max = max(len(ep) for ep in subset)
        rho = np.ones((n, t_max))
        rewards = np.zeros((n, t_max))
        for i, ep in enumerate(subset):
            pi = target.probs[[tr.state_id for tr in ep.transitions]]
            beta = np.array([tr.behavior_prob for tr in ep.transitions])
            acts = [tr.action.flat for tr in ep.transitions]
            ratios = pi[np.arange(len(acts)), acts] / beta
            cum = np.cumprod(ratios)
            rho[i, :len(acts)] = cum
            rho[i, len(acts):] = cum[-1]
            rewards[i, :len(acts)] = [tr.reward for tr in ep.transitions]
        w = rho / rho.sum(axis=0, keepdims=True)
        pdis = float((GAMMA ** np.arange(t_max)) @ (w * rewards).sum(axis=0))
        assert estimate == pytest.approx(pdis, abs=1e-12)

    def test_exact_model_on_deterministic_mdp_is_exact(self):
        mdp = deterministic_chain_mdp()
        behavior = BehaviorPolicy(np.full((4, N_ACTIONS), 1.0 / N_ACTIONS))
        dataset = rollout(mdp, behavior, n_episodes=60, seed=3)
        target = TabularPolicy(eps_soft_matrix(np.array([4, 9, 0, 0]),
                                               N_ACTIONS, eps=0.2))
        batch = eval_batch(dataset, target, LoggedBehavior())
        q_rows = q_pi_table(mdp, target.probs)[decision_states(batch)]
        estimate = dr(batch, q_rows, GAMMA)
        truth = exact_policy_value(mdp, target.probs, gamma=GAMMA)
        assert estimate == pytest.approx(truth, abs=1e-6)

    def test_dr_corrects_model_bias_better_than_direct_method(self, synth):
        mdp, behavior, _, target, _ = synth
        oracle_inf = exact_policy_value(mdp, target.probs, gamma=GAMMA)
        wins = 0
        for seed in range(5):
            ds = rollout(mdp, behavior, n_episodes=1500, max_len=MAX_LEN,
                         seed=100 + seed)
            biased = q_pi_table(mdp, target.probs) + 0.2
            dm = np.mean([
                float(target.probs[ep.transitions[0].state_id]
                      @ biased[ep.transitions[0].state_id])
                for ep in ds.episodes])
            batch = eval_batch(replace(ds, episodes=list(ds.episodes)), target,
                               LoggedBehavior())
            dr_est = dr(batch, biased[decision_states(batch)], GAMMA)
            if abs(dr_est - oracle_inf) < abs(dm - oracle_inf):
                wins += 1
        assert wins >= 4


class TestOpera:
    def test_identical_estimators_return_common_value(self):
        reps = np.random.default_rng(0).normal(size=200)
        result = opera([("a", 0.5, reps), ("b", 0.5, reps), ("c", 0.5, reps)])
        assert result.estimate == pytest.approx(0.5)
        w = np.array(list(result.weights.values()))
        assert np.all(w >= -1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_variance_component_takes_all_weight(self):
        rng = np.random.default_rng(1)
        result = opera([("noisy", 0.4, rng.normal(size=100)),
                        ("exact", 0.7, np.full(100, 0.7))])
        assert result.weights["exact"] == pytest.approx(1.0)
        assert result.estimate == pytest.approx(0.7)

    def test_weights_convex_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            comps = [(f"e{k}", rng.normal(), rng.normal(scale=rng.uniform(0.5, 2),
                                                        size=150))
                     for k in range(3)]
            result = opera(comps)
            w = np.array(list(result.weights.values()))
            assert np.all(w >= -1e-12)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_aggregate_beats_worst_component(self):
        rng = np.random.default_rng(3)
        truth = 1.0
        reps_good = truth + rng.normal(scale=0.05, size=300)
        reps_bad = truth + rng.normal(scale=1.0, size=300)
        result = opera([("good", reps_good.mean(), reps_good),
                        ("bad", reps_bad.mean(), reps_bad)])
        assert result.weights["good"] > result.weights["bad"]

    def test_needs_two_estimators(self):
        with pytest.raises(OpeError):
            opera([("only", 0.0, np.zeros(10))])


class TestFitBehavior:
    def test_recovers_behavior_within_tv(self):
        # every latent state is an initial state here, so all states get
        # enough visits for the 0.05 total-variation budget
        cfg = GeneratorConfig(n_severity=3, n_context=1, n_features=6, d_n=4,
                              gamma=GAMMA, min_gap=0.0)
        mdp = generate_mdp(cfg, seed=2)
        behavior = near_clinician_behavior(mdp, 0.3)
        ds = rollout(mdp, behavior, n_episodes=10_000, max_len=MAX_LEN, seed=7)
        fitted = fit_behavior(ds, cfg=BehaviorFitConfig(floor=1e-4, steps=6000,
                                                        learning_rate=2e-2,
                                                        seed=0))
        dist = fitted.action_dist(mdp.emission_l_mean[:mdp.n_states - 2])
        tv = 0.5 * np.abs(dist - behavior.probs[:mdp.n_states - 2]).sum(axis=1)
        assert tv.max() < 0.05

    def test_single_action_dataset_near_point_mass(self, synth):
        from dataclasses import replace
        from careql.dataset import ActionIndex

        _, _, dataset, _, _ = synth
        eps = []
        for ep in dataset.episodes[:200]:
            eps.append(replace(ep, transitions=tuple(
                replace(tr, action=ActionIndex.from_flat(13))
                for tr in ep.transitions)))
        fitted = fit_behavior(replace(dataset, episodes=eps),
                              cfg=BehaviorFitConfig(floor=1e-3, steps=600))
        dist = fitted.action_dist(eps[0].transitions[0].obs.structured[None, :])[0]
        assert dist.argmax() == 13
        assert dist.min() >= 1e-3 - 1e-15

    def test_floor_holds_everywhere(self, synth):
        _, _, dataset, _, _ = synth
        fitted = fit_behavior(replace(dataset, episodes=dataset.episodes[:100]),
                              cfg=BehaviorFitConfig(floor=5e-3, steps=200))
        rng = np.random.default_rng(0)
        dist = fitted.action_dist(rng.normal(size=(50, 6)))
        assert dist.min() >= 5e-3 - 1e-15
        assert np.allclose(dist.sum(axis=1), 1.0)


class TestEvaluatePolicy:
    def test_full_report_tabular_mode(self, synth):
        mdp, _, dataset, target, oracle = synth
        cfg = OpeConfig(gamma=GAMMA, n_bootstrap=100, seed=0)
        report = evaluate_policy(dataset, target, LoggedBehavior(), cfg,
                                 policy_table=target.probs,
                                 n_states=mdp.n_states)
        assert report.fqe_mode == "tabular"
        assert abs(report.wis - oracle) <= 3 * report.standard_errors["wis"] + 0.02
        assert abs(report.dr - oracle) <= 3 * report.standard_errors["dr"] + 0.02
        w = np.array(list(report.opera_weights.values()))
        assert np.all(w >= -1e-12) and w.sum() == pytest.approx(1.0, abs=1e-9)
        assert report.effective_sample_size > 10
        payload = report.to_dict()
        assert set(payload["estimates"]) == {"wis", "dr", "fqe", "opera"}

    def test_network_mode_selected_without_table(self, synth):
        _, _, dataset, target, _ = synth
        cfg = OpeConfig(gamma=GAMMA, n_bootstrap=50, seed=0,
                        fqe=FqeNetConfig(iterations=5, steps_per_iteration=40,
                                         width=16))
        report = evaluate_policy(replace(dataset, episodes=dataset.episodes[:300]), target,
                                 LoggedBehavior(), cfg)
        assert report.fqe_mode == "network"
        assert np.isfinite(report.opera)


class TestPolicyRows:
    """The policy types share one rows-are-distributions rule, each raising
    its own error."""

    def test_one_dimensional_tabular_policy_is_an_ope_error(self):
        with pytest.raises(OpeError, match="policy rows must be distributions"):
            TabularPolicy(np.full(N_ACTIONS, 1.0 / N_ACTIONS))

    def test_rows_off_by_more_than_1e_9_rejected_everywhere(self, synth):
        mdp = synth[0]
        probs = np.full((mdp.n_states, N_ACTIONS), 1.0 / N_ACTIONS)
        probs[0, 0] += 5e-9
        makers = ((TabularPolicy, OpeError), (BehaviorPolicy, GeneratorError),
                  (lambda p: exact_policy_value(mdp, p), GeneratorError))
        for make, error in makers:
            with pytest.raises(error):
                make(probs)
        probs[0, 0] -= 5e-9
        for make, _ in makers:
            make(probs)

    @pytest.mark.parametrize("probs, message", [
        ([0.5, 0.5], r"behavior probs must be 2-d, got \(2,\)"),
        ([[0.5, 0.6]], "behavior rows must sum to 1 within 1e-9"),
        ([[1.5, -0.5]], "behavior probabilities must be nonnegative"),
    ])
    def test_behavior_policy_keeps_its_messages(self, probs, message):
        with pytest.raises(GeneratorError, match=message):
            BehaviorPolicy(np.array(probs))

    @pytest.mark.parametrize("clip", [150.0, 100.5, 0.0, -5.0])
    def test_clip_percentile_outside_0_100_rejected(self, clip):
        with pytest.raises(OpeError, match="clip_percentile"):
            OpeConfig(clip_percentile=clip)


def strip(episode, **fields):
    """The episode with the given transition fields set on every transition."""
    from dataclasses import replace

    return replace(episode, transitions=tuple(replace(tr, **fields)
                                              for tr in episode.transitions))


class TestMissingDataNamesEpisode:
    """Each error names the first episode, in order, that lacks the data."""

    def test_logged_behavior_without_probs(self, synth):
        _, _, dataset, _, _ = synth
        eps = list(dataset.episodes[:4])
        eps[1], eps[3] = strip(eps[1], behavior_prob=None), strip(eps[3], behavior_prob=None)
        with pytest.raises(OpeError, match=f"episode {eps[1].episode_id!r} has no logged"):
            LoggedBehavior().logged_probs(store_of(eps))

    def test_fqe_tabular_without_state_ids(self, synth):
        mdp, _, dataset, target, _ = synth
        eps = list(dataset.episodes[:4])
        eps[2] = strip(eps[2], next_state_id=None)
        eps[3] = strip(eps[3], state_id=None)
        with pytest.raises(OpeError, match=f"episode {eps[2].episode_id!r} lacks state ids"):
            fqe_tabular(eval_batch(replace(dataset, episodes=eps), target), target.probs, GAMMA)

    def test_zero_behavior_probability(self, synth):
        _, _, dataset, target, _ = synth
        eps = list(dataset.episodes[:4])

        class ZeroOnLaterEpisodes:
            def logged_probs(self, store):
                probs = LoggedBehavior().logged_probs(store).copy()
                probs[np.cumsum(store.lengths)[2:] - 1] = 0.0   # last step of episodes 2+
                return probs

        with pytest.raises(OpeError, match=f"episode {eps[2].episode_id!r}: zero behavior"):
            wis(eval_batch(replace(dataset, episodes=eps), target, ZeroOnLaterEpisodes()), GAMMA)


def first_episode_beyond(episodes, n_rows):
    """The id of the first episode with a state id at or beyond n_rows."""
    return next(ep.episode_id for ep in episodes
                if any(max(tr.state_id, tr.next_state_id) >= n_rows
                       for tr in ep.transitions))


class TestStateIdOutsideTable:
    """A state id beyond the table's rows is a data error naming the first
    such episode, in every tabular entry point."""

    N_ROWS = 5

    @pytest.mark.parametrize("entry", ["evaluation_rows", "fqe_tabular"])
    def test_names_first_episode(self, synth, entry):
        _, _, dataset, target, _ = synth
        eps = list(dataset.episodes[:40])
        # every episode ends in an absorbing state beyond the table; the
        # first two stay in state 0 so that a later one is named
        eps[0], eps[1] = (strip(ep, state_id=0, next_state_id=0) for ep in eps[:2])
        small = TabularPolicy(np.full((self.N_ROWS, N_ACTIONS), 1.0 / N_ACTIONS))
        batch = eval_batch(replace(dataset, episodes=eps), target)
        call = {"evaluation_rows": lambda: small.evaluation_rows(batch.store),
                "fqe_tabular": lambda: fqe_tabular(batch, small.probs, GAMMA)}[entry]
        expected = first_episode_beyond(eps, self.N_ROWS)
        with pytest.raises(OpeError, match=f"episode {expected!r} has a state id beyond"):
            call()


@pytest.fixture(scope="module")
def tiny_mdp():
    cfg = GeneratorConfig(n_severity=3, n_context=2, n_features=4, d_n=4,
                          gamma=GAMMA, min_gap=0.0)
    return generate_mdp(cfg, seed=3)


def small_rollout(mdp, seed, n_episodes, target_eps):
    """Logged episodes and an eps-soft tabular target with random actions."""
    data = rollout(mdp, near_clinician_behavior(mdp, 0.3), n_episodes=n_episodes,
                   max_len=8, seed=seed)
    actions = np.random.default_rng(seed).integers(0, N_ACTIONS, size=mdp.n_states)
    return data, TabularPolicy(eps_soft_matrix(actions, N_ACTIONS, eps=target_eps))


def pdis_loop(episodes, probs, gamma):
    """Self-normalized per-decision importance sampling, one episode at a time."""
    t_max = max(len(ep) for ep in episodes)
    rho = np.ones((len(episodes), t_max))
    rewards = np.zeros((len(episodes), t_max))
    for i, ep in enumerate(episodes):
        weight = 1.0
        for t, tr in enumerate(ep.transitions):
            weight *= probs[tr.state_id, tr.action.flat] / tr.behavior_prob
            rho[i, t] = weight
            rewards[i, t] = tr.reward
        rho[i, len(ep):] = weight
    w = rho / rho.sum(axis=0, keepdims=True)
    return float((gamma ** np.arange(t_max)) @ (w * rewards).sum(axis=0))


rollout_cases = dict(seed=st.integers(0, 2 ** 16), n_episodes=st.integers(2, 25),
                     target_eps=st.floats(0.05, 0.9))


class TestBatchEstimatorProperties:
    """Invariants of the batch estimators on small random rollouts."""

    @settings(max_examples=100, deadline=None)
    @given(**rollout_cases, clip=st.sampled_from([None, 50.0, 99.0]))
    def test_wis_lies_within_logged_returns(self, tiny_mdp, seed, n_episodes,
                                            target_eps, clip):
        data, target = small_rollout(tiny_mdp, seed, n_episodes, target_eps)
        returns = [ep.discounted_return(GAMMA) for ep in data.episodes]
        estimate = wis(eval_batch(data, target, LoggedBehavior()), GAMMA,
                       clip_percentile=clip).estimate
        assert min(returns) - 1e-12 <= estimate <= max(returns) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(**rollout_cases)
    def test_dr_without_model_is_pdis(self, tiny_mdp, seed, n_episodes, target_eps):
        data, target = small_rollout(tiny_mdp, seed, n_episodes, target_eps)
        estimate = dr(eval_batch(data, target, LoggedBehavior()), None, GAMMA)
        assert estimate == pytest.approx(pdis_loop(data.episodes, target.probs, GAMMA),
                                         abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(**rollout_cases)
    def test_opera_weights_on_simplex(self, tiny_mdp, seed, n_episodes, target_eps):
        data, target = small_rollout(tiny_mdp, seed, n_episodes, target_eps)
        report = evaluate_policy(data, target, LoggedBehavior(),
                                 OpeConfig(gamma=GAMMA, n_bootstrap=20, seed=seed),
                                 policy_table=target.probs, n_states=tiny_mdp.n_states)
        w = np.array(list(report.opera_weights.values()))
        assert (w >= -1e-12).all() and w.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(**rollout_cases, data=st.data())
    def test_replicate_is_fqe_of_its_resample(self, tiny_mdp, seed, n_episodes,
                                              target_eps, data):
        logged, target = small_rollout(tiny_mdp, seed, n_episodes, target_eps)
        idx = np.array(data.draw(st.lists(st.integers(0, n_episodes - 1),
                                          min_size=n_episodes, max_size=n_episodes)))
        replicate = _tabular_fqe(logged.store, target.probs, GAMMA,
                                 np.bincount(idx, minlength=n_episodes))[0]
        resample = replace(logged, episodes=[logged.episodes[i] for i in idx])
        refit = fqe_tabular(eval_batch(resample, target), target.probs, GAMMA)
        assert replicate == pytest.approx(refit.estimate, abs=1e-12)
        unit = _tabular_fqe(logged.store, target.probs, GAMMA, np.ones(n_episodes))[0]
        assert unit == fqe_tabular(eval_batch(logged, target), target.probs, GAMMA).estimate
