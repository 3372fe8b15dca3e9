import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from careql.dataset import N_ACTIONS, N_DOSE_LEVELS, ActionIndex
from careql import synthgym
from careql.synthgym import (
    BehaviorPolicy,
    GeneratorConfig,
    GeneratorError,
    TabularMDP,
    attach_ground_truth,
    best_note_only,
    best_structured_only,
    canonical_inputs,
    eps_soft_matrix,
    exact_policy_value,
    generate_mdp,
    load_ground_truth,
    near_clinician_behavior,
    optimal_values,
    pseudo_embed,
    rollout,
    write_ground_truth,
)


def tiny_mdp(transition, reward_terminal, terminal_prob, initial_dist,
             n_severity, n_context, gamma=0.9, d_n=4, n_features=3):
    """Hand-built MDP; the last two states are the absorbing outcomes."""
    S = transition.shape[0]
    absorbing = np.zeros(S, dtype=bool)
    absorbing[-2:] = True
    n_ord = S - 2
    severity_of = np.full(S, -1)
    context_of = np.full(S, -1)
    for s in range(n_ord):
        severity_of[s] = s // n_context
        context_of[s] = s % n_context
    rng = np.random.default_rng(0)
    return TabularMDP(
        transition=transition.astype(float),
        reward_terminal=np.asarray(reward_terminal, dtype=float),
        terminal_prob=terminal_prob.astype(float),
        absorbing=absorbing, gamma=gamma,
        initial_dist=np.asarray(initial_dist, dtype=float),
        emission_l_mean=rng.normal(size=(S, n_features)), emission_l_noise=0.0,
        emission_n_proto=rng.normal(size=(S, d_n)), emission_n_noise=0.0,
        note_present_prob=np.where(absorbing, 0.0, 1.0),
        context_prototype=rng.normal(size=(S, d_n)),
        first_frame_note_prob=1.0,
        n_severity=n_severity, n_context=n_context,
        severity_of=severity_of, context_of=context_of,
        optimal_action=np.zeros(S, dtype=np.int64),
    )


def certain_death_mdp():
    # every action resolves immediately into the death state
    S = 4  # 2 ordinary + survive + death
    transition = np.zeros((S, N_ACTIONS, S))
    transition[0, :, 3] = 1.0
    transition[1, :, 3] = 1.0
    transition[2, :, 2] = 1.0
    transition[3, :, 3] = 1.0
    terminal_prob = np.ones((S, N_ACTIONS))
    return tiny_mdp(transition, [1, -1, 1, -1], terminal_prob,
                    [0.5, 0.5, 0, 0], n_severity=2, n_context=1)


class TestPseudoEmbed:
    def test_deterministic(self):
        a = pseudo_embed(7, "context", 32, seed=3)
        b = pseudo_embed(7, "context", 32, seed=3)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for sid in (0, 5, 63, 200):
            v = pseudo_embed(sid, "event", 64, seed=1)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_fifty_states_nearly_orthogonal(self):
        vecs = np.stack([pseudo_embed(i, "event", 64, seed=9) for i in range(50)])
        cos = vecs @ vecs.T
        np.fill_diagonal(cos, 0.0)
        assert np.abs(cos).max() < 0.5

    def test_kinds_and_seeds_differ(self):
        assert not np.allclose(pseudo_embed(0, "context", 16, 0),
                               pseudo_embed(0, "event", 16, 0))
        assert not np.allclose(pseudo_embed(0, "event", 16, 0),
                               pseudo_embed(0, "event", 16, 1))


class TestGenerateMdp:
    def test_deterministic_given_config_and_seed(self):
        cfg = GeneratorConfig(n_features=8, d_n=16)
        a = generate_mdp(cfg, seed=4)
        b = generate_mdp(cfg, seed=4)
        assert np.array_equal(a.transition, b.transition)
        assert np.array_equal(a.emission_l_mean, b.emission_l_mean)
        assert a.oracle == b.oracle

    def test_zero_noise_emissions_recover_state_identity(self):
        cfg = GeneratorConfig(n_severity=2, n_context=1, n_features=6, d_n=8,
                              noise_structured=0.0, noise_note=0.0)
        mdp = generate_mdp(cfg, seed=0)
        # distinct rows identify the two ordinary states exactly
        rows = mdp.emission_l_mean[:2]
        assert np.linalg.norm(rows[0] - rows[1]) > 1.0
        ds = rollout(mdp, near_clinician_behavior(mdp), n_episodes=20, seed=1)
        for ep in ds.episodes:
            for tr in ep.transitions:
                dists = np.linalg.norm(mdp.emission_l_mean - tr.obs.structured, axis=1)
                assert int(np.argmin(dists)) == tr.state_id

    def test_certified_gaps_exceed_margin(self):
        cfg = GeneratorConfig(n_features=8, d_n=16, min_gap=0.08)
        mdp = generate_mdp(cfg, seed=2)
        assert mdp.oracle["gap_structured_only"] >= 0.08
        assert mdp.oracle["gap_note_only"] >= 0.08
        v_opt = mdp.oracle["value_optimal"]
        assert mdp.oracle["value_best_structured_only"] < v_opt
        assert mdp.oracle["value_best_note_only"] < v_opt

    def test_transition_rows_stochastic(self):
        mdp = generate_mdp(GeneratorConfig(n_features=8, d_n=16), seed=5)
        assert np.abs(mdp.transition.sum(axis=2) - 1.0).max() < 1e-9

    def test_optimal_action_depends_on_both_factors(self):
        mdp = generate_mdp(GeneratorConfig(n_features=8, d_n=16), seed=6)
        n_v = mdp.n_context
        # vary context at fixed severity and vice versa
        assert len({mdp.optimal_action[0 * n_v + v] for v in range(n_v)}) > 1
        assert len({mdp.optimal_action[u * n_v + 0] for u in range(mdp.n_severity)}) > 1

    def test_default_config_output_pinned(self):
        # the survival curve, drift and jitter are module constants; a change
        # to any of them moves these arrays (elementwise numpy and PCG64 draws
        # only, so the digest is the same on every platform)
        mdp = generate_mdp(GeneratorConfig(), seed=0)
        digest = hashlib.sha256()
        for name in ("transition", "terminal_prob", "reward_terminal", "initial_dist",
                     "optimal_action"):
            digest.update(np.ascontiguousarray(getattr(mdp, name)).tobytes())
        assert digest.hexdigest() == \
            "c0f09049957f5adfe87bccbc5908aca840c0be45d7719d382ba9b0159e18ff5c"

    def test_invalid_config_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(n_severity=1, n_context=1)
        with pytest.raises(GeneratorError):
            GeneratorConfig(gamma=1.0)


def loop_build(cfg, seed, attempt):
    """The arrays of ``_build_mdp(cfg, seed, attempt)``, built state by state
    and action by action over ``ActionIndex`` in the order of the generator's
    arithmetic: the reference for its array expressions."""
    rng = np.random.default_rng([seed, attempt, 913])
    n_u, n_v = cfg.n_severity, cfg.n_context
    n_ord = n_u * n_v
    S = n_ord + 2
    severity_of = np.full(S, -1, dtype=np.int64)
    context_of = np.full(S, -1, dtype=np.int64)
    optimal = np.zeros(S, dtype=np.int64)
    for s in range(n_ord):
        u, v = divmod(s, n_v)
        severity_of[s], context_of[s] = u, v
        optimal[s] = ActionIndex((u + v) % N_DOSE_LEVELS, (u + 2 * v) % N_DOSE_LEVELS).flat
    frac = np.arange(n_u) / max(n_u - 1, 1)
    (best_h, best_s), (worst_h, worst_s) = synthgym.SURVIVE_BEST, synthgym.SURVIVE_WORST
    q_best, q_worst = best_h - frac * (best_h - best_s), worst_h - frac * (worst_h - worst_s)
    q = np.zeros((n_ord, N_ACTIONS))
    for s in range(n_ord):
        u, target = severity_of[s], ActionIndex.from_flat(int(optimal[s]))
        for a in range(N_ACTIONS):
            ai = ActionIndex.from_flat(a)
            gap = 0.5 * (abs(ai.iv_level - target.iv_level)
                         + abs(ai.vaso_level - target.vaso_level))
            q[s, a] = q_worst[u] + (q_best[u] - q_worst[u]) * (1.0 - gap / 4.0)
    q = np.clip(q + synthgym.Q_JITTER * rng.uniform(-1.0, 1.0, size=q.shape), 0.02, 0.98)
    t_u = np.full(n_u, cfg.term_prob_mid)
    t_u[[0, -1]] = cfg.term_prob_edge
    drift = np.zeros((n_u, n_u))
    for u in range(n_u):
        drift[u, u] += synthgym.DRIFT_STAY
        drift[u, max(u - 1, 0)] += (1.0 - synthgym.DRIFT_STAY) / 2.0
        drift[u, min(u + 1, n_u - 1)] += (1.0 - synthgym.DRIFT_STAY) / 2.0
    drift += synthgym.DRIFT_JITTER * rng.uniform(0.0, 1.0, size=drift.shape)
    drift /= drift.sum(axis=1, keepdims=True)
    transition = np.zeros((S, N_ACTIONS, S))
    terminal_prob = np.ones((S, N_ACTIONS))
    initial_dist = np.zeros(S)
    emission_l, emission_n = np.zeros((S, cfg.n_features)), np.zeros((S, cfg.d_n))
    context_proto = np.zeros((S, cfg.d_n))
    for s in range(S):
        # absorbing states take the ids after the last severity and context
        u, v = divmod(s, n_v) if s < n_ord else (n_u + s - n_ord, n_v + s - n_ord)
        emission_l[s] = synthgym.STRUCT_SCALE * pseudo_embed(u, "severity", cfg.n_features, seed)
        emission_n[s] = pseudo_embed(v, "event", cfg.d_n, seed)
        if s >= n_ord:
            transition[s, :, s] = 1.0
            continue
        context_proto[s] = pseudo_embed(v, "context", cfg.d_n, seed)
        t = t_u[u]
        terminal_prob[s] = t
        for a in range(N_ACTIONS):
            transition[s, a, n_ord] = t * q[s, a]
            transition[s, a, n_ord + 1] = t * (1.0 - q[s, a])
            for u2 in range(n_u):
                transition[s, a, u2 * n_v + v] = (1.0 - t) * drift[u, u2]
        initial_dist[s] = 1.0 if n_u < 4 or 0 < u < n_u - 1 else 0.0
    initial_dist /= initial_dist.sum()
    return {"transition": transition, "terminal_prob": terminal_prob,
            "initial_dist": initial_dist, "severity_of": severity_of,
            "context_of": context_of, "optimal_action": optimal,
            "emission_l_mean": emission_l, "emission_n_proto": emission_n,
            "context_prototype": context_proto}


def loop_factors(mdp):
    """``_factor_structure(mdp)`` read severity by severity and state by
    state, with the initial marginals summed one state at a time."""
    n_u, n_v = mdp.n_severity, mdp.n_context
    t_u, q, drift = np.zeros(n_u), np.zeros((n_u, n_v, N_ACTIONS)), np.zeros((n_u, n_u))
    p_u, p_v = np.zeros(n_u), np.zeros(n_v)
    for u in range(n_u):
        t_u[u] = mdp.terminal_prob[u * n_v, 0]
        for v in range(n_v):
            s = u * n_v + v
            q[u, v] = mdp.transition[s, :, n_u * n_v] / max(t_u[u], 1e-300)
            p_u[u] += mdp.initial_dist[s]
            p_v[v] += mdp.initial_dist[s]
        for u2 in range(n_u):
            drift[u, u2] = mdp.transition[u * n_v, 0, u2 * n_v] / max(1.0 - t_u[u], 1e-300)
    return t_u, q, drift, p_u, p_v


def bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


# pairs of (n_severity, n_context); from 9 contexts on, a pairwise sum of an
# initial-distribution row rounds differently from the sequential one
@pytest.mark.parametrize("n_severity, n_context", [(1, 2), (2, 1), (2, 9), (3, 13), (5, 3),
                                                   (9, 8), (12, 9)])
def test_array_generator_matches_the_per_state_loops(n_severity, n_context):
    cfg = GeneratorConfig(n_severity=n_severity, n_context=n_context, n_features=6, d_n=8)
    for seed, attempt in ((0, 0), (7, 3)):
        mdp = synthgym._build_mdp(cfg, seed, attempt)
        for name, want in loop_build(cfg, seed, attempt).items():
            assert bits(getattr(mdp, name)) == bits(want), name
        for got, want in zip(synthgym._factor_structure(mdp), loop_factors(mdp)):
            assert bits(got) == bits(want)


class TestExactPolicyValue:
    def test_immediate_certain_death_is_minus_one(self):
        mdp = certain_death_mdp()
        value = exact_policy_value(mdp, np.zeros(4, dtype=int))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_gamma_zero_pays_first_step_outcome(self):
        # resolves at the first transition; gamma=0 keeps only that payment
        S = 4
        transition = np.zeros((S, N_ACTIONS, S))
        transition[0, :, 2] = 0.8
        transition[0, :, 3] = 0.2
        transition[1, :, 3] = 1.0
        transition[2, :, 2] = 1.0
        transition[3, :, 3] = 1.0
        terminal_prob = np.ones((S, N_ACTIONS))
        mdp = tiny_mdp(transition, [1, -1, 1, -1], terminal_prob, [1, 0, 0, 0],
                       n_severity=2, n_context=1)
        value = exact_policy_value(mdp, np.zeros(S, dtype=int), gamma=0.0)
        assert value == pytest.approx(0.8 * 1.0 + 0.2 * (-1.0), abs=1e-12)

    def test_value_iteration_matches_linear_solve(self):
        # backward induction over a long horizon converges to the solve
        mdp = generate_mdp(GeneratorConfig(n_severity=5, n_context=1,
                                           n_features=6, d_n=8), seed=7)
        behavior = near_clinician_behavior(mdp, 0.4)
        a = exact_policy_value(mdp, behavior.probs)
        b = exact_policy_value(mdp, behavior.probs, horizon=200)
        assert abs(a - b) < 1e-8

    def test_gamma_one_rejected(self):
        with pytest.raises(GeneratorError):
            exact_policy_value(certain_death_mdp(), np.zeros(4, dtype=int), gamma=1.0)

    def test_optimal_values_greedy_matches_construction(self):
        mdp = generate_mdp(GeneratorConfig(n_features=8, d_n=16), seed=8)
        v_star, greedy = optimal_values(mdp)
        free = ~mdp.absorbing
        assert np.array_equal(greedy[free], mdp.optimal_action[free])
        assert float(mdp.initial_dist @ v_star) == pytest.approx(
            mdp.oracle["value_optimal"], abs=1e-8)


@pytest.fixture(scope="module")
def small_mdp():
    return generate_mdp(GeneratorConfig(n_severity=2, n_context=2,
                                        n_features=5, d_n=6, min_gap=0.01),
                        seed=11)


class TestUnimodalOracles:
    """Brute-force enumeration against the closed-form aggregation oracles."""

    def test_best_structured_only_matches_enumeration(self, small_mdp):
        mdp = small_mdp
        # reduce per-severity candidates to actions that can possibly win
        value, policy_u = best_structured_only(mdp)
        best = -np.inf
        for a0 in range(N_ACTIONS):
            for a1 in range(N_ACTIONS):
                full = np.zeros(mdp.n_states, dtype=int)
                for s in range(mdp.n_states - 2):
                    full[s] = (a0, a1)[mdp.severity_of[s]]
                best = max(best, exact_policy_value(mdp, full))
        assert value == pytest.approx(best, abs=1e-9)

    def test_best_note_only_upper_bounds_stationary_policies(self, small_mdp):
        mdp = small_mdp
        bound = best_note_only(mdp)
        best_stationary = -np.inf
        for a0 in range(N_ACTIONS):
            for a1 in range(N_ACTIONS):
                full = np.zeros(mdp.n_states, dtype=int)
                for s in range(mdp.n_states - 2):
                    full[s] = (a0, a1)[mdp.context_of[s]]
                best_stationary = max(best_stationary, exact_policy_value(mdp, full))
        assert bound >= best_stationary - 1e-9
        assert bound <= mdp.oracle["value_optimal"] + 1e-9

    # edits of the 2x2 MDP's tensors (state s = 2u + v) that break one
    # factorization the oracles rely on, and the error each must raise
    @pytest.mark.parametrize("edit, message", [
        # state (0, 1) resolves more often under action 7 than under the others
        (lambda m: {"terminal_prob": np.where(np.arange(N_ACTIONS) == 7, 0.01, 0.0)
                    * (np.arange(m.n_states) == 1)[:, None] + m.terminal_prob},
         "termination must be severity-keyed"),
        # state (1, 0) under action 5 drifts to severity 0 more than the others
        (lambda m: {"transition": m.transition + 0.01 * np.einsum(
            "s,a,t->sat", np.arange(m.n_states) == 2, np.arange(N_ACTIONS) == 5,
            (np.arange(m.n_states) == 0) * 1.0 - (np.arange(m.n_states) == 2))},
         "severity drift must be context- and action-independent"),
        # episodes start at (0, 0) or (1, 1) only
        (lambda m: {"initial_dist": np.array([0.5, 0.0, 0.0, 0.5, 0.0, 0.0])},
         "initial distribution must factorize"),
    ], ids=["termination_by_action", "drift_by_action", "initial_not_a_product"])
    def test_oracles_refuse_a_tensor_that_does_not_factor(self, small_mdp, edit, message):
        mdp = replace(small_mdp, **edit(small_mdp))
        for oracle in (best_structured_only, best_note_only):
            with pytest.raises(GeneratorError, match=message):
                oracle(mdp)


class TestRollout:
    def test_deterministic_mdp_and_policy_identical_episodes(self):
        S = 4
        transition = np.zeros((S, N_ACTIONS, S))
        transition[0, :, 1] = 1.0   # drift to the sicker state
        transition[1, :, 2] = 1.0   # then resolve into survival
        transition[2, :, 2] = 1.0
        transition[3, :, 3] = 1.0
        terminal_prob = np.zeros((S, N_ACTIONS))
        terminal_prob[1:] = 1.0
        mdp = tiny_mdp(transition, [1, -1, 1, -1], terminal_prob, [1, 0, 0, 0],
                       n_severity=2, n_context=1)
        probs = np.zeros((S, N_ACTIONS))
        probs[:, 7] = 1.0
        ds = rollout(mdp, BehaviorPolicy(probs), n_episodes=5, seed=3)
        ref = ds.episodes[0]
        for ep in ds.episodes[1:]:
            assert len(ep) == len(ref) == 2
            assert ep.survived == ref.survived
            for a, b in zip(ep.transitions, ref.transitions):
                assert a.state_id == b.state_id
                assert a.action == b.action
                assert np.array_equal(a.obs.structured, b.obs.structured)

    def test_behavior_prob_recorded(self):
        mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8), seed=1)
        behavior = near_clinician_behavior(mdp, 0.3)
        ds = rollout(mdp, behavior, n_episodes=50, seed=2)
        for ep in ds.episodes:
            for tr in ep.transitions:
                assert tr.behavior_prob == pytest.approx(
                    behavior.probs[tr.state_id, tr.action.flat])

    def test_empirical_action_frequencies_match_behavior(self):
        mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8), seed=3)
        behavior = near_clinician_behavior(mdp, 0.3)
        ds = rollout(mdp, behavior, n_episodes=10_000, seed=4)
        counts = np.zeros((mdp.n_states, N_ACTIONS))
        for ep in ds.episodes:
            for tr in ep.transitions:
                counts[tr.state_id, tr.action.flat] += 1
        for s in range(mdp.n_states):
            total = counts[s].sum()
            if total < 2000:
                continue
            assert np.abs(counts[s] / total - behavior.probs[s]).max() < 0.02

    def test_monte_carlo_return_matches_dp_oracle(self):
        # 1e5 episodes against the truncation-aware finite-horizon oracle
        cfg = GeneratorConfig(n_severity=4, n_context=2, n_features=4, d_n=4)
        mdp = generate_mdp(cfg, seed=5)
        behavior = near_clinician_behavior(mdp, 0.3)
        max_len = 18
        ds = rollout(mdp, behavior, n_episodes=100_000, max_len=max_len, seed=6)
        returns = np.array([ep.discounted_return(mdp.gamma) for ep in ds.episodes])
        oracle = exact_policy_value(mdp, behavior.probs, horizon=max_len)
        se = returns.std(ddof=1) / np.sqrt(returns.size)
        assert abs(returns.mean() - oracle) < max(3 * se, 0.01)

    def test_truncation_scores_reached_state(self):
        mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8, min_gap=0.0,
                                           term_prob_mid=0.01, term_prob_edge=0.01),
                           seed=7)
        ds = rollout(mdp, near_clinician_behavior(mdp), n_episodes=30, max_len=3, seed=8)
        for ep in ds.episodes:
            assert len(ep) <= 3
            last = ep.transitions[-1]
            assert last.done
            expected = mdp.reward_terminal[last.next_state_id]
            assert last.reward == expected

    def test_splits_assigned(self):
        mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8), seed=9)
        ds = rollout(mdp, near_clinician_behavior(mdp), n_episodes=10, seed=10,
                     split_fractions=(0.6, 0.2, 0.2))
        splits = [ep.split for ep in ds.episodes]
        assert splits.count("train") == 6
        assert splits.count("val") == 2
        assert splits.count("test") == 2


class TestGroundTruth:
    def test_round_trip_and_attach(self, tmp_path):
        from careql.dataset import export
        from stores import ingest_parsed

        mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8), seed=12)
        behavior = near_clinician_behavior(mdp, 0.3)
        ds = rollout(mdp, behavior, n_episodes=25, seed=13)
        gt_path = tmp_path / "ground_truth.json"
        write_ground_truth(gt_path, mdp, behavior, ds)
        gt = load_ground_truth(gt_path)
        assert np.allclose(gt.mdp.transition, mdp.transition)
        for f in fields(TabularMDP):
            written, read = getattr(mdp, f.name), getattr(gt.mdp, f.name)
            assert type(read) is type(written), f.name
            assert np.asarray(read).dtype == np.asarray(written).dtype, f.name
            if isinstance(written, dict):
                assert read == written, f.name
            else:
                assert np.array_equal(read, written), f.name
        assert gt.oracle_values["value_optimal"] == pytest.approx(
            mdp.oracle["value_optimal"])

        paths = export(ds, tmp_path)
        loaded = ingest_parsed(paths.values())
        attached = attach_ground_truth(loaded, gt)
        for ep_orig, ep_new in zip(ds.episodes, attached.episodes):
            for a, b in zip(ep_orig.transitions, ep_new.transitions):
                assert a.state_id == b.state_id
                assert a.next_state_id == b.next_state_id
                assert a.behavior_prob == pytest.approx(b.behavior_prob)


def test_eps_soft_matrix_rows():
    probs = eps_soft_matrix(np.array([3, 0]), 25, eps=0.01)
    assert probs.shape == (2, 25)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert probs[0, 3] == pytest.approx(0.99)
    assert probs[1].argmax() == 0


def test_canonical_inputs_shapes():
    mdp = generate_mdp(GeneratorConfig(n_features=6, d_n=8), seed=14)
    canon = canonical_inputs(mdp)
    assert canon.structured.shape == (mdp.n_states, 6)
    assert canon.event_note.shape == (mdp.n_states, 8)
    assert canon.context_note.shape == (mdp.n_states, 8)
