"""Off-policy evaluation of a target policy from logged episodes.

Estimators: self-normalized trajectory-weighted returns (WIS), weighted
per-decision doubly robust (DR), fitted Q-evaluation (FQE, tabular when
latent state ids are available, otherwise an iterated network regression),
and a convex aggregate of the three whose weights minimize the
bootstrap-estimated MSE (OPERA). Greedy policies must be softened (see
``soften``) before evaluation so importance ratios stay well-defined.

Target policies, behavior models and Q-models are duck-typed and answer for
a list of episodes at once, so a learned policy runs one batched forward per
call instead of one per episode. Each method returns one array per episode,
in order:

- target policy: ``episodes_action_probs(episodes)`` -> (T, A) each, and
  ``episodes_state_features(episodes)`` -> (T+1, dim) each, for value
  fitting;
- behavior model: ``episodes_logged_probs(episodes)`` -> (T,) each, read off
  the logged ``behavior_prob`` fields or a fitted 25-way classifier
  (``fit_behavior``);
- Q-model: ``episodes_q_matrix(episodes)`` -> (T, A) each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dataset import Episode, N_ACTIONS, OfflineDataset
from .netcore import (
    Adam,
    Dense,
    DuelingQNetwork,
    Tensor,
    clone_param_values,
    load_param_values,
    no_grad,
)

Array = np.ndarray


class OpeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Target policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularPolicy:
    """State-indexed stochastic policy; needs latent state ids on the data."""

    probs: Array  # (S, A)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-8 or self.probs.min() < 0:
            raise OpeError("policy rows must be distributions")

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]

    def _state_ids(self, episode: Episode) -> Array:
        ids = [tr.state_id for tr in episode.transitions]
        ids.append(episode.transitions[-1].next_state_id)
        if any(s is None for s in ids):
            raise OpeError(
                f"episode {episode.episode_id!r} lacks state ids; tabular "
                f"policies need synthetic ground truth attached"
            )
        return np.asarray(ids, dtype=np.int64)

    def episode_action_probs(self, episode: Episode) -> Array:
        return self.probs[self._state_ids(episode)[:-1]]

    def episodes_action_probs(self, episodes: Sequence[Episode]) -> list[Array]:
        return [self.episode_action_probs(ep) for ep in episodes]

    def episodes_state_features(self, episodes: Sequence[Episode]) -> list[Array]:
        """One-hot latent state per frame."""
        one_hot = np.eye(self.probs.shape[0])
        return [one_hot[self._state_ids(ep)] for ep in episodes]


class SoftenedPolicy:
    """Eps-soft wrapper around a greedy learned policy."""

    def __init__(self, policy, eps: float = 0.01):
        if not (0.0 < eps < 1.0):
            raise OpeError(f"eps must be in (0, 1), got {eps}")
        self.policy = policy
        self.eps = eps

    @property
    def n_actions(self) -> int:
        return self.policy.n_actions

    def episodes_action_probs(self, episodes: Sequence[Episode]) -> list[Array]:
        return self.policy.episodes_action_probs(episodes, eps=self.eps)

    def episodes_state_features(self, episodes: Sequence[Episode]) -> list[Array]:
        return self.policy.episodes_state_features(episodes)


def soften(policy, eps: float = 0.01) -> SoftenedPolicy:
    return SoftenedPolicy(policy, eps)


# ---------------------------------------------------------------------------
# Behavior models
# ---------------------------------------------------------------------------


class LoggedBehavior:
    """Behavior probabilities read off the dataset (synthetic data)."""

    def episode_logged_probs(self, episode: Episode) -> Array:
        probs = []
        for tr in episode.transitions:
            if tr.behavior_prob is None:
                raise OpeError(
                    f"episode {episode.episode_id!r} has no logged behavior "
                    f"probabilities; fit a behavior model instead"
                )
            probs.append(tr.behavior_prob)
        return np.asarray(probs, dtype=np.float64)

    def episodes_logged_probs(self, episodes: Sequence[Episode]) -> list[Array]:
        return [self.episode_logged_probs(ep) for ep in episodes]


@dataclass(frozen=True)
class BehaviorFitConfig:
    floor: float = 1e-3
    steps: int = 2000
    batch_size: int = 512
    learning_rate: float = 1e-2
    hidden_width: int = 0      # 0 = linear softmax
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.floor < 1.0 / N_ACTIONS):
            raise OpeError(f"floor must be in (0, 1/{N_ACTIONS}), got {self.floor}")


class FittedBehavior:
    """25-way softmax classifier over per-step features, probability-floored.

    Probabilities are mixed with the uniform distribution so that every
    action keeps at least ``floor`` mass after renormalization.
    """

    def __init__(self, layers: list[Dense], floor: float,
                 featurizer: Callable[[Sequence[Episode]], list[Array]]):
        self._layers = layers
        self.floor = floor
        self._featurizer = featurizer

    def action_dist(self, features: Array) -> Array:
        with no_grad():
            h = Tensor(np.atleast_2d(features))
            for layer in self._layers[:-1]:
                h = layer(h).relu()
            logits = self._layers[-1](h).data
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        return (1.0 - N_ACTIONS * self.floor) * p + self.floor

    def episodes_logged_probs(self, episodes: Sequence[Episode]) -> list[Array]:
        dist = self.action_dist(_decision_features(episodes, self._featurizer(episodes)))
        actions = _logged_actions(episodes)
        return _split_by_episode(dist[np.arange(actions.shape[0]), actions], episodes)


def _structured_featurizer(episodes: Sequence[Episode]) -> list[Array]:
    return [np.stack([f.structured for f in ep.frames()]) for ep in episodes]


def _decision_features(episodes: Sequence[Episode],
                       features: Sequence[Array]) -> Array:
    """Per-frame features cut to the decision frames, stacked over episodes."""
    return np.concatenate([f[:len(ep)] for ep, f in zip(episodes, features)])


def _logged_actions(episodes: Sequence[Episode]) -> Array:
    return np.array([tr.action.flat for ep in episodes for tr in ep.transitions],
                    dtype=np.int64)


def _split_by_episode(rows: Array, episodes: Sequence[Episode]) -> list[Array]:
    """Undo the stacking of ``_decision_features``: one block per episode."""
    return np.split(rows, np.cumsum([len(ep) for ep in episodes])[:-1])


def fit_behavior(dataset: OfflineDataset, floor: float = 1e-3,
                 cfg: BehaviorFitConfig | None = None,
                 featurizer: Callable[[Sequence[Episode]], list[Array]] | None = None,
                 episodes: Sequence[Episode] | None = None) -> FittedBehavior:
    """Fit the logging policy as a floored softmax classifier.

    Features default to the raw structured vector; pass ``featurizer`` (e.g.
    a learned policy's episodes_state_features) to fit on fused states. The
    ``floor`` argument is ignored when an explicit cfg is given.
    """
    if cfg is None:
        cfg = BehaviorFitConfig(floor=floor)
    featurizer = featurizer or _structured_featurizer
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    if not eps_list:
        raise OpeError("no episodes to fit a behavior model on")
    X = _decision_features(eps_list, featurizer(eps_list))
    y = _logged_actions(eps_list)

    rng = np.random.default_rng([cfg.seed, 31])
    layers = []
    d_in = X.shape[1]
    if cfg.hidden_width > 0:
        layers.append(Dense(d_in, cfg.hidden_width, rng, "behavior.hidden"))
        d_in = cfg.hidden_width
    layers.append(Dense(d_in, N_ACTIONS, rng, "behavior.out"))
    params = {}
    for layer in layers:
        params.update(layer.params())
    opt = Adam(params, lr=cfg.learning_rate)
    for _ in range(cfg.steps):
        idx = rng.integers(0, X.shape[0], size=min(cfg.batch_size, X.shape[0]))
        h = Tensor(X[idx])
        for layer in layers[:-1]:
            h = layer(h).relu()
        logits = layers[-1](h)
        loss = (logits.logsumexp(axis=1) - logits.pick(y[idx])).mean()
        loss.backward()
        opt.step()
    return FittedBehavior(layers, cfg.floor, featurizer)


# ---------------------------------------------------------------------------
# Per-episode statistics shared by WIS / DR / bootstrap
# ---------------------------------------------------------------------------


@dataclass
class _EpisodeStats:
    rho: Array        # (n, Tmax) cumulative ratios, frozen past episode end
    rewards: Array    # (n, Tmax)
    q_taken: Array    # (n, Tmax)
    v_hat: Array      # (n, Tmax)
    lengths: Array    # (n,)
    returns: Array    # (n,) discounted
    traj_weight: Array  # (n,)
    init_value: Array   # (n,) Q-model value of the initial state
    gamma: float


def _prepare_stats(episodes: Sequence[Episode], policy, behavior, q_hat,
                   gamma: float) -> _EpisodeStats:
    n = len(episodes)
    t_max = max(len(ep.transitions) for ep in episodes)
    rho = np.ones((n, t_max))
    rewards = np.zeros((n, t_max))
    q_taken = np.zeros((n, t_max))
    v_hat = np.zeros((n, t_max))
    lengths = np.zeros(n, dtype=np.int64)
    returns = np.zeros(n)
    init_value = np.zeros(n)
    pis = policy.episodes_action_probs(episodes)
    betas = behavior.episodes_logged_probs(episodes)
    q_matrices = q_hat.episodes_q_matrix(episodes) if q_hat is not None else None
    for i, (ep, pi, beta) in enumerate(zip(episodes, pis, betas)):
        T = len(ep.transitions)
        lengths[i] = T
        if (beta <= 0.0).any():
            raise OpeError(
                f"episode {ep.episode_id!r}: zero behavior probability on a "
                f"logged action violates the support assumption"
            )
        actions = np.array([tr.action.flat for tr in ep.transitions])
        ratios = pi[np.arange(T), actions] / beta
        cum = np.cumprod(ratios)
        rho[i, :T] = cum
        rho[i, T:] = cum[-1]
        r = np.array([tr.reward for tr in ep.transitions])
        rewards[i, :T] = r
        returns[i] = float((gamma ** np.arange(T)) @ r)
        if q_matrices is not None:
            qm = q_matrices[i]
            q_taken[i, :T] = qm[np.arange(T), actions]
            v_hat[i, :T] = (pi * qm).sum(axis=1)
            init_value[i] = v_hat[i, 0]
    return _EpisodeStats(rho=rho, rewards=rewards, q_taken=q_taken, v_hat=v_hat,
                         lengths=lengths, returns=returns,
                         traj_weight=rho[np.arange(n), lengths - 1],
                         init_value=init_value, gamma=gamma)


def _wis_from_stats(stats: _EpisodeStats, idx: Array,
                    clip_percentile: float | None) -> float:
    w = stats.traj_weight[idx].copy()
    if clip_percentile is not None:
        w = np.minimum(w, np.percentile(w, clip_percentile))
    total = w.sum()
    if total <= 0.0:
        raise OpeError("all importance weights are zero; the target policy "
                       "has no overlap with the logged actions")
    return float((w * stats.returns[idx]).sum() / total)


def _wdr_from_stats(stats: _EpisodeStats, idx: Array) -> float:
    rho = stats.rho[idx]
    n, t_max = rho.shape
    totals = rho.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(totals > 0.0, rho / totals, 0.0)
    w_prev = np.concatenate([np.full((n, 1), 1.0 / n), w[:, :-1]], axis=1)
    per_t = (w * (stats.rewards[idx] - stats.q_taken[idx])
             + w_prev * stats.v_hat[idx]).sum(axis=0)
    return float((stats.gamma ** np.arange(t_max)) @ per_t)


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WisResult:
    estimate: float
    weights: Array
    returns: Array
    effective_sample_size: float


def wis(dataset: OfflineDataset, policy, behavior, gamma: float,
        clip_percentile: float | None = None,
        episodes: Sequence[Episode] | None = None) -> WisResult:
    """Self-normalized trajectory-weighted return estimate.

    A convex combination of logged episode returns, so the estimate always
    lies between the smallest and largest observed return.
    """
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    stats = _prepare_stats(eps_list, policy, behavior, None, gamma)
    w = stats.traj_weight.copy()
    if clip_percentile is not None:
        w = np.minimum(w, np.percentile(w, clip_percentile))
    estimate = _wis_from_stats(stats, np.arange(len(eps_list)), clip_percentile)
    ess = float(w.sum() ** 2 / np.maximum((w * w).sum(), 1e-300))
    return WisResult(estimate=estimate, weights=w, returns=stats.returns,
                     effective_sample_size=ess)


def dr(dataset: OfflineDataset, policy, behavior, q_hat, gamma: float,
       episodes: Sequence[Episode] | None = None) -> float:
    """Weighted (self-normalized) per-decision doubly robust estimate.

    With q_hat == None (or identically zero) this reduces to self-normalized
    per-decision importance sampling; with an exact Q-model on a
    deterministic process the correction terms telescope and the estimate
    equals the model's initial-state value.
    """
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    stats = _prepare_stats(eps_list, policy, behavior, q_hat, gamma)
    return _wdr_from_stats(stats, np.arange(len(eps_list)))


# ---------------------------------------------------------------------------
# Fitted Q-evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularQ:
    """Q-table over latent state ids, rowed out per episode on demand."""

    q: Array  # (S, A)

    def episodes_q_matrix(self, episodes: Sequence[Episode]) -> list[Array]:
        out = []
        for ep in episodes:
            ids = [tr.state_id for tr in ep.transitions]
            if any(s is None for s in ids):
                raise OpeError("tabular Q needs state ids on the transitions")
            out.append(self.q[np.asarray(ids, dtype=np.int64)])
        return out


@dataclass(frozen=True)
class FqeResult:
    estimate: float
    q_model: object
    initial_values: Array   # per evaluated episode
    iterations: int
    uncovered_pairs: int = 0


def fqe_tabular(dataset: OfflineDataset, policy_matrix: Array, gamma: float,
                n_states: int, tol: float = 1e-10, max_iters: int = 100_000,
                episodes: Sequence[Episode] | None = None) -> FqeResult:
    """Exact tabular FQE: iterate the empirical Bellman operator to a fixed
    point.

    Q(s, a) <- mean over logged (s, a) transitions of r + gamma (1 - done)
    V(s'), with V = sum_a pi Q. Under full state-action coverage this is the
    DP solution of the empirical model. Pairs never observed keep Q = 0 and
    are counted in ``uncovered_pairs``.
    """
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    pi = np.asarray(policy_matrix, dtype=np.float64)
    if pi.shape != (n_states, N_ACTIONS):
        raise OpeError(f"policy matrix must be ({n_states}, {N_ACTIONS}), got {pi.shape}")
    s_arr, a_arr, r_arr, ns_arr, done_arr = [], [], [], [], []
    for ep in eps_list:
        for tr in ep.transitions:
            if tr.state_id is None or tr.next_state_id is None:
                raise OpeError(f"episode {ep.episode_id!r} lacks state ids")
            s_arr.append(tr.state_id)
            a_arr.append(tr.action.flat)
            r_arr.append(tr.reward)
            ns_arr.append(tr.next_state_id)
            done_arr.append(tr.done)
    s_arr = np.array(s_arr)
    a_arr = np.array(a_arr)
    r_arr = np.array(r_arr, dtype=np.float64)
    ns_arr = np.array(ns_arr)
    not_done = 1.0 - np.array(done_arr, dtype=np.float64)
    counts = np.zeros((n_states, N_ACTIONS))
    np.add.at(counts, (s_arr, a_arr), 1.0)
    safe_counts = np.maximum(counts, 1.0)

    q = np.zeros((n_states, N_ACTIONS))
    iterations = 0
    for iterations in range(1, max_iters + 1):
        v = (pi * q).sum(axis=1)
        targets = r_arr + gamma * not_done * v[ns_arr]
        q_new = np.zeros_like(q)
        np.add.at(q_new, (s_arr, a_arr), targets)
        q_new /= safe_counts
        if np.abs(q_new - q).max() < tol:
            q = q_new
            break
        q = q_new
    initial = np.array([
        float(pi[ep.transitions[0].state_id] @ q[ep.transitions[0].state_id])
        for ep in eps_list
    ])
    uncovered = int(((counts == 0) & (pi.max(axis=0) > 0)[None, :]).sum())
    return FqeResult(estimate=float(initial.mean()), q_model=TabularQ(q),
                     initial_values=initial, iterations=iterations,
                     uncovered_pairs=uncovered)


class _TabularFqeBootstrap:
    """Refit tabular FQE on an episode resample via an exact linear solve.

    Resampling is encoded as per-episode multiplicities, so each replicate
    aggregates the weighted empirical model in O(N) and solves the small
    policy-value system exactly; this propagates model-refit variance into
    the FQE bootstrap (initial-state resampling alone badly understates it).
    """

    def __init__(self, episodes: Sequence[Episode], pi: Array, gamma: float,
                 n_states: int):
        self.pi = pi
        self.gamma = gamma
        self.n_states = n_states
        s, a, r, ns, done, ep_idx, init_state = [], [], [], [], [], [], []
        for i, ep in enumerate(episodes):
            init_state.append(ep.transitions[0].state_id)
            for tr in ep.transitions:
                s.append(tr.state_id)
                a.append(tr.action.flat)
                r.append(tr.reward)
                ns.append(tr.next_state_id)
                done.append(tr.done)
                ep_idx.append(i)
        self.s = np.array(s)
        self.a = np.array(a)
        self.r = np.array(r, dtype=np.float64)
        self.ns = np.array(ns)
        self.not_done = 1.0 - np.array(done, dtype=np.float64)
        self.ep_idx = np.array(ep_idx)
        self.init_state = np.array(init_state)
        self.n_episodes = len(episodes)

    def estimate(self, episode_multiplicity: Array) -> float:
        w_row = episode_multiplicity[self.ep_idx].astype(np.float64)
        S, A = self.n_states, self.pi.shape[1]
        counts = np.zeros((S, A))
        np.add.at(counts, (self.s, self.a), w_row)
        r_sum = np.zeros((S, A))
        np.add.at(r_sum, (self.s, self.a), w_row * self.r)
        flow = np.zeros((S, A, S))
        np.add.at(flow, (self.s, self.a, self.ns), w_row * self.not_done)
        safe = np.maximum(counts, 1.0)
        seen = counts > 0
        # V(s) = sum_a pi Q(s,a), Q from the weighted empirical model
        c = (self.pi * np.where(seen, r_sum / safe, 0.0)).sum(axis=1)
        M = self.gamma * np.einsum(
            "sa,sat->st", self.pi * np.where(seen, 1.0 / safe, 0.0), flow)
        v = np.linalg.solve(np.eye(S) - M, c)
        total = episode_multiplicity.sum()
        return float((episode_multiplicity * v[self.init_state]).sum() / total)


@dataclass(frozen=True)
class FqeNetConfig:
    iterations: int = 25
    steps_per_iteration: int = 120
    batch_size: int = 256
    learning_rate: float = 1e-3
    width: int = 64
    depth: int = 2
    seed: int = 0


class NetworkQ:
    """Fitted Q-network over the target policy's state features."""

    def __init__(self, net: DuelingQNetwork, policy):
        self.net = net
        self.policy = policy

    def q_matrix(self, features: Array) -> Array:
        with no_grad():
            return self.net(Tensor(np.atleast_2d(features))).data

    def episodes_q_matrix(self, episodes: Sequence[Episode]) -> list[Array]:
        X = _decision_features(episodes, self.policy.episodes_state_features(episodes))
        return _split_by_episode(self.q_matrix(X), episodes)


def fqe_network(dataset: OfflineDataset, policy, gamma: float,
                cfg: FqeNetConfig | None = None,
                episodes: Sequence[Episode] | None = None) -> FqeResult:
    """Iterated Q regression on the policy's state features.

    Each outer iteration regresses r + gamma (1 - done) sum_a pi(a|s') Q_k
    (s', a) onto Q_{k+1}(s, a) with a frozen Q_k; diverging values abort.
    """
    cfg = cfg or FqeNetConfig()
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    feats, next_feats, pi_next = [], [], []
    actions, rewards, dones, init_rows = [], [], [], []
    init_pi = []
    row = 0
    features = policy.episodes_state_features(eps_list)
    action_probs = policy.episodes_action_probs(eps_list)
    for ep, f, pi in zip(eps_list, features, action_probs):
        T = len(ep.transitions)
        for t, tr in enumerate(ep.transitions):
            feats.append(f[t])
            next_feats.append(f[t + 1])
            # policy distribution at the successor state; rows for terminal
            # transitions are masked by (1 - done)
            pi_next.append(pi[t + 1] if t + 1 < T else np.zeros(N_ACTIONS))
            actions.append(tr.action.flat)
            rewards.append(tr.reward)
            dones.append(tr.done)
        init_rows.append(row)
        init_pi.append(pi[0])
        row += T
    X = np.stack(feats)
    X_next = np.stack(next_feats)
    pi_next = np.stack(pi_next)
    actions = np.array(actions, dtype=np.int64)
    rewards = np.array(rewards, dtype=np.float64)
    not_done = 1.0 - np.array(dones, dtype=np.float64)
    init_rows = np.array(init_rows, dtype=np.int64)
    init_pi = np.stack(init_pi)

    rng = np.random.default_rng([cfg.seed, 41])
    net = DuelingQNetwork(X.shape[1], rng, width=cfg.width, depth=cfg.depth,
                          n_actions=N_ACTIONS, name="fqe")
    opt = Adam(net.params(), lr=cfg.learning_rate)
    frozen = clone_param_values(net.params())
    frozen_net = DuelingQNetwork(X.shape[1], np.random.default_rng([cfg.seed, 41]),
                                 width=cfg.width, depth=cfg.depth,
                                 n_actions=N_ACTIONS, name="fqe")
    for it in range(cfg.iterations):
        load_param_values(frozen_net.params(), frozen)
        with no_grad():
            next_q = frozen_net(Tensor(X_next)).data
        targets = rewards + gamma * not_done * (pi_next * next_q).sum(axis=1)
        if not np.isfinite(targets).all():
            raise OpeError(f"fitted Q-evaluation diverged at iteration {it}: "
                           f"non-finite regression targets")
        for _ in range(cfg.steps_per_iteration):
            idx = rng.integers(0, X.shape[0], size=min(cfg.batch_size, X.shape[0]))
            pred = net(Tensor(X[idx])).pick(actions[idx])
            loss = (pred - Tensor(targets[idx])).square().mean() * 0.5
            loss.backward()
            opt.step()
        frozen = clone_param_values(net.params())
    q_model = NetworkQ(net, policy)
    q0 = q_model.q_matrix(X[init_rows])
    initial = (init_pi * q0).sum(axis=1)
    return FqeResult(estimate=float(initial.mean()), q_model=q_model,
                     initial_values=initial, iterations=cfg.iterations)


# ---------------------------------------------------------------------------
# OPERA aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperaResult:
    estimate: float
    weights: dict[str, float]
    used_inverse_variance_fallback: bool


def _simplex_min_quadratic(cov: Array) -> Array:
    """argmin w' cov w over the probability simplex, by face enumeration."""
    k = cov.shape[0]
    best_w, best_obj = None, np.inf
    for mask in range(1, 2 ** k):
        members = [i for i in range(k) if mask >> i & 1]
        sub = cov[np.ix_(members, members)]
        if len(members) == 1:
            w_sub = np.array([1.0])
        else:
            try:
                x = np.linalg.solve(sub, np.ones(len(members)))
            except np.linalg.LinAlgError:
                continue
            total = x.sum()
            if not np.isfinite(total) or abs(total) < 1e-300:
                continue
            w_sub = x / total
            if (w_sub < -1e-10).any():
                continue
            w_sub = np.clip(w_sub, 0.0, None)
            w_sub /= w_sub.sum()
        w = np.zeros(k)
        w[members] = w_sub
        obj = float(w @ cov @ w)
        if obj < best_obj - 1e-15:
            best_obj, best_w = obj, w
    return best_w


def opera(components: Sequence[tuple[str, float, Array]]) -> OperaResult:
    """Convex MSE-minimizing combination of estimators.

    Each component is (name, point estimate, bootstrap replicates). Weights
    minimize w' Cov w over the simplex using the bootstrap covariance; a
    singular covariance falls back to inverse-variance weights (flagged).
    """
    if len(components) < 2:
        raise OpeError("opera needs at least 2 estimators")
    names = [name for name, _, _ in components]
    points = np.array([point for _, point, _ in components])
    reps = np.stack([np.asarray(r, dtype=np.float64) for _, _, r in components],
                    axis=1)  # (B, K)
    if reps.shape[0] < 2:
        raise OpeError("opera needs at least 2 bootstrap replicates")
    centered = reps - reps.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (reps.shape[0] - 1)

    fallback = not np.isfinite(cov).all() or \
        np.linalg.matrix_rank(cov, tol=1e-12 * max(np.trace(cov), 1.0)) < cov.shape[0]
    if fallback:
        var = np.diag(cov).copy()
        if (var <= 0.0).any():
            w = np.zeros(len(names))
            zero = np.flatnonzero(var <= 0.0)
            w[zero] = 1.0 / zero.size
        else:
            w = (1.0 / var) / (1.0 / var).sum()
    else:
        w = _simplex_min_quadratic(cov)
    estimate = float(w @ points)
    return OperaResult(estimate=estimate,
                       weights={name: float(wi) for name, wi in zip(names, w)},
                       used_inverse_variance_fallback=bool(fallback))


# ---------------------------------------------------------------------------
# Full report with paired bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpeConfig:
    gamma: float = 0.99
    n_bootstrap: int = 200
    eps_soft: float = 0.01
    clip_percentile: float | None = 99.0
    seed: int = 0
    fqe: FqeNetConfig = field(default_factory=FqeNetConfig)

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise OpeError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.n_bootstrap < 2:
            raise OpeError("need at least 2 bootstrap replicates")


@dataclass(frozen=True)
class OPEReport:
    wis: float
    dr: float
    fqe: float
    opera: float
    standard_errors: dict[str, float]
    opera_weights: dict[str, float]
    effective_sample_size: float
    n_episodes: int
    fqe_mode: str
    used_inverse_variance_fallback: bool

    def to_dict(self) -> dict:
        return {
            "estimates": {"wis": self.wis, "dr": self.dr, "fqe": self.fqe,
                          "opera": self.opera},
            "standard_errors": dict(self.standard_errors),
            "opera_weights": dict(self.opera_weights),
            "effective_sample_size": self.effective_sample_size,
            "n_episodes": self.n_episodes,
            "fqe_mode": self.fqe_mode,
            "used_inverse_variance_fallback": self.used_inverse_variance_fallback,
        }


def evaluate_policy(dataset: OfflineDataset, policy, behavior, cfg: OpeConfig,
                    episodes: Sequence[Episode] | None = None,
                    policy_table: Array | None = None,
                    n_states: int | None = None) -> OPEReport:
    """WIS + DR + FQE point estimates, paired bootstrap SEs, and OPERA.

    FQE runs in tabular mode when a state-indexed policy matrix and latent
    state ids are available, otherwise in network mode. The bootstrap
    resamples episodes; WIS and DR are recomputed per replicate. Tabular FQE
    is refit per replicate from the resampled empirical model; the network
    FQE replicate only resamples per-episode initial-state values (the
    network is fit once, so its bootstrap SE understates refit variance).
    """
    eps_list = list(episodes) if episodes is not None else list(dataset.episodes)
    if not eps_list:
        raise OpeError("no episodes to evaluate on")
    n = len(eps_list)

    ids_present = all(tr.state_id is not None
                      for ep in eps_list for tr in ep.transitions)
    fqe_boot = None
    if policy_table is not None and ids_present:
        if n_states is None:
            raise OpeError("tabular FQE needs n_states")
        fqe_result = fqe_tabular(dataset, policy_table, cfg.gamma, n_states,
                                 episodes=eps_list)
        fqe_boot = _TabularFqeBootstrap(eps_list, np.asarray(policy_table),
                                        cfg.gamma, n_states)
        fqe_mode = "tabular"
    else:
        fqe_result = fqe_network(dataset, policy, cfg.gamma, cfg.fqe,
                                 episodes=eps_list)
        fqe_mode = "network"

    stats = _prepare_stats(eps_list, policy, behavior, fqe_result.q_model,
                           cfg.gamma)
    full_idx = np.arange(n)
    wis_point = _wis_from_stats(stats, full_idx, cfg.clip_percentile)
    dr_point = _wdr_from_stats(stats, full_idx)
    fqe_point = fqe_result.estimate

    rng = np.random.default_rng([cfg.seed, 97])
    reps = np.zeros((cfg.n_bootstrap, 3))
    for b in range(cfg.n_bootstrap):
        idx = rng.integers(0, n, size=n)
        reps[b, 0] = _wis_from_stats(stats, idx, cfg.clip_percentile)
        reps[b, 1] = _wdr_from_stats(stats, idx)
        if fqe_boot is not None:
            reps[b, 2] = fqe_boot.estimate(np.bincount(idx, minlength=n))
        else:
            reps[b, 2] = float(fqe_result.initial_values[idx].mean())

    agg = opera([("wis", wis_point, reps[:, 0]),
                 ("dr", dr_point, reps[:, 1]),
                 ("fqe", fqe_point, reps[:, 2])])

    w = stats.traj_weight
    if cfg.clip_percentile is not None:
        w = np.minimum(w, np.percentile(w, cfg.clip_percentile))
    ess = float(w.sum() ** 2 / np.maximum((w * w).sum(), 1e-300))
    ses = {name: float(reps[:, j].std(ddof=1))
           for j, name in enumerate(("wis", "dr", "fqe"))}
    opera_reps = reps @ np.array([agg.weights["wis"], agg.weights["dr"],
                                  agg.weights["fqe"]])
    ses["opera"] = float(opera_reps.std(ddof=1))
    return OPEReport(wis=wis_point, dr=dr_point, fqe=fqe_point,
                     opera=agg.estimate, standard_errors=ses,
                     opera_weights=agg.weights, effective_sample_size=ess,
                     n_episodes=n, fqe_mode=fqe_mode,
                     used_inverse_variance_fallback=agg.used_inverse_variance_fallback)
