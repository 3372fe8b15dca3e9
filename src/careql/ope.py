"""Off-policy evaluation of a target policy from logged episodes.

Estimators: self-normalized trajectory-weighted returns (WIS), weighted
per-decision doubly robust (DR), fitted Q-evaluation (FQE, tabular when
latent state ids are available, otherwise an iterated network regression),
and a convex aggregate of the three whose weights minimize the
bootstrap-estimated MSE (OPERA). Greedy policies must be softened (see
``soften``) before evaluation so importance ratios stay well-defined.

Every estimator reads one ``EvalBatch``, a fixed set of logged arrays in
the sense of Voloshin et al. (2021): the dataset's ``EpisodeStore`` (whose
action, reward and done columns the estimators read), the target policy's
state features at every frame and action distribution at every decision,
and the behavior probability of every logged action. ``eval_batch`` asks
each model once; ``evaluate_policy`` builds one batch and
runs every estimator on it. The public estimators take a dataset, typically
one split (``OfflineDataset.split``) or a hand-picked subset
(``dataclasses.replace(dataset, episodes=...)``), and build the batch, or
take a batch in the dataset's place, and then read no other argument the
batch holds.

Target policies, behavior models and Q-models are duck-typed and answer for
a whole store with flat arrays, never one array per episode. The store owns
the row layout: decision rows are its N transitions, frame rows its N + n
frames, and decision k reads its state at frame row ``decision_frame[k]``
and its next state at the row after:

- target policy: ``evaluation_rows(store)`` -> (state features per frame
  row, action probabilities (N, A));
- behavior model: ``logged_probs(store)`` -> (N,), read off the logged
  ``behavior_prob`` column or a fitted 25-way classifier (``fit_behavior``);
- Q-model: ``q_rows(batch)`` -> (N, A).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import EpisodeStore, N_ACTIONS, OfflineDataset
from .netcore import (
    Adam,
    DuelingQNetwork,
    Tensor,
    clone_param_values,
    load_param_values,
    no_grad,
)
from .trainer import ActionClassifier, cross_entropy_loss

Array = np.ndarray

# fixed settings: the behavior fit's batch, network FQE's Adam batch and
# rate, and tabular FQE's convergence tolerance and iteration cap
BEHAVIOR_BATCH_SIZE = 512
FQE_BATCH_SIZE = 256
FQE_LEARNING_RATE = 1e-3
FQE_TABULAR_TOL = 1e-10
FQE_TABULAR_MAX_ITERS = 100_000


class OpeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The evaluation batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalBatch:
    """The arrays every estimator of one evaluation reads, built once."""

    store: EpisodeStore
    features: Array      # (N + n, dim) target policy's state features per frame
    pi: Array            # (N, A) target action probabilities per decision
    beta: Array | None   # (N,) behavior probability of each logged action

    @property
    def decision_features(self) -> Array:
        return self.features[self.store.decision_frame]

    @property
    def next_features(self) -> Array:
        return self.features[self.store.decision_frame + 1]


def _store(data: OfflineDataset | EvalBatch) -> EpisodeStore:
    if isinstance(data, OfflineDataset) and not data.episodes:
        raise OpeError("no episodes to evaluate on")
    return data.store


def eval_batch(data: OfflineDataset | EvalBatch, policy, behavior=None) -> EvalBatch:
    """The batch of a dataset's episodes under a target policy and, when
    given, a behavior model; a batch passes through."""
    if isinstance(data, EvalBatch):
        return data
    store = _store(data)
    features, pi = policy.evaluation_rows(store)
    beta = None if behavior is None else behavior.logged_probs(store)
    return EvalBatch(store, features, pi, beta)


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

    def evaluation_rows(self, store: EpisodeStore) -> tuple[Array, Array]:
        """One-hot latent state per frame, and the policy's row per decision."""
        unknown, frame = store.state_id < 0, store.decision_frame
        bad = store.first_episode(unknown[frame] | unknown[frame + 1])
        if bad is not None:
            raise OpeError(
                f"episode {store.episode_id[bad]!r} lacks state ids; tabular "
                f"policies need synthetic ground truth attached"
            )
        return np.eye(self.probs.shape[0])[store.state_id], self.probs[store.state_id[frame]]


def soften(policy, eps: float = 0.01):
    """A copy of a greedy policy dataclass (``trainer.LearnedPolicy``) with
    ``eps`` spread evenly over the non-greedy actions, so every logged action
    keeps a nonzero target probability."""
    if not (0.0 < eps < 1.0):
        raise OpeError(f"eps must be in (0, 1), got {eps}")
    return replace(policy, eps=eps)


# ---------------------------------------------------------------------------
# Behavior models
# ---------------------------------------------------------------------------


class LoggedBehavior:
    """Behavior probabilities read off the dataset (synthetic data)."""

    def logged_probs(self, store: EpisodeStore) -> Array:
        bad = store.first_episode(np.isnan(store.behavior_prob))
        if bad is not None:
            raise OpeError(
                f"episode {store.episode_id[bad]!r} has no logged behavior "
                f"probabilities; fit a behavior model instead"
            )
        return store.behavior_prob


@dataclass(frozen=True)
class BehaviorFitConfig:
    floor: float = 1e-3
    steps: int = 2000
    learning_rate: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.floor < 1.0 / N_ACTIONS):
            raise OpeError(f"floor must be in (0, 1/{N_ACTIONS}), got {self.floor}")


class FittedBehavior:
    """25-way linear softmax over the structured features, probability-floored.

    Probabilities are mixed with the uniform distribution so that every
    action keeps at least ``floor`` mass after renormalization.
    """

    def __init__(self, classifier: ActionClassifier, floor: float):
        self._classifier = classifier
        self.floor = floor

    def action_dist(self, features: Array) -> Array:
        p = self._classifier.probs(np.atleast_2d(features))
        return (1.0 - N_ACTIONS * self.floor) * p + self.floor

    def logged_probs(self, store: EpisodeStore) -> Array:
        dist = self.action_dist(store.structured[store.decision_frame])
        return dist[np.arange(store.action.shape[0]), store.action]


def fit_behavior(dataset: OfflineDataset,
                 cfg: BehaviorFitConfig | None = None) -> FittedBehavior:
    """Fit the logging policy as a floored softmax classifier (an
    ``ActionClassifier`` of depth 0) on the raw structured vector of each
    decision's frame."""
    cfg = cfg or BehaviorFitConfig()
    if not dataset.episodes:
        raise OpeError("no episodes to fit a behavior model on")
    store = dataset.store
    X, y = store.structured[store.decision_frame], store.action

    rng = np.random.default_rng([cfg.seed, 31])
    classifier = ActionClassifier(X.shape[1], rng, width=0, depth=0)
    opt = Adam(classifier.params(), lr=cfg.learning_rate)
    for _ in range(cfg.steps):
        idx = rng.integers(0, X.shape[0], size=min(BEHAVIOR_BATCH_SIZE, X.shape[0]))
        cross_entropy_loss(classifier.logits(Tensor(X[idx])), y[idx]).backward()
        opt.step()
    return FittedBehavior(classifier, cfg.floor)


# ---------------------------------------------------------------------------
# Per-episode statistics shared by WIS / DR / bootstrap
# ---------------------------------------------------------------------------


@dataclass
class _EpisodeStats:
    rho: Array        # (n, Tmax) cumulative ratios, frozen past episode end
    rewards: Array    # (n, Tmax)
    q_taken: Array    # (n, Tmax)
    v_hat: Array      # (n, Tmax)
    returns: Array    # (n,) discounted
    traj_weight: Array  # (n,)
    gamma: float


def _prepare_stats(batch: EvalBatch, q_hat, gamma: float) -> _EpisodeStats:
    store, pi = batch.store, batch.pi
    if batch.beta is None:
        raise OpeError("importance weights need a batch built with a behavior model")
    bad = store.first_episode(batch.beta <= 0.0)
    if bad is not None:
        raise OpeError(
            f"episode {store.episode_id[bad]!r}: zero behavior probability "
            f"on a logged action violates the support assumption"
        )
    rows = np.arange(store.action.shape[0])
    n, t_max = store.lengths.shape[0], int(store.lengths.max())
    at = (store.episode_index, rows - store.offsets[store.episode_index])

    def padded(values: Array, fill: float) -> Array:
        """(n, t_max) per-episode rows, filled past each episode's end."""
        out = np.full((n, t_max), fill)
        out[at] = values
        return out

    # a ratio of 1 past the end freezes rho at the episode's final weight
    rho = np.cumprod(padded(pi[rows, store.action] / batch.beta, 1.0), axis=1)
    rewards = padded(store.reward, 0.0)
    q_taken = v_hat = np.zeros((n, t_max))
    if q_hat is not None:
        qm = q_hat.q_rows(batch)
        q_taken = padded(qm[rows, store.action], 0.0)
        v_hat = padded((pi * qm).sum(axis=1), 0.0)
    return _EpisodeStats(rho=rho, rewards=rewards, q_taken=q_taken, v_hat=v_hat,
                         returns=rewards @ (gamma ** np.arange(t_max)),
                         traj_weight=rho[np.arange(n), store.lengths - 1], gamma=gamma)


def _clipped_weights(stats: _EpisodeStats, idx: Array,
                     clip_percentile: float | None) -> Array:
    """Trajectory weights of the episodes at idx, capped at their percentile."""
    w = stats.traj_weight[idx]
    if clip_percentile is not None:
        w = np.minimum(w, np.percentile(w, clip_percentile))
    return w


def _ess(w: Array) -> float:
    return float(w.sum() ** 2 / np.maximum((w * w).sum(), 1e-300))


def _wis_from_stats(stats: _EpisodeStats, idx: Array,
                    clip_percentile: float | None) -> float:
    w = _clipped_weights(stats, idx, clip_percentile)
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


def wis(dataset: OfflineDataset | EvalBatch, policy, behavior, gamma: float,
        clip_percentile: float | None = None) -> WisResult:
    """Self-normalized trajectory-weighted return estimate.

    A convex combination of logged episode returns, so the estimate always
    lies between the smallest and largest observed return.
    """
    stats = _prepare_stats(eval_batch(dataset, policy, behavior), None, gamma)
    idx = np.arange(stats.returns.shape[0])
    w = _clipped_weights(stats, idx, clip_percentile)
    return WisResult(estimate=_wis_from_stats(stats, idx, clip_percentile),
                     weights=w, returns=stats.returns, effective_sample_size=_ess(w))


def dr(dataset: OfflineDataset | EvalBatch, policy, behavior, q_hat, gamma: float) -> float:
    """Weighted (self-normalized) per-decision doubly robust estimate.

    With q_hat == None (or identically zero) this reduces to self-normalized
    per-decision importance sampling; with an exact Q-model on a
    deterministic process the correction terms telescope and the estimate
    equals the model's initial-state value.
    """
    stats = _prepare_stats(eval_batch(dataset, policy, behavior), q_hat, gamma)
    return _wdr_from_stats(stats, np.arange(stats.returns.shape[0]))


# ---------------------------------------------------------------------------
# Fitted Q-evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularQ:
    """Q-table over latent state ids."""

    q: Array  # (S, A)

    def q_rows(self, batch: EvalBatch) -> Array:
        state_id = batch.store.state_id[batch.store.decision_frame]
        if (state_id < 0).any():
            raise OpeError("tabular Q needs state ids on the transitions")
        return self.q[state_id]


@dataclass(frozen=True)
class FqeResult:
    estimate: float
    q_model: object
    initial_values: Array   # per evaluated episode
    iterations: int
    uncovered_pairs: int = 0


def fqe_tabular(dataset: OfflineDataset | EvalBatch, policy_matrix: Array, gamma: float,
                n_states: int) -> FqeResult:
    """Exact tabular FQE: iterate the empirical Bellman operator to a fixed
    point.

    Q(s, a) <- mean over logged (s, a) transitions of r + gamma (1 - done)
    V(s'), with V = sum_a pi Q. Under full state-action coverage this is the
    DP solution of the empirical model. Pairs never observed keep Q = 0 and
    are counted in ``uncovered_pairs``.
    """
    pi = np.asarray(policy_matrix, dtype=np.float64)
    if pi.shape != (n_states, N_ACTIONS):
        raise OpeError(f"policy matrix must be ({n_states}, {N_ACTIONS}), got {pi.shape}")
    store = _store(dataset)
    frame = store.decision_frame
    state, next_state = store.state_id[frame], store.state_id[frame + 1]
    bad = store.first_episode((state < 0) | (next_state < 0))
    if bad is not None:
        raise OpeError(f"episode {store.episode_id[bad]!r} lacks state ids")
    sa = (state, store.action)
    not_done = 1.0 - store.done.astype(np.float64)
    counts = np.zeros((n_states, N_ACTIONS))
    np.add.at(counts, sa, 1.0)
    safe_counts = np.maximum(counts, 1.0)

    q = np.zeros((n_states, N_ACTIONS))
    iterations = 0
    for iterations in range(1, FQE_TABULAR_MAX_ITERS + 1):
        v = (pi * q).sum(axis=1)
        targets = store.reward + gamma * not_done * v[next_state]
        q_new = np.zeros_like(q)
        np.add.at(q_new, sa, targets)
        q_new /= safe_counts
        if np.abs(q_new - q).max() < FQE_TABULAR_TOL:
            q = q_new
            break
        q = q_new
    initial = np.array([float(pi[s] @ q[s]) for s in store.state_id[store.frame_offsets]])
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

    def __init__(self, store: EpisodeStore, pi: Array, gamma: float,
                 n_states: int):
        self.pi = pi
        self.gamma = gamma
        self.n_states = n_states
        frame = store.decision_frame
        self.s, self.a, self.r, self.ns = (store.state_id[frame], store.action, store.reward,
                                           store.state_id[frame + 1])
        self.not_done = 1.0 - store.done.astype(np.float64)
        self.ep_idx = store.episode_index
        self.init_state = store.state_id[store.frame_offsets]

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
    width: int = 64
    depth: int = 2
    seed: int = 0


class NetworkQ:
    """Fitted Q-network over the target policy's state features."""

    def __init__(self, net: DuelingQNetwork):
        self.net = net

    def q_matrix(self, features: Array) -> Array:
        with no_grad():
            return self.net(Tensor(np.atleast_2d(features))).data

    def q_rows(self, batch: EvalBatch) -> Array:
        return self.q_matrix(batch.decision_features)


def fqe_network(dataset: OfflineDataset | EvalBatch, policy, gamma: float,
                cfg: FqeNetConfig | None = None) -> FqeResult:
    """Iterated Q regression on the policy's state features.

    Each outer iteration regresses r + gamma (1 - done) sum_a pi(a|s') Q_k
    (s', a) onto Q_{k+1}(s, a) with a frozen Q_k; diverging values abort.
    """
    cfg = cfg or FqeNetConfig()
    batch = eval_batch(dataset, policy)
    store, pi = batch.store, batch.pi
    X, X_next = batch.decision_features, batch.next_features
    # policy distribution at the successor state; rows for terminal
    # transitions are masked by (1 - done)
    pi_next = np.where(store.done[:, None], 0.0, np.roll(pi, -1, axis=0))
    not_done = 1.0 - store.done.astype(np.float64)

    rng = np.random.default_rng([cfg.seed, 41])
    net = DuelingQNetwork(X.shape[1], rng, width=cfg.width, depth=cfg.depth,
                          n_actions=N_ACTIONS, name="fqe")
    opt = Adam(net.params(), lr=FQE_LEARNING_RATE)
    # the same seed gives the frozen network net's initial parameters
    frozen_net = DuelingQNetwork(X.shape[1], np.random.default_rng([cfg.seed, 41]),
                                 width=cfg.width, depth=cfg.depth,
                                 n_actions=N_ACTIONS, name="fqe")
    for it in range(cfg.iterations):
        with no_grad():
            next_q = frozen_net(Tensor(X_next)).data
        targets = store.reward + gamma * not_done * (pi_next * next_q).sum(axis=1)
        if not np.isfinite(targets).all():
            raise OpeError(f"fitted Q-evaluation diverged at iteration {it}: "
                           f"non-finite regression targets")
        for _ in range(cfg.steps_per_iteration):
            idx = rng.integers(0, X.shape[0], size=min(FQE_BATCH_SIZE, X.shape[0]))
            pred = net(Tensor(X[idx])).pick(store.action[idx])
            loss = (pred - Tensor(targets[idx])).square().mean() * 0.5
            loss.backward()
            opt.step()
        load_param_values(frozen_net.params(), clone_param_values(net.params()))
    q_model = NetworkQ(net)
    q0 = q_model.q_matrix(X[store.offsets])
    initial = (pi[store.offsets] * q0).sum(axis=1)
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
    batch = eval_batch(dataset, policy, behavior)
    store = batch.store
    n = store.lengths.shape[0]

    fqe_boot = None
    if policy_table is not None and (store.state_id[store.decision_frame] >= 0).all():
        if n_states is None:
            raise OpeError("tabular FQE needs n_states")
        fqe_result = fqe_tabular(batch, policy_table, cfg.gamma, n_states)
        fqe_boot = _TabularFqeBootstrap(store, np.asarray(policy_table),
                                        cfg.gamma, n_states)
        fqe_mode = "tabular"
    else:
        fqe_result = fqe_network(batch, policy, cfg.gamma, cfg.fqe)
        fqe_mode = "network"

    stats = _prepare_stats(batch, fqe_result.q_model, cfg.gamma)
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

    ess = _ess(_clipped_weights(stats, full_idx, cfg.clip_percentile))
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
