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
and the behavior probability of every logged action. ``eval_batch`` builds
it from a dataset, typically one split (``OfflineDataset.split``) or a
hand-picked subset (``dataclasses.replace(dataset, episodes=...)``), asking
each model once; ``evaluate_policy`` builds one batch and runs every
estimator and bootstrap replicate on it.

Target policies and behavior models are duck-typed and answer for a whole
store with flat arrays, never one array per episode. The store owns the row
layout: decision rows are its N transitions, frame rows its N + n frames,
and decision k reads its state at frame row ``decision_frame[k]`` and its
next state at the row after:

- target policy: ``evaluation_rows(store)`` -> (state features per frame
  row, action probabilities (N, A));
- behavior model: ``logged_probs(store)`` -> (N,), read off the logged
  ``behavior_prob`` column or a fitted 25-way classifier (``fit_behavior``).

A fitted Q is an array too: FQE returns its (N, A) values at every decision
of the batch (``FqeResult.q_rows``), and DR reads that array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import DatasetError, EpisodeStore, N_ACTIONS, OfflineDataset
from .netcore import TRAIN_DTYPE, Adam, DuelingQNetwork, Tensor, as_dtype, cast_params, no_grad
from .synthgym import rows_are_distributions
from .trainer import ActionClassifier, cross_entropy_loss, dqn_loss

Array = np.ndarray

# fixed settings: the behavior fit's batch, and network FQE's Adam batch and
# rate
BEHAVIOR_BATCH_SIZE = 512
FQE_BATCH_SIZE = 256
FQE_LEARNING_RATE = 1e-3


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


def eval_batch(dataset: OfflineDataset, policy, behavior=None) -> EvalBatch:
    """The batch of a dataset's episodes under a target policy and, when
    given, a behavior model."""
    if not dataset.episodes:
        raise OpeError("no episodes to evaluate on")
    store = dataset.store
    features, pi = policy.evaluation_rows(store)
    beta = None if behavior is None else behavior.logged_probs(store)
    return EvalBatch(store, features, pi, beta)


def _state_ids(store: EpisodeStore, n_states: int) -> tuple[Array, Array]:
    """Each decision's latent state and next state, as rows of a table of
    ``n_states`` rows; an id that is missing or beyond the table is an
    ``OpeError`` naming the first episode that holds one."""
    frame = store.decision_frame
    state, next_state = store.state_id[frame], store.state_id[frame + 1]
    bad = store.first_episode((state < 0) | (next_state < 0))
    if bad is not None:
        raise OpeError(f"episode {store.episode_id[bad]!r} lacks state ids; tabular "
                       f"policies need synthetic ground truth attached")
    bad = store.first_episode((state >= n_states) | (next_state >= n_states))
    if bad is not None:
        raise OpeError(f"episode {store.episode_id[bad]!r} has a state id beyond "
                       f"the table's {n_states} rows")
    return state, next_state


# ---------------------------------------------------------------------------
# Target policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularPolicy:
    """State-indexed stochastic policy; needs latent state ids on the data."""

    probs: Array  # (S, A)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if not rows_are_distributions(self.probs):
            raise OpeError("policy rows must be distributions")

    def evaluation_rows(self, store: EpisodeStore) -> tuple[Array, Array]:
        """One-hot latent state per frame, and the policy's row per decision."""
        state, _ = _state_ids(store, self.probs.shape[0])
        return np.eye(self.probs.shape[0])[store.state_id], self.probs[state]


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
        p = self._classifier.probs(np.atleast_2d(features)).astype(np.float64)
        return (1.0 - N_ACTIONS * self.floor) * p + self.floor

    def logged_probs(self, store: EpisodeStore) -> Array:
        dist = self.action_dist(store.structured[store.decision_frame])
        return dist[np.arange(store.action.shape[0]), store.action]


def fit_behavior(dataset: OfflineDataset,
                 cfg: BehaviorFitConfig | None = None) -> FittedBehavior:
    """Fit the logging policy as a floored softmax classifier (an
    ``ActionClassifier`` of depth 0, trained in ``TRAIN_DTYPE``) on the raw
    structured vector of each decision's frame."""
    cfg = cfg or BehaviorFitConfig()
    if not dataset.episodes:
        raise OpeError("no episodes to fit a behavior model on")
    store = dataset.store
    X, y = as_dtype(store.structured[store.decision_frame], TRAIN_DTYPE), store.action

    rng = np.random.default_rng([cfg.seed, 31])
    classifier = ActionClassifier(X.shape[1], rng, width=0, depth=0)
    cast_params(classifier.params())
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


def _prepare_stats(batch: EvalBatch, q_rows: Array | None, gamma: float) -> _EpisodeStats:
    store, pi = batch.store, batch.pi
    if batch.beta is None:
        raise OpeError("importance weights need a batch built with a behavior model")
    bad = store.first_episode(batch.beta <= 0.0)
    if bad is not None:
        raise DatasetError(
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
    if q_rows is not None:
        q_taken = padded(q_rows[rows, store.action], 0.0)
        v_hat = padded((pi * q_rows).sum(axis=1), 0.0)
    return _EpisodeStats(rho=rho, rewards=rewards, q_taken=q_taken, v_hat=v_hat,
                         returns=rewards @ (gamma ** np.arange(t_max)),
                         traj_weight=rho[np.arange(n), store.lengths - 1], gamma=gamma)


def _ess(w: Array) -> float:
    return float(w.sum() ** 2 / np.maximum((w * w).sum(), 1e-300))


def _wis_rows(stats: _EpisodeStats, idx: Array,
              clip_percentile: float | None) -> tuple[Array, Array]:
    """WIS of each row of episode indices ``idx`` (R, n), and the (R, n)
    trajectory weights it reads, each row capped at its own percentile."""
    w = stats.traj_weight[idx]
    if clip_percentile is not None:
        np.minimum(w, np.percentile(w, clip_percentile, axis=1, keepdims=True), out=w)
    total = w.sum(axis=1)
    if (total <= 0.0).any():
        raise OpeError("all importance weights are zero; the target policy "
                       "has no overlap with the logged actions")
    return (w * stats.returns[idx]).sum(axis=1) / total, w


def _wdr_rows(stats: _EpisodeStats, counts: Array) -> Array:
    """Weighted per-decision DR of each row of per-episode counts (R, n):
    at step t an episode weighs its rho_t over the row's total (0 where that
    is 0), and each of the row's n episodes weighs 1/n at step 0."""
    rho = stats.rho
    totals = counts @ rho
    corrected = counts @ (rho * (stats.rewards - stats.q_taken))
    carried = counts @ (rho[:, :-1] * stats.v_hat[:, 1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        per_t = np.where(totals > 0.0, corrected / totals, 0.0)
        per_t[:, 1:] += np.where(totals[:, :-1] > 0.0, carried / totals[:, :-1], 0.0)
    per_t[:, 0] += counts @ stats.v_hat[:, 0] / counts.shape[1]
    return per_t @ (stats.gamma ** np.arange(rho.shape[1]))


# ---------------------------------------------------------------------------
# Public estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WisResult:
    estimate: float
    weights: Array
    returns: Array
    effective_sample_size: float


def wis(batch: EvalBatch, gamma: float, clip_percentile: float | None = None) -> WisResult:
    """Self-normalized trajectory-weighted return estimate.

    A convex combination of logged episode returns, so the estimate always
    lies between the smallest and largest observed return.
    """
    stats = _prepare_stats(batch, None, gamma)
    estimate, w = _wis_rows(stats, np.arange(stats.returns.shape[0])[None], clip_percentile)
    return WisResult(estimate=float(estimate[0]), weights=w[0], returns=stats.returns,
                     effective_sample_size=_ess(w[0]))


def dr(batch: EvalBatch, q_rows: Array | None, gamma: float) -> float:
    """Weighted (self-normalized) per-decision doubly robust estimate.

    ``q_rows`` is a fitted Q at every decision of the batch, (N, A). With
    None (or zeros) this reduces to self-normalized per-decision importance
    sampling; with the exact Q on a deterministic process the correction
    terms telescope and the estimate equals its initial-state value.
    """
    stats = _prepare_stats(batch, q_rows, gamma)
    return float(_wdr_rows(stats, np.ones((1, stats.returns.shape[0])))[0])


# ---------------------------------------------------------------------------
# Fitted Q-evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FqeResult:
    estimate: float
    q_rows: Array           # (N, A) fitted Q at every decision of the batch
    initial_values: Array   # per evaluated episode


def _tabular_fqe(store: EpisodeStore, pi: Array, gamma: float,
                 episode_weights: Array) -> tuple[float, Array, Array]:
    """Exact FQE of ``pi`` on the empirical model of the store's episodes,
    episode i counted ``episode_weights[i]`` times: (estimate, Q-table,
    value of each episode's initial state).

    With r and P each seen (s, a) pair's weighted mean reward and
    non-terminal transition frequencies, solves
    (I - gamma sum_a pi P) V = sum_a pi r and sets Q = r + gamma P V (0 on
    unseen pairs). A bootstrap replicate is the call at its resample's
    per-episode counts, so it refits the model rather than resampling only
    initial-state values, which badly understates the variance.
    """
    n_states = pi.shape[0]
    state, next_state = _state_ids(store, n_states)
    w = episode_weights[store.episode_index].astype(np.float64)
    pair, n_pairs = state * N_ACTIONS + store.action, n_states * N_ACTIONS
    counts = np.bincount(pair, w, n_pairs).reshape(n_states, N_ACTIONS)
    r_sum = np.bincount(pair, w * store.reward, n_pairs).reshape(n_states, N_ACTIONS)
    flow = np.bincount(pair * n_states + next_state, w * ~store.done,
                       n_pairs * n_states).reshape(n_states, N_ACTIONS, n_states)
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    r_bar, p_bar = r_sum * inv_counts, flow * inv_counts[:, :, None]
    v = np.linalg.solve(np.eye(n_states) - gamma * np.einsum("sa,sat->st", pi, p_bar),
                        (pi * r_bar).sum(axis=1))
    initial = v[store.state_id[store.frame_offsets]]
    estimate = float((episode_weights * initial).sum() / episode_weights.sum())
    return estimate, r_bar + gamma * p_bar @ v, initial


def fqe_tabular(batch: EvalBatch, policy_matrix: Array, gamma: float) -> FqeResult:
    """Exact tabular FQE: one linear solve of the empirical Bellman system.

    Q(s, a) is the mean over logged (s, a) transitions of r + gamma (1 -
    done) V(s'), with V = sum_a pi Q, solved exactly rather than iterated;
    pairs never observed get Q = 0. The table has one state per row of
    ``policy_matrix``.
    """
    pi = np.asarray(policy_matrix, dtype=np.float64)
    if pi.ndim != 2 or pi.shape[1] != N_ACTIONS:
        raise OpeError(f"policy matrix must be (n_states, {N_ACTIONS}), got {pi.shape}")
    store = batch.store
    estimate, q, initial = _tabular_fqe(store, pi, gamma, np.ones(store.lengths.shape[0]))
    return FqeResult(estimate=estimate, q_rows=q[store.state_id[store.decision_frame]],
                     initial_values=initial)


@dataclass(frozen=True)
class FqeNetConfig:
    iterations: int = 25
    steps_per_iteration: int = 120
    width: int = 64
    depth: int = 2
    seed: int = 0


def fqe_network(batch: EvalBatch, gamma: float, cfg: FqeNetConfig | None = None) -> FqeResult:
    """Iterated Q regression on the policy's state features.

    Each outer iteration regresses r + gamma (1 - done) sum_a pi(a|s') Q_k
    (s', a) onto Q_{k+1}(s, a), with Q_k the network as the iteration starts;
    diverging values abort. The network and its features are in
    ``TRAIN_DTYPE``; the targets and the returned Q are float64.
    """
    cfg = cfg or FqeNetConfig()
    store, pi = batch.store, batch.pi
    X, X_next = (as_dtype(x, TRAIN_DTYPE) for x in (batch.decision_features,
                                                    batch.next_features))
    # policy distribution at the successor state; rows for terminal
    # transitions are masked by (1 - done)
    pi_next = np.where(store.done[:, None], 0.0, np.roll(pi, -1, axis=0))
    not_done = 1.0 - store.done.astype(np.float64)

    rng = np.random.default_rng([cfg.seed, 41])
    net = DuelingQNetwork(X.shape[1], rng, width=cfg.width, depth=cfg.depth,
                          n_actions=N_ACTIONS, name="fqe")
    cast_params(net.params())
    opt = Adam(net.params(), lr=FQE_LEARNING_RATE)
    # the target check and Adam's gradient check report an overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.iterations):
            with no_grad():
                next_q = net(Tensor(X_next)).data
            targets = store.reward + gamma * not_done * (pi_next * next_q).sum(axis=1)
            if not np.isfinite(targets).all():
                raise OpeError(f"fitted Q-evaluation diverged at iteration {it}: "
                               f"non-finite regression targets")
            for _ in range(cfg.steps_per_iteration):
                idx = rng.integers(0, X.shape[0], size=min(FQE_BATCH_SIZE, X.shape[0]))
                loss = dqn_loss(net(Tensor(X[idx])), store.action[idx], targets[idx])[0]
                loss.backward()
                opt.step()
    with no_grad():
        q_rows = net(Tensor(X)).data.astype(np.float64)
        q0 = net(Tensor(X[store.offsets])).data.astype(np.float64)
    initial = (pi[store.offsets] * q0).sum(axis=1)
    return FqeResult(estimate=float(initial.mean()), q_rows=q_rows,
                     initial_values=initial)


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
        clip = self.clip_percentile
        if clip is not None and not 0.0 < clip <= 100.0:
            raise OpeError(f"clip_percentile must be null or a number in (0, 100], got {clip}")


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
    state ids are available, otherwise in network mode. One (B + 1, n) matrix
    of episode indices holds the sample itself in row 0 and its B resamples
    below; WIS answers for every row at once from its weights, DR from its
    per-episode counts. Tabular FQE is refit on each resample's counts; the
    network FQE replicate only resamples per-episode initial-state values
    (the network is fit once, so its bootstrap SE understates refit variance).
    """
    batch = eval_batch(dataset, policy, behavior)
    store = batch.store
    n = store.lengths.shape[0]

    table = None
    if policy_table is not None and (store.state_id[store.decision_frame] >= 0).all():
        table = np.asarray(policy_table, dtype=np.float64)
        if n_states is None or table.shape[0] != n_states:
            raise OpeError(f"policy table has {table.shape[0]} rows, n_states is {n_states}")
        fqe_result = fqe_tabular(batch, table, cfg.gamma)
        fqe_mode = "tabular"
    else:
        fqe_result = fqe_network(batch, cfg.gamma, cfg.fqe)
        fqe_mode = "network"

    stats = _prepare_stats(batch, fqe_result.q_rows, cfg.gamma)
    rng = np.random.default_rng([cfg.seed, 97])
    idx = np.vstack([np.arange(n), rng.integers(0, n, size=(cfg.n_bootstrap, n))])
    wis_rows, w = _wis_rows(stats, idx, cfg.clip_percentile)
    ess = _ess(w[0])
    del w
    counts = np.bincount((idx + n * np.arange(idx.shape[0])[:, None]).ravel(),
                         minlength=idx.size).reshape(idx.shape).astype(np.float64)
    if table is None:
        fqe_reps = fqe_result.initial_values[idx[1:]].mean(axis=1)
    else:
        fqe_reps = np.array([_tabular_fqe(store, table, cfg.gamma, c)[0] for c in counts[1:]])
    del idx
    dr_rows = _wdr_rows(stats, counts)
    names = ("wis", "dr", "fqe")
    points = (float(wis_rows[0]), float(dr_rows[0]), fqe_result.estimate)
    reps = np.stack([wis_rows[1:], dr_rows[1:], fqe_reps], axis=1)
    agg = opera([(name, points[j], reps[:, j]) for j, name in enumerate(names)])
    ses = {name: float(reps[:, j].std(ddof=1)) for j, name in enumerate(names)}
    ses["opera"] = float((reps @ np.array([agg.weights[name] for name in names])).std(ddof=1))
    return OPEReport(*points, opera=agg.estimate, standard_errors=ses,
                     opera_weights=agg.weights, effective_sample_size=ess,
                     n_episodes=n, fqe_mode=fqe_mode,
                     used_inverse_variance_fallback=agg.used_inverse_variance_fallback)
