"""Synthetic two-modality tabular MDPs with exact dynamic-programming oracles.

The generated process is a severity chain with a static per-episode context
factor. A state is (severity u, context v) plus two absorbing resolution
states (recovery / decease). Each step either resolves the episode -- with a
survival probability that peaks at the action appropriate for (u, v) -- or
drifts the severity, independently of the action and of v. The structured
modality emits a severity-keyed feature vector, the note modality emits a
context-keyed embedding, so the best action is identifiable only from both
modalities together.

Because v is static and every within-episode mechanism (drift, termination)
is independent of v and of actions, the value of the best structured-only
policy is exactly the DP solution of the severity-aggregated MDP, and the
value of the best note-only policy is exactly computable by a forward
occupancy recursion. ``generate_mdp`` certifies both gaps at generation time.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .dataset import (
    N_ACTIONS,
    N_DOSE_LEVELS,
    DoseBins,
    EpisodeStore,
    OfflineDataset,
)

Array = np.ndarray

# canonical per-level doses so that discretize(dose) round-trips exactly
LEVEL_BIN_EDGES = (0.5, 1.5, 2.5, 3.5)
# derived seeds ``generate_mdp`` tries before giving up on the gap margin
MAX_GENERATION_ATTEMPTS = 5
# survival probability at resolution, (healthy u=0, sick u=max), for the
# optimal action and for the farthest one; then the jitter on each entry,
# kept below 0.03 so that the optimal action stays optimal
SURVIVE_BEST = (0.95, 0.60)
SURVIVE_WORST = (0.45, 0.10)
Q_JITTER = 0.01
# severity drift: probability of staying put, and the jitter added to each entry
DRIFT_STAY = 0.5
DRIFT_JITTER = 0.05
# norm of the structured emission means; note probability of an episode's first frame
STRUCT_SCALE = 2.0
FIRST_FRAME_NOTE_PROB = 1.0
# the axes of each array field of ``TabularMDP`` beside ``transition`` (S, A, S):
# S states, A actions, F features and D note dimensions (d_n)
FIELD_AXES = {"reward_terminal": "S", "terminal_prob": "SA", "absorbing": "S",
              "initial_dist": "S", "emission_l_mean": "SF", "emission_n_proto": "SD",
              "note_present_prob": "S", "context_prototype": "SD", "severity_of": "S",
              "context_of": "S", "optimal_action": "S"}


class GeneratorError(ValueError):
    """Invalid generator configuration or failed gap certification."""


def rows_are_distributions(probs: Array) -> bool:
    """Whether ``probs`` is 2-D with nonnegative rows each summing to 1 within 1e-9."""
    return probs.ndim == 2 and bool((probs >= 0.0).all()) \
        and bool((np.abs(probs.sum(axis=1) - 1.0) <= 1e-9).all())


# ---------------------------------------------------------------------------
# Pseudo note embeddings
# ---------------------------------------------------------------------------

_BASIS_CACHE: dict[tuple[str, int, int], Array] = {}


def _orthonormal_basis(kind: str, d_n: int, seed: int) -> Array:
    key = (kind, d_n, seed)
    if key not in _BASIS_CACHE:
        digest = hashlib.sha256(f"{seed}|{kind}|{d_n}".encode()).digest()
        words = np.frombuffer(digest[:32], dtype=np.uint64)
        rng = np.random.default_rng(words)
        q, r = np.linalg.qr(rng.standard_normal((d_n, d_n)))
        q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
        _BASIS_CACHE[key] = q
    return _BASIS_CACHE[key]


def pseudo_embed(state_id: int, kind: str, d_n: int, seed: int) -> Array:
    """Deterministic unit-norm embedding for (state_id, kind).

    The first d_n ids per kind map to columns of a seeded orthonormal basis
    (pairwise cosine exactly 0); ids beyond that fall back to independent
    normalized Gaussian draws. Canonical kinds are "context" and "event".
    """
    if d_n < 1:
        raise GeneratorError(f"d_n must be >= 1, got {d_n}")
    if state_id < 0:
        raise GeneratorError(f"state_id must be nonnegative, got {state_id}")
    if state_id < d_n:
        return _orthonormal_basis(kind, d_n, seed)[:, state_id].copy()
    digest = hashlib.sha256(f"{seed}|{kind}|{d_n}|{state_id}".encode()).digest()
    rng = np.random.default_rng(np.frombuffer(digest[:32], dtype=np.uint64))
    v = rng.standard_normal(d_n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP over (severity, context) states plus two absorbing outcomes.

    Entering an absorbing state ends the episode; the reward of the terminal
    transition is reward_terminal[next_state]. Truncated episodes are scored
    with reward_terminal of the state reached at the cut.
    """

    transition: Array          # (S, A, S) row-stochastic
    reward_terminal: Array     # (S,) in {+1, -1}
    terminal_prob: Array       # (S, A) probability the transition resolves
    absorbing: Array           # (S,) bool
    gamma: float
    initial_dist: Array        # (S,)
    emission_l_mean: Array     # (S, F)
    emission_l_noise: float
    emission_n_proto: Array    # (S, d_n)
    emission_n_noise: float
    note_present_prob: Array   # (S,)
    context_prototype: Array   # (S, d_n), keyed by the initial state's context
    first_frame_note_prob: float
    n_severity: int
    n_context: int
    severity_of: Array         # (S,) int, -1 for absorbing states
    context_of: Array          # (S,) int, -1 for absorbing states
    optimal_action: Array      # (S,) int
    oracle: dict = field(default_factory=dict)

    def __post_init__(self):
        t = self.transition
        if t.ndim != 3 or t.shape[0] != t.shape[2] or t.shape[1] != N_ACTIONS:
            raise GeneratorError(f"transition tensor has bad shape {t.shape}")
        # F and D are the widths of the first field that has them
        dims = {"S": t.shape[0], "A": N_ACTIONS}
        for name, axes in FIELD_AXES.items():
            shape = np.shape(getattr(self, name))
            if len(shape) != len(axes) or \
                    shape != tuple(dims.setdefault(a, n) for a, n in zip(axes, shape)):
                raise GeneratorError(f"{name} has shape {shape}, expected "
                                     f"{tuple(dims.get(a, a) for a in axes)} ({', '.join(axes)})")
        rows = t.sum(axis=2)
        if np.abs(rows - 1.0).max() > 1e-9:
            raise GeneratorError("transition rows must sum to 1 within 1e-9")
        if (t < 0).any():
            raise GeneratorError("transition tensor has negative entries")
        if not np.isin(self.reward_terminal, (-1.0, 1.0)).all():
            raise GeneratorError("reward_terminal entries must be +1 or -1")
        if ((self.terminal_prob < 0) | (self.terminal_prob > 1)).any():
            raise GeneratorError("terminal_prob entries must lie in [0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise GeneratorError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("emission_l_mean", "emission_n_proto", "context_prototype"):
            if not np.isfinite(getattr(self, name)).all():
                raise GeneratorError(f"{name} must be finite")
        if abs(self.initial_dist.sum() - 1.0) > 1e-9 or (self.initial_dist < 0).any():
            raise GeneratorError("initial_dist must be a distribution")
        if self.initial_dist[self.absorbing].sum() > 0:
            raise GeneratorError("initial_dist must not start in absorbing states")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @property
    def n_features(self) -> int:
        return self.emission_l_mean.shape[1]

    @property
    def d_n(self) -> int:
        return self.emission_n_proto.shape[1]


@dataclass(frozen=True)
class BehaviorPolicy:
    """Logging policy over latent states.

    Importance-sampling estimators require full support (every probability
    > 0); degenerate rows are admitted at construction for deterministic
    rollout sanity cases and rejected where a ratio would divide by zero.
    """

    probs: Array  # (S, A)

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))
        if self.probs.ndim != 2:
            raise GeneratorError(f"behavior probs must be 2-d, got {self.probs.shape}")
        if not rows_are_distributions(self.probs):
            raise GeneratorError("behavior probabilities must be nonnegative" if self.probs.min() < 0
                                 else "behavior rows must sum to 1 within 1e-9")


@dataclass(frozen=True)
class GeneratorConfig:
    n_severity: int = 5
    n_context: int = 3
    n_features: int = 42
    d_n: int = 64
    gamma: float = 0.95
    term_prob_mid: float = 0.25
    term_prob_edge: float = 0.55
    noise_structured: float = 0.3
    noise_note: float = 0.1
    note_prob: float = 0.7
    min_gap: float = 0.08

    def __post_init__(self):
        if self.n_severity < 1 or self.n_context < 1 or self.n_severity * self.n_context < 2:
            raise GeneratorError("need at least 2 latent states (n_severity * n_context >= 2)")
        if not (0.0 <= self.gamma < 1.0):
            raise GeneratorError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("term_prob_mid", "term_prob_edge", "note_prob"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise GeneratorError(f"{name} must lie in [0, 1], got {value}")
        for name in ("term_prob_mid", "term_prob_edge"):
            if getattr(self, name) <= 0.0:
                raise GeneratorError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("noise_structured", "noise_note"):
            if getattr(self, name) < 0:
                raise GeneratorError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.n_features < 1 or self.d_n < 1:
            raise GeneratorError("n_features and d_n must be >= 1")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def generate_mdp(config: GeneratorConfig, seed: int) -> TabularMDP:
    """Deterministically build an MDP and certify its modality gaps.

    The optimal action at (u, v) depends jointly on both factors, so any
    policy reading a single modality is provably short of optimal; the
    achieved gaps are recomputed by exact DP and must clear config.min_gap
    (structured gap requires n_context >= 2, note gap requires n_severity
    >= 2). Retries with a derived seed if a jittered draw misses the margin.
    """
    last_gaps = None
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        mdp = _build_mdp(config, seed, attempt)
        gaps = (mdp.oracle["gap_structured_only"], mdp.oracle["gap_note_only"])
        ok = True
        if config.n_context >= 2 and gaps[0] < config.min_gap:
            ok = False
        if config.n_severity >= 2 and gaps[1] < config.min_gap:
            ok = False
        if ok:
            return mdp
        last_gaps = gaps
    raise GeneratorError(
        f"could not certify modality gaps >= {config.min_gap} after "
        f"{MAX_GENERATION_ATTEMPTS} attempts (last gaps: {last_gaps})"
    )


def _build_mdp(config: GeneratorConfig, seed: int, attempt: int) -> TabularMDP:
    rng = np.random.default_rng([seed, attempt, 913])
    n_u, n_v = config.n_severity, config.n_context
    n_ord = n_u * n_v
    S = n_ord + 2
    surv_state, dead_state = n_ord, n_ord + 1
    # ordinary state s = u * n_v + v; the absorbing states come last
    u, v = np.divmod(np.arange(n_ord), n_v)
    severity_of = np.append(u, [-1, -1])
    context_of = np.append(v, [-1, -1])

    # optimal action couples both factors: IV level (u + v), vaso level (u + 2v)
    best_iv, best_vaso = (u + v) % N_DOSE_LEVELS, (u + 2 * v) % N_DOSE_LEVELS
    optimal = np.append(N_DOSE_LEVELS * best_iv + best_vaso, [0, 0])

    # survival probability at resolution, best for the optimal action and
    # falling with the mean level distance from it
    frac = (np.arange(n_u) / max(n_u - 1, 1))
    (best_h, best_s), (worst_h, worst_s) = SURVIVE_BEST, SURVIVE_WORST
    q_best = (best_h - frac * (best_h - best_s))[u, None]
    q_worst = (worst_h - frac * (worst_h - worst_s))[u, None]
    iv, vaso = np.divmod(np.arange(N_ACTIONS), N_DOSE_LEVELS)
    level_gap = 0.5 * (np.abs(iv - best_iv[:, None]) + np.abs(vaso - best_vaso[:, None]))
    q = q_worst + (q_best - q_worst) * (1.0 - level_gap / 4.0)
    q += Q_JITTER * rng.uniform(-1.0, 1.0, size=q.shape)
    q = np.clip(q, 0.02, 0.98)

    # severity-keyed termination, action-independent
    t_u = np.full(n_u, config.term_prob_mid)
    t_u[0] = config.term_prob_edge
    t_u[-1] = config.term_prob_edge

    # action-independent severity drift (reflecting random walk + jitter)
    levels, step = np.arange(n_u), (1.0 - DRIFT_STAY) / 2.0
    drift = DRIFT_STAY * np.eye(n_u)
    np.add.at(drift, (levels, np.maximum(levels - 1, 0)), step)
    np.add.at(drift, (levels, np.minimum(levels + 1, n_u - 1)), step)
    drift += DRIFT_JITTER * rng.uniform(0.0, 1.0, size=drift.shape)
    drift /= drift.sum(axis=1, keepdims=True)

    # resolve with probability t, else drift (u, v) -> (u2, v)
    t = t_u[u, None]
    transition = np.zeros((S, N_ACTIONS, S))
    transition[:n_ord, :, surv_state] = t * q
    transition[:n_ord, :, dead_state] = t * (1.0 - q)
    transition[np.arange(n_ord)[:, None], :, levels * n_v + v[:, None]] = \
        ((1.0 - t) * drift[u])[:, :, None]
    absorbing = np.arange(S) >= n_ord
    transition[absorbing, :, absorbing] = 1.0
    terminal_prob = np.ones((S, N_ACTIONS))
    terminal_prob[:n_ord] = t

    reward_terminal = np.append(np.where(u <= (n_u - 1) // 2, 1.0, -1.0), [1.0, -1.0])

    # start in the middle of the severity range, context uniform
    initial_dist = np.zeros(S)
    initial_dist[:n_ord] = (n_u < 4) | ((u >= 1) & (u < n_u - 1))
    initial_dist /= initial_dist.sum()

    # a keyed draw per id; absorbing states take the ids after the last
    # severity and context
    def embed(kind: str, ids: Array, width: int) -> Array:
        return np.array([pseudo_embed(k, kind, width, seed) for k in range(ids.max() + 1)])[ids]

    u_ids, v_ids = np.append(u, [n_u, n_u + 1]), np.append(v, [n_v, n_v + 1])
    emission_l = STRUCT_SCALE * embed("severity", u_ids, config.n_features)
    emission_n = embed("event", v_ids, config.d_n)
    context_proto = np.zeros((S, config.d_n))
    context_proto[:n_ord] = embed("context", v, config.d_n)

    note_prob = np.full(S, config.note_prob)
    note_prob[absorbing] = 0.0

    mdp = TabularMDP(
        transition=transition, reward_terminal=reward_terminal,
        terminal_prob=terminal_prob, absorbing=absorbing, gamma=config.gamma,
        initial_dist=initial_dist, emission_l_mean=emission_l,
        emission_l_noise=config.noise_structured, emission_n_proto=emission_n,
        emission_n_noise=config.noise_note, note_present_prob=note_prob,
        context_prototype=context_proto,
        first_frame_note_prob=FIRST_FRAME_NOTE_PROB,
        n_severity=n_u, n_context=n_v, severity_of=severity_of,
        context_of=context_of, optimal_action=optimal,
    )

    v_opt = exact_policy_value(mdp, optimal)
    v_struct, _ = best_structured_only(mdp)
    v_note = best_note_only(mdp)
    oracle = {
        "value_optimal": v_opt,
        "value_best_structured_only": v_struct,
        "value_best_note_only": v_note,
        "gap_structured_only": v_opt - v_struct,
        "gap_note_only": v_opt - v_note,
    }
    return replace(mdp, oracle=oracle)


def near_clinician_behavior(mdp: TabularMDP, epsilon: float = 0.3) -> BehaviorPolicy:
    """Optimal action with probability 1 - eps, the rest uniform (full support)."""
    if not (0.0 < epsilon < 1.0):
        raise GeneratorError(f"epsilon must be in (0, 1), got {epsilon}")
    probs = eps_soft_matrix(mdp.optimal_action, mdp.n_actions, epsilon)
    probs[mdp.absorbing] = 1.0 / mdp.n_actions
    return BehaviorPolicy(probs)


# ---------------------------------------------------------------------------
# Exact policy values
# ---------------------------------------------------------------------------


def _policy_matrix(policy, n_states: int, n_actions: int) -> Array:
    pi = np.asarray(policy)
    if pi.ndim == 1:
        mat = np.zeros((n_states, n_actions))
        mat[np.arange(n_states), pi.astype(np.int64)] = 1.0
        return mat
    if pi.shape != (n_states, n_actions):
        raise GeneratorError(f"policy matrix has bad shape {pi.shape}")
    if not rows_are_distributions(pi):
        raise GeneratorError("policy rows must be distributions")
    return pi.astype(np.float64)


def _step_operator(mdp: TabularMDP, pi: Array, gamma: float) -> tuple[Array, Array]:
    """Return (M, b) with V = b + M V on non-absorbing states."""
    # policy-weighted transition kernel
    kernel = np.einsum("sa,sat->st", pi, mdp.transition)
    term = mdp.absorbing.astype(np.float64)
    b = kernel @ (term * mdp.reward_terminal)
    M = gamma * kernel * (1.0 - term)[None, :]
    return M, b


def exact_policy_value(mdp: TabularMDP, policy, gamma: float | None = None,
                       horizon: int | None = None) -> float:
    """Initial-distribution-weighted value of a state-indexed policy.

    ``policy`` is an (S,) action array or an (S, A) stochastic matrix.
    With ``horizon`` set, uses backward induction matching rollout
    truncation (the final permitted transition is scored with the outcome
    label of the state it reaches); otherwise solves the infinite-horizon
    Bellman equations by linear solve.
    """
    return float(mdp.initial_dist @ state_values(mdp, policy, gamma, horizon))


def state_values(mdp: TabularMDP, policy, gamma: float | None = None,
                 horizon: int | None = None) -> Array:
    """Per-state values V(s); absorbing states are 0 by convention."""
    gamma = mdp.gamma if gamma is None else float(gamma)
    if gamma >= 1.0 or gamma < 0.0:
        raise GeneratorError(f"gamma must be in [0, 1), got {gamma}")
    pi = _policy_matrix(policy, mdp.n_states, mdp.n_actions)
    M, b = _step_operator(mdp, pi, gamma)
    free = ~mdp.absorbing
    if horizon is not None:
        if horizon < 1:
            raise GeneratorError(f"horizon must be >= 1, got {horizon}")
        # one transition left: natural or forced, the outcome label of the
        # reached state is paid either way
        kernel = np.einsum("sa,sat->st", pi, mdp.transition)
        values = kernel @ mdp.reward_terminal
        for _ in range(horizon - 1):
            values = b + M @ values
        values = values.copy()
        values[~free] = 0.0
        return values
    A = np.eye(int(free.sum())) - M[np.ix_(free, free)]
    v_free = np.linalg.solve(A, b[free])
    values = np.zeros(mdp.n_states)
    values[free] = v_free
    return values


def optimal_values(mdp: TabularMDP) -> tuple[Array, Array]:
    """Value iteration over all actions; returns (V*, greedy policy)."""
    term = mdp.absorbing.astype(np.float64)
    payoff = mdp.transition @ (term * mdp.reward_terminal)          # (S, A)
    cont = mdp.gamma * mdp.transition * (1.0 - term)[None, None, :]  # (S, A, S)
    v = np.zeros(mdp.n_states)
    while True:
        q = payoff + cont @ v
        nxt = q.max(axis=1)
        nxt[mdp.absorbing] = 0.0
        if np.abs(nxt - v).max() < 1e-12:
            break
        v = nxt
    greedy = (payoff + cont @ v).argmax(axis=1)
    return v, greedy


def _factor_structure(mdp: TabularMDP):
    """Severity-chain quantities (t_u, q, drift, p_u, p_v), read from the
    MDP's tensors and never from the generator's constants, checking the
    factorization the generator promises: termination keyed by severity
    alone, a severity drift shared by every context and action, and an
    initial distribution that is a product of its marginals."""
    n_u, n_v = mdp.n_severity, mdp.n_context
    n_ord = n_u * n_v
    t_vals = mdp.terminal_prob[:n_ord].reshape(n_u, n_v * N_ACTIONS)
    if np.ptp(t_vals, axis=1).max() > 1e-12:
        raise GeneratorError("termination must be severity-keyed and action-independent")
    t_u = t_vals[:, 0]
    q = mdp.transition[:n_ord, :, n_ord].reshape(n_u, n_v, N_ACTIONS) \
        / np.maximum(t_u, 1e-300)[:, None, None]
    # per[v, u, a, u2]: the move (u, v) -> (u2, v) under action a
    contexts = np.arange(n_v)
    moves = mdp.transition[:n_ord, :, :n_ord].reshape(n_u, n_v, N_ACTIONS, n_u, n_v)
    per = moves[:, contexts, :, :, contexts] / np.maximum(1.0 - t_u, 1e-300)[:, None, None]
    if np.ptp(per, axis=(0, 2)).max() > 1e-12:
        raise GeneratorError("severity drift must be context- and action-independent")
    drift = per[0, :, 0]
    # marginals summed in index order (cumsum adds sequentially; sum would
    # add pairwise and round differently once a row has 9 or more entries);
    # p_u is copied out of its column because a dot product rounds a strided
    # vector differently
    joint = mdp.initial_dist[:n_ord].reshape(n_u, n_v)
    p_u = joint.cumsum(axis=1)[:, -1].copy()
    p_v = joint.cumsum(axis=0)[-1]
    if n_u > 1 and n_v > 1:
        if np.abs(joint - np.outer(p_u, p_v)).max() > 1e-9:
            raise GeneratorError("initial distribution must factorize over (severity, context)")
    return t_u, q, drift, p_u, p_v


def best_structured_only(mdp: TabularMDP) -> tuple[float, Array]:
    """Exact value of the best severity-conditioned policy.

    A structured-only observer learns nothing about the context factor
    within an episode, so its best value is the DP optimum of the
    severity-aggregated chain with survival averaged over the context prior.
    """
    t_u, q, drift, p_u, p_v = _factor_structure(mdp)
    q_bar = np.einsum("v,uva->ua", p_v, q)  # (n_u, A)
    n_u = mdp.n_severity
    v = np.zeros(n_u)
    while True:
        q_values = (t_u[:, None] * (2.0 * q_bar - 1.0)
                    + ((1.0 - t_u) * mdp.gamma)[:, None] * (drift @ v)[:, None])
        nxt = q_values.max(axis=1)
        if np.abs(nxt - v).max() < 1e-13:
            break
        v = nxt
    policy_u = q_values.argmax(axis=1)
    return float(p_u @ v), policy_u


def best_note_only(mdp: TabularMDP) -> float:
    """Exact value of the best context-conditioned (note-only) policy.

    Actions never move the severity chain, so the optimal note-only agent
    picks, at each step, the action maximizing the survival odds averaged
    over the current severity occupancy; the occupancy itself evolves
    autonomously. Upper-bounds every policy that reads only the note
    modality, including history-dependent ones.
    """
    t_u, q, drift, p_u, p_v = _factor_structure(mdp)
    value = 0.0
    beta = p_u.copy()          # P(severity = u, alive at t)
    discount = 1.0
    while beta.sum() * discount > 1e-13:
        resolve = beta * t_u   # (n_u,) mass resolving now
        # per context: best action against the current severity occupancy
        gain = np.einsum("u,uva->va", resolve, 2.0 * q - 1.0)  # (n_v, A)
        value += discount * float(p_v @ gain.max(axis=1))
        beta = (beta * (1.0 - t_u)) @ drift
        discount *= mdp.gamma
    return value


# ---------------------------------------------------------------------------
# Rollouts
# ---------------------------------------------------------------------------


def rollout(mdp: TabularMDP, policy: BehaviorPolicy, n_episodes: int,
            max_len: int = 18, seed: int = 0,
            split_fractions: tuple[float, float, float] = (1.0, 0.0, 0.0),
            id_prefix: str = "ep") -> OfflineDataset:
    """Roll out episodes under a behavior policy into an OfflineDataset.

    Transitions record the behavior probability of the logged action and the
    latent state ids (enabling tabular oracles). Episodes hitting max_len
    are force-terminated and scored with the outcome label of the state
    reached. Draws are made one frame at a time, in a fixed order, into the
    dataset's arrays.
    """
    if n_episodes < 1:
        raise GeneratorError(f"n_episodes must be >= 1, got {n_episodes}")
    if max_len < 1:
        raise GeneratorError(f"max_len must be >= 1, got {max_len}")
    if abs(sum(split_fractions) - 1.0) > 1e-9 or min(split_fractions) < 0:
        raise GeneratorError(f"split fractions must be a distribution, got {split_fractions}")
    rng = np.random.default_rng([seed, 5077])
    n_train = int(round(split_fractions[0] * n_episodes))
    n_val = int(round(split_fractions[1] * n_episodes))

    # inverse-CDF sampling on Python lists; bisect_right is searchsorted(side="right")
    cdf_initial = np.cumsum(mdp.initial_dist).tolist()
    cdf_policy = np.cumsum(policy.probs, axis=1).tolist()
    cdf_transition = np.cumsum(mdp.transition, axis=2).tolist()
    behavior_probs = policy.probs.tolist()
    note_prob = mdp.note_present_prob.tolist()
    absorbing = mdp.absorbing.tolist()

    def draw(cdf: list[float]) -> int:
        return min(bisect.bisect_right(cdf, rng.random()), len(cdf) - 1)

    states, actions, logged_probs, lengths, survived = [], [], [], [], []
    present, noise_l, protos, noise_n = [], [], [], []

    def emit(state: int, proto: Array, p_note: float) -> None:
        """Draw one frame's noise and note presence, in the order of the stream."""
        states.append(state)
        if mdp.emission_l_noise > 0:
            noise_l.append(rng.standard_normal(mdp.n_features))
        present.append(rng.random() < p_note)
        if present[-1]:
            protos.append(proto)
            if mdp.emission_n_noise > 0:
                noise_n.append(rng.standard_normal(mdp.d_n))

    for _ in range(n_episodes):
        s = draw(cdf_initial)
        emit(s, mdp.context_prototype[s], mdp.first_frame_note_prob)
        for step in range(max_len):
            a = draw(cdf_policy[s])
            actions.append(a)
            logged_probs.append(behavior_probs[s][a])
            s = draw(cdf_transition[s][a])
            emit(s, mdp.emission_n_proto[s], note_prob[s])
            if absorbing[s] or step == max_len - 1:
                break
        lengths.append(step + 1)
        survived.append(mdp.reward_terminal[s] > 0)

    state_id = np.array(states, dtype=np.int64)
    structured = mdp.emission_l_mean[state_id]
    if noise_l:
        structured += mdp.emission_l_noise * np.array(noise_l)
    note_present = np.array(present, dtype=bool)
    note_embedding = np.zeros((state_id.size, mdp.d_n))
    if protos:
        note_embedding[note_present] = np.array(protos)
    if noise_n:
        note_embedding[note_present] += mdp.emission_n_noise * np.array(noise_n)
    action = np.array(actions, dtype=np.int64)
    split = np.array(["train" if i < n_train else ("val" if i < n_train + n_val else "test")
                      for i in range(n_episodes)], dtype=object)
    store = EpisodeStore(
        structured=structured, note_embedding=note_embedding, note_present=note_present,
        state_id=state_id, action=action,
        iv_dose=(action // N_DOSE_LEVELS).astype(np.float64),
        vaso_dose=(action % N_DOSE_LEVELS).astype(np.float64),
        behavior_prob=np.array(logged_probs), lengths=np.array(lengths, dtype=np.int64),
        survived=np.array(survived, dtype=bool),
        episode_id=np.array([f"{id_prefix}{i:06d}" for i in range(n_episodes)], dtype=object),
        split=split)
    return OfflineDataset(store.views(), n_features=mdp.n_features, d_n=mdp.d_n,
                          bin_edges=DoseBins(LEVEL_BIN_EDGES, LEVEL_BIN_EDGES))


# ---------------------------------------------------------------------------
# Canonical observations and policy tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalInputs:
    """Noise-free per-state observation prototypes, for policy extraction."""

    structured: Array     # (S, F)
    event_note: Array     # (S, d_n)
    context_note: Array   # (S, d_n)


def canonical_inputs(mdp: TabularMDP, feature_stats=None) -> CanonicalInputs:
    """Per-state prototypes; pass the dataset's feature_stats when the
    policy was trained on normalized features."""
    structured = mdp.emission_l_mean.copy() if feature_stats is None \
        else feature_stats.standardize(mdp.emission_l_mean)
    return CanonicalInputs(
        structured=structured,
        event_note=mdp.emission_n_proto.copy(),
        context_note=mdp.context_prototype.copy(),
    )


def eps_soft_matrix(actions: Array, n_actions: int, eps: float) -> Array:
    """Deterministic actions softened to eps-uniform over the alternatives."""
    actions = np.asarray(actions, dtype=np.int64)
    probs = np.full((actions.shape[0], n_actions), eps / (n_actions - 1))
    probs[np.arange(actions.shape[0]), actions] = 1.0 - eps
    return probs


# ---------------------------------------------------------------------------
# Ground truth round-trip
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundTruth:
    mdp: TabularMDP
    behavior: BehaviorPolicy
    oracle_values: dict
    episode_states: dict[str, list[int]]


def oracle_values(mdp: TabularMDP, behavior: BehaviorPolicy) -> dict:
    out = dict(mdp.oracle)
    out["value_behavior"] = exact_policy_value(mdp, behavior.probs)
    return out


def _to_json(value):
    """A ``TabularMDP`` field as JSON: arrays as lists, bool arrays as 0/1."""
    if isinstance(value, np.ndarray):
        return (value.astype(int) if value.dtype == bool else value).tolist()
    return value


def _from_json(f, value):
    """The ``TabularMDP`` field ``f`` read back by its annotation."""
    if f.type == "Array":
        return np.array(value, dtype=bool if f.name == "absorbing" else None)
    return {"float": float, "int": int, "dict": dict}[f.type](value)


def write_ground_truth(path: str | Path, mdp: TabularMDP, behavior: BehaviorPolicy,
                       dataset: OfflineDataset) -> None:
    store = dataset.store
    unknown = store.state_id < 0
    if unknown.any():
        episode = store.frame_episode[np.argmax(unknown)]
        raise GeneratorError(f"episode {store.episode_id[episode]!r} lacks state ids")
    episode_states = dict(zip(store.episode_id, (
        states.tolist() for states in np.split(store.state_id, store.frame_offsets[1:]))))
    payload = {
        "mdp": {f.name: _to_json(getattr(mdp, f.name)) for f in fields(TabularMDP)},
        "behavior_probs": behavior.probs.tolist(),
        "oracle_values": oracle_values(mdp, behavior),
        "episode_states": episode_states,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_ground_truth(path: str | Path) -> GroundTruth:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    m = payload["mdp"]
    mdp = TabularMDP(**{f.name: _from_json(f, m[f.name]) for f in fields(TabularMDP)})
    probs = np.array(payload["behavior_probs"])
    if probs.shape != (mdp.n_states, mdp.n_actions):
        raise GeneratorError(f"behavior_probs has shape {probs.shape}, expected "
                             f"{(mdp.n_states, mdp.n_actions)} (S, A)")
    return GroundTruth(mdp=mdp, behavior=BehaviorPolicy(probs),
                       oracle_values=dict(payload["oracle_values"]),
                       episode_states={k: list(map(int, v))
                                       for k, v in payload["episode_states"].items()})


def attach_ground_truth(dataset: OfflineDataset, gt: GroundTruth) -> OfflineDataset:
    """Re-attach latent state ids and behavior probabilities after ingest."""
    store = dataset.store
    sequences = []
    for episode_id, length in zip(store.episode_id, store.lengths.tolist()):
        seq = gt.episode_states.get(episode_id)
        if seq is None:
            raise GeneratorError(f"no ground-truth states for episode {episode_id!r}")
        if len(seq) != length + 1:
            raise GeneratorError(
                f"episode {episode_id!r}: ground truth lists {len(seq)} states "
                f"for {length} transitions"
            )
        sequences.append(seq)
    state_id = np.array([s for seq in sequences for s in seq], dtype=np.int64)
    n_states = gt.behavior.probs.shape[0]
    if state_id.size and not 0 <= state_id.min() <= state_id.max() < n_states:
        raise GeneratorError(f"ground-truth state ids must lie in [0, {n_states})")
    behavior_prob = gt.behavior.probs[state_id[store.decision_frame], store.action]
    store = replace(store, state_id=state_id, behavior_prob=behavior_prob)
    return replace(dataset, episodes=store.views())
