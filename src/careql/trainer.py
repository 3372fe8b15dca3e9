"""Offline policy optimization over the fused state.

Supports three batch algorithms on a dueling Q-network: plain DQN regression
against a frozen target, CQL (the DQN objective plus alpha * (logsumexp of
Q over all actions minus Q at the logged action), which pushes down
out-of-distribution action values), and discrete BCQ (the argmax restricted
to actions whose estimated behavior probability is within a threshold ratio
of the modal action). Models come in three modalities: the full fused
encoder, structured-features-only, and note-inputs-only; the unimodal
variants are plain dueling networks on the raw inputs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Episode, EpisodeStore, N_ACTIONS, OfflineDataset, store_of
from .encoder import EncoderConfig, NoteStrategy, StateEncoder, episode_note_inputs
from .netcore import (
    MLP,
    TRAIN_DTYPE,
    Adam,
    Dense,
    DuelingQNetwork,
    Tensor,
    _logsumexp,
    _pick_backward,
    _pick_index,
    as_dtype,
    cast_params,
    clone_param_values,
    collect_params,
    load_checkpoint,
    load_param_values,
    no_grad,
    save_checkpoint,
)
from .synthgym import eps_soft_matrix

Array = np.ndarray

# The dataset widths that a model of each modality reads
MODALITY_WIDTHS = {"multimodal": ("n_features", "d_n"), "structured": ("n_features",),
                   "notes": ("d_n",)}
MODALITIES = tuple(MODALITY_WIDTHS)
ALGORITHMS = ("dqn", "cql", "bcq")
RESIDUAL_BINS = 40


class TrainerError(ValueError):
    pass


def _check_action_rule(algorithm: str, bcq_threshold: float) -> None:
    """The range checks of a policy's action rule, in a config or a checkpoint."""
    if algorithm not in ALGORITHMS:
        raise TrainerError(f"unknown algorithm {algorithm!r}")
    if not (0.0 <= bcq_threshold <= 1.0):
        raise TrainerError("bcq_threshold must be in [0, 1]")


class NonFiniteQError(RuntimeError):
    """A NaN or infinite Q in a policy's no-grad forward or Bellman residuals."""


def _finite_q(q: Array) -> Array:
    """``q``, after checking that every value is finite."""
    bad = ~np.isfinite(q)
    if bad.any():
        raise NonFiniteQError(f"non-finite Q in a policy forward "
                              f"({int(bad.sum())} of {q.size} values)")
    return q


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries the last parameter snapshot and the log."""

    def __init__(self, message: str, checkpoint: dict[str, Array], log: list[dict]):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.log = log


@dataclass(frozen=True)
class TrainConfig:
    """One ``train`` run; its one Adam steps every parameter at ``learning_rate``."""
    total_steps: int
    batch_size: int = 256
    learning_rate: float = 1e-4
    gamma: float = 0.99
    cql_alpha: float = 2.0
    bcq_threshold: float = 0.3
    target_update: int = 1000
    seed: int = 0
    algorithm: str = "cql"
    hidden_width: int = 512
    trunk_depth: int = 3
    eval_interval: int = 500

    def __post_init__(self):
        _check_action_rule(self.algorithm, self.bcq_threshold)
        for name in ("total_steps", "batch_size", "target_update",
                     "hidden_width", "trunk_depth", "eval_interval"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            raise TrainerError("learning_rate must be positive")
        if not (0.0 <= self.gamma < 1.0):
            raise TrainerError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.cql_alpha < 0:
            raise TrainerError("cql_alpha must be >= 0")


# ---------------------------------------------------------------------------
# Model inputs
# ---------------------------------------------------------------------------


def build_transition_table(store: EpisodeStore, strategy: NoteStrategy,
                           modality: str) -> tuple[Array, Array, Array]:
    """(structured, f_c, f_e): a ``modality`` model's inputs at every frame
    row of a store, the note strategy applied once over all its episodes.

    Transition k reads its state at frame row ``store.decision_frame[k]``
    and its next state at the row after. A model that reads no notes gets
    (n_frames, 0) note inputs.
    """
    if not store.lengths.size:
        raise TrainerError("no episodes to build a transition table from")
    if "d_n" not in MODALITY_WIDTHS[modality]:
        empty = np.zeros((store.structured.shape[0], 0))
        return store.structured, empty, empty
    return (store.structured, *episode_note_inputs(store, strategy))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


class ActionClassifier:
    """Behavior model: a ReLU trunk and 25-way logits. BCQ's has the
    Q-network's trunk shape; depth 0 is ``ope.fit_behavior``'s linear softmax."""

    def __init__(self, input_dim: int, rng: np.random.Generator, width: int,
                 depth: int, name: str = "behavior"):
        self.trunk = MLP(input_dim, width, depth, rng, name)
        self.head = Dense(self.trunk.n_out, N_ACTIONS, rng, f"{name}.head")

    def logits(self, x: Tensor) -> Tensor:
        return self.head(self.trunk(x))

    def probs(self, x: Array) -> Array:
        """Softmax of the logits of rows ``x``, in the parameters' dtype."""
        with no_grad():
            logits = self.logits(Tensor(as_dtype(x, self.head.W.data.dtype)))
            return _logsumexp(logits.data, axis=1)[1]

    def params(self) -> dict[str, Tensor]:
        return collect_params(self.trunk, self.head)


class QModel:
    """Dueling Q-network over one of the three input modalities."""

    def __init__(self, modality: str, enc_cfg: EncoderConfig, rng: np.random.Generator,
                 width: int, depth: int):
        if modality not in MODALITIES:
            raise TrainerError(f"unknown modality {modality!r}")
        if min(width, depth) < 1:
            raise TrainerError(f"qnet width and depth must be >= 1, got {width} and {depth}")
        self.modality = modality
        self.enc_cfg = enc_cfg
        self.encoder = None
        if modality == "multimodal":
            self.encoder = StateEncoder(enc_cfg, rng)
            input_dim = enc_cfg.state_dim
        elif modality == "structured":
            input_dim = enc_cfg.n_features
        else:
            input_dim = 2 * enc_cfg.d_n
        self.qnet = DuelingQNetwork(input_dim, rng, width=width, depth=depth,
                                    n_actions=N_ACTIONS)

    def state_tensor(self, structured: Array, f_c: Array, f_e: Array) -> Tensor:
        if self.modality == "multimodal":
            return self.encoder.forward(structured, f_c, f_e)
        if self.modality == "structured":
            return Tensor(structured)
        return Tensor(np.concatenate([f_c, f_e], axis=1))

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the parameters: float64 as built, ``TRAIN_DTYPE``
        once trained or loaded."""
        return self.qnet.value_head.W.data.dtype

    def q_values(self, structured: Array, f_c: Array, f_e: Array) -> tuple[Tensor, Tensor]:
        """The state tensor of the inputs and the Q-head's output on it."""
        state = self.state_tensor(structured, f_c, f_e)
        return state, self.qnet(state)

    def params(self) -> dict[str, Tensor]:
        return collect_params(self.qnet, self.encoder)


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------


def dqn_target(reward: Array, done: Array, next_q: Array, gamma: float) -> Array:
    """y = r + gamma * max_a' Q(s', a'); the bootstrap drops when done."""
    return reward + gamma * (1.0 - done.astype(np.float64)) * next_q.max(axis=1)


def bcq_allowed_mask(behavior_probs: Array, tau: float) -> Array:
    """Actions whose probability ratio to the modal action reaches tau.

    The modal action always qualifies, so the mask is never empty.
    """
    probs = np.atleast_2d(behavior_probs)
    ratio = probs / probs.max(axis=1, keepdims=True)
    return ratio >= tau


def bcq_masked_q(q: Array, behavior_probs: Array, tau: float) -> Array:
    """Q with the actions outside the behavior-supported subset at -inf, so
    its row maxima and argmaxima are those of BCQ's constrained action rule."""
    return np.where(bcq_allowed_mask(behavior_probs, tau), q, -np.inf)


def cql_loss(q: Tensor, actions: Array, targets: Array,
             alpha: float) -> tuple[Tensor, dict]:
    """Half mean-squared Bellman error plus the conservative regularizer.

    With alpha = 0 this is exactly the DQN objective; the regularizer is
    mean(logsumexp_a Q(s, a)) - mean(Q(s, a_data)). The loss is one node whose
    value and gradient equal those of the same expression built op by op in
    float64: it reduces Q's values as float64, and Q's gradient is cast back
    to Q's dtype.
    """
    qd = q.data.astype(np.float64, copy=False)
    rows, idx = _pick_index(qd, actions)
    q_taken = qd[rows, idx]
    inv_b = 1.0 / q_taken.size
    d = q_taken - targets
    bellman = (d * d).sum() * inv_b * 0.5
    diag = {"bellman": float(bellman), "mean_q": float(qd.mean()), "reg": 0.0}
    loss = bellman
    if alpha != 0.0:
        lse, soft = _logsumexp(qd, 1)
        reg = lse[:, 0].sum() * inv_b - q_taken.sum() * inv_b
        diag["reg"] = float(reg)
        loss = bellman + reg * alpha

    def backward(g: Array) -> None:
        # the chain of the op-by-op graph: the mean as a sum times 1/B, the
        # square's derivative as 2 * d
        g_taken = g * 0.5 * inv_b * 2.0 * d
        g_q = None
        if alpha != 0.0:
            g_reg = g * alpha
            g_taken = g_taken + g_reg * -1.0 * inv_b
            g_q = g_reg * inv_b * soft
        full = _pick_backward(g_taken, qd, rows, idx)
        q._accumulate((full if g_q is None else g_q + full).astype(q.data.dtype, copy=False))

    return Tensor._node(np.asarray(loss), (q,), backward), diag


def dqn_loss(q: Tensor, actions: Array, targets: Array) -> tuple[Tensor, dict]:
    return cql_loss(q, actions, targets, alpha=0.0)


def cross_entropy_loss(logits: Tensor, actions: Array) -> Tensor:
    """mean(logsumexp(logits) - logits at the actions) as one node, equal to
    the same expression built op by op in float64, on the logits' values as
    float64; their gradient is cast back to their dtype."""
    x = logits.data.astype(np.float64, copy=False)
    rows, idx = _pick_index(x, actions)
    lse, soft = _logsumexp(x, 1)
    inv_b = 1.0 / idx.size
    loss = (lse[:, 0] - x[rows, idx]).sum() * inv_b

    def backward(g: Array) -> None:
        g_each = g * inv_b
        g_x = g_each * soft + _pick_backward(g_each * -1.0, x, rows, idx)
        logits._accumulate(g_x.astype(logits.data.dtype, copy=False))

    return Tensor._node(np.asarray(loss), (logits,), backward)


# ---------------------------------------------------------------------------
# Learned policy
# ---------------------------------------------------------------------------


@dataclass
class LearnedPolicy:
    """Frozen trained model plus its action rule (BCQ-constrained or greedy).

    As a target policy it puts 1 - ``eps`` on the greedy action and spreads
    ``eps`` evenly over the others (``ope.soften`` sets ``eps``).
    """

    model: QModel
    algorithm: str
    bcq_threshold: float
    behavior_classifier: ActionClassifier | None = None
    eps: float = 0.0

    @property
    def modality(self) -> str:
        return self.model.modality

    @property
    def strategy(self) -> NoteStrategy:
        return self.model.enc_cfg.strategy

    def forward(self, structured: Array, f_c: Array, f_e: Array,
                decisions=slice(None)) -> tuple[Array, Array, Array]:
        """(state features, Q) as float64 at every input row, from one
        batched no-grad forward in the parameters' dtype whose Q must be
        finite, and the action rule's choice (BCQ-constrained or greedy) at
        rows ``decisions``."""
        # numpy's overflow warnings would only precede _finite_q's error
        with no_grad(), np.errstate(over="ignore", invalid="ignore"):
            state, q = self.model.q_values(*(as_dtype(x, self.model.dtype)
                                             for x in (structured, f_c, f_e)))
            state, q = state.data, _finite_q(q.data)
            at = q[decisions]
            if self.algorithm == "bcq":
                probs = self.behavior_classifier.probs(state[decisions])
                at = bcq_masked_q(at, probs, self.bcq_threshold)
        return (state.astype(np.float64, copy=False), q.astype(np.float64, copy=False),
                at.argmax(axis=1))

    def forward_rows(self, store: EpisodeStore) -> tuple[Array, Array, Array]:
        """State features and Q at every frame row of a store, and the
        choices at every decision, the rows of its ``decision_frame``."""
        return self.forward(*self.episode_inputs(store), decisions=store.decision_frame)

    def evaluation_rows(self, store: EpisodeStore) -> tuple[Array, Array]:
        """Per-frame state features and the eps-soft (N, 25) action distribution."""
        features, _, greedy = self.forward_rows(store)
        return features, eps_soft_matrix(greedy, N_ACTIONS, self.eps)

    def greedy_rows(self, store: EpisodeStore) -> Array:
        return self.forward_rows(store)[2]

    def episode_inputs(self, store: EpisodeStore) -> tuple[Array, Array, Array]:
        """(structured, f_c, f_e) model inputs at every frame row of a store."""
        return build_transition_table(store, self.strategy, self.modality)

    def episode_greedy_actions(self, episode: Episode) -> Array:
        return self.greedy_rows(store_of([episode]))

    def episode_action_probs(self, episode: Episode, eps: float = 0.0) -> Array:
        return eps_soft_matrix(self.episode_greedy_actions(episode), N_ACTIONS, eps)

    def episode_state_features(self, episode: Episode) -> Array:
        return self.forward_rows(store_of([episode]))[0]

    def action_table(self, canon) -> Array:
        """Greedy actions at canonical per-state observations.

        `canon` provides structured / event_note / context_note arrays (one
        row per latent state); used to turn a learned policy into a tabular
        one for exact DP evaluation on synthetic tasks.
        """
        f_c = canon.context_note if self.strategy.kind == "context" \
            else np.zeros_like(canon.context_note)
        return self.forward(canon.structured, f_c, canon.event_note)[2]

    # -- persistence --------------------------------------------------------

    def all_params(self) -> dict[str, Tensor]:
        return collect_params(self.model, self.behavior_classifier)

    def save(self, path: str | Path) -> None:
        """Write the policy's parameters and what ``load`` rebuilds it from.
        ``load`` rounds every value to ``TRAIN_DTYPE``: a trained or loaded
        policy's values are float32 already and come back bit for bit, while
        one built but never trained holds float64 values, which it rounds."""
        encoder = asdict(self.model.enc_cfg)
        meta = {
            "modality": self.model.modality,
            "algorithm": self.algorithm,
            "bcq_threshold": self.bcq_threshold,
            "strategy": encoder.pop("strategy"),
            "encoder": encoder,
            "qnet": {"width": self.model.qnet.trunk.n_out,
                     "depth": len(self.model.qnet.trunk.layers)},
        }
        save_checkpoint(path, self.all_params(), metadata=meta)

    @classmethod
    def load(cls, path: str | Path) -> "LearnedPolicy":
        values, meta = load_checkpoint(path)
        _check_action_rule(meta["algorithm"], meta["bcq_threshold"])
        _check_metadata_types(meta, METADATA_NUMBERS)
        enc_cfg = EncoderConfig(strategy=NoteStrategy(**meta["strategy"]), **meta["encoder"])
        width, depth = meta["qnet"]["width"], meta["qnet"]["depth"]
        rng = np.random.default_rng(0)
        model = QModel(meta["modality"], enc_cfg, rng, width, depth)
        classifier = None
        if meta["algorithm"] == "bcq":
            classifier = ActionClassifier(model.qnet.input_dim, rng, width=width, depth=depth)
        policy = cls(model=model, algorithm=meta["algorithm"],
                     bcq_threshold=meta["bcq_threshold"], behavior_classifier=classifier)
        # load_checkpoint checked that every value is finite in TRAIN_DTYPE
        load_param_values(policy.all_params(),
                          {key: v.astype(TRAIN_DTYPE) for key, v in values.items()})
        # the flag is checked once the tensors load, so that a false-like
        # value is reported by the attention tensors it leaves unused
        _check_metadata_types(meta, {"encoder.use_attention": (bool,)})
        return policy


# the JSON types that ``LearnedPolicy.save`` writes for each metadata number,
# by its dotted key (``type(True)`` is bool, so an int key refuses it)
METADATA_NUMBERS = {
    "bcq_threshold": (int, float), "strategy.window": (int,),
    **{f"encoder.{key}": (int,) for key in ("n_features", "d_n", "d", "d_k", "depth")},
    "qnet.width": (int,), "qnet.depth": (int,),
}


def _check_metadata_types(meta: dict, types: dict[str, tuple[type, ...]]) -> None:
    """A ``ValueError`` naming the first metadata value, of the dotted keys
    in ``types``, whose JSON type is not one that key allows."""
    for name, allowed in types.items():
        *section, key = name.split(".")
        value = (meta[section[0]] if section else meta)[key]
        if type(value) not in allowed:
            raise ValueError(f"checkpoint metadata {name!r} must be "
                             f"{' or '.join(t.__name__ for t in allowed)}, got {value!r}")


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def target_q_table(model: QModel, inputs: tuple[Array, Array, Array],
                   batch_size: int) -> Array:
    """``model``'s Q at every frame row of ``inputs``: in training, the
    target, taken at the last refresh.

    Every forward has exactly ``batch_size`` rows, the last one wrapping
    around to the first rows, because BLAS rounds a row's product by the
    number of rows in the batch. On the OpenBLAS kernels measured, float32
    and float64 alike, a batch size that is a multiple of 4 (as in every
    config of this repository) then gives each row the Q, bit for bit, that
    a per-step forward of a minibatch gives it; another size also rounds a
    row by its place in the batch, so values may differ from per-step
    forwards in the last bits.
    """
    n = inputs[0].shape[0]
    rows = np.arange(-(-n // batch_size) * batch_size) % n
    with no_grad():
        chunks = [model.q_values(*(x[chunk] for x in inputs))[1].data
                  for chunk in rows.reshape(-1, batch_size)]
    return np.concatenate(chunks)[:n]


@dataclass
class TrainResult:
    policy: LearnedPolicy
    log: list[dict] = field(default_factory=list)
    snapshots: list[tuple[int, dict[str, Array]]] = field(default_factory=list)


@np.errstate(over="ignore", invalid="ignore")   # the loss and gradient checks report overflow
def train(dataset: OfflineDataset, cfg: TrainConfig, enc_cfg: EncoderConfig,
          modality: str = "multimodal",
          snapshot_interval: int | None = None) -> TrainResult:
    """Optimize a Q-model on the dataset's training split.

    The networks train in ``TRAIN_DTYPE``: their parameters are drawn in
    float64 and cast once, and the transition table is cast once, so every
    forward, gradient and Adam step runs in it, while the losses and the
    Bellman targets are float64. Every parameter of the Q-model and of
    BCQ's imitation classifier trains with one Adam: a BCQ step adds the
    classifier's cross-entropy gradient, taken on the Q step's state, before
    that step. Deterministic given cfg.seed. The log
    records loss, mean Q and the regularizer magnitude at every eval
    interval. A non-finite loss aborts
    with the last logged Q-model snapshot attached to the exception.
    ``snapshot_interval`` additionally collects (step, values of every
    policy parameter) pairs for evaluation-across-iterations curves, the
    last at the final step.

    The target is the model's Q at every frame row of the store as it was
    at the last refresh (at step 1, its initial parameters), computed once
    per refresh (``target_q_table``); each step reads its next-state rows
    from that table. A refresh costs ceil(n_frames / batch_size) forwards of
    batch_size rows; per-step target forwards would cost ``target_update``
    forwards over the same interval.
    """
    if len(dataset) == 0:
        raise TrainerError("dataset is empty")
    model = QModel(modality, enc_cfg, np.random.default_rng([cfg.seed, 11]),
                   cfg.hidden_width, cfg.trunk_depth)
    store = (dataset.split("train") or dataset).store
    inputs = tuple(as_dtype(x, TRAIN_DTYPE)
                   for x in build_transition_table(store, enc_cfg.strategy, modality))

    classifier = None
    if cfg.algorithm == "bcq":
        classifier = ActionClassifier(model.qnet.input_dim,
                                      np.random.default_rng([cfg.seed, 23]),
                                      width=cfg.hidden_width, depth=cfg.trunk_depth)
    policy = LearnedPolicy(model=model, algorithm=cfg.algorithm,
                           bcq_threshold=cfg.bcq_threshold, behavior_classifier=classifier)
    cast_params(policy.all_params())
    opt = Adam(policy.all_params(), lr=cfg.learning_rate)

    batch_rng = np.random.default_rng([cfg.seed, 77])
    log: list[dict] = []
    snapshots: list[tuple[int, dict[str, Array]]] = []
    last_snapshot = clone_param_values(model.params())
    table = None

    for step in range(1, cfg.total_steps + 1):
        if table is None:
            table = target_q_table(model, inputs, cfg.batch_size)
        idx = batch_rng.integers(0, store.action.shape[0], size=cfg.batch_size)
        frame = store.decision_frame[idx]
        state, q = model.q_values(*(x[frame] for x in inputs))
        action, reward, done = store.action[idx], store.reward[idx], store.done[idx]
        next_q = table[frame + 1]
        if cfg.algorithm == "bcq":
            with no_grad():
                next_state = model.state_tensor(*(x[frame + 1] for x in inputs)).data
            next_q = bcq_masked_q(next_q, classifier.probs(next_state), cfg.bcq_threshold)
        y = dqn_target(reward, done, next_q, cfg.gamma)

        alpha = cfg.cql_alpha if cfg.algorithm == "cql" else 0.0
        loss, diag = cql_loss(q, action, y, alpha)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at step {step}", last_snapshot, log)
        loss.backward()
        if cfg.algorithm == "bcq":   # the imitation head reads the Q step's state
            cross_entropy_loss(classifier.logits(Tensor(state.data)), action).backward()
        opt.step()

        if step % cfg.target_update == 0:
            table = None

        if step % cfg.eval_interval == 0 or step == cfg.total_steps:
            log.append({"step": step, "loss": float(loss.data),
                        "mean_q": diag["mean_q"], "reg_term": diag["reg"]})
            last_snapshot = clone_param_values(model.params())
        if snapshot_interval is not None and \
                (step % snapshot_interval == 0 or step == cfg.total_steps):
            snapshots.append((step, clone_param_values(policy.all_params())))

    return TrainResult(policy=policy, log=log, snapshots=snapshots)


# ---------------------------------------------------------------------------
# Bellman residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellmanResiduals:
    samples: Array
    mean: float
    std: float
    hist_counts: Array
    hist_edges: Array


def bellman_residuals(policy: LearnedPolicy, dataset: OfflineDataset,
                      gamma: float) -> BellmanResiduals:
    """(r + gamma max_a' Q(s',a')) - Q(s,a) per transition (r - Q when done).

    The one-step bootstrapped target minus the fitted value: positive mass
    means the bootstrap keeps running above the fitted Q, the signature of
    value overestimation; a well-calibrated Q concentrates the distribution
    around zero. The histogram has ``RESIDUAL_BINS`` equal-width bins. Q
    is the policy's forward over every frame of the dataset's store.
    """
    store = dataset.store
    q = policy.forward_rows(store)[1]
    q_taken = q[store.decision_frame, store.action]
    bootstrap = dqn_target(store.reward, store.done, q[store.decision_frame + 1], gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = bootstrap - q_taken
        mean, std = float(residuals.mean()), float(residuals.std())
    if not np.isfinite([mean, std]).all():   # as the mean is, with a non-finite residual
        raise NonFiniteQError(f"non-finite Bellman residuals (mean {mean}, std {std})")
    counts, edges = np.histogram(residuals, bins=RESIDUAL_BINS)
    return BellmanResiduals(samples=residuals, mean=mean, std=std,
                            hist_counts=counts, hist_edges=edges)
