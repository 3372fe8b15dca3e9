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
    Adam,
    Dense,
    DuelingQNetwork,
    Tensor,
    _logsumexp,
    _pick_backward,
    _pick_index,
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


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries the last parameter snapshot and the log."""

    def __init__(self, message: str, checkpoint: dict[str, Array], log: list[dict]):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.log = log


@dataclass(frozen=True)
class TrainConfig:
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
    grad_clip: float | None = None
    freeze_encoders: bool = False

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
        clip = self.grad_clip
        if clip is not None and (isinstance(clip, bool) or not isinstance(clip, (int, float))
                                 or not clip > 0):
            raise TrainerError(f"grad_clip must be null or a positive number, got {clip!r}")


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
        with no_grad():
            return self.logits(Tensor(x)).softmax().data

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

    def q_values(self, structured: Array, f_c: Array, f_e: Array) -> Tensor:
        return self.qnet(self.state_tensor(structured, f_c, f_e))

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
    value and gradient equal those of the same expression in ``Tensor`` ops.
    """
    qd = q.data
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
        # the chain of the Tensor-op graph: the mean as a sum times 1/B, the
        # square's derivative as 2 * d
        g_taken = g * 0.5 * inv_b * 2.0 * d
        g_q = None
        if alpha != 0.0:
            g_reg = g * alpha
            g_taken = g_taken + g_reg * -1.0 * inv_b
            g_q = g_reg * inv_b * soft
        full = _pick_backward(g_taken, qd, rows, idx)
        q._accumulate(full if g_q is None else g_q + full)

    return Tensor._node(np.asarray(loss), (q,), backward), diag


def dqn_loss(q: Tensor, actions: Array, targets: Array) -> tuple[Tensor, dict]:
    return cql_loss(q, actions, targets, alpha=0.0)


def cross_entropy_loss(logits: Tensor, actions: Array) -> Tensor:
    """mean(logsumexp(logits) - logits at the actions) as one node, equal to
    the same expression in ``Tensor`` ops."""
    x = logits.data
    rows, idx = _pick_index(x, actions)
    lse, soft = _logsumexp(x, 1)
    inv_b = 1.0 / idx.size
    loss = (lse[:, 0] - x[rows, idx]).sum() * inv_b

    def backward(g: Array) -> None:
        g_each = g * inv_b
        logits._accumulate(g_each * soft + _pick_backward(g_each * -1.0, x, rows, idx))

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

    def q_matrix(self, structured: Array, f_c: Array, f_e: Array) -> Array:
        with no_grad():
            return self.model.q_values(structured, f_c, f_e).data

    def _greedy(self, state: Tensor) -> Array:
        """The action rule on model-input states; call under ``no_grad``."""
        q = self.model.qnet(state).data
        if self.algorithm == "bcq":
            probs = self.behavior_classifier.probs(state.data)
            q = bcq_masked_q(q, probs, self.bcq_threshold)
        return q.argmax(axis=1)

    def greedy_actions(self, structured: Array, f_c: Array, f_e: Array) -> Array:
        with no_grad():
            return self._greedy(self.model.state_tensor(structured, f_c, f_e))

    def forward_rows(self, store: EpisodeStore) -> tuple[Array, Array]:
        """State features at every frame row of a store and greedy actions at
        every decision, the rows of its ``decision_frame``.

        All frames go through the state encoder, the Q-head and, for BCQ,
        the classifier in one batched no-grad forward.
        """
        with no_grad():
            state = self.model.state_tensor(*self.episode_inputs(store))
            greedy = self._greedy(Tensor(state.data[store.decision_frame]))
        return state.data, greedy

    def evaluation_rows(self, store: EpisodeStore) -> tuple[Array, Array]:
        """Per-frame state features and the eps-soft (N, 25) action distribution."""
        features, greedy = self.forward_rows(store)
        return features, eps_soft_matrix(greedy, N_ACTIONS, self.eps)

    def greedy_rows(self, store: EpisodeStore) -> Array:
        return self.forward_rows(store)[1]

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
        return self.greedy_actions(canon.structured, f_c, canon.event_note)

    # -- persistence --------------------------------------------------------

    def all_params(self) -> dict[str, Tensor]:
        return collect_params(self.model, self.behavior_classifier)

    def save(self, path: str | Path) -> None:
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
        enc_cfg = EncoderConfig(strategy=NoteStrategy(**meta["strategy"]), **meta["encoder"])
        width, depth = meta["qnet"]["width"], meta["qnet"]["depth"]
        rng = np.random.default_rng(0)
        model = QModel(meta["modality"], enc_cfg, rng, width, depth)
        classifier = None
        if meta["algorithm"] == "bcq":
            classifier = ActionClassifier(model.qnet.input_dim, rng, width=width, depth=depth)
        policy = cls(model=model, algorithm=meta["algorithm"],
                     bcq_threshold=meta["bcq_threshold"], behavior_classifier=classifier)
        load_param_values(policy.all_params(), values)
        return policy


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def target_q_table(model: QModel, inputs: tuple[Array, Array, Array],
                   batch_size: int) -> Array:
    """``model``'s Q at every frame row of ``inputs``: in training, the
    target, taken at the last refresh.

    Every forward has exactly ``batch_size`` rows, the last one wrapping
    around to the first rows, because BLAS rounds a row's product by the
    number of rows in the batch. On the OpenBLAS kernels measured, a batch
    size that is a multiple of 4 (as in every config of this repository)
    then gives each row the Q, bit for bit, that a per-step forward of a
    minibatch gives it; another size also rounds a row by its place in the
    batch, so values may differ from per-step forwards in the last bits.
    """
    n = inputs[0].shape[0]
    rows = np.arange(-(-n // batch_size) * batch_size) % n
    with no_grad():
        chunks = [model.q_values(*(x[chunk] for x in inputs)).data
                  for chunk in rows.reshape(-1, batch_size)]
    return np.concatenate(chunks)[:n]


@dataclass
class TrainResult:
    policy: LearnedPolicy
    log: list[dict] = field(default_factory=list)
    snapshots: list[tuple[int, dict[str, Array]]] = field(default_factory=list)


def train(dataset: OfflineDataset, cfg: TrainConfig, enc_cfg: EncoderConfig,
          modality: str = "multimodal",
          snapshot_interval: int | None = None) -> TrainResult:
    """Optimize a Q-model on the dataset's training split.

    Deterministic given cfg.seed. The log records loss, mean Q and the
    regularizer magnitude at every eval interval. A non-finite loss aborts
    with the last logged parameter snapshot attached to the exception.
    ``snapshot_interval`` additionally collects (step, values of every
    policy parameter) pairs for evaluation-across-iterations curves.

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
    inputs = build_transition_table(store, enc_cfg.strategy, modality)

    params = model.params()
    trainable = dict(model.qnet.params()) if cfg.freeze_encoders else params
    for key, p in params.items():   # a frozen encoder stays off the tape
        p.requires_grad = key in trainable
    opt = Adam(trainable, lr=cfg.learning_rate, grad_clip=cfg.grad_clip)

    classifier = None
    clf_opt = None
    if cfg.algorithm == "bcq":
        classifier = ActionClassifier(model.qnet.input_dim,
                                      np.random.default_rng([cfg.seed, 23]),
                                      width=cfg.hidden_width, depth=cfg.trunk_depth)
        clf_opt = Adam(classifier.params(), lr=cfg.learning_rate,
                       grad_clip=cfg.grad_clip)

    batch_rng = np.random.default_rng([cfg.seed, 77])
    log: list[dict] = []
    snapshots: list[tuple[int, dict[str, Array]]] = []
    last_snapshot = clone_param_values(params)
    policy = LearnedPolicy(model=model, algorithm=cfg.algorithm,
                           bcq_threshold=cfg.bcq_threshold, behavior_classifier=classifier)
    table = None

    for step in range(1, cfg.total_steps + 1):
        if table is None:
            table = target_q_table(model, inputs, cfg.batch_size)
        idx = batch_rng.integers(0, store.action.shape[0], size=cfg.batch_size)
        frame = store.decision_frame[idx]
        state = tuple(x[frame] for x in inputs)
        action, reward, done = store.action[idx], store.reward[idx], store.done[idx]
        next_q = table[frame + 1]
        if cfg.algorithm == "bcq":
            with no_grad():
                next_state = model.state_tensor(*(x[frame + 1] for x in inputs)).data
            next_q = bcq_masked_q(next_q, classifier.probs(next_state), cfg.bcq_threshold)
        y = dqn_target(reward, done, next_q, cfg.gamma)

        q = model.q_values(*state)
        alpha = cfg.cql_alpha if cfg.algorithm == "cql" else 0.0
        loss, diag = cql_loss(q, action, y, alpha)
        if not np.isfinite(loss.data):
            raise TrainingDiverged(f"non-finite loss at step {step}", last_snapshot, log)
        loss.backward()
        opt.step()

        if cfg.algorithm == "bcq":
            with no_grad():
                features = model.state_tensor(*state).data
            clf_loss = cross_entropy_loss(classifier.logits(Tensor(features)), action)
            clf_loss.backward()
            clf_opt.step()

        if step % cfg.target_update == 0:
            table = None

        if step % cfg.eval_interval == 0 or step == cfg.total_steps:
            log.append({"step": step, "loss": float(loss.data),
                        "mean_q": diag["mean_q"], "reg_term": diag["reg"]})
            last_snapshot = clone_param_values(params)
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
    is computed in one forward over every frame of the dataset's store.
    """
    store = dataset.store
    q = policy.q_matrix(*policy.episode_inputs(store))
    q_taken = q[store.decision_frame, store.action]
    bootstrap = dqn_target(store.reward, store.done, q[store.decision_frame + 1], gamma)
    residuals = bootstrap - q_taken
    counts, edges = np.histogram(residuals, bins=RESIDUAL_BINS)
    return BellmanResiduals(samples=residuals, mean=float(residuals.mean()),
                            std=float(residuals.std()),
                            hist_counts=counts, hist_edges=edges)
