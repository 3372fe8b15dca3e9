"""Fused state construction from structured features and note embeddings.

Pipeline per decision step: the structured vector runs through a residual
feature-mixing encoder to give l; the note side resolves a context vector
f_c and an event vector f_e from the episode's note history (four
strategies: raw, impute, stack, context), projects them from d_n to d, and
-- under the context strategy -- blends them with a sigmoid gate
psi * f_c + (1 - psi) * f_e. Bidirectional cross-modal attention (one token
per modality, so each softmax is over a single score) then produces the
2d-dimensional fused state fed to the Q-network. Everything downstream of
the raw inputs is differentiable through the netcore tape: the structured
encoder, the gate and the attention are one node each, whose values and
gradients equal those of the same modules built op by op.

The note strategies run over many histories laid end to end, such as every
episode of an ``EpisodeStore`` (``episode_note_inputs``), as segment operations
on the whole frame array; one history is the case of a single segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EpisodeStore
from .netcore import (
    Dense,
    Tensor,
    _affine,
    _affine_backward,
    _relu,
    _sigmoid,
    collect_params,
    concat,
    init_param,
)

Array = np.ndarray

STRATEGY_KINDS = ("raw", "impute", "stack", "context")


class EncoderError(ValueError):
    pass


@dataclass(frozen=True)
class NoteStrategy:
    """How per-frame note embeddings become (context, event) inputs."""

    kind: str = "context"
    window: int = 3

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise EncoderError(f"unknown note strategy {self.kind!r}; "
                               f"expected one of {STRATEGY_KINDS}")
        if self.window < 1:
            raise EncoderError(f"stack window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class EncoderConfig:
    n_features: int
    d_n: int
    d: int = 64
    d_k: int = 32
    depth: int = 2
    strategy: NoteStrategy = NoteStrategy()
    use_attention: bool = True

    def __post_init__(self):
        for name in ("n_features", "d_n", "d", "d_k"):
            if getattr(self, name) < 1:
                raise EncoderError(f"{name} must be >= 1")
        if self.depth < 0:
            raise EncoderError("depth must be >= 0")

    @property
    def state_dim(self) -> int:
        return 2 * self.d


# ---------------------------------------------------------------------------
# Note strategies
# ---------------------------------------------------------------------------


def frame_note_inputs(embeddings: Array, present: Array, strategy: NoteStrategy,
                      starts: Array = (0,)) -> tuple[Array, Array]:
    """Per-frame (context, event) note inputs for note histories laid end to
    end, history i starting at frame row ``starts[i]``.

    embeddings: (K, d_n) with all-zeros rows where no note exists;
    present: (K,) bool. Returns (f_c, f_e), each (K, d_n); f_c is all-zeros
    everywhere except under the context strategy, where it is zero until
    the history's first present note and frozen to that note afterwards.
    Every strategy is a segment operation over all K rows at once.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    pres = np.asarray(present, dtype=bool)
    K, d_n = emb.shape
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.diff(np.append(starts, K))
    start = np.repeat(starts, counts)      # first row of each row's history
    rows = np.arange(K)
    f_c = np.zeros((K, d_n))
    f_e = np.zeros((K, d_n))

    if strategy.kind == "raw":
        f_e[pres] = emb[pres]
        return f_c, f_e

    if strategy.kind == "stack":
        # the present notes of the window added oldest first onto zeros, the
        # order of a per-frame mean (cumsum differences would round otherwise;
        # NumPy sums a single column of eight or more values pairwise, so with
        # d_n = 1 and a window of 8 or more the last bits may differ from it)
        total = np.zeros((K, d_n))
        n_present = np.zeros(K)
        for lag in range(min(strategy.window, counts.max(initial=0)) - 1, -1, -1):
            src = rows - lag
            take = src >= start
            take[take] = pres[src[take]]
            total[take] += emb[src[take]]
            n_present += take
        some = n_present > 0
        f_e[some] = total[some] / n_present[some, None]
        return f_c, f_e

    # forward-fill, shared by impute and context: the latest present row of
    # the history, if any
    latest = np.maximum.accumulate(np.where(pres, rows, -1))
    filled = latest >= start
    f_e[filled] = emb[latest[filled]]
    if strategy.kind == "context" and K:
        first = np.repeat(np.minimum.reduceat(np.where(pres, rows, K), starts), counts)
        frozen = rows >= first
        f_c[frozen] = emb[first[frozen]]
    return f_c, f_e


def episode_note_inputs(store: EpisodeStore,
                        strategy: NoteStrategy) -> tuple[Array, Array]:
    """(f_c, f_e) at every frame row of a store, each episode its own history."""
    return frame_note_inputs(store.note_embedding, store.note_present, strategy,
                             store.frame_offsets)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


class StructuredEncoder:
    """Residual feature-mixing encoder: F -> d.

    An input projection followed by `depth` residual blocks
    h <- h + W2 relu(W1 h); with zero block weights the encoder reduces to
    the input affine map.
    """

    def __init__(self, n_features: int, d: int, depth: int,
                 rng: np.random.Generator, name: str = "enc"):
        self.n_features = n_features
        self.d = d
        self.in_proj = Dense(n_features, d, rng, f"{name}.in_proj")
        self.blocks = [
            (Dense(d, d, rng, f"{name}.block{i}.mix"),
             Dense(d, d, rng, f"{name}.block{i}.out"))
            for i in range(depth)
        ]

    def __call__(self, features: Tensor) -> Tensor:
        self.in_proj.check_input(features)
        x, inW = features.data, self.in_proj.W.data
        h = _affine(x, inW, self.in_proj.b.data)
        saved = []
        for mix, out in self.blocks:
            r = _affine(h, mix.W.data, mix.b.data)
            mask = _relu(r)
            saved.append((h, mix.W.data, r, out.W.data, mask))
            h = h + _affine(r, out.W.data, out.b.data)

        def backward(g: Array) -> None:
            for (mix, out), (h_in, mixW, r, outW, mask) in zip(reversed(self.blocks),
                                                               reversed(saved)):
                g_r = _affine_backward(g, r, outW, out.W, out.b, True)
                g = g + _affine_backward(g_r * mask, h_in, mixW, mix.W, mix.b, True)
            gx = _affine_backward(g, x, inW, self.in_proj.W, self.in_proj.b,
                                  features.requires_grad)
            if gx is not None:
                features._accumulate(gx)

        return Tensor._node(h, (features, *self.params().values()), backward)

    def params(self) -> dict[str, Tensor]:
        return collect_params(self.in_proj, *(layer for block in self.blocks
                                              for layer in block))


class GatedFusion:
    """Sigmoid gate blending the context and event vectors coordinatewise.

    psi = sigmoid(W [f_c; f_e] + b), output psi * f_c + (1 - psi) * f_e,
    so every output coordinate lies between the two inputs.
    """

    def __init__(self, d: int, rng: np.random.Generator, name: str = "gate"):
        self.d = d
        self.W = init_param((d, 2 * d), 2 * d, rng, f"{name}.W")
        self.b = init_param((d,), 2 * d, rng, f"{name}.b")

    def __call__(self, f_c: Tensor, f_e: Tensor) -> Tensor:
        if f_c.data.shape != f_e.data.shape or f_c.data.shape[1] != self.d:
            raise EncoderError(
                f"gate expects matching (B, {self.d}) inputs, got "
                f"{f_c.data.shape} and {f_e.data.shape}"
            )
        fc, fe, W = f_c.data, f_e.data, self.W.data
        both = np.concatenate([fc, fe], axis=1)
        psi = _sigmoid(_affine(both, W, self.b.data))
        rest = 1.0 - psi
        out = psi * fc + rest * fe

        def backward(g: Array) -> None:
            g_z = (g * fc + (g * fe) * -1.0) * psi * rest
            want = f_c.requires_grad or f_e.requires_grad
            g_both = _affine_backward(g_z, both, W, self.W, self.b, want)
            if f_c.requires_grad:
                f_c._accumulate(g * psi + g_both[:, :self.d])
            if f_e.requires_grad:
                f_e._accumulate(g * rest + g_both[:, self.d:])

        return Tensor._node(out, (f_c, f_e, self.W, self.b), backward)

    def params(self) -> dict[str, Tensor]:
        return {self.W.name: self.W, self.b.name: self.b}


class CrossModalAttention:
    """Bidirectional single-token cross-modal attention.

    Each modality is projected to query/key (d_k) and value (d) spaces in
    both directions. With one vector per modality the softmax runs over a
    single score, so its weight is exactly 1.0 and the attended feature is
    exactly the value projection of the source modality; the module computes
    that projection directly. Each original vector is then concatenated with
    its attended feature and linearly mapped back to d. Output is the fused
    state [l~; n~] of width 2d.

    The query and key matrices (``Wq_*``, ``Wk_*``) therefore never affect
    the output and always get a zero gradient. They stay among the
    parameters so that initialization draws the same random numbers and
    checkpoints keep their format.
    """

    def __init__(self, d: int, d_k: int, rng: np.random.Generator,
                 name: str = "attn"):
        self.d = d
        self.d_k = d_k
        self.Wq_l = init_param((d_k, d), d, rng, f"{name}.Wq_l")
        self.Wk_l = init_param((d_k, d), d, rng, f"{name}.Wk_l")
        self.Wv_l = init_param((d, d), d, rng, f"{name}.Wv_l")
        self.Wq_n = init_param((d_k, d), d, rng, f"{name}.Wq_n")
        self.Wk_n = init_param((d_k, d), d, rng, f"{name}.Wk_n")
        self.Wv_n = init_param((d, d), d, rng, f"{name}.Wv_n")
        self.out_l = init_param((d, 2 * d), 2 * d, rng, f"{name}.out_l")
        self.out_n = init_param((d, 2 * d), 2 * d, rng, f"{name}.out_n")

    def __call__(self, n: Tensor, l: Tensor) -> Tensor:
        if n.data.shape[1] != self.d or l.data.shape[1] != self.d:
            raise EncoderError(
                f"attention expects (B, {self.d}) inputs, got "
                f"{n.data.shape} and {l.data.shape}"
            )
        # l~ = out_l [l; Wv_l l], then n~ = out_n [n; Wv_n n]: each modality's
        # vector beside its attended value projection, mapped back to d
        sides = []
        for src, Wv, out in ((l, self.Wv_l, self.out_l), (n, self.Wv_n, self.out_n)):
            both = np.concatenate([src.data, _affine(src.data, Wv.data, None)], axis=1)
            sides.append((src, Wv, Wv.data, out, out.data, both))
        state = np.concatenate([_affine(both, outd, None) for *_, outd, both in sides],
                               axis=1)
        d = self.d

        def backward(g: Array) -> None:
            for i, (src, Wv, Wvd, out, outd, both) in enumerate(sides):
                want = src.requires_grad or Wv.requires_grad
                g_both = _affine_backward(g[:, i * d:(i + 1) * d], both, outd, out, None,
                                          want)
                if want:
                    g_src = _affine_backward(g_both[:, d:], src.data, Wvd, Wv, None,
                                             src.requires_grad)
                    if g_src is not None:
                        src._accumulate(g_both[:, :d] + g_src)

        return Tensor._node(state, (n, l, self.Wv_n, self.Wv_l, self.out_l, self.out_n),
                            backward)

    def params(self) -> dict[str, Tensor]:
        return {p.name: p for p in (self.Wq_l, self.Wk_l, self.Wv_l,
                                    self.Wq_n, self.Wk_n, self.Wv_n,
                                    self.out_l, self.out_n)}


class StateEncoder:
    """Composition: structured encoder + note path + fusion into a 2d state."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator,
                 name: str = "state"):
        self.config = config
        self.structured = StructuredEncoder(config.n_features, config.d,
                                            config.depth, rng, f"{name}.enc")
        self.note_proj = Dense(config.d_n, config.d, rng, f"{name}.note_proj")
        self.gate = GatedFusion(config.d, rng, f"{name}.gate") \
            if config.strategy.kind == "context" else None
        self.attention = CrossModalAttention(config.d, config.d_k, rng,
                                             f"{name}.attn") \
            if config.use_attention else None

    @property
    def state_dim(self) -> int:
        return self.config.state_dim

    def forward(self, structured: Array | Tensor, f_c: Array | Tensor,
                f_e: Array | Tensor) -> Tensor:
        lift = lambda x: x if isinstance(x, Tensor) else Tensor(np.atleast_2d(x))
        l = self.structured(lift(structured))
        n = self.note_proj(lift(f_e))
        if self.gate is not None:
            n = self.gate(self.note_proj(lift(f_c)), n)
        if self.attention is not None:
            return self.attention(n, l)
        return concat([l, n], axis=1)

    def params(self) -> dict[str, Tensor]:
        return collect_params(self.structured, self.note_proj, self.gate,
                              self.attention)
