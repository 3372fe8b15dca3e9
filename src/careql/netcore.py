"""Reverse-mode autodiff core for small dense networks.

Everything runs in float64 numpy. A ``Tensor`` records the operation that
produced it; ``backward()`` on a scalar loss walks the tape and accumulates
gradients into every reachable parameter. The op set is deliberately small:
exactly what the one ReLU trunk (``MLP``) of the dueling Q-head and the
action classifiers, gated fusion and single-token cross-attention need.

Each network module is one node with a hand-written backward: an ``MLP``
call (the whole ReLU stack), a ``DuelingQNetwork`` call (trunk, both heads
and the mean-centring), and ``linear``, an affine map ``x @ W.T + b``; the
encoder's modules and the trainer's losses are built the same way from the
shared rules below. Such a node runs the numpy expressions of the same
module built from ``Tensor`` ops, in the same order, so its values and
gradients equal that op-by-op graph's bit for bit; the ops stay as the
reference that the tests build every node from. Analytic gradients are
verified against central finite differences (see ``gradient_check``),
which is the independent oracle for this module.

A node is recorded only when one of its parents requires a gradient: a
parameter (``requires_grad=True``) or a node recorded before it. Inputs and
constants are never recorded and never receive a gradient, so nothing is
computed toward them, and ``no_grad`` records nothing at all. A parameter
accumulates its gradient in place into ``grad``; an intermediate node keeps
the first gradient it is given as is and adds later ones out of place.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray

CHECKPOINT_FORMAT_VERSION = 1
# Adam's moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteGradientError(RuntimeError):
    """Raised by the optimizer when a parameter gradient is NaN or inf."""


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    # keep ndarray operators from intercepting mixed expressions; the
    # reflected Tensor ops run instead
    __array_ufunc__ = None

    # False inside ``no_grad``: new nodes keep no parents and no backward
    _record_tape = True

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _f64(data)
        self.grad: Array | None = np.zeros_like(self.data) if requires_grad else None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def item(self) -> float:
        return float(self.data)

    # -- graph construction ------------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _node(data: Array, parents: tuple["Tensor", ...],
              backward: Callable[[Array], None]) -> "Tensor":
        out = Tensor(data)
        if Tensor._record_tape and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: Array) -> None:
        if self._backward is None:          # a leaf: accumulate in place
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad += g
        elif self.grad is None:
            self.grad = g
        else:                               # g may be shared with another parent
            self.grad = self.grad + g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g: Array) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._node(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g: Array) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.data.shape))

        return Tensor._node(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * (-1.0)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        a, b = self, Tensor._lift(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}"
            )
        if a.data.shape[1] != b.data.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}"
            )

        def backward(g: Array) -> None:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ g)

        return Tensor._node(a.data @ b.data, (a, b), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return Tensor._lift(other) @ self

    def transpose(self) -> "Tensor":
        a = self

        def backward(g: Array) -> None:
            a._accumulate(g.T)

        return Tensor._node(a.data.T, (a,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # -- nonlinearities -----------------------------------------------------

    def relu(self) -> "Tensor":
        a = self
        mask = (a.data > 0.0).astype(np.float64)

        def backward(g: Array) -> None:
            a._accumulate(g * mask)

        return Tensor._node(a.data * mask, (a,), backward)

    def sigmoid(self) -> "Tensor":
        a = self
        out_data = _sigmoid(a.data)

        def backward(g: Array) -> None:
            a._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._node(out_data, (a,), backward)

    def square(self) -> "Tensor":
        a = self

        def backward(g: Array) -> None:
            a._accumulate(g * 2.0 * a.data)

        return Tensor._node(a.data * a.data, (a,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: Array) -> None:
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape).copy())
            else:
                ge = g if keepdims else np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(ge, a.data.shape).copy())

        return Tensor._node(out_data, (a,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def logsumexp(self, axis: int = 1, keepdims: bool = False) -> "Tensor":
        a = self
        out_data, soft = _logsumexp(a.data, axis)
        if not keepdims:
            out_data = np.squeeze(out_data, axis=axis)

        def backward(g: Array) -> None:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(ge * soft)

        return Tensor._node(out_data, (a,), backward)

    def softmax(self, axis: int = 1) -> "Tensor":
        a = self
        m = a.data.max(axis=axis, keepdims=True)
        exps = np.exp(a.data - m)
        out_data = exps / exps.sum(axis=axis, keepdims=True)

        def backward(g: Array) -> None:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - inner))

        return Tensor._node(out_data, (a,), backward)

    # -- indexing ------------------------------------------------------------

    def pick(self, indices: Array) -> "Tensor":
        """Select one column per row of a 2-d tensor; returns shape (B,)."""
        a = self
        rows, idx = _pick_index(a.data, indices)

        def backward(g: Array) -> None:
            a._accumulate(_pick_backward(g, a.data, rows, idx))

        return Tensor._node(a.data[rows, idx], (a,), backward)

    # -- backprop ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into every reachable node's grad."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


@contextmanager
def no_grad():
    """Build no tape inside the block.

    Nodes created here record no parents and no backward closure, so each
    intermediate array is freed as soon as the next op has used it. Values
    are computed exactly as outside the block; use it for forwards whose
    result is only read as ``.data``. The mode is process-wide and restored
    on exit, also when the block raises.
    """
    previous = Tensor._record_tape
    Tensor._record_tape = False
    try:
        yield
    finally:
        Tensor._record_tape = previous


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = [Tensor._lift(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                part._accumulate(g[tuple(sl)])

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis),
                        tuple(parts), backward)


# ---------------------------------------------------------------------------
# Shared forward and backward rules of the module nodes
# ---------------------------------------------------------------------------


def _sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _logsumexp(x: Array, axis: int) -> tuple[Array, Array]:
    """(log sum exp of x along axis, kept as a size-1 axis; softmax of x)."""
    m = x.max(axis=axis, keepdims=True)
    exps = np.exp(x - m)
    total = exps.sum(axis=axis, keepdims=True)
    return m + np.log(total), exps / total


def _pick_index(x: Array, indices) -> tuple[Array, Array]:
    """Row and column indices that select one column per row of a 2-d x."""
    idx = np.asarray(indices, dtype=np.intp)
    if x.ndim != 2 or idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ValueError(
            f"pick expects (B, m) tensor and (B,) indices, got "
            f"{x.shape} and {idx.shape}"
        )
    return np.arange(x.shape[0]), idx


def _pick_backward(g: Array, x: Array, rows: Array, idx: Array) -> Array:
    """The gradient of a pick: g scattered into zeros shaped like x."""
    full = np.zeros_like(x)
    full[rows, idx] = g         # one entry per row: no index repeats
    return full


def _affine(x: Array, W: Array, b: Array | None) -> Array:
    """x @ W.T + b, with W stored as (n_out, n_in).

    The products keep the orientation of a transpose node followed by a
    matmul, so the values equal ``x @ W.T + b`` of ``Tensor`` ops bit for bit.
    """
    out = x @ W.T
    if b is not None:
        out += b
    return out


def _affine_backward(g: Array, x: Array, Wd: Array, W: "Tensor", b: "Tensor | None",
                     want_x: bool) -> Array | None:
    """Accumulate the gradients of W and b of ``_affine(x, Wd, b)`` given the
    output gradient g; returns the input gradient when ``want_x``."""
    if W.requires_grad:
        W._accumulate((x.T @ g).T)
    if b is not None and b.requires_grad:
        b._accumulate(g.sum(axis=0))
    return g @ Wd if want_x else None


def _relu(z: Array) -> Array:
    """ReLU of z in place, as ``z * (z > 0)``; returns the mask."""
    mask = z > 0.0
    np.multiply(z, mask, out=z)
    return mask


def _relu_stack(x: Array, layers: Sequence["Dense"]) -> tuple[Array, list]:
    """Dense layers each followed by a ReLU; returns the output and, per
    layer, the (input, weights, ReLU mask) that its backward reads."""
    saved = []
    for layer in layers:
        z = _affine(x, layer.W.data, layer.b.data)
        saved.append((x, layer.W.data, _relu(z)))
        x = z
    return x, saved


def _relu_stack_backward(g: Array, layers: Sequence["Dense"], saved: list,
                         want_x: bool) -> Array | None:
    """Backward of ``_relu_stack``; returns the input gradient when ``want_x``."""
    for i in range(len(layers) - 1, -1, -1):
        x, Wd, mask = saved[i]
        g = _affine_backward(g * mask, x, Wd, layers[i].W, layers[i].b, want_x or i > 0)
    return g


def linear(x: Tensor, W: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ W.T + b as one node, with W stored as (n_out, n_in)."""
    xd, Wd = x.data, W.data
    out = _affine(xd, Wd, None if b is None else b.data)

    def backward(g: Array) -> None:
        gx = _affine_backward(g, xd, Wd, W, b, x.requires_grad)
        if gx is not None:
            x._accumulate(gx)

    return Tensor._node(out, (x, W) if b is None else (x, W, b), backward)


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


def init_param(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator,
               name: str) -> Tensor:
    """Fan-in-scaled uniform init, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    limit = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True,
                  name=name)


class Dense:
    """Affine layer y = x @ W.T + b with W stored as (n_out, n_in)."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, name: str):
        self.n_in = n_in
        self.n_out = n_out
        self.W = init_param((n_out, n_in), n_in, rng, f"{name}.W")
        self.b = init_param((n_out,), n_in, rng, f"{name}.b")

    def check_input(self, x: Tensor) -> None:
        if x.data.shape[1] != self.n_in:
            raise ValueError(
                f"{self.W.name}: expected input width {self.n_in}, "
                f"got {x.data.shape}"
            )

    def __call__(self, x: Tensor) -> Tensor:
        self.check_input(x)
        return linear(x, self.W, self.b)

    def params(self) -> dict[str, Tensor]:
        return {self.W.name: self.W, self.b.name: self.b}


class MLP:
    """ReLU trunk: ``depth`` dense layers ``{name}.trunk{i}`` of ``width``
    units, each followed by a ReLU; iterating yields the layers. With depth 0
    it passes its input through."""

    def __init__(self, n_in: int, width: int, depth: int, rng: np.random.Generator,
                 name: str):
        self.layers = [Dense(n_in if i == 0 else width, width, rng, f"{name}.trunk{i}")
                       for i in range(depth)]
        self.n_out = width if depth else n_in

    def __call__(self, x: Tensor) -> Tensor:
        """The whole ReLU stack as one node."""
        if not self.layers:
            return x
        self.layers[0].check_input(x)
        out, saved = _relu_stack(x.data, self.layers)

        def backward(g: Array) -> None:
            gx = _relu_stack_backward(g, self.layers, saved, x.requires_grad)
            if gx is not None:
                x._accumulate(gx)

        return Tensor._node(out, (x, *self.params().values()), backward)

    def __iter__(self):
        return iter(self.layers)

    def params(self) -> dict[str, Tensor]:
        return collect_params(*self.layers)


class DuelingQNetwork:
    """ReLU trunk with separate state-value and advantage heads.

    Q(s, a) = V(s) + A(s, a) - mean_a A(s, a), so the advantage stream is
    mean-centered and V carries the common level.
    """

    def __init__(self, input_dim: int, rng: np.random.Generator,
                 width: int = 512, depth: int = 3, n_actions: int = 25,
                 name: str = "q"):
        self.input_dim = input_dim
        self.n_actions = n_actions
        self.trunk = MLP(input_dim, width, depth, rng, name)
        self.value_head = Dense(self.trunk.n_out, 1, rng, f"{name}.value")
        self.advantage_head = Dense(self.trunk.n_out, n_actions, rng, f"{name}.advantage")

    def __call__(self, state: Tensor) -> Tensor:
        """Trunk, both heads and the mean-centring as one node."""
        layers, vh, ah = self.trunk.layers, self.value_head, self.advantage_head
        (layers[0] if layers else vh).check_input(state)
        h, saved = _relu_stack(state.data, layers)
        vW, aW = vh.W.data, ah.W.data
        v, a = _affine(h, vW, vh.b.data), _affine(h, aW, ah.b.data)
        q = v + a - a.sum(axis=1, keepdims=True) * (1.0 / a.shape[1])

        def backward(g: Array) -> None:
            # the op graph's chain: v + a, minus the mean as a sum times 1/n
            g_v = _unbroadcast(g, v.shape)
            g_a = g + (g_v * -1.0) * (1.0 / a.shape[1])
            want_h = bool(layers) or state.requires_grad
            g_hv = _affine_backward(g_v, h, vW, vh.W, vh.b, want_h)
            g_ha = _affine_backward(g_a, h, aW, ah.W, ah.b, want_h)
            if want_h:
                gx = _relu_stack_backward(g_hv + g_ha, layers, saved, state.requires_grad)
                if gx is not None:
                    state._accumulate(gx)

        return Tensor._node(q, (state, *self.params().values()), backward)

    def params(self) -> dict[str, Tensor]:
        return collect_params(self.trunk, self.value_head, self.advantage_head)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam with bias correction over flat moment buffers; clears grads after each step.

    The moments of all parameters live in one flat ``m`` and one flat ``v``,
    so a step is one gather of the gradients and one update expression,
    followed by one in-place subtraction per parameter. ``grad_clip`` caps
    each parameter's gradient norm separately.
    """

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-4,
                 grad_clip: float | None = None):
        self.params = dict(params)
        self.lr = float(lr)
        self.grad_clip = grad_clip
        self.step_count = 0
        sizes = [p.data.size for p in self.params.values()]
        self._slices = [slice(end - size, end)
                        for size, end in zip(sizes, np.cumsum(sizes).tolist())]
        self._m = np.zeros(sum(sizes))
        self._v = np.zeros(sum(sizes))

    def step(self) -> None:
        grads = [np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                 for p in self.params.values()]
        g = np.concatenate(grads) if grads else np.zeros(0)
        if not np.isfinite(g).all():
            bad = next(key for key, sl in zip(self.params, self._slices)
                       if not np.isfinite(g[sl]).all())
            raise NonFiniteGradientError(f"non-finite gradient in {bad!r}")
        if self.grad_clip is not None:
            for sl in self._slices:
                part = g[sl]
                norm = float(np.sqrt((part * part).sum()))
                if norm > self.grad_clip:
                    part *= self.grad_clip / norm
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        for p, sl in zip(self.params.values(), self._slices):
            p.data -= update[sl].reshape(p.data.shape)
        zero_grads(self.params)


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        else:
            p.grad[...] = 0.0


def clone_param_values(params: Mapping[str, Tensor]) -> dict[str, Array]:
    return {k: p.data.copy() for k, p in params.items()}


def load_param_values(params: Mapping[str, Tensor],
                      values: Mapping[str, Array]) -> None:
    for key, p in params.items():
        v = _f64(values[key])
        if v.shape != p.data.shape:
            raise ValueError(
                f"shape mismatch for {key!r}: have {p.data.shape}, "
                f"loading {v.shape}"
            )
        p.data = v.copy()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: Mapping[str, Tensor],
                    metadata: dict | None = None) -> None:
    """Write parameters as versioned JSON; floats round-trip bit-exactly."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "metadata": metadata or {},
        "tensors": {
            key: {"shape": list(p.data.shape), "values": p.data.ravel().tolist()}
            for key, p in sorted(params.items())
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[dict[str, Array], dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not isinstance(payload.get("tensors"), dict):
        raise ValueError("checkpoint must be a JSON object with a 'tensors' object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    tensors = {
        key: _f64(entry["values"]).reshape(entry["shape"])
        for key, entry in payload["tensors"].items()
    }
    return tensors, payload.get("metadata", {})


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


GRADIENT_CHECK_STEP = 1e-5


def gradient_check(loss_fn: Callable[[], Tensor],
                   params: Mapping[str, Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the graph from the current parameter values on
    every call. Relative error uses max(|analytic|, |numeric|, 1e-3) in the
    denominator so exactly-zero gradients compare cleanly.
    """
    zero_grads(params)
    loss_fn().backward()
    analytic = {k: p.grad.copy() for k, p in params.items()}

    worst = 0.0
    for key, p in params.items():
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADIENT_CHECK_STEP
            up = loss_fn().item()
            flat[i] = orig - GRADIENT_CHECK_STEP
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
            a = analytic[key].ravel()[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, rel)
    zero_grads(params)
    return worst


def collect_params(*components) -> dict[str, Tensor]:
    """Merge the params() dicts of several layers/modules in order, skipping
    None entries and rejecting clashes."""
    merged: dict[str, Tensor] = {}
    for comp in components:
        if comp is None:
            continue
        for key, p in comp.params().items():
            if key in merged:
                raise ValueError(f"duplicate parameter name {key!r}")
            merged[key] = p
    return merged
