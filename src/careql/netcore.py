"""Reverse-mode autodiff core for small dense networks.

A ``Tensor`` holds a float32 or float64 array and the tape entry that
produced it; ``backward()`` on a scalar loss walks the tape and accumulates
gradients into every reachable parameter. A node computes in the dtype of
its inputs. Every network careql fits trains in ``TRAIN_DTYPE`` (float32):
a fit casts its parameters (``cast_params``) and its inputs (``as_dtype``)
once, so its activations, gradients and Adam moments are float32 too,
while the losses reduce in float64. Parameters are drawn, and the tests
run every node, in float64.

Every tape entry is a module node with a hand-written backward: ``linear``
(an affine map ``x @ W.T + b``), ``concat``, an ``MLP`` call (the whole ReLU
stack) and a ``DuelingQNetwork`` call (trunk, both heads and the
mean-centring); the encoder's modules and the trainer's losses are built
the same way from the shared rules below. A node runs the numpy
expressions of the same module built op by op (a transpose, a matmul, an
add, a ReLU, each its own node) in the same order, so its values and
gradients equal that op-by-op graph's bit for bit. The tests keep that
op-by-op reference and a central-difference gradient check in
``tests/reference_ops.py``, and compare every node with both.

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

CHECKPOINT_FORMAT_VERSION = 2
# the dtype of every network that careql fits: see ``cast_params``
TRAIN_DTYPE = np.float32
# Adam's moment decay rates and denominator offset
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteGradientError(RuntimeError):
    """Raised by the optimizer when a parameter gradient, or its square, is
    NaN or inf."""


def _node_array(x) -> Array:
    """``x`` as an array: a float32 array as it is, anything else as float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def as_dtype(x: Array, dtype) -> Array:
    """``x`` cast to ``dtype``; a finite value beyond its range becomes an
    infinity, with no warning, for the finite checks downstream to report."""
    with np.errstate(over="ignore"):
        return np.asarray(x).astype(dtype, copy=False)


class Tensor:
    """A float32 or float64 array plus the tape entry that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    # False inside ``no_grad``: new nodes keep no parents and no backward
    _record_tape = True

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _node_array(data)
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

    # -- graph construction ------------------------------------------------

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
    parts = tuple(tensors)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if part.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                part._accumulate(g[tuple(sl)])

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis),
                        parts, backward)


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
    matmul, so the values equal an op-by-op ``x @ W.T + b`` bit for bit.
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
            # the op graph's chain: v + a, minus the mean as a sum times 1/n;
            # v is broadcast across the actions, so its gradient sums over them
            g_v = g.sum(axis=1, keepdims=True)
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

    The moments of all parameters live in one flat ``m`` and one flat ``v``
    of the parameters' dtype, so a step is one gather of the gradients and
    one update expression, followed by one in-place subtraction per
    parameter. ``grad_clip`` caps each parameter's gradient norm separately.
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
        dtype = np.result_type(np.float32, *(p.data.dtype for p in self.params.values()))
        self._m = np.zeros(sum(sizes), dtype)
        self._v = np.zeros(sum(sizes), dtype)

    def step(self) -> None:
        grads = [np.zeros(p.data.size, p.data.dtype) if p.grad is None else p.grad.ravel()
                 for p in self.params.values()]
        g = np.concatenate(grads) if grads else np.zeros(0, self._m.dtype)
        self._check_finite(g, "non-finite gradient in {!r}")
        if self.grad_clip is not None:
            for sl in self._slices:
                part = g[sl]
                # in float64: a float32 square overflows from 1.8e19
                norm = float(np.sqrt(np.square(part, dtype=np.float64).sum()))
                if norm > self.grad_clip:
                    part *= self.grad_clip / norm
        with np.errstate(over="ignore"):
            g2 = g * g
        self._check_finite(g2, "gradient in {!r} overflows Adam's second moment")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        m, v = self._m, self._v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g2
        update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        for p, sl in zip(self.params.values(), self._slices):
            p.data -= update[sl].reshape(p.data.shape)
        zero_grads(self.params)

    def _check_finite(self, values: Array, message: str) -> None:
        """A ``NonFiniteGradientError`` naming, by ``message``, the first
        parameter whose slice of the flat ``values`` is not finite."""
        if not np.isfinite(values).all():
            bad = next(key for key, sl in zip(self.params, self._slices)
                       if not np.isfinite(values[sl]).all())
            raise NonFiniteGradientError(message.format(bad))


def cast_params(params: Mapping[str, Tensor], dtype=TRAIN_DTYPE) -> None:
    """Rebind each parameter's value, and its gradient, to a ``dtype`` copy.
    A fit calls it once, before it builds its optimizer."""
    for p in params.values():
        p.data = p.data.astype(dtype)
        if p.grad is not None:
            p.grad = p.grad.astype(dtype)


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
    """Set each parameter to a copy of its value in ``values``, which must
    hold exactly the parameters' keys and shapes; a float32 value stays
    float32, any other becomes float64."""
    unknown = sorted(set(values) - set(params))
    if unknown:
        raise ValueError(f"tensor {unknown[0]!r} is not a parameter of the model")
    for key, p in params.items():
        v = _node_array(values[key])
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
    """Write parameters as versioned JSON. Each value is written as the
    shortest decimal that reads back to it in its own dtype, so a float32
    tensor round-trips bit-exactly through ``as_dtype(values, np.float32)``
    and a float64 one through the loaded values themselves."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "metadata": metadata or {},
        "tensors": {
            key: {"shape": list(p.data.shape), "values": _shortest_floats(p.data)}
            for key, p in sorted(params.items())
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[dict[str, Array], dict]:
    """The float64 tensors and the metadata of a ``save_checkpoint`` file. A
    ``ValueError`` names the first key whose value is not what
    ``save_checkpoint`` writes: an integer ``format_version`` equal to
    ``CHECKPOINT_FORMAT_VERSION``, and tensor values that are finite numbers
    within the finite range of ``TRAIN_DTYPE``, the dtype of the networks it
    holds."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or not isinstance(payload.get("tensors"), dict):
        raise ValueError("checkpoint must be a JSON object with a 'tensors' object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    tensors = {}
    for key, entry in payload["tensors"].items():
        arr = _finite_floats(entry["values"])
        if arr is None:
            raise ValueError(f"checkpoint tensor {key!r}: values must be a list of "
                             f"finite numbers within {np.dtype(TRAIN_DTYPE)}'s range")
        tensors[key] = arr.reshape(entry["shape"])
    return tensors, payload.get("metadata", {})


def _finite_floats(values) -> Array | None:
    """``values`` as a float64 array when it is a list of JSON numbers that
    are finite in ``TRAIN_DTYPE``, else None. Types are checked first: JSON
    true and "1.0" would read as 1.0."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        return None
    try:
        arr = np.asarray(values, dtype=np.float64)
    except OverflowError:               # an integer beyond float64's range
        return None
    return arr if np.isfinite(as_dtype(arr, TRAIN_DTYPE)).all() else None


def _shortest_floats(x: Array) -> list[float]:
    """The values of a float32 or float64 array as Python floats whose
    ``repr`` is the shortest decimal that reads back to each value in the
    array's dtype."""
    if x.dtype == np.float32:   # numpy's str of a float32 is its shortest decimal
        return x.ravel().astype(str).astype(np.float64).tolist()
    return x.ravel().tolist()


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
