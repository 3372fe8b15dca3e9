"""Op-by-op reference for netcore's module nodes, and the finite-difference oracle.

Each function below records one tape node of ``careql.netcore.Tensor`` with
its own backward, built on ``Tensor._node`` and the forward and backward
rules that the module nodes share. A test builds a network module or a
loss from these ops, one node per op, and checks that the module's single
node gives the same values and gradients bit for bit; ``gradient_check``
checks analytic gradients against central finite differences.

Operands that are not tensors (numbers, arrays) are wrapped as constants.
``sub``, ``neg``, ``div`` and ``mean`` are compositions of ``add``, ``mul``
and ``sum``, so their rounding is that of those nodes.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from careql.netcore import (
    Array,
    Tensor,
    _logsumexp,
    _pick_backward,
    _pick_index,
    _sigmoid,
    zero_grads,
)


def lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# -- arithmetic ---------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = lift(a), lift(b)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g, b.data.shape))

    return Tensor._node(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = lift(a), lift(b)

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * a.data, b.data.shape))

    return Tensor._node(a.data * b.data, (a, b), backward)


def neg(a) -> Tensor:
    return mul(a, -1.0)


def sub(a, b) -> Tensor:
    return add(a, neg(lift(b)))


def div(a, scalar: float) -> Tensor:
    return mul(a, 1.0 / float(scalar))


def matmul(a, b) -> Tensor:
    a, b = lift(a), lift(b)
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


def transpose(a: Tensor) -> Tensor:
    def backward(g: Array) -> None:
        a._accumulate(g.T)

    return Tensor._node(a.data.T, (a,), backward)


def affine(x: Tensor, W: Tensor, b=None) -> Tensor:
    """x @ W.T + b as a transpose, a matmul and an add node."""
    out = matmul(x, transpose(W))
    return out if b is None else add(out, b)


# -- nonlinearities -----------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0.0).astype(np.float64)

    def backward(g: Array) -> None:
        a._accumulate(g * mask)

    return Tensor._node(a.data * mask, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def backward(g: Array) -> None:
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._node(out_data, (a,), backward)


def square(a: Tensor) -> Tensor:
    def backward(g: Array) -> None:
        a._accumulate(g * 2.0 * a.data)

    return Tensor._node(a.data * a.data, (a,), backward)


# -- reductions -----------------------------------------------------------------


def sum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> None:
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge, a.data.shape).copy())

    return Tensor._node(out_data, (a,), backward)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def logsumexp(a: Tensor, axis: int = 1, keepdims: bool = False) -> Tensor:
    out_data, soft = _logsumexp(a.data, axis)
    if not keepdims:
        out_data = np.squeeze(out_data, axis=axis)

    def backward(g: Array) -> None:
        ge = g if keepdims else np.expand_dims(g, axis)
        a._accumulate(ge * soft)

    return Tensor._node(out_data, (a,), backward)


def softmax(a: Tensor, axis: int = 1) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    exps = np.exp(a.data - m)
    out_data = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g: Array) -> None:
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a._accumulate(out_data * (g - inner))

    return Tensor._node(out_data, (a,), backward)


# -- indexing -------------------------------------------------------------------


def pick(a: Tensor, indices) -> Tensor:
    """Select one column per row of a 2-d tensor; returns shape (B,)."""
    rows, idx = _pick_index(a.data, indices)

    def backward(g: Array) -> None:
        a._accumulate(_pick_backward(g, a.data, rows, idx))

    return Tensor._node(a.data[rows, idx], (a,), backward)


# -- finite-difference verification -------------------------------------------


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
            up = float(loss_fn().data)
            flat[i] = orig - GRADIENT_CHECK_STEP
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * GRADIENT_CHECK_STEP)
            a = analytic[key].ravel()[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, rel)
    zero_grads(params)
    return worst

