"""Reverse-mode autodiff substrate with optimizers and learning-rate schedules.

Everything trainable in the toolkit runs through the `Tensor` class below:
a float64 numpy array plus a backward closure. Calling ``backward()`` on a
scalar loss walks the graph in reverse topological order and accumulates
gradients into every leaf created with ``requires_grad=True``. Leaves start
with a zero gradient, so parameters that a loss never touches report an
exact zero. A parent that is neither such a leaf nor computed from one
(a mask, a scale, a target) gets no gradient at all.

`linear`, `layer_norm` and `attention` are fused nodes: each is one graph
node that gives the exact bits of the chain of ops it stands for, forward
and backward, with the per-node cost paid once.

All arithmetic is float64; there is no GPU path and no mixed precision.

Every trainer in the toolkit steps through `train`: one optimizer step
per batch of an iterable, with a constant learning rate or a schedule
indexed by the optimizer's step count, and a `DivergenceError` as soon
as a loss is not finite. Batches come from `sample_batches` (random
subsets for step-budgeted training) or `epoch_batches` (one fresh
permutation per epoch). Both are generators, so their draws interleave
with any draws the loss makes from the same generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ShapeMismatchError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suppresses graph construction."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _wants_grad(t: "Tensor") -> bool:
    """Whether `t` is a trainable leaf or depends on one. Backward returns
    None toward any other parent instead of a gradient nothing reads."""
    return t.requires_grad or bool(t._parents)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backward = None

    # -- construction ----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @staticmethod
    def _node(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(
            p.requires_grad or p._parents for p in parents
        ):
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def zero_grad(self):
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g, a.shape) if _wants_grad(a) else None,
                    _unbroadcast(g, b.shape) if _wants_grad(b) else None)

        return Tensor._node(a.data + b.data, (a, b), backward)

    def __sub__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (_unbroadcast(g, a.shape) if _wants_grad(a) else None,
                    _unbroadcast(-g, b.shape) if _wants_grad(b) else None)

        return Tensor._node(a.data - b.data, (a, b), backward)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g * b.data, a.shape) if _wants_grad(a) else None,
                _unbroadcast(g * a.data, b.shape) if _wants_grad(b) else None,
            )

        return Tensor._node(a.data * b.data, (a, b), backward)

    def __truediv__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other

        def backward(g):
            return (
                _unbroadcast(g / b.data, a.shape) if _wants_grad(a) else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if _wants_grad(b) else None,
            )

        return Tensor._node(a.data / b.data, (a, b), backward)

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ShapeMismatchError("matmul operands must be at least 2-D")

        return Tensor._node(np.matmul(a.data, b.data), (a, b),
                            lambda g: _matmul_grads(a, b, g))

    # -- elementwise -----------------------------------------------------

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward(g):
            return (g * out_data,)

        return Tensor._node(out_data, (a,), backward)

    def sqrt(self):
        a = self
        out_data = np.sqrt(a.data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return Tensor._node(out_data, (a,), backward)

    def square(self):
        a = self

        def backward(g):
            return (g * 2.0 * a.data,)

        return Tensor._node(a.data * a.data, (a,), backward)

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def backward(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._node(out_data, (a,), backward)

    def relu(self):
        a = self

        def backward(g):
            return (g * (a.data > 0.0),)

        return Tensor._node(np.maximum(a.data, 0.0), (a,), backward)

    def abs(self):
        a = self

        def backward(g):
            return (g * np.sign(a.data),)

        return Tensor._node(np.abs(a.data), (a,), backward)

    # -- reductions and shape --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, a.shape).copy(),)

        return Tensor._node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        if axis is None:
            count = a.data.size
        else:
            count = a.data.shape[axis]

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g / count, a.shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp / count, a.shape).copy(),)

        return Tensor._node(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def backward(g):
            return (g.reshape(a.shape),)

        return Tensor._node(a.data.reshape(shape), (a,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))

        def backward(g):
            return (g.transpose(inverse),)

        return Tensor._node(a.data.transpose(axes), (a,), backward)

    def __getitem__(self, key):
        a = self

        def backward(g):
            out = np.zeros_like(a.data)
            out[key] = g
            return (out,)

        return Tensor._node(a.data[key], (a,), backward)

    # -- backward pass ---------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward() needs a scalar loss, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- free functions on tensors -------------------------------------------


def concat(tensors, axis: int) -> Tensor:
    parts = [Tensor._coerce(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    data = np.concatenate([p.data for p in parts], axis=axis)
    return Tensor._node(data, tuple(parts), backward)


def take_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``table[indices]`` for integer index arrays (embeddings)."""
    a = Tensor._coerce(table)
    idx = np.asarray(indices)

    def backward(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx.reshape(-1), g.reshape(-1, a.data.shape[-1]))
        return (out,)

    return Tensor._node(a.data[idx], (a,), backward)


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray) -> tuple:
    """Gradients of ``a @ b`` toward `a` and `b`, given the output's `g`."""
    return (
        _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if _wants_grad(a) else None,
        _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        if _wants_grad(b) else None,
    )


# The fused nodes below each stand for a chain of the ops above. Forward
# and backward run the chain's numpy expressions in the chain's order, so
# every value and gradient is bit-identical to it; the one liberty taken
# is that a (..., 1) column the chain would broadcast into a full copy is
# broadcast inside the elementwise op that uses it.


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node."""
    x, w, b = Tensor._coerce(x), Tensor._coerce(w), Tensor._coerce(b)

    def backward(g):
        return _matmul_grads(x, w, g) + (
            _unbroadcast(g, b.shape) if _wants_grad(b) else None,)

    return Tensor._node(np.matmul(x.data, w.data) + b.data, (x, w, b),
                        backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis to zero mean and unit variance (`eps`
    added to the variance), then scale by `gamma` and shift by `beta`; one
    node."""
    x, gamma, beta = (Tensor._coerce(x), Tensor._coerce(gamma),
                      Tensor._coerce(beta))
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    sd = np.sqrt(var + eps)
    xhat = centered / sd
    count = x.data.shape[-1]

    def backward(g):
        g_xhat = g * gamma.data
        g_sd = _unbroadcast(-g_xhat * centered / (sd * sd), sd.shape)
        g_var = g_sd * 0.5 / sd
        g_centered = g_xhat / sd + g_var / count * 2.0 * centered
        g_mu = _unbroadcast(-g_centered, mu.shape)
        return (
            g_centered + g_mu / count if _wants_grad(x) else None,
            _unbroadcast(g * xhat, gamma.shape)
            if _wants_grad(gamma) else None,
            _unbroadcast(g, beta.shape) if _wants_grad(beta) else None,
        )

    return Tensor._node(xhat * gamma.data + beta.data, (x, gamma, beta),
                        backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              key_bias: np.ndarray) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    `q`, `k` and `v` are (B, T, D); each is split into `heads` heads of
    D / heads columns. Per head, the weights are the softmax over keys of
    ``q k^T / sqrt(D / heads) + key_bias`` (`key_bias` broadcasts to
    (B, heads, T, T), e.g. (B, 1, 1, T) per key), and the heads' weighted
    sums of `v` are merged back into (B, T, D).
    """
    q, k, v = Tensor._coerce(q), Tensor._coerce(k), Tensor._coerce(v)
    B, T, D = q.shape
    dh = D // heads

    def split(x):
        return x.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(B, T, D)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / np.sqrt(dh)
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale + key_bias
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        g_ctx = split(g)
        g_attn = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * scale
        return (
            merge(np.matmul(g_scores, kh)) if _wants_grad(q) else None,
            merge(np.matmul(np.swapaxes(qh, -1, -2), g_scores)
                  .transpose(0, 1, 3, 2)) if _wants_grad(k) else None,
            merge(np.matmul(np.swapaxes(attn, -1, -2), g_ctx))
            if _wants_grad(v) else None,
        )

    return Tensor._node(merge(np.matmul(attn, vh)), (q, k, v), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row cross entropy of ``softmax(logits)`` against integer targets.

    `logits` is (N, C); `targets` is an int array of shape (N,). Returns the
    per-row loss vector (N,).
    """
    a = Tensor._coerce(logits)
    t = np.asarray(targets, dtype=np.intp)
    if a.data.ndim != 2 or t.shape != (a.data.shape[0],):
        raise ShapeMismatchError("expected logits (N, C) and targets (N,)")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + a.data.max(axis=1)
    losses = lse - a.data[np.arange(t.size), t]
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)

    def backward(g):
        grad = probs * g[:, None]
        grad[np.arange(t.size), t] -= g
        return (grad,)

    return Tensor._node(losses, (a,), backward)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Numerically stable per-element binary cross entropy on raw logits."""
    a = Tensor._coerce(logits)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != a.data.shape:
        raise ShapeMismatchError("labels must match logits shape")
    x = a.data
    losses = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    def backward(g):
        return (g * (_sigmoid(x) - y),)

    return Tensor._node(losses, (a,), backward)


# -- optimizers ----------------------------------------------------------

# The standard constants of both optimizers.
_BETA1, _BETA2 = 0.9, 0.999  # Adam moment decays
_RHO = 0.9  # RMSProp squared-gradient decay
_EPS = 1e-8


class Adam:
    """Adam with bias-corrected moment estimates."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeMismatchError("gradient shape differs from parameter")
            self.m[i] = _BETA1 * self.m[i] + (1.0 - _BETA1) * g
            self.v[i] = _BETA2 * self.v[i] + (1.0 - _BETA2) * g * g
            m_hat = self.m[i] / (1.0 - _BETA1**t)
            v_hat = self.v[i] / (1.0 - _BETA2**t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + _EPS)


class RMSProp:
    """RMSProp with a running average of squared gradients."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr: float):
        self.step_count += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeMismatchError("gradient shape differs from parameter")
            self.v[i] = _RHO * self.v[i] + (1.0 - _RHO) * g * g
            p.data = p.data - lr * g / (np.sqrt(self.v[i]) + _EPS)


# -- learning-rate schedules ---------------------------------------------


@dataclass(frozen=True)
class WarmupThenConstant:
    """Linear ramp from 0 to `peak_lr` over `warmup_fraction` of the run,
    held at `peak_lr` afterwards."""

    peak_lr: float
    total_steps: int
    warmup_fraction: float

    def lr(self, step: int) -> float:
        warmup_steps = self.warmup_fraction * self.total_steps
        if warmup_steps <= 0 or step >= warmup_steps:
            return self.peak_lr
        return self.peak_lr * step / warmup_steps


@dataclass(frozen=True)
class LinearDecay:
    """Linear interpolation from `start_lr` at step 0 to `end_lr` at
    `total_steps`; clamped to `end_lr` beyond."""

    start_lr: float
    end_lr: float
    total_steps: int

    def lr(self, step: int) -> float:
        if step >= self.total_steps:
            return self.end_lr
        frac = step / self.total_steps
        return self.start_lr + (self.end_lr - self.start_lr) * frac


def finite_step_count(n_examples: int, batch_size: int, epochs: int) -> int:
    """Number of optimizer steps for `epochs` passes over `n_examples`."""
    return epochs * math.ceil(n_examples / batch_size)


# -- training loop -------------------------------------------------------


def train(opt, batches, loss_fn, lr) -> None:
    """One `opt` step per batch: ``loss_fn(batch)``, backward, step.

    `lr` is a float or a schedule's ``lr`` method, which is called with
    ``opt.step_count``, so several calls on one optimizer continue one
    schedule. A non-finite loss raises `DivergenceError` before its step.
    """
    for batch in batches:
        loss = loss_fn(batch)
        if not math.isfinite(loss.item()):
            raise DivergenceError(
                f"loss is {loss.item()} at step {opt.step_count + 1}")
        opt.zero_grad()
        loss.backward()
        opt.step(lr(opt.step_count) if callable(lr) else lr)


def sample_batches(rng, n: int, batch: int, steps: int):
    """`steps` batches of ``min(batch, n)`` distinct indices below `n`."""
    for _ in range(steps):
        yield rng.choice(n, size=min(batch, n), replace=False)


def epoch_batches(rng, n: int, batch: int, epochs: int = 1):
    """Per epoch, a fresh permutation of ``range(n)`` cut into batches of
    `batch`; the last batch of an epoch may be short."""
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            yield order[start : start + batch]
