"""Reverse-mode autodiff substrate with optimizers and learning-rate schedules.

Everything trainable in the toolkit runs through the `Tensor` class below:
a float64 numpy array plus a backward closure. Calling ``backward()`` on a
scalar loss walks the graph in reverse topological order and accumulates
gradients into every leaf created with ``requires_grad=True``. Leaves start
with a zero gradient, so parameters that a loss never touches report an
exact zero. A parent that is neither such a leaf nor computed from one
(a mask, a scale, a target) gets no gradient at all.

Each kind of op has one written gradient rule: `Tensor._binary` serves
``+ - * / @`` (and is where the no-gradient-toward-constants rule and the
undoing of broadcasting live), `Tensor._unary` every op of one input
but the fused nodes, and one backward both reductions. Indexing is the
one gather, for any numpy key: its gradient is one `np.bincount` of the
output's gradient over the flat positions the key picks, which adds each
pick's gradient into zeros in pick order; so an element picked more
than once gets the sum of its picks' gradients.

`linear` and `transformer_block` are fused nodes: each is one graph
node whose forward gives the exact bits of the chain of ops it stands
for, with the per-node cost paid once. `linear` (``x @ w + b``) serves
the flow and the NLI head; `transformer_block` is a whole post-norm
encoder block (attention, output projection and residual, layer norm,
ReLU feed-forward and residual, layer norm), so an encoder forward adds
one node per layer. The two share one written linear rule. Backward
gives the chain's bits too, but for two rules re-derived for speed,
every linear weight gradient and the layer norms' input gradient, which
equal the chain's up to rounding.

An op joins the graph when grad is on and some parent wants a gradient
(`_records`). A `transformer_block` call that does not join it keeps
nothing for a backward: it drops each intermediate after its last read
and writes later results into buffers it allocated itself, never into
its input or a weight. At scoring's shape (36 rows of 32 tokens,
hidden 32) its allocations peak at 4.3 times its input's bytes, where
keeping every intermediate took 12.4 times.

All arithmetic is float64; there is no GPU path and no mixed precision.

Every trainer in the toolkit steps through `train`: one optimizer step
per batch of an iterable, with a constant learning rate or a schedule
indexed by the optimizer's step count, and a `DivergenceError` as soon
as a loss is not finite; the two that pick an epoch (the flow fit and
supervised early stopping) do so through `train_best`. Batches come
from `sample_batches` (random subsets for step-budgeted training) or
`epoch_batches` (one fresh permutation per epoch). Both are generators,
so their draws interleave with any draws the loss makes from the same
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DetachedParameterError, DivergenceError, ShapeMismatchError

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


def _records(parents) -> bool:
    """Whether an op on `parents` joins the graph: grad is on and some
    parent wants a gradient."""
    return _GRAD_ENABLED and any(map(_wants_grad, parents))


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
        if _records(parents):
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def zero_grad(self):
        if self.requires_grad:
            self.grad.fill(0.0)

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

    def _binary(self, other, op, grad_a, grad_b) -> "Tensor":
        """The node ``op(self, other)`` for a numpy ufunc `op`. Backward
        sends ``grad_a(g, a, b)`` toward `self` and ``grad_b(g, a, b)``
        toward `other` (`a` and `b` are the operands' arrays), each summed
        down to its operand's shape, and None toward an operand that
        wants no gradient."""
        a, b = self, Tensor._coerce(other)

        def backward(g):
            return (
                _unbroadcast(grad_a(g, a.data, b.data), a.shape)
                if _wants_grad(a) else None,
                _unbroadcast(grad_b(g, a.data, b.data), b.shape)
                if _wants_grad(b) else None,
            )

        return Tensor._node(op(a.data, b.data), (a, b), backward)

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b: g,
                            lambda g, a, b: g)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b: g,
                            lambda g, a, b: -g)

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b: g * b,
                            lambda g, a, b: g * a)

    def __truediv__(self, other):
        return self._binary(other, np.divide, lambda g, a, b: g / b,
                            lambda g, a, b: -g * a / (b * b))

    def __matmul__(self, other):
        other = Tensor._coerce(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ShapeMismatchError("matmul operands must be at least 2-D")
        return self._binary(
            other, np.matmul,
            lambda g, a, b: np.matmul(g, np.swapaxes(b, -1, -2)),
            lambda g, a, b: np.matmul(np.swapaxes(a, -1, -2), g))

    # -- elementwise, reductions and shape -------------------------------

    def _unary(self, data, grad) -> "Tensor":
        """The node of value `data` computed from `self` alone; backward
        sends ``grad(g)`` toward `self`."""
        return Tensor._node(data, (self,), lambda g: (grad(g),))

    def exp(self):
        out = np.exp(self.data)
        return self._unary(out, lambda g: g * out)

    def sqrt(self):
        out = np.sqrt(self.data)
        return self._unary(out, lambda g: g * 0.5 / out)

    def square(self):
        a = self.data
        return self._unary(a * a, lambda g: g * 2.0 * a)

    def tanh(self):
        out = np.tanh(self.data)
        return self._unary(out, lambda g: g * (1.0 - out * out))

    def abs(self):
        a = self.data
        return self._unary(np.abs(a), lambda g: g * np.sign(a))

    def _reduce(self, data, axis, keepdims: bool, count: int) -> "Tensor":
        """The node `data`, a sum or mean of `self` over `axis`; backward
        divides `g` by `count` (1 for a sum) and broadcasts it back."""
        def grad(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g / count, self.shape).copy()

        return self._unary(data, grad)

    def sum(self, axis=None, keepdims: bool = False):
        return self._reduce(self.data.sum(axis=axis, keepdims=keepdims),
                            axis, keepdims, 1)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self._reduce(self.data.mean(axis=axis, keepdims=keepdims),
                            axis, keepdims, count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return self._unary(self.data.reshape(shape),
                           lambda g: g.reshape(self.shape))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        return self._unary(self.data.transpose(axes),
                           lambda g: g.transpose(inverse))

    def __getitem__(self, key):
        """``self[key]``, the one gather, for any numpy key. Its gradient
        adds the gradient of every pick into zeros, in pick order: one
        `np.bincount` over the flat positions that `key` picks, so an
        element picked more than once gets the sum of its picks'
        gradients."""
        def grad(g):
            picks = np.arange(self.data.size).reshape(self.shape)[key]
            return np.bincount(np.ravel(picks), weights=np.ravel(g),
                               minlength=self.data.size).reshape(self.shape)

        return self._unary(self.data[key], grad)

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
                node.grad += g
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


# The fused nodes below each stand for a chain of the ops above. Forward
# gives the exact bits of the chain's numpy expressions in the chain's
# order. Where a cheaper numpy form gives the same bits it is used: a
# mean is the sum divided by the count (which is what `np.mean` does), a
# row max is a running `np.maximum` (max is exact in any order), and an
# elementwise op whose operand is a fresh temporary runs in place.
# Backward gives the chain's bits too, but for two rules re-derived for
# speed, which equal the chain's only up to rounding: a linear weight
# gradient is one gemm over all rows, not one product per batch entry
# summed, and a layer norm's input gradient is the closed form, not a
# replay of the chain's ops.


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    out = np.matmul(x, w, out=out)
    out += b
    return out


def _linear_grads(g: np.ndarray, x: np.ndarray, w: np.ndarray,
                  wants) -> tuple:
    """The one linear rule: the gradients of ``x @ w + b`` toward `x`, `w`
    and `b` given the output's gradient `g`, each None where its flag in
    `wants` is False."""
    want_x, want_w, want_b = wants
    rows = g.reshape(-1, g.shape[-1])
    return (np.matmul(g, w.T) if want_x else None,
            np.matmul(x.reshape(-1, x.shape[-1]).T, rows) if want_w else None,
            rows.sum(axis=0) if want_b else None)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node."""
    x, w, b = Tensor._coerce(x), Tensor._coerce(w), Tensor._coerce(b)

    def backward(g):
        return _linear_grads(g, x.data, w.data,
                             (_wants_grad(x), _wants_grad(w), _wants_grad(b)))

    return Tensor._node(_affine(x.data, w.data, b.data), (x, w, b), backward)


def _normalize(a: np.ndarray, eps: float) -> np.ndarray:
    """Normalize `a` in place over its last axis to zero mean and unit
    variance (`eps` added to the variance); returns the standard
    deviations."""
    D = a.shape[-1]
    a -= a.sum(axis=-1, keepdims=True) / D
    sd = (a * a).sum(axis=-1, keepdims=True) / D
    sd += eps
    np.sqrt(sd, out=sd)
    a /= sd
    return sd


def _norm_grads(g: np.ndarray, xhat: np.ndarray, sd: np.ndarray,
                gamma: np.ndarray) -> tuple:
    """The gradients of the layer norm ``xhat * gamma + beta`` of (B, T, D)
    rows toward its input, `gamma` and `beta`."""
    D = g.shape[-1]
    g_xhat = g * gamma
    dot = (g_xhat * xhat).sum(axis=-1, keepdims=True) / D
    g_in = g_xhat - g_xhat.sum(axis=-1, keepdims=True) / D
    g_in -= xhat * dot
    g_in /= sd
    return g_in, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))


_ALL = (True, True, True)


def transformer_block(h: Tensor, weights, heads: int, key_bias: np.ndarray,
                      eps: float) -> Tensor:
    """One post-norm transformer encoder block as one node.

    `h` is (B, T, D) and `weights` the 16 tensors ``wq, bq, wk, bk, wv,
    bv, wo, bo, ln1_g, ln1_b, w1, c1, w2, c2, ln2_g, ln2_b``. Multi-head
    attention splits ``h wq + bq``, ``h wk + bk`` and ``h wv + bv`` into
    `heads` heads of D / heads columns; per head, the weights are the
    softmax over keys of ``q k^T / sqrt(D / heads) + key_bias``
    (`key_bias` broadcasts to (B, heads, T, T), e.g. (B, 1, 1, T) per
    key), and the heads' weighted sums of v are merged back into
    (B, T, D). Then ``a = LN1(h + ctx wo + bo)`` and the output is
    ``LN2(a + relu(a w1 + c1) w2 + c2)``, where each layer norm normalizes
    the last axis to zero mean and unit variance (`eps` added to the
    variance), then scales by its gain and shifts by its bias.
    """
    h = Tensor._coerce(h)
    parents = (h, *weights)
    record = _records(parents)
    (wq, bq, wk, bk, wv, bv, wo, bo, g1, b1, w1, c1, w2, c2, g2,
     b2) = (p.data for p in weights)
    x = h.data
    B, T, D = x.shape
    dh = D // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a):
        return a.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(B, T, D)

    def spare(a):
        """Where to write an array computed from `a` after `a`'s last
        read: a new buffer if backward reads `a`, else `a` itself."""
        return np.empty_like(a) if record else a

    q = _affine(x, wq, bq)
    k = _affine(x, wk, bk)
    attn = np.matmul(split(q), split(k).transpose(0, 1, 3, 2))
    attn *= scale
    attn += key_bias
    row = attn[..., 0].copy()  # each row's max, then its sum
    for j in range(1, T):
        np.maximum(row, attn[..., j], out=row)
    attn -= row[..., None]
    np.exp(attn, out=attn)
    attn /= np.sum(attn, axis=-1, out=row)[..., None]
    v = _affine(x, wv, bv, out=spare(k))
    ctx = spare(q)
    np.matmul(attn, split(v), out=split(ctx))
    # What backward reads; without a graph, each `del` frees a buffer.
    kept = (q, k, v, attn, ctx) if record else ()
    del q, k, v, attn
    xhat1 = _affine(ctx, wo, bo)
    del ctx
    xhat1 += x
    sd1 = _normalize(xhat1, eps)
    a = np.multiply(xhat1, g1, out=spare(xhat1))
    a += b1
    r = _affine(a, w1, c1)
    np.maximum(r, 0.0, out=r)
    xhat2 = _affine(r, w2, c2)
    kept += (xhat1, sd1, a, r) if record else ()
    del xhat1, r
    xhat2 += a
    del a
    sd2 = _normalize(xhat2, eps)
    out = np.multiply(xhat2, g2, out=spare(xhat2))
    out += b2
    kept += (xhat2, sd2) if record else ()

    def backward(g):
        q, k, v, attn, ctx, xhat1, sd1, a, r, xhat2, sd2 = kept
        qh, kh, vh = split(q), split(k), split(v)
        g_sum2, g_g2, g_b2 = _norm_grads(g, xhat2, sd2, g2)
        g_r, g_w2, g_c2 = _linear_grads(g_sum2, r, w2, _ALL)
        g_r *= r > 0.0
        g_a, g_w1, g_c1 = _linear_grads(g_r, a, w1, _ALL)
        g_a += g_sum2
        g_sum1, g_g1, g_b1 = _norm_grads(g_a, xhat1, sd1, g1)
        g_ctx, g_wo, g_bo = _linear_grads(g_sum1, ctx, wo, _ALL)
        g_ctx = split(g_ctx)
        g_attn = np.matmul(g_ctx, np.swapaxes(vh, -1, -2))
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_attn -= dot
        g_attn *= attn
        g_attn *= scale
        g_q = merge(np.matmul(g_attn, kh))
        g_k = merge(np.matmul(np.swapaxes(qh, -1, -2), g_attn)
                    .transpose(0, 1, 3, 2))
        g_v = merge(np.matmul(np.swapaxes(attn, -1, -2), g_ctx))
        want_x = _wants_grad(h)
        g_x = g_sum1 if want_x else None
        g_qkv = []
        for g_proj, w in ((g_q, wq), (g_k, wk), (g_v, wv)):
            g_in, g_w, g_b = _linear_grads(g_proj, x, w,
                                           (want_x, True, True))
            if want_x:
                g_x += g_in  # residual, then q, k, v: the chain's bits
            g_qkv += [g_w, g_b]
        grads = (g_x, *g_qkv, g_wo, g_bo, g_g1, g_b1, g_w1, g_c1, g_w2, g_c2,
                 g_g2, g_b2)
        return tuple(gr if _wants_grad(p) else None
                     for gr, p in zip(grads, parents))

    return Tensor._node(out, parents, backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row cross entropy of ``softmax(logits)`` against integer targets.

    `logits` is (N, C); `targets` is an int array of shape (N,). Returns the
    per-row loss vector (N,).
    """
    a = Tensor._coerce(logits)
    t = np.asarray(targets, dtype=np.intp)
    if a.data.ndim != 2 or t.shape != (a.data.shape[0],):
        raise ShapeMismatchError("expected logits (N, C) and targets (N,)")
    top = a.data.max(axis=1, keepdims=True)
    probs = np.exp(a.data - top)
    total = probs.sum(axis=1, keepdims=True)
    losses = (np.log(total) + top)[:, 0] - a.data[np.arange(t.size), t]
    probs /= total

    def grad(g):
        out = probs * g[:, None]
        out[np.arange(t.size), t] -= g
        return out

    return a._unary(losses, grad)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Numerically stable per-element binary cross entropy on raw logits."""
    a = Tensor._coerce(logits)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != a.data.shape:
        raise ShapeMismatchError("labels must match logits shape")
    x = a.data
    losses = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))

    return a._unary(losses, lambda g: g * (_sigmoid(x) - y))


# -- optimizers ----------------------------------------------------------

# The standard constants of both optimizers.
_BETA1, _BETA2 = 0.9, 0.999  # Adam moment decays
_RHO = 0.9  # RMSProp squared-gradient decay
_EPS = 1e-8


class _PackedOptimizer:
    """An optimizer that owns its parameters' values and gradients.

    At construction it copies the parameters into one flat float64 buffer,
    `data`, and their gradients into another, `grad`, and rebinds each
    parameter's ``data`` and ``grad`` to reshaped views of its slice, so a
    step is a few whole-buffer ufunc calls. Write into those arrays in
    place; a parameter whose ``data`` or ``grad`` is rebound makes the next
    `step` raise `DetachedParameterError`.
    """

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        if len({id(p) for p in self.params}) != len(self.params):
            raise ShapeMismatchError("a parameter is listed twice")
        for p in self.params:
            if p.grad is None or p.grad.shape != p.data.shape:
                raise ShapeMismatchError("gradient shape differs from parameter")
        size = sum(p.data.size for p in self.params)
        self.data, self.grad = np.empty(size), np.empty(size)
        self._views = []
        start = 0
        for p in self.params:
            stop = start + p.data.size
            data = self.data[start:stop].reshape(p.data.shape)
            grad = self.grad[start:stop].reshape(p.data.shape)
            data[...], grad[...] = p.data, p.grad
            p.data, p.grad = data, grad
            self._views.append((data, grad))
            start = stop
        self._tmp, self._tmp2 = np.empty(size), np.empty(size)

    def zero_grad(self):
        self.grad.fill(0.0)

    def _next_step(self) -> int:
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise DetachedParameterError(
                    f"a parameter of shape {data.shape} no longer holds its "
                    "optimizer's arrays; write into p.data and p.grad in "
                    "place")
        self.step_count += 1
        return self.step_count

    # Each step below keeps the operand order of the per-tensor form
    # (``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    # ``p - lr*m_hat / (sqrt(v_hat) + eps)``), so every bit is the same.

    def _square_average(self, acc: np.ndarray, decay: float) -> None:
        """``acc = decay*acc + (1-decay)*grad*grad``, in place."""
        tmp = np.multiply(self.grad, 1.0 - decay, out=self._tmp)
        np.multiply(tmp, self.grad, out=tmp)
        np.multiply(acc, decay, out=acc)
        np.add(acc, tmp, out=acc)

    def _descend(self, scaled: np.ndarray, square: np.ndarray) -> None:
        """``data = data - scaled / (sqrt(square) + eps)``, in place;
        overwrites `scaled`."""
        root = np.sqrt(square, out=self._tmp2)
        np.add(root, _EPS, out=root)
        np.divide(scaled, root, out=scaled)
        np.subtract(self.data, scaled, out=self.data)


class Adam(_PackedOptimizer):
    """Adam with bias-corrected moment estimates."""

    def __init__(self, params):
        super().__init__(params)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self, lr: float):
        t = self._next_step()
        tmp = np.multiply(self.grad, 1.0 - _BETA1, out=self._tmp)
        np.multiply(self.m, _BETA1, out=self.m)
        np.add(self.m, tmp, out=self.m)
        self._square_average(self.v, _BETA2)
        m_hat = np.divide(self.m, 1.0 - _BETA1**t, out=self._tmp)
        v_hat = np.divide(self.v, 1.0 - _BETA2**t, out=self._tmp2)
        self._descend(np.multiply(m_hat, lr, out=m_hat), v_hat)


class RMSProp(_PackedOptimizer):
    """RMSProp with a running average of squared gradients."""

    def __init__(self, params):
        super().__init__(params)
        self.v = np.zeros_like(self.data)

    def step(self, lr: float):
        self._next_step()
        self._square_average(self.v, _RHO)
        self._descend(np.multiply(self.grad, lr, out=self._tmp), self.v)


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


def train_best(opt, epochs: int, batches, loss_fn, lr, score, best: float,
               patience) -> list[float]:
    """Up to `epochs` rounds of ``train(opt, batches(), loss_fn, lr)``,
    each scored by ``score()``; returns the scores. Ends holding the
    parameters of the first highest-scoring round, or the starting ones
    (scored `best`) if no round beats them. The `patience`-th round in a
    row not to beat the best so far ends the run (the first, for 0);
    ``math.inf`` runs every round."""
    kept, scores, improved = opt.data.copy(), [], 0
    for epoch in range(1, epochs + 1):
        train(opt, batches(), loss_fn, lr)
        scores.append(score())
        if scores[-1] > best:
            best, improved = scores[-1], epoch
            kept[...] = opt.data
        elif epoch - improved >= patience:
            break
    opt.data[...] = kept
    return scores


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
