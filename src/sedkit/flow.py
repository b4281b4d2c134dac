"""Invertible affine coupling flow for post-hoc embedding calibration.

Each layer passes half the coordinates through unchanged and applies an
elementwise affine map y = x * exp(s) + t to the other half, where s and
t come from a small subnetwork of the pass-through half. Masks alternate
between layers so every coordinate is transformed. The scale and
translate heads are zero-initialized, so a fresh flow is exactly the
identity with zero log-determinant.

Fitting maximizes the likelihood of the embeddings under a standard
Gaussian in latent space; the encoder that produced the embeddings is
never touched. Pairs are scored by cosine in latent space by
`evalsts`'s one scorer (`predict_scores(..., flow=flow)`), which maps a
task's embeddings through `flow_forward` as one batch.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ConfigError, DataError, ShapeMismatchError

LOG_2PI = float(np.log(2.0 * np.pi))


class CouplingFlow:
    """Stack of affine coupling layers over a fixed embedding dimension."""

    def __init__(self, dim: int, n_layers: int, *, seed: int):
        if n_layers < 2:
            raise DataError("need >= 2 coupling layers so every dim transforms")
        self.dim = dim
        self.n_layers = n_layers
        self.hidden = 2 * dim  # width of each layer's subnetwork
        # every layer's first weight in one draw (the same numbers as one
        # draw per layer), so a flow too large to hold fails at once
        w1 = np.random.default_rng(seed).normal(
            0.0, 0.1, size=(n_layers, dim, self.hidden))
        self.masks: list[np.ndarray] = []
        self.params: dict[str, Tensor] = {}
        half = dim // 2
        for layer in range(n_layers):
            mask = np.zeros(dim)
            if layer % 2 == 0:
                mask[:half] = 1.0  # first half passes through
            else:
                mask[half:] = 1.0
            self.masks.append(mask)
            pre = f"f{layer}."
            self.params[pre + "w1"] = Tensor(w1[layer], requires_grad=True)
            self.params[pre + "b1"] = Tensor(np.zeros(self.hidden),
                                             requires_grad=True)
            # zero heads make the fresh flow the exact identity
            self.params[pre + "ws"] = Tensor(np.zeros((self.hidden, dim)),
                                             requires_grad=True)
            self.params[pre + "bs"] = Tensor(np.zeros(dim), requires_grad=True)
            self.params[pre + "wt"] = Tensor(np.zeros((self.hidden, dim)),
                                             requires_grad=True)
            self.params[pre + "bt"] = Tensor(np.zeros(dim), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def _subnet(self, masked_x: Tensor, layer: int) -> tuple[Tensor, Tensor]:
        p, pre = self.params, f"f{layer}."
        h = dc.linear(masked_x, p[pre + "w1"], p[pre + "b1"]).tanh()
        return (dc.linear(h, p[pre + "ws"], p[pre + "bs"]),
                dc.linear(h, p[pre + "wt"], p[pre + "bt"]))

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Latents z (B, dim) and per-example log |det J| (B,)."""
        log_det = None
        for layer in range(self.n_layers):
            keep = Tensor(self.masks[layer])
            change = Tensor(1.0 - self.masks[layer])
            kept = x * keep
            s, t = self._subnet(kept, layer)
            x = kept + (x * s.exp() + t) * change
            contrib = (s * change).sum(axis=1)
            log_det = contrib if log_det is None else log_det + contrib
        return x, log_det

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Exact algebraic inverse of `forward`; plain arrays, no graph."""
        z = np.asarray(z, dtype=np.float64)
        if not np.all(np.isfinite(z)):
            raise DataError("non-finite input to flow inverse")
        squeeze = z.ndim == 1
        x = np.atleast_2d(z)
        if x.shape[1] != self.dim:
            raise ShapeMismatchError(f"expected dimension {self.dim}")
        with dc.no_grad():
            for layer in reversed(range(self.n_layers)):
                keep = self.masks[layer]
                change = 1.0 - keep
                kept = x * keep
                s, t = self._subnet(Tensor(kept), layer)
                x = kept + (x - t.data) * np.exp(-s.data) * change
        return x[0] if squeeze else x


def flow_forward(flow: CouplingFlow, x) -> tuple[np.ndarray, np.ndarray]:
    """Latents (B, dim) and log |det J| (B,) of a (B, dim) array."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite input to flow forward")
    if x.ndim != 2 or x.shape[1] != flow.dim:
        raise ShapeMismatchError(f"expected (B, {flow.dim}) input")
    with dc.no_grad():
        z, log_det = flow.forward(Tensor(x))
    return z.data, log_det.data


def flow_nll(flow: CouplingFlow, embeddings) -> Tensor:
    """Mean negative log likelihood under a standard Gaussian latent.

    Differentiable in the flow parameters; `embeddings` is a (B, dim)
    array.
    """
    batch = np.asarray(embeddings, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise DataError("flow_nll needs a non-empty (B, dim) batch")
    if not np.all(np.isfinite(batch)):
        raise DataError("non-finite input to flow_nll")
    z, log_det = flow.forward(Tensor(batch))
    quad = z.square().sum(axis=1) * 0.5
    const = 0.5 * flow.dim * LOG_2PI
    return (quad + const - log_det).mean()


def fit_flow(embeddings, cfg, init_seed: int, seed: int) -> CouplingFlow:
    """A `[flow]` section's flow (`cfg.layers` layers over the embedding
    dimension, initialized by `init_seed`) fitted to `embeddings` by
    maximum likelihood, Adam with the section's lr, epochs and batch;
    `seed` orders batches.

    `diffcore.train_best`, scored by the negated full-data NLL, keeps
    the epoch of lowest NLL, the initial state included, so the returned
    flow's training NLL never exceeds the starting value. Zero epochs
    return the initial flow. A flow too large to allocate is a
    `ConfigError` naming its layer count and dimension.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError("expected embeddings (N, dim)")
    try:
        flow = CouplingFlow(X.shape[1], cfg.layers, seed=init_seed)
    except MemoryError:
        raise ConfigError(f"cannot allocate a flow of {cfg.layers} layers "
                          f"over dimension {X.shape[1]}") from None
    if X.shape[0] < 2 * cfg.batch:
        raise DataError(
            f"need >= {2 * cfg.batch} embeddings, got {X.shape[0]}"
        )
    if np.allclose(X, X[0]):
        warnings.warn("all embeddings identical; flow fit is degenerate")

    opt = dc.Adam(flow.parameters())
    rng = np.random.default_rng(seed)
    dc.train_best(opt, cfg.epochs,
                  lambda: dc.epoch_batches(rng, X.shape[0], cfg.batch),
                  lambda idx: flow_nll(flow, X[idx]), cfg.lr,
                  lambda: -flow_nll_value(flow, X), -flow_nll_value(flow, X),
                  np.inf)
    return flow


def flow_nll_value(flow: CouplingFlow, embeddings) -> float:
    with dc.no_grad():
        return flow_nll(flow, embeddings).item()

