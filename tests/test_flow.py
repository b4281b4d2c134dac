"""Coupling flow: identity at init, exact invertibility, log-determinant
against a brute-force Jacobian, density normalization by quadrature, and
the keep-best fitting guarantee."""

import math

import numpy as np
import pytest

from sedkit.diffcore import Tensor
from sedkit.errors import DataError, ShapeMismatchError
from sedkit.config import FlowSection
from sedkit.flow import (CouplingFlow, fit_flow, flow_forward, flow_nll,
                         flow_nll_value)


def perturbed_flow(dim, n_layers=4, seed=0, scale=0.3):
    """A flow pushed away from the identity so tests exercise real maps."""
    flow = CouplingFlow(dim, n_layers=n_layers, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for name, p in flow.params.items():
        p.data = p.data + rng.normal(0.0, scale, size=p.data.shape)
    return flow


def test_fresh_flow_is_identity():
    flow = CouplingFlow(dim=6, n_layers=4, seed=0)
    x = np.random.default_rng(0).normal(size=(5, 6))
    z, log_det = flow_forward(flow, x)
    assert np.array_equal(z, x)
    assert np.array_equal(log_det, np.zeros(5))


def forward_one(flow, x):
    """Latent and log |det J| of one (dim,) vector."""
    z, log_det = flow_forward(flow, x[None])
    return z[0], log_det[0]


def test_single_vector_interface():
    # flow_forward takes batches only; the inverse also takes one vector
    flow = perturbed_flow(4)
    v = np.array([0.3, -1.2, 0.5, 2.0])
    with pytest.raises(ShapeMismatchError):
        flow_forward(flow, v)
    z, ld = forward_one(flow, v)
    assert z.shape == (4,)
    back = flow.inverse(z)
    assert back.shape == (4,)
    assert np.allclose(back, v, atol=1e-12)


@pytest.mark.parametrize("dim,n_layers,scale",
                         [(4, 2, 0.3), (4, 8, 0.3), (8, 3, 0.3), (32, 4, 0.1)])
def test_round_trip(dim, n_layers, scale):
    # wide layers get a gentler perturbation: random scale heads summing
    # over many hidden units produce exp() factors far beyond anything a
    # fitted flow reaches, which amplifies float error unrealistically
    flow = perturbed_flow(dim, n_layers=n_layers, seed=dim + n_layers,
                          scale=scale)
    x = np.random.default_rng(1).normal(size=(16, dim))
    z, _ = flow_forward(flow, x)
    back = flow.inverse(z)
    assert np.max(np.abs(back - x)) < 1e-9


def test_forward_of_inverse_round_trip():
    flow = perturbed_flow(6, seed=2)
    z = np.random.default_rng(2).normal(size=(8, 6))
    x = flow.inverse(z)
    z2, _ = flow_forward(flow, x)
    assert np.max(np.abs(z2 - z)) < 1e-9


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_log_det_matches_numerical_jacobian(dim):
    flow = perturbed_flow(dim, n_layers=3, seed=dim)
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(3):
        x = rng.normal(size=dim)
        _, ld = forward_one(flow, x)
        J = np.empty((dim, dim))
        for j in range(dim):
            up = x.copy(); up[j] += h
            down = x.copy(); down[j] -= h
            J[:, j] = (forward_one(flow, up)[0]
                       - forward_one(flow, down)[0]) / (2.0 * h)
        _, ref = np.linalg.slogdet(J)
        assert abs(ld - ref) < 1e-5


def test_log_det_constructed_value():
    """With zero hidden weights the scale head reduces to its bias, so a
    bias of 1 on a layer contributes exactly (dim/2) to log |det J|."""
    flow = CouplingFlow(dim=4, n_layers=2, seed=0)
    for name, p in flow.params.items():
        p.data[...] = 0.0
    flow.params["f0.bs"].data[...] = 1.0  # s = 1 on the 2 transformed dims
    x = np.array([0.5, -1.0, 2.0, 0.25])
    z, ld = forward_one(flow, x)
    assert abs(ld - 2.0) < 1e-15
    # layer 0 keeps dims 0-1 and scales dims 2-3 by e; layer 1 is identity
    expected = np.array([0.5, -1.0, 2.0 * math.e, 0.25 * math.e])
    assert np.allclose(z, expected, rtol=0, atol=1e-12)


def test_nll_of_identity_flow_is_gaussian_formula():
    flow = CouplingFlow(dim=3, n_layers=2, seed=0)
    x = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    nll = flow_nll_value(flow, x)
    per_row = 0.5 * (x ** 2).sum(axis=1) + 1.5 * math.log(2 * math.pi)
    assert abs(nll - per_row.mean()) < 1e-12


def test_density_integrates_to_one_2d():
    """Grid quadrature of the model density over a 2-d box. The flow is a
    diffeomorphism, so integral of N(z(x)) |det J(x)| dx must be 1."""
    flow = perturbed_flow(2, n_layers=2, seed=3, scale=0.2)
    lim, n = 8.0, 201
    xs = np.linspace(-lim, lim, n)
    step = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    z, ld = flow_forward(flow, pts)
    log_p = -0.5 * (z ** 2).sum(axis=1) - math.log(2 * math.pi) + ld
    total = np.exp(log_p).sum() * step * step
    assert abs(total - 1.0) < 1e-2, f"density integrates to {total:.5f}"


def test_nll_gradient_flows():
    flow = perturbed_flow(4, seed=7)
    x = np.random.default_rng(7).normal(size=(6, 4))
    loss = flow_nll(flow, x)
    loss.backward()
    assert any(np.max(np.abs(p.grad)) > 0 for p in flow.parameters())


def test_fit_reduces_nll_on_shifted_data():
    rng = np.random.default_rng(11)
    X = rng.normal(loc=5.0, scale=1.0, size=(256, 8))
    before = flow_nll_value(CouplingFlow(dim=8, n_layers=4, seed=0), X)
    flow = fit_flow(X, FlowSection(layers=4, lr=5e-3, epochs=40, batch=64),
                    0, 0)
    after = flow_nll_value(flow, X)
    assert after < before - 1.0, f"{before:.3f} -> {after:.3f}"


def test_fit_never_worse_than_initial():
    # an absurd learning rate would blow the fit up; keep-best must return
    # a state no worse than the identity start
    rng = np.random.default_rng(13)
    X = rng.normal(size=(128, 4))
    before = flow_nll_value(CouplingFlow(dim=4, n_layers=2, seed=0), X)
    flow = fit_flow(X, FlowSection(layers=2, lr=5.0, epochs=3, batch=32),
                    0, 0)
    assert flow_nll_value(flow, X) <= before + 1e-12


def test_fit_zero_epochs_unchanged():
    # the section is the one source of the layer count, the init seed the
    # one source of the initial weights
    X = np.random.default_rng(17).normal(size=(128, 4))
    for layers in (2, 3):
        flow = fit_flow(X, FlowSection(layers=layers, epochs=0, batch=32),
                        5, 0)
        fresh = CouplingFlow(4, layers, seed=5)
        assert flow.n_layers == layers
        assert list(flow.params) == list(fresh.params)
        for p, q in zip(flow.parameters(), fresh.parameters()):
            assert np.array_equal(p.data, q.data)


def test_fit_builds_the_sections_layer_count():
    X = np.random.default_rng(18).normal(size=(128, 4))
    for layers in (2, 3):
        flow = fit_flow(X, FlowSection(layers=layers, epochs=1, batch=32),
                        0, 0)
        assert flow.n_layers == len(flow.masks) == layers


def test_fit_does_not_mutate_embeddings():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(130, 4))
    before = X.copy()
    fit_flow(X, FlowSection(layers=2, epochs=2, batch=32), 0, 0)
    assert np.array_equal(X, before)


def test_fit_preconditions():
    cfg = FlowSection(layers=2, batch=32)
    with pytest.raises(DataError):
        fit_flow(np.zeros((10, 4)) + np.arange(4), cfg, 0, 0)  # 10 < 2 * 32
    with pytest.raises(ShapeMismatchError):
        fit_flow(np.zeros(100), cfg, 0, 0)
    with pytest.warns(UserWarning, match="identical"):
        fit_flow(np.ones((64, 4)), cfg, 0, 0)


def test_flow_score_metrics():
    from sedkit.evalsts import ScoredPair, StsTask, score_pairs

    flow = perturbed_flow(4, seed=21)
    e1 = np.array([1.0, 0.2, -0.3, 0.4])
    e2 = np.array([0.9, 0.1, -0.2, 0.5])
    embs = {"a": e1, "b": e2}
    task = StsTask("latent", (ScoredPair("a", "b", 1.0),
                              ScoredPair("a", "a", 2.0)))

    def latent(sentences):  # the flow path of predict_scores, sans encoder
        return flow_forward(flow, np.stack([embs[s] for s in sentences]))[0]

    c, _ = score_pairs(latent, task)
    assert -1.0 <= c <= 1.0
    z1, z2 = flow_forward(flow, np.stack([e1, e2]))[0]
    ref = z1 @ z2 / (np.linalg.norm(z1) * np.linalg.norm(z2))
    assert abs(c - ref) < 1e-14


def test_flow_constructor_guards():
    with pytest.raises(DataError):
        CouplingFlow(dim=4, n_layers=1, seed=0)


def test_forward_rejects_bad_input():
    flow = CouplingFlow(4, 2, seed=0)
    with pytest.raises(DataError):
        flow_forward(flow, np.array([[1.0, np.nan, 0.0, 0.0]]))
    with pytest.raises(ShapeMismatchError):
        flow_forward(flow, np.zeros((1, 5)))
    with pytest.raises(ShapeMismatchError):
        flow_forward(flow, np.zeros(4))
    with pytest.raises(DataError):
        flow.inverse(np.array([np.inf, 0.0, 0.0, 0.0]))

