"""Autodiff core: gradients against central finite differences, optimizer
single-step oracles worked by hand, schedule values, and the training
loop with its batch samplers."""

import math

import numpy as np
import pytest

import sedkit.diffcore as dc
from sedkit.diffcore import (Adam, LinearDecay, RMSProp, Tensor,
                             WarmupThenConstant, bce_with_logits, concat,
                             finite_step_count, softmax,
                             softmax_cross_entropy, take_rows)
from sedkit.errors import DivergenceError, ShapeMismatchError

FD_H = 1e-6
TOL = 1e-4
FLOOR = 1e-3


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), FLOOR)


def check_grads_fd(build_loss, leaves, h: float = FD_H):
    """Compare every coordinate of every leaf gradient against a central
    finite difference of the scalar loss."""
    for leaf in leaves:
        leaf.zero_grad()
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        grad = leaf.grad.copy()
        flat = leaf.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = build_loss().item()
            flat[k] = orig - h
            down = build_loss().item()
            flat[k] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(grad.reshape(-1)[k], fd))
    assert worst < TOL, f"worst relative gradient error {worst:.3e}"


# -- a pool of composable pieces for randomized graphs --------------------

def _random_graph_loss(rng, leaves):
    """Build a scalar loss from a random composition of supported ops.

    Touches matmul, broadcasting arithmetic, the nonlinearities, reshape,
    transpose, slicing, concat, and both reductions.
    """
    a, b, w = leaves
    x = a @ w                      # (3,4) @ (4,5)
    choice = rng.integers(0, 5)
    if choice == 0:
        x = x.tanh() + b           # b is (5,), broadcasts across rows
    elif choice == 1:
        x = softmax(x * b, axis=-1)
    elif choice == 2:
        x = x.relu() - b * 0.5
    elif choice == 3:
        x = (x + b).square() * 0.1
    else:
        x = x / (b.square() + 1.5)
    if rng.integers(0, 2):
        x = x.transpose(1, 0).reshape(5, 3)
    if rng.integers(0, 2):
        x = concat([x, x * 0.5], axis=-1)
    if rng.integers(0, 2):
        x = x[1:, :]
    x = (x.square() + 1.0).sqrt() if rng.integers(0, 2) else x.exp() * 0.05
    return x.mean() if rng.integers(0, 2) else x.sum() * 0.01


def test_random_compositions_match_finite_differences():
    # 100 random graphs, every coordinate of every leaf checked.
    rng = np.random.default_rng(7)
    for trial in range(100):
        a = Tensor(rng.normal(0.0, 0.7, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(0.0, 0.4, size=(5,)), requires_grad=True)
        w = Tensor(rng.normal(0.0, 0.6, size=(4, 5)), requires_grad=True)
        check_grads_fd(lambda: _random_graph_loss(np.random.default_rng(trial), (a, b, w)),
                       (a, b, w))


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    # d/dx (x^2 + 3x) = 2x + 3 = 7
    assert np.allclose(x.grad, [7.0])


def test_unbroadcast_row_and_scalar():
    row = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    mat = Tensor(np.ones((4, 3)), requires_grad=True)
    (mat * row).sum().backward()
    assert np.array_equal(row.grad, np.full(3, 4.0))
    s = Tensor(np.array(2.0), requires_grad=True)
    mat.zero_grad()
    (mat * s).sum().backward()
    assert s.grad.shape == ()
    assert float(s.grad) == 12.0


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        (x * 2.0).backward()


def test_no_grad_suppresses_graph():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with dc.no_grad():
        y = (x * 3.0).sum()
    assert y._parents == ()
    # leaf grad untouched by a later backward on a separate graph
    z = (x * 2.0).sum()
    z.backward()
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_take_rows_and_softmax_grads():
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = np.array([0, 2, 2, 5])

    def loss():
        rows = take_rows(table, idx)
        return (softmax(rows, axis=-1) * rng_weights).sum()

    rng_weights = rng.normal(size=(4, 4))
    check_grads_fd(loss, [table])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(5, 7)))
    s = softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s > 0).all()


def test_softmax_cross_entropy_uniform_logits():
    # all-zero logits over 3 classes: loss is ln 3 regardless of target
    logits = Tensor(np.zeros((4, 3)), requires_grad=True)
    targets = np.array([0, 1, 2, 1])
    losses = softmax_cross_entropy(logits, targets)
    assert losses.shape == (4,)
    assert np.allclose(losses.data, math.log(3.0), rtol=0, atol=1e-12)


def test_softmax_cross_entropy_fd():
    rng = np.random.default_rng(9)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    targets = rng.integers(0, 4, size=5)
    check_grads_fd(lambda: softmax_cross_entropy(logits, targets).mean(), [logits])


def test_bce_hand_values():
    # logit 0, label 1: -log sigmoid(0) = ln 2
    assert abs(bce_with_logits(Tensor(np.zeros(1)), np.ones(1)).item()
               - math.log(2.0)) < 1e-12
    # saturated correct predictions cost almost nothing
    assert bce_with_logits(Tensor(np.full(1, 30.0)), np.ones(1)).item() < 1e-12
    assert bce_with_logits(Tensor(np.full(1, -30.0)), np.zeros(1)).item() < 1e-12
    # saturated wrong prediction costs about |logit|
    wrong = bce_with_logits(Tensor(np.full(1, -30.0)), np.ones(1)).item()
    assert abs(wrong - 30.0) < 1e-9


def test_bce_stable_at_large_logits():
    big = Tensor(np.array([500.0, -500.0]), requires_grad=True)
    loss = bce_with_logits(big, np.array([0.0, 1.0])).mean()
    assert np.isfinite(loss.item())
    loss.backward()
    assert np.all(np.isfinite(big.grad))


def test_bce_fd():
    rng = np.random.default_rng(2)
    logits = Tensor(rng.normal(scale=2.0, size=8), requires_grad=True)
    labels = rng.integers(0, 2, size=8).astype(float)
    check_grads_fd(lambda: bce_with_logits(logits, labels).mean(), [logits])


def test_matmul_batched_fd():
    rng = np.random.default_rng(4)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
    check_grads_fd(lambda: ((a @ b).tanh()).mean(), (a, b))


def test_mean_with_axis_fd():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    check_grads_fd(lambda: x.mean(axis=0).square().sum(), [x])
    check_grads_fd(lambda: x.sum(axis=1, keepdims=True).tanh().mean(), [x])


# -- optimizers -----------------------------------------------------------

def test_adam_first_step_oracle():
    # after one step: m_hat = g, v_hat = g*g, so the update is
    # lr * g / (|g| + eps), independent of the magnitude of g.
    g = np.array([0.5, -2.0, 1e-3])
    p = Tensor(np.zeros(3), requires_grad=True)
    p.grad = g.copy()
    Adam([p]).step(lr=0.1)
    expected = -0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, rtol=0, atol=1e-15)


def test_adam_second_step_oracle():
    # two steps with the same gradient, worked by hand
    g = np.array([1.0])
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = Adam([p])
    p.grad = g.copy()
    opt.step(lr=0.1)
    p.grad = g.copy()
    opt.step(lr=0.1)
    m2 = 0.9 * 0.1 + 0.1 * 1.0           # raw first moment after 2 steps
    v2 = 0.999 * 0.001 + 0.001 * 1.0
    m_hat = m2 / (1.0 - 0.9**2)
    v_hat = v2 / (1.0 - 0.999**2)
    step1 = 0.1 * 1.0 / (1.0 + 1e-8)
    expected = -step1 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15


def test_rmsprop_first_step_oracle():
    g = np.array([2.0, -0.25])
    p = Tensor(np.zeros(2), requires_grad=True)
    p.grad = g.copy()
    RMSProp([p]).step(lr=0.05)
    v = 0.1 * g * g
    expected = -0.05 * g / (np.sqrt(v) + 1e-8)
    assert np.allclose(p.data, expected, rtol=0, atol=1e-15)


def test_optimizer_rejects_mismatched_grad():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    p.grad = np.zeros(3)
    with pytest.raises(ShapeMismatchError):
        Adam([p]).step(lr=0.1)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([p])
    for _ in range(400):
        opt.zero_grad()
        loss = (p - Tensor(np.array([1.0, 2.0]))).square().sum()
        loss.backward()
        opt.step(lr=0.05)
    assert np.allclose(p.data, [1.0, 2.0], atol=1e-2)


# -- schedules ------------------------------------------------------------

def test_warmup_then_constant_values():
    sched = WarmupThenConstant(peak_lr=2e-5, total_steps=1000,
                               warmup_fraction=0.1)
    assert sched.lr(0) == 0.0
    assert abs(sched.lr(50) - 1e-5) < 1e-20
    assert sched.lr(100) == 2e-5
    assert sched.lr(999) == 2e-5
    # zero warmup degenerates to a constant schedule
    flat = WarmupThenConstant(peak_lr=3e-4, total_steps=10,
                              warmup_fraction=0.0)
    assert flat.lr(0) == 3e-4


def test_linear_decay_values():
    sched = LinearDecay(start_lr=1e-5, end_lr=2e-6, total_steps=50000)
    assert sched.lr(0) == 1e-5
    assert abs(sched.lr(25000) - 6e-6) < 1e-20
    assert sched.lr(50000) == 2e-6
    assert sched.lr(123456) == 2e-6


def test_finite_step_count():
    assert finite_step_count(180, 32, epochs=1) == 6
    assert finite_step_count(180, 32, epochs=30) == 180
    assert finite_step_count(5, 8) == 1


def test_gradients_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        ((x @ w).tanh().mean()).backward()
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


# -- training loop and samplers -------------------------------------------

def quadratic(p):
    """Loss of one batch of targets: squared distance of `p` to their mean."""
    return lambda batch: (p - Tensor(np.mean(batch))).square().sum()


def test_train_calls_continue_the_schedule():
    seen = []

    def lr(step):
        seen.append(step)
        return 0.1 / (1 + step)

    batches = [np.array([float(i)]) for i in range(5)]
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    opt = Adam([p])
    dc.train(opt, batches[:2], quadratic(p), lr)
    dc.train(opt, batches[2:], quadratic(p), lr)
    assert seen == [0, 1, 2, 3, 4]
    assert opt.step_count == 5
    # the same as one call over all batches
    q = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    dc.train(Adam([q]), batches, quadratic(q), lambda step: 0.1 / (1 + step))
    assert np.array_equal(p.data, q.data)


def test_train_constant_lr_matches_hand_loop():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    batches = [np.array([1.0]), np.array([-1.0, 0.5])]
    dc.train(RMSProp([p]), batches, quadratic(p), 0.05)
    opt = RMSProp([q])
    for batch in batches:
        loss = quadratic(q)(batch)
        opt.zero_grad()
        loss.backward()
        opt.step(0.05)
    assert np.array_equal(p.data, q.data)


def test_train_empty_stream_leaves_parameters():
    p = Tensor(np.array([1.5, 2.5]), requires_grad=True)
    opt = Adam([p])
    dc.train(opt, iter(()), lambda batch: pytest.fail("loss called"), 0.1)
    dc.train(opt, dc.epoch_batches(np.random.default_rng(0), 4, 2, epochs=0),
             quadratic(p), 0.1)
    assert opt.step_count == 0
    assert np.array_equal(p.data, [1.5, 2.5])


def test_train_raises_divergence_naming_the_step():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([p])
    batches = [np.array([0.0]), np.array([np.nan]), np.array([0.0])]
    with pytest.raises(DivergenceError, match="nan at step 2"):
        dc.train(opt, batches, quadratic(p), 0.1)
    # the diverged step was not taken
    assert opt.step_count == 1
    assert np.all(np.isfinite(p.data))
    with pytest.raises(DivergenceError, match="inf"):
        dc.train(opt, [np.array([np.inf])], quadratic(p), 0.1)
    assert issubclass(DivergenceError, ValueError)


def test_epoch_batches_cover_each_index_once_per_epoch():
    batches = list(dc.epoch_batches(np.random.default_rng(3), 10, 4,
                                    epochs=3))
    assert [len(b) for b in batches] == [4, 4, 2] * 3
    epochs = [np.concatenate(batches[i : i + 3]) for i in (0, 3, 6)]
    for order in epochs:
        assert sorted(order.tolist()) == list(range(10))
    assert not np.array_equal(epochs[0], epochs[1])  # fresh permutation
    # default: one epoch
    assert len(list(dc.epoch_batches(np.random.default_rng(3), 10, 4))) == 3


def test_sample_batches_clips_to_n():
    batches = list(dc.sample_batches(np.random.default_rng(1), 3, 5,
                                     steps=4))
    assert len(batches) == 4
    for b in batches:
        assert sorted(b.tolist()) == [0, 1, 2]
    small = list(dc.sample_batches(np.random.default_rng(1), 10, 4, steps=2))
    for b in small:
        assert len(b) == 4 and len(set(b.tolist())) == 4
        assert all(0 <= i < 10 for i in b)


def test_samplers_draw_lazily():
    """Each batch is drawn when the loop asks for it, so draws made by the
    loss in between land in the same stream order as a hand loop."""
    rng = np.random.default_rng(5)
    gen = dc.sample_batches(rng, 10, 3, steps=2)
    before = rng.bit_generator.state
    first = next(gen)
    assert rng.bit_generator.state != before
    hand = np.random.default_rng(5)
    assert np.array_equal(first, hand.choice(10, size=3, replace=False))
    rng.random()
    hand.random()
    assert np.array_equal(next(gen), hand.choice(10, size=3, replace=False))
