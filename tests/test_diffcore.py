"""Autodiff core: gradients against central finite differences, the fused
nodes against the composed chains they stand for (the transformer block
against the op chain it replaced, kept here), optimizer single-step
oracles worked by hand, the packed optimizers against the per-tensor form
they replaced, schedule values, and the training loop with its batch
samplers."""

import contextlib
import math
import tracemalloc

import numpy as np
import pytest

import sedkit.diffcore as dc
from sedkit.diffcore import (Adam, LinearDecay, RMSProp, Tensor,
                             WarmupThenConstant, bce_with_logits, concat,
                             finite_step_count, linear,
                             softmax_cross_entropy, transformer_block)
from sedkit.errors import (DetachedParameterError, DivergenceError,
                           ShapeMismatchError)

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

    Touches matmul, `linear`, the sublayer nodes the transformer block
    is checked against, broadcasting arithmetic, the nonlinearities,
    reshape, transpose, slicing, concat, and both reductions.
    """
    a, b, w = leaves
    x = a @ w                      # (3,4) @ (4,5)
    choice = rng.integers(0, 7)
    if choice == 0:
        x = x.tanh() + b           # b is (5,), broadcasts across rows
    elif choice == 1:
        x = linear(a, w, b).tanh()
    elif choice == 2:
        x = node_relu(x) - b * 0.5
    elif choice == 3:
        x = (x + b).square() * 0.1
    elif choice == 4:
        x = node_layer_norm(x, b, b * 0.5, 1e-5)
    elif choice == 5:              # one sequence of 3 tokens, 5 heads of 1
        seq = node_attention(x.reshape(1, 3, 5), (x * b).reshape(1, 3, 5),
                             x.tanh().reshape(1, 3, 5), 5,
                             rng.normal(size=(1, 1, 1, 3)))
        x = seq.reshape(3, 5)
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


# -- fused nodes against the composed chains they stand for --------------


def _softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, one node: the chain's softmax."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor._node(out, (x,), backward)


def chain_linear(x, w, b):
    return x @ w + b


def chain_layer_norm(x, gamma, beta, eps):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = centered.square().mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def chain_attention(q, k, v, heads, key_bias):
    B, T, D = q.shape
    dh = D // heads

    def split(x):
        return x.reshape(B, T, heads, dh).transpose(0, 2, 1, 3)

    scores = ((split(q) @ split(k).transpose(0, 1, 3, 2))
              * (1.0 / np.sqrt(dh)) + Tensor(key_bias))
    ctx = _softmax(scores) @ split(v)
    return ctx.transpose(0, 2, 1, 3).reshape(B, T, D)


def chain_relu(x):
    return x * Tensor(x.data > 0.0)


# One node per sublayer, with the rules of `transformer_block`: the
# reference the block must match bit for bit. Each is checked against
# its chain above, and each is written the plain way (`mean`, `max`, new
# arrays), so the block's cheaper forms are checked too.


def node_layer_norm(x, gamma, beta, eps):
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    sd = np.sqrt(var + eps)
    xhat = centered / sd

    def backward(g):
        g_xhat = g * gamma.data
        return ((g_xhat - g_xhat.mean(axis=-1, keepdims=True)
                 - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)) / sd,
                dc._unbroadcast(g * xhat, gamma.shape),
                dc._unbroadcast(g, beta.shape))

    return Tensor._node(xhat * gamma.data + beta.data, (x, gamma, beta),
                        backward)


def node_attention(q, k, v, heads, key_bias):
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
        return (merge(np.matmul(g_scores, kh)),
                merge(np.matmul(np.swapaxes(qh, -1, -2), g_scores)
                      .transpose(0, 1, 3, 2)),
                merge(np.matmul(np.swapaxes(attn, -1, -2), g_ctx)))

    return Tensor._node(merge(np.matmul(attn, vh)), (q, k, v), backward)


def node_relu(x):
    a = x.data
    return Tensor._node(np.maximum(a, 0.0), (x,), lambda g: (g * (a > 0.0),))


def block_of(linear, layer_norm, attention, relu):
    """A function with `transformer_block`'s signature that composes the
    given sublayer ops."""
    def block(h, weights, heads, key_bias, eps):
        wq, bq, wk, bk, wv, bv, wo, bo, g1, b1, w1, c1, w2, c2, g2, b2 = weights
        ctx = attention(linear(h, wq, bq), linear(h, wk, bk),
                        linear(h, wv, bv), heads, key_bias)
        a = layer_norm(h + linear(ctx, wo, bo), g1, b1, eps)
        return layer_norm(a + linear(relu(linear(a, w1, c1)), w2, c2), g2,
                          b2, eps)

    return block


NODE_BLOCK = block_of(linear, node_layer_norm, node_attention, node_relu)
CHAIN_BLOCK = block_of(chain_linear, chain_layer_norm, chain_attention,
                       chain_relu)


def _flat(block):
    """`block` called as ``block(h, *weights, heads, key_bias, eps)``."""
    return lambda h, *rest: block(h, rest[:16], *rest[16:])


def _block_shapes(B, T, D, F):
    return [(B, T, D)] + [(D, D), (D,)] * 4 + [(D,)] * 2 + [
        (D, F), (F,), (F, D), (D,)] + [(D,)] * 2


def _padded_key_bias(B, T):
    """Rows 0 and 2 padded after 5 and T - 1 tokens; row 1 full."""
    mask = np.ones((B, T))
    mask[0, 5:] = 0.0
    mask[2, T - 1:] = 0.0
    return (1.0 - mask)[:, None, None, :] * -1e30


def _same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _grads(op, values, weights, *consts):
    """`op`'s output, and each parent's gradient of the loss
    ``(out * weights).sum()``."""
    leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = op(*leaves, *consts)
    (out * weights).sum().backward()
    return out.data, [leaf.grad for leaf in leaves]


def _assert_node_matches_chain(fused, chain, shapes, rng, *consts,
                               rederived=(), same=np.array_equal):
    """Same output bits, and the same gradient bits toward every parent
    but those whose positions are in `rederived`; those equal the chain's
    up to rounding: within 1e-12 relative, plus 1e-12 of the gradient's
    largest magnitude for an element that nearly cancels. `same` compares
    two arrays' bits."""
    values = [rng.normal(size=s) for s in shapes]
    with dc.no_grad():
        weights = rng.normal(size=fused(*map(Tensor, values), *consts).shape)
    out_f, grads_f = _grads(fused, values, weights, *consts)
    out_c, grads_c = _grads(chain, values, weights, *consts)
    assert same(out_f, out_c)
    for i, (gf, gc) in enumerate(zip(grads_f, grads_c)):
        if i in rederived:
            np.testing.assert_allclose(gf, gc, rtol=1e-12,
                                       atol=1e-12 * np.abs(gc).max())
        else:
            assert same(gf, gc), i


@pytest.mark.parametrize("T", [8, 16])
@pytest.mark.parametrize("D", [6, 8])  # at 6, 1/D and 1/sqrt(D/2) round
def test_fused_nodes_match_their_chains_bit_for_bit(T, D):
    """Forward bits always; backward bits but for `linear`'s weight
    gradient (one gemm over all rows) and the layer norm's input gradient
    (the closed form), which match up to rounding."""
    rng = np.random.default_rng(T + D)
    B, H = 3, 2
    _assert_node_matches_chain(linear, chain_linear,
                               [(B, T, D), (D, 2 * D), (2 * D,)], rng,
                               rederived=(1,))
    _assert_node_matches_chain(linear, chain_linear,
                               [(T, D), (D, 3), (3,)], rng)
    _assert_node_matches_chain(node_layer_norm, chain_layer_norm,
                               [(B, T, D), (D,), (D,)], rng, 1e-5,
                               rederived=(0,))
    _assert_node_matches_chain(node_attention, chain_attention,
                               [(B, T, D)] * 3, rng, H,
                               _padded_key_bias(B, T))
    _assert_node_matches_chain(node_relu, chain_relu, [(B, T, D)], rng)


@pytest.mark.parametrize("T", [8, 16, 32])
@pytest.mark.parametrize("D", [6, 8])
def test_block_matches_the_node_chain_bit_for_bit(T, D):
    """The block's output and its gradient toward `h` and each of its 16
    weights have the bytes of the chain of sublayer nodes, padded keys
    included: the block input's four gradients are summed residual first,
    then q, k, v, as the chain's graph sums them."""
    rng = np.random.default_rng(10 * T + D)
    B, H = 3, 2
    _assert_node_matches_chain(_flat(transformer_block), _flat(NODE_BLOCK),
                               _block_shapes(B, T, D, 2 * D), rng, H,
                               _padded_key_bias(B, T), 1e-5,
                               same=_same_bits)


@pytest.mark.parametrize("T", [8, 16, 20, 32])
@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 3])
def test_block_under_no_grad_builds_no_graph(T, heads, B):
    """A block call that joins no graph, under `no_grad` or with grad on
    and only constant parents (a frozen teacher's forward), reuses its
    own buffers: it gives the bits of the recorded node and of the chain
    of sublayer nodes, and leaves the bytes of its input and of all 16
    weights unchanged."""
    rng = np.random.default_rng(4)
    values = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in _block_shapes(B, T, 6, 12)]
    consts = (heads, _padded_key_bias(3, T)[:B], 1e-5)
    before = [v.data.tobytes() for v in values]
    recorded = transformer_block(values[0], values[1:], *consts)
    assert recorded._parents
    with dc.no_grad():
        outs = [transformer_block(values[0], values[1:], *consts)]
    frozen = [Tensor(v.data) for v in values]
    outs.append(transformer_block(frozen[0], frozen[1:], *consts))
    nodes = NODE_BLOCK(values[0], values[1:], *consts)
    assert _same_bits(recorded.data, nodes.data)
    for out in outs:
        assert out._parents == () and out._backward is None
        assert _same_bits(out.data, recorded.data)
    assert [v.data.tobytes() for v in values] == before


@pytest.mark.parametrize("frozen", [False, True])
def test_unrecorded_block_releases_its_temporaries(frozen):
    """At scoring's shape (36 rows of 32 tokens, hidden 32, 2 heads, ff
    64), a block call that joins no graph allocates at most 5 times its
    input's bytes at its peak (`tracemalloc`), under `no_grad` and with
    only constant parents. Keeping every intermediate until the call
    returns took 12.4 times."""
    rng = np.random.default_rng(6)
    B, T, D = 36, 32, 32
    values = [Tensor(rng.normal(size=s), requires_grad=not frozen)
              for s in _block_shapes(B, T, D, 2 * D)]
    args = (values[0], values[1:], 2, _padded_key_bias(3, T)[[0, 1, 2] * 12],
            1e-5)
    with contextlib.nullcontext() if frozen else dc.no_grad():
        transformer_block(*args)  # lazy set-up happens outside the count
        tracemalloc.start()
        try:
            out = transformer_block(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out._parents == ()
    assert peak <= 5 * B * T * D * 8, peak / (B * T * D * 8)


@pytest.mark.parametrize("D", [6, 8])
def test_rederived_gradients_are_accurate(D):
    """Against a long-double reference: every element of `linear`'s
    weight gradient, and of the chain's, is within the dot-product rounding
    bound ``K u / (1 - K u) * sum_k |x_k g_k|`` over its K = B * T rows;
    and the layer norm's closed-form input gradient (the block's, bit for
    bit) has, over 20 draws, at most 1.25 times the chain's total
    absolute error."""
    rng = np.random.default_rng(D)
    B, T, E = 3, 16, 2 * D
    K, u, wide = B * T, np.finfo(np.float64).eps / 2, np.longdouble
    for _ in range(5):
        values = [rng.normal(size=s) for s in [(B, T, D), (D, E), (E,)]]
        g = rng.normal(size=(B, T, E))
        x, rows = values[0].reshape(K, D), g.reshape(K, E)
        exact = x.astype(wide).T @ rows.astype(wide)
        bound = K * u / (1 - K * u) * (np.abs(x).T @ np.abs(rows))
        for op in (linear, chain_linear):
            grad_w = _grads(op, values, g)[1][1]
            assert np.all(np.abs(grad_w - exact) <= bound), op.__name__

    errors = {node_layer_norm: 0.0, chain_layer_norm: 0.0}
    for _ in range(20):
        values = [rng.normal(size=s) for s in [(B, T, D), (D,), (D,)]]
        g = rng.normal(size=(B, T, D))
        x = values[0].astype(wide)
        centered = x - x.mean(axis=-1, keepdims=True)
        sd = np.sqrt((centered * centered).mean(axis=-1, keepdims=True)
                     + wide(1e-5))
        xhat = centered / sd
        g_xhat = g.astype(wide) * values[1].astype(wide)
        exact = (g_xhat - g_xhat.mean(axis=-1, keepdims=True)
                 - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True)) / sd
        for op in errors:
            grad_x = _grads(op, values, g, 1e-5)[1][0]
            errors[op] += float(np.abs(grad_x - exact).sum())
    assert errors[node_layer_norm] <= 1.25 * errors[chain_layer_norm], errors


def _trained_regression(monkeypatch, block):
    """An encoder after three STS-regression steps through `block`. The
    12 sentences fill the 8-, 16- and 32-slot buckets, and each sits on
    both sides of the pairs, so every batch encodes repeats."""
    from sedkit.encoder import EncoderArch, Vocabulary, init_encoder
    from sedkit.evalsts import ScoredPair
    from sedkit.objectives import RegressionTargetMap, sts_regression_loss
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    sents = [" ".join(rng.choice(words, size=n)) for n in
             (3, 12, 20, 5, 9, 30, 7, 14, 2, 25, 8, 17)]
    pairs = [ScoredPair(a, b, float(g)) for a, b, g in
             zip(sents, sents[::-1], rng.integers(0, 6, size=12))]
    arch = EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=32)
    monkeypatch.setattr(dc, "transformer_block", block)
    model = init_encoder(arch, Vocabulary(words), seed=3)
    dc.train(Adam(model.parameters()), [pairs[:6], pairs[6:], pairs],
             lambda batch: sts_regression_loss(
                 model, batch, RegressionTargetMap(0.3)), 1e-2)
    return model


def test_encoder_training_matches_the_chains(monkeypatch):
    """Regression steps through the block leave every parameter within
    1e-12 of its value through the chain of primitive ops (parameters are
    of order 0.1 to 1; the two differ by about 3e-15, the rounding of the
    two re-derived gradient rules)."""
    fused = _trained_regression(monkeypatch, transformer_block)
    chained = _trained_regression(monkeypatch, CHAIN_BLOCK)
    for name, p in fused.params.items():
        np.testing.assert_allclose(p.data, chained.params[name].data,
                                   rtol=0, atol=1e-12, err_msg=name)


def test_encoder_training_through_the_block_keeps_every_bit(monkeypatch):
    """Three buckets with repeats: training through the block and through
    the chain of sublayer nodes ends with the same parameter bytes."""
    fused = _trained_regression(monkeypatch, transformer_block)
    nodes = _trained_regression(monkeypatch, NODE_BLOCK)
    for name, p in fused.params.items():
        assert _same_bits(p.data, nodes.params[name].data), name


def test_gather_and_attention_grads():
    """Finite differences through an embedding gather into the block, for
    the table, the block input and each of the block's 16 weights."""
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = rng.integers(0, 6, size=(2, 8))
    leaves = [Tensor(rng.normal(size=s), requires_grad=True)
              for s in _block_shapes(2, 8, 4, 6)]
    key_bias = _padded_key_bias(3, 8)[:2]
    weights = rng.normal(size=(2, 8, 4))

    def loss():
        out = transformer_block(leaves[0] + table[idx], leaves[1:], 2,
                                key_bias, 1e-5)
        return (out * weights).sum()

    check_grads_fd(loss, [table] + leaves)


def test_gather_accumulates_repeated_indices():
    """Indexing with an integer array or a list adds up the gradient of
    every pick, so a row picked twice gets twice the gradient."""
    t = Tensor(np.arange(3.0), requires_grad=True)
    t[np.array([0, 0, 2])].sum().backward()
    assert np.array_equal(t.grad, [2.0, 0.0, 1.0])
    rng = np.random.default_rng(11)
    table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    for key in (np.array([0, 0, 2]), [3, 1, 3, 3],
                np.array([[1, 1, 0], [2, 1, 1]])):
        weights = rng.normal(size=np.shape(key) + (3,))
        check_grads_fd(lambda key=key, weights=weights:
                       (table[key].tanh() * weights).sum(), [table])


def test_embedding_gather_grad_equals_flat_add_at():
    """The gradient of an embedding lookup by a (B, T) id grid is, bit for
    bit, ``np.add.at`` of the flattened rows into zeros."""
    rng = np.random.default_rng(5)
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    ids = rng.integers(0, 7, size=(3, 9))
    g = rng.normal(size=(3, 9, 4))
    (table[ids] * g).sum().backward()
    want = np.zeros((7, 4))
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 4))
    assert np.array_equal(table.grad, want)


@pytest.mark.parametrize("key", [
    np.array([3, 0, 3, 3, 1]),                       # repeats
    np.array([[1, 1], [4, 1]]),
    [2, 2, 0],
    (np.array([0, 4, 0]), np.array([2, 2, 2])),      # a tuple of arrays
    (np.array([1, 1]), slice(None)),
    np.array([True, False, True, True, False]),      # a boolean mask
    np.arange(15).reshape(5, 3) % 4 == 1,
    slice(1, 4), (slice(None, None, 2), 1), (Ellipsis, None, 0),
    3, (4, 2), np.int64(0)])                         # scalar indices
def test_gather_grad_equals_add_at_for_every_key(key):
    """For every kind of key, the gradient of ``t[key]`` has the bytes of
    ``np.add.at`` of the output's gradient into zeros."""
    rng = np.random.default_rng(12)
    t = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    out = t[key]
    g = rng.normal(size=out.shape)
    g.reshape(-1)[1::3] = -0.0
    (out * g).sum().backward()
    want = np.zeros((5, 3))
    np.add.at(want, key, g)
    assert _same_bits(t.grad, want)


def test_attention_ignores_padded_values():
    """A padded key's weight is exactly 0: changing the block's input at
    padded positions leaves the outputs at real tokens bit-identical, and
    a loss over real tokens gives padded positions an exactly zero
    gradient."""
    rng = np.random.default_rng(1)
    B, T, D = 3, 8, 4
    key_bias = _padded_key_bias(B, T)
    real = (key_bias[:, 0, 0, :] == 0.0)[:, :, None]
    h, *weights = (rng.normal(size=s) for s in _block_shapes(B, T, D, 8))
    weights = [Tensor(w) for w in weights]
    h_leaf = Tensor(h, requires_grad=True)
    out = transformer_block(h_leaf, weights, 2, key_bias, 1e-5)
    (out * Tensor(real)).sum().backward()
    moved = h.copy()
    moved[0, 5:] += 100.0
    moved[2, T - 1] -= 7.0
    again = transformer_block(Tensor(moved), weights, 2, key_bias, 1e-5)
    assert _same_bits(out.data[real[..., 0]], again.data[real[..., 0]])
    assert not h_leaf.grad[0, 5:].any() and not h_leaf.grad[2, T - 1].any()
    assert h_leaf.grad[1].all()


def test_constant_parents_get_no_gradient():
    """Backward returns None toward a parent that is neither trainable
    nor computed from a trainable tensor."""
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    const = Tensor(np.full((2, 1), 2.0))
    for op in (Tensor.__add__, Tensor.__sub__, Tensor.__mul__,
               Tensor.__truediv__):
        out = op(x, const)
        assert out._backward(np.ones((2, 3)))[1] is None
        out = op(const, x)
        assert out._backward(np.ones((2, 3)))[0] is None
    w = Tensor(np.ones((3, 4)), requires_grad=True)
    grads = linear(Tensor(np.ones((2, 3))), w, np.zeros(4))._backward(
        np.ones((2, 4)))
    assert grads[0] is None and grads[2] is None
    assert np.array_equal(grads[1], np.full((3, 4), 2.0))
    shapes = _block_shapes(1, 8, 4, 6)
    weights = [Tensor(np.ones(s), requires_grad=i % 2 == 0)
               for i, s in enumerate(shapes[1:])]
    out = transformer_block(Tensor(np.ones(shapes[0])), weights, 2,
                            np.zeros((1, 1, 1, 8)), 1e-5)
    grads = out._backward(np.ones(shapes[0]))
    assert [g is None for g in grads] == [True] + [False, True] * 8


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
    p.grad[...] = g
    opt.step(lr=0.1)
    p.grad[...] = g
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


def test_optimizer_rejects_a_parameter_listed_twice():
    p = Tensor(np.zeros(2), requires_grad=True)
    for opt in (Adam, RMSProp):
        with pytest.raises(ShapeMismatchError, match="listed twice"):
            opt([p, p])


class PerTensorAdam:
    """The reference: Adam one tensor at a time, each moment and update a
    new array, in the expressions the packed `Adam` must reproduce."""

    def __init__(self, params):
        self.params = list(params)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self, lr):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = 0.9 * self.m[i] + (1.0 - 0.9) * g
            self.v[i] = 0.999 * self.v[i] + (1.0 - 0.999) * g * g
            m_hat = self.m[i] / (1.0 - 0.9**t)
            v_hat = self.v[i] / (1.0 - 0.999**t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class PerTensorRMSProp(PerTensorAdam):
    """The reference RMSProp, one tensor at a time."""

    def step(self, lr):
        self.step_count += 1
        for i, p in enumerate(self.params):
            g = p.grad
            self.v[i] = 0.9 * self.v[i] + (1.0 - 0.9) * g * g
            p.data = p.data - lr * g / (np.sqrt(self.v[i]) + 1e-8)


def _trained(optimizer, kind):
    """An optimizer and the models it trained for five steps: Adam on
    one model's STS regression, or RMSProp on two models' contrastive
    loss, as `train_ct` builds it."""
    from sedkit.encoder import EncoderArch, Vocabulary, init_encoder
    from sedkit.evalsts import ScoredPair
    from sedkit.objectives import (RegressionTargetMap, ct_loss,
                                   sample_ct_batches, sts_regression_loss)
    rng = np.random.default_rng(1)
    words = [f"w{i}" for i in range(12)]
    sents = [" ".join(rng.choice(words, size=n)) for n in
             (3, 12, 5, 9, 7, 14, 2, 8)]
    base = init_encoder(EncoderArch(layers=2, hidden=8, heads=2, ff=16,
                                    max_len=16), Vocabulary(words), seed=3)
    if kind == "adam":
        models = [base]
        pairs = [ScoredPair(a, b, float(g)) for a, b, g in
                 zip(sents, sents[::-1], rng.integers(0, 6, size=8))]
        batches = [pairs[i:i + 3] for i in range(5)]
        opt = optimizer(base.parameters())
        dc.train(opt, batches, lambda batch: sts_regression_loss(
            base, batch, RegressionTargetMap(0.3)), 1e-2)
    else:
        models = [base.clone(), base.clone()]
        batches = sample_ct_batches(sents, 3, 8, seed=5)
        opt = optimizer(models[0].parameters() + models[1].parameters())
        dc.train(opt, (next(batches) for _ in range(5)),
                 lambda batch: ct_loss(*models, batch),
                 LinearDecay(1e-2, 1e-3, 5).lr)
    return opt, models


@pytest.mark.parametrize("kind, packed, reference", [
    ("adam", Adam, PerTensorAdam), ("rmsprop", RMSProp, PerTensorRMSProp)])
def test_packed_optimizer_keeps_views_and_bits(kind, packed, reference):
    opt, models = _trained(packed, kind)
    _, expected = _trained(reference, kind)
    params = [p for m in models for p in m.parameters()]
    assert params == opt.params and opt.step_count == 5
    for p in params:
        assert np.shares_memory(p.data, opt.data)
        assert np.shares_memory(p.grad, opt.grad)
        assert p.data.shape == p.grad.shape
    for model, ref in zip(models, expected):
        for name, p in model.params.items():
            assert p.data.shape == ref.params[name].data.shape
            assert np.array_equal(p.data, ref.params[name].data), name
    # a rebound gradient or value is an error, not a silently lost update
    p = params[-1]
    view = p.grad
    p.grad = view.copy()
    with pytest.raises(DetachedParameterError):
        opt.step(1e-2)
    p.grad = view
    p.data = p.data.copy()
    with pytest.raises(DetachedParameterError):
        opt.step(1e-2)
    assert opt.step_count == 5


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
    assert finite_step_count(5, 8, epochs=1) == 1


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


def scripted_best(script, best, patience):
    """`train_best` on a quadratic for len(script) rounds, round i scored
    script[i]; returns the scores, the parameters after each round, the
    starting parameters and the parameters it ends holding."""
    p = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    start, after = p.data.copy(), []

    def score():
        after.append(p.data.copy())
        return script[len(after) - 1]

    scores = dc.train_best(Adam([p]), len(script),
                           lambda: [np.array([0.0])] * 2, quadratic(p), 0.1,
                           score, best, patience)
    assert len(after) == len(scores)
    return scores, after, start, p.data


@pytest.mark.parametrize("patience, rounds", [(0, 3), (1, 3), (2, 4),
                                              (math.inf, 6)])
def test_train_best_keeps_the_best_round_and_stops_on_patience(patience,
                                                               rounds):
    """Round 2 scores highest until round 6; a patience of 0 stops at the
    first round that fails to beat the best, as 1 does, and math.inf runs
    every round and ends on round 6's parameters."""
    script = [1.0, 3.0, 2.0, 3.0, 0.0, 4.0]
    scores, after, _, held = scripted_best(script, -math.inf, patience)
    assert scores == script[:rounds]
    assert np.array_equal(held, after[5] if rounds == 6 else after[1])
    if rounds < 6:  # the best round is not the last one run
        assert not np.array_equal(held, after[-1])


def test_train_best_keeps_the_start_when_no_round_beats_it():
    scores, after, start, held = scripted_best([1.0, 2.0, 2.0], 2.0,
                                               math.inf)
    assert scores == [1.0, 2.0, 2.0]
    assert not np.array_equal(after[-1], start)
    assert np.array_equal(held, start)
    _, _, start, held = scripted_best([5.0], 6.0, 0)
    assert np.array_equal(held, start)


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
