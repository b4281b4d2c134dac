"""Encoder behavior: tokenization, length buckets and padding invariance,
pooling, and the masked-token pretraining loop."""

import pickle

import numpy as np
import pytest

import sedkit.diffcore as dc
import sedkit.encoder as enc
from sedkit.config import PretrainSection
from sedkit.diffcore import Tensor
from sedkit.encoder import (EncoderArch, PoolingSpec, Vocabulary, batch_ids,
                            encode_batch, encode_many, init_encoder,
                            pretrain_base, tokenize)
from sedkit.errors import DataError, ShapeMismatchError

from conftest import TINY_ARCH, max_rel_err

# Wide enough for three length buckets (8, 16, 32), small enough to stay fast.
WIDE_ARCH = EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=32)


@pytest.fixture(scope="module")
def wide_model(tiny_vocab):
    return init_encoder(WIDE_ARCH, tiny_vocab, seed=0)


def words(vocab, n, start=0):
    """A sentence of `n` distinct in-vocabulary words (cycling if needed)."""
    pool = vocab.tokens[3:]
    return " ".join(pool[(start + i) % len(pool)] for i in range(n))


def test_vocab_specials_and_order():
    v = Vocabulary.build(["b a a", "c b a"])
    assert v.tokens[:3] == ["<pad>", "<unk>", "<mask>"]
    # counts: a=3, b=2, c=1; most frequent first
    assert v.tokens[3:] == ["a", "b", "c"]
    assert (v.pad_id, v.unk_id, v.mask_id) == (0, 1, 2)


def test_vocab_frequency_ties_alphabetical():
    v = Vocabulary.build(["d c", "c d", "b a"])
    # c and d both occur twice, a and b once; alphabetical inside each count
    assert v.tokens[3:] == ["c", "d", "a", "b"]


def test_vocab_rejects_duplicates():
    with pytest.raises(DataError):
        Vocabulary(["x", "x"])


def test_tokenize_unknown_and_empty():
    v = Vocabulary(["hello", "world"])
    assert tokenize("hello zzz world", v) == [3, v.unk_id, 4]
    assert tokenize("", v) == [v.unk_id]
    assert tokenize("   ", v) == [v.unk_id]


def test_tokenize_lowercases():
    v = Vocabulary(["hello"])
    assert tokenize("HeLLo", v) == [3]


def test_encoder_tokenizes_each_text_once(wide_model, monkeypatch):
    """A second `encode_batch` of the same sentences reads their ids from
    the vocabulary's memo and gives the same bits; a list `tokenize`
    returns is the caller's own; the memo is not pickled."""
    model = pickle.loads(pickle.dumps(wide_model))
    vocab = model.vocab
    assert vocab._ids == {} and vocab.tokens == wide_model.vocab.tokens
    batch = [words(vocab, n, start=n) for n in (3, 12, 25)]
    split = []
    real_split = enc.split_tokens
    monkeypatch.setattr(enc, "split_tokens",
                        lambda text: split.append(text) or real_split(text))
    with dc.no_grad():
        first = encode_batch(model, batch, PoolingSpec(1)).data
        assert split == batch
        again = encode_batch(model.clone(), batch, PoolingSpec(1)).data
    assert split == batch  # the clone shares the memo
    assert np.array_equal(first, again)
    ids = tokenize(batch[0], vocab)
    expected = list(ids)
    ids[0] = vocab.mask_id
    ids.append(vocab.unk_id)
    assert tokenize(batch[0], vocab) == expected
    assert list(vocab._token_ids(batch[0])) == expected
    assert pickle.loads(pickle.dumps(vocab))._ids == {}


def test_arch_validates_head_divisibility():
    with pytest.raises(ShapeMismatchError):
        EncoderArch(hidden=30, heads=4)


def test_pooling_spec_range():
    for k in (1, 2, 3):
        PoolingSpec(k)
    with pytest.raises(DataError):
        PoolingSpec(0)
    with pytest.raises(DataError):
        PoolingSpec(4)


def test_batch_ids_pads_to_longest_sentences_bucket(wide_model):
    """Every row is padded to the bucket (8, 16, 32, capped at max_len)
    of the batch's longest sentence, after truncation to max_len."""
    vocab, T = wide_model.vocab, wide_model.arch.max_len
    ids, mask = batch_ids(wide_model, ["w000 w001", "w000"])
    assert ids.shape == mask.shape == (2, 8)
    assert mask[0].sum() == 2 and mask[1].sum() == 1
    assert (ids[1, 1:] == vocab.pad_id).all()
    ids, mask = batch_ids(wide_model, [words(vocab, 9), "w000"])
    assert ids.shape == (2, 16)
    ids, mask = batch_ids(wide_model, ["w000", words(vocab, T + 5)])
    assert ids.shape == mask.shape == (2, T)
    assert (mask[1] == 1.0).all() and mask[0].sum() == 1


def test_bucket_len():
    assert [enc._bucket_len(n, 32) for n in (1, 8, 9, 16, 17, 32, 40)] == [
        8, 8, 16, 16, 32, 32, 32]
    assert enc._bucket_len(3, 4) == 4
    assert enc._bucket_len(20, 24) == 24


def test_truncation_keeps_first_max_len_ids(tiny_model):
    vocab, T = tiny_model.vocab, tiny_model.arch.max_len
    words = vocab.tokens[3 : 3 + T + 5]
    assert len(set(words)) == T + 5
    ids, mask = batch_ids(tiny_model, [" ".join(words), words[0]])
    assert ids[0].tolist() == [vocab.token_to_id[w] for w in words[:T]]
    assert (mask[0] == 1.0).all()
    assert mask[1].tolist() == [1.0] + [0.0] * (T - 1)


def test_padding_invariance_bitwise(tiny_model, tiny_corpus):
    """A sentence's embedding must not depend on what it is batched with.

    Each sentence is padded to the bucket of its own length and padded
    keys get a large negative attention bias, so the vectors should agree
    bit for bit.
    """
    pool = PoolingSpec(2)
    short = tiny_corpus[0]
    long = " ".join(tiny_corpus[1].split() + tiny_corpus[2].split())
    alone = encode_many(tiny_model, [short], pool)[0]
    with dc.no_grad():
        together = encode_batch(tiny_model, [short, long], pool).data[0]
    assert np.array_equal(alone, together)


def test_bucket_invariance_bitwise(wide_model):
    """With max_len 32 a short sentence keeps its embedding bit for bit
    alone, next to a max_len neighbour and inside a shuffled batch that
    spans the 8, 16 and 32 buckets; the batch comes back in input order."""
    vocab, T = wide_model.vocab, wide_model.arch.max_len
    pool = PoolingSpec(2)
    short = words(vocab, 3)
    alone = encode_many(wide_model, [short], pool)[0]
    batch = [words(vocab, n, start=n) for n in (5, 12, T, 9, T + 4, 20, 1)]
    batch.insert(3, short)
    with dc.no_grad():
        pair = encode_batch(wide_model, [words(vocab, T, 7), short], pool)
        mixed = encode_batch(wide_model, batch, pool).data
    assert {enc._bucket_len(len(tokenize(s, vocab)), T) for s in batch} == {
        8, 16, 32}
    assert np.array_equal(pair.data[1], alone)
    assert np.array_equal(mixed[3], alone)
    assert encode_batch(wide_model, [], pool).shape == (0, WIDE_ARCH.hidden)
    for row, sentence in zip(mixed, batch):
        assert np.array_equal(row,
                              encode_many(wide_model, [sentence], pool)[0])
    # padding past the bucket adds exact zeros to every reduction over T
    ids, mask = batch_ids(wide_model, [short, words(vocab, T)])
    with dc.no_grad():
        padded = enc._pool(wide_model.forward_ids(ids, mask), mask, pool.k)
    assert ids.shape[1] == T
    assert np.allclose(padded.data[0], alone, rtol=0, atol=1e-12)


def test_gradients_through_bucket_split(tiny_vocab):
    """Finite differences of a scalar loss of `encode_batch` over a batch
    split into the 8 and 16 buckets: covers the backward of the per-bucket
    `concat`, the gather that restores input order and the
    `pos_emb[:T]` slice."""
    arch = EncoderArch(layers=1, hidden=8, heads=2, ff=16, max_len=16)
    model = init_encoder(arch, tiny_vocab, seed=1)
    vocab = model.vocab
    batch = [words(vocab, 11), words(vocab, 4, 2), words(vocab, 16, 5),
             words(vocab, 7, 1)]
    weights = Tensor(np.random.default_rng(0).normal(size=(4, arch.hidden)))

    def loss():
        return (encode_batch(model, batch, PoolingSpec(2)) * weights).sum()

    names = ("pos_emb", "tok_emb", "l0.wq")
    params = [model.params[n] for n in names]
    for p in model.parameters():
        p.zero_grad()
    loss().backward()
    h = 1e-6
    for name, p in zip(names, params):
        worst = 0.0
        for idx in np.ndindex(p.data.shape):
            orig = p.data[idx]
            with dc.no_grad():
                p.data[idx] = orig + h
                f_plus = loss().item()
                p.data[idx] = orig - h
                f_minus = loss().item()
            p.data[idx] = orig
            worst = max(worst, max_rel_err(p.grad[idx],
                                           (f_plus - f_minus) / (2 * h)))
        assert worst < 1e-4, f"{name}: worst relative error {worst:.2e}"


def _grads(model, loss_fn):
    """loss_fn()'s value and a copy of every parameter gradient."""
    for p in model.parameters():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), [p.grad.copy() for p in model.parameters()]


def test_repeats_encode_once_across_buckets(tiny_vocab, monkeypatch):
    """A batch repeating sentences in the 8-, 16- and 32-slot buckets (one
    copy differs only in case, so it tokenizes alike) sends each distinct
    sentence through `forward_ids` once. Every row equals, bit for bit,
    the sentence encoded alone; the parameter gradients match one forward
    per copy (only their summation order differs) and finite
    differences."""
    model = init_encoder(EncoderArch(layers=1, hidden=8, heads=2, ff=16,
                                     max_len=32), tiny_vocab, seed=2)
    vocab, pool = model.vocab, PoolingSpec(2)
    short, mid, long = (words(vocab, 3), words(vocab, 12, 4),
                        words(vocab, 25, 9))
    batch = [mid, short, long, short.upper(), mid, long, short]
    shapes = []
    real_forward = model.forward_ids
    monkeypatch.setattr(model, "forward_ids", lambda ids, mask: (
        shapes.append(ids.shape) or real_forward(ids, mask)))
    with dc.no_grad():
        out = encode_batch(model, batch, pool).data
    assert sorted(shapes) == [(1, 8), (1, 16), (1, 32)]
    for row, sentence in zip(out, batch):
        assert np.array_equal(row, encode_many(model, [sentence], pool)[0])

    weights = np.random.default_rng(0).normal(size=(len(batch), 8))

    def loss():
        return (encode_batch(model, batch, pool) * Tensor(weights)).sum()

    def loss_per_copy():
        terms = [(encode_batch(model, [s], pool) * Tensor(w[None])).sum()
                 for s, w in zip(batch, weights)]
        return sum(terms[1:], terms[0])

    value, grads = _grads(model, loss)
    ref_value, ref_grads = _grads(model, loss_per_copy)
    assert np.isclose(value, ref_value, rtol=1e-12, atol=0)
    # atol covers the key biases, whose gradient is zero up to rounding:
    # a key bias shifts all of a query's scores alike
    for name, got, ref in zip(model.params, grads, ref_grads):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15), name

    grad_of = dict(zip(model.params, grads))
    h = 1e-6
    short_ids = list(vocab._token_ids(short))
    checks = [("l0.wq", idx) for idx in np.ndindex(8, 8)] + [
        ("tok_emb", (i, j)) for i in short_ids for j in range(8)]
    worst = 0.0
    for name, idx in checks:
        p = model.params[name]
        orig = p.data[idx]
        with dc.no_grad():
            p.data[idx] = orig + h
            f_plus = loss().item()
            p.data[idx] = orig - h
            f_minus = loss().item()
        p.data[idx] = orig
        worst = max(worst, max_rel_err(grad_of[name][idx],
                                       (f_plus - f_minus) / (2 * h)))
    assert worst < 1e-4, f"worst relative error {worst:.2e}"


def _distinct_short_sentences(vocab, count):
    """`count` distinct two-word sentences: all in the 8 bucket."""
    pool = vocab.tokens[3:]
    sents = [f"{a} {b}" for a in pool for b in pool if a != b]
    assert len(sents) >= count
    return sents[:count]


def _forward_rows(model, monkeypatch) -> list[int]:
    """The row count of every `forward_ids` call `model` makes from now."""
    rows = []
    real_forward = model.forward_ids
    monkeypatch.setattr(model, "forward_ids", lambda ids, mask: (
        rows.append(ids.shape[0]) or real_forward(ids, mask)))
    return rows


def test_encode_many_encodes_a_repeat_once_across_forwards(wide_model,
                                                            monkeypatch):
    """A sentence repeated on both sides of index 64 in a 75-sentence
    `encode_many` call runs through `forward_ids` once, though the call
    needs two forwards; every row equals the sentence encoded alone."""
    pool = PoolingSpec(2)
    batch = _distinct_short_sentences(wide_model.vocab, 74)
    batch.insert(70, batch[10])
    alone = [encode_many(wide_model, [s], pool)[0] for s in batch]
    rows = _forward_rows(wide_model, monkeypatch)
    out = encode_many(wide_model, batch, pool)
    assert sum(rows) == 74 and max(rows) <= enc._ENCODE_CHUNK
    for row, ref in zip(out, alone):
        assert np.array_equal(row, ref)


def test_grad_forwards_hold_at_most_64_rows(wide_model, monkeypatch):
    """Under grad, 75 distinct sentences of one bucket run as forwards of
    at most 64 rows, and each embedding keeps the bits it has alone."""
    pool = PoolingSpec(2)
    batch = _distinct_short_sentences(wide_model.vocab, 75)
    alone = [encode_many(wide_model, [s], pool)[0] for s in batch]
    rows = _forward_rows(wide_model, monkeypatch)
    out = encode_batch(wide_model, batch, pool)
    assert out._parents  # a graph was built
    assert sum(rows) == 75 and max(rows) <= enc._ENCODE_CHUNK
    for row, ref in zip(out.data, alone):
        assert np.array_equal(row, ref)


def _graph_nodes(t: Tensor) -> int:
    """Interior nodes of the graph that ends at `t`, each counted once."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _encode_every_row(model, sentences, pool):
    """Reference graph: one forward per bucket over every row, repeats
    included, then a concat and the gather that restores input order,
    both skipped when the batch fills one bucket."""
    toks = enc._token_lists(model, sentences)
    buckets = [enc._bucket_len(len(t), model.arch.max_len) for t in toks]
    parts, order = [], []
    for T in sorted(set(buckets)):
        rows = [i for i, b in enumerate(buckets) if b == T]
        ids, mask = enc._pad(model, [toks[i] for i in rows], T)
        parts.append(enc._pool(model.forward_ids(ids, mask), mask, pool.k))
        order.extend(rows)
    if len(parts) == 1:
        return parts[0]
    return dc.concat(parts, axis=0)[np.argsort(order)]


def test_batch_graph_gains_one_gather_only_for_repeats(wide_model):
    """Without repeats `encode_batch` builds the reference graph, with its
    bits and gradient bits. Repeats add one gather to a one-bucket batch;
    across buckets they fold into the gather that restores input order."""
    vocab, pool = wide_model.vocab, PoolingSpec(2)
    short, other, mid, long = (words(vocab, 3), words(vocab, 5, 2),
                               words(vocab, 12, 4), words(vocab, 25, 9))
    cases = [([long, short, mid, other], 0), ([short, other], 0),
             ([short, other, short], 1), ([mid, short, long, short, mid], 0)]
    weights = np.random.default_rng(1).normal(size=(5, WIDE_ARCH.hidden))
    for batch, extra in cases:
        w = Tensor(weights[: len(batch)])
        got, ref = (fn(wide_model, batch, pool)
                    for fn in (encode_batch, _encode_every_row))
        assert _graph_nodes(got) == _graph_nodes(ref) + extra, batch
        assert np.array_equal(got.data, ref.data)
        if len(set(batch)) == len(batch):
            _, got_grads = _grads(wide_model, lambda: (
                encode_batch(wide_model, batch, pool) * w).sum())
            _, ref_grads = _grads(wide_model, lambda: (
                _encode_every_row(wide_model, batch, pool) * w).sum())
            for a, b in zip(got_grads, ref_grads):
                assert np.array_equal(a, b)


def test_forward_ids_rejects_more_than_max_len(tiny_model):
    T = tiny_model.arch.max_len
    ids = np.zeros((2, T + 1), dtype=np.intp)
    with pytest.raises(ShapeMismatchError):
        tiny_model.forward_ids(ids, np.ones((2, T + 1)))


def test_batch_order_invariance_bitwise(tiny_model, tiny_corpus):
    pool = PoolingSpec(1)
    sents = list(tiny_corpus[:5])
    with dc.no_grad():
        fwd = encode_batch(tiny_model, sents, pool).data
        rev = encode_batch(tiny_model, sents[::-1], pool).data
    assert np.array_equal(fwd, rev[::-1])


def test_pooling_k2_is_mean_of_last_two_grids(tiny_model, tiny_corpus):
    """k=2 pooling averages the token-mean of the final two layer grids."""
    sents = list(tiny_corpus[:4])
    ids, mask = batch_ids(tiny_model, sents)
    with dc.no_grad():
        hiddens = tiny_model.forward_ids(ids, mask)
        counts = mask.sum(axis=1, keepdims=True)

        def token_mean(h):
            return (h.data * mask[:, :, None]).sum(axis=1) / counts

        expected = (token_mean(hiddens[-1]) + token_mean(hiddens[-2])) / 2.0
        got = encode_batch(tiny_model, sents, PoolingSpec(2)).data
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def test_pooling_k_exceeding_layers_rejected(tiny_corpus):
    arch = EncoderArch(layers=1, hidden=8, heads=2, ff=16, max_len=8)
    vocab = Vocabulary.build(tiny_corpus)
    model = init_encoder(arch, vocab, seed=0)
    # layers=1 exposes 2 grids (embedding output + 1 block), so k=2 is the cap
    encode_batch(model, tiny_corpus[:2], PoolingSpec(2))
    with pytest.raises(ShapeMismatchError):
        encode_batch(model, tiny_corpus[:2], PoolingSpec(3))


def test_init_encoder_deterministic(tiny_vocab):
    m1 = init_encoder(TINY_ARCH, tiny_vocab, seed=3)
    m2 = init_encoder(TINY_ARCH, tiny_vocab, seed=3)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)
    m3 = init_encoder(TINY_ARCH, tiny_vocab, seed=4)
    assert any(not np.array_equal(a.data, b.data)
               for a, b in zip(m1.parameters(), m3.parameters()))


def test_clone_is_deep(tiny_model):
    clone = tiny_model.clone()
    for a, b in zip(tiny_model.parameters(), clone.parameters()):
        assert np.array_equal(a.data, b.data)
        assert a is not b
    clone.parameters()[0].data += 1.0
    assert not np.array_equal(tiny_model.parameters()[0].data,
                              clone.parameters()[0].data)


def test_pretrain_deterministic(tiny_corpus):
    cfg = PretrainSection(steps=10, batch=8)
    m1 = pretrain_base(tiny_corpus, TINY_ARCH, cfg, 9)
    m2 = pretrain_base(tiny_corpus, TINY_ARCH, cfg, 9)
    for a, b in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a.data, b.data)


def test_pretrain_zero_steps_returns_init(tiny_corpus, tiny_vocab):
    cfg = PretrainSection(steps=0, batch=8)
    model = pretrain_base(tiny_corpus, TINY_ARCH, cfg, 9)
    init_seed, _ = enc._spawn_seeds(9, 2)
    fresh = init_encoder(TINY_ARCH, tiny_vocab, init_seed)
    for a, b in zip(model.parameters(), fresh.parameters()):
        assert np.array_equal(a.data, b.data)


def test_pretrain_rejects_bad_corpus():
    with pytest.raises(DataError):
        pretrain_base([], TINY_ARCH, PretrainSection(steps=1), 0)
    with pytest.raises(DataError):
        pretrain_base(["a b"], TINY_ARCH, PretrainSection(steps=1, batch=8),
                      0)


def test_pretrained_embeddings_not_collapsed(tiny_model, tiny_corpus):
    """Embeddings of distinct sentences must spread out, not collapse to a
    single point; the threshold is loose on purpose."""
    with dc.no_grad():
        embs = encode_batch(tiny_model, list(tiny_corpus[:20]),
                            PoolingSpec(1)).data
    spread = embs.std(axis=0).mean()
    assert spread > 0.01, f"embedding spread {spread:.4f}"


def test_pretrain_changes_weights(tiny_corpus):
    before = pretrain_base(tiny_corpus, TINY_ARCH,
                           PretrainSection(steps=0, batch=8), 9)
    after = pretrain_base(tiny_corpus, TINY_ARCH,
                          PretrainSection(steps=5, batch=8), 9)
    assert any(not np.array_equal(a.data, b.data)
               for a, b in zip(before.parameters(), after.parameters()))
