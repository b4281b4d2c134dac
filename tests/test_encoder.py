"""Encoder behavior: tokenization, padding invariance, pooling, and the
masked-token pretraining loop."""

import numpy as np
import pytest

import sedkit.diffcore as dc
import sedkit.encoder as enc
from sedkit.config import PretrainSection
from sedkit.encoder import (EncoderArch, PoolingSpec, Vocabulary, batch_ids,
                            encode, encode_batch, init_encoder, pretrain_base,
                            tokenize)
from sedkit.errors import DataError, ShapeMismatchError

from conftest import TINY_ARCH


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


def test_vocab_min_count():
    v = Vocabulary.build(["a a b", "a c"], min_count=2)
    assert v.tokens[3:] == ["a"]


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


def test_batch_ids_pads_to_max_len(tiny_model):
    ids, mask = batch_ids(tiny_model, ["w000 w001", "w000"])
    T = tiny_model.arch.max_len
    assert ids.shape == (2, T)
    assert mask.shape == (2, T)
    assert mask[0].sum() == 2 and mask[1].sum() == 1
    assert (ids[1, 1:] == tiny_model.vocab.pad_id).all()


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

    Everything is padded to max_len and padded keys get a large negative
    attention bias, so the vectors should agree bit for bit.
    """
    pool = PoolingSpec(2)
    short = tiny_corpus[0]
    long = " ".join(tiny_corpus[1].split() + tiny_corpus[2].split())
    alone = encode(tiny_model, short, pool)
    with dc.no_grad():
        together = encode_batch(tiny_model, [short, long], pool).data[0]
    assert np.array_equal(alone, together)


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


def test_encode_returns_detached_vector(tiny_model):
    v = encode(tiny_model, "w000 w001", PoolingSpec(1))
    assert isinstance(v, np.ndarray)
    assert v.shape == (tiny_model.arch.hidden,)
    assert v.dtype == np.float64


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
    model = pretrain_base(tiny_corpus, TINY_ARCH, cfg, 9, vocab=tiny_vocab)
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


def test_pretrain_changes_weights(tiny_corpus, tiny_vocab):
    before = pretrain_base(tiny_corpus, TINY_ARCH,
                           PretrainSection(steps=0, batch=8), 9,
                           vocab=tiny_vocab)
    after = pretrain_base(tiny_corpus, TINY_ARCH,
                          PretrainSection(steps=5, batch=8), 9,
                          vocab=tiny_vocab)
    assert any(not np.array_equal(a.data, b.data)
               for a, b in zip(before.parameters(), after.parameters()))
