"""Training objectives: hand-worked loss values, detachment of distillation
targets, contrastive batch structure, and the regression target map."""

import math

import numpy as np
import pytest

import sedkit.diffcore as dc
import sedkit.encoder as enc
from sedkit.diffcore import Tensor
from sedkit.encoder import (EncoderArch, PoolingSpec, encode_batch,
                            init_encoder, tokenize)
from sedkit.errors import ConfigError, DataError, ShapeMismatchError
from sedkit.objectives import (CtPair, EnsembleSpec, LabeledNliPair,
                               NliHead, RegressionTargetMap, cosine_tensor,
                               ct_loss, ensemble_mean_embeddings,
                               nli_siamese_loss,
                               sample_ct_batches, sed_loss,
                               sts_regression_loss)
from sedkit.evalsts import ScoredPair, StsTask

from conftest import TINY_ARCH

POOL = PoolingSpec(1)


# -- pair containers ------------------------------------------------------

def test_ct_pair_label_validation():
    CtPair("a", "a", 1)
    CtPair("a", "b", 0)
    with pytest.raises(DataError):
        CtPair("a", "b", 1)  # label 1 must repeat the sentence
    with pytest.raises(DataError):
        CtPair("a", "a", 2)


def test_nli_pair_label_validation():
    LabeledNliPair("p", "h", "entailment")
    with pytest.raises(DataError):
        LabeledNliPair("p", "h", "maybe")


# -- distillation ---------------------------------------------------------

def test_sed_loss_zero_iff_equal(rng):
    target = rng.normal(size=(4, 8))
    assert sed_loss(target, Tensor(target.copy())).item() == 0.0
    bumped = target.copy()
    bumped[2, 3] += 1e-9
    assert sed_loss(target, Tensor(bumped)).item() > 0.0


def test_sed_loss_hand_value():
    # target zeros, student [[1, 1], [0, 0]]: mean over all 4 elements = 0.5
    target = np.zeros((2, 2))
    student = Tensor(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert sed_loss(target, student).item() == 0.5


def test_sed_loss_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        sed_loss(np.zeros((2, 3)), Tensor(np.zeros((3, 2))))


def test_sed_gradient_matches_closed_form(rng):
    # d/ds mean((s - t)^2) = 2 (s - t) / numel
    target = rng.normal(size=(3, 4))
    student = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    sed_loss(target, student).backward()
    expected = 2.0 * (student.data - target) / target.size
    assert np.allclose(student.grad, expected, rtol=0, atol=1e-15)


def test_single_member_ensemble_is_exact(tiny_model, tiny_corpus):
    spec = EnsembleSpec([tiny_model])
    sents = list(tiny_corpus[:3])
    targets = ensemble_mean_embeddings(spec, sents, POOL)
    with dc.no_grad():
        direct = encode_batch(tiny_model, sents, POOL).data
    assert np.array_equal(targets, direct)


def test_ensemble_mean_permutation_invariant(tiny_vocab, tiny_corpus):
    members = [init_encoder(TINY_ARCH, tiny_vocab, seed=i) for i in range(4)]
    sents = list(tiny_corpus[:3])
    t1 = ensemble_mean_embeddings(EnsembleSpec(members), sents, POOL)
    t2 = ensemble_mean_embeddings(
        EnsembleSpec([members[3], members[1], members[0], members[2]]), sents,
        POOL)
    assert np.array_equal(t1, t2)


def test_ensemble_mean_matches_numpy_mean(tiny_vocab, tiny_corpus):
    members = [init_encoder(TINY_ARCH, tiny_vocab, seed=i) for i in range(3)]
    sents = list(tiny_corpus[:4])
    got = ensemble_mean_embeddings(EnsembleSpec(members), sents, POOL)
    with dc.no_grad():
        stack = np.stack([encode_batch(m, sents, POOL).data for m in members])
    assert np.allclose(got, stack.mean(axis=0), rtol=0, atol=1e-14)
    single = ensemble_mean_embeddings(EnsembleSpec(members), sents[:1],
                                      POOL)[0]
    assert np.array_equal(single, got[0])


def test_ensemble_rejects_mixed_arch(tiny_vocab):
    a = init_encoder(TINY_ARCH, tiny_vocab, seed=0)
    from sedkit.encoder import EncoderArch
    other = EncoderArch(layers=2, hidden=16, heads=2, ff=16, max_len=8)
    b = init_encoder(other, tiny_vocab, seed=0)
    with pytest.raises(ShapeMismatchError):
        EnsembleSpec([a, b])
    with pytest.raises(DataError):
        EnsembleSpec([])


def test_member_gradients_exactly_zero(tiny_vocab, tiny_corpus):
    """Distillation targets are constants: after backward through the
    student loss, no ensemble member parameter holds any gradient."""
    members = [init_encoder(TINY_ARCH, tiny_vocab, seed=i) for i in range(2)]
    student = init_encoder(TINY_ARCH, tiny_vocab, seed=9)
    sents = list(tiny_corpus[:4])
    targets = ensemble_mean_embeddings(EnsembleSpec(members), sents, POOL)
    loss = sed_loss(targets, encode_batch(student, sents, POOL))
    loss.backward()
    for m in members:
        for p in m.parameters():
            assert np.max(np.abs(p.grad)) == 0.0
    assert any(np.max(np.abs(p.grad)) > 0 for p in student.parameters())


# -- contrastive tension --------------------------------------------------

def test_ct_loss_matches_hand_computation(tiny_model, tiny_corpus):
    other = tiny_model.clone()
    other.params["tok_emb"].data *= 0.9  # make the two models differ
    batch = [CtPair(tiny_corpus[0], tiny_corpus[0], 1),
             CtPair(tiny_corpus[0], tiny_corpus[1], 0)]
    loss = ct_loss(tiny_model, other, batch).item()
    with dc.no_grad():
        ua = encode_batch(tiny_model, [p.sentence_a for p in batch], POOL).data
        vb = encode_batch(other, [p.sentence_b for p in batch], POOL).data
    logits = (ua * vb).sum(axis=1)
    y = np.array([1.0, 0.0])
    ref = np.maximum(logits, 0) - logits * y + np.log1p(np.exp(-np.abs(logits)))
    assert abs(loss - ref.mean()) < 1e-12


def test_ct_loss_zero_logits_is_ln2(tiny_model, tiny_corpus):
    # scoring against a zero model gives logit 0 for every pair: loss ln 2
    zero = tiny_model.clone()
    for p in zero.parameters():
        p.data[...] = 0.0
    batch = [CtPair(tiny_corpus[0], tiny_corpus[0], 1),
             CtPair(tiny_corpus[0], tiny_corpus[1], 0)]
    loss = ct_loss(tiny_model, zero, batch).item()
    assert abs(loss - math.log(2.0)) < 1e-12


def test_ct_loss_gradients_reach_both_models(tiny_model, tiny_corpus):
    a = tiny_model.clone()
    b = tiny_model.clone()
    batch = [CtPair(tiny_corpus[0], tiny_corpus[0], 1),
             CtPair(tiny_corpus[0], tiny_corpus[1], 0)]
    ct_loss(a, b, batch).backward()
    assert any(np.max(np.abs(p.grad)) > 0 for p in a.parameters())
    assert any(np.max(np.abs(p.grad)) > 0 for p in b.parameters())


def test_ct_loss_encodes_each_anchor_once(tiny_model, tiny_corpus,
                                          monkeypatch):
    """A batch of 2 anchors, each with itself and 7 negatives, sends
    `model_a` through `forward_ids` with 2 rows, not 16."""
    batch = next(sample_ct_batches(tiny_corpus, 7, 16, seed=0))
    assert len({p.sentence_a for p in batch}) == 2
    model_a, model_b = tiny_model.clone(), tiny_model.clone()
    rows = []
    real_forward = model_a.forward_ids
    monkeypatch.setattr(model_a, "forward_ids", lambda ids, mask: (
        rows.append(ids.shape[0]) or real_forward(ids, mask)))
    ct_loss(model_a, model_b, batch).backward()
    assert sum(rows) == 2
    assert any(np.max(np.abs(p.grad)) > 0 for p in model_a.parameters())


def test_ct_batch_structure():
    corpus = [f"s{i}" for i in range(30)]
    it = sample_ct_batches(corpus, negatives_per_positive=7, batch_size=16,
                           seed=3)
    for _ in range(50):
        batch = next(it)
        assert len(batch) == 16
        labels = [p.label for p in batch]
        assert sum(labels) == 2
        # block layout: 1 positive then its 7 negatives, twice
        assert labels == ([1] + [0] * 7) * 2
        for k in (0, 8):
            anchor = batch[k].sentence_a
            assert batch[k].sentence_b == anchor
            negs = batch[k + 1: k + 8]
            assert all(p.sentence_a == anchor for p in negs)
            assert all(p.sentence_b != anchor for p in negs)
            # negatives within a block are distinct sentences
            assert len({p.sentence_b for p in negs}) == 7


def test_ct_sampler_deterministic():
    corpus = [f"s{i}" for i in range(20)]
    b1 = [next(sample_ct_batches(corpus, 7, 8, seed=5)) for _ in range(3)]
    b2 = [next(sample_ct_batches(corpus, 7, 8, seed=5)) for _ in range(3)]
    assert b1 == b2
    assert next(sample_ct_batches(corpus, 7, 8, seed=6)) != b1[0]


def test_ct_sampler_guards():
    """Each guard raises at the call, before any batch is drawn."""
    with pytest.raises(DataError):
        sample_ct_batches([f"s{i}" for i in range(20)], 7, batch_size=12,
                          seed=0)
    with pytest.raises(DataError):
        sample_ct_batches(["a", "a", "a"], 1, batch_size=2, seed=0)
    with pytest.raises(DataError):
        # only 4 distinct non-anchor sentences available, 7 requested
        sample_ct_batches([f"s{i}" for i in range(5)], 7, batch_size=8, seed=0)


# -- NLI ------------------------------------------------------------------

def test_nli_zero_head_gives_ln3(tiny_model, tiny_corpus):
    head = NliHead(weight=Tensor(np.zeros((3 * 8, 3)), requires_grad=True),
                   bias=Tensor(np.zeros(3), requires_grad=True))
    batch = [LabeledNliPair(tiny_corpus[0], tiny_corpus[1], "entailment"),
             LabeledNliPair(tiny_corpus[2], tiny_corpus[3], "contradiction")]
    loss = nli_siamese_loss(tiny_model, head, batch).item()
    assert abs(loss - math.log(3.0)) < 1e-12


def test_nli_head_init_shapes():
    head = NliHead.init(hidden=8, seed=0)
    assert head.weight.shape == (24, 3)
    assert head.bias.shape == (3,)
    assert np.array_equal(head.bias.data, np.zeros(3))


def test_nli_loss_reaches_model_and_head(tiny_model, tiny_corpus):
    head = NliHead.init(hidden=8, seed=1)
    batch = [LabeledNliPair(tiny_corpus[0], tiny_corpus[1], "neutral")]
    nli_siamese_loss(tiny_model, head, batch).backward()
    assert np.max(np.abs(head.weight.grad)) > 0
    assert any(np.max(np.abs(p.grad)) > 0 for p in tiny_model.parameters())
    for p in tiny_model.parameters():
        p.zero_grad()


# -- STS regression -------------------------------------------------------

def test_target_map_values():
    m = RegressionTargetMap(0.5)
    assert m.target(0.0) == 0.5
    assert m.target(5.0) == 1.0
    assert abs(m.target(2.5) - 0.75) < 1e-15
    identity = RegressionTargetMap(0.0)
    assert identity.target(2.5) == 0.5


def test_target_map_validation():
    RegressionTargetMap(0.95)
    with pytest.raises(ConfigError):
        RegressionTargetMap(0.96)
    with pytest.raises(ConfigError):
        RegressionTargetMap(-0.01)
    with pytest.raises(DataError):
        RegressionTargetMap(0.0).target(5.1)


def test_cosine_tensor_rowwise(rng):
    u = rng.normal(size=(5, 6))
    v = rng.normal(size=(5, 6))
    got = cosine_tensor(Tensor(u), Tensor(v)).data
    for i in range(5):
        ref = u[i] @ v[i] / (np.linalg.norm(u[i]) * np.linalg.norm(v[i]))
        assert abs(got[i] - ref) < 1e-14


def test_regression_loss_zero_on_planted_pair(tiny_model, tiny_corpus):
    # identical sentences have cosine exactly 1; gold 5 maps to target 1
    pair = ScoredPair(tiny_corpus[0], tiny_corpus[0], 5.0)
    loss = sts_regression_loss(tiny_model, [pair], RegressionTargetMap(0.0))
    assert loss.item() < 1e-28


def test_regression_loss_hand_value(tiny_model, tiny_corpus):
    pairs = [ScoredPair(tiny_corpus[0], tiny_corpus[1], 2.0)]
    with dc.no_grad():
        u = encode_batch(tiny_model, [tiny_corpus[0]], POOL).data[0]
        v = encode_batch(tiny_model, [tiny_corpus[1]], POOL).data[0]
    c = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    target = 0.3 + (2.0 / 5.0) * 0.7
    loss = sts_regression_loss(tiny_model, pairs,
                               RegressionTargetMap(0.3)).item()
    assert abs(loss - (c - target) ** 2) < 1e-12


# -- siamese batches ------------------------------------------------------

def test_siamese_losses_run_one_forward_with_two_forward_bits(tiny_vocab,
                                                              monkeypatch):
    """Each siamese loss encodes both sides of its batch in one
    `encode_batch` call, and its value equals, bit for bit, the loss from
    one call per side; the batch spans the 8-, 16- and 32-slot buckets.
    Only the order of the weight-gradient sums differs."""
    model = init_encoder(EncoderArch(layers=2, hidden=8, heads=2, ff=16,
                                     max_len=32), tiny_vocab, seed=0)
    head = NliHead.init(8, seed=1)
    words = tiny_vocab.tokens[3:]

    def sentence(n, start):
        return " ".join(words[(start + i) % len(words)] for i in range(n))

    lefts = [sentence(3, 0), sentence(12, 1), sentence(25, 2)]
    rights = [sentence(20, 3), sentence(5, 4), sentence(30, 5)]
    assert {enc._bucket_len(len(tokenize(s, tiny_vocab)), 32)
            for s in lefts + rights} == {8, 16, 32}
    scored = [ScoredPair(a, b, g) for a, b, g in zip(lefts, rights,
                                                      (1.0, 3.5, 5.0))]
    nli = [LabeledNliPair(a, b, label) for a, b, label in zip(
        lefts, rights, ("entailment", "neutral", "contradiction"))]
    target_map = RegressionTargetMap(0.3)

    def two_forward_regression():
        u, v = (encode_batch(model, side, POOL) for side in (lefts, rights))
        targets = Tensor(np.array([target_map.target(p.gold)
                                   for p in scored]))
        return (cosine_tensor(u, v) - targets).square().mean()

    def two_forward_nli():
        u, v = (encode_batch(model, side, POOL) for side in (lefts, rights))
        feats = dc.concat([u, v, (u - v).abs()], axis=1)
        logits = dc.linear(feats, head.weight, head.bias)
        targets = np.array([0, 1, 2])
        return dc.softmax_cross_entropy(logits, targets).mean()

    params = model.parameters() + head.parameters()

    def value_and_grads(loss_fn):
        loss = loss_fn()
        loss.backward()
        grads = [p.grad.copy() for p in params]
        for p in params:
            p.zero_grad()
        return loss.item(), grads

    references = [value_and_grads(two_forward_regression),
                  value_and_grads(two_forward_nli)]
    calls = []
    real_encode = enc.encode_batch
    monkeypatch.setattr(enc, "encode_batch",
                        lambda *a: calls.append(a[1]) or real_encode(*a))
    losses = [lambda: sts_regression_loss(model, scored, target_map),
              lambda: nli_siamese_loss(model, head, nli)]
    for loss_fn, (ref_value, ref_grads) in zip(losses, references):
        calls.clear()
        value, grads = value_and_grads(loss_fn)
        assert calls == [lefts + rights]
        assert value == ref_value
        for got, ref in zip(grads, ref_grads):
            assert np.allclose(got, ref, rtol=1e-9, atol=1e-15)


def test_empty_batches_rejected(tiny_model):
    head = NliHead.init(8, 0)
    with pytest.raises(DataError):
        ct_loss(tiny_model, tiny_model, [])
    with pytest.raises(DataError):
        nli_siamese_loss(tiny_model, head, [])
    with pytest.raises(DataError):
        sts_regression_loss(tiny_model, [], RegressionTargetMap(0.0))
