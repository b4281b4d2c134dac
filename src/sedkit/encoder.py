"""Word-level tokenizer and a small transformer sentence encoder.

The encoder exposes one hidden-state grid per layer (token embeddings plus
each transformer block), which is what the layer-pooling rules consume:
a sentence embedding is the token mean of each of the final k layers,
then the mean of those k pooled vectors, in that order.

Every forward pass pads to the model's fixed maximum length, so a sentence
produces bit-identical embeddings whether encoded alone or inside any
batch: batching only stacks identical per-sentence computations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import DataError, ShapeMismatchError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

_NEG_BIAS = -1e30  # additive attention bias; exp() underflows to exactly 0
_LN_EPS = 1e-5

# sentences truncated to max_len since process start or the last
# reset_truncation_count(), read by truncation_count(); no manifest or
# report records it yet
_TRUNCATION_COUNT = 0


def truncation_count() -> int:
    return _TRUNCATION_COUNT


def reset_truncation_count() -> None:
    global _TRUNCATION_COUNT
    _TRUNCATION_COUNT = 0


class Vocabulary:
    """Dense token-to-id map with pad/unk/mask specials at ids 0/1/2."""

    PAD, UNK, MASK = "<pad>", "<unk>", "<mask>"

    def __init__(self, tokens: list[str]):
        self.tokens = [self.PAD, self.UNK, self.MASK] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")
        self.pad_id = 0
        self.unk_id = 1
        self.mask_id = 2

    @property
    def size(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, corpus, min_count: int = 1) -> "Vocabulary":
        """Collect tokens with frequency >= min_count, most frequent first;
        ties broken alphabetically for determinism."""
        counts: dict[str, int] = {}
        for sentence in corpus:
            for tok in split_tokens(sentence):
                counts[tok] = counts.get(tok, 0) + 1
        kept = sorted(
            (t for t, c in counts.items() if c >= min_count),
            key=lambda t: (-counts[t], t),
        )
        return cls(kept)


def split_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Deterministic whitespace/punctuation split mapped through `vocab`.

    Out-of-vocabulary tokens map to the unknown id; empty text yields a
    single unknown token.
    """
    words = split_tokens(text)
    if not words:
        return [vocab.unk_id]
    return [vocab.token_to_id.get(w, vocab.unk_id) for w in words]


@dataclass(frozen=True)
class EncoderArch:
    layers: int = 2
    hidden: int = 32
    heads: int = 2
    ff: int = 64
    max_len: int = 32

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ShapeMismatchError("hidden must be divisible by heads")


@dataclass(frozen=True)
class PoolingSpec:
    """Mean-pool over the final k hidden-state grids, k in {1, 2, 3}."""

    k: int = 1

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise DataError(f"pooling k must be 1, 2 or 3, got {self.k}")


class EncoderModel:
    """Transformer encoder; immutable during inference, trained in place.

    Parameters live in an insertion-ordered dict so that `parameters()`
    iterates deterministically (optimizer state, checkpoints and gradient
    checks all rely on that order).
    """

    def __init__(self, arch: EncoderArch, vocab: Vocabulary,
                 params: dict[str, Tensor]):
        self.arch = arch
        self.vocab = vocab
        self.params = params

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_names(self) -> list[str]:
        return list(self.params.keys())

    def clone(self) -> "EncoderModel":
        params = {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in self.params.items()
        }
        return EncoderModel(self.arch, self.vocab, params)

    def forward_ids(self, ids: np.ndarray, mask: np.ndarray) -> list[Tensor]:
        """Hidden states for padded id batch (B, max_len).

        Returns layers+1 grids of shape (B, max_len, hidden): the embedding
        layer first, then each transformer block. `mask` is 1.0 at real
        tokens and 0.0 at padding; padded key positions get an additive
        -1e30 attention bias so their softmax weight underflows to exact 0.
        """
        arch, p = self.arch, self.params
        B, T = ids.shape
        if T != arch.max_len:
            raise ShapeMismatchError("ids must be padded to max_len")
        h = dc.take_rows(p["tok_emb"], ids) + p["pos_emb"]
        key_bias = Tensor((1.0 - mask)[:, None, None, :] * _NEG_BIAS)
        hiddens = [h]
        for layer in range(arch.layers):
            h = self._block(h, layer, key_bias)
            hiddens.append(h)
        return hiddens

    def _block(self, h: Tensor, layer: int, key_bias: Tensor) -> Tensor:
        arch, p = self.arch, self.params
        B, T, D = h.shape
        H = arch.heads
        dh = D // H
        pre = f"l{layer}."

        def heads(x):
            return x.reshape(B, T, H, dh).transpose(0, 2, 1, 3)

        q = heads(h @ p[pre + "wq"] + p[pre + "bq"])
        k = heads(h @ p[pre + "wk"] + p[pre + "bk"])
        v = heads(h @ p[pre + "wv"] + p[pre + "bv"])
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(dh)) + key_bias
        attn = dc.softmax(scores, axis=-1)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, T, D)
        h = _layer_norm(h + (ctx @ p[pre + "wo"] + p[pre + "bo"]),
                        p[pre + "ln1_g"], p[pre + "ln1_b"])
        ff = (h @ p[pre + "w1"] + p[pre + "c1"]).relu() @ p[pre + "w2"] + p[pre + "c2"]
        return _layer_norm(h + ff, p[pre + "ln2_g"], p[pre + "ln2_b"])


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = centered.square().mean(axis=-1, keepdims=True)
    return centered / (var + _LN_EPS).sqrt() * gamma + beta


def init_encoder(arch: EncoderArch, vocab: Vocabulary, seed: int) -> EncoderModel:
    """Deterministic scaled-normal initialization (std 0.02, BERT-style)."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}

    def add(name, shape, zero=False, one=False):
        if one:
            data = np.ones(shape)
        elif zero:
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        params[name] = Tensor(data, requires_grad=True)

    D, F = arch.hidden, arch.ff
    add("tok_emb", (vocab.size, D))
    add("pos_emb", (arch.max_len, D))
    for layer in range(arch.layers):
        pre = f"l{layer}."
        for w in ("wq", "wk", "wv", "wo"):
            add(pre + w, (D, D))
        for b in ("bq", "bk", "bv", "bo"):
            add(pre + b, (D,), zero=True)
        add(pre + "w1", (D, F))
        add(pre + "c1", (F,), zero=True)
        add(pre + "w2", (F, D))
        add(pre + "c2", (D,), zero=True)
        add(pre + "ln1_g", (D,), one=True)
        add(pre + "ln1_b", (D,), zero=True)
        add(pre + "ln2_g", (D,), one=True)
        add(pre + "ln2_b", (D,), zero=True)
    return EncoderModel(arch, vocab, params)


def batch_ids(model: EncoderModel, sentences) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize, truncate to max_len and pad a list of sentences."""
    global _TRUNCATION_COUNT
    T = model.arch.max_len
    B = len(sentences)
    ids = np.full((B, T), model.vocab.pad_id, dtype=np.intp)
    mask = np.zeros((B, T))
    for i, sentence in enumerate(sentences):
        toks = tokenize(sentence, model.vocab)
        if len(toks) > T:
            toks = toks[:T]
            _TRUNCATION_COUNT += 1
        ids[i, : len(toks)] = toks
        mask[i, : len(toks)] = 1.0
    return ids, mask


def encode_batch(model: EncoderModel, sentences, pool: PoolingSpec) -> Tensor:
    """Embeddings (B, hidden) for a list of sentences.

    Token mean first (padding positions excluded), then the mean over the
    final k layers, accumulated from the last layer backwards so the
    summation order is reproducible.
    """
    if pool.k > model.arch.layers + 1:
        raise ShapeMismatchError("pooling k exceeds available layers")
    ids, mask = batch_ids(model, sentences)
    hiddens = model.forward_ids(ids, mask)
    counts = mask.sum(axis=1, keepdims=True)
    mask3 = Tensor(mask[:, :, None])

    def token_mean(h):
        return (h * mask3).sum(axis=1) / Tensor(counts)

    acc = token_mean(hiddens[-1])
    for back in range(1, pool.k):
        acc = acc + token_mean(hiddens[-1 - back])
    return acc * (1.0 / pool.k)


def encode(model: EncoderModel, sentence: str, pool: PoolingSpec) -> np.ndarray:
    """Embedding vector (hidden,) for one sentence; no gradient graph."""
    with dc.no_grad():
        return encode_batch(model, [sentence], pool).data[0]


def encode_many(model: EncoderModel, sentences, pool: PoolingSpec,
                batch: int = 64) -> np.ndarray:
    """Embeddings (N, hidden) encoded in chunks of `batch`; no gradient
    graph. Bit-identical to one `encode_batch` call over all sentences."""
    chunks = []
    with dc.no_grad():
        for start in range(0, len(sentences), batch):
            chunk = sentences[start : start + batch]
            chunks.append(encode_batch(model, chunk, pool).data)
    return np.concatenate(chunks, axis=0)


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 300
    batch: int = 16
    lr: float = 1e-3
    mask_prob: float = 0.15
    seed: int = 0


def pretrain_base(corpus, arch: EncoderArch, config: PretrainConfig,
                  vocab: Vocabulary | None = None) -> EncoderModel:
    """Masked-token reconstruction pretraining of a fresh encoder.

    Stand-in for large pre-trained weights: a few hundred steps on the
    corpus produce a non-degenerate base checkpoint. Deterministic given
    the config seed; zero steps returns the initialized weights unchanged.
    """
    corpus = list(corpus)
    if not corpus:
        raise DataError("pretraining corpus is empty")
    if len(corpus) < config.batch:
        raise DataError(
            f"corpus has {len(corpus)} sentences, batch size is {config.batch}"
        )
    if vocab is None:
        vocab = Vocabulary.build(corpus)
    init_seed, data_seed = _spawn_seeds(config.seed, 2)
    model = init_encoder(arch, vocab, init_seed)
    if config.steps == 0:
        return model
    rng = np.random.default_rng(data_seed)
    opt = dc.Adam(model.parameters())
    for _ in range(config.steps):
        idx = rng.choice(len(corpus), size=config.batch, replace=False)
        loss = _mlm_loss(model, [corpus[i] for i in idx], config.mask_prob, rng)
        opt.zero_grad()
        loss.backward()
        opt.step(config.lr)
    return model


def _mlm_loss(model: EncoderModel, sentences, mask_prob: float, rng) -> Tensor:
    ids, mask = batch_ids(model, sentences)
    targets = ids.copy()
    picked = (rng.random(ids.shape) < mask_prob) & (mask > 0)
    for row in range(ids.shape[0]):
        if not picked[row].any():
            candidates = np.flatnonzero(mask[row] > 0)
            picked[row, rng.choice(candidates)] = True
    corrupted = np.where(picked, model.vocab.mask_id, ids)
    h = model.forward_ids(corrupted, mask)[-1]
    B, T, D = h.shape
    logits = h.reshape(B * T, D) @ model.params["tok_emb"].transpose(1, 0)
    losses = dc.softmax_cross_entropy(logits, targets.reshape(-1))
    weights = Tensor(picked.reshape(-1).astype(np.float64))
    return (losses * weights).sum() / Tensor(picked.sum())


def _spawn_seeds(seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]
