"""Word-level tokenizer and a small transformer sentence encoder.

The encoder exposes one hidden-state grid per layer (token embeddings plus
each transformer block), which is what the layer-pooling rules consume:
a sentence embedding is the token mean of each of the final k layers,
then the mean of those k pooled vectors, in that order.

A sentence is padded to the bucket set by its own length: the smallest
of 8, 16, 32, ... that holds it, capped at `max_len`. `encode_batch` is
the one place that plans forwards: it keeps the batch's distinct
sentences only, runs each bucket present in forwards of at most 64 rows,
then one gather puts the rows in input order and repeats each repeated
sentence's row. `encode_many` is the same call without a graph. So a
sentence runs at the same padded length whatever it is batched with, and
its embedding is bit-identical alone or inside any batch. Padding to the
batch's longest sentence would break that: the sums over token positions
(softmax, `attn @ v`, token mean) round differently at different
lengths. Padded positions add exact zeros and numpy's pairwise sum runs
8 lanes, so padding a sentence past its bucket leaves its embedding
unchanged.

A forward is the embedding (two gathers, `tok_emb[ids]` and
`pos_emb[:T]`, whose gradients add each picked row in (B, T) order) and
one autodiff node per layer, `dc.transformer_block`. That node gives
the bits of the chain of sublayer ops it stands for, forward and
backward, so training through it writes the same checkpoint bytes.
Without a graph (`encode_many`, a frozen teacher) the node keeps no
intermediates and reuses its own buffers: at the desk arch a block over
64 rows of 32 tokens allocates 2.1 MiB at its peak, where keeping them
took 6.1 MiB. `_ENCODE_CHUNK` stays 64. Smaller forwards shrink the
same temporaries, which saves time only where glibc would otherwise
trim the heap and fault it in again, and costs time elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ConfigError, DataError, ShapeMismatchError

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

_NEG_BIAS = -1e30  # additive attention bias; exp() underflows to exactly 0
_LN_EPS = 1e-5
_MIN_BUCKET = 8  # numpy's pairwise sum runs 8 lanes
_ENCODE_CHUNK = 64  # most rows in one forward, with or without a graph
# Each block's tensors, `l{layer}.` prefixed, in `dc.transformer_block`'s
# order.
_BLOCK_WEIGHTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln1_g",
                  "ln1_b", "w1", "c1", "w2", "c2", "ln2_g", "ln2_b")

class Vocabulary:
    """Dense token-to-id map with pad/unk/mask specials at ids 0/1/2.

    The encoder tokenizes each text once per vocabulary: a private memo
    holds one tuple of ids per distinct text for the vocabulary's
    lifetime, shared by every model cloned from one that uses it. The
    memo is not pickled, so a vocabulary sent to or from a worker process
    arrives with an empty one.
    """

    PAD, UNK, MASK = "<pad>", "<unk>", "<mask>"

    def __init__(self, tokens: list[str]):
        self.tokens = [self.PAD, self.UNK, self.MASK] + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise DataError("duplicate tokens in vocabulary")
        self.pad_id = 0
        self.unk_id = 1
        self.mask_id = 2
        self._ids: dict[str, tuple[int, ...]] = {}

    def __reduce__(self):
        return type(self), (self.tokens[3:],)

    def _token_ids(self, text: str) -> tuple[int, ...]:
        """`tokenize(text, self)` as a tuple, from the memo."""
        ids = self._ids.get(text)
        if ids is None:
            ids = self._ids[text] = tuple(tokenize(text, self))
        return ids

    @property
    def size(self) -> int:
        return len(self.tokens)

    @classmethod
    def build(cls, corpus) -> "Vocabulary":
        """Every token of `corpus`, most frequent first; ties broken
        alphabetically for determinism."""
        counts: dict[str, int] = {}
        for sentence in corpus:
            for tok in split_tokens(sentence):
                counts[tok] = counts.get(tok, 0) + 1
        return cls(sorted(counts, key=lambda t: (-counts[t], t)))


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
        for name, value in vars(self).items():
            if value < 1:
                raise ConfigError(f"arch.{name} must be >= 1")
        if self.hidden % self.heads != 0:
            raise ShapeMismatchError(
                "arch.hidden must be divisible by arch.heads")


@dataclass(frozen=True)
class PoolingSpec:
    """Mean-pool over the final k hidden-state grids, k in {1, 2, 3}."""

    k: int

    def __post_init__(self):
        if self.k not in (1, 2, 3):
            raise DataError(f"pooling k must be 1, 2 or 3, got {self.k}")


# Members, the distilled student and the lower-bound regression all train
# on final-layer pooled embeddings; evaluation pools `[eval] pool_k` layers.
TRAIN_POOL = PoolingSpec(1)


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

    def clone(self) -> "EncoderModel":
        params = {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in self.params.items()
        }
        return EncoderModel(self.arch, self.vocab, params)

    def forward_ids(self, ids: np.ndarray, mask: np.ndarray) -> list[Tensor]:
        """Hidden states for a padded id batch of shape (B, T), T <= max_len.

        Returns layers+1 grids of shape (B, T, hidden): the embedding
        layer first, then each transformer block. `mask` is 1.0 at real
        tokens and 0.0 at padding; padded key positions get an additive
        -1e30 attention bias so their softmax weight underflows to exact 0.
        """
        arch, p = self.arch, self.params
        B, T = ids.shape
        if T > arch.max_len:
            raise ShapeMismatchError(
                f"ids have {T} positions, max_len is {arch.max_len}")
        h = p["tok_emb"][ids] + p["pos_emb"][:T]
        key_bias = (1.0 - mask)[:, None, None, :] * _NEG_BIAS
        hiddens = [h]
        for layer in range(arch.layers):
            h = self._block(h, layer, key_bias)
            hiddens.append(h)
        return hiddens

    def _block(self, h: Tensor, layer: int, key_bias: np.ndarray) -> Tensor:
        p, pre = self.params, f"l{layer}."
        return dc.transformer_block(h, [p[pre + n] for n in _BLOCK_WEIGHTS],
                                    self.arch.heads, key_bias, _LN_EPS)


def init_encoder(arch: EncoderArch, vocab: Vocabulary, seed: int) -> EncoderModel:
    """Deterministic scaled-normal initialization (std 0.02, BERT-style).
    An arch whose tensors cannot be allocated raises `ConfigError`."""
    rng = np.random.default_rng(seed)
    try:
        return _build_encoder(arch, vocab,
                              lambda shape: rng.normal(0.0, 0.02, size=shape))
    except MemoryError:
        raise ConfigError(f"cannot allocate the tensors of {arch} with "
                          f"{vocab.size} tokens") from None


def _build_encoder(arch: EncoderArch, vocab: Vocabulary,
                   weight) -> EncoderModel:
    """The one table of encoder tensor names and shapes: each weight
    matrix is `weight(shape)`, biases are zero, layer-norm gains one."""
    params: dict[str, Tensor] = {}

    def add(name, shape, fill=weight):
        params[name] = Tensor(fill(shape), requires_grad=True)

    D, F = arch.hidden, arch.ff
    add("tok_emb", (vocab.size, D))
    add("pos_emb", (arch.max_len, D))
    for layer in range(arch.layers):
        pre = f"l{layer}."
        for w in ("wq", "wk", "wv", "wo"):
            add(pre + w, (D, D))
        for b in ("bq", "bk", "bv", "bo"):
            add(pre + b, (D,), np.zeros)
        add(pre + "w1", (D, F))
        add(pre + "c1", (F,), np.zeros)
        add(pre + "w2", (F, D))
        add(pre + "c2", (D,), np.zeros)
        add(pre + "ln1_g", (D,), np.ones)
        add(pre + "ln1_b", (D,), np.zeros)
        add(pre + "ln2_g", (D,), np.ones)
        add(pre + "ln2_b", (D,), np.zeros)
    return EncoderModel(arch, vocab, params)


def _bucket_len(n: int, max_len: int) -> int:
    """Padded length for a sentence of `n` tokens: the smallest of 8, 16,
    32, ... that holds it, capped at `max_len`."""
    T = _MIN_BUCKET
    while T < n:
        T *= 2
    return min(T, max_len)


def _token_lists(model: EncoderModel,
                 sentences) -> list[tuple[int, ...]]:
    ids, max_len = model.vocab._token_ids, model.arch.max_len
    return [ids(s)[:max_len] for s in sentences]


def _pad(model: EncoderModel, token_lists,
         T: int) -> tuple[np.ndarray, np.ndarray]:
    ids = np.full((len(token_lists), T), model.vocab.pad_id, dtype=np.intp)
    mask = np.zeros((len(token_lists), T))
    for i, toks in enumerate(token_lists):
        ids[i, : len(toks)] = toks
        mask[i, : len(toks)] = 1.0
    return ids, mask


def batch_ids(model: EncoderModel, sentences) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize and truncate to max_len, then pad every sentence to the
    bucket of the longest one."""
    toks = _token_lists(model, sentences)
    longest = max((len(t) for t in toks), default=1)
    return _pad(model, toks, _bucket_len(longest, model.arch.max_len))


def encode_batch(model: EncoderModel, sentences, pool: PoolingSpec) -> Tensor:
    """Embeddings (B, hidden) for a list of sentences, in input order.

    Each length bucket present runs over its distinct sentences only,
    in forwards of at most `_ENCODE_CHUNK` rows: sentences with the same
    token ids share one row. One gather then restores input order and
    repeats shared rows, so a repeated row's gradients are summed. A
    batch without repeats that fits one forward needs no gather. Pooling
    takes the token mean first (padding positions excluded), then the
    mean over the final k layers, accumulated from the last layer
    backwards so the summation order is reproducible.
    """
    if pool.k > model.arch.layers + 1:
        raise ShapeMismatchError("pooling k exceeds available layers")
    toks = _token_lists(model, sentences)
    if not toks:
        return Tensor(np.zeros((0, model.arch.hidden)))
    slots: dict[tuple[int, ...], int] = {}  # distinct id tuple -> its row
    inverse = [slots.setdefault(t, len(slots)) for t in toks]
    distinct = list(slots)
    buckets = [_bucket_len(len(t), model.arch.max_len) for t in distinct]
    parts, order = [], []
    for T in sorted(set(buckets)):
        rows = [i for i, b in enumerate(buckets) if b == T]
        for start in range(0, len(rows), _ENCODE_CHUNK):
            chunk = rows[start : start + _ENCODE_CHUNK]
            ids, mask = _pad(model, [distinct[i] for i in chunk], T)
            parts.append(_pool(model.forward_ids(ids, mask), mask, pool.k))
        order.extend(rows)
    if len(parts) == 1 and len(distinct) == len(toks):
        return parts[0]  # rows already in input order: no gather
    out = parts[0] if len(parts) == 1 else dc.concat(parts, axis=0)
    return out[np.argsort(order)[inverse]]


def _pool(hiddens: list[Tensor], mask: np.ndarray, k: int) -> Tensor:
    counts = Tensor(mask.sum(axis=1, keepdims=True))
    mask3 = Tensor(mask[:, :, None])

    def token_mean(h):
        return (h * mask3).sum(axis=1) / counts

    acc = token_mean(hiddens[-1])
    for back in range(1, k):
        acc = acc + token_mean(hiddens[-1 - back])
    return acc * (1.0 / k)


def encode_many(model: EncoderModel, sentences,
                pool: PoolingSpec) -> np.ndarray:
    """`encode_batch` without a gradient graph, as an (N, hidden) array;
    no sentences give (0, hidden)."""
    with dc.no_grad():
        return encode_batch(model, sentences, pool).data


def pretrain_base(corpus, arch: EncoderArch, cfg, seed: int) -> EncoderModel:
    """Masked-token reconstruction pretraining of a fresh encoder whose
    vocabulary is every token of `corpus`; `cfg` is a `[pretrain]`
    section (steps, batch, lr, mask_prob).

    Stand-in for large pre-trained weights: a few hundred steps on the
    corpus produce a non-degenerate base checkpoint. Deterministic given
    `seed`; zero steps returns the initialized weights unchanged.
    """
    corpus = list(corpus)
    if not corpus:
        raise DataError("pretraining corpus is empty")
    if len(corpus) < cfg.batch:
        raise DataError(
            f"corpus has {len(corpus)} sentences, batch size is {cfg.batch}"
        )
    init_seed, data_seed = _spawn_seeds(seed, 2)
    model = init_encoder(arch, Vocabulary.build(corpus), init_seed)
    rng = np.random.default_rng(data_seed)
    dc.train(dc.Adam(model.parameters()),
             dc.sample_batches(rng, len(corpus), cfg.batch, cfg.steps),
             lambda idx: _mlm_loss(model, [corpus[i] for i in idx],
                                   cfg.mask_prob, rng),
             cfg.lr)
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
