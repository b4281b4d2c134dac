"""Training objectives: ensemble distillation targets and losses, the
contrastive two-model objective, siamese NLI classification and STS
regression with a tunable target lower bound.

Every objective takes a batch. Each loss encodes with `encoder.TRAIN_POOL`,
the final layer alone (k = 1); only evaluation pools more layers.
`ensemble_mean_embeddings` gives each sentence's distillation target: the
plain elementwise mean of the members' embeddings under the pool it is
given (`train_sed` passes that same pool), with no normalization before
or after averaging. Targets are produced under no_grad, so distillation
updates only the student: member parameter gradients stay exactly zero.
The teachers are frozen, so `train_sed` computes the targets once per
call, for its whole corpus.

The siamese losses (NLI, STS regression) run one forward over both
sides of a batch and split it in halves. A sentence's embedding does
not depend on its batch, so the embeddings and the loss are
bit-identical to one forward per side; only the order in which the
weight gradient sums its rows differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import encoder as enc
from .diffcore import Tensor
from .encoder import TRAIN_POOL, EncoderModel, PoolingSpec
from .errors import ConfigError, DataError, ShapeMismatchError

NLI_LABELS = ("entailment", "neutral", "contradiction")


@dataclass(frozen=True)
class LabeledNliPair:
    premise: str
    hypothesis: str
    label: str

    def __post_init__(self):
        if self.label not in NLI_LABELS:
            raise DataError(f"unknown NLI label: {self.label!r}")


@dataclass(frozen=True)
class CtPair:
    sentence_a: str
    sentence_b: str
    label: int  # 1 identical, 0 non-identical

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError("pair label must be 0 or 1")
        if self.label == 1 and self.sentence_a != self.sentence_b:
            raise DataError("label-1 pairs must repeat the same sentence")


@dataclass(frozen=True)
class RegressionTargetMap:
    """Affine map from gold similarity [0, 5] onto [lower_bound, 1]."""

    lower_bound: float

    def __post_init__(self):
        if not 0.0 <= self.lower_bound <= 0.95:
            raise ConfigError(
                f"lower_bound {self.lower_bound} outside [0, 0.95]")

    def target(self, gold: float) -> float:
        if not 0.0 <= gold <= 5.0:
            raise DataError(f"gold score {gold} outside [0, 5]")
        return self.lower_bound + (gold / 5.0) * (1.0 - self.lower_bound)


class EnsembleSpec:
    """Ordered teacher collection sharing one architecture."""

    def __init__(self, members: list[EncoderModel]):
        if not members:
            raise DataError("ensemble needs at least one member")
        arch = members[0].arch
        for i, m in enumerate(members):
            if m.arch != arch:
                raise ShapeMismatchError(
                    f"ensemble member {i} architecture {m.arch} differs "
                    f"from member 0 architecture {arch}"
                )
        self.members = list(members)

    def __len__(self) -> int:
        return len(self.members)


def ensemble_mean_embeddings(ensemble: EnsembleSpec, sentences,
                             pool: PoolingSpec) -> np.ndarray:
    """Per-sentence mean of member embeddings under `pool`, shape
    (B, hidden).

    Members encode through `encode_many` (no gradient graph; each
    distinct sentence once, at most 64 rows per forward), so targets are
    detached constants and a whole corpus never runs as one forward. The
    mean is taken row by row, so a repeated sentence gets the same target
    in every row. The member outputs are sorted per coordinate and
    summed over the member axis, which numpy adds in order, so the
    result is exactly permutation-invariant; an unsorted sum can differ
    in the last ulp when members are reordered.
    """
    stack = np.stack([enc.encode_many(member, sentences, pool)
                      for member in ensemble.members])
    return np.sort(stack, axis=0, kind="stable").sum(axis=0) / len(ensemble)


def sed_loss(target: np.ndarray, student_out: Tensor) -> Tensor:
    """Mean squared error between a target array and student embeddings
    of the same shape, averaged over every element."""
    if target.shape != student_out.shape:
        raise ShapeMismatchError(
            f"target shape {target.shape} != student shape {student_out.shape}"
        )
    diff = student_out - Tensor(target)
    return diff.square().mean()


def ct_loss(model_a: EncoderModel, model_b: EncoderModel, batch) -> Tensor:
    """Binary cross entropy on the inter-model dot product.

    Each pair scores logit = dot(encode_a(s_a), encode_b(s_b)); identical
    pairs are pushed toward high dot product, non-identical toward low.
    Gradients flow into both models.
    """
    batch = list(batch)
    if not batch:
        raise DataError("contrastive batch is empty")
    ua = enc.encode_batch(model_a, [p.sentence_a for p in batch], TRAIN_POOL)
    vb = enc.encode_batch(model_b, [p.sentence_b for p in batch], TRAIN_POOL)
    logits = (ua * vb).sum(axis=1)
    labels = np.array([p.label for p in batch], dtype=np.float64)
    return dc.bce_with_logits(logits, labels).mean()


@dataclass
class NliHead:
    """Affine classifier over [u; v; |u - v|]; discarded after training."""

    weight: Tensor  # (3 * hidden, 3)
    bias: Tensor  # (3,)

    @classmethod
    def init(cls, hidden: int, seed: int) -> "NliHead":
        rng = np.random.default_rng(seed)
        return cls(
            weight=Tensor(rng.normal(0.0, 0.02, size=(3 * hidden, 3)),
                          requires_grad=True),
            bias=Tensor(np.zeros(3), requires_grad=True),
        )

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


def _encode_sides(model: EncoderModel, lefts: list[str],
                  rights: list[str]) -> tuple[Tensor, Tensor]:
    """The embeddings of both sides of a siamese batch, from one
    `encode_batch` over `lefts + rights`."""
    e = enc.encode_batch(model, lefts + rights, TRAIN_POOL)
    n = len(lefts)
    return e[:n], e[n:]


def nli_siamese_loss(model: EncoderModel, head: NliHead, batch) -> Tensor:
    """Mean softmax cross entropy of the siamese 3-way classifier."""
    batch = list(batch)
    if not batch:
        raise DataError("NLI batch is empty")
    u, v = _encode_sides(model, [p.premise for p in batch],
                         [p.hypothesis for p in batch])
    feats = dc.concat([u, v, (u - v).abs()], axis=1)
    logits = dc.linear(feats, head.weight, head.bias)
    targets = np.array([NLI_LABELS.index(p.label) for p in batch])
    return dc.softmax_cross_entropy(logits, targets).mean()


def cosine_tensor(u: Tensor, v: Tensor) -> Tensor:
    """Differentiable rowwise cosine similarity for (B, D) tensors."""
    dot = (u * v).sum(axis=1)
    nu = (u * u).sum(axis=1)
    nv = (v * v).sum(axis=1)
    return dot / (nu * nv).sqrt()


def sts_regression_loss(model: EncoderModel, pairs,
                        target_map: RegressionTargetMap) -> Tensor:
    """Squared error between pair cosine and the mapped gold target.

    `pairs` is a list of objects with sentence_1, sentence_2 and gold
    attributes; a single pair gives the per-example loss, a batch gives
    the mean.
    """
    pairs = list(pairs)
    if not pairs:
        raise DataError("regression batch is empty")
    u, v = _encode_sides(model, [p.sentence_1 for p in pairs],
                         [p.sentence_2 for p in pairs])
    cos = cosine_tensor(u, v)
    targets = Tensor(np.array([target_map.target(p.gold) for p in pairs]))
    return (cos - targets).square().mean()


def sample_ct_batches(corpus, negatives_per_positive: int, batch_size: int,
                      seed: int):
    """Endless deterministic stream of contrastive batches.

    Each block pairs one sentence with itself (label 1) and with
    `negatives_per_positive` distinct other sentences (label 0), so a
    batch of size B holds exactly B / (negatives_per_positive + 1)
    positives. The corpus and sizes are checked here, at the call, so a
    bad request raises `DataError` before any batch is drawn.
    """
    corpus = list(corpus)
    block = negatives_per_positive + 1
    if batch_size % block != 0:
        raise DataError(
            f"batch size {batch_size} not divisible by block size {block}")
    if len(set(corpus)) < 2:
        raise DataError("contrastive sampling needs >= 2 distinct sentences")
    counts: dict[str, int] = {}
    for s in corpus:
        counts[s] = counts.get(s, 0) + 1
    # every anchor must leave enough non-identical sentences to sample
    if len(corpus) - max(counts.values()) < negatives_per_positive:
        raise DataError("corpus too small for the requested negative count")
    return _ct_batches(corpus, negatives_per_positive, batch_size // block,
                       np.random.default_rng(seed))


def _ct_batches(corpus: list[str], negatives: int, positives: int, rng):
    n = len(corpus)
    while True:
        batch: list[CtPair] = []
        for _ in range(positives):
            anchor_idx = int(rng.integers(n))
            anchor = corpus[anchor_idx]
            batch.append(CtPair(anchor, anchor, 1))
            seen = {anchor_idx}
            for _ in range(negatives):
                j = int(rng.integers(n))
                while j in seen or corpus[j] == anchor:
                    j = int(rng.integers(n))
                seen.add(j)
                batch.append(CtPair(anchor, corpus[j], 0))
        yield batch
