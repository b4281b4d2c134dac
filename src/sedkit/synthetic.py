"""Synthetic language world: a desk-scale stand-in for corpus + STS + NLI.

Clusters live in a small latent space. Every word type gets a latent
position; a sentence from cluster c samples words with probability
proportional to exp(-dist(word, center_c)^2 / temperature), so sentences
from one cluster share vocabulary statistics and lexical overlap decays
with center distance. Gold similarity follows the planted rule

    gold(i, j) = round_to_0.1( 5 * exp(-||center_i - center_j||) )

with centers scaled so the most distant pair lands at gold 0.8, giving
graded scores over the full [0, 5] range with plenty of ties. NLI labels
come from the same geometry: same cluster entails, nearby clusters are
neutral, distant ones contradict.

Sentence pools for train/dev/test are disjoint, and regeneration from
the same spec is byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import read_tsv, write_atomic
from .errors import DataError
from .evalsts import ScoredPair, StsTask
from .objectives import LabeledNliPair

GOLD_MIN_TARGET = 0.8  # gold of the most distant cluster pair after scaling
_MAX_REDRAWS = 10_000  # repeated sentences in a row before a cluster gives up


@dataclass(frozen=True)
class SyntheticWorldSpec:
    clusters: int = 6
    sentences_per_cluster: int = 30
    vocab_size: int = 120
    latent_dim: int = 8
    temperature: float = 1.0
    sts_pairs: int = 60  # per split
    nli_pairs: int = 120
    min_len: int = 4
    max_len: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 2:
            raise DataError("need at least 2 clusters")
        if self.vocab_size < 2 * self.clusters:
            raise DataError("vocabulary too small for the cluster count")
        if not (2 <= self.min_len <= self.max_len):
            raise DataError("bad sentence length range")
        for key, low in (("latent_dim", 1), ("sts_pairs", 1),
                         ("nli_pairs", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise DataError(f"{key} must be >= {low}")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise DataError("temperature must be finite and > 0")
        # every sentence of the world is distinct, and there are at most
        # vocab_size^L sentences of each length L
        needed = self.clusters * self.sentences_per_cluster
        room = 0
        for length in range(self.min_len, self.max_len + 1):
            room += self.vocab_size ** length
            if room >= needed:
                break
        else:
            raise DataError(
                f"{self.clusters} clusters x {self.sentences_per_cluster} "
                f"sentences need {needed} distinct sentences, but "
                f"{self.vocab_size} words at lengths {self.min_len}.."
                f"{self.max_len} make only {room}")
        sizes = _split_sizes(self.sentences_per_cluster)
        if min(sizes) < 1:
            raise DataError(
                f"{self.sentences_per_cluster} sentences per cluster cannot "
                "fill three disjoint splits"
            )
        # each split draws sts_pairs distinct pairs from its own pool
        split, size = min(zip(("train", "dev", "test"), sizes),
                          key=lambda item: item[1])
        m = self.clusters * size
        if self.sts_pairs > m * (m - 1) // 2:
            raise DataError(
                f"sts_pairs = {self.sts_pairs} exceeds the {m * (m - 1) // 2}"
                f" distinct pairs of the {split} split's {m} sentences"
            )


def _split_sizes(per_cluster: int) -> tuple[int, int, int]:
    n_train = int(round(0.6 * per_cluster))
    n_dev = int(round(0.2 * per_cluster))
    return n_train, n_dev, per_cluster - n_train - n_dev


def quantize_gold(raw: float) -> float:
    return float(np.round(raw, 1))


@dataclass
class SyntheticWorld:
    spec: SyntheticWorldSpec
    centers: np.ndarray  # (clusters, latent_dim), scaled
    sentences: dict[str, list[str]]  # split -> sentences (all clusters)
    cluster_of: dict[str, int]  # sentence -> cluster id
    sts: dict[str, StsTask]  # split -> task
    nli: list[LabeledNliPair]
    neutral_threshold: float

    @property
    def corpus(self) -> list[str]:
        return (self.sentences["train"] + self.sentences["dev"]
                + self.sentences["test"])

    def gold_between(self, cluster_a: int, cluster_b: int) -> float:
        d = float(np.linalg.norm(self.centers[cluster_a] - self.centers[cluster_b]))
        return quantize_gold(5.0 * np.exp(-d))

    def nli_label_between(self, cluster_a: int, cluster_b: int) -> str:
        if cluster_a == cluster_b:
            return "entailment"
        d = float(np.linalg.norm(self.centers[cluster_a] - self.centers[cluster_b]))
        return "neutral" if d <= self.neutral_threshold else "contradiction"


def build_synthetic_world(spec: SyntheticWorldSpec) -> SyntheticWorld:
    """The world `spec` describes; one too large to allocate is a
    `DataError` naming its sizes."""
    try:
        return _draw_world(spec)
    except MemoryError:
        raise DataError(
            f"cannot allocate a world of {spec.clusters} clusters x "
            f"{spec.sentences_per_cluster} sentences over "
            f"{spec.vocab_size} words") from None


def _draw_world(spec: SyntheticWorldSpec) -> SyntheticWorld:
    rng = np.random.default_rng(spec.seed)
    raw_centers = rng.normal(size=(spec.clusters, spec.latent_dim))
    dists = [
        np.linalg.norm(raw_centers[i] - raw_centers[j])
        for i in range(spec.clusters)
        for j in range(i + 1, spec.clusters)
    ]
    d_max = max(dists)
    # the gold rule uses rescaled centers so the most distant pair lands
    # at GOLD_MIN_TARGET; word sampling keeps the raw geometry, which is
    # spread wide enough for clusters to own distinctive vocabulary
    centers = raw_centers * (np.log(5.0 / GOLD_MIN_TARGET) / d_max)
    nonzero = sorted(
        np.linalg.norm(centers[i] - centers[j])
        for i in range(spec.clusters)
        for j in range(i + 1, spec.clusters)
    )
    neutral_threshold = float(nonzero[max(0, int(0.4 * len(nonzero)) - 1)])

    words = [f"w{i:03d}" for i in range(spec.vocab_size)]
    word_pos = rng.normal(size=(spec.vocab_size, spec.latent_dim))
    probs = np.zeros((spec.clusters, spec.vocab_size))
    for c in range(spec.clusters):
        d2 = np.sum((word_pos - raw_centers[c]) ** 2, axis=1)
        logits = -d2 / spec.temperature
        logits -= logits.max()
        w = np.exp(logits)
        probs[c] = w / w.sum()

    n_train, n_dev, n_test = _split_sizes(spec.sentences_per_cluster)
    sentences = {"train": [], "dev": [], "test": []}
    cluster_of: dict[str, int] = {}
    seen: set[str] = set()
    for c in range(spec.clusters):
        made = repeats = 0
        while made < spec.sentences_per_cluster:
            length = int(rng.integers(spec.min_len, spec.max_len + 1))
            idx = rng.choice(spec.vocab_size, size=length, p=probs[c])
            sent = " ".join(words[i] for i in idx)
            if sent in seen:
                repeats += 1
                if repeats == _MAX_REDRAWS:
                    raise DataError(
                        f"cluster {c} drew {_MAX_REDRAWS} repeated sentences "
                        f"in a row after {made} distinct ones; its word "
                        "distribution is too narrow for "
                        f"{spec.sentences_per_cluster} sentences")
                continue
            repeats = 0
            seen.add(sent)
            if made < n_train:
                split = "train"
            elif made < n_train + n_dev:
                split = "dev"
            else:
                split = "test"
            sentences[split].append(sent)
            cluster_of[sent] = c
            made += 1

    world = SyntheticWorld(spec, centers, sentences, cluster_of, {}, [],
                           neutral_threshold)

    for split in ("train", "dev", "test"):
        pool = sentences[split]
        pairs = []
        pair_seen: set[tuple[str, str]] = set()
        while len(pairs) < spec.sts_pairs:
            i, j = rng.choice(len(pool), size=2, replace=False)
            a, b = pool[int(i)], pool[int(j)]
            if (a, b) in pair_seen or (b, a) in pair_seen:
                continue
            pair_seen.add((a, b))
            gold = world.gold_between(cluster_of[a], cluster_of[b])
            pairs.append(ScoredPair(a, b, gold))
        world.sts[split] = StsTask(name=f"sts_{split}", pairs=tuple(pairs))

    pool = sentences["train"]
    nli = []
    while len(nli) < spec.nli_pairs:
        i, j = rng.choice(len(pool), size=2, replace=False)
        a, b = pool[int(i)], pool[int(j)]
        nli.append(LabeledNliPair(
            a, b, world.nli_label_between(cluster_of[a], cluster_of[b])
        ))
    world.nli = nli
    return world


def gen_synthetic_world(spec: SyntheticWorldSpec, out_dir) -> SyntheticWorld:
    """Build the world and write corpus, STS splits, NLI file and map.

    Files: corpus.txt, sts_train.tsv / sts_dev.tsv / sts_test.tsv,
    nli.tsv, and world.json (cluster centers and sentence assignments,
    enough to recompute every gold score from the rule).
    """
    world = build_synthetic_world(spec)
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = {"corpus.txt": "".join(sent + "\n" for sent in world.corpus)}
    for split, task in world.sts.items():
        files[f"sts_{split}.tsv"] = "".join(
            f"{p.sentence_1}\t{p.sentence_2}\t{p.gold:.1f}\n" for p in task.pairs)
    files["nli.tsv"] = "".join(
        f"{p.premise}\t{p.hypothesis}\t{p.label}\n" for p in world.nli)
    mapping = {
        "spec": asdict(spec),
        "centers": world.centers.tolist(),
        "neutral_threshold": world.neutral_threshold,
        "cluster_of": world.cluster_of,
        "splits": {s: world.sentences[s] for s in ("train", "dev", "test")},
    }
    files["world.json"] = json.dumps(mapping, indent=2, sort_keys=True) + "\n"
    for name, text in files.items():
        write_atomic(os.path.join(out_dir, name), text.encode("utf-8"))
    return world


def load_nli_tsv(path) -> list[LabeledNliPair]:
    """premise TAB hypothesis TAB label lines, read like an STS file:
    blank and '#' lines skipped, the first bad line or label rejected."""
    return read_tsv(path, LabeledNliPair)
