"""Evaluation harness: hand-checked correlation values, a brute-force
oracle implemented independently inside this file, scipy cross-checks,
TSV parsing edge cases, and the reporting layer."""

import csv
import functools
import json
import math

import numpy as np
import pytest

import sedkit.evalsts as ev
from sedkit.encoder import PoolingSpec
from sedkit.errors import ConstantInputError, DataError, ShapeMismatchError
from sedkit.evalsts import (CorrelationReport, ScoredPair, StsTask,
                            TaskResult, cosine, evaluate_suite,
                            evaluate_task, fractional_ranks, load_sts_tsv,
                            pearson, predict_scores, score_pairs, spearman,
                            write_report_csv)

scipy_stats = pytest.importorskip("scipy.stats")


# -- independent oracle: naive O(n^2) ranks, explicit-loop moments --------

def oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((xs[i] - mx) * (ys[i] - my) for i in range(n))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)


def oracle_ranks(xs):
    # rank of x = count of smaller values + half the other equal values,
    # counted pairwise without any sorting
    out = []
    for i, x in enumerate(xs):
        smaller = sum(1 for y in xs if y < x)
        equal = sum(1 for y in xs if y == x)
        out.append(smaller + 0.5 * (equal - 1) + 1.0)
    return out


def oracle_spearman(xs, ys):
    return oracle_pearson(oracle_ranks(xs), oracle_ranks(ys))


def test_pearson_hand_case():
    assert pearson([1, 2, 3], [1, 3, 2]) == 0.5
    assert pearson([1, 2, 3], [10, 20, 30]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0


def test_fractional_ranks_hand_cases():
    assert np.array_equal(fractional_ranks([10.0, 20.0, 20.0, 30.0]),
                          [1.0, 2.5, 2.5, 4.0])
    assert np.array_equal(fractional_ranks([5.0, 5.0, 5.0]),
                          [2.0, 2.0, 2.0])
    assert np.array_equal(fractional_ranks([3.0, 1.0, 2.0]),
                          [3.0, 1.0, 2.0])


def test_spearman_hand_case():
    # one swapped neighbor in 4 points: rho = 1 - 6*2/(4*15) = 0.8
    assert abs(spearman([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-15
    assert spearman([1, 2, 3], [10, 100, 1000]) == 1.0


def test_correlations_match_oracle_with_heavy_ties(rng):
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(5, 40))
        # integer draws from a narrow range force plenty of ties
        xs = rng.integers(0, 6, size=n).astype(float)
        ys = rng.integers(0, 6, size=n).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        worst = max(worst,
                    abs(pearson(xs, ys) - oracle_pearson(list(xs), list(ys))),
                    abs(spearman(xs, ys) - oracle_spearman(list(xs), list(ys))))
    assert worst < 1e-12, f"worst deviation from oracle {worst:.2e}"


def test_correlations_match_scipy(rng):
    for trial in range(100):
        n = int(rng.integers(4, 60))
        if trial % 2:
            xs = rng.integers(0, 8, size=n).astype(float)
            ys = rng.integers(0, 8, size=n).astype(float)
        else:
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        assert abs(pearson(xs, ys) - scipy_stats.pearsonr(xs, ys)[0]) < 1e-12
        assert abs(spearman(xs, ys)
                   - scipy_stats.spearmanr(xs, ys)[0]) < 1e-12


def test_constant_input_raises():
    with pytest.raises(ConstantInputError):
        pearson([1.0, 1.0, 1.0], [1, 2, 3])
    with pytest.raises(ConstantInputError):
        spearman([1, 2, 3], [7.0, 7.0, 7.0])


def test_correlation_shape_guards():
    with pytest.raises(ShapeMismatchError):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(DataError):
        pearson([1.0], [2.0])


def test_cosine_values():
    assert cosine([1, 0], [0, 1]) == 0.0
    assert abs(cosine([1, 1], [1, 1]) - 1.0) < 1e-15
    assert abs(cosine([1, 2, 3], [-1, -2, -3]) + 1.0) < 1e-15
    with pytest.raises(ShapeMismatchError):
        cosine([1, 2], [1, 2, 3])


def test_cosine_zero_norm_counter():
    ev.reset_zero_norm_count()
    with pytest.warns(UserWarning, match="zero-norm"):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    with pytest.warns(UserWarning):
        cosine([1.0, 2.0], [0.0, 0.0])
    assert ev.zero_norm_count() == 2
    ev.reset_zero_norm_count()
    assert ev.zero_norm_count() == 0


# -- task evaluation ------------------------------------------------------

def test_scored_pair_gold_range():
    ScoredPair("a", "b", 0.0)
    ScoredPair("a", "b", 5.0)
    with pytest.raises(DataError):
        ScoredPair("a", "b", 5.1)
    with pytest.raises(DataError):
        ScoredPair("a", "b", -0.1)


def test_task_validation():
    with pytest.raises(DataError):
        StsTask("empty", ())
    with pytest.raises(DataError):
        StsTask("t", (ScoredPair("a", "b", 1.0),), split="validation")


def test_evaluate_task_planted_perfect(tiny_model, tiny_corpus, train_pool):
    """Golds set to a monotone transform of the model's own cosines must
    score a perfect Spearman."""
    pairs = []
    seen = set()
    for i in range(8):
        a, b = tiny_corpus[i], tiny_corpus[i + 9]
        pool = train_pool
        from sedkit.encoder import encode
        c = cosine(encode(tiny_model, a, pool), encode(tiny_model, b, pool))
        if c in seen:
            continue
        seen.add(c)
        pairs.append(ScoredPair(a, b, 2.5 + 2.49 * math.tanh(3.0 * c)))
    task = StsTask("planted", tuple(pairs))
    p, s = evaluate_task(tiny_model, task, train_pool)
    assert abs(s - 100.0) < 1e-9
    assert p <= 100.0


def test_evaluate_task_reversed_is_minus_100(tiny_model, tiny_corpus,
                                             train_pool):
    from sedkit.encoder import encode
    pairs, seen = [], set()
    for i in range(8):
        a, b = tiny_corpus[i], tiny_corpus[i + 9]
        c = cosine(encode(tiny_model, a, train_pool),
                   encode(tiny_model, b, train_pool))
        if c in seen:
            continue
        seen.add(c)
        pairs.append(ScoredPair(a, b, 2.5 - 2.49 * math.tanh(3.0 * c)))
    task = StsTask("reversed", tuple(pairs))
    _, s = evaluate_task(tiny_model, task, train_pool)
    assert abs(s + 100.0) < 1e-9


def test_evaluate_task_matches_manual_composition(tiny_model, tiny_world,
                                                  eval_pool):
    task = tiny_world.sts["test"]
    p, s = evaluate_task(tiny_model, task, eval_pool)
    preds = predict_scores(tiny_model, task, eval_pool)
    golds = np.array([pair.gold for pair in task.pairs])
    assert p == 100.0 * pearson(preds, golds)
    assert s == 100.0 * spearman(preds, golds)


def test_evaluate_task_constant_gold_names_task(tiny_model, tiny_corpus,
                                                train_pool):
    task = StsTask("allsame", tuple(
        ScoredPair(tiny_corpus[i], tiny_corpus[i + 3], 2.0) for i in range(4)))
    with pytest.raises(ConstantInputError, match="allsame"):
        evaluate_task(tiny_model, task, train_pool)


def test_evaluate_suite_average_and_partial(tiny_model, tiny_world,
                                            eval_pool):
    good1 = tiny_world.sts["test"]
    good2 = StsTask("other", tiny_world.sts["dev"].pairs)
    bad = StsTask("constant", tuple(
        ScoredPair(p.sentence_1, p.sentence_2, 3.0)
        for p in good1.pairs[:5]))
    report = evaluate_suite(tiny_model, [good1, good2, bad], eval_pool)
    assert report.partial
    assert set(report.per_task) == {good1.name, "other"}
    assert "constant" in report.failed
    vals = [r.spearman_x100 for r in report.per_task.values()]
    assert abs(report.average_spearman_x100 - np.mean(vals)) < 1e-12
    assert report.metadata["pool_k"] == eval_pool.k
    assert report.metadata["flow"] is False


def test_evaluate_suite_unique_names(tiny_model, tiny_world, eval_pool):
    t = tiny_world.sts["test"]
    with pytest.raises(DataError):
        evaluate_suite(tiny_model, [t, t], eval_pool)
    with pytest.raises(DataError):
        evaluate_suite(tiny_model, [], eval_pool)


# -- one scorer: model, model+flow, ensemble ------------------------------

def _old_per_pair_scores(embed_side, task, latent=None):
    """The per-pair composition: each side encoded in task order, then
    one cosine per row (per-row flow passes when `latent` is given)."""
    e1 = embed_side([p.sentence_1 for p in task.pairs])
    e2 = embed_side([p.sentence_2 for p in task.pairs])
    if latent is not None:
        e1 = np.stack([latent(row) for row in e1])
        e2 = np.stack([latent(row) for row in e2])
    return np.array([cosine(e1[i], e2[i]) for i in range(len(task.pairs))])


def test_scores_match_per_pair_composition(tiny_model, tiny_world,
                                           eval_pool):
    from sedkit import diffcore as dc
    from sedkit.encoder import encode_batch
    from sedkit.experiments import full_ensemble_predict
    from sedkit.flow import CouplingFlow, flow_forward
    from sedkit.objectives import EnsembleSpec, ensemble_mean_embeddings

    task = tiny_world.sts["test"]
    golds = np.array([p.gold for p in task.pairs])

    def encode_side(sents):
        with dc.no_grad():
            return encode_batch(tiny_model, sents, eval_pool).data

    old = _old_per_pair_scores(encode_side, task)
    assert np.array_equal(predict_scores(tiny_model, task, eval_pool), old)

    other = tiny_model.clone()
    other.params["tok_emb"].data *= 0.9
    spec = EnsembleSpec([tiny_model, other], target_pool=eval_pool)
    ens_embed = functools.partial(ensemble_mean_embeddings, spec)
    old_ens = _old_per_pair_scores(ens_embed, task)
    assert np.array_equal(score_pairs(ens_embed, task), old_ens)
    report = full_ensemble_predict(EnsembleSpec([tiny_model, other]),
                                   [task], eval_pool)
    assert report.per_task[task.name].pearson_x100 == 100.0 * pearson(
        old_ens, golds)
    assert report.per_task[task.name].spearman_x100 == 100.0 * spearman(
        old_ens, golds)

    flow = CouplingFlow(tiny_model.arch.hidden, n_layers=2, seed=4)
    rng = np.random.default_rng(5)
    for prm in flow.parameters():
        prm.data = prm.data + rng.normal(0.0, 0.3, size=prm.data.shape)
    old_flow = _old_per_pair_scores(
        encode_side, task, latent=lambda row: flow_forward(flow, row)[0])
    new_flow = predict_scores(tiny_model, task, eval_pool, flow=flow)
    assert np.max(np.abs(new_flow - old_flow)) <= 1e-12
    assert not np.array_equal(new_flow, old)


def test_repeated_sentence_is_encoded_once(tiny_model, tiny_corpus,
                                           eval_pool, monkeypatch):
    import sedkit.encoder as enc
    from sedkit.experiments import full_ensemble_predict
    from sedkit.objectives import EnsembleSpec

    rows = []
    real = enc.encode_batch

    def counting(model, sentences, pool):
        rows.append(len(sentences))
        return real(model, sentences, pool)

    monkeypatch.setattr(enc, "encode_batch", counting)
    a, b, c = tiny_corpus[0], tiny_corpus[4], tiny_corpus[8]
    task = StsTask("repeats", (ScoredPair(a, b, 1.0), ScoredPair(a, c, 2.0),
                               ScoredPair(b, a, 3.0), ScoredPair(c, c, 4.0)))
    predict_scores(tiny_model, task, eval_pool)
    assert sum(rows) == 3
    rows.clear()
    full_ensemble_predict(EnsembleSpec([tiny_model, tiny_model.clone()]),
                          [task], eval_pool)
    assert sum(rows) == 2 * 3


def test_metric_applies_without_flow(tiny_model, tiny_world, eval_pool):
    from sedkit.encoder import encode
    task = tiny_world.sts["test"]
    preds = predict_scores(tiny_model, task, eval_pool,
                           metric="neg_euclidean")
    for pair, got in zip(task.pairs, preds):
        u = encode(tiny_model, pair.sentence_1, eval_pool)
        v = encode(tiny_model, pair.sentence_2, eval_pool)
        assert got == -float(np.linalg.norm(u - v))
    with pytest.raises(DataError, match="metric"):
        predict_scores(tiny_model, task, eval_pool, metric="manhattan")


def test_unknown_metric_fails_before_embedding(tiny_model, tiny_world,
                                              eval_pool, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("encode_many reached with a bad metric")

    monkeypatch.setattr(ev, "encode_many", never)
    with pytest.raises(DataError, match="metric"):
        evaluate_suite(tiny_model, [tiny_world.sts["test"]], eval_pool,
                       metric="manhattan")


def test_non_finite_predictions_fail_the_task(tiny_model, tiny_world,
                                              eval_pool):
    nan = np.full(5, np.nan)
    with pytest.raises(DataError, match="non-finite"):
        pearson(nan, np.arange(5.0))
    with pytest.raises(DataError, match="non-finite"):
        spearman(nan, np.arange(5.0))
    broken = tiny_model.clone()
    broken.params["tok_emb"].data[:] = np.nan
    task = tiny_world.sts["test"]
    assert np.all(np.isnan(predict_scores(broken, task, eval_pool)))
    report = evaluate_suite(broken, [task], eval_pool)
    assert report.per_task == {}
    assert "non-finite" in report.failed[task.name]


# -- TSV loading ----------------------------------------------------------

def test_load_sts_tsv_basic(tmp_path):
    f = tmp_path / "mytask.tsv"
    f.write_text("# header comment\n"
                 "a b c\td e f\t3.5\n"
                 "\n"
                 "g h\ti j\t0\n")
    task = load_sts_tsv(f)
    assert task.name == "mytask"
    assert len(task.pairs) == 2
    assert task.pairs[0] == ScoredPair("a b c", "d e f", 3.5)
    assert ev.last_load_errors == []


def test_load_sts_tsv_crlf_equivalent(tmp_path):
    lf = tmp_path / "lf.tsv"
    crlf = tmp_path / "crlf.tsv"
    body = "a\tb\t1.0\nc\td\t2.0\n"
    lf.write_bytes(body.encode())
    crlf.write_bytes(body.replace("\n", "\r\n").encode())
    t1, t2 = load_sts_tsv(lf), load_sts_tsv(crlf)
    assert t1.pairs == t2.pairs


def test_load_sts_tsv_records_bad_lines(tmp_path):
    f = tmp_path / "messy.tsv"
    f.write_text("a\tb\t1.0\n"
                 "only two\tfields\n"
                 "a\tb\tseven\n"
                 "a\tb\t7.0\n"
                 "c\td\t4.0\n")
    task = load_sts_tsv(f)
    assert len(task.pairs) == 2
    assert len(ev.last_load_errors) == 3
    assert any("3 tab-separated" in e for e in ev.last_load_errors)
    assert any("not a number" in e for e in ev.last_load_errors)
    assert any("outside [0, 5]" in e for e in ev.last_load_errors)


def test_load_sts_tsv_no_valid_lines(tmp_path):
    f = tmp_path / "broken.tsv"
    f.write_text("bad line\nworse\t9.0\n")
    with pytest.raises(DataError, match="no valid lines"):
        load_sts_tsv(f)
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_sts_tsv(empty)


# -- CSV reporting --------------------------------------------------------

def test_write_report_rounds_only_at_csv(tmp_path):
    report = CorrelationReport(
        per_task={"t1": TaskResult(41.23456, 39.87654, 10),
                  "t2": TaskResult(50.0, 60.005, 12)},
        average_pearson_x100=45.61728,
        average_spearman_x100=49.94077,
        metadata={"model": "demo"},
    )
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["task", "pearson_x100", "spearman_x100"]
    assert rows[1] == ["t1", "41.23", "39.88"]
    assert rows[3] == ["Avg.", "45.62", "49.94"]
    # raw values stay unrounded on the report object
    assert report.per_task["t1"].pearson_x100 == 41.23456
    sidecar = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert sidecar["metadata"]["model"] == "demo"
    assert sidecar["partial"] is False
    assert sidecar["n_tasks"] == 2


def test_written_average_matches_rows(tiny_model, tiny_world, eval_pool,
                                      tmp_path):
    tasks = [tiny_world.sts["test"],
             StsTask("d", tiny_world.sts["dev"].pairs)]
    report = evaluate_suite(tiny_model, tasks, eval_pool)
    out = tmp_path / "r.csv"
    write_report_csv(report, out)
    rows = list(csv.reader(out.open()))
    body = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
    avg = body.pop("Avg.")
    # rounded average equals the average of raw values, rounded
    assert avg[0] == round(report.average_pearson_x100, 2)
    assert avg[1] == round(report.average_spearman_x100, 2)
