"""Evaluation harness: hand-checked correlation values, a brute-force
oracle implemented independently inside this file, scipy cross-checks,
TSV parsing edge cases, and the reporting layer."""

import csv
import functools
import json
import math
import re
import warnings

import numpy as np
import pytest

from sedkit.encoder import PoolingSpec, encode_many
from sedkit.errors import ConstantInputError, DataError, ShapeMismatchError
from sedkit.evalsts import (CorrelationReport, ScoredPair, StsTask,
                            TaskResult, cosine, evaluate_suite,
                            evaluate_task, fractional_ranks, load_sts_tsv,
                            pearson, predict_scores, score_pairs,
                            score_suite, spearman, write_report_csv)


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
    """The only test in this file that needs scipy, so only it skips on a
    numpy-only install."""
    scipy_stats = pytest.importorskip("scipy.stats")
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
    """Every zero-norm cosine warns once, and no other cosine warns."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
        assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0
        cosine([1.0, 2.0], [2.0, 1.0])
    assert [(w.category, str(w.message)) for w in caught] == 2 * [
        (UserWarning, "zero-norm vector in cosine; returning 0")]


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


def test_evaluate_task_planted_perfect(tiny_model, tiny_corpus, train_pool):
    """Golds set to a monotone transform of the model's own cosines must
    score a perfect Spearman."""
    pairs = []
    seen = set()
    for i in range(8):
        a, b = tiny_corpus[i], tiny_corpus[i + 9]
        c = cosine(*encode_many(tiny_model, [a, b], train_pool))
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
    pairs, seen = [], set()
    for i in range(8):
        a, b = tiny_corpus[i], tiny_corpus[i + 9]
        c = cosine(*encode_many(tiny_model, [a, b], train_pool))
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
    assert set(report.per_task) == {good1.name, "other"}
    assert list(report.failed) == ["constant"]
    vals = [r.spearman_x100 for r in report.per_task.values()]
    assert abs(report.average_spearman_x100 - np.mean(vals)) < 1e-12


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
    from sedkit.encoder import TRAIN_POOL, encode_batch, encode_many
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
    spec = EnsembleSpec([tiny_model, other])
    ens_embed = functools.partial(ensemble_mean_embeddings, spec,
                                  pool=eval_pool)
    # at a pool other than the training one, the mean is the members' mean
    # at that pool (two terms add alike in either order)
    assert eval_pool != TRAIN_POOL
    sents = [p.sentence_1 for p in task.pairs]
    at_pool = [encode_many(m, sents, eval_pool) for m in (tiny_model, other)]
    assert np.array_equal(ens_embed(sents), (at_pool[0] + at_pool[1]) / 2)
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
        encode_side, task,
        latent=lambda row: flow_forward(flow, row[None])[0][0])
    new_flow = predict_scores(tiny_model, task, eval_pool, flow=flow)
    assert np.max(np.abs(new_flow - old_flow)) <= 1e-12
    assert not np.array_equal(new_flow, old)


def test_repeated_sentence_is_encoded_once(tiny_model, tiny_corpus,
                                           eval_pool, monkeypatch):
    import sedkit.encoder as enc
    from sedkit.experiments import full_ensemble_predict
    from sedkit.objectives import EnsembleSpec

    rows = []
    real = enc.EncoderModel.forward_ids

    def counting(model, ids, mask):
        rows.append(ids.shape[0])
        return real(model, ids, mask)

    monkeypatch.setattr(enc.EncoderModel, "forward_ids", counting)
    a, b, c = tiny_corpus[0], tiny_corpus[4], tiny_corpus[8]
    task = StsTask("repeats", (ScoredPair(a, b, 1.0), ScoredPair(a, c, 2.0),
                               ScoredPair(b, a, 3.0), ScoredPair(c, c, 4.0)))
    predict_scores(tiny_model, task, eval_pool)
    assert sum(rows) == 3
    rows.clear()
    full_ensemble_predict(EnsembleSpec([tiny_model, tiny_model.clone()]),
                          [task], eval_pool)
    assert sum(rows) == 2 * 3


def test_non_finite_predictions_fail_the_task(tiny_model, tiny_world,
                                              eval_pool):
    nan = np.full(5, np.nan)
    with pytest.raises(DataError, match="non-finite"):
        pearson(nan, np.arange(5.0))
    with pytest.raises(DataError, match="non-finite"):
        spearman(nan, np.arange(5.0))
    broken = tiny_model.clone()
    broken.params["tok_emb"].data[:] = np.nan
    task, good = tiny_world.sts["test"], StsTask("good",
                                                 tiny_world.sts["dev"].pairs)
    assert np.all(np.isnan(predict_scores(broken, task, eval_pool)))
    # beside a task that scores, the broken one fails alone: a partial
    # report whose averages are the good task's
    report = score_suite(
        [task, good], lambda t: predict_scores(
            broken if t is task else tiny_model, t, eval_pool))
    assert list(report.per_task) == ["good"]
    assert "non-finite" in report.failed[task.name]
    assert report.average_spearman_x100 == \
        report.per_task["good"].spearman_x100
    # alone, no task scores, so there is no average to report
    with pytest.raises(DataError, match=f"^no task evaluated: task "
                                        f"'{task.name}': .*non-finite"):
        evaluate_suite(broken, [task], eval_pool)


# -- TSV loading ----------------------------------------------------------

def test_load_sts_tsv_basic(tmp_path):
    """A leading byte-order mark does not hide the '#' of the header."""
    text = "# header comment\na b c\td e f\t3.5\n\ng h\ti j\t0\n"
    for name, head in (("mytask", b""), ("bom", b"\xef\xbb\xbf")):
        f = tmp_path / f"{name}.tsv"
        f.write_bytes(head + text.encode("utf-8"))
        task = load_sts_tsv(f)
        assert task.name == name
        assert task.pairs == (ScoredPair("a b c", "d e f", 3.5),
                              ScoredPair("g h", "i j", 0.0))


def test_load_sts_tsv_crlf_equivalent(tmp_path):
    lf = tmp_path / "lf.tsv"
    crlf = tmp_path / "crlf.tsv"
    body = "a\tb\t1.0\nc\td\t2.0\n"
    lf.write_bytes(body.encode())
    crlf.write_bytes(body.replace("\n", "\r\n").encode())
    t1, t2 = load_sts_tsv(lf), load_sts_tsv(crlf)
    assert t1.pairs == t2.pairs


def test_load_sts_tsv_rejects_first_bad_line(tmp_path):
    """One malformed line rejects the whole file, naming the path and the
    physical line (comments, blank lines and CR endings count)."""
    f = tmp_path / "messy.tsv"
    fields = "expected 3 tab-separated fields, found"
    for bad, reason in (("only two\tfields", f"{fields} 2"),
                        ("a\tb\tc\t1.0", f"{fields} 4"),
                        ("a\tb\tseven", "could not convert .*'seven'"),
                        ("a\tb\t7.0", r"gold score 7.0 outside \[0, 5\]"),
                        ("a\tb\tnan", r"gold score nan outside \[0, 5\]")):
        f.write_bytes(("# c\r\na\tb\t1.0\r\n\r\n" + bad
                       + "\r\na\tb\tworse\r\nc\td\t4.0\r\n").encode())
        where = re.escape(f"{f}: line 4: ")
        with pytest.raises(DataError, match=f"^{where}{reason}$"):
            load_sts_tsv(f)


def test_load_sts_tsv_no_valid_lines(tmp_path):
    f = tmp_path / "broken.tsv"
    f.write_text("bad line\nworse\t9.0\n")
    with pytest.raises(DataError, match="line 1: expected 3"):
        load_sts_tsv(f)
    for name, text in (("empty", ""), ("blank", "\n \n"),
                       ("comments", "# a\tb\t1.0\n\n#\n")):
        path = tmp_path / f"{name}.tsv"
        path.write_text(text)
        with pytest.raises(DataError,
                           match=f"^{re.escape(str(path))}: no data lines$"):
            load_sts_tsv(path)


# -- CSV reporting --------------------------------------------------------

def test_write_report_rounds_only_at_csv(tmp_path):
    report = CorrelationReport(
        per_task={"t1": TaskResult(41.23456, 39.87654),
                  "t2": TaskResult(50.0, 60.005)},
        average_pearson_x100=45.61728,
        average_spearman_x100=49.94077,
        failed={"t3": "task 't3': constant input"},
    )
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["task", "pearson_x100", "spearman_x100"]
    assert rows[1] == ["t1", "41.23", "39.88"]
    assert rows[3] == ["Avg.", "45.62", "49.94"]
    # raw values stay unrounded on the report object
    assert report.per_task["t1"].pearson_x100 == 41.23456
    # the sidecar carries the failures only; provenance is the manifest's
    sidecar = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert sidecar == {"failed": {"t3": "task 't3': constant input"}}


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
