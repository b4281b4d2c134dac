"""Command-line behavior: exit codes, artifacts on disk, determinism of
subcommand pipelines, corpus sampling, and output directory resolution.

Commands run in-process through main(argv) so stdout/stderr can be
captured and no subprocess management is needed.
"""

import dataclasses
import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from sedkit.cli import main, read_corpus, sample_corpus
from sedkit.config import (ArchSection, CtSection, DataSection, EvalSection,
                           FlowSection, GridSection, NliSection,
                           PretrainSection, RunConfig, RunSection, SedSection,
                           StabilitySection, SupervisedSection, render_config)
from sedkit.errors import DataError
from sedkit.evalsts import load_sts_tsv
from sedkit.experiments import DataBundle, PipelineSpec, run_pipeline
from sedkit.synthetic import load_nli_tsv

WORLD_ARGS = ["--clusters", "3", "--sentences-per-cluster", "10",
              "--vocab-size", "30", "--sts-pairs", "12",
              "--nli-pairs", "24", "--seed", "11"]


def sha(path) -> str:
    with open(str(path), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_config() -> RunConfig:
    return RunConfig(
        run=RunSection(stages=("pretrain", "ct", "sed"), seed=13,
                       out_dir="runs"),
        arch=ArchSection(layers=2, hidden=8, heads=2, ff=16, max_len=8),
        data=DataSection(corpus_size=0),
        pretrain=PretrainSection(steps=30, batch=8, lr=1e-3, mask_prob=0.15),
        nli=NliSection(steps=6, batch=8, peak_lr=2e-4, warmup_fraction=0.1),
        ct=CtSection(steps=6, batch=8, start_lr=1e-4, end_lr=1e-5,
                     negatives_per_positive=7),
        sed=SedSection(members=2, epochs=2, batch=8, peak_lr=1e-3,
                       warmup_fraction=0.1),
        flow=FlowSection(layers=2, lr=1e-3, epochs=1, batch=8),
        supervised=SupervisedSection(max_epochs=2, batch=4, lr=1e-3,
                                     patience=1, lower_bound=0.5),
        grid=GridSection(bounds=(0.3,), seeds_per_bound=1, steps=2, batch=4,
                         lr=1e-3),
        stability=StabilitySection(runs=2),
        eval=EvalSection(pool_k=2),
    )


@pytest.fixture(autouse=True)
def _no_env_out(monkeypatch):
    monkeypatch.delenv("SEDKIT_OUT_DIR", raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared world + config + pretrained base checkpoint."""
    os.environ.pop("SEDKIT_OUT_DIR", None)
    ws = tmp_path_factory.mktemp("cliws")
    world = ws / "world"
    assert main(["gen-synthetic", "--out", str(world)] + WORLD_ARGS) == 0
    ini = ws / "tiny.ini"
    ini.write_text(render_config(cli_config()))
    runs = ws / "runs"
    rc = main(["pretrain", "--config", str(ini),
               "--corpus", str(world / "corpus.txt"), "--out", str(runs)])
    assert rc == 0
    return {"ws": ws, "world": world, "ini": str(ini), "runs": runs,
            "corpus": str(world / "corpus.txt"),
            "base": str(runs / "base.ckpt")}


# -- exit codes -----------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["pretrain"]) == 2  # missing required --corpus
    capsys.readouterr()


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["pretrain", "--corpus", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_checkpoint_kind_exits_1(workspace, tmp_path, capsys):
    rc = main(["evaluate", "--model", workspace["corpus"],
               "--task", str(workspace["world"] / "sts_test.tsv"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_eval_metric_exits_1(workspace, tmp_path, capsys):
    ini = tmp_path / "bad_metric.ini"
    ini.write_text(render_config(cli_config()).replace(
        "metric = cosine", "metric = manhattan"))
    for extra in ([], ["--flow", str(tmp_path / "flow.ckpt")]):
        rc = main(["evaluate", "--config", str(ini),
                   "--model", workspace["base"],
                   "--task", str(workspace["world"] / "sts_test.tsv"),
                   "--out", str(tmp_path)] + extra)
        assert rc == 1
        assert "eval.metric" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


# -- synthetic worlds -----------------------------------------------------

def test_gen_synthetic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-synthetic", "--out", str(a)] + WORLD_ARGS) == 0
    assert main(["gen-synthetic", "--out", str(b)] + WORLD_ARGS) == 0
    names = sorted(os.listdir(a))
    assert names == ["corpus.txt", "nli.tsv", "sts_dev.tsv", "sts_test.tsv",
                     "sts_train.tsv", "world.json"]
    assert names == sorted(os.listdir(b))
    for name in names:
        assert sha(a / name) == sha(b / name), name


def test_gen_synthetic_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = WORLD_ARGS[:-2]
    assert main(["gen-synthetic", "--out", str(a), "--seed", "1"] + base) == 0
    assert main(["gen-synthetic", "--out", str(b), "--seed", "2"] + base) == 0
    assert sha(a / "corpus.txt") != sha(b / "corpus.txt")


# -- training commands ----------------------------------------------------

def test_pretrain_deterministic_and_seed_sensitive(workspace, tmp_path):
    args = ["pretrain", "--config", workspace["ini"],
            "--corpus", workspace["corpus"]]
    d1, d2, d3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert main(args + ["--out", str(d3), "--seed", "99"]) == 0
    assert sha(d1 / "base.ckpt") == sha(workspace["runs"] / "base.ckpt")
    assert sha(d1 / "base.ckpt") == sha(d2 / "base.ckpt")
    assert sha(d1 / "base.ckpt") != sha(d3 / "base.ckpt")
    manifest = json.loads((d1 / "pretrain_manifest.json").read_text())
    assert manifest["stage"] == "pretrain"
    assert manifest["checkpoints"]["base"] == sha(d1 / "base.ckpt")


def test_pretrain_leaves_inputs_untouched(workspace, tmp_path):
    before = sha(workspace["corpus"])
    assert main(["pretrain", "--config", workspace["ini"],
                 "--corpus", workspace["corpus"],
                 "--out", str(tmp_path)]) == 0
    assert sha(workspace["corpus"]) == before


def test_corpus_subsampling_is_deterministic(workspace, tmp_path):
    cfg = dataclasses.replace(cli_config(),
                              data=DataSection(corpus_size=10))
    ini = tmp_path / "sub.ini"
    ini.write_text(render_config(cfg))
    args = ["pretrain", "--config", str(ini),
            "--corpus", workspace["corpus"]]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    assert (sha(tmp_path / "s1" / "base.ckpt")
            == sha(tmp_path / "s2" / "base.ckpt"))


def test_train_ct_member_index_in_artifacts(workspace, tmp_path):
    rc = main(["train-ct", "--config", workspace["ini"],
               "--base", workspace["base"], "--corpus", workspace["corpus"],
               "--member", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ct_1.ckpt").exists()
    manifest = json.loads((tmp_path / "ct_1_manifest.json").read_text())
    assert "ct_1" in manifest["checkpoints"]


def test_train_nli_writes_checkpoint(workspace, tmp_path):
    rc = main(["train-nli", "--config", workspace["ini"],
               "--base", workspace["base"],
               "--nli", str(workspace["world"] / "nli.tsv"),
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "nli_0.ckpt").exists()


def test_train_sed_pipeline_and_arch_mismatch(workspace, tmp_path, capsys):
    ct_dir = tmp_path / "ct"
    for member in ("0", "1"):
        assert main(["train-ct", "--config", workspace["ini"],
                     "--base", workspace["base"],
                     "--corpus", workspace["corpus"], "--member", member,
                     "--out", str(ct_dir)]) == 0
    sed_dir = tmp_path / "sed"
    rc = main(["train-sed", "--config", workspace["ini"],
               "--teachers", str(ct_dir / "ct_0.ckpt"),
               str(ct_dir / "ct_1.ckpt"),
               "--student-init", workspace["base"],
               "--corpus", workspace["corpus"], "--out", str(sed_dir)])
    assert rc == 0
    assert (sed_dir / "student.ckpt").exists()
    capsys.readouterr()

    wide_cfg = dataclasses.replace(
        cli_config(), arch=ArchSection(layers=2, hidden=16, heads=2, ff=16,
                                       max_len=8))
    wide_ini = tmp_path / "wide.ini"
    wide_ini.write_text(render_config(wide_cfg))
    wide_dir = tmp_path / "wide"
    assert main(["pretrain", "--config", str(wide_ini),
                 "--corpus", workspace["corpus"],
                 "--out", str(wide_dir)]) == 0
    rc = main(["train-sed", "--config", workspace["ini"],
               "--teachers", str(ct_dir / "ct_0.ckpt"),
               "--student-init", str(wide_dir / "base.ckpt"),
               "--corpus", workspace["corpus"],
               "--out", str(tmp_path / "mismatch")])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_cli_stages_match_pipeline_bytes(workspace, tmp_path, capsys):
    """The training subcommands and run_pipeline build each stage the
    same way: chained on one corpus and config, their checkpoints are
    byte-identical."""
    world, ini, base = workspace["world"], workspace["ini"], workspace["base"]
    cli_dir = tmp_path / "cli"
    for kind, data in (("ct", ["--corpus", workspace["corpus"]]),
                       ("nli", ["--nli", str(world / "nli.tsv")])):
        for member in ("0", "1"):
            assert main([f"train-{kind}", "--config", ini, "--base", base,
                         "--member", member, "--out", str(cli_dir)]
                        + data) == 0
    assert main(["train-sed", "--config", ini, "--teachers",
                 str(cli_dir / "ct_0.ckpt"), str(cli_dir / "ct_1.ckpt"),
                 "--student-init", base, "--corpus", workspace["corpus"],
                 "--out", str(cli_dir)]) == 0
    assert main(["fit-flow", "--config", ini,
                 "--model", str(cli_dir / "student.ckpt"),
                 "--corpus", workspace["corpus"], "--out", str(cli_dir)]) == 0
    capsys.readouterr()

    bundle = DataBundle(read_corpus(workspace["corpus"]),
                        [load_sts_tsv(world / "sts_test.tsv")],
                        nli=load_nli_tsv(world / "nli.tsv"))
    pairs = {"ct": [(base, "base"), (cli_dir / "ct_0.ckpt", "member_0"),
                    (cli_dir / "ct_1.ckpt", "member_1"),
                    (cli_dir / "student.ckpt", "student"),
                    (cli_dir / "flow.ckpt", "flow")],
             "nli": [(cli_dir / "nli_0.ckpt", "member_0"),
                     (cli_dir / "nli_1.ckpt", "member_1")]}
    for kind, stages in (("ct", ("pretrain", "ct", "sed", "flow")),
                         ("nli", ("pretrain", "nli", "sed"))):
        pipe_dir = tmp_path / f"pipeline_{kind}"
        run_pipeline(PipelineSpec(stages, cli_config()), bundle,
                     out_dir=pipe_dir)
        for cli_path, key in pairs[kind]:
            assert sha(cli_path) == sha(pipe_dir / f"{key}.ckpt"), (kind, key)


def test_train_supervised_trajectory_file(workspace, tmp_path):
    rc = main(["train-supervised", "--config", workspace["ini"],
               "--model", workspace["base"],
               "--train-pairs", str(workspace["world"] / "sts_train.tsv"),
               "--dev-task", str(workspace["world"] / "sts_dev.tsv"),
               "--lower-bound", "0.3", "--out", str(tmp_path)])
    assert rc == 0
    traj = json.loads((tmp_path / "dev_trajectory.json").read_text())
    assert traj["lower_bound"] == 0.3
    assert 1 <= len(traj["dev_spearman_x100"]) <= 2
    assert (tmp_path / "supervised.ckpt").exists()


def test_grid_search_command(workspace, tmp_path, capsys):
    rc = main(["grid-search", "--config", workspace["ini"],
               "--model", workspace["base"],
               "--train-pairs", str(workspace["world"] / "sts_train.tsv"),
               "--dev-task", str(workspace["world"] / "sts_dev.tsv"),
               "--bounds", "0.3", "--seeds-per-bound", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "selected lower bound: 0.3" in capsys.readouterr().out
    assert "selected,0.3" in (tmp_path / "grid_search.csv").read_text()


def test_fit_flow_then_evaluate_with_flow(workspace, tmp_path, capsys):
    rc = main(["fit-flow", "--config", workspace["ini"],
               "--model", workspace["base"], "--corpus", workspace["corpus"],
               "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["evaluate", "--config", workspace["ini"],
               "--model", workspace["base"],
               "--task", str(workspace["world"] / "sts_test.tsv"),
               "--flow", str(tmp_path / "flow.ckpt"),
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    sidecar = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert sidecar["metadata"]["flow"] is True


# -- evaluation commands --------------------------------------------------

def test_evaluate_writes_report(workspace, tmp_path, capsys):
    rc = main(["evaluate", "--config", workspace["ini"],
               "--model", workspace["base"],
               "--task", str(workspace["world"] / "sts_test.tsv"),
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sts_test:" in out and "Avg.:" in out
    text = (tmp_path / "report.csv").read_text()
    assert text.splitlines()[0] == "task,pearson_x100,spearman_x100"
    sidecar = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert sidecar["metadata"]["pool_k"] == 2
    assert sidecar["metadata"]["flow"] is False


def test_evaluate_tasks_directory(workspace, tmp_path, capsys):
    tasks = tmp_path / "tasks"
    tasks.mkdir()
    for name in ("sts_dev.tsv", "sts_test.tsv"):
        shutil.copy(workspace["world"] / name, tasks / name)
    rc = main(["evaluate", "--config", workspace["ini"],
               "--model", workspace["base"], "--tasks", str(tasks),
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sts_dev:" in out and "sts_test:" in out


def test_evaluate_pool_flag_changes_scores(workspace, tmp_path):
    task = str(workspace["world"] / "sts_test.tsv")
    texts = []
    for k in ("1", "2"):
        out = tmp_path / f"k{k}"
        assert main(["evaluate", "--config", workspace["ini"],
                     "--model", workspace["base"], "--task", task,
                     "--pool", k, "--out", str(out)]) == 0
        texts.append((out / "report.csv").read_text())
    assert texts[0] != texts[1]


def test_evaluate_requires_some_task(workspace, tmp_path, capsys):
    rc = main(["evaluate", "--config", workspace["ini"],
               "--model", workspace["base"], "--out", str(tmp_path)])
    assert rc == 1
    assert "no tasks" in capsys.readouterr().err


def test_stability_command(workspace, tmp_path, capsys):
    rc = main(["stability", "--config", workspace["ini"],
               "--base", workspace["base"], "--corpus", workspace["corpus"],
               "--task", str(workspace["world"] / "sts_test.tsv"),
               "--runs", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for group in ("members", "full_ensemble", "students"):
        assert group in out
    assert (tmp_path / "stability.csv").exists()


def test_ablate_pooling_command(workspace, tmp_path, capsys):
    rc = main(["ablate-pooling", "--config", workspace["ini"],
               "--model", f"base={workspace['base']}",
               "--task", str(workspace["world"] / "sts_test.tsv"),
               "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "pooling_ablation.csv").read_text()
    assert text.splitlines()[0] == "model,k1,k2,k3"
    assert "base," in capsys.readouterr().out


# -- output directory resolution ------------------------------------------

def test_env_out_dir_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("SEDKIT_OUT_DIR", str(target))
    assert main(["gen-synthetic"] + WORLD_ARGS) == 0
    assert (target / "corpus.txt").exists()


# -- corpus reading and sampling ------------------------------------------

def test_read_corpus_normalizes_newlines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"alpha beta\r\n\r\ngamma\rdelta\n\n")
    assert read_corpus(path) == ["alpha beta", "gamma", "delta"]
    (tmp_path / "empty.txt").write_text("\n\n")
    with pytest.raises(DataError):
        read_corpus(tmp_path / "empty.txt")


def test_sample_corpus_permutation_and_determinism(tmp_path):
    path = tmp_path / "c.txt"
    lines = [f"line {i}" for i in range(20)]
    path.write_text("\n".join(lines) + "\n")
    s1 = sample_corpus(path, 20, seed=4)
    s2 = sample_corpus(path, 20, seed=4)
    assert s1 == s2
    assert sorted(s1) == sorted(lines)  # full draw without replacement
    assert len(set(sample_corpus(path, 10, seed=4))) == 10


def test_sample_corpus_guards(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("a\nb\nc\n")
    with pytest.raises(DataError, match="without replacement"):
        sample_corpus(path, 4, seed=0)
    with pytest.raises(DataError):
        sample_corpus(path, 0, seed=0)
    assert len(sample_corpus(path, 4, seed=0, with_replacement=True)) == 4


def test_sample_corpus_with_replacement_is_uniform(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("\n".join(str(i) for i in range(10)) + "\n")
    draws = sample_corpus(path, 10000, seed=123, with_replacement=True)
    counts = np.bincount([int(d) for d in draws], minlength=10)
    # 4 sigma of Binomial(10000, 0.1) is about 120
    assert np.all(np.abs(counts - 1000) < 120), counts.tolist()
