"""Independent seeded runs in worker processes: grid cells, pipeline
members, stability members and students give the same bytes and the
same warnings on one usable CPU as on two, a worker that dies is an
error, and no worker outlives its call."""

import multiprocessing
import os
import subprocess
import sys
import warnings

import pytest

import sedkit
import sedkit.experiments as ex
from sedkit.cli import main, read_corpus
from sedkit.config import (CtSection, EvalSection, GridSection,
                           PretrainSection, RunConfig, RunSection,
                           SedSection, StabilitySection, render_config)
from sedkit.encoder import EncoderArch
from sedkit.errors import DataError, DivergenceError
from sedkit.evalsts import load_sts_tsv
from sedkit.experiments import DataBundle, derive_seed, run_pipeline

SEED = 13
WORLD_ARGS = ["--clusters", "3", "--sentences-per-cluster", "10",
              "--vocab-size", "30", "--sts-pairs", "12",
              "--nli-pairs", "24", "--seed", "11"]
CFG = RunConfig(
    run=RunSection(stages=("pretrain", "ct", "sed"), seed=SEED),
    arch=EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8),
    pretrain=PretrainSection(steps=20, batch=8, lr=1e-3, mask_prob=0.15),
    ct=CtSection(steps=4, batch=8, start_lr=1e-4, end_lr=1e-5,
                 negatives_per_positive=7),
    sed=SedSection(members=2, epochs=1, batch=8),
    grid=GridSection(bounds=(0.0, 0.3), seeds_per_bound=2, steps=2,
                     batch=4, lr=1e-3),
    stability=StabilitySection(runs=3),
    eval=EvalSection(pool_k=2),
)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """A tiny world, its config and a pretrained base checkpoint."""
    root = tmp_path_factory.mktemp("workers")
    world = root / "world"
    assert main(["gen-synthetic", "--out", str(world)] + WORLD_ARGS) == 0
    ini = root / "tiny.ini"
    ini.write_text(render_config(CFG))
    assert main(["pretrain", "--config", str(ini), "--corpus",
                 str(world / "corpus.txt"), "--out", str(root)]) == 0
    grid = ["grid-search", "--model", str(root / "base.ckpt"),
            "--train-pairs", str(world / "sts_train.tsv"),
            "--dev-task", str(world / "sts_dev.tsv"), "--config", str(ini)]
    stability = ["stability", "--base", str(root / "base.ckpt"),
                 "--corpus", str(world / "corpus.txt"),
                 "--task", str(world / "sts_test.tsv"), "--config", str(ini)]
    return {"root": root, "world": world, "grid": grid,
            "stability": stability}


def cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def tree(path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_one_and_two_cpus_give_the_same_bytes_and_warnings(ws, tmp_path,
                                                           monkeypatch,
                                                           capsys):
    """grid-search (one bound's cells diverge), stability (one student
    diverges) and run_pipeline write the same files and issue the same
    warnings in the same order with one or two usable CPUs; with two,
    the runs train in other processes, none of which outlives its call."""
    pid_file = tmp_path / "pids"
    real_loss, real_ct, real_sed = (ex.sts_regression_loss, ex.ct_loss,
                                    ex.train_sed)

    def note_pid():
        with open(pid_file, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    def regression_loss(model, batch, target_map):
        note_pid()
        loss = real_loss(model, batch, target_map)
        return loss * float("nan") if target_map.lower_bound == 0.3 else loss

    def ct_loss(model_a, model_b, batch):
        note_pid()
        return real_ct(model_a, model_b, batch)

    def train_sed(ensemble, corpus, cfg, seed, student):
        if seed == derive_seed(SEED, "sed", 1):
            raise DivergenceError("loss is nan at step 1")
        return real_sed(ensemble, corpus, cfg, seed, student)

    monkeypatch.setattr(ex, "sts_regression_loss", regression_loss)
    monkeypatch.setattr(ex, "ct_loss", ct_loss)
    monkeypatch.setattr(ex, "train_sed", train_sed)
    world = ws["world"]
    bundle = DataBundle(read_corpus(world / "corpus.txt"),
                        [load_sts_tsv(world / "sts_test.tsv")])
    runs = {}
    for n in (1, 2):
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        pid_file.write_text("")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(ws["grid"] + ["--out", str(out)]) == 0
            assert main(ws["stability"] + ["--out", str(out)]) == 0
            run_pipeline(CFG, bundle, out_dir=out / "pipeline")
        capsys.readouterr()
        assert multiprocessing.active_children() == []
        runs[n] = (tree(out), [(w.category, str(w.message)) for w in caught],
                   set(pid_file.read_text().split()))
    (files_1, warned_1, pids_1), (files_2, warned_2, pids_2) = runs[1], runs[2]
    assert {"grid_search.csv", "grid_search_manifest.json", "stability.csv",
            "stability_manifest.json", "pipeline/manifest.json",
            "pipeline/ct_0.ckpt", "pipeline/ct_1.ckpt",
            "pipeline/student.ckpt"} <= set(files_1)
    assert files_1 == files_2
    assert [m for _, m in warned_1] == [
        "grid cell bound=0.3 seed#0 failed: loss is nan at step 1",
        "grid cell bound=0.3 seed#1 failed: loss is nan at step 1",
        "stability run 1 failed and was excluded: loss is nan at step 1"]
    assert warned_2 == warned_1
    assert pids_1 == {str(os.getpid())}
    assert pids_2 and str(os.getpid()) not in pids_2


def test_a_worker_that_dies_is_an_error(ws, tmp_path, monkeypatch, capsys):
    """A grid cell whose worker exits makes grid-search exit 1 naming the
    job and its seed; nothing is written and no worker is left."""
    parent = os.getpid()

    def exit_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(ex, "_train_regression", exit_in_worker)
    out = tmp_path / "out"
    assert main(ws["grid"] + ["--bounds", "0.0,0.3",
                              "--seeds-per-bound", "1",
                              "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (
        f"job 0 of 2 (seed {derive_seed(SEED, 'grid', 0)})" in err), err
    assert list(out.iterdir()) == []
    assert multiprocessing.active_children() == []


def warn_or_fail(i: int) -> int:
    if i == 2:
        raise DataError("job 2 failed")
    warnings.warn(f"job {i}")
    return i


@pytest.mark.parametrize("n", [1, 2])
def test_results_keep_their_order_and_a_job_error_its_type(n, monkeypatch):
    """Results come back in job order. A job's exception reaches the
    caller with its type, after the warnings of the jobs before it."""
    cpus(monkeypatch, n)
    assert ex._run_each(pow, [(2, i) for i in range(5)], [0] * 5) == [
        1, 2, 4, 8, 16]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="job 2 failed"):
            ex._run_each(warn_or_fail, [(i,) for i in range(4)], [0] * 4)
    assert [str(w.message) for w in caught] == ["job 0", "job 1"]
    assert multiprocessing.active_children() == []


def _child(code: str, *argv) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe stays buffered
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)


def test_output_buffered_before_the_workers_start_is_written_once(
        ws, tmp_path):
    code = ("import os, sys\n"
            "print('unflushed marker')\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from sedkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = _child(code, *ws["grid"], "--bounds", "0.0,0.3",
                  "--seeds-per-bound", "1", "--out", str(tmp_path))
    assert proc.stdout.count("unflushed marker") == 1, proc.stdout


def test_importing_the_cli_loads_no_process_pool():
    proc = _child("import sys, sedkit.cli\n"
                  "print(sorted(m for m in sys.modules if m.startswith("
                  "('concurrent', 'multiprocessing'))))\n")
    assert proc.stdout.strip() == "[]"
