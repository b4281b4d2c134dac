"""Command-line behavior: exit codes, artifacts on disk, determinism of
subcommand pipelines, corpus sampling, and output directory resolution.

Commands run in-process through main(argv) so stdout/stderr can be
captured; the malformed-config cases run main in a child process whose
address space is capped.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sedkit
from sedkit.checkpoint import save_checkpoint
from sedkit.cli import main, read_corpus
from sedkit.config import (CtSection, DataSection, EvalSection, FlowSection,
                           GridSection, NliSection, PretrainSection,
                           RunConfig, RunSection, SedSection,
                           StabilitySection, SupervisedSection, parse_config,
                           render_config)
from sedkit.encoder import EncoderArch
from sedkit.errors import DataError
from sedkit.evalsts import load_sts_tsv
from sedkit.experiments import (DataBundle, _hash_lines, _hash_nli,
                                _hash_task, derive_seed, run_pipeline,
                                sample_corpus)
from sedkit.flow import CouplingFlow
from sedkit.synthetic import (SyntheticWorldSpec, gen_synthetic_world,
                              load_nli_tsv)

WORLD_ARGS = ["--clusters", "3", "--sentences-per-cluster", "10",
              "--vocab-size", "30", "--sts-pairs", "12",
              "--nli-pairs", "24", "--seed", "11"]


def sha(path) -> str:
    with open(str(path), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_config() -> RunConfig:
    return RunConfig(
        run=RunSection(stages=("pretrain", "ct", "sed"), seed=13),
        arch=EncoderArch(layers=2, hidden=8, heads=2, ff=16, max_len=8),
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


def with_stages(cfg: RunConfig, stages) -> RunConfig:
    return dataclasses.replace(cfg, run=dataclasses.replace(cfg.run,
                                                            stages=stages))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared world + config + pretrained base checkpoint."""
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


def _main_in_child(argv) -> tuple[int, str]:
    """Exit code and stderr of `main(argv)` in a child process whose
    address space is capped at 2 GiB, so an allocation no machine can
    serve fails at once on any host."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from sedkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sedkit.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("case", [
    "key_before_header", "duplicate_key", "duplicate_section",
    "unclosed_header", "not_utf8", "unallocatable_arch",
    "unallocatable_flow", "unallocatable_world", "bom"])
def test_config_file_is_read_like_every_text_input(workspace, tmp_path,
                                                   case):
    """A config file is decoded like the other text inputs, so a leading
    BOM is dropped and the config trains the base it names. A malformed
    one exits 1 with one `error:` line naming the file and the line, no
    traceback and no file written; an arch, a flow or a synthetic world
    whose arrays cannot be allocated fails when it is built, and is named
    by its sizes."""
    with open(workspace["ini"], "rb") as fh:
        ini = fh.read()
    cfg, out = tmp_path / "run.ini", tmp_path / "out"
    body, names = {
        "key_before_header": (b"seed = 1\n[run]\nseed = 2\n",
                              f"{cfg}: line 1:"),
        "duplicate_key": (b"[run]\nseed = 1\nseed = 2\n", f"{cfg}: line 3:"),
        "duplicate_section": (b"[run]\nseed = 1\n[run]\nseed = 2\n",
                              f"{cfg}: line 3:"),
        "unclosed_header": (b"[run]\nseed = 1\n[arch\nlayers = 2\n",
                            f"{cfg}: line 3:"),
        "not_utf8": (b"[run]\nseed = \xff\n", f"{cfg}: line 2: byte 0xff"),
        "unallocatable_arch": (
            ini.replace(b"max_len = 8", b"max_len = 100000000000"),
            "max_len=100000000000"),
        "unallocatable_flow": (
            ini.replace(b"[flow]\nlayers = 2", b"[flow]\nlayers = 1000000000"),
            "1000000000 layers"),
        "unallocatable_world": (ini, "1000000000 clusters x 5 sentences "
                                     "over 2000000000 words"),
        "bom": (b"\xef\xbb\xbf" + ini, None),
    }[case]
    cfg.write_bytes(body)
    command = {"unallocatable_flow": ["fit-flow", "--model",
                                      workspace["base"], "--corpus",
                                      workspace["corpus"]],
               "unallocatable_world": ["gen-synthetic", "--clusters",
                                       "1000000000", "--vocab-size",
                                       "2000000000",
                                       "--sentences-per-cluster", "5"]
               }.get(case, ["pretrain", "--corpus", workspace["corpus"]])
    rc, err = _main_in_child(command + ["--config", str(cfg),
                                        "--out", str(out)])
    if names is None:
        assert rc == 0, err
        assert sha(out / "base.ckpt") == sha(workspace["base"])
        return
    assert rc == 1 and not list(out.glob("*"))
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert names in err, err


def test_member_stage_after_sed_exits_1(workspace, tmp_path, capsys):
    """An INI that trains members after the student is refused before
    any stage runs."""
    ini = tmp_path / "late.ini"
    ini.write_text(render_config(cli_config()).replace(
        "stages = pretrain, ct, sed", "stages = pretrain, ct, sed, nli"))
    out = tmp_path / "out"
    rc = main(["pretrain", "--config", str(ini), "--corpus",
               workspace["corpus"], "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "before sed" in err, err
    assert not out.exists()


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["pretrain", "--corpus", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_checkpoint_kind_exits_1(workspace, tmp_path, capsys):
    """A file that is no checkpoint, a checkpoint of the wrong kind, and a
    checksum-valid encoder whose metadata says heads = 0 (which used to
    escape as a ZeroDivisionError traceback) each exit 1 with a message."""
    flow_path = tmp_path / "flow.ckpt"
    save_checkpoint(CouplingFlow(8, 2, seed=0), flow_path)
    body = open(workspace["base"], "rb").read()[:-32]
    assert body.count(b'"heads":2') == 1
    body = body.replace(b'"heads":2', b'"heads":0')
    heads0 = tmp_path / "heads0.ckpt"
    heads0.write_bytes(body + hashlib.sha256(body).digest())
    base = workspace["base"]
    for model, flow, message in (
            (workspace["corpus"], [], "checksum"),
            (flow_path, [], "expected EncoderModel"),
            (base, ["--flow", base], "expected CouplingFlow"),
            (heads0, [], "invalid checkpoint metadata")):
        rc = main(["evaluate", "--model", str(model),
                   "--task", str(workspace["world"] / "sts_test.tsv"),
                   "--out", str(tmp_path)] + flow)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
    assert not (tmp_path / "report.csv").exists()


def test_bad_eval_metric_exits_1(workspace, tmp_path, capsys):
    """Scoring is cosine and --out names the output directory, so an INI
    setting `[eval] metric` or `[run] out_dir` is rejected as unknown."""
    for section, line in (("eval", "metric = cosine"),
                          ("run", "out_dir = runs")):
        ini = tmp_path / f"{section}.ini"
        ini.write_text(render_config(cli_config()).replace(
            f"[{section}]\n", f"[{section}]\n{line}\n"))
        rc = main(["evaluate", "--config", str(ini),
                   "--model", workspace["base"],
                   "--task", str(workspace["world"] / "sts_test.tsv"),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key" in err, err
        assert line.split()[0] in err
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


def test_gen_synthetic_defaults_are_the_spec_defaults(tmp_path):
    """With no world flags, gen-synthetic writes the world of
    SyntheticWorldSpec's own defaults."""
    assert main(["gen-synthetic", "--seed", "7",
                 "--out", str(tmp_path / "cli")]) == 0
    gen_synthetic_world(SyntheticWorldSpec(seed=7), tmp_path / "lib")
    names = sorted(os.listdir(tmp_path / "lib"))
    assert sorted(os.listdir(tmp_path / "cli")) == names
    for name in names:
        assert sha(tmp_path / "cli" / name) == sha(tmp_path / "lib" / name)


def test_gen_synthetic_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    base = WORLD_ARGS[:-2]
    assert main(["gen-synthetic", "--out", str(a), "--seed", "1"] + base) == 0
    assert main(["gen-synthetic", "--out", str(b), "--seed", "2"] + base) == 0
    assert sha(a / "corpus.txt") != sha(b / "corpus.txt")


def test_gen_synthetic_rejects_more_pairs_than_a_split_holds(tmp_path,
                                                             capsys):
    """12 sentences per cluster leave the dev split 6 sentences, which
    make 15 distinct pairs: asking for 20 fails at once, writing nothing."""
    out = tmp_path / "world"
    rc = main(["gen-synthetic", "--out", str(out), "--clusters", "3",
               "--sentences-per-cluster", "12", "--vocab-size", "40",
               "--sts-pairs", "20", "--nli-pairs", "24"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "dev split" in err and "15 distinct pairs" in err
    assert os.listdir(out) == []


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
    """`[data] corpus_size` below the corpus size trains on one sample,
    the same in the CLI and in run_pipeline."""
    cfg = dataclasses.replace(cli_config(),
                              data=DataSection(corpus_size=10))
    ini = tmp_path / "sub.ini"
    ini.write_text(render_config(cfg))
    args = ["pretrain", "--config", str(ini),
            "--corpus", workspace["corpus"]]
    assert main(args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2")]) == 0
    sampled = sha(tmp_path / "s1" / "base.ckpt")
    assert sampled == sha(tmp_path / "s2" / "base.ckpt")
    assert sampled != sha(workspace["base"])
    bundle = DataBundle(read_corpus(workspace["corpus"]),
                        [load_sts_tsv(workspace["world"] / "sts_test.tsv")])
    run_pipeline(with_stages(cfg, ("pretrain",)), bundle,
                 out_dir=tmp_path / "pipeline")
    assert sampled == sha(tmp_path / "pipeline" / "base.ckpt")


def test_cli_and_pipeline_record_one_corpus_hash(workspace):
    """`pretrain` and run_pipeline hash one corpus alike: the lines read
    from it, not the bytes of the file."""
    world = workspace["world"]
    cli = json.loads((workspace["runs"] / "pretrain_manifest.json")
                     .read_text())
    bundle = DataBundle(read_corpus(workspace["corpus"]),
                        [load_sts_tsv(world / "sts_test.tsv")])
    pipeline = run_pipeline(with_stages(cli_config(), ("pretrain",)),
                            bundle).manifest
    assert cli["input_hashes"] == {"corpus": pipeline["input_hashes"]["corpus"]}
    assert cli["checkpoints"]["base"] == pipeline["checkpoints"]["base"]


def test_manifests_hash_text_inputs_as_read(workspace, tmp_path, capsys):
    """`train-nli` and run_pipeline record one NLI hash (of the pairs
    read, not the file bytes), and `train-sed` records the digest of its
    `--student-init` checkpoint, the one `pretrain` wrote."""
    world, base = workspace["world"], workspace["base"]
    nli = world / "nli.tsv"
    assert main(["train-nli", "--config", workspace["ini"], "--base", base,
                 "--nli", str(nli), "--out", str(tmp_path)]) == 0
    assert main(["train-sed", "--config", workspace["ini"],
                 "--teachers", base, "--student-init", base,
                 "--corpus", workspace["corpus"], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cli_nli = json.loads((tmp_path / "nli_0_manifest.json").read_text())
    bundle = DataBundle(read_corpus(workspace["corpus"]),
                        [load_sts_tsv(world / "sts_test.tsv")],
                        load_nli_tsv(nli))
    pipeline = run_pipeline(with_stages(cli_config(), ("pretrain", "nli")),
                            bundle).manifest
    assert cli_nli["input_hashes"]["nli"] == pipeline["input_hashes"]["nli"]
    assert cli_nli["input_hashes"]["nli"] != sha(nli)
    sed = json.loads((tmp_path / "sed_manifest.json").read_text())
    pretrain = json.loads((workspace["runs"] / "pretrain_manifest.json")
                          .read_text())
    assert (sed["input_hashes"]["student_init"]
            == pretrain["checkpoints"]["base"])


def test_train_ct_member_index_in_artifacts(workspace, tmp_path):
    rc = main(["train-ct", "--config", workspace["ini"],
               "--base", workspace["base"], "--corpus", workspace["corpus"],
               "--member", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ct_1.ckpt").exists()
    manifest = json.loads((tmp_path / "ct_1_manifest.json").read_text())
    assert "ct_1" in manifest["checkpoints"]


@pytest.mark.parametrize("command", ["train-ct", "train-nli"])
def test_negative_member_is_a_usage_error(workspace, tmp_path, capsys,
                                          monkeypatch, command):
    """--member -1 exits 2 naming the flag, before any input loads."""
    import sedkit.cli as cli
    loaded = []
    monkeypatch.setattr(cli, "read_checkpoint", lambda *a: loaded.append(a))
    data = {"train-ct": "--corpus", "train-nli": "--nli"}[command]
    out = tmp_path / "out"
    assert main([command, "--base", workspace["base"],
                 data, workspace["corpus"], "--member", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("argument --member: expected an integer >= 0, got '-1'"
            in err), err
    assert loaded == [] and not out.exists()


def test_train_ct_on_nan_base_exits_1(workspace, tmp_path, capsys):
    from sedkit.checkpoint import load_checkpoint, save_checkpoint
    base = load_checkpoint(workspace["base"])
    base.params["l0.wq"].data[:] = np.nan
    nan_base = tmp_path / "nan_base.ckpt"
    save_checkpoint(base, nan_base)
    rc = main(["train-ct", "--config", workspace["ini"],
               "--base", str(nan_base), "--corpus", workspace["corpus"],
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "step 1" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "ct_0.ckpt").exists()


def test_train_nli_writes_checkpoint(workspace, tmp_path):
    """A leading '#' line is a comment: it trains the same member."""
    nli = workspace["world"] / "nli.tsv"
    commented = tmp_path / "commented.tsv"
    commented.write_text("# premise\thypothesis\tlabel\n" + nli.read_text())
    for path, out in ((nli, tmp_path / "plain"), (commented, tmp_path)):
        rc = main(["train-nli", "--config", workspace["ini"],
                   "--base", workspace["base"], "--nli", str(path),
                   "--out", str(out)])
        assert rc == 0
    assert sha(tmp_path / "nli_0.ckpt") == sha(tmp_path / "plain/nli_0.ckpt")


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
        cli_config(), arch=EncoderArch(layers=2, hidden=16, heads=2, ff=16,
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


def test_train_sed_refuses_a_student_init_it_would_ignore(workspace,
                                                         tmp_path, capsys):
    """`train-sed` starts the student from --student-init, so a config
    whose `[sed] student_init` names a member (which its manifest would
    record) exits 1 saying so, before anything is trained or written."""
    ini = tmp_path / "member.ini"
    ini.write_text(render_config(cli_config()).replace(
        "student_init = base", "student_init = member:0"))
    out = tmp_path / "out"
    rc = main(["train-sed", "--config", str(ini),
               "--teachers", workspace["base"],
               "--student-init", workspace["base"],
               "--corpus", workspace["corpus"], "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sed.student_init = 'member:0'"), err
    assert "--student-init" in err and err.count("\n") == 1, err
    assert os.listdir(out) == []


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
        run_pipeline(with_stages(cli_config(), stages), bundle,
                     out_dir=pipe_dir)
        for cli_path, key in pairs[kind]:
            assert sha(cli_path) == sha(pipe_dir / f"{key}.ckpt"), (kind, key)


def test_each_checkpoint_is_opened_once_and_its_bytes_recorded(
        workspace, tmp_path, capsys, monkeypatch):
    """Every subcommand opens each input file once (checkpoint, corpus,
    NLI, train/dev and --task files alike), and its manifest records
    each under the input's dest: a checkpoint by the SHA-256 of its
    bytes, a text input by its hash as read; nothing else is recorded."""
    world, ini, base = workspace["world"], workspace["ini"], workspace["base"]
    corpus_path = workspace["corpus"]
    corpus = ["--corpus", corpus_path]
    prep = tmp_path / "prep"
    for argv in (["train-ct", "--base", base], ["fit-flow", "--model", base]):
        assert main(argv + corpus + ["--config", ini, "--out", str(prep)]) == 0
    ct, flow = str(prep / "ct_0.ckpt"), str(prep / "flow.ckpt")
    nli, test = str(world / "nli.tsv"), str(world / "sts_test.tsv")
    train, dev = str(world / "sts_train.tsv"), str(world / "sts_dev.tsv")
    sts = ["--train-pairs", train, "--dev-task", dev]
    task = ["--task", test]
    # the digest a manifest records for each input file
    expected = {base: sha(base), ct: sha(ct), flow: sha(flow),
                corpus_path: _hash_lines(read_corpus(corpus_path)),
                nli: _hash_nli(load_nli_tsv(nli)),
                **{path: _hash_task(load_sts_tsv(path))
                   for path in (train, dev, test)}}
    # subcommand, its arguments, its manifest, and each input file with
    # the keys under which its manifest records its digest
    runs = [
        ("pretrain", corpus, "pretrain", [(corpus_path, "corpus")]),
        ("train-ct", ["--base", base] + corpus, "ct_0",
         [(base, "base"), (corpus_path, "corpus")]),
        ("train-nli", ["--base", base, "--nli", nli], "nli_0",
         [(base, "base"), (nli, "nli")]),
        ("train-sed", ["--teachers", ct, "--student-init", base] + corpus,
         "sed", [(ct, "teachers", 0), (base, "student_init"),
                 (corpus_path, "corpus")]),
        ("fit-flow", ["--model", ct] + corpus, "flow",
         [(ct, "model"), (corpus_path, "corpus")]),
        ("train-supervised", ["--model", base] + sts, "supervised",
         [(base, "model"), (train, "train_pairs"), (dev, "dev_task")]),
        ("grid-search", ["--model", base] + sts, "grid_search",
         [(base, "model"), (train, "train_pairs"), (dev, "dev_task")]),
        ("evaluate", ["--model", ct, "--flow", flow] + task, "evaluate",
         [(ct, "model"), (flow, "flow"), (test, "tasks", "sts_test")]),
        ("stability", ["--base", base] + corpus + task, "stability",
         [(base, "base"), (corpus_path, "corpus"),
          (test, "tasks", "sts_test")]),
        ("ablate-pooling", ["--model", f"base={base}", "--model",
                            f"ct={ct}"] + task, "ablate_pooling",
         [(base, "models", "base"), (ct, "models", "ct"),
          (test, "tasks", "sts_test")]),
    ]
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        opened.append(os.path.abspath(str(file)))
        return real_open(file, *args, **kwargs)

    for command, argv, manifest, inputs in runs:
        out = tmp_path / command
        opened.clear()
        monkeypatch.setattr("builtins.open", counted_open)
        assert main([command, "--config", ini, "--out", str(out)]
                    + argv) == 0
        monkeypatch.undo()
        capsys.readouterr()
        recorded = json.loads((out / f"{manifest}_manifest.json")
                              .read_text())["input_hashes"]
        assert set(recorded) == {keys[0] for _, *keys in inputs}, command
        for path, *keys in inputs:
            digest = recorded
            for key in keys:
                digest = digest[key]
            assert digest == expected[path], (command, keys)
            assert opened.count(os.path.abspath(path)) == 1, (command, path)


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
    manifest = json.loads((tmp_path / "supervised_manifest.json").read_text())
    assert "\nlower_bound = 0.3\n" in manifest["config_text"]


def test_supervised_lower_bound_is_read_from_its_section(workspace,
                                                        tmp_path):
    """Two runs that differ only in `[supervised] lower_bound` train
    toward different targets, so they write different checkpoints."""
    world, digests = workspace["world"], []
    for bound in ("0.0", "0.3"):
        out = tmp_path / bound
        assert main(["train-supervised", "--config", workspace["ini"],
                     "--model", workspace["base"],
                     "--train-pairs", str(world / "sts_train.tsv"),
                     "--dev-task", str(world / "sts_dev.tsv"),
                     "--lower-bound", bound, "--out", str(out)]) == 0
        digests.append(sha(out / "supervised.ckpt"))
    assert digests[0] != digests[1]


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


def test_grid_search_and_stability_write_manifests(workspace, tmp_path,
                                                   capsys):
    """grid-search and stability record the config they ran with, flag
    overrides included, the seeds they derived and hashes of their
    inputs; they save no checkpoint."""
    cfg = cli_config()
    cfg = dataclasses.replace(
        cfg, grid=dataclasses.replace(cfg.grid, seeds_per_bound=2),
        stability=StabilitySection(runs=3))
    ini = tmp_path / "other.ini"
    ini.write_text(render_config(cfg))
    world, base = workspace["world"], workspace["base"]
    grid_dir, stability_dir = tmp_path / "grid", tmp_path / "stability"
    assert main(["grid-search", "--config", str(ini), "--model", base,
                 "--train-pairs", str(world / "sts_train.tsv"),
                 "--dev-task", str(world / "sts_dev.tsv"),
                 "--seeds-per-bound", "1", "--bounds", "0.0,0.3",
                 "--out", str(grid_dir)]) == 0
    assert main(["stability", "--config", str(ini), "--base", base,
                 "--corpus", workspace["corpus"],
                 "--task", str(world / "sts_test.tsv"), "--runs", "2",
                 "--out", str(stability_dir)]) == 0
    capsys.readouterr()

    grid = json.loads((grid_dir / "grid_search_manifest.json").read_text())
    assert grid["stage"] == "grid_search" and grid["checkpoints"] == {}
    ran = parse_config(grid["config_text"])
    assert ran.grid.bounds == (0.0, 0.3) and ran.grid.seeds_per_bound == 1
    assert ran == dataclasses.replace(cfg, grid=ran.grid)
    assert grid["input_hashes"] == {
        "train_pairs": _hash_task(load_sts_tsv(world / "sts_train.tsv")),
        "dev_task": _hash_task(load_sts_tsv(world / "sts_dev.tsv")),
        "model": sha(base)}
    seed = cfg.run.seed
    assert grid["derived_seeds"] == {
        "grid": [derive_seed(seed, "grid", 0), derive_seed(seed, "grid", 1)]}

    stability = json.loads(
        (stability_dir / "stability_manifest.json").read_text())
    assert stability["stage"] == "stability"
    assert stability["checkpoints"] == {}
    ran = parse_config(stability["config_text"])
    assert ran == dataclasses.replace(cfg, stability=StabilitySection(runs=2))
    assert stability["derived_seeds"] == {
        "ct": [derive_seed(seed, "ct", i) for i in range(cfg.sed.members)],
        "sed": [derive_seed(seed, "sed", r) for r in range(2)]}
    hashes = stability["input_hashes"]
    pretrain = json.loads((workspace["runs"] / "pretrain_manifest.json")
                          .read_text())
    assert hashes["corpus"] == pretrain["input_hashes"]["corpus"]
    assert hashes["base"] == sha(base)
    assert set(hashes["tasks"]) == {"sts_test"}


def test_setting_flags_are_validated_like_their_keys(workspace, tmp_path,
                                                     capsys, monkeypatch):
    """A setting flag is parsed and range-checked as its INI key is: a
    bad value exits 1 with the key's message before anything trains or
    is written."""
    import sedkit.experiments as ex
    trained = []
    monkeypatch.setattr(ex, "_train_regression",
                        lambda *a, **k: trained.append(a))
    world, base = workspace["world"], workspace["base"]
    grid = ["grid-search", "--model", base,
            "--train-pairs", str(world / "sts_train.tsv"),
            "--dev-task", str(world / "sts_dev.tsv")]
    stability = ["stability", "--base", base, "--corpus", workspace["corpus"],
                 "--task", str(world / "sts_test.tsv")]
    out = tmp_path / "out"
    for argv, message in (
            (grid + ["--bounds", "0.3,0.97"], "lower_bound 0.97 outside"),
            (grid + ["--bounds", "0.3,x"], "[grid] bounds = '0.3,x'"),
            (grid + ["--bounds", "0.3,0.3"], "grid.bounds repeats 0.3"),
            (grid + ["--bounds", ""], "grid.bounds must name at least one"),
            (grid + ["--seeds-per-bound", "0"], "grid.seeds_per_bound"),
            (stability + ["--runs", "1"], "stability.runs"),
            (["evaluate", "--model", base, "--task",
              str(world / "sts_test.tsv"), "--pool", "4"], "eval.pool_k"),
            (["pretrain", "--corpus", workspace["corpus"], "--seed", "1.5"],
             "[run] seed = '1.5': expected int"),
            (["pretrain", "--corpus", workspace["corpus"], "--seed", "-1"],
             "run.seed must be >= 0"),
            (["gen-synthetic", "--seed", "-1"], "run.seed must be >= 0")):
        assert main(argv + ["--config", workspace["ini"],
                            "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
    assert trained == []
    assert not out.exists()


def test_fit_flow_then_evaluate_with_flow(workspace, tmp_path, capsys):
    """evaluate --flow records the flow's digest, the one fit-flow's
    manifest records for it, beside the model's."""
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
    hashes = json.loads(
        (tmp_path / "evaluate_manifest.json").read_text())["input_hashes"]
    flow = json.loads((tmp_path / "flow_manifest.json").read_text())
    assert hashes["flow"] == flow["checkpoints"]["flow"]
    assert hashes["model"] == flow["input_hashes"]["model"]


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
    assert sidecar == {"failed": {}}
    manifest = json.loads((tmp_path / "evaluate_manifest.json").read_text())
    assert manifest["stage"] == "evaluate"
    assert parse_config(manifest["config_text"]) == cli_config()
    assert manifest["derived_seeds"] == {} and manifest["checkpoints"] == {}
    pretrain = json.loads((workspace["runs"] / "pretrain_manifest.json")
                          .read_text())
    assert manifest["input_hashes"] == {
        "model": pretrain["checkpoints"]["base"],
        "tasks": {"sts_test": _hash_task(
            load_sts_tsv(workspace["world"] / "sts_test.tsv"))}}


def test_evaluate_records_the_checkpoint_not_its_path(workspace, tmp_path,
                                                      capsys):
    """One checkpoint (and flow) evaluated from two directories gives
    the same report, sidecar and manifest, byte for byte."""
    task = str(workspace["world"] / "sts_test.tsv")
    assert main(["fit-flow", "--config", workspace["ini"],
                 "--model", workspace["base"], "--corpus",
                 workspace["corpus"], "--out", str(tmp_path / "flow")]) == 0
    copies = []
    for sub in ("a", "b"):
        copy = tmp_path / sub
        copy.mkdir()
        shutil.copy(workspace["base"], copy / "base.ckpt")
        shutil.copy(tmp_path / "flow" / "flow.ckpt", copy / "flow.ckpt")
        copies.append(copy)
    names = ("report.csv", "report.csv.meta.json", "evaluate_manifest.json")
    for flow in ([], ["--flow"]):
        outs = []
        for copy in copies:
            out = copy / ("out_flow" if flow else "out")
            argv = ["evaluate", "--config", workspace["ini"],
                    "--model", str(copy / "base.ckpt"), "--task", task,
                    "--out", str(out)]
            assert main(argv + flow + ([str(copy / "flow.ckpt")] if flow
                                       else [])) == 0
            outs.append(out)
        for name in names:
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), (flow, name)
        assert sorted(os.listdir(outs[0])) == sorted(names)
    capsys.readouterr()


def test_evaluate_one_task_flag_several_files(workspace, tmp_path, capsys):
    world = workspace["world"]
    rc = main(["evaluate", "--config", workspace["ini"],
               "--model", workspace["base"], "--task",
               str(world / "sts_dev.tsv"), str(world / "sts_test.tsv"),
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


def test_malformed_input_exits_1_naming_file_and_line(workspace, tmp_path,
                                                      capsys):
    """A bad STS line, an unknown NLI label and a byte that is not UTF-8
    each stop the command with the file and line; nothing is written."""
    world = workspace["world"]
    sts = (world / "sts_test.tsv").read_bytes().splitlines(keepends=True)
    nli = (world / "nli.tsv").read_bytes().splitlines(keepends=True)
    bad_sts = tmp_path / "bad_sts.tsv"
    bad_sts.write_bytes(b"".join(sts[:5] + [b"a\tb\n"] + sts[5:]))
    bad_label = tmp_path / "bad_label.tsv"
    bad_label.write_bytes(b"".join(nli[:2] + [b"a\tb\tmaybe\n"] + nli[2:]))
    latin1_sts = tmp_path / "latin1.tsv"
    latin1_sts.write_bytes(b"".join(sts[:2] + [b"caf\xe9\tb\t1.0\n"]))
    latin1_corpus = tmp_path / "latin1.txt"
    latin1_corpus.write_bytes(b"alpha\r\rbeta\r\n\t\ncaf\xe9\n\xff\n")
    out = tmp_path / "out"
    common = ["--config", workspace["ini"], "--out", str(out)]
    for argv, path, where in (
            (["evaluate", "--model", workspace["base"], "--task"], bad_sts,
             "line 6: expected 3 tab-separated fields, found 2"),
            (["train-nli", "--base", workspace["base"], "--nli"], bad_label,
             "line 3: unknown NLI label: 'maybe'"),
            (["evaluate", "--model", workspace["base"], "--task"], latin1_sts,
             "line 3: byte 0xe9 is not UTF-8"),
            (["pretrain", "--corpus"], latin1_corpus,
             "line 5: byte 0xe9 is not UTF-8")):
        assert main(argv + [str(path)] + common) == 1
        assert capsys.readouterr().err == f"error: {path}: {where}\n"
    assert os.listdir(out) == []


def test_evaluate_exits_1_when_no_task_evaluates(workspace, tmp_path,
                                                 capsys):
    """Constant gold leaves no correlation: exit 1 naming the task and no
    report. With one good task beside it the report is partial: exit 0,
    the failure noted on stderr and recorded in the sidecar."""
    constant = tmp_path / "constant.tsv"
    constant.write_text("".join(
        line.rsplit("\t", 1)[0] + "\t2.0\n" for line in
        (workspace["world"] / "sts_test.tsv").read_text().splitlines()))
    argv = ["evaluate", "--config", workspace["ini"],
            "--model", workspace["base"], "--task", str(constant),
            "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no task evaluated: task 'constant':")
    assert "constant input" in err
    assert os.listdir(tmp_path) == ["constant.tsv"]
    good = str(workspace["world"] / "sts_test.tsv")
    assert main(argv + ["--task", good]) == 0
    captured = capsys.readouterr()
    assert "partial report; failed tasks: ['constant']" in captured.err
    assert "sts_test:" in captured.out
    sidecar = json.loads((tmp_path / "report.csv.meta.json").read_text())
    assert list(sidecar) == ["failed"]
    assert list(sidecar["failed"]) == ["constant"]
    manifest = json.loads((tmp_path / "evaluate_manifest.json").read_text())
    assert set(manifest["input_hashes"]["tasks"]) == {"constant", "sts_test"}


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
    """The table goes to the CSV and stdout; the manifest maps each
    --model name to its checkpoint's digest."""
    ct = tmp_path / "ct"
    assert main(["train-ct", "--config", workspace["ini"],
                 "--base", workspace["base"], "--corpus",
                 workspace["corpus"], "--out", str(ct)]) == 0
    capsys.readouterr()
    task = workspace["world"] / "sts_test.tsv"
    out = tmp_path / "out"
    rc = main(["ablate-pooling", "--config", workspace["ini"],
               "--model", f"base={workspace['base']}",
               "--model", str(ct / "ct_0.ckpt"),
               "--task", str(task), "--out", str(out)])
    assert rc == 0
    text = (out / "pooling_ablation.csv").read_text()
    assert text.splitlines()[0] == "model,k1,k2,k3"
    written = out / "pooling_ablation.csv"
    assert capsys.readouterr().out == f"{text}wrote {written}\n"
    manifest = json.loads((out / "ablate_pooling_manifest.json").read_text())
    assert manifest["stage"] == "ablate_pooling"
    assert parse_config(manifest["config_text"]) == cli_config()
    assert manifest["derived_seeds"] == {} and manifest["checkpoints"] == {}
    assert manifest["input_hashes"] == {
        "models": {"base": sha(workspace["base"]),
                   "ct_0.ckpt": sha(ct / "ct_0.ckpt")},
        "tasks": {"sts_test": _hash_task(load_sts_tsv(task))}}


def test_ablate_pooling_rejects_two_models_of_one_name(workspace, tmp_path,
                                                       capsys, monkeypatch):
    """Two --model entries that resolve to one name, by basename or by
    name=, exit 1 naming it before any model loads; no CSV is written."""
    import sedkit.cli as cli
    loaded = []
    monkeypatch.setattr(cli, "read_checkpoint", lambda *a: loaded.append(a))
    copies = [tmp_path / sub / "base.ckpt" for sub in ("a", "b")]
    for copy in copies:
        copy.parent.mkdir()
        shutil.copy(workspace["base"], copy)
    out = tmp_path / "out"
    for models, name in (([str(c) for c in copies], "'base.ckpt'"),
                         ([f"m={copies[0]}", f"m={copies[1]}"], "'m'")):
        argv = ["ablate-pooling", "--config", workspace["ini"],
                "--task", str(workspace["world"] / "sts_test.tsv"),
                "--out", str(out)]
        for model in models:
            argv += ["--model", model]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err, err
    assert loaded == []
    assert not (out / "pooling_ablation.csv").exists()


def test_ablate_pooling_rejects_an_empty_model_name(workspace, tmp_path,
                                                    capsys):
    """A --model entry whose name is empty, given as `=path` or left to
    the basename of a path ending in a separator, exits 1 naming the
    entry; no CSV is written."""
    out = tmp_path / "out"
    for entry in (f"={workspace['base']}", str(tmp_path) + os.sep):
        assert main(["ablate-pooling", "--config", workspace["ini"],
                     "--model", entry,
                     "--task", str(workspace["world"] / "sts_test.tsv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --model ") and "no name" in err, err
    assert not (out / "pooling_ablation.csv").exists()


def test_every_csv_ends_lines_with_newline_only(workspace, tmp_path, capsys):
    world, base, ini = workspace["world"], workspace["base"], workspace["ini"]
    test = str(world / "sts_test.tsv")
    pairs = ["--train-pairs", str(world / "sts_train.tsv"),
             "--dev-task", str(world / "sts_dev.tsv")]
    for argv in (["evaluate", "--model", base, "--task", test],
                 ["grid-search", "--model", base] + pairs,
                 ["stability", "--base", base, "--corpus",
                  workspace["corpus"], "--task", test],
                 ["ablate-pooling", "--model", base, "--task", test]):
        assert main(argv + ["--config", ini, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "grid_search.csv", "stability.csv",
                 "pooling_ablation.csv"):
        blob = (tmp_path / name).read_bytes()
        assert blob.endswith(b"\n") and b"\r" not in blob, name


# -- output directory -----------------------------------------------------

def test_out_dir_defaults_to_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gen-synthetic"] + WORLD_ARGS) == 0
    assert (tmp_path / "runs" / "corpus.txt").exists()


# -- corpus reading and sampling ------------------------------------------

def test_read_corpus_normalizes_newlines(tmp_path):
    """A leading byte-order mark is not part of the first sentence."""
    path = tmp_path / "c.txt"
    for head in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(head + b"alpha beta\r\n\r\ngamma\rdelta\n\n"
                         b"# kept \t\ncaf\xc3\xa9\n")
        assert read_corpus(path) == ["alpha beta", "gamma", "delta",
                                     "# kept \t", "caf\u00e9"]
    (tmp_path / "empty.txt").write_text("\n\n")
    with pytest.raises(DataError):
        read_corpus(tmp_path / "empty.txt")


def test_sample_corpus_permutation_and_determinism():
    lines = [f"line {i}" for i in range(20)]
    s1 = sample_corpus(lines, 20, seed=4)
    s2 = sample_corpus(lines, 20, seed=4)
    assert s1 == s2
    assert sorted(s1) == sorted(lines)  # full draw without replacement
    assert len(set(sample_corpus(lines, 10, seed=4))) == 10


def test_sample_corpus_guards():
    lines = ["a", "b", "c"]
    with pytest.raises(DataError, match="without replacement"):
        sample_corpus(lines, 4, seed=0)
    with pytest.raises(DataError):
        sample_corpus(lines, 0, seed=0)
