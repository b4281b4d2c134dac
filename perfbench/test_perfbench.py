"""Smoke test of the benchmark at its tiny size; no timing is checked.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import MODULES, Tracer  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args,
         "--size", "tiny", "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_passes_its_checks(trace):
    spec = bench_spec()
    lines = run_bench("--workload", "all", "--trace", trace)
    results = json.loads(lines[-1])
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert {m: (m_["unit"]) for m, m_ in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in wanted}
        assert all(math.isfinite(m["value"])
                   for m in result["metrics"].values())
    if trace == "0":
        table = "\n".join(lines)
        for metric in ("setup_s", "wall_s", "pretrain_s", "ct_member_s",
                       "sed_s", "eval_p50_ms", "eval_tail_ms",
                       "eval_flow_p50_ms", "eval_ensemble_p50_ms",
                       "eval_pairs_per_s", "spearman_x100", "peak_rss_mb",
                       "failed_share"):
            assert metric in table


def test_traced_self_times_account_for_the_wall_time():
    results = json.loads(run_bench("--workload", "all", "--trace", "1")[-1])
    for name, result in results.items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = m["bench.self_s"] + sum(m[f"{mod}.self_s"]
                                             for mod in MODULES)
        assert accounted == pytest.approx(m["trace.wall_s"], rel=1e-6), name
    grid = {k: v["value"] for k, v in results["grid"]["metrics"].items()}
    assert grid["objectives.ensemble_target_rows"] == 0
    assert grid["flow.calls"] == grid["flow.forward_calls"] == 0
    assert grid["experiments.grid_cells"] > 0


def test_tracer_restores_every_binding():
    import sedkit
    from sedkit import cli, diffcore, encoder, experiments

    before = (cli.train_ct, experiments.train_ct, sedkit.train_ct,
              encoder.encode_batch, diffcore.Tensor.backward)
    tracer = Tracer()
    tracer.install({})
    assert cli.train_ct is experiments.train_ct
    assert cli.train_ct is not before[0]
    tracer.uninstall()
    after = (cli.train_ct, experiments.train_ct, sedkit.train_ct,
             encoder.encode_batch, diffcore.Tensor.backward)
    assert after == before


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distill",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, check=False, env={"PATH": os.environ["PATH"]})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
