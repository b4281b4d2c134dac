"""sedkit benchmark: one workload per process, single-thread BLAS.

    python3 perfbench/run.py --workload distill --seed 7 --seconds 20 --trace 0

Set-up (imports, the synthetic world and prerequisite checkpoints) runs
several times and is timed on its own. Passes of the workload's
operations then run until `--seconds` have gone by, and every pass's
outputs are checked. With `--trace 0` the last line of standard output
is a JSON object with the end-to-end metrics; with `--trace 1` untraced
and traced passes alternate and the line carries the per-layer metrics
and the tracing overhead. A readable table of every metric, with units
and sample counts, is printed above it. `--workload all` runs the three
workloads in turn, each in a fresh process. `--size tiny` shrinks every
input for a smoke run. See README.md beside this file.
"""

import os
import sys

# Before numpy is imported anywhere: one BLAS / OpenMP thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from tracer import MODULES, Tracer  # noqa: E402
from workloads import (SIZES, WORKLOADS, Ctx, call,  # noqa: E402
                       check_outcome)

DEFAULT_SEED = 7  # the acceptance world; seed 23 is held out (README.md)

# End-to-end metrics in the final JSON line: the ones that apply to every
# workload and are steady across seeds; the rest of the table is printed.
# pass_best_s, a pass built from the fastest call of each kind, stands
# for the pass time: other tenants of the host slow calls down for
# seconds at a time (README.md, "Steadiness").
E2E_UNITS = {"pass_best_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# -- statistics -----------------------------------------------------------


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


# -- environment ----------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_at_start) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_at_start": load_at_start,
    }


# -- traced-run counters --------------------------------------------------

SCORERS = ("evalsts.predict_scores", "experiments.full_ensemble_predict")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _unique(task) -> int:
    return len({s for p in task.pairs for s in (p.sentence_1, p.sentence_2)})


def counter_hooks(tr: Tracer) -> dict:
    """Counters kept at layer boundaries, keyed by span name."""
    from sedkit import diffcore

    def forward_ids(args, kwargs, result, sec):
        mask = _arg(args, kwargs, 2, "mask")
        tr.add("encoder.real_tokens", float(mask.sum()))
        tr.add("encoder.token_slots", mask.size)
        if diffcore._GRAD_ENABLED:
            tr.add("encoder.forward_grad_s", sec)
        else:
            tr.add("encoder.forward_nograd_calls")
            tr.add("encoder.forward_nograd_s", sec)

    def encode_batch(args, kwargs, result, sec):
        if tr.inside(SCORERS):
            tr.add("evalsts.sentences_encoded",
                   len(_arg(args, kwargs, 1, "sentences")))

    def predict_scores(args, kwargs, result, sec):
        tr.add("evalsts.predict_s", sec)
        if not tr.inside(SCORERS):
            tr.add("evalsts.unique_sentences",
                   _unique(_arg(args, kwargs, 1, "task")))

    def full_ensemble_predict(args, kwargs, result, sec):
        if not tr.inside(SCORERS):
            members = len(_arg(args, kwargs, 0, "ensemble"))
            tr.add("evalsts.unique_sentences", members * sum(
                _unique(t) for t in _arg(args, kwargs, 1, "tasks")))

    def ensemble_targets(args, kwargs, result, sec):
        tr.add("objectives.ensemble_target_rows",
               len(_arg(args, kwargs, 0, "ensemble"))
               * len(_arg(args, kwargs, 1, "sentences")))
        tr.add("objectives.ensemble_targets_s", sec)

    def grid(args, kwargs, result, sec):
        cells = (len(_arg(args, kwargs, 3, "bounds"))
                 * _arg(args, kwargs, 4, "seeds_per_bound"))
        done = sum(len(v) for v in result.scores_by_bound.values())
        tr.add("experiments.grid_cells", cells)
        tr.add("experiments.grid_cells_failed", cells - done)

    def saved(args, kwargs, result, sec):
        tr.add("checkpoint.bytes_written",
               os.path.getsize(_arg(args, kwargs, 1, "path")))

    def loaded(args, kwargs, result, sec):
        tr.add("checkpoint.bytes_read",
               os.path.getsize(_arg(args, kwargs, 0, "path")))

    return {
        "encoder.EncoderModel.forward_ids": forward_ids,
        "encoder.encode_batch": encode_batch,
        "evalsts.predict_scores": predict_scores,
        "experiments.full_ensemble_predict": full_ensemble_predict,
        "objectives.ensemble_mean_embeddings": ensemble_targets,
        "experiments.grid_search_lower_bound": grid,
        "checkpoint.save_checkpoint": saved,
        "checkpoint.load_checkpoint": loaded,
    }


# Per-layer metrics and units, in the order they are reported.
LAYER_UNITS = {}
for _m in MODULES:
    LAYER_UNITS[f"{_m}.calls"] = "count"
    LAYER_UNITS[f"{_m}.self_s"] = "s"
LAYER_UNITS.update({
    "bench.self_s": "s",
    "encoder.real_tokens": "count",
    "encoder.token_slots": "count",
    "encoder.pad_useful_ratio": "ratio",
    "encoder.forward_grad_s": "s",
    "encoder.forward_nograd_calls": "count",
    "encoder.forward_nograd_s": "s",
    "diffcore.backward_self_s": "s",
    "diffcore.optim_steps": "count",
    "diffcore.optim_step_self_s": "s",
    "objectives.ensemble_target_rows": "count",
    "objectives.ensemble_targets_s": "s",
    "experiments.train_sed_s": "s",
    "flow.forward_calls": "count",
    "flow.score_calls": "count",
    "evalsts.cosine_calls": "count",
    "evalsts.predict_s": "s",
    "evalsts.sentences_encoded": "count",
    "evalsts.unique_sentences": "count",
    "evalsts.encode_useful_ratio": "ratio",
    "experiments.grid_cells": "count",
    "experiments.grid_cells_failed": "count",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.hash_s": "s",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.bytes_read": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
})


def layer_metrics(tr: Tracer, run_id: int, wall: float) -> dict:
    """Per-layer numbers of one traced pass."""
    calls, self_s, top = tr.self_times(run_id)
    c = tr.counts
    m = {}
    for mod in MODULES:
        m[f"{mod}.calls"] = calls[mod]
        m[f"{mod}.self_s"] = self_s[mod]
    m["bench.self_s"] = wall - top
    for key in ("encoder.real_tokens", "encoder.token_slots",
                "encoder.forward_grad_s", "encoder.forward_nograd_calls",
                "encoder.forward_nograd_s", "objectives.ensemble_target_rows",
                "objectives.ensemble_targets_s", "evalsts.predict_s",
                "evalsts.sentences_encoded", "evalsts.unique_sentences",
                "experiments.grid_cells", "experiments.grid_cells_failed",
                "checkpoint.bytes_written", "checkpoint.bytes_read"):
        m[key] = c.get(key, 0)
    m["encoder.pad_useful_ratio"] = ratio(m["encoder.real_tokens"],
                                          m["encoder.token_slots"])
    m["evalsts.encode_useful_ratio"] = ratio(m["evalsts.unique_sentences"],
                                             m["evalsts.sentences_encoded"])
    steps = ("diffcore.Adam.step", "diffcore.RMSProp.step")
    m["diffcore.backward_self_s"] = tr.self_total(run_id,
                                                  "diffcore.Tensor.backward")
    m["diffcore.optim_steps"] = sum(tr.span_count(run_id, s) for s in steps)
    m["diffcore.optim_step_self_s"] = sum(tr.self_total(run_id, s)
                                          for s in steps)
    m["experiments.train_sed_s"] = tr.span_total(run_id,
                                                 "experiments.train_sed")
    m["flow.forward_calls"] = tr.span_count(run_id,
                                            "flow.CouplingFlow.forward")
    m["flow.score_calls"] = tr.span_count(run_id, "flow.flow_score")
    m["evalsts.cosine_calls"] = tr.span_count(run_id, "evalsts.cosine")
    m["checkpoint.save_s"] = tr.span_total(run_id, "checkpoint.save_checkpoint")
    m["checkpoint.load_s"] = tr.span_total(run_id, "checkpoint.load_checkpoint")
    m["checkpoint.hash_s"] = tr.span_total(run_id, "checkpoint.sha256")
    m["trace.wall_s"] = wall
    return m


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- one workload ---------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failed: bool, messages=()) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            self.messages.extend(messages)

    def op(self, op, result) -> dict:
        """Count the call and its output check; return the facts."""
        call_failed, messages, facts = check_outcome(op, result)
        self.record(call_failed, messages)
        self.record(bool(messages) and not call_failed, messages)
        if op.cells:
            failed_cells = facts.get("cells_failed", op.cells)
            for i in range(op.cells):
                self.record(i < failed_cells)
        return facts

    def same(self, label: str, facts: dict, reference: dict) -> None:
        """Facts of one seed must repeat exactly."""
        self.record(facts != reference,
                    [f"{label}: {facts} differs from {reference}"])


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    ctx = Ctx(args.seed, size)
    tally = Tally()

    setup_times, setup_facts, state = [], [], None
    for i in range(size.setup_repeats):
        start = time.perf_counter()
        state, pending = wl.setup(ctx, os.path.join(work, f"setup{i}"))
        setup_times.append(time.perf_counter() - start)
        facts = {}
        for op, result in pending:
            facts.update(tally.op(op, result))
        setup_facts.append(facts)
        tally.same("set-up", facts, setup_facts[0])

    tracer = Tracer() if args.trace else None
    hooks = counter_hooks(tracer) if tracer else None
    passes, traced, reference = [], [], None
    start = time.perf_counter()
    while True:
        index = len(passes) + len(traced)
        trace_this = tracer is not None and index % 2 == 1
        out = os.path.join(work, "pass")
        shutil.rmtree(out, ignore_errors=True)
        ops = wl.ops(ctx, state, out)
        times, results = {}, []
        if trace_this:
            tracer.begin(index)
            tracer.install(hooks)
        try:
            for op in ops:
                t0 = time.perf_counter()
                result = call(op)
                times.setdefault(op.kind, []).append(time.perf_counter() - t0)
                results.append((op, result))
        finally:
            if trace_this:
                tracer.uninstall()
        record = {"times": times, "wall": sum(sum(v) for v in times.values()),
                  "pairs": sum(op.pairs for op in ops)}
        facts = {}
        for op, result in results:
            facts.update(tally.op(op, result))
        reference = facts if reference is None else reference
        tally.same(f"pass {index}", facts, reference)
        if trace_this:
            record["layers"] = layer_metrics(tracer, index, record["wall"])
            traced.append(record)
        else:
            passes.append(record)
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or traced):
            break

    return {
        "workload": wl.name, "setup_times": setup_times, "passes": passes, "traced": traced,
        "quality": reference.get(wl.quality_fact, float("nan")),
        "tally": tally, "tracer": tracer, "work": work,
    }


def e2e_table(run: dict, import_s: float) -> list:
    """(name, value, unit, sample count) of every end-to-end metric that
    applies to the workload."""
    passes, wl = run["passes"], run["workload"]
    tally = run["tally"]
    n = len(passes)
    rows = [
        ("setup_s", import_s + median(run["setup_times"]), "s",
         len(run["setup_times"])),
        ("wall_s", median([p["wall"] for p in passes]), "s", n),
    ]

    def samples(kind):
        return [t for p in passes for t in p["times"].get(kind, [])]

    rows.append(("pass_best_s", sum(len(calls) * min(samples(kind))
                                    for kind, calls in passes[0]["times"].items()),
                 "s", n))

    if wl == "distill":
        for kind, name in (("pretrain", "pretrain_s"), ("sed", "sed_s")):
            rows.append((name, median(samples(kind)), "s", n))
        rows.append(("ct_member_s", median(
            [statistics.mean(p["times"]["ct"]) for p in passes]), "s", n))
    if wl in ("distill", "score"):
        plain = samples("eval")
        rows.append(("eval_p50_ms", 1e3 * median(plain), "ms", len(plain)))
        t = tail(plain)
        label = f"eval_tail_ms (p{t[1]:.0f})" if t else "eval_tail_ms (n<11)"
        rows.append((label, 1e3 * t[0] if t else float("nan"), "ms",
                     len(plain)))
    if wl == "score":
        for kind in ("eval_flow", "eval_ensemble"):
            s = samples(kind)
            rows.append((f"{kind}_p50_ms", 1e3 * median(s), "ms", len(s)))
        busy = sum(p["wall"] for p in passes)
        rows.append(("eval_pairs_per_s",
                     sum(p["pairs"] for p in passes) / busy, "1/s", n))
    rows.append(("spearman_x100", run["quality"], "x100", n))
    rows.append(("peak_rss_mb",
                 resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", 1))
    rows.append(("failed_share", ratio(tally.failed, tally.attempted),
                 "share", tally.attempted))
    return rows


def layer_table(run: dict) -> dict:
    """Median over traced passes of each per-layer metric, with the
    tracing overhead: fastest traced minus fastest untraced pass."""
    traced = run["traced"]
    table = {k: median([p["layers"][k] for p in traced])
             for k in traced[0]["layers"]}
    table["trace.overhead_s"] = (min(p["wall"] for p in traced)
                                 - min(p["wall"] for p in run["passes"]))
    return table


def sed_breakdown(tr: Tracer) -> dict:
    """Inclusive seconds of the children of train_sed spans, per span
    name, summed over the traced passes, largest first."""
    sed_ids = {s[1] for s in tr.spans
               if s is not None and s[3] == "experiments.train_sed"}
    totals: dict = {}
    for s in tr.spans:
        if s is not None and s[2] in sed_ids:
            totals[s[3]] = totals.get(s[3], 0.0) + s[5] - s[4]
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def report(args, run: dict, import_s: float, env: dict) -> dict:
    tally = run["tally"]
    rows = e2e_table(run, import_s)
    print(f"== {run['workload']} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {len(run['passes'])} untraced and "
          f"{len(run['traced'])} traced passes")
    print("   env " + json.dumps(env, sort_keys=True))
    for name, value, unit, count in rows:
        print(f"   {name:<24} {value:14.4f} {unit:<6} n={count}")
    for message in tally.messages[:20]:
        print(f"   FAILED {message}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed}
    by_name = {name: (value, unit) for name, value, unit, _ in rows}
    details = {"env": env, "e2e": rows, "failures": tally.messages,
               "setup_times": run["setup_times"],
               "pass_times": [p["times"] for p in run["passes"]]}
    if args.trace:
        layers = layer_table(run)
        for name, value in layers.items():
            print(f"   {name:<36} {value:16.6f} {LAYER_UNITS[name]}")
        breakdown = sed_breakdown(run["tracer"])
        if breakdown:
            total = sum(breakdown.values())
            print("   train_sed children (share of child time):")
            for name, sec in breakdown.items():
                print(f"     {name:<40} {sec:10.4f} s {sec / total:6.1%}")
        details["layers"] = layers
        details["train_sed_children"] = breakdown
        result["metrics"] = {k: {"value": v, "unit": LAYER_UNITS[k]}
                             for k, v in layers.items()}
        trace_path = os.path.join(
            OUT, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        run["tracer"].write(trace_path)
        print(f"   spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        result["metrics"] = {k: {"value": by_name[k][0], "unit": u}
                             for k, u in E2E_UNITS.items()}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, details=details), fh, indent=1)
    return result


# -- entry points ---------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed region; at least one pass runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' is the smoke size: seconds, no timing value")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {}
    for name in sorted(WORKLOADS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "sedkit", "__init__.py")):
        print(f"error: no sedkit sources under {SRC}", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import sedkit
    import sedkit.cli  # noqa: F401  (imports every module the CLI uses)
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(sedkit.__file__))) != SRC:
        print(f"error: sedkit imported from {sedkit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(load_at_start)
    run = run_workload(args)
    result = report(args, run, import_s, env)
    shutil.rmtree(run["work"], ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
