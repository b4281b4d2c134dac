"""The walkthrough demos run to completion against the current API.

Each demo runs as its own process, as a reader would run it. The
end-to-end demo, 05_full_pipeline.py, is left out: it trains a desk-scale
pipeline (pretrain, four CT members, distillation, flow) for 20-50 s on
one core, ten times the other four together, and the acceptance tests
and test_cli.py::test_cli_stages_match_pipeline_bytes already run that
path through run_pipeline. So are the margin table, 06_margin_table.py,
which trains the acceptance cohort once per world seed it is given, and
the byte probe, 07_artifact_digests.py, which runs a small CLI chain and
two pipelines to list the digests of what they write. Every demo, 05 to
07 included, is also parsed without running it, and each name it imports
from sedkit must exist.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_autodiff_basics.py", "02_encoder_and_pooling.py",
         "03_objectives_tour.py", "04_flow_calibration.py")
ALL_DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
                   if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.join(ROOT, "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", ALL_DEMOS)
def test_demo_imports_resolve(demo):
    with open(os.path.join(ROOT, "demos", demo), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), demo)
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sedkit":
                    importlib.import_module(alias.name)
                    imported += 1
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "sedkit"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{demo}: {node.module} has no {alias.name}"
                imported += 1
    assert imported, f"{demo} imports nothing from sedkit"
