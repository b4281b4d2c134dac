"""The walkthrough demos run to completion against the current API.

Each demo runs as its own process, as a reader would run it. The
end-to-end demo, 05_full_pipeline.py, is left out: it trains a desk-scale
pipeline (pretrain, four CT members, distillation, flow) for 20-50 s on
one core, ten times the other four together, and the acceptance tests
and test_cli.py::test_cli_stages_match_pipeline_bytes already run that
path through run_pipeline.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_autodiff_basics.py", "02_encoder_and_pooling.py",
         "03_objectives_tour.py", "04_flow_calibration.py")


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
