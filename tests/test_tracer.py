"""The benchmark's per-layer tracer (`perfbench/tracer.py`) still installs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs():
    # install() wraps gliomaforge names at their import sites (model.softmax,
    # model.layer_norm, model.conv3d, train.softmax, cli.build_cdf, ...), so
    # a refactor that drops one breaks every traced benchmark run
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
