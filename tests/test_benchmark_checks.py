"""The benchmark's own tests (``perfbench/tests``) read library names such
as ``RunSpec.sel_overrides`` and ``TrainResult.epochs_ran``, so a change to
the library can break them while this suite stays green. They run here in
a fresh interpreter: both suites import a module named ``conftest``, so
they cannot share one pytest session.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tests_pass():
    env = {k: v for k, v in os.environ.items() if k != "TGCL_SEED"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def test_every_traced_function_resolves():
    """A traced function that is renamed away reads as absent and the
    benchmark run still succeeds, so its per-layer metrics would silently
    turn to None."""
    spec = importlib.util.spec_from_file_location("_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == set()
