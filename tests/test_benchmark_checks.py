"""The benchmark's own tests (``perfbench/tests``) read library names such
as ``RunSpec.sel_overrides`` and ``TrainResult.epochs_ran``, so a change to
the library can break them while this suite stays green. They run here in
a fresh interpreter: both suites import a module named ``conftest``, so
they cannot share one pytest session.
"""

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
