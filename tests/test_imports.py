"""Start-up guards: scipy is imported by the functions that call it, so a
command loads only the scipy modules it computes with.

Each check runs ``python -m tgcl.cli`` in a fresh interpreter, because this
test process already holds scipy (``oracles`` imports it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: the last line a probe prints: the scipy modules loaded, as JSON
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"

#: runs ``tgcl.cli`` as ``python -m`` does; a nonzero exit status fails the probe
RUN_CLI = """
import json, runpy, sys
sys.argv = ["tgcl", *json.loads(sys.argv[1])]
try:
    runpy.run_module("tgcl.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, f"exit status {exc.code}"
"""


def scipy_after(probe: str, *args: str) -> set[str]:
    """The scipy modules loaded after ``probe`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe + "\n" + LOADED, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def cli_scipy(*argv) -> set[str]:
    """The scipy modules that ``python -m tgcl.cli *argv`` loads; the command must succeed."""
    return scipy_after(RUN_CLI, json.dumps([str(a) for a in argv]))


@pytest.fixture(scope="module")
def ltf_run(tmp_path_factory):
    """A tiny ``ltf`` run with the random partitioner over several parts."""
    root = tmp_path_factory.mktemp("ltf")
    cfg = {
        "data": {"synthetic": {"num_periods": 2, "classes_per_period": 2, "nodes_per_class_per_period": 16,
                               "feature_dim": 3, "events_per_node": 3, "seed": 0}},
        "strategies": ["ltf"],
        "sel": {"m": 3, "m_prime": 2, "p": 8, "partitioner": "random"},
        "train": {"epochs": 2, "batch_size": 32, "patience": 2, "lr": 0.1},
        "seeds": [0],
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    out = root / "out"
    return out, cli_scipy("run", root / "cfg.json", "--out", out, "--quiet")


def test_import_loads_no_scipy():
    assert scipy_after("import json, sys, tgcl.cli") == set()


def test_help_loads_no_scipy():
    assert cli_scipy("--help") == set()


def test_gen_loads_no_scipy(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"num_periods": 2, "classes_per_period": 2, "seed": 1}))
    assert cli_scipy("gen", synth, "--out", tmp_path / "data") == set()
    assert (tmp_path / "data" / "events.csv").is_file()


def test_report_loads_no_scipy(ltf_run):
    out, _ = ltf_run
    assert cli_scipy("report", out) == set()


def test_an_ltf_run_loads_scipy_spatial_but_not_scipy_cluster(ltf_run):
    out, modules = ltf_run
    assert (out / "runs" / "ltf__seed0" / "record.json").is_file()
    assert "scipy.spatial" in modules
    assert not any(m == "scipy.cluster" or m.startswith("scipy.cluster.") for m in modules)
