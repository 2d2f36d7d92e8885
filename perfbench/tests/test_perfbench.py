"""Tests of the benchmark's own code: span arithmetic, tracing, output
checks, timing per reference task, metric names and workload configs.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import spans
import workloads
from tgcl import harness

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: one call count per layer: graph, backbone, kernels, selector, trainer,
#: metrics, harness
LAYER_CALLS = (
    "graph.split_period.calls",
    "backbone.build_contexts.calls",
    "kernels.kernel_matrix.calls",
    "selector.select.calls",
    "trainer.train_period.calls",
    "metrics.precision_per_set.calls",
    "harness.load_data.calls",
)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """The ``main`` strategies on a tiny graph, untraced and traced."""
    work = tmp_path_factory.mktemp("tiny")
    cfg = workloads.tiny_config("main", 0, work)
    harness.execute(cfg, work / "plain")
    tracer = spans.Tracer()
    with tracer:
        harness.execute(cfg, work / "traced")
    return cfg, work, tracer


def test_self_time_subtracts_time_covered_by_children():
    s = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 3.0, 0),
        spans.Span("a.child", 1.5, 2.5, 1),
        spans.Span("b", 2.0, 5.0, 0),  # overlaps a; the overlap counts once
        spans.Span("c", 7.0, 8.0, 0),
    ]
    # root: children cover [1, 5] and [7, 8]; a: its child covers 1 of 2
    assert spans.self_times(s) == pytest.approx([5.0, 1.0, 1.0, 3.0, 1.0])


def test_traced_tiny_config_reaches_all_seven_layers(tiny_runs):
    _, _, tracer = tiny_runs
    m = tracer.metrics()
    assert set(m) == set(spans.metric_units())
    for name in LAYER_CALLS:
        assert m[name] > 0, name
    assert m["selector.picks"] > 0
    assert m["selector.kernel_passes_per_part"] > 0
    assert m["backbone.inputs_redundancy"] >= 1
    assert 0 < m["selector.select.self_s"] < m["selector.select.s"]


def test_tracing_leaves_outputs_byte_identical(tiny_runs):
    _, work, _ = tiny_runs
    for name in ("results.csv", "summary.json"):
        assert (work / "plain" / name).read_bytes() == (work / "traced" / name).read_bytes()


def test_wrappers_reach_every_binding_and_are_removed():
    import tgcl.backbone
    import tgcl.trainer

    original = tgcl.trainer.build_contexts
    with spans.Tracer():
        assert tgcl.trainer.build_contexts is not original
        assert tgcl.backbone.build_contexts is tgcl.trainer.build_contexts
    assert tgcl.trainer.build_contexts is original
    assert tgcl.backbone.build_contexts is original


def test_missing_function_is_reported_absent(monkeypatch):
    import tgcl.backbone

    monkeypatch.delattr(tgcl.backbone, "build_contexts")
    tracer = spans.Tracer()
    with tracer:
        pass
    m = tracer.metrics()
    assert m["backbone.build_contexts.calls"] is None
    assert m["backbone.inputs_redundancy"] is None
    assert m["selector.select.calls"] == 0


def test_checks_charge_each_defect_to_its_run(tiny_runs, tmp_path):
    cfg, work, _ = tiny_runs
    old_train = checks.OldTrainNodes(harness.load_data(cfg["data"]))
    assert not any(checks.check_execute(cfg, work / "plain", old_train).values())

    bad = tmp_path / "bad"
    shutil.copytree(work / "plain", bad)
    buf_path = bad / "runs" / "ltf__seed0" / "buffer_p2.json"
    buf = json.loads(buf_path.read_text())
    buf["sim"][1] = buf["sim"][0]
    buf_path.write_text(json.dumps(buf))
    (bad / "runs" / "er__seed1" / "record.json").unlink()
    problems = checks.check_execute(cfg, bad, old_train)
    assert {k for k, v in problems.items() if v} == {"ltf__seed0", "er__seed1"}

    csv_path = bad / "results.csv"
    lines = csv_path.read_text().splitlines()
    lines[1] = lines[1].replace(",0.", ",1.", 1)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any(checks.check_same(cfg, work / "plain", bad).values())


def test_timings_are_divided_by_the_reference_time_around_them():
    # calls of 10 s and 4 s, with reference times 0.2 and 0.2 s around them
    assert hostspeed.per_reference([10.0, 4.0], [0.1, 0.3, 0.1]) == pytest.approx(14.0 / 0.4)
    assert hostspeed.Reference().gap() > 0


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == {**spans.metric_units(), **run.RUN_LAYER}
    names = [*e2e, *layer, *(w["name"] for w in bench["workloads"])]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*e2e.values(), *layer.values()]:
        assert UNIT.fullmatch(unit), unit
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_main_at_seed_zero_is_the_shipped_preset(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.ENV_SEED, "7")  # set-up must not let it override
    cfg, _ = workloads.setup("main", 0, tmp_path)
    monkeypatch.delenv(harness.ENV_SEED, raising=False)
    assert cfg == harness.load_config(None, preset="main")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
