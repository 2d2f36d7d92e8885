import csv
import ctypes
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tgcl import cli
from tgcl.backbone import Backbone, save_checkpoint, snapshot
from tgcl.harness import (
    ConfigError,
    PRESETS,
    _init_worker,
    config_hash,
    deep_merge,
    execute,
    expand_sweeps,
    load_config,
    load_data,
    load_records,
    plan_runs,
)
from tgcl.graph import TemporalGraph, save_graph
from tgcl.metrics import RunRecord, format_summary_table
from tgcl.trainer import run_strategy

from conftest import (
    NO_TEST_SYNTH,
    make_graph_without_new_class_events,
    make_graph_without_test_nodes_under_seed_1,
    make_two_period_graph,
)
from oracles import Event, event_columns

TINY_DATA = {
    "synthetic": {
        "num_periods": 2,
        "classes_per_period": 2,
        "nodes_per_class_per_period": 16,
        "feature_dim": 3,
        "events_per_node": 3,
        "seed": 0,
    }
}

#: one period, one epoch, and a step size whose one update leaves
#: finite parameters that overflow the model's scores
LAST_UPDATE_DIVERGES = {
    "include": "main",
    "strategies": ["joint", "ltf"],
    "seeds": [0],
    "data": {"synthetic": {"num_periods": 1, "nodes_per_class_per_period": 30}},
    "train": {"epochs": 1, "lr": 1e308},
    "sweeps": None,
}

#: runs ``python -m tgcl.cli`` from this checkout's sources
SRC = Path(__file__).resolve().parent.parent / "src"
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

TINY = {
    "data": TINY_DATA,
    "strategies": ["finetune"],
    "sel": {"m": 3, "m_prime": 2, "p": 8},
    "train": {"epochs": 2, "batch_size": 32, "patience": 2, "lr": 0.1},
    "seeds": [0],
}


FILE_KINDS = (("nodes", "csv"), ("events", "csv"), ("periods", "json"))


def period_one_scorer(graph):
    """An untrained model with the head of period 1: a scorer for period 2."""
    model = Backbone(graph.feature_dim, seed=0)
    model.grow_head(sorted(graph.period(1).classes))
    return snapshot(model)


def save_graph_without_new_class_events(data_dir):
    """Files of :func:`make_graph_without_new_class_events`; returns the
    ``data.files`` entry."""
    paths = save_graph(make_graph_without_new_class_events(), data_dir)
    return {kind: str(path) for kind, path in paths.items()}


def save_graph_without_test_nodes_under_seed_1(data_dir):
    """Files of :func:`make_graph_without_test_nodes_under_seed_1`; returns
    the ``data.files`` entry."""
    paths = save_graph(make_graph_without_test_nodes_under_seed_1(), data_dir)
    return {kind: str(path) for kind, path in paths.items()}


#: the OpenBLAS that numpy's wheel ships, if any
OPENBLAS = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))


def blas_threads() -> int:
    """The thread count of numpy's OpenBLAS in this process."""
    get_threads = ctypes.CDLL(str(OPENBLAS[0])).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads()


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_rows(out_dir):
    with (out_dir / "results.csv").open() as fh:
        return list(csv.DictReader(fh))


#: Ways to leave a run's ``record.json`` stale: each maps the record's
#: object to the text written over it
STALE_RECORDS = {
    '{"x': lambda rec: '{"x',
    "[]": lambda rec: "[]",
    "hash only": lambda rec: json.dumps({"config_hash": rec["config_hash"]}),
    "periods a string": lambda rec: json.dumps({**rec, "periods": "x"}),
    "no periods": lambda rec: json.dumps({**rec, "periods": []}),
}


def spoil_record(run_dir, kind):
    """Make ``run_dir``'s record stale in the way ``kind`` names: one of
    :data:`STALE_RECORDS`, or ``directory`` for a directory in its place."""
    path = run_dir / "record.json"
    if kind == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_text(STALE_RECORDS[kind](json.loads(path.read_text())))


#: The key order of a ``record.json``, of each of its periods and of a
#: ``timing.jsonl`` row
RECORD_KEYS = ["strategy", "variant", "seed", "config_hash", "periods", "started_at", "total_s", "reused_periods"]
PERIOD_KEYS = ["period", "precisions", "ap", "af", "epoch_wall_ms", "selection_ms", "epochs_ran", "best_epoch"]
TIMING_KEYS = [
    "strategy", "variant", "seed", "started_at", "total_s", "reused_periods",
    "final_epoch_ms_mean", "selection_ms_per_period",
]


class TestConfigLoading:
    def test_defaults_applied(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"strategies": ["finetune"]}))
        assert cfg["seeds"] == [0, 1, 2]
        assert "synthetic" in cfg["data"]

    def test_include_preset_by_name(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"include": "main", "seeds": [1]}))
        assert cfg["strategies"] == ["joint", "finetune", "er", "icarl", "ltf"]
        assert cfg["seeds"] == [1]

    def test_preset_flag_lower_precedence_than_file(self, tmp_path):
        path = write_config(tmp_path, {"strategies": ["ltf"]})
        cfg = load_config(path, preset="main")
        assert cfg["strategies"] == ["ltf"]
        assert cfg["sel"]["m"] == PRESETS["main"]["sel"]["m"]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TGCL_SEED", "7")
        cfg = load_config(write_config(tmp_path, TINY))
        assert cfg["seeds"] == [7]

    @pytest.mark.parametrize("value", ["-1", "1.5"])
    def test_env_seed_must_be_a_nonnegative_integer(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("TGCL_SEED", value)
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, TINY)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: TGCL_SEED must be an integer >= 0, got {value!r}\n"
        assert not out.exists()

    def test_relative_data_files_are_read_against_the_config_file(self, tmp_path, monkeypatch):
        (tmp_path / "cfgs").mkdir()
        files = {"nodes": "data/n.csv", "events": "../e.csv", "periods": str(tmp_path / "p.json")}
        write_config(tmp_path, {**TINY, "data": {"files": files}}, "base.json")
        write_config(tmp_path / "cfgs", {**TINY, "include": "main", "data": {"files": files}}, "own.json")
        monkeypatch.chdir(tmp_path / "cfgs")
        for name, where in (("../base.json", tmp_path), ("own.json", tmp_path / "cfgs")):
            cfg = load_config(name)
            assert cfg["data"]["files"] == {
                "nodes": str(where / "data" / "n.csv"),
                "events": str(where.parent / "e.csv"),
                "periods": str(tmp_path / "p.json"),
            }

    def test_unknown_strategy_diagnostic(self, tmp_path):
        with pytest.raises(ConfigError, match="strategies"):
            load_config(write_config(tmp_path, {**TINY, "strategies": ["sgd"]}))

    def test_bad_sel_field_path(self, tmp_path):
        bad = {**TINY, "sel": {"m": 10, "p": 5}}
        with pytest.raises(ConfigError, match="sel"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "section, key, value", [("sel", "seed", 5), ("train", "seed", 5), ("train", "strategy", "ltf")]
    )
    def test_per_run_keys_rejected(self, tmp_path, section, key, value):
        # each run takes its seed and strategy from "seeds" and "strategies"
        bad = {**TINY, section: {**TINY[section], key: value}}
        with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "key, value, match",
        [("p", 2, r"sweeps\.params\.p=2: .*p=2"), ("ablation", "bogus", r"sweeps\.params\.ablation='bogus'")],
    )
    def test_bad_sweep_value_rejected_at_load(self, tmp_path, key, value, match):
        bad = {**TINY, "sweeps": {"params": {key: [value]}}}
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("section, key", [("sel", "alpha"), ("train", "beta")])
    def test_non_finite_weights_rejected_at_load(self, tmp_path, section, key, value):
        # json reads a bare NaN or Infinity
        bad = {**TINY, "strategies": ["ltf"], section: {**TINY[section], key: value}}
        with pytest.raises(ConfigError, match=rf"^{section}: {key} must be a finite number >= 0, got {value!r}$"):
            load_config(write_config(tmp_path, bad))
        sweep = {**TINY, "strategies": ["ltf"], "sweeps": {"params": {key: [0.5, value]}}}
        with pytest.raises(ConfigError, match=rf"^sweeps\.params\.{key}={value!r}: {key} must be a finite"):
            load_config(write_config(tmp_path, sweep))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "seeds", [True]),
            (None, "seeds", [1.0]),
            *[("sel", k, v) for k in ("m", "m_prime", "p") for v in (True, 4.5, 4.0, "4")],
            *[("train", k, v) for k in ("epochs", "batch_size", "patience") for v in (True, 4.5, 4.0)],
            *[(section, k, True) for section, k in (("sel", "alpha"), ("train", "beta"), ("train", "lr"))],
            ("train", "lr", "0.1"),
        ],
    )
    def test_integer_and_number_fields_typed(self, tmp_path, section, key, value):
        if section is None:
            bad, where = {**TINY, key: value}, rf"^{key}(\[0\])? must be an integer >= \d, got "
        else:
            bad, where = {**TINY, section: {**TINY[section], key: value}}, rf"^{section}: {key} must be"
        with pytest.raises(ConfigError, match=where):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("value", [True, 20.5, "4"])
    @pytest.mark.parametrize(
        "key",
        [
            "num_periods",
            "classes_per_period",
            "nodes_per_class_per_period",
            "feature_dim",
            "events_per_node",
            "seed",
        ],
    )
    def test_synthetic_integer_fields_typed(self, tmp_path, key, value):
        bad = {**TINY, "data": {"synthetic": {**TINY_DATA["synthetic"], key: value}}}
        where = rf"^data\.synthetic\.{key} must be an integer >= \d, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=where):
            load_config(write_config(tmp_path, bad))

    def test_zero_edge_probabilities_rejected_at_load(self, tmp_path):
        synth = {**TINY_DATA["synthetic"], "intra_class_edge_prob": 0.0, "inter_class_edge_prob": 0.0}
        where = r"^data\.synthetic\.intra_class_edge_prob and inter_class_edge_prob cannot both be 0"
        with pytest.raises(ConfigError, match=where):
            load_config(write_config(tmp_path, {**TINY, "data": {"synthetic": synth}}))

    @pytest.mark.parametrize(
        "extra, match",
        [
            ({"seed": 3}, r"^seed: unknown key"),
            ({"kernel": {"squared": True}}, r"^kernel: unknown key"),
            ({"data": {"synthetic": {"periods": 2}}}, r"^data\.synthetic\.periods: unknown key"),
        ],
    )
    def test_unknown_keys_rejected_by_name(self, tmp_path, extra, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, {**TINY, **extra}))

    def test_bad_sweep_param(self, tmp_path):
        bad = {**TINY, "sweeps": {"params": {"learning": [1]}}}
        with pytest.raises(ConfigError, match="sweeps.params.learning"):
            load_config(write_config(tmp_path, bad))

    def test_data_requires_one_source(self, tmp_path):
        both = {**TINY_DATA, "files": {"nodes": "n.csv", "events": "e.csv"}}
        with pytest.raises(ConfigError, match="data"):
            load_config(write_config(tmp_path, {**TINY, "data": both}))

    @pytest.mark.parametrize(
        "data, match",
        [
            ({"files": "nodes,events"}, r"^data\.files: must be an object$"),
            (
                {"files": {"nodes": 5, "events": "e.csv"}},
                r"^data\.files\.nodes: must be a path string, got 5$",
            ),
            (
                {"files": {"nodes": "n.csv", "events": "e.csv", "periods": 3}},
                r"^data\.files\.periods: must be a path string, got 3$",
            ),
            (
                {"files": {"nodes": "n.csv", "events": "e.csv", "bogus": 1}},
                r"^data\.files\.bogus: unknown key",
            ),
            ({**TINY_DATA, "extra": 1}, r"^data\.extra: unknown key"),
        ],
    )
    def test_malformed_data_rejected_by_name(self, tmp_path, data, match):
        with pytest.raises(ConfigError, match=match):
            load_config(write_config(tmp_path, {**TINY, "data": data}))

    def test_files_periods_may_be_null(self, tmp_path):
        files = {"nodes": "n.csv", "events": "e.csv", "periods": None}
        cfg = load_config(write_config(tmp_path, {**TINY, "data": {"files": files}}))
        read = {"nodes": str(tmp_path / "n.csv"), "events": str(tmp_path / "e.csv"), "periods": None}
        assert cfg["data"] == {"files": read}

    def test_files_data_replaces_default_synthetic(self, tmp_path):
        cfg = load_config(
            write_config(
                tmp_path,
                {**TINY, "data": {"files": {"nodes": "n.csv", "events": "e.csv"}}},
            )
        )
        assert set(cfg["data"]) == {"files"}


#: Each shipped preset's config hash (a column of results.csv); a change
#: here means the resolved config format changed.
PRESET_HASHES = {
    "main": "bf8142de65f2",
    "ablation": "db395b4afea4",
    "partition": "b9c0ca25c4ac",
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_resolve_build_and_keep_their_hash(preset, monkeypatch):
    monkeypatch.delenv("TGCL_SEED", raising=False)
    assert set(PRESET_HASHES) == set(PRESETS)  # no stale row, no preset without one
    cfg = load_config(preset=preset)
    assert config_hash(cfg) == PRESET_HASHES[preset]
    specs = plan_runs(cfg)
    assert len({spec.run_id for spec in specs}) == len(specs)
    for spec in specs:
        sel, train = spec.sel, spec.train
        for key, value in spec.sel_overrides:
            assert getattr(sel, key) == value
        for key, value in spec.train_overrides:
            assert getattr(train, key) == value
        for key, value in cfg["sel"].items():
            assert getattr(sel, key) == dict(spec.sel_overrides).get(key, value)
        for key, value in cfg["train"].items():
            assert getattr(train, key) == dict(spec.train_overrides).get(key, value)


class TestPlanning:
    def test_joint_auto_added(self):
        cfg = load_config_dict(TINY)
        specs = plan_runs(cfg)
        strategies = {s.strategy for s in specs}
        assert strategies == {"joint", "finetune"}

    def test_joint_not_duplicated(self):
        cfg = load_config_dict({**TINY, "strategies": ["joint", "finetune"]})
        specs = plan_runs(cfg)
        joint_specs = [s for s in specs if s.strategy == "joint"]
        assert len(joint_specs) == len(cfg["seeds"])

    def test_joint_ignores_sweeps(self):
        cfg = load_config_dict(
            {**TINY, "strategies": ["ltf"], "sweeps": {"params": {"alpha": [0.5, 1.0]}}}
        )
        specs = plan_runs(cfg)
        assert len([s for s in specs if s.strategy == "joint"]) == 1
        assert len([s for s in specs if s.strategy == "ltf"]) == 2

    def test_the_longest_run_id_is_planned(self):
        specs = plan_runs(load_config_dict({**TINY, "seeds": [10**240]}))  # finetune__seed and 241 digits
        assert max(len(s.run_id.encode()) for s in specs) == 255

    @pytest.mark.parametrize(
        "change, where",
        [
            ({"seeds": [10**300]}, "seeds"),
            ({"sweeps": {"params": {"patience": [10**260]}}}, rf"sweeps\.params\.patience={10**260}"),
        ],
        ids=["seeds", "sweep"],
    )
    def test_a_run_id_that_cannot_name_a_directory_is_refused(self, tmp_path, capsys, change, where):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {**TINY, **change})
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: {where}: run id \S+ is longer than 255 bytes\n", err), err
        assert not out.exists()

    def test_grid_is_the_full_product(self):
        grid = expand_sweeps({"params": {"a": [1, 2], "b": [3, 4]}})
        assert grid == [
            ("a=1,b=3", {"a": 1, "b": 3}), ("a=1,b=4", {"a": 1, "b": 4}),
            ("a=2,b=3", {"a": 2, "b": 3}), ("a=2,b=4", {"a": 2, "b": 4}),
        ]
        # one parameter varies alone, one point per value
        assert expand_sweeps({"params": {"a": [1, 2]}}) == [("a=1", {"a": 1}), ("a=2", {"a": 2})]
        for empty in (None, {}, {"params": {}}):
            assert expand_sweeps(empty) == [("", {})]


def load_config_dict(d):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "cfg.json"
        path.write_text(json.dumps(d))
        return load_config(path)


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_out")
    cfg = load_config_dict(TINY)
    records = execute(cfg, out)
    return out, cfg, records


class TestExecution:
    def test_rows_per_period(self, tiny_results):
        out, cfg, records = tiny_results
        rows = read_rows(out)
        fin = [r for r in rows if r["strategy"] == "finetune"]
        assert len(fin) == 2  # one row per period
        assert {r["period"] for r in fin} == {"1", "2"}

    def test_af_present_for_second_period(self, tiny_results):
        out, _, _ = tiny_results
        rows = read_rows(out)
        fin2 = [r for r in rows if r["strategy"] == "finetune" and r["period"] == "2"][0]
        assert fin2["af"] != ""
        fin1 = [r for r in rows if r["strategy"] == "finetune" and r["period"] == "1"][0]
        assert fin1["af"] == ""

    def test_artifacts_written(self, tiny_results):
        out, _, _ = tiny_results
        for name in (
            "results.csv",
            "summary.json",
            "summary.txt",
            "timing.jsonl",
            "resolved_config.json",
            "config_hash.txt",
        ):
            assert (out / name).exists(), name
        run_dirs = list((out / "runs").iterdir())
        assert len(run_dirs) == 2
        for rd in run_dirs:
            assert (rd / "record.json").exists()
            assert (rd / "epochs.jsonl").exists()

    def test_rows_carry_config_hash(self, tiny_results):
        out, cfg, _ = tiny_results
        expected = (out / "config_hash.txt").read_text().strip()
        assert expected == config_hash(cfg)
        assert all(r["config_hash"] == expected for r in read_rows(out))

    def test_report_round_trip(self, tiny_results):
        out, _, records = tiny_results
        table = format_summary_table(load_records(out))
        assert "finetune" in table and "joint" in table

    def test_resume_skips_completed(self, tiny_results, tmp_path):
        out, cfg, _ = tiny_results
        run_dirs = sorted((out / "runs").iterdir())
        mtimes = {rd.name: (rd / "record.json").stat().st_mtime_ns for rd in run_dirs}
        victim = run_dirs[0]
        (victim / "record.json").unlink()
        execute(cfg, out, resume=True)
        for rd in sorted((out / "runs").iterdir()):
            if rd.name == victim.name:
                assert (rd / "record.json").exists()
            else:
                assert (rd / "record.json").stat().st_mtime_ns == mtimes[rd.name]

    def test_resume_reruns_records_of_another_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        out = tmp_path / "out"
        execute(cfg, out)
        changed = load_config(
            write_config(tmp_path, {**TINY, "train": {**TINY["train"], "epochs": 3}}, "c2.json")
        )
        assert config_hash(changed) != config_hash(cfg)
        lines: list[str] = []
        execute(changed, out, resume=True, echo=lines.append)
        assert "2 stale runs from another config hash will be rerun" in lines
        rows = read_rows(out)
        assert rows and all(r["config_hash"] == config_hash(changed) for r in rows)
        for rd in (out / "runs").iterdir():
            record = json.loads((rd / "record.json").read_text())
            assert record["config_hash"] == config_hash(changed)

    def test_resume_reruns_a_record_that_is_not_json(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        execute(cfg, out)
        execute(cfg, fresh)
        victim = out / "runs" / "finetune__seed0" / "record.json"
        victim.write_text('{"strategy": "finetune", "config')
        other = out / "runs" / "joint__seed0" / "record.json"
        kept = other.stat().st_mtime_ns
        lines: list[str] = []
        execute(cfg, out, resume=True, echo=lines.append)
        assert lines[:2] == [
            "2 runs planned, 1 to execute (resume=True)",
            "1 stale runs whose record.json cannot be read will be rerun",
        ]
        assert json.loads(victim.read_text())["config_hash"] == config_hash(cfg)
        assert other.stat().st_mtime_ns == kept
        assert (out / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["hash only", "periods a string", "no periods"])
    def test_resume_reruns_a_record_that_is_not_a_run_record(self, tiny_results, tmp_path, kind):
        cfg = load_config(write_config(tmp_path, TINY))
        out = tmp_path / "out"
        execute(cfg, out)
        victim = out / "runs" / "finetune__seed0"
        spoil_record(victim, kind)
        lines: list[str] = []
        execute(cfg, out, resume=True, echo=lines.append)
        assert lines[:2] == [
            "2 runs planned, 1 to execute (resume=True)",
            "1 stale runs whose record.json cannot be read will be rerun",
        ]
        assert list(json.loads((victim / "record.json").read_text())) == RECORD_KEYS
        fresh = tiny_results[0]
        assert (out / "results.csv").read_bytes() == (fresh / "results.csv").read_bytes()

    def test_resume_counts_records_of_another_config_apart_from_unreadable_ones(self, tmp_path):
        out = tmp_path / "out"
        execute(load_config(write_config(tmp_path, TINY)), out)
        changed = load_config(
            write_config(tmp_path, {**TINY, "train": {**TINY["train"], "epochs": 3}}, "c2.json")
        )
        spoil_record(out / "runs" / "finetune__seed0", '{"x')
        lines: list[str] = []
        execute(changed, out, resume=True, echo=lines.append)
        assert lines[:3] == [
            "2 runs planned, 2 to execute (resume=True)",
            "1 stale runs from another config hash will be rerun",
            "1 stale runs whose record.json cannot be read will be rerun",
        ]

    def test_record_and_timing_key_order(self, tiny_results):
        out, _, _ = tiny_results
        for rd in sorted((out / "runs").iterdir()):
            record = json.loads((rd / "record.json").read_text())
            assert list(record) == RECORD_KEYS
            assert [list(pm) for pm in record["periods"]] == [PERIOD_KEYS] * 2
        rows = [json.loads(line) for line in (out / "timing.jsonl").read_text().splitlines()]
        assert [list(row) for row in rows] == [TIMING_KEYS] * 2

    def test_summary_txt_is_the_table_of_the_records(self, tiny_results):
        out, _, _ = tiny_results
        assert (out / "summary.txt").read_text() == format_summary_table(load_records(out)) + "\n"

    def test_run_directories_not_planned_are_named_and_kept(self, tmp_path):
        out = tmp_path / "out"
        execute(load_config(write_config(tmp_path, {**TINY, "seeds": [0, 1]}, "two.json")), out)
        lines: list[str] = []
        execute(load_config(write_config(tmp_path, TINY, "one.json")), out, echo=lines.append)
        assert lines[1] == (
            "2 run directories not planned by this config were left in place: finetune__seed1, joint__seed1"
        )
        assert len(lines) == 4  # the plan, the leftovers and two runs done
        assert sorted(d.name for d in (out / "runs").iterdir()) == [
            "finetune__seed0", "finetune__seed1", "joint__seed0", "joint__seed1",
        ]

    @pytest.mark.parametrize("resume", [False, True])
    def test_a_rerun_leaves_no_buffer_of_another_config(self, tmp_path, resume):
        two = {**TINY, "strategies": ["er"]}
        three = {**two, "data": {"synthetic": {**TINY_DATA["synthetic"], "num_periods": 3}}}
        out, run_dir = tmp_path / "out", tmp_path / "out" / "runs" / "er__seed0"
        execute(load_config(write_config(tmp_path, three, "three.json")), out)
        assert json.loads((run_dir / "buffer_p3.json").read_text())["period"] == 3
        execute(load_config(write_config(tmp_path, two, "two.json")), out, resume=resume)
        assert [pm["period"] for pm in json.loads((run_dir / "record.json").read_text())["periods"]] == [1, 2]
        assert sorted(path.name for path in run_dir.glob("buffer_p*.json")) == ["buffer_p2.json"]

    @pytest.mark.skipif(not OPENBLAS, reason="numpy ships no scipy-openblas library")
    def test_a_pool_worker_runs_one_blas_thread(self):
        from concurrent.futures import ProcessPoolExecutor

        before = blas_threads()
        with ProcessPoolExecutor(max_workers=1, initializer=_init_worker, initargs=(None,)) as pool:
            assert pool.submit(blas_threads).result(timeout=60) == 1
        assert blas_threads() == before  # the caller's own BLAS is left alone

    def test_jobs_below_one_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TINY))
        with pytest.raises(ValueError, match="jobs must be an integer >= 1, got 0"):
            execute(cfg, tmp_path / "out", jobs=0)
        assert not (tmp_path / "out").exists()

    def test_deterministic_csv(self, tiny_results, tmp_path):
        out, cfg, _ = tiny_results
        out2 = tmp_path / "again"
        execute(cfg, out2)
        assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


class TestPresetStructure:
    def run_preset(self, tmp_path, preset, extra=None, name="cfg.json"):
        cfg_dict = {
            "include": preset,
            "data": TINY_DATA,
            "train": {"epochs": 2, "batch_size": 32, "patience": 2, "lr": 0.1},
            "seeds": [0],
        }
        if extra:
            cfg_dict.update(extra)
        cfg = load_config(write_config(tmp_path, cfg_dict, name))
        out = tmp_path / f"out_{preset}"
        with pytest.warns(UserWarning):  # tiny data clamps the preset budgets
            execute(cfg, out)
        return read_rows(out)

    def test_main_preset_strategies(self, tmp_path):
        rows = self.run_preset(tmp_path, "main")
        assert {r["strategy"] for r in rows} == {"joint", "finetune", "er", "icarl", "ltf"}

    def test_ablation_preset_rows(self, tmp_path):
        rows = self.run_preset(tmp_path, "ablation")
        variants = {r["variant"] for r in rows if r["strategy"] == "ltf"}
        assert variants == {
            "ablation=err_only",
            "ablation=dist_only",
            "ablation=both",
            "ablation=both_plus_ldst",
        }


class TestCli:
    def test_run_exit_codes(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "cli_out"
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        assert (out / "results.csv").exists()

    def test_run_invalid_config_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["sgd"]})
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "x")]) == 2
        assert "strategies" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "synth, message",
        [
            ({"bogus": 1}, "config error: bogus: unknown key (known: num_periods, "),
            ({"num_periods": True}, "config error: num_periods must be an integer >= 1, got True\n"),
            ({"class_center_scale": -1.0}, "config error: class_center_scale must be a finite number >= 0, got -1.0\n"),
        ],
    )
    def test_gen_invalid_config_exit_2(self, tmp_path, capsys, synth, message):
        path = write_config(tmp_path, synth, "synth.json")
        assert cli.main(["gen", str(path), "--out", str(tmp_path / "data")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "data").exists()

    def test_run_requires_output_dir(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, TINY)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", str(cfg_path)])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_gen_select_report_pipeline(self, tmp_path, capsys):
        synth = write_config(tmp_path, TINY_DATA["synthetic"], "synth.json")
        data_dir = tmp_path / "data"
        assert cli.main(["gen", str(synth), "--out", str(data_dir)]) == 0
        assert (data_dir / "nodes.csv").exists()

        files = {kind: str(data_dir / f"{kind}.{ext}") for kind, ext in FILE_KINDS}
        cfg_path = write_config(tmp_path, {**TINY, "data": {"files": files}, "strategies": ["ltf"]})
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(period_one_scorer(load_data({"files": files})), scorer)
        buf_path = tmp_path / "buffer.json"
        code = cli.main(
            ["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2",
             "--model", str(scorer), "--out", str(buf_path)]
        )
        assert code == 0
        buf = json.loads(buf_path.read_text())
        assert buf["period"] == 2 and len(buf["sub"]) == 3 and len(buf["sim"]) == 2

        cfg_path = write_config(tmp_path, TINY)
        out = tmp_path / "rep_out"
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 0
        assert "finetune" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, fault",
        [("run", "missing"), ("gen", "missing"), ("run", "not_json"), ("gen", "not_json"),
         ("run", "list_root"), ("gen", "list_root")],
        ids=["run-missing-False", "gen-missing-False", "run-not_json-False", "gen-not_json-False",
             "run-list_root", "gen-list_root"],
    )
    def test_unreadable_config_file_exit_2(self, tmp_path, capsys, command, fault):
        bad = tmp_path / "bad.json"
        body = {"missing": None, "not_json": '{"num_periods": 2,', "list_root": "[1, 2]"}[fault]
        if body is not None:
            bad.write_text(body)
        out = tmp_path / "out"
        assert cli.main([command, str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "select"])
    def test_no_config_file_or_preset_is_one_config_error(self, tmp_path, capsys, command):
        """Without a config file or a preset, only the dataclass defaults
        would set the runs, which no preset uses."""
        out = tmp_path / "out"
        args = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "m.json"]}
        assert cli.main([command, *args[command]]) == 2
        assert capsys.readouterr().err == (
            "config error: no config: name a config file or a preset (known: main, ablation, partition)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "select"])
    @pytest.mark.parametrize("written", ["hidden_dim", "output_dir", "file_include", "resolved_with_hidden_dim"])
    def test_a_dropped_setting_is_one_config_error(self, tmp_path, capsys, command, written):
        """Every model has ``backbone.HIDDEN_DIM`` hidden units, ``--out``
        names the output directory and ``include`` names a preset, so
        ``hidden_dim``, ``output_dir`` and an ``include`` of a file are
        refused, also in a ``resolved_config.json`` of the earlier format,
        which held ``"hidden_dim": 64``."""
        out = tmp_path / "out"
        base = write_config(tmp_path, TINY, "base.json")
        cfg = {
            "hidden_dim": {**TINY, "hidden_dim": 64},
            "output_dir": {**TINY, "output_dir": str(out)},
            "file_include": {"include": str(base)},
            "resolved_with_hidden_dim": {**load_config_dict(TINY), "hidden_dim": 64},
        }[written]
        path = tmp_path / "resolved_config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        if written == "resolved_with_hidden_dim":  # the bytes the earlier format wrote for TINY
            assert hashlib.sha256(path.read_bytes()).hexdigest() == (
                "9ab972ea716bda3a8a2bea67326a1c0c7a5eec051f401ec7f48d0eb85263b186"
            )
        args = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "m.json"]}
        assert cli.main([command, str(path), *args[command]]) == 2
        if written == "file_include":
            want = f"include: unknown preset {str(base)!r} (known: main, ablation, partition)"
        else:
            key = written.removeprefix("resolved_with_")
            want = f"{key}: unknown key (known: data, sel, train, seeds, strategies, sweeps)"
        assert capsys.readouterr().err == f"config error: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "select"])
    @pytest.mark.parametrize("written", ["empty_section", "resolved_with_squared_distance"])
    def test_a_kernel_section_is_an_unknown_key(self, tmp_path, capsys, command, written):
        """The kernel takes no settings, so a ``kernel`` section is refused by
        name, also in a ``resolved_config.json`` of the earlier format, which
        held ``"kernel": {"squared_distance": false}``."""
        if written == "empty_section":
            cfg = {**TINY, "kernel": {}}
        else:
            cfg = {**load_config_dict(TINY), "kernel": {"squared_distance": False}}
        path = tmp_path / "resolved_config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "out"
        args = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "m.json"]}
        assert cli.main([command, str(path), *args[command]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel: unknown key (known: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "select"])
    @pytest.mark.parametrize("written", ["grid", "axes", "ablation_resolved_with_grid"])
    def test_a_sweeps_mode_is_an_unknown_key(self, tmp_path, capsys, monkeypatch, command, written):
        """A sweep is always the full product of its values, so ``sweeps.mode``
        is refused by name, also in an ``ablation`` ``resolved_config.json``
        of the earlier format, which held ``"mode": "grid"``."""
        monkeypatch.delenv("TGCL_SEED", raising=False)
        if written == "ablation_resolved_with_grid":
            cfg = load_config(preset="ablation")
            cfg["sweeps"] = {"mode": "grid", **cfg["sweeps"]}
        else:
            cfg = {**TINY, "strategies": ["ltf"], "sweeps": {"mode": written, "params": {"alpha": [0.5, 1.0]}}}
        path = tmp_path / "resolved_config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "out"
        args = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "m.json"]}
        assert cli.main([command, str(path), *args[command]]) == 2
        assert capsys.readouterr().err == "config error: sweeps.mode: unknown key (known: params)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "select"])
    @pytest.mark.parametrize("via", ["include", "flag"])
    def test_an_unknown_preset_is_refused(self, tmp_path, capsys, command, via):
        out = tmp_path / "out"
        args = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "m.json"]}
        if via == "include":
            path = write_config(tmp_path, {"include": "sensitivity"})
            assert cli.main([command, str(path), *args[command]]) == 2
            assert capsys.readouterr().err == (
                "config error: include: unknown preset 'sensitivity' (known: main, ablation, partition)\n"
            )
        else:
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--preset", "sensitivity", *args[command]])
            assert exc.value.code == 2
            assert "--preset: invalid choice: 'sensitivity'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"strategies": ["ltf", "ltf", "er"]}, "strategies: duplicate strategies"),
            ({"strategies": ["joint", "joint"]}, "strategies: duplicate strategies"),
            ({"strategies": ["ltf", "er"]}, "sweeps.params.p: duplicate values"),
            ({"strategies": ["ltf"], "sweeps": {"params": {"p": [8, 16], "alpha": [1, 1.0]}}},
             "sweeps.params.alpha: duplicate values"),
        ],
        ids=["strategy", "joint", "sweep_value", "equal_int_and_float"],
    )
    def test_duplicates_are_refused(self, tmp_path, capsys, change, message):
        """A repeated strategy or sweep value, compared by ``==``, would plan
        one run twice or two run ids for one config."""
        cfg = {**TINY, "sweeps": {"params": {"p": [8, 8], "alpha": [1, 1.0]}}, **change}
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--jobs", "1"],
            ["run", "--jobs", "2"],
            ["select", "--run", "er__seed0", "--period", "2", "--model", "model_p1.json"],
        ],
    )
    def test_missing_data_file_is_named_before_any_run(self, tmp_path, capsys, argv):
        synth = write_config(tmp_path, TINY_DATA["synthetic"], "synth.json")
        data_dir = tmp_path / "data"
        assert cli.main(["gen", str(synth), "--out", str(data_dir)]) == 0
        files = {kind: str(data_dir / f"{kind}.{ext}") for kind, ext in FILE_KINDS}
        files["nodes"] = str(tmp_path / "no_nodes.csv")
        cfg = {**TINY, "data": {"files": files}, "strategies": ["finetune", "er"]}
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, cfg)
        out_args = ["--out", str(out)] if argv[0] == "run" else []
        assert cli.main([argv[0], str(cfg_path), *argv[1:], *out_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {files['nodes']}: ") and err.count("\n") == 1
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("fault", ["not_utf8", "empty_period"])
    def test_bad_graph_file_is_a_data_error(self, tmp_path, capsys, fault):
        graph = make_two_period_graph()
        if fault == "empty_period":  # only period 1 holds events
            graph = TemporalGraph.from_parts(graph.nodes, event_columns([Event(0, 1, 0.5)]), graph.periods)
        paths = save_graph(graph, tmp_path / "data")
        if fault == "not_utf8":
            paths["nodes"].write_bytes(paths["nodes"].read_bytes().replace(b"\n", b"\n\xff\xfe", 1))
        files = {kind: str(path) for kind, path in paths.items()}
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {**TINY, "data": {"files": files}})
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        want = {
            "not_utf8": f"data error: {paths['nodes']}:2: not valid UTF-8 (",
            "empty_period": f"data error: {paths['periods']}: entry 1: no events in period 2's span",
        }[fault]
        assert err.startswith(want) and err.count("\n") == 1
        assert not (out / "runs").exists()

    def test_run_rejects_non_finite_alpha(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "strategies": ["ltf"]})[:-1] + ', "sel": {"alpha": NaN}}')
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: sel: alpha must be a finite number >= 0, got nan\n"

    @pytest.mark.parametrize(
        "extra, where",
        [
            ({"train": {**TINY["train"], "lr": math.inf}}, "train"),
            ({"sweeps": {"params": {"lr": [0.1, math.inf]}}}, "sweeps.params.lr=inf"),
        ],
    )
    def test_run_rejects_infinite_lr(self, tmp_path, capsys, extra, where):
        cfg_path = write_config(tmp_path, {**TINY, **extra})
        assert "Infinity" in cfg_path.read_text()
        assert cli.main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {where}: lr must be a finite number > 0, got inf\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_run_whose_training_diverges_is_a_run_error(self, tmp_path, capsys, jobs):
        # a finite lr is a valid config; only training shows that it diverges
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"], "train": {**TINY["train"], "lr": 1e308}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow on the way
            assert cli.main(["run", str(cfg_path), "--out", str(out), "--jobs", jobs, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "run error: joint__seed0: non-finite parameters or validation scores at period 1 epoch 0\n"
        )
        assert not list(out.rglob("record.json"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_divergence_in_a_runs_last_update_is_a_run_error(self, tmp_path, capsys, jobs):
        # one step at lr 1e308 leaves the parameters finite, at up to about
        # 1e307, and the validation scores they give are not
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, LAST_UPDATE_DIVERGES)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # training silences numpy's overflow warnings
            assert cli.main(["run", str(cfg_path), "--out", str(out), "--jobs", jobs, "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "run error: joint__seed0: non-finite parameters or validation scores at period 1 epoch 0\n"
        )
        assert not (out / "results.csv").exists()
        assert not list(out.rglob("record.json"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_diverging_run_prints_one_line(self, tmp_path, jobs):
        # in a fresh interpreter, whose warnings (pool workers' too) reach stderr
        cfg_path = write_config(tmp_path, LAST_UPDATE_DIVERGES)
        argv = ["run", str(cfg_path), "--out", str(tmp_path / "out"), "--jobs", jobs, "--quiet"]
        proc = subprocess.run([sys.executable, "-m", "tgcl.cli", *argv], capture_output=True, text=True, env=SRC_ENV)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "run error: joint__seed0: non-finite parameters or validation scores at period 1 epoch 0"
        ]

    @pytest.mark.parametrize(
        "command, field, what",
        [
            (command, field, what)
            for field, what in [
                ("num_periods", "nodes"),
                ("classes_per_period", "nodes"),
                ("nodes_per_class_per_period", "nodes"),
                ("feature_dim", "node feature entries"),
                ("events_per_node", "events"),
            ]
            for command in ["run", "select", "gen"]
        ],
    )
    def test_a_size_that_cannot_be_built_is_a_config_error(self, tmp_path, capsys, command, field, what):
        huge = 2**70
        out = tmp_path / "out"
        if command == "gen":
            body, where = {field: huge}, field
        else:
            body, where = {**TINY, "data": {"synthetic": {field: huge}}}, f"data.synthetic.{field}"
        cfg_path = write_config(tmp_path, body)
        argv = {
            "run": ["run", str(cfg_path), "--out", str(out)],
            "select": ["select", str(cfg_path), "--run", "finetune__seed0", "--period", "2", "--model", "model.json"],
            "gen": ["gen", str(cfg_path), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: {where} {huge} makes \d+ {what}, more than 100000000\n", err)
        assert not out.exists()

    @pytest.mark.parametrize("field", ["class_center_scale", "noise_sigma"])
    @pytest.mark.parametrize("command", ["run", "select", "gen"])
    def test_a_generated_non_finite_feature_is_a_config_error(self, tmp_path, capsys, command, field):
        synth = {**TINY_DATA["synthetic"], field: 1e308}  # finite, but features overflow or exceed MAX_FEATURE
        out = tmp_path / "out"
        if command == "gen":
            cfg_path = write_config(tmp_path, synth, "synth.json")
            where = re.escape(str(cfg_path))
        else:
            cfg_path, where = write_config(tmp_path, {**TINY, "data": {"synthetic": synth}}), r"data\.synthetic"
        argv = {
            "run": ["run", str(cfg_path), "--out", str(out)],
            "select": ["select", str(cfg_path), "--run", "finetune__seed0", "--period", "2", "--model", "model.json"],
            "gen": ["gen", str(cfg_path), "--out", str(out)],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        fault = {"class_center_scale": r"a feature of magnitude above 1e\+12", "noise_sigma": "a non-finite feature"}
        assert re.fullmatch(rf"config error: {where}: node \d+ has {fault[field]}\n", err), err
        # run builds the graph once it has written the config, before any run starts
        written = ["config_hash.txt", "resolved_config.json"] if command == "run" else []
        assert sorted(p.name for p in out.glob("*")) == written

    def test_run_rejects_a_graph_without_events(self, tmp_path, capsys):
        paths = save_graph(make_two_period_graph(), tmp_path / "data")
        paths["events"].write_text("src,dst,t\n")
        files = {kind: str(path) for kind, path in paths.items()}
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, {**TINY, "data": {"files": files}})
        assert cli.main(["run", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"data error: {paths['periods']}: entry 0: no events in period 1's span [0.0, 1.0)"
            f" (see {paths['events']})\n"
        )
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("resume", [[], ["--resume"]])
    def test_a_record_that_is_a_directory_is_named_before_any_run(self, tmp_path, capsys, resume):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, TINY)
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        spoil_record(out / "runs" / "joint__seed0", "directory")
        before = {path: path.stat().st_mtime_ns for path in out.rglob("*")}
        assert cli.main(["run", str(cfg_path), "--out", str(out), *resume, "--quiet"]) == 2
        record = out / "runs" / "joint__seed0" / "record.json"
        assert capsys.readouterr().err == f"run error: {record}: is a directory\n"
        assert {path: path.stat().st_mtime_ns for path in out.rglob("*")} == before

    @pytest.mark.parametrize(
        "blocked, kind",
        [
            ("runs", "file"),
            ("runs/ltf__seed0", "file"),
            ("runs/ltf__seed0/epochs.jsonl", "directory"),
            ("runs/ltf__seed0/buffer_p2.json", "directory"),
            ("results.csv", "directory"),
        ],
    )
    def test_an_output_path_in_the_way_is_named_before_anything_is_written(self, tmp_path, capsys, blocked, kind):
        out = tmp_path / "out"
        path = out / blocked
        path.parent.mkdir(parents=True)
        if kind == "file":
            path.write_text("kept\n")
        else:
            path.mkdir()
        before = sorted(p.name for p in out.iterdir())
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"]})
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2
        what = "not a directory" if kind == "file" else "is a directory"
        assert capsys.readouterr().err == f"run error: {path}: {what}\n"
        assert sorted(p.name for p in out.iterdir()) == before
        assert not list(out.rglob("record.json"))

    @pytest.mark.parametrize(
        "synth",
        [
            {"events_per_node": 0},
            {"classes_per_period": 1, "nodes_per_class_per_period": 1},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "select"])
    def test_a_synthetic_period_without_events_is_a_config_error(self, tmp_path, capsys, synth, command):
        out = tmp_path / "out"
        data = {"synthetic": {**TINY_DATA["synthetic"], **synth}}
        cfg_path = write_config(tmp_path, {**TINY, "data": data, "strategies": ["ltf"]})
        argv = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "model_p1.json"]}
        assert cli.main([command, str(cfg_path), *argv[command]]) == 2
        assert capsys.readouterr().err == "config error: data.synthetic: no events in period 1's span [0.0, 1.0)\n"
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, TINY)
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"run error: --jobs {jobs}: must be at least 1\n"
        assert not out.exists()

    def test_report_reads_only_the_runs_of_the_directory_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        for seeds, name in (([0, 1], "two.json"), ([0], "one.json")):
            cfg_path = write_config(tmp_path, {**TINY, "seeds": seeds}, name)
            capsys.readouterr()
            assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        ran = capsys.readouterr().out
        assert len(list((out / "runs").iterdir())) == 4  # seed 1's runs are left over
        with pytest.warns(UserWarning, match="finetune__seed1, joint__seed1$"):
            assert cli.main(["report", str(out)]) == 0
        table = capsys.readouterr().out
        assert ran == f"{table}results written to {out}\n"

    @pytest.mark.parametrize(
        "run_id, period, message",
        [
            ("er__seed0", 2, "--run er__seed0: not planned by the config (planned: joint__seed0, "),
            ("joint__seed0", 2, "run joint__seed0 selects nothing at period 2\n"),
            ("finetune__seed0", 2, "run finetune__seed0 selects nothing at period 2\n"),
            ("ltf__seed0", 1, "run ltf__seed0 selects nothing at period 1\n"),
            ("ltf__seed0", 0, "--period 0: outside 1..2\n"),
            ("ltf__seed0", 3, "--period 3: outside 1..2\n"),
        ],
    )
    def test_select_user_errors_exit_2(self, tmp_path, capsys, run_id, period, message):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["finetune", "ltf"]})
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(period_one_scorer(load_data(TINY_DATA)), scorer)
        code = cli.main(
            ["select", str(cfg_path), "--run", run_id, "--period", str(period), "--model", str(scorer)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"select error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "feature_dim, hidden_dim, message",
        [(8, 16, "feature_dim 8 is not the run's 3"), (3, 16, "hidden_dim 16 is not the run's 64")],
    )
    def test_select_rejects_a_checkpoint_of_another_size(self, tmp_path, capsys, feature_dim, hidden_dim, message):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"]})
        model = Backbone(feature_dim, hidden_dim=hidden_dim, seed=0)
        model.grow_head(sorted(load_data(TINY_DATA).period(1).classes))
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(model, scorer)
        code = cli.main(["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer)])
        assert code == 2
        assert capsys.readouterr().err == f"select error: {scorer}: {message}\n"

    def test_select_rejects_a_checkpoint_of_other_classes_before_selecting(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"]})
        graph = load_data(TINY_DATA)
        model = Backbone(graph.feature_dim, seed=0)
        model.grow_head(sorted(graph.period(1).classes, reverse=True))  # periods sort their classes
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(snapshot(model), scorer)

        def forbidden(*args, **kwargs):
            raise AssertionError("the checkpoint is checked before selecting")

        monkeypatch.setattr(cli, "plan_period", forbidden)
        code = cli.main(
            ["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer)]
        )
        assert code == 2
        err = capsys.readouterr().err
        want = sorted(graph.period(1).classes)
        assert err == (
            f"select error: {scorer}: classes {want[::-1]} are not those of periods 1..1: {want}\n"
        )

    @pytest.mark.parametrize(
        "fault, reason",
        [
            ("no_params", "params: missing"),
            ("list", "a checkpoint is a JSON object, not a list"),
            ("w_agg_shape", "params.w_agg: shape [64, 3] does not fit feature_dim, hidden_dim and classes"),
            ("w_hid_nan", "params.w_hid: data[7] must be a finite number, got nan"),
            ("snapshot_kind", "kind: must be 'backbone', got 'snapshot'"),
        ],
    )
    def test_select_rejects_a_malformed_checkpoint(self, tmp_path, capsys, fault, reason):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"]})
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(period_one_scorer(load_data(TINY_DATA)), scorer)
        body = json.loads(scorer.read_text())
        if fault == "no_params":
            del body["params"]
        elif fault == "list":
            body = [body]
        elif fault == "w_agg_shape":
            body["params"]["w_agg"]["shape"] = [64, 3]
        elif fault == "snapshot_kind":  # the frozen-copy kind of earlier versions
            del body["head_init_scale"], body["rng_state"]
            body["kind"] = "snapshot"
        else:
            body["params"]["w_hid"]["data"][7] = math.nan
        scorer.write_text(json.dumps(body))
        code = cli.main(["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"select error: {scorer}: cannot load the model checkpoint: {reason}")
        assert err.count("\n") == 1

    def test_gen_refuses_a_graph_with_an_empty_period(self, tmp_path, capsys):
        synth = {"num_periods": 2, "classes_per_period": 2, "nodes_per_class_per_period": 4, "events_per_node": 0}
        path = write_config(tmp_path, synth, "synth.json")
        out = tmp_path / "data"
        assert cli.main(["gen", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: no events in period 1's span [0.0, 1.0)\n"
        assert not out.exists()

    @pytest.mark.parametrize("data", ["synthetic", "files"])
    @pytest.mark.parametrize("command", ["run", "select"])
    def test_data_that_no_run_can_score_is_refused_before_any_run(self, tmp_path, capsys, data, command):
        out = tmp_path / "out"
        if data == "synthetic":
            data_cfg = {"synthetic": NO_TEST_SYNTH}
            message = "config error: data.synthetic: period 1 has no test nodes under seed 0\n"
        else:
            data_cfg = {"files": save_graph_without_new_class_events(tmp_path / "data")}
            message = f"data error: {data_cfg['files']['nodes']}: period 2 has no new-class training nodes under seed 0\n"
        cfg = {**TINY, "data": data_cfg, "strategies": ["ltf"], "seeds": [0, 1]}
        cfg_path = write_config(tmp_path, cfg)
        argv = {"run": ["--out", str(out)], "select": ["--run", "ltf__seed0", "--period", "2", "--model", "model_p1.json"]}
        assert cli.main([command, str(cfg_path), *argv[command]]) == 2
        assert capsys.readouterr().err == message
        assert not (out / "runs").exists()

    def test_select_checks_only_its_runs_seed(self, tmp_path, capsys):
        # a fault under seed 1 alone: select of a seed-0 run passes, run refuses
        out = tmp_path / "out"
        data_cfg = {"files": save_graph_without_test_nodes_under_seed_1(tmp_path / "data")}
        cfg = {**TINY, "data": data_cfg, "strategies": ["ltf"], "seeds": [0, 1]}
        cfg_path = write_config(tmp_path, cfg)
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(period_one_scorer(load_data(data_cfg)), scorer)
        argv = ["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 2
        nodes = data_cfg["files"]["nodes"]
        assert capsys.readouterr().err == f"data error: {nodes}: period 2 has no test nodes under seed 1\n"
        assert not (out / "runs").exists()

    def test_gen_refuses_a_graph_without_test_nodes(self, tmp_path, capsys):
        path = write_config(tmp_path, NO_TEST_SYNTH, "synth.json")
        out = tmp_path / "data"
        assert cli.main(["gen", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: period 1 has no test nodes under seed 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_gen_out_below_a_file_is_an_error(self, tmp_path, capsys, below):
        synth = write_config(tmp_path, TINY_DATA["synthetic"], "synth.json")
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["gen", str(synth), "--out", str(blocker / below)]) == 2
        assert capsys.readouterr().err == f"gen error: {blocker}: not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "synth.json"]

    @pytest.mark.parametrize("name", ["nodes.csv", "events.csv", "periods.json"])
    def test_gen_onto_a_directory_is_an_error(self, tmp_path, capsys, name):
        synth = write_config(tmp_path, TINY_DATA["synthetic"], "synth.json")
        out = tmp_path / "data"
        (out / name).mkdir(parents=True)
        assert cli.main(["gen", str(synth), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"gen error: {out / name}: is a directory\n"
        assert [p.name for p in out.iterdir()] == [name]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_select_out_that_cannot_be_written_is_an_error(self, tmp_path, capsys, kind):
        cfg_path = write_config(tmp_path, {**TINY, "strategies": ["ltf"]})
        scorer = tmp_path / "model_p1.json"
        save_checkpoint(period_one_scorer(load_data(TINY_DATA)), scorer)
        out = tmp_path / "no_dir" / "b.json" if kind == "missing" else tmp_path
        code = cli.main(
            ["select", str(cfg_path), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer),
             "--out", str(out)]
        )
        assert code == 2
        want = f"{out.parent}: no such directory" if kind == "missing" else f"{out}: Is a directory"
        assert capsys.readouterr().err == f"select error: {want}\n"
        assert not (tmp_path / "no_dir").exists()

    @pytest.mark.parametrize("kind", [*STALE_RECORDS, "directory"])
    def test_report_skips_a_record_that_is_not_a_json_object(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, TINY)), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        spoil_record(out / "runs" / "finetune__seed0", kind)
        skipped = "is not a run record or is of a config other than .*: finetune__seed0$"
        with pytest.warns(UserWarning, match=skipped):
            assert cli.main(["report", str(out)]) == 0
        assert "joint" in capsys.readouterr().out
        spoil_record(out / "runs" / "joint__seed0", kind)
        with pytest.warns(UserWarning, match="finetune__seed0, joint__seed0$"):
            assert cli.main(["report", str(out)]) == 2
        assert capsys.readouterr().err == f"report error: no run records under {out}\n"

    @pytest.mark.parametrize("below", ["", "sub/dir"])
    @pytest.mark.parametrize("preset_only", [False, True])
    def test_run_into_a_file_exit_2(self, tmp_path, capsys, preset_only, below):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = str(taken / below) if below else str(taken)
        config = ["--preset", "main"] if preset_only else [str(write_config(tmp_path, TINY))]
        assert cli.main(["run", *config, "--out", out]) == 2
        assert capsys.readouterr().err == f"run error: {taken}: not a directory\n"
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_report_with_an_unreadable_config_hash_exit_2(self, tmp_path, capsys, kind):
        out = tmp_path / "out"
        assert cli.main(["run", str(write_config(tmp_path, TINY)), "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        hash_file = out / "config_hash.txt"
        hash_file.unlink()
        if kind == "directory":
            hash_file.mkdir()
        else:
            hash_file.write_bytes(b"\xff\xfe")
        assert cli.main(["report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"report error: {hash_file}: cannot read the config hash: ")
        assert err.count("\n") == 1
        if kind == "directory":
            assert err.endswith(": Is a directory\n")

    def test_report_without_records_exit_2(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"report error: no run records under {tmp_path}\n"

    def test_file_data_round_trip(self, tmp_path):
        synth = write_config(tmp_path, TINY_DATA["synthetic"], "synth.json")
        data_dir = tmp_path / "data"
        cli.main(["gen", str(synth), "--out", str(data_dir)])
        cfg = {
            **TINY,
            "data": {
                "files": {
                    "nodes": str(data_dir / "nodes.csv"),
                    "events": str(data_dir / "events.csv"),
                    "periods": str(data_dir / "periods.json"),
                }
            },
        }
        out = tmp_path / "file_out"
        assert cli.main(["run", str(write_config(tmp_path, cfg, "f.json")), "--out", str(out), "--quiet"]) == 0
        assert len(read_rows(out)) == 4


def gen_files(tmp_path, data_dir, seed):
    """``tgcl gen`` the tiny graph of generator seed ``seed`` into ``data_dir``."""
    synth = write_config(tmp_path, {**TINY_DATA["synthetic"], "seed": seed}, "synth.json")
    assert cli.main(["gen", str(synth), "--out", str(data_dir)]) == 0


#: data.files of a config beside a ``data/`` directory
RELATIVE_FILES = {kind: f"data/{kind}.{ext}" for kind, ext in FILE_KINDS}


def test_resume_reruns_runs_whose_data_files_changed(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TGCL_SEED", raising=False)
    cfgs = tmp_path / "cfgs"
    gen_files(tmp_path, cfgs / "data", seed=1)
    write_config(cfgs, {**TINY, "data": {"files": RELATIVE_FILES}}, "c.json")
    monkeypatch.chdir(cfgs)
    assert cli.main(["run", "c.json", "--out", "../o2", "--quiet"]) == 0
    stale = (tmp_path / "o2" / "results.csv").read_bytes()
    gen_files(tmp_path, cfgs / "data", seed=2)
    capsys.readouterr()
    assert cli.main(["run", "c.json", "--out", "../o2", "--resume"]) == 0
    echo = capsys.readouterr().out
    assert "2 runs planned, 2 to execute (resume=True)\n" in echo
    assert "2 stale runs from another config hash will be rerun\n" in echo
    assert cli.main(["run", "c.json", "--out", "../fresh", "--quiet"]) == 0
    resumed = (tmp_path / "o2" / "results.csv").read_bytes()
    assert resumed == (tmp_path / "fresh" / "results.csv").read_bytes() != stale


@pytest.mark.parametrize("periods", ["left_out", "null"])
def test_resume_reruns_runs_whose_sibling_periods_file_changed(tmp_path, capsys, monkeypatch, periods):
    """A ``files`` config without a periods path reads the ``periods.json``
    beside the nodes file, and its config hash covers that file."""
    monkeypatch.delenv("TGCL_SEED", raising=False)
    data_dir = tmp_path / "data"
    gen_files(tmp_path, data_dir, seed=1)
    files = {"nodes": str(data_dir / "nodes.csv"), "events": str(data_dir / "events.csv")}
    if periods == "null":
        files["periods"] = None
    cfg = load_config(write_config(tmp_path, {**TINY, "data": {"files": files}}))
    out = tmp_path / "out"
    execute(cfg, out)
    chash = config_hash(cfg)
    period_file = data_dir / "periods.json"
    period_file.write_text(json.dumps(json.loads(period_file.read_text())))  # the same periods, other bytes
    assert config_hash(cfg) != chash
    capsys.readouterr()
    execute(cfg, out, resume=True, echo=print)
    echo = capsys.readouterr().out
    assert "2 runs planned, 2 to execute (resume=True)\n" in echo
    assert "2 stale runs from another config hash will be rerun\n" in echo
    assert (out / "config_hash.txt").read_text() == config_hash(cfg) + "\n"


def test_a_config_names_the_same_data_from_any_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TGCL_SEED", raising=False)
    cfgs = tmp_path / "cfgs"
    gen_files(tmp_path, cfgs / "data", seed=1)
    write_config(cfgs, {**TINY, "data": {"files": RELATIVE_FILES}, "strategies": ["ltf"]}, "c.json")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "cfgs/c.json", "--out", "o", "--quiet"]) == 0
    resolved = tmp_path / "o" / "resolved_config.json"
    files = json.loads(resolved.read_text())["data"]["files"]
    assert files == {kind: str(cfgs / path) for kind, path in RELATIVE_FILES.items()}
    scorer = tmp_path / "model_p1.json"
    save_checkpoint(period_one_scorer(load_data({"files": files})), scorer)
    monkeypatch.chdir(cfgs / "data")
    capsys.readouterr()
    argv = ["select", str(resolved), "--run", "ltf__seed0", "--period", "2", "--model", str(scorer)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["period"] == 2


def test_deep_merge_nested():
    a = {"x": {"y": 1, "z": 2}, "k": [1]}
    b = {"x": {"z": 3}, "k": [2]}
    merged = deep_merge(a, b)
    assert merged == {"x": {"y": 1, "z": 3}, "k": [2]}


def test_parallel_jobs_match_serial(tmp_path):
    cfg = load_config_dict({**TINY, "strategies": ["finetune", "er"]})
    out_serial = tmp_path / "serial"
    out_par = tmp_path / "par"
    execute(cfg, out_serial, jobs=1)
    execute(cfg, out_par, jobs=2)
    assert (out_serial / "results.csv").read_bytes() == (out_par / "results.csv").read_bytes()


def test_execute_builds_the_graph_once_and_not_for_a_finished_resume(tmp_path, monkeypatch):
    from tgcl import harness

    calls = []
    real = harness.load_data

    def counting(data_cfg, seeds=()):
        calls.append(data_cfg)
        return real(data_cfg, seeds)

    monkeypatch.setattr(harness, "load_data", counting)
    cfg = load_config_dict({**TINY, "strategies": ["finetune", "er"], "seeds": [0, 1]})
    out = tmp_path / "out"
    execute(cfg, out, jobs=1)
    assert len(plan_runs(cfg)) == 6 and len(calls) == 1
    first = (out / "results.csv").read_bytes()
    execute(cfg, out, jobs=1, resume=True)
    execute(cfg, out, jobs=2, resume=True)
    assert len(calls) == 1
    assert (out / "results.csv").read_bytes() == first


def test_select_reproduces_every_buffer_of_a_run(tmp_path, monkeypatch):
    monkeypatch.delenv("TGCL_SEED", raising=False)
    cfg = load_config_dict(
        {
            **TINY,
            "data": {"synthetic": {**TINY_DATA["synthetic"], "num_periods": 3}},
            "strategies": ["ltf", "icarl"],
            "sel": {"m": 3, "m_prime": 2, "p": 8, "partitioner": "kmeans"},
            "sweeps": {"params": {"ablation": ["dist_only", "both_plus_ldst"]}},
        }
    )
    out = tmp_path / "out"
    execute(cfg, out)
    graph = load_data(cfg["data"])
    reselected = []
    for spec in plan_runs(cfg):
        if spec.strategy == "joint":
            continue
        outcomes = run_strategy(graph, spec.strategy, spec.sel, spec.train, seed=spec.seed)
        for n in (2, 3):
            scorer = tmp_path / f"{spec.run_id}_model_p{n - 1}.json"
            save_checkpoint(outcomes[n - 2].model_snapshot, scorer)
            got_path = tmp_path / f"{spec.run_id}_buffer_p{n}.json"
            argv = [
                "select", str(out / "resolved_config.json"), "--run", spec.run_id,
                "--period", str(n), "--model", str(scorer), "--out", str(got_path),
            ]
            assert cli.main(argv) == 0
            want = (out / "runs" / spec.run_id / f"buffer_p{n}.json").read_bytes()
            assert got_path.read_bytes() == want, (spec.run_id, n)
            reselected.append(json.loads(want))
    assert len(reselected) == 8
    ltf = [b for b in reselected if "part_sizes" in b["config"]]
    assert len(ltf) == 4 and all(len(b["config"]["part_sizes"]) > 1 for b in ltf)
    assert any(b["sim"] for b in ltf)


def memo_outputs(out):
    """What the period memo must leave as it is: every output file byte for
    byte but the three that hold wall times."""
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name not in ("record.json", "timing.jsonl", "summary.txt")
    }


def reused_periods(out):
    rows = [json.loads(line) for line in (out / "timing.jsonl").read_text().splitlines()]
    return {(r["strategy"], r["variant"]): r["reused_periods"] for r in rows}


#: strategies that share period 1, and ``ltf`` partitions that share period 2
#: at ``p=64``, where its 25 candidates make one part
MEMO_CONFIGS = {
    "strategies": {
        **TINY,
        "data": {"synthetic": {**TINY_DATA["synthetic"], "num_periods": 3}},
        "strategies": ["finetune", "er", "ltf"],
    },
    "partition": {
        **TINY,
        "strategies": ["ltf"],
        "sweeps": {"params": {"partitioner": ["random", "kmeans"], "p": [8, 64]}},
    },
}


@pytest.mark.parametrize("name", sorted(MEMO_CONFIGS))
def test_period_memo_leaves_outputs_as_a_fresh_memo_per_run(tmp_path, monkeypatch, name):
    from tgcl import harness

    cfg = load_config_dict(MEMO_CONFIGS[name])
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    execute(cfg, shared)
    real = harness._execute_run
    monkeypatch.setattr(harness, "_execute_run", lambda payload, graph, memo: real(payload, graph, {}))
    execute(cfg, fresh)
    assert memo_outputs(shared) == memo_outputs(fresh)
    assert set(map(tuple, reused_periods(fresh).values())) == {()}
    reused = reused_periods(shared)
    assert reused[("joint", "")] == []
    if name == "strategies":
        assert reused[("finetune", "")] == reused[("er", "")] == reused[("ltf", "")] == [1]
    else:
        assert reused[("ltf", "partitioner=random,p=8")] == [1]
        assert reused[("ltf", "partitioner=kmeans,p=64")] == [1, 2]


def test_period_memo_outputs_do_not_depend_on_jobs(tmp_path):
    cfg = load_config_dict(MEMO_CONFIGS["strategies"])
    execute(cfg, tmp_path / "serial", jobs=1)
    execute(cfg, tmp_path / "pool", jobs=2)
    assert memo_outputs(tmp_path / "serial") == memo_outputs(tmp_path / "pool")
    assert all(set(r) <= {1} for r in reused_periods(tmp_path / "pool").values())


#: A ``record.json`` as written before the record held its timing fields
#: (they were added beside ``RunRecord.to_dict()``): it must still resume.
PARENT_RECORD = """\
{
  "strategy": "finetune",
  "variant": "",
  "seed": 0,
  "config_hash": "482055dc1a6b",
  "periods": [
    {
      "period": 1,
      "precisions": [
        0.5
      ],
      "ap": 0.5,
      "af": null,
      "epoch_wall_ms": [
        0.5534930000976601,
        0.23411400002260052
      ],
      "selection_ms": 0.0,
      "epochs_ran": 2,
      "best_epoch": 0
    },
    {
      "period": 2,
      "precisions": [
        0.0,
        1.0
      ],
      "ap": 0.5,
      "af": null,
      "epoch_wall_ms": [
        0.45682200016017305,
        0.25069100001928746
      ],
      "selection_ms": 0.0,
      "epochs_ran": 2,
      "best_epoch": 0
    }
  ],
  "started_at": "2026-10-19T16:46:12.742154+00:00",
  "total_s": 0.002121774999977788,
  "reused_periods": [
    1
  ]
}
"""


def test_a_record_of_the_earlier_format_reads_back_equal(tmp_path):
    from tgcl import harness

    (tmp_path / "record.json").write_text(PARENT_RECORD)
    record = harness._read_record(tmp_path)
    assert (record.total_s, record.reused_periods, record.final_epoch_ms) == (
        0.002121774999977788, [1], (0.45682200016017305 + 0.25069100001928746) / 2
    )
    assert json.dumps(record.to_dict(), indent=2) + "\n" == PARENT_RECORD
