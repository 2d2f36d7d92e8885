"""The command line's error contract, tested generatively: a config that
differs from a tiny valid one in one leaf, or data files that differ from
a tiny graph's in one cell or one period field, either run (exit 0) or
are refused with exactly one ``<kind> error: ...`` line on stderr (exit
2), never a traceback. ``tgcl run`` is tested on a sample of the changes,
``tgcl gen`` on all of its own."""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from tgcl import cli
from tgcl.graph import MAX_FEATURE, SynthConfig, generate_synthetic, graph_paths, save_graph
from tgcl.harness import ENV_SEED
from tgcl.selector import SelectionConfig
from tgcl.trainer import TrainConfig

#: two periods of 30 nodes per class, two epochs, one seed; the sweep has
#: one point, so that its leaves can be changed too
BASE = {
    "include": "main",
    "strategies": ["ltf", "er"],
    "seeds": [0],
    "sweeps": {"params": {"patience": [2]}},
    "data": {"synthetic": {"num_periods": 2, "nodes_per_class_per_period": 30}},
    "sel": {"m": 4, "m_prime": 8, "p": 40},
    "train": {"epochs": 2},
    "hidden_dim": 64,
}

#: every leaf of BASE, every field its sections may set, every section
#: itself, and an unknown key in each object
PATHS = [
    ("include",), ("strategies", 0), ("strategies", 1), ("seeds", 0), ("hidden_dim",),
    ("sweeps", "params", "patience", 0),
    *[("data", "synthetic", f.name) for f in fields(SynthConfig)],
    *[("sel", f.name) for f in fields(SelectionConfig)],
    *[("train", f.name) for f in fields(TrainConfig)],
    ("data",), ("data", "synthetic"), ("sel",), ("train",), ("sweeps",), ("sweeps", "params"),
    ("strategies",), ("seeds",), ("output_dir",), ("sweeps", "params", "patience"),
    *[(*where, "bogus") for where in [(), ("data",), ("data", "synthetic"), ("sel",), ("train",),
                                      ("sweeps",), ("sweeps", "params")]],
]

#: wrong types, non-finite, zero, negative, huge and empty values; the
#: integer 10**400 is written as a 401-digit JSON literal
VALUES = ["x", True, math.nan, math.inf, -math.inf, 0, -1, 2**70, 1e308, 10**400, [], {}]

ONE_ERROR_LINE = re.compile(r"(config|data|run|gen) error: [^\n]+\n")


def changed(path, value) -> dict:
    cfg = copy.deepcopy(BASE)
    *parents, leaf = path
    body = cfg
    for key in parents:
        body = body[key]
    body[leaf] = value
    return cfg


def run_cli(cfg: dict, command: str = "run") -> tuple[int, str, list]:
    """``tgcl <command>`` on ``cfg`` in a fresh directory: the exit status,
    stderr and the warnings it raised, which a real run would print to
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue(), caught


@settings(
    max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(path=st.sampled_from(PATHS), value=st.sampled_from(VALUES))
# non-finite and huge generator scales, which overflowed a feature
@example(path=("data", "synthetic", "class_center_scale"), value=math.nan)
@example(path=("data", "synthetic", "class_center_scale"), value=math.inf)
@example(path=("data", "synthetic", "class_center_scale"), value=-math.inf)
@example(path=("data", "synthetic", "class_center_scale"), value=1e308)
@example(path=("data", "synthetic", "class_center_scale"), value=-1e308)
@example(path=("data", "synthetic", "drift_step"), value=math.nan)
@example(path=("data", "synthetic", "drift_step"), value=math.inf)
@example(path=("data", "synthetic", "noise_sigma"), value=math.inf)
@example(path=("data", "synthetic", "noise_sigma"), value=1e308)
# an integer beyond float range in a number field
@example(path=("train", "lr"), value=10**400)
@example(path=("train", "beta"), value=10**400)
@example(path=("sel", "alpha"), value=10**400)
@example(path=("data", "synthetic", "class_center_scale"), value=10**400)
@example(path=("data", "synthetic", "drift_step"), value=10**400)
@example(path=("data", "synthetic", "noise_sigma"), value=10**400)
# run ids too long to name a directory
@example(path=("seeds", 0), value=10**300)
@example(path=("sweeps", "params", "patience", 0), value=10**260)
# a data section that is not an object, which the include merge iterated
@example(path=("data",), value=True)
# guards that a tiny config's leaves do not reach
@example(path=("seeds",), value=[0, 0])
@example(path=("strategies",), value=["ltf", "ltf"])
@example(path=("sweeps", "params", "patience"), value=[2, 2.0])
@example(path=("data",), value={"files": {"events": "e.csv"}})
def test_one_changed_leaf_runs_or_prints_one_error_line(monkeypatch, path, value):
    monkeypatch.delenv(ENV_SEED, raising=False)
    code, err, caught = run_cli(changed(path, value))
    if code != 0:
        assert code == 2 and ONE_ERROR_LINE.fullmatch(err), (code, err)
        assert not caught, [str(w.message) for w in caught]


def test_the_base_config_runs():
    code, err, _ = run_cli(BASE)
    assert (code, err) == (0, "")


def test_one_changed_generator_field_generates_or_prints_one_error_line():
    for name in [f.name for f in fields(SynthConfig)] + ["bogus"]:
        for value in VALUES:
            code, err, caught = run_cli({**BASE["data"]["synthetic"], name: value}, "gen")
            if code != 0:
                assert code == 2 and ONE_ERROR_LINE.fullmatch(err) and not caught, (name, value, code, err)


def saved_graph_files() -> dict[str, str]:
    """The text of each data file of a tiny graph of two periods, by kind."""
    graph = generate_synthetic(SynthConfig(
        num_periods=2, classes_per_period=2, nodes_per_class_per_period=16, feature_dim=3, events_per_node=3,
    ))
    with tempfile.TemporaryDirectory() as tmp:
        return {kind: path.read_text() for kind, path in save_graph(graph, tmp).items()}


FILES = saved_graph_files()

#: every (kind, line, column) of a CSV data file, its header left out,
#: and every (entry, field) of the periods file
CELLS = [
    (kind, line, column)
    for kind in ("nodes", "events")
    for line, text in enumerate(FILES[kind].splitlines()) if line
    for column in range(text.count(",") + 1)
]
PERIOD_FIELDS = [(i, key) for i, entry in enumerate(json.loads(FILES["periods"])) for key in entry]

#: cell texts: not a number, non-finite, zero, negative, beyond int64 and
#: float range, fractional, empty, and a node, class or period that is not there
CELL_VALUES = [
    "x", "nan", "inf", "-inf", "0", "-1", str(2**70), "1e308", "-1e308", "1e200", str(10**400), "", "1.5", "99999",
]
PERIOD_VALUES = [0, -1, 2**70, 1e308, "x", None, [], [1e308], [2**70], 10**400, math.nan, 0.5, 5.0, True]

#: the sections of BASE other than data, which names the files
FILE_BASE = {key: value for key, value in BASE.items() if key != "data"}


def changed_files(where, value) -> dict[str, str]:
    """:data:`FILES` with the cell ``(kind, line, column)`` set to the text
    ``value``, or the periods entry field ``(entry, field)`` to the JSON
    ``value``."""
    files = dict(FILES)
    if len(where) == 3:
        kind, line, column = where
        lines = files[kind].splitlines()
        cells = lines[line].split(",")
        cells[column] = value
        lines[line] = ",".join(cells)
        files[kind] = "\n".join(lines) + "\n"
    else:
        entry, key = where
        periods = json.loads(files["periods"])
        periods[entry][key] = value
        files["periods"] = json.dumps(periods)
    return files


def run_on_files(files: dict[str, str]) -> tuple[int, str, list]:
    """:func:`run_cli` on a config of :data:`FILE_BASE` whose data files
    hold ``files``' texts."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = graph_paths(tmp)
        for kind, text in files.items():
            paths[kind].write_text(text)
        return run_cli({**FILE_BASE, "data": {"files": {kind: str(path) for kind, path in paths.items()}}})


@settings(
    max_examples=250, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(change=st.one_of(
    st.tuples(st.sampled_from(CELLS), st.sampled_from(CELL_VALUES)),
    st.tuples(st.sampled_from(PERIOD_FIELDS), st.sampled_from(PERIOD_VALUES)),
))
# finite features above MAX_FEATURE, which can drive training to non-finite values
@example(change=(("nodes", 2, 4), "1e36"))
@example(change=(("nodes", 2, 4), "1e200"))
def test_one_changed_data_cell_runs_or_prints_one_error_line(monkeypatch, change):
    monkeypatch.delenv(ENV_SEED, raising=False)
    code, err, caught = run_on_files(changed_files(*change))
    if code != 0:
        assert code == 2 and ONE_ERROR_LINE.fullmatch(err), (code, err)
        assert not caught, [str(w.message) for w in caught]
    if huge_feature(*change):
        where = rf"nodes\.csv:{change[0][1] + 1}"
        assert re.fullmatch(rf"data error: [^\n]*{where}: node \d+ has a feature of magnitude above 1e\+12\n", err), err


def huge_feature(where, value) -> bool:
    """Whether the change sets a feature cell of ``nodes.csv`` (the columns
    after id, class and period) to a finite number above ``MAX_FEATURE``."""
    if where[0] != "nodes" or where[2] < 3:
        return False
    try:
        return MAX_FEATURE < abs(float(value)) < math.inf
    except ValueError:
        return False


def test_the_base_data_files_run(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    code, err, _ = run_on_files(FILES)
    assert (code, err) == (0, "")
