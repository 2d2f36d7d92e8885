"""Experiment orchestration: configs, presets, seeded runs, persistence.

A single JSON config describes the data source, strategies, selection and
training settings, optional sweep grids, and seeds. A config may name a
preset through an ``include`` key; its own keys win.
Every (strategy x sweep-point x seed) combination becomes one run with its
own directory; a completed run leaves its record, ``RunRecord.to_dict()``,
in ``record.json``, so an interrupted invocation can resume. Only
:func:`_read_record` reads that file back. Every output file but
``record.json``, ``timing.jsonl`` and ``summary.txt``, which hold the wall
times, is byte-deterministic for fixed config and seeds.

Config keys, each checked at load by :func:`plan_runs`, the one check of a
config; any other key, also inside ``data``, ``sel``, ``train`` or
``sweeps``, is rejected by name. Integer and number fields pass
:func:`tgcl.graph.check_int` (JSON integers) and
:func:`tgcl.graph.check_number` (finite JSON numbers), never booleans.

* ``include``: a name in :data:`PRESETS`, resolved away at load.
* ``data``: exactly one of ``synthetic`` (:class:`SynthConfig` fields) or
  ``files`` (path strings ``nodes`` and ``events``, and ``periods``, a
  path string or null, which may be left out; see
  :func:`tgcl.graph.period_file_of`). A relative path is read against the
  directory of the config file that names it.
* ``strategies``: a nonempty list of distinct ``trainer.STRATEGIES`` names.
* ``sel``, ``train``: fields of :class:`SelectionConfig` and
  :class:`TrainConfig`; a ``str`` field takes a name (``__post_init__``).
* ``sweeps``: null, or ``params``, mapping ``sel``/``train`` fields to
  nonempty lists of distinct values; the runs take their full product.
* ``seeds``: a nonempty list of distinct integers >= 0. A run id (see
  :class:`RunSpec`) names a directory, so it may have at most 255 bytes.

Every run's model has :data:`tgcl.backbone.HIDDEN_DIM` hidden units.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

from .graph import (
    GraphFormatError, SynthConfig, TemporalGraph, check_int, generate_synthetic, load_graph, period_fault,
    period_file_of,
)
from .metrics import RunRecord, af as af_metric, format_summary_table, write_results_csv, write_summary_json
from .selector import SelectionConfig
from .trainer import ABLATIONS, STRATEGIES, TrainConfig, run_strategy

ENV_SEED = "TGCL_SEED"


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_BENCH_DATA = {
    "synthetic": {
        "num_periods": 3,
        "classes_per_period": 3,
        "nodes_per_class_per_period": 200,
        "feature_dim": 4,
        "class_center_scale": 1.8,
        "drift_step": 2.2,
        "noise_sigma": 0.6,
        "intra_class_edge_prob": 0.85,
        "inter_class_edge_prob": 0.15,
        "events_per_node": 3,
        "seed": 6,
    }
}

# The per-node loss spans [0, ~8] on this benchmark while witness increments
# sit around 1e-2, so the error weight is scale-reconciled accordingly.
_BENCH_SEL = {
    "alpha": 0.005,
    "m": 24,
    "m_prime": 240,
    "p": 1200,
    "partitioner": "random",
    "scoring_mode": "witness",
}

_BENCH_TRAIN = {
    "beta": 0.05,
    "lr": 0.1,
    "epochs": 100,
    "batch_size": 128,
    "patience": 20,
    "ablation": "both_plus_ldst",
}

_BENCH_BASE = {
    "data": _BENCH_DATA,
    "sel": _BENCH_SEL,
    "train": _BENCH_TRAIN,
    "seeds": [0, 1, 2],
}

PRESETS: dict[str, dict] = {
    "main": {
        **_BENCH_BASE,
        "strategies": ["joint", "finetune", "er", "icarl", "ltf"],
    },
    "ablation": {
        **_BENCH_BASE,
        "strategies": ["ltf"],
        "sweeps": {"params": {"ablation": list(ABLATIONS)}},
    },
    "partition": {
        **_BENCH_BASE,
        "strategies": ["ltf"],
        "sweeps": {"params": {"partitioner": ["random", "kmeans", "hierarchical"], "p": [600, 1200, 2400]}},
    },
}

DEFAULT_CONFIG = {**_BENCH_BASE, "strategies": ["ltf"], "sel": {}, "train": {}, "sweeps": None}

#: The config sections that hold the fields of one dataclass each, and their keys.
_SECTIONS = {"sel": SelectionConfig, "train": TrainConfig}
_KEYS = {section: [f.name for f in fields(cls)] for section, cls in _SECTIONS.items()}


def _check_keys(where: str, body, known: Sequence[str]) -> None:
    """Reject a ``body`` that is not an object or holds a key not in ``known``."""
    if not isinstance(body, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config root'}: must be an object")
    for key in body:
        if key not in known:
            raise ConfigError(f"{where}{key}: unknown key (known: {', '.join(known)})")


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def merge_config(base: dict, override: dict) -> dict:
    """Config-aware merge: the data source named by the override replaces
    the other one (``synthetic`` and ``files`` are mutually exclusive)."""
    out = deep_merge(base, override)
    named = {"synthetic", "files"} & set(override["data"] if isinstance(override.get("data"), dict) else ())
    if named:
        other = {"synthetic", "files"} - named
        out["data"] = {k: v for k, v in out["data"].items() if k not in other}
    return out


def read_config_file(path: str | Path) -> dict:
    """The JSON object in a config file; :class:`ConfigError` names the file
    when it cannot be read, is not JSON or its root is not an object."""
    try:
        body = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None
    if not isinstance(body, dict):
        raise ConfigError(f"{path}: root must be a JSON object")
    return body


def resolve_config(raw: dict, base_dir: Path | None = None) -> dict:
    """``raw`` layered over the preset its ``include`` names. With
    ``base_dir``, each ``data.files`` path string in ``raw`` becomes that
    path read against ``base_dir``, made absolute."""
    raw = dict(raw)
    inc = raw.pop("include", None)
    if inc is not None and not (isinstance(inc, str) and inc in PRESETS):
        raise ConfigError(f"include: unknown preset {inc!r} (known: {', '.join(PRESETS)})")
    files = raw["data"].get("files") if isinstance(raw.get("data"), dict) else None
    if base_dir is not None and isinstance(files, dict):
        files = {k: os.path.abspath(base_dir / v) if isinstance(v, str) else v for k, v in files.items()}
        raw["data"] = {**raw["data"], "files": files}
    return merge_config(PRESETS[inc] if inc is not None else {}, raw)


def load_config(path: str | Path | None = None, preset: str | None = None) -> dict:
    """Load and resolve a config file, a preset, or a file over a preset.

    Precedence, lowest first: built-in defaults, ``preset``, the preset
    that the file's ``include`` names, the file itself. ``TGCL_SEED``
    overrides the seed list. Relative ``data.files`` paths are read
    against the directory of the file. With neither a file nor a preset
    there is nothing to run: :class:`ConfigError`. :func:`plan_runs`
    checks the result, the one check of a config.
    """
    if not path and not preset:
        raise ConfigError(f"no config: name a config file or a preset (known: {', '.join(PRESETS)})")
    resolved = resolve_config(read_config_file(path), Path(path).parent) if path else {}
    if preset:
        resolved = merge_config(resolve_config({"include": preset}), resolved)
    resolved = merge_config(DEFAULT_CONFIG, resolved)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            resolved["seeds"] = [check_int(ENV_SEED, int(env_seed), 0)]
        except ValueError:  # the message shows the variable's text
            raise ConfigError(f"{ENV_SEED} must be an integer >= 0, got {env_seed!r}") from None
    plan_runs(resolved)
    return resolved


def synth_config(body, where: str = "") -> SynthConfig:
    """The generator config that ``body`` describes; :class:`ConfigError`
    names the field at fault, after the prefix ``where``."""
    _check_keys(where, body, [f.name for f in fields(SynthConfig)])
    try:
        return SynthConfig(**body)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"{where}{exc}") from exc


def config_hash(cfg: dict) -> str:
    """Digest of ``cfg``. For a ``files`` config it also covers the sha256
    of the bytes of each data file that :func:`load_data` reads, so an
    output directory answers for its data; a file that cannot be read
    counts as None here, and :func:`load_data` names it."""
    hashed = dict(cfg)
    files = cfg.get("data", {}).get("files")
    if files:
        paths = {**files, "periods": period_file_of(files["nodes"], files.get("periods"))}
        hashed["data_sha256"] = {kind: _file_sha256(path) for kind, path in paths.items()}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _file_sha256(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Run planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One planned run and all it is given besides the graph: ``sel`` and
    ``train`` are the config's sections with the overrides of its sweep
    point (``variant``) applied."""

    strategy: str
    variant: str
    seed: int
    sel_overrides: tuple[tuple[str, object], ...]
    train_overrides: tuple[tuple[str, object], ...]
    sel: SelectionConfig
    train: TrainConfig

    @property
    def run_id(self) -> str:
        mid = f"__{self.variant}" if self.variant else ""
        return f"{self.strategy}{mid}__seed{self.seed}".replace("/", "_").replace(" ", "")


def expand_sweeps(sweeps: dict | None) -> list[tuple[str, dict]]:
    """Sweep points as (label, overrides): the full product of ``params``."""
    params = (sweeps or {}).get("params") or {}
    points = [dict(zip(params, vals)) for vals in itertools.product(*params.values())]
    return [(",".join(f"{k}={v}" for k, v in point.items()), point) for point in points]


def plan_runs(cfg: dict) -> list[RunSpec]:
    """All (strategy x sweep-point x seed) runs of a resolved config, plus
    the reference ``joint`` run per seed whenever another strategy will
    need forgetting scores: the one check of a config (see the module
    docstring), which :func:`load_config` calls, and the one place that
    builds a run's configs. A :class:`ConfigError` names the field at
    fault; in ``sel`` or ``train``, by its section (``sel: ...``,
    ``sel.foo: unknown key ...``) or by the run's sweep values
    (``sweeps.params.p=2: ...``); a run id longer than 255 bytes by
    ``seeds`` or by those values, whichever is longer in it."""
    _check_keys("", cfg, list(DEFAULT_CONFIG))
    data = cfg.get("data")
    _check_keys("data.", data, ["synthetic", "files"])
    if len(data) != 1:
        raise ConfigError("data: need exactly one of 'synthetic' or 'files'")
    if "synthetic" in data:
        synth_config(data["synthetic"], "data.synthetic.")
    else:
        files = data["files"]
        _check_keys("data.files.", files, ["nodes", "events", "periods"])
        for key in ("nodes", "events"):
            if key not in files:
                raise ConfigError(f"data.files.{key}: required path missing")
        for key, value in files.items():
            if not isinstance(value, str) and not (key == "periods" and value is None):
                raise ConfigError(f"data.files.{key}: must be a path string, got {value!r}")
    strategies = cfg.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("strategies: need a nonempty list")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"strategies: unknown strategy {s!r}")
    if len(set(strategies)) != len(strategies):
        raise ConfigError("strategies: duplicate strategies")
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"seeds: need a nonempty list of nonnegative integers, got {seeds!r}")
    try:
        for i, seed in enumerate(seeds):
            check_int(f"seeds[{i}]", seed, 0)
    except ValueError as exc:
        raise ConfigError(exc) from None
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicate seeds")
    sweeps = cfg.get("sweeps")
    if sweeps is not None:
        _check_keys("sweeps.", sweeps, ["params"])
        params = sweeps.get("params", {})
        _check_keys("sweeps.params.", params, _KEYS["sel"] + _KEYS["train"])
        for k, vals in params.items():
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"sweeps.params.{k}: need a nonempty list of values")
            if any(v in vals[:i] for i, v in enumerate(vals)):  # by ==, so 1 and 1.0 are one value
                raise ConfigError(f"sweeps.params.{k}: duplicate values")
    base = {}
    for section, cls in _SECTIONS.items():
        body = cfg.get(section, {})
        _check_keys(f"{section}.", body, _KEYS[section])
        try:
            base[section] = cls(**body)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    points = expand_sweeps(cfg.get("sweeps"))
    strategies = list(strategies)
    if any(s != "joint" for s in strategies) and "joint" not in strategies:
        strategies.insert(0, "joint")
    specs = []
    for strategy in strategies:
        for label, overrides in points if strategy != "joint" else [("", {})]:
            sel_over = tuple(sorted((k, v) for k, v in overrides.items() if k in _KEYS["sel"]))
            train_over = tuple(sorted((k, v) for k, v in overrides.items() if k not in _KEYS["sel"]))
            point = ", ".join(f"sweeps.params.{k}={v!r}" for k, v in sel_over + train_over)
            try:
                sel = replace(base["sel"], **dict(sel_over))
                train = replace(base["train"], **dict(train_over))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{point}: {exc}") from exc
            for seed in seeds:
                spec = RunSpec(strategy, label, seed, sel_over, train_over, sel, train)
                if len(spec.run_id.encode()) > 255:  # a run id names a directory: at most 255 bytes
                    where = "seeds" if len(str(seed)) > len(label) else point
                    raise ConfigError(f"{where}: run id {spec.run_id} is longer than 255 bytes")
                specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def load_data(data_cfg: dict, seeds: Sequence[int] = ()) -> TemporalGraph:
    """The dataset is a benchmark constant: the generator seed comes from the
    config, while per-run seeds drive splits, model init, selection, and
    training (matching the fixed-corpus, 3-training-seeds protocol). A
    generated graph is built by :func:`synthetic_graph` on
    ``data.synthetic``; for data files, a :func:`period_fault` under the
    split ``seeds`` raises ``GraphFormatError`` naming the nodes file (an
    empty period: the periods file, as :func:`load_graph` raises)."""
    if "synthetic" in data_cfg:
        return synthetic_graph(SynthConfig(**data_cfg["synthetic"]), "data.synthetic", seeds)
    files = data_cfg["files"]
    graph = load_graph(files["nodes"], files["events"], files.get("periods"))
    fault = period_fault(graph, seeds)
    if fault:
        raise GraphFormatError(f"{files['nodes']}: {fault[1]}")
    return graph


def synthetic_graph(synth: SynthConfig, source: str, seeds: Sequence[int]) -> TemporalGraph:
    """The graph that ``synth`` generates. ``ConfigError`` names ``source``
    when the graph's rules refuse it (a feature that overflowed a float) or
    it has a :func:`period_fault` under the split ``seeds``."""
    try:
        graph = generate_synthetic(synth)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    fault = period_fault(graph, seeds)
    if fault:
        raise ConfigError(f"{source}: {fault[1]}")
    return graph


#: The graph of a pool worker, handed over once by :func:`_init_worker`,
#: and the worker's period memo (see :func:`tgcl.trainer.run_strategy`).
_WORKER_GRAPH: TemporalGraph | None = None
_WORKER_MEMO: dict = {}


def _init_worker(graph: TemporalGraph) -> None:
    """Set up a pool worker, with the OpenBLAS of numpy's wheel, if any, at one
    thread: ``jobs`` workers with a BLAS thread per CPU each oversubscribe the CPUs."""
    global _WORKER_GRAPH, _WORKER_MEMO
    _WORKER_GRAPH, _WORKER_MEMO = graph, {}
    import numpy

    for path in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        set_threads = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _execute_in_worker(run: tuple[RunSpec, Path, str]) -> str:
    return _execute_run(run, _WORKER_GRAPH, _WORKER_MEMO)


def _execute_run(run: tuple[RunSpec, Path, str], graph: TemporalGraph, memo: dict) -> str:
    """Run ``spec`` of ``run = (spec, run_dir, config_hash)``; ``record.json`` is written last,
    and ``run_dir``'s earlier ``buffer_p<n>.json`` files are removed before its own are written.
    Training that diverges raises ``FloatingPointError`` naming the run id."""
    spec, run_dir, chash = run
    run_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = perf_counter()

    try:
        outcomes = run_strategy(graph, spec.strategy, spec.sel, spec.train, seed=spec.seed, memo=memo)
    except FloatingPointError as exc:  # training diverged: a non-finite loss or gradient
        raise FloatingPointError(f"{spec.run_id}: {exc}") from None

    with (run_dir / "epochs.jsonl").open("w") as fh:
        for o in outcomes:
            for entry in o.epoch_log:
                fh.write(json.dumps(entry) + "\n")
    for stale in run_dir.glob("buffer_p*.json"):  # a buffer of another config, or of a stale run
        stale.unlink()
    for o in outcomes:
        if o.buffer is not None:
            o.buffer.save(run_dir / f"buffer_p{o.metrics.period}.json")

    record = RunRecord(
        spec.strategy, spec.variant, spec.seed, chash, [o.metrics for o in outcomes], started_at=started,
        total_s=perf_counter() - t0, reused_periods=[o.metrics.period for o in outcomes if o.reused],
    )
    tmp = run_dir / "record.json.tmp"
    tmp.write_text(json.dumps(record.to_dict(), indent=2) + "\n")
    tmp.rename(run_dir / "record.json")
    return spec.run_id


def execute(
    cfg: dict,
    out_dir: str | Path,
    jobs: int = 1,
    resume: bool = False,
    echo=None,
) -> list[RunRecord]:
    """Execute all planned runs and write the aggregated artifacts.

    The graph is built once per call, in the caller and only when runs are
    pending, by :func:`load_data`, which refuses a
    :func:`tgcl.graph.period_fault` under every planned seed, so a data
    error is raised before any run starts, and a run's ``total_s`` in
    ``record.json`` leaves out the graph load. The serial path hands that
    graph to every run, and a process pool a copy to each worker's
    initializer. The runs of one process share the graph's
    :class:`tgcl.graph.GraphCache` (split codes, period views and input
    rows), so each node's model input is built once per period end in each
    process. Graphs are not cached across calls, because data files may
    change between them.

    Runs also share one period memo per call (one per worker with
    ``jobs > 1``), so a period that several runs train identically, such
    as period 1 of every strategy of a seed, is trained and scored once
    (see :func:`tgcl.trainer.run_strategy`). Outputs are the same as
    without it, except for timing fields: a reused period's
    ``epoch_wall_ms`` in ``record.json`` copies the epoch wall times of the
    run that trained it, a reused period repeats none of its training
    warnings, and a run with reused periods has a shorter ``total_s``.
    ``timing.jsonl`` lists each run's ``reused_periods``; which runs reuse
    a period may vary with ``jobs``.

    Each run's ``record.json`` is its :class:`RunRecord`'s ``to_dict()``,
    and the aggregates are built from the records as :func:`_read_record`
    reads them back. With ``resume=True`` a run whose record reads back
    with the current config hash is skipped, so a partially completed
    output directory is finished rather than redone. Any other
    ``record.json`` is stale and its run is rerun: one left by a different
    config, or one that :func:`_read_record` cannot read (not UTF-8, JSON
    or an object, a field missing or of another type, or no periods);
    ``echo`` counts the two apart. A run that executes, a rerun too,
    removes the ``buffer_p<n>.json`` files its directory held before it
    writes its own, so it leaves no buffer of a period its record does not
    list. Run directories that this config does not plan are left in
    place, and ``echo`` names them. ``jobs`` below 1 raises
    ``ValueError``, and an output path in the way (see
    :func:`check_output_paths`) ``NotADirectoryError`` or
    ``IsADirectoryError``, before anything is written.
    """
    check_int("jobs", jobs, 1)
    out = Path(out_dir)
    specs = plan_runs(cfg)
    chash = config_hash(cfg)
    runs = [(spec, out / "runs" / spec.run_id, chash) for spec in specs]
    run_dirs = [run_dir for _, run_dir, _ in runs]
    top = ("resolved_config.json", "config_hash.txt", "results.csv", "summary.json", "timing.jsonl", "summary.txt")
    files = [out / name for name in top] + [  # and each buffer_p<n>.json it would overwrite
        f for d in run_dirs
        for f in (d / "record.json", d / "record.json.tmp", d / "epochs.jsonl", *sorted(d.glob("buffer_p*.json")))
    ]
    check_output_paths(out, files, [out / "runs", *run_dirs])
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    (out / "config_hash.txt").write_text(chash + "\n")

    recorded = [_read_record(run_dir) if resume else None for _, run_dir, _ in runs]
    pending = [run for run, rec in zip(runs, recorded) if rec is None or rec.config_hash != chash]
    other_hash = sum(rec is not None and rec.config_hash != chash for rec in recorded)
    unreadable = sum(rec is None and (d / "record.json").exists() for (_, d, _), rec in zip(runs, recorded))
    if echo:
        echo(f"{len(runs)} runs planned, {len(pending)} to execute (resume={resume})")
        if other_hash:
            echo(f"{other_hash} stale runs from another config hash will be rerun")
        if resume and unreadable:
            echo(f"{unreadable} stale runs whose record.json cannot be read will be rerun")
        planned = {run_dir.name for _, run_dir, _ in runs}
        unplanned = sorted(d.name for d in (out / "runs").glob("*") if d.is_dir() and d.name not in planned)
        if unplanned:
            echo(f"{len(unplanned)} run directories not planned by this config were left in place: "
                 + ", ".join(unplanned))

    graph = load_data(cfg["data"], cfg["seeds"]) if pending else None
    memo: dict = {}
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(graph,)) as pool:
            for run_id in pool.map(_execute_in_worker, pending):
                if echo:
                    echo(f"done {run_id}")
    else:
        for run in pending:
            run_id = _execute_run(run, graph, memo)
            if echo:
                echo(f"done {run_id}")

    records = [_read_record(run_dir) for _, run_dir, _ in runs]
    _fill_af(records)
    write_results_csv(records, out / "results.csv")
    write_summary_json(records, out / "summary.json")
    _write_timing(records, out / "timing.jsonl")
    (out / "summary.txt").write_text(format_summary_table(records) + "\n")
    return records


def check_output_paths(out: Path, files: Iterable[Path], dirs: Iterable[Path] = ()) -> None:
    """Raise ``NotADirectoryError`` for the first of ``out``'s parents,
    ``out`` and ``dirs`` that exists and is not a directory, or
    ``IsADirectoryError`` for the first of ``files`` that is one: a writer
    calls it before it writes anything."""
    for path in [*reversed(out.parents), out, *dirs]:
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"{path}: not a directory")
    for path in files:
        if path.is_dir():
            raise IsADirectoryError(f"{path}: is a directory")


def _read_record(run_dir: Path) -> RunRecord | None:
    """The record in ``run_dir``'s ``record.json``: None when there is none
    or it cannot be read, as a file of UTF-8 JSON, or is not a record (see
    :meth:`RunRecord.from_dict`)."""
    try:
        return RunRecord.from_dict(json.loads((run_dir / "record.json").read_text()))
    except (OSError, ValueError):  # missing or a directory, not UTF-8 or JSON, not a record
        return None


def _fill_af(records: Sequence[RunRecord]) -> None:
    """Set the AF of every period from 2 on against the seed's ``joint`` run."""
    joint = {rec.seed: rec for rec in records if rec.strategy == "joint" and rec.variant == ""}
    for rec in records:
        if rec.strategy == "joint" or rec.seed not in joint:
            continue
        ref = {pm.period: pm.precisions for pm in joint[rec.seed].periods}
        for pm in rec.periods:
            if pm.period >= 2:
                try:
                    pm.af = af_metric(pm.precisions, ref[pm.period])
                except (KeyError, ValueError):
                    pm.af = None


def _write_timing(records: Sequence[RunRecord], path: Path) -> None:
    keys = ("strategy", "variant", "seed", "started_at", "total_s", "reused_periods")
    with path.open("w") as fh:
        for rec in records:
            row = {key: getattr(rec, key) for key in keys}
            row["final_epoch_ms_mean"] = rec.final_epoch_ms
            row["selection_ms_per_period"] = [pm.selection_ms for pm in rec.periods]
            fh.write(json.dumps(row) + "\n")


def load_records(out_dir: str | Path) -> list[RunRecord]:
    """Rebuild records from a results directory's per-run record files: only
    those of its ``config_hash.txt``, when it has one. One warning names the
    runs skipped, whose record :func:`_read_record` cannot read (it is
    stale, as on resume) or is another config's. A ``config_hash.txt`` that
    cannot be read as UTF-8 text raises ``OSError`` naming it, as does a
    directory without records."""
    out = Path(out_dir)
    hash_file = out / "config_hash.txt"
    try:
        chash = hash_file.read_text(encoding="utf-8").strip() if hash_file.exists() else None
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"{hash_file}: cannot read the config hash: {getattr(exc, 'strerror', None) or exc}") from exc
    records, skipped = [], []
    for run_dir in sorted(path.parent for path in out.glob("runs/*/record.json")):
        rec = _read_record(run_dir)
        if rec is not None and (chash is None or rec.config_hash == chash):
            records.append(rec)
        else:
            skipped.append(run_dir.name)
    if skipped:
        warnings.warn(
            f"{out}: skipped runs whose record is not a run record or is of a config other than {chash}:"
            f" {', '.join(skipped)}",
            stacklevel=2,
        )
    if not records:
        raise FileNotFoundError(f"no run records under {out}")
    _fill_af(records)
    return records
