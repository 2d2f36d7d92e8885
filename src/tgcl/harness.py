"""Experiment orchestration: configs, presets, seeded runs, persistence.

A single JSON config describes the data source, strategies, selection and
training settings, optional sweep grids, and seeds. Configs may pull in a
preset (or another file) through an ``include`` key; explicit keys win.
Every (strategy x sweep-point x seed) combination becomes one run with its
own directory; a completed run leaves its record, ``RunRecord.to_dict()``,
in ``record.json``, so an interrupted invocation can resume. Only
:func:`_read_record` reads that file back. The aggregated ``results.csv``
and ``summary.json`` are byte-deterministic for fixed config and seeds;
wall times go to ``timing.jsonl`` instead.

Config keys, each checked at load; any other key, also inside ``data``,
``sel``, ``train``, ``kernel`` or ``sweeps``, is rejected by name.
Integers and numbers are JSON integers and numbers, never booleans.

* ``data``: exactly one of ``synthetic`` (:class:`SynthConfig` fields) or
  ``files`` (path strings ``nodes`` and ``events``, and ``periods``, a
  path string or null, which may be left out). A relative path is read
  against the directory of the config file that names it.
* ``strategies``: a nonempty list of ``trainer.STRATEGIES`` names.
* ``sel``, ``train``: fields of :class:`SelectionConfig` and
  :class:`TrainConfig`; an ``int`` field takes an integer, a ``float``
  field a number and a ``str`` field a name (ranges: ``__post_init__``).
* ``sweeps``: null, or ``mode`` (``grid`` or ``axes``) and ``params``,
  mapping ``sel``/``train`` fields to nonempty lists of values.
* ``seeds``: a nonempty list of distinct integers >= 0.
* ``hidden_dim``: an integer >= 1.
* ``kernel``: ``squared_distance``, a boolean.
* ``output_dir``: a path string, left out of the config hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Sequence

from .graph import SynthConfig, TemporalGraph, first_empty_period, generate_synthetic, load_graph
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
# sit around 1e-2, so the error weight is scale-reconciled accordingly (the
# sensitivity preset sweeps far larger alphas).
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
    "hidden_dim": 64,
    "kernel": {"squared_distance": False},
}

PRESETS: dict[str, dict] = {
    "main": {
        **_BENCH_BASE,
        "strategies": ["joint", "finetune", "er", "icarl", "ltf"],
    },
    "ablation": {
        **_BENCH_BASE,
        "strategies": ["ltf"],
        "sweeps": {"mode": "grid", "params": {"ablation": list(ABLATIONS)}},
    },
    "sensitivity": {
        **_BENCH_BASE,
        "strategies": ["ltf"],
        "sweeps": {
            "mode": "axes",
            "params": {
                "alpha": [0.25, 0.5, 1, 2, 4],
                "beta": [0.25, 0.5, 1, 2, 4],
                "m": [12, 24, 36],
                "m_prime": [120, 240, 360],
            },
        },
    },
    "partition": {
        **_BENCH_BASE,
        "strategies": ["ltf"],
        "sweeps": {
            "mode": "grid",
            "params": {"partitioner": ["random", "kmeans", "hierarchical"], "p": [600, 1200, 2400]},
        },
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
    named = {"synthetic", "files"} & set(override.get("data", {}))
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


def _load_include(name, base_dir: Path | None) -> dict:
    """The resolved config that an ``include`` value names: a preset, or a
    file, whose relative path is read against ``base_dir`` (the including
    file's directory) when there is one."""
    if isinstance(name, str) and name in PRESETS:
        return resolve_config(PRESETS[name])
    path = Path(name) if isinstance(name, str) else None
    if path is not None and base_dir is not None and not path.is_absolute():
        path = base_dir / path
    if path is None or not path.exists():
        raise ConfigError(f"include: unknown preset or missing file {name!r}")
    return resolve_config(read_config_file(path), path.parent)


def resolve_config(raw: dict, base_dir: Path | None = None) -> dict:
    """``raw`` layered over what its ``include`` names, recursively. With a
    ``base_dir`` (the directory of the file that holds ``raw``), each
    ``data.files`` path string in ``raw`` becomes that path read against
    it, made absolute."""
    raw = dict(raw)
    inc = raw.pop("include", None)
    base = _load_include(inc, base_dir) if inc is not None else {}
    files = raw["data"].get("files") if isinstance(raw.get("data"), dict) else None
    if base_dir is not None and isinstance(files, dict):
        files = {k: os.path.abspath(base_dir / v) if isinstance(v, str) else v for k, v in files.items()}
        raw["data"] = {**raw["data"], "files": files}
    return merge_config(base, raw)


def load_config(path: str | Path | None = None, preset: str | None = None) -> dict:
    """Load and resolve a config file, optionally layered over a preset.

    Precedence, lowest first: built-in defaults, preset, the file's own
    includes, the file itself. ``TGCL_SEED`` overrides the seed list. An
    ``include`` is a preset name or a path; a relative path is read against
    the directory of the file that holds it.
    """
    resolved = resolve_config(read_config_file(path), Path(path).parent) if path else {}
    if preset:
        resolved = merge_config(resolve_config({"include": preset}), resolved)
    resolved = merge_config(DEFAULT_CONFIG, resolved)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            seed = int(env_seed)
            if seed < 0:
                raise ValueError
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer >= 0, got {env_seed!r}") from None
        resolved["seeds"] = [seed]
    validate_config(resolved)
    return resolved


def synth_config(body, where: str = "") -> SynthConfig:
    """The generator config that ``body`` describes; :class:`ConfigError`
    names the field at fault, after the prefix ``where``."""
    _check_keys(where, body, [f.name for f in fields(SynthConfig)])
    try:
        return SynthConfig.from_dict(body)
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(f"{where}{exc}") from exc


def validate_config(cfg: dict) -> None:
    """Check a resolved config, planning every run (see :func:`plan_runs`);
    :class:`ConfigError` names the field at fault."""
    _check_keys("", cfg, [*DEFAULT_CONFIG, "output_dir"])
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
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(type(x) is int and x >= 0 for x in seeds):
        raise ConfigError(f"seeds: need a nonempty list of nonnegative integers, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicate seeds")
    sweeps = cfg.get("sweeps")
    if sweeps is not None:
        _check_keys("sweeps.", sweeps, ["mode", "params"])
        if sweeps.get("mode", "grid") not in ("grid", "axes"):
            raise ConfigError(f"sweeps.mode: must be 'grid' or 'axes'")
        params = sweeps.get("params", {})
        _check_keys("sweeps.params.", params, _KEYS["sel"] + _KEYS["train"])
        for k, vals in params.items():
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"sweeps.params.{k}: need a nonempty list of values")
    hidden_dim = cfg.get("hidden_dim", 64)
    if type(hidden_dim) is not int or hidden_dim < 1:
        raise ConfigError(f"hidden_dim: must be a positive integer, got {hidden_dim!r}")
    kernel = cfg.get("kernel", {})
    _check_keys("kernel.", kernel, ["squared_distance"])
    if not isinstance(kernel.get("squared_distance", False), bool):
        raise ConfigError("kernel.squared_distance: must be a boolean")
    if not isinstance(cfg.get("output_dir", ""), str):
        raise ConfigError("output_dir: must be a path string")
    plan_runs(cfg)


def config_hash(cfg: dict) -> str:
    """Digest of ``cfg`` without ``output_dir``. For a ``files`` config it
    also covers the sha256 of each data file's bytes, so an output
    directory answers for its data; a file that cannot be read counts as
    None here, and :func:`load_data` names it."""
    scrubbed = {k: v for k, v in cfg.items() if k != "output_dir"}
    files = cfg.get("data", {}).get("files")
    if files:
        scrubbed["data_sha256"] = {kind: _file_sha256(path) for kind, path in files.items() if path is not None}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
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
    point (``variant``) applied, ``kernel_squared`` is ``kernel.squared_distance``."""

    strategy: str
    variant: str
    seed: int
    sel_overrides: tuple[tuple[str, object], ...]
    train_overrides: tuple[tuple[str, object], ...]
    sel: SelectionConfig
    train: TrainConfig
    hidden_dim: int
    kernel_squared: bool

    @property
    def run_id(self) -> str:
        mid = f"__{self.variant}" if self.variant else ""
        return f"{self.strategy}{mid}__seed{self.seed}".replace("/", "_").replace(" ", "")


def expand_sweeps(sweeps: dict | None) -> list[tuple[str, dict]]:
    """Sweep points as (label, overrides). ``axes`` varies one parameter at
    a time; ``grid`` takes the full product."""
    if not sweeps or not sweeps.get("params"):
        return [("", {})]
    params = sweeps["params"]
    mode = sweeps.get("mode", "grid")
    points: list[tuple[str, dict]] = []
    if mode == "axes":
        for k, vals in params.items():
            for v in vals:
                points.append((f"{k}={v}", {k: v}))
        return points
    keys = list(params)
    combos: list[dict] = [{}]
    for k in keys:
        combos = [dict(c, **{k: v}) for c in combos for v in params[k]]
    for c in combos:
        label = ",".join(f"{k}={c[k]}" for k in keys)
        points.append((label, c))
    return points


def plan_runs(cfg: dict) -> list[RunSpec]:
    """All (strategy x sweep-point x seed) runs, plus the reference ``joint``
    run per seed whenever another strategy will need forgetting scores: the
    one place that builds a run's configs. A :class:`ConfigError` names a
    fault by its section (``sel: ...``, ``sel.foo: unknown key ...``) or by
    the run's sweep values (``sweeps.params.p=2: ...``)."""
    base = {}
    for section, cls in _SECTIONS.items():
        body = cfg.get(section, {})
        _check_keys(f"{section}.", body, _KEYS[section])
        try:
            base[section] = cls(**body)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    hidden_dim = cfg.get("hidden_dim", 64)
    kernel_squared = cfg.get("kernel", {}).get("squared_distance", False)
    points = expand_sweeps(cfg.get("sweeps"))
    strategies = list(cfg["strategies"])
    if any(s != "joint" for s in strategies) and "joint" not in strategies:
        strategies.insert(0, "joint")
    specs: dict[str, RunSpec] = {}  # the first of each run id (e.g. joint listed and auto-added)
    for strategy in strategies:
        for label, overrides in points if strategy != "joint" else [("", {})]:
            sel_over = tuple(sorted((k, v) for k, v in overrides.items() if k in _KEYS["sel"]))
            train_over = tuple(sorted((k, v) for k, v in overrides.items() if k not in _KEYS["sel"]))
            try:
                sel = replace(base["sel"], **dict(sel_over))
                train = replace(base["train"], **dict(train_over))
            except (TypeError, ValueError) as exc:
                point = ", ".join(f"sweeps.params.{k}={v!r}" for k, v in sel_over + train_over)
                raise ConfigError(f"{point}: {exc}") from exc
            for seed in cfg["seeds"]:
                spec = RunSpec(strategy, label, seed, sel_over, train_over, sel, train, hidden_dim, kernel_squared)
                specs.setdefault(spec.run_id, spec)
    return list(specs.values())


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def load_data(data_cfg: dict) -> TemporalGraph:
    """The dataset is a benchmark constant: the generator seed comes from the
    config, while per-run seeds drive splits, model init, selection, and
    training (matching the fixed-corpus, 3-training-seeds protocol). Like
    :func:`load_graph`, it refuses a graph with a :func:`first_empty_period`."""
    if "synthetic" in data_cfg:
        graph = generate_synthetic(SynthConfig.from_dict(data_cfg["synthetic"]))
        empty = first_empty_period(graph)
        if empty is not None:
            raise ConfigError(f"data.synthetic: period {empty.index} holds no events")
        return graph
    files = data_cfg["files"]
    return load_graph(files["nodes"], files["events"], files.get("periods"))


#: The graph of a pool worker, handed over once by :func:`_init_worker`,
#: and the worker's period memo (see :func:`tgcl.trainer.run_strategy`).
_WORKER_GRAPH: TemporalGraph | None = None
_WORKER_MEMO: dict = {}


def _init_worker(graph: TemporalGraph) -> None:
    global _WORKER_GRAPH, _WORKER_MEMO
    _WORKER_GRAPH, _WORKER_MEMO = graph, {}


def _execute_in_worker(run: tuple[RunSpec, Path, str]) -> str:
    return _execute_run(run, _WORKER_GRAPH, _WORKER_MEMO)


def _execute_run(run: tuple[RunSpec, Path, str], graph: TemporalGraph, memo: dict) -> str:
    """Run ``spec`` of ``run = (spec, run_dir, config_hash)``; ``record.json`` is written last."""
    spec, run_dir, chash = run
    run_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = perf_counter()

    outcomes = run_strategy(
        graph, spec.strategy, spec.sel, spec.train,
        seed=spec.seed, hidden_dim=spec.hidden_dim, kernel_squared=spec.kernel_squared, memo=memo,
    )

    with (run_dir / "epochs.jsonl").open("w") as fh:
        for o in outcomes:
            for entry in o.epoch_log:
                fh.write(json.dumps(entry) + "\n")
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
    pending, so a data error is raised before any run starts, and a run's
    ``total_s`` in ``record.json`` leaves out the graph load. The serial
    path hands that graph to every run, and a process pool a copy to each
    worker's initializer. The runs of one process share the graph's
    :class:`tgcl.graph.GraphCache` (split codes, period views and input
    rows), so each node's model input is built once per period end in each
    process. Graphs are not cached across calls, because data files may
    change between them.

    Runs also share one period memo per call (one per worker with
    ``jobs > 1``), so a period that several runs train identically, such
    as period 1 of every strategy of a seed, is trained and scored once
    (see :func:`tgcl.trainer.run_strategy`). Outputs are the same as
    without it, except for timing fields: a reused period copies the epoch
    log of the run that trained it, ``wall_ms`` included, and repeats none
    of its training warnings, and a run with reused periods has a shorter
    ``total_s``. ``timing.jsonl`` lists each run's ``reused_periods``;
    which runs reuse a period may vary with ``jobs``.

    Each run's ``record.json`` is its :class:`RunRecord`'s ``to_dict()``,
    and the aggregates are built from the records as :func:`_read_record`
    reads them back. With ``resume=True`` a run whose record reads back
    with the current config hash is skipped, so a partially completed
    output directory is finished rather than redone. Any other
    ``record.json`` is stale and its run is rerun: one left by a different
    config, or one that :func:`_read_record` cannot read (not UTF-8, JSON
    or an object, a field missing or of another type, or no periods);
    ``echo`` counts the two apart. Run directories that this config does
    not plan are left in place, and ``echo`` names them. ``jobs`` below 1
    raises ``ValueError``, and a ``record.json`` that is a directory
    ``IsADirectoryError``, before anything is written.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    out = Path(out_dir)
    chash = config_hash(cfg)
    runs = [(spec, out / "runs" / spec.run_id, chash) for spec in plan_runs(cfg)]
    for _, run_dir, _ in runs:
        if (run_dir / "record.json").is_dir():
            raise IsADirectoryError(f"{run_dir / 'record.json'}: is a directory")
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

    graph = load_data(cfg["data"]) if pending else None
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
