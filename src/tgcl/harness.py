"""Experiment orchestration: configs, presets, seeded runs, persistence.

A single JSON config describes the data source, strategies, selection and
training settings, optional sweep grids, and seeds. Configs may pull in a
preset (or another file) through an ``include`` key; explicit keys win.
Every (strategy x sweep-point x seed) combination becomes one run with its
own directory; completed runs leave a ``record.json`` marker so an
interrupted invocation can resume. The aggregated ``results.csv`` and
``summary.json`` are byte-deterministic for fixed config and seeds; wall
times go to ``timing.jsonl`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter
from typing import Sequence

from .graph import SynthConfig, TemporalGraph, generate_synthetic, load_graph
from .metrics import (
    PeriodMetrics,
    RunRecord,
    af as af_metric,
    format_summary_table,
    write_results_csv,
    write_summary_json,
)
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

DEFAULT_CONFIG = {
    "data": _BENCH_DATA,
    "strategies": ["ltf"],
    "sel": {},
    "train": {},
    "sweeps": None,
    "seeds": [0, 1, 2],
    "hidden_dim": 64,
    "kernel": {"squared_distance": False},
}

_SEL_KEYS = {"alpha", "m", "m_prime", "p", "partitioner", "scoring_mode"}
_TRAIN_KEYS = {"beta", "lr", "epochs", "batch_size", "patience", "ablation"}


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
        out["data"] = {k: v for k, v in out["data"].items() if k in named}
    return out


def _load_include(name) -> dict:
    if isinstance(name, str) and name in PRESETS:
        return PRESETS[name]
    path = Path(name)
    if path.exists():
        return json.loads(path.read_text())
    raise ConfigError(f"include: unknown preset or missing file {name!r}")


def resolve_config(raw: dict) -> dict:
    raw = dict(raw)
    inc = raw.pop("include", None)
    base = resolve_config(_load_include(inc)) if inc is not None else {}
    return merge_config(base, raw)


def load_config(path: str | Path | None = None, preset: str | None = None) -> dict:
    """Load and resolve a config file, optionally layered over a preset.

    Precedence, lowest first: built-in defaults, preset, the file's own
    includes, the file itself. ``TGCL_SEED`` overrides the seed list.
    """
    file_cfg = json.loads(Path(path).read_text()) if path else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = resolve_config(file_cfg)
    if preset:
        resolved = merge_config(resolve_config({"include": preset}), resolved)
    resolved = merge_config(DEFAULT_CONFIG, resolved)
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            resolved["seeds"] = [int(env_seed)]
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    validate_config(resolved)
    return resolved


def validate_config(cfg: dict) -> None:
    data = cfg.get("data")
    if not isinstance(data, dict) or len(set(data) & {"synthetic", "files"}) != 1:
        raise ConfigError("data: need exactly one of 'synthetic' or 'files'")
    if "synthetic" in data:
        try:
            SynthConfig.from_dict(data["synthetic"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"data.synthetic: {exc}") from exc
    else:
        files = data["files"]
        for key in ("nodes", "events"):
            if key not in files:
                raise ConfigError(f"data.files.{key}: required path missing")
    strategies = cfg.get("strategies")
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("strategies: need a nonempty list")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"strategies: unknown strategy {s!r}")
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(x, int) and x >= 0 for x in seeds):
        raise ConfigError("seeds: need a nonempty list of nonnegative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: duplicate seeds")
    try:
        SelectionConfig(**cfg.get("sel", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sel: {exc}") from exc
    try:
        TrainConfig(**cfg.get("train", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from exc
    for section, key in (("sel", "seed"), ("train", "seed"), ("train", "strategy")):
        if key in cfg.get(section, {}):
            raise ConfigError(f"{section}.{key}: each run sets it from 'seeds' or 'strategies'; remove it")
    sweeps = cfg.get("sweeps")
    if sweeps is not None:
        if not isinstance(sweeps, dict):
            raise ConfigError("sweeps: must be an object")
        if sweeps.get("mode", "grid") not in ("grid", "axes"):
            raise ConfigError(f"sweeps.mode: must be 'grid' or 'axes'")
        params = sweeps.get("params", {})
        for k, vals in params.items():
            if k not in _SEL_KEYS | _TRAIN_KEYS:
                raise ConfigError(f"sweeps.params.{k}: unknown sweep parameter")
            if not isinstance(vals, list) or not vals:
                raise ConfigError(f"sweeps.params.{k}: need a nonempty list of values")
    if not isinstance(cfg.get("hidden_dim", 64), int) or cfg.get("hidden_dim", 64) < 1:
        raise ConfigError("hidden_dim: must be a positive integer")
    kernel = cfg.get("kernel", {})
    if not isinstance(kernel, dict) or not isinstance(kernel.get("squared_distance", False), bool):
        raise ConfigError("kernel.squared_distance: must be a boolean")


def config_hash(cfg: dict) -> str:
    scrubbed = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Run planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    strategy: str
    variant: str
    seed: int
    sel_overrides: tuple[tuple[str, object], ...]
    train_overrides: tuple[tuple[str, object], ...]

    @property
    def run_id(self) -> str:
        mid = f"__{self.variant}" if self.variant else ""
        return f"{self.strategy}{mid}__seed{self.seed}".replace("/", "_").replace(" ", "")


def _fmt_value(v) -> str:
    return str(v)


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
                points.append((f"{k}={_fmt_value(v)}", {k: v}))
        return points
    keys = list(params)
    combos: list[dict] = [{}]
    for k in keys:
        combos = [dict(c, **{k: v}) for c in combos for v in params[k]]
    for c in combos:
        label = ",".join(f"{k}={_fmt_value(c[k])}" for k in keys)
        points.append((label, c))
    return points


def plan_runs(cfg: dict) -> list[RunSpec]:
    """All (strategy x sweep-point x seed) runs, plus the reference ``joint``
    run per seed whenever another strategy will need forgetting scores."""
    points = expand_sweeps(cfg.get("sweeps"))
    specs: list[RunSpec] = []
    strategies = list(cfg["strategies"])
    if any(s != "joint" for s in strategies) and "joint" not in strategies:
        strategies.insert(0, "joint")
    for strategy in strategies:
        strategy_points = points if strategy != "joint" else [("", {})]
        for label, overrides in strategy_points:
            sel_over = tuple(sorted((k, v) for k, v in overrides.items() if k in _SEL_KEYS))
            train_over = tuple(sorted((k, v) for k, v in overrides.items() if k in _TRAIN_KEYS))
            for seed in cfg["seeds"]:
                specs.append(
                    RunSpec(
                        strategy=strategy,
                        variant=label,
                        seed=seed,
                        sel_overrides=sel_over,
                        train_overrides=train_over,
                    )
                )
    # drop duplicates (e.g. joint listed and auto-added)
    seen: set[str] = set()
    unique: list[RunSpec] = []
    for s in specs:
        if s.run_id not in seen:
            seen.add(s.run_id)
            unique.append(s)
    return unique


# ---------------------------------------------------------------------------
# Run execution
# ---------------------------------------------------------------------------

def load_data(data_cfg: dict) -> TemporalGraph:
    """The dataset is a benchmark constant: the generator seed comes from the
    config, while per-run seeds drive splits, model init, selection, and
    training (matching the fixed-corpus, 3-training-seeds protocol)."""
    if "synthetic" in data_cfg:
        return generate_synthetic(SynthConfig.from_dict(data_cfg["synthetic"]))
    files = data_cfg["files"]
    return load_graph(files["nodes"], files["events"], files.get("periods"))


#: The graph of a pool worker, loaded once by :func:`_init_worker`.
_WORKER_GRAPH: TemporalGraph | None = None


def _init_worker(data_cfg: dict) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = load_data(data_cfg)


def _execute_in_worker(payload: dict) -> str:
    return _execute_run(payload, _WORKER_GRAPH)


def _execute_run(payload: dict, graph: TemporalGraph) -> str:
    run_dir = Path(payload["run_dir"])
    run_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    t0 = perf_counter()

    sel_cfg = SelectionConfig(**payload["sel"])
    train_cfg = TrainConfig(**payload["train"])
    outcomes = run_strategy(
        graph,
        payload["strategy"],
        sel_cfg,
        train_cfg,
        split_seed=payload["seed"],
        hidden_dim=payload["hidden_dim"],
        kernel_squared=payload.get("kernel_squared", False),
    )

    record = RunRecord(
        strategy=payload["strategy"],
        variant=payload["variant"],
        seed=payload["seed"],
        config_hash=payload["config_hash"],
        periods=[
            PeriodMetrics(
                period=o.period,
                precisions=o.precisions,
                ap=o.ap,
                af=None,
                epoch_wall_ms=[e["wall_ms"] for e in o.epoch_log],
                selection_ms=o.selection_ms,
                epochs_ran=o.epochs_ran,
                best_epoch=o.best_epoch,
            )
            for o in outcomes
        ],
    )

    with (run_dir / "epochs.jsonl").open("w") as fh:
        for o in outcomes:
            for entry in o.epoch_log:
                fh.write(json.dumps(entry) + "\n")
    for o in outcomes:
        if o.buffer is not None:
            o.buffer.save(run_dir / f"buffer_p{o.period}.json")

    obj = {**record.to_dict(), "started_at": started, "total_s": perf_counter() - t0}
    tmp = run_dir / "record.json.tmp"
    tmp.write_text(json.dumps(obj, indent=2) + "\n")
    tmp.rename(run_dir / "record.json")
    return payload["run_id"]


def _payload(cfg: dict, spec: RunSpec, out_dir: Path, chash: str) -> dict:
    sel = {**cfg.get("sel", {}), **dict(spec.sel_overrides), "seed": spec.seed}
    train = {
        **cfg.get("train", {}),
        **dict(spec.train_overrides),
        "seed": spec.seed,
        "strategy": spec.strategy,
    }
    return {
        "run_id": spec.run_id,
        "run_dir": str(out_dir / "runs" / spec.run_id),
        "strategy": spec.strategy,
        "variant": spec.variant,
        "seed": spec.seed,
        "sel": sel,
        "train": train,
        "hidden_dim": cfg.get("hidden_dim", 64),
        "kernel_squared": cfg.get("kernel", {}).get("squared_distance", False),
        "config_hash": chash,
    }


def execute(
    cfg: dict,
    out_dir: str | Path,
    jobs: int = 1,
    resume: bool = False,
    echo=None,
) -> list[RunRecord]:
    """Execute all planned runs and write the aggregated artifacts.

    The graph is built once per call, and only when runs are pending: the
    serial path hands one graph to every run, and a process pool loads it
    once per worker. Runs sharing a graph share its caches, among them the
    period views of :func:`tgcl.graph.split_period` and the per-period
    input rows of :func:`tgcl.backbone.node_inputs`, so each node's model
    input is built once per period end. A run's ``total_s`` in
    ``record.json`` therefore leaves out the graph load. Graphs are not
    cached across calls, because data files may change between them.

    With ``resume=True`` runs whose ``record.json`` already exists with
    the current config hash are skipped, so a partially completed output
    directory is finished rather than redone. A record left by a different
    config is stale: that run is rerun.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)
    (out / "resolved_config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    (out / "config_hash.txt").write_text(chash + "\n")

    specs = plan_runs(cfg)
    payloads = [_payload(cfg, s, out, chash) for s in specs]
    recorded = {}
    if resume:
        recorded = {p["run_id"]: _recorded_hash(Path(p["run_dir"])) for p in payloads}
    pending = [p for p in payloads if recorded.get(p["run_id"]) != chash]
    stale = sum(h not in (None, chash) for h in recorded.values())
    if echo:
        echo(f"{len(specs)} runs planned, {len(pending)} to execute (resume={resume})")
        if stale:
            echo(f"{stale} stale runs from another config hash will be rerun")

    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(cfg["data"],)
        ) as pool:
            for run_id in pool.map(_execute_in_worker, pending):
                if echo:
                    echo(f"done {run_id}")
    elif pending:
        graph = load_data(cfg["data"])
        for p in pending:
            _execute_run(p, graph)
            if echo:
                echo(f"done {p['run_id']}")

    records, extras = [], []
    for p in payloads:
        obj = json.loads((Path(p["run_dir"]) / "record.json").read_text())
        records.append(RunRecord.from_dict(obj))
        extras.append({"started_at": obj.get("started_at"), "total_s": obj.get("total_s")})

    _fill_af(records)
    write_results_csv(records, out / "results.csv")
    write_summary_json(records, out / "summary.json")
    _write_timing(records, extras, out / "timing.jsonl")
    (out / "summary.txt").write_text(render_table(records) + "\n")
    return records


def _recorded_hash(run_dir: Path) -> str | None:
    """Config hash of a run's ``record.json``; ``None`` when there is none."""
    path = run_dir / "record.json"
    return json.loads(path.read_text()).get("config_hash") if path.exists() else None


def _fill_af(records: Sequence[RunRecord]) -> None:
    joint = {
        rec.seed: rec for rec in records if rec.strategy == "joint" and rec.variant == ""
    }
    for rec in records:
        if rec.strategy == "joint":
            continue
        ref = joint.get(rec.seed)
        if ref is None:
            continue
        for pm in rec.periods:
            if pm.period < 2:
                continue
            try:
                ref_pm = ref.period_metrics(pm.period)
                pm.af = af_metric(pm.precisions, ref_pm.precisions)
            except (KeyError, ValueError):
                pm.af = None


def _write_timing(records, extras, path: Path) -> None:
    with path.open("w") as fh:
        for rec, extra in zip(records, extras):
            final = rec.final
            fh.write(
                json.dumps(
                    {
                        "strategy": rec.strategy,
                        "variant": rec.variant,
                        "seed": rec.seed,
                        "started_at": extra["started_at"],
                        "total_s": extra["total_s"],
                        "final_epoch_ms_mean": (
                            sum(final.epoch_wall_ms) / len(final.epoch_wall_ms)
                            if final.epoch_wall_ms
                            else None
                        ),
                        "selection_ms_per_period": [pm.selection_ms for pm in rec.periods],
                    }
                )
                + "\n"
            )


def group_timings(records: Sequence[RunRecord]) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for rec in records:
        key = rec.strategy if not rec.variant else f"{rec.strategy}|{rec.variant}"
        if rec.final.epoch_wall_ms:
            groups.setdefault(key, []).append(
                sum(rec.final.epoch_wall_ms) / len(rec.final.epoch_wall_ms)
            )
    return {k: sum(v) / len(v) for k, v in groups.items()}


def render_table(records: Sequence[RunRecord]) -> str:
    return format_summary_table(records, timings=group_timings(records))


def load_records(out_dir: str | Path) -> list[RunRecord]:
    """Rebuild records from a results directory's per-run record files."""
    out = Path(out_dir)
    records = []
    for path in sorted(out.glob("runs/*/record.json")):
        records.append(RunRecord.from_dict(json.loads(path.read_text())))
    if not records:
        raise FileNotFoundError(f"no run records under {out}")
    _fill_af(records)
    return records
