"""Output checks on one ``harness.execute`` result directory.

Every problem is charged to the planned run it concerns, so a run that
raised, left no record or wrote wrong output counts once as failed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from tgcl import harness
from tgcl.graph import TRAIN, TemporalGraph, split_period


class OldTrainNodes:
    """Old-class training nodes per (split seed, period), computed once."""

    def __init__(self, graph: TemporalGraph):
        self.graph = graph
        self._cache: dict[tuple[int, int], frozenset[int]] = {}

    def __call__(self, seed: int, period: int) -> frozenset[int]:
        key = (seed, period)
        if key not in self._cache:
            view = split_period(self.graph, period, split_seed=seed)
            self._cache[key] = frozenset(view.nodes_of("old", TRAIN))
        return self._cache[key]


def result_rows(out_dir: Path) -> dict[tuple[str, str, int], list[dict]]:
    """``results.csv`` rows grouped by (strategy, variant, seed)."""
    rows: dict[tuple[str, str, int], list[dict]] = {}
    path = out_dir / "results.csv"
    if not path.exists():
        return rows
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault((row["strategy"], row["variant"], int(row["seed"])), []).append(row)
    return rows


def _check_rows(rows: list[dict], spec, num_periods: int, chash: str) -> list[str]:
    problems = []
    periods = sorted(int(r["period"]) for r in rows)
    if periods != list(range(1, num_periods + 1)):
        problems.append(f"results.csv periods {periods}, want 1..{num_periods}")
    for r in rows:
        ap = float(r["ap"])
        if not 0.0 <= ap <= 1.0:
            problems.append(f"period {r['period']}: AP {ap} outside [0, 1]")
        want_af = spec.strategy != "joint" and int(r["period"]) >= 2
        if want_af != bool(r["af"]):
            problems.append(f"period {r['period']}: AF {'missing' if want_af else 'unexpected'}")
        elif want_af and not -1.0 <= float(r["af"]) <= 1.0:
            problems.append(f"period {r['period']}: AF {r['af']} outside [-1, 1]")
        if r["config_hash"] != chash:
            problems.append(f"period {r['period']}: config hash {r['config_hash']} != {chash}")
    return problems


def _check_buffers(run_dir: Path, sel: dict, seed: int, num_periods: int, old_train) -> list[str]:
    problems = []
    for n in range(2, num_periods + 1):
        path = run_dir / f"buffer_p{n}.json"
        if not path.exists():
            problems.append(f"{path.name} missing")
            continue
        buf = json.loads(path.read_text())
        sub = [e["id"] for e in buf["sub"]]
        sim = list(buf["sim"])
        allowed = old_train(seed, n)
        for label, ids, want in (("rehearsal", sub, sel["m"]), ("anchor", sim, sel["m_prime"])):
            if len(ids) != want:
                problems.append(f"{path.name}: {len(ids)} {label} picks, want {want}")
            if len(set(ids)) != len(ids):
                problems.append(f"{path.name}: repeated {label} picks")
            if not set(ids) <= allowed:
                problems.append(f"{path.name}: {label} picks outside the old-class training nodes")
    return problems


def check_execute(cfg: dict, out_dir: Path, old_train: OldTrainNodes) -> dict[str, list[str]]:
    """Problems found in ``out_dir``, by run id (empty list: run is fine)."""
    num_periods = old_train.graph.num_periods
    chash = harness.config_hash(cfg)
    rows = result_rows(out_dir)
    out: dict[str, list[str]] = {}
    for spec in harness.plan_runs(cfg):
        run_dir = out_dir / "runs" / spec.run_id
        problems = []
        if not (run_dir / "record.json").exists():
            problems.append("no record.json")
        problems += _check_rows(
            rows.get((spec.strategy, spec.variant, spec.seed), []), spec, num_periods, chash
        )
        if spec.strategy == "ltf":
            sel = {**cfg["sel"], **dict(spec.sel_overrides)}
            problems += _check_buffers(run_dir, sel, spec.seed, num_periods, old_train)
        out[spec.run_id] = problems
    return out


def check_same(cfg: dict, first: Path, other: Path) -> dict[str, list[str]]:
    """Runs whose ``results.csv`` rows differ between two executions; every
    run when ``results.csv`` or ``summary.json`` differ byte for byte."""
    rows_a, rows_b = result_rows(first), result_rows(other)
    out = {}
    for spec in harness.plan_runs(cfg):
        key = (spec.strategy, spec.variant, spec.seed)
        out[spec.run_id] = [] if rows_a.get(key) == rows_b.get(key) else ["rows differ between executions"]
    for name in ("results.csv", "summary.json"):
        a, b = first / name, other / name
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            for problems in out.values():
                problems.append(f"{name} differs between executions")
    return out
