"""The benchmark's workloads: configs, seeds and set-up.

Each workload is a tgcl experiment config plus how many run seeds it takes
from the workload seed and how many worker processes ``execute`` gets. The
program only ever sees the resolved config; see README.md for why each
workload was chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from tgcl import harness
from tgcl.graph import TemporalGraph, save_graph


@dataclass(frozen=True)
class Workload:
    config: dict
    n_seeds: int
    jobs: int
    graph_files: bool = False  # write the graph once, runs read it from CSV


WORKLOADS: dict[str, Workload] = {
    # The shipped preset: 5 strategies x 3 seeds; training and input
    # building dominate. With workload seed 0 this is the preset itself.
    "main": Workload(config={"include": "main"}, n_seeds=3, jobs=1),
    # Exposes the selector's per-part n x n kernel: 4,320 candidates at
    # period 4 in two parts of 2,160, with training cut to 10 epochs (at 3,
    # one run's forgetting varied twice as much from seed to seed).
    "scale-select": Workload(
        config={
            "include": "main",
            "strategies": ["ltf"],
            "data": {"synthetic": {"num_periods": 4, "nodes_per_class_per_period": 200}},
            "sel": {"p": 2400, "m": 48, "m_prime": 480},
            "train": {"epochs": 10},
        },
        n_seeds=1,
        jobs=1,
    ),
    # The partition preset grid (3 partitioners x 3 part sizes) on a graph
    # read from CSV in every run, through a process pool. Runnable by hand
    # but not listed in BENCHMARK.json (see README.md).
    "partition-sweep": Workload(
        config={"include": "partition"}, n_seeds=1, jobs=2, graph_files=True
    ),
}

#: Overrides that shrink any workload to a few seconds, for the untimed
#: warm-up and the benchmark's own tests.
TINY = {
    "data": {"synthetic": {"num_periods": 2, "nodes_per_class_per_period": 30}},
    "sel": {"m": 4, "m_prime": 8, "p": 40},
    "train": {"epochs": 2},
    "sweeps": None,
}


def seeds(workload: Workload, seed: int) -> list[int]:
    return [seed + i for i in range(workload.n_seeds)]


def _resolve(raw: dict, path: Path) -> dict:
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return harness.load_config(path)


def setup(name: str, seed: int, work_dir: Path) -> tuple[dict, TemporalGraph]:
    """Resolve the workload's config for ``seed`` and build its graph once.

    For a workload that reads its graph from files, the graph is written
    under ``work_dir`` and the config points at those files.
    """
    workload = WORKLOADS[name]
    os.environ.pop(harness.ENV_SEED, None)  # it would override the seed list
    work_dir.mkdir(parents=True, exist_ok=True)
    raw = {**workload.config, "seeds": seeds(workload, seed)}
    cfg = _resolve(raw, work_dir / "config.json")
    graph = harness.load_data(cfg["data"])
    if workload.graph_files:
        paths = save_graph(graph, work_dir / "graph")
        raw["data"] = {"files": {kind: str(p.resolve()) for kind, p in paths.items()}}
        cfg = _resolve(raw, work_dir / "config.json")
    return cfg, graph


def tiny_config(name: str, seed: int, work_dir: Path) -> dict:
    """The workload's strategies on a tiny synthetic graph."""
    workload = WORKLOADS[name]
    os.environ.pop(harness.ENV_SEED, None)
    work_dir.mkdir(parents=True, exist_ok=True)
    raw = {**workload.config, **TINY, "seeds": seeds(workload, seed)}
    return _resolve(raw, work_dir / "tiny_config.json")
