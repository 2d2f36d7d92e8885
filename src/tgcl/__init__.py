"""Selective replay for temporal graph continual learning.

Subpackages: :mod:`tgcl.graph` (data model and generation),
:mod:`tgcl.backbone` (embedding model), :mod:`tgcl.kernels` (RBF/MMD),
:mod:`tgcl.selector` (subset selection), :mod:`tgcl.trainer` (per-period
training and strategies), :mod:`tgcl.metrics` (AP/AF), and
:mod:`tgcl.harness` (experiment orchestration).
"""

__version__ = "0.1.0"

from .graph import (
    NodeRecord,
    PeriodSpec,
    PeriodView,
    SynthConfig,
    TemporalGraph,
    generate_synthetic,
    load_graph,
    save_graph,
    split_period,
)
from .kernels import KernelParams, kernel_bound_check, median_heuristic_gamma, mmd_sq
from .backbone import Backbone, Snapshot, snapshot
from .selector import ReplayBuffer, SelectionConfig, baseline_select, select
from .trainer import TrainConfig, run_strategy, train_period
from .metrics import RunRecord, af, ap, precision_per_set

__all__ = [
    "NodeRecord",
    "PeriodSpec",
    "PeriodView",
    "SynthConfig",
    "TemporalGraph",
    "generate_synthetic",
    "load_graph",
    "save_graph",
    "split_period",
    "KernelParams",
    "kernel_bound_check",
    "median_heuristic_gamma",
    "mmd_sq",
    "Backbone",
    "Snapshot",
    "snapshot",
    "ReplayBuffer",
    "SelectionConfig",
    "baseline_select",
    "select",
    "TrainConfig",
    "run_strategy",
    "train_period",
    "RunRecord",
    "af",
    "ap",
    "precision_per_set",
]
