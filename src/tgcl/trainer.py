"""Per-period continual training and strategy orchestration.

The per-period objective is ``CE(main) + CE(replayed subset) + beta *
alignment``, where the alignment term pulls the live embeddings of the
rehearsal subset toward frozen embeddings of the anchor subset (gradients
are stopped on the anchor side). A period's update is fully set by a
:class:`PeriodPlan` of three node subsets (main, replay and anchor ids),
which :func:`plan_period` builds from the strategy:

* ``joint``    - train on all of the period's data (reference, slowest)
* ``finetune`` - new classes only (fastest, forgets)
* ``er``       - replay a random class-balanced subset of current old data
* ``icarl``    - replay a herding-selected subset
* ``ltf``      - replay the greedy error+distribution subset, with anchors
  for the alignment term under ablation ``both_plus_ldst`` and ``beta > 0``

Since a period's update is set by its run's history (seed, hidden size,
plans and step settings so far), :func:`run_strategy` can take a memo
shared by the runs of one graph and train each distinct period once.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from .backbone import (
    Backbone,
    Grads,
    # unused here: perfbench/tests/test_perfbench.py reads tgcl.trainer.build_contexts
    build_contexts,
    classify_batch,
    embed_batch,
    loss_and_grads_from_inputs,
    period_inputs,
    snapshot,
)
from .graph import TRAIN, VAL, TEST, PeriodView, TemporalGraph, check_int, check_number, period_fault, split_period
from .kernels import KernelParams, _distances
from .metrics import PeriodMetrics, ap as ap_metric, per_set_accuracy, precision_per_set
from .selector import (
    ReplayBuffer,
    SelectionConfig,
    baseline_select,
    select,
)

STRATEGIES = ("joint", "finetune", "er", "icarl", "ltf")
REPLAY_STRATEGIES = ("er", "icarl", "ltf")
ABLATIONS = ("err_only", "dist_only", "both", "both_plus_ldst")


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.5
    lr: float = 1e-3
    epochs: int = 100
    batch_size: int = 600
    patience: int = 20
    ablation: str = "both_plus_ldst"

    def __post_init__(self):
        check_number("beta", self.beta, ">= 0")
        check_number("lr", self.lr, "> 0")
        for name in ("epochs", "batch_size", "patience"):
            check_int(name, getattr(self, name), 1)
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")


def ablation_terms(ablation: str) -> tuple[str, ...]:
    """Selection score terms active under an ablation setting."""
    if ablation == "err_only":
        return ("err",)
    if ablation == "dist_only":
        return ("dist",)
    return ("err", "dist")


# ---------------------------------------------------------------------------
# Alignment loss (anchor side frozen)
# ---------------------------------------------------------------------------

def l_dst_terms(
    sub_emb: np.ndarray, sim_emb: np.ndarray, kp: KernelParams
) -> tuple[float, np.ndarray]:
    """Negated kernel cross term and its gradient w.r.t. the live side.

    Value is ``-s * sum k(v, u)`` with ``s = 2/(|sub| |sim|)``; adding the
    two kernel self-terms reconstitutes the squared MMD between the sets.
    The anchor embeddings are treated as constants, so gradients flow only
    through ``sub_emb``.
    """
    sub = np.atleast_2d(np.asarray(sub_emb, dtype=float))
    sim = np.atleast_2d(np.asarray(sim_emb, dtype=float))
    if sub.shape[0] == 0 or sim.shape[0] == 0:
        raise ValueError("alignment loss requires nonempty subsets on both sides")
    s = 2.0 / (sub.shape[0] * sim.shape[0])
    d = _distances(sub, sim)
    k = np.exp(-kp.gamma * d)
    # d k / d sub = -gamma * w * (sub - sim) with w = k / d (0 at d = 0)
    w = np.where(d > 0.0, k / np.where(d > 0.0, d, 1.0), 0.0)
    value = -s * float(k.sum())
    grad = s * kp.gamma * (sub * w.sum(axis=1, keepdims=True) - w @ sim)
    return value, grad


# ---------------------------------------------------------------------------
# One period of training
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    epochs_ran: int = 0


@dataclass(frozen=True)
class PeriodPlan:
    """The node subsets of one period's update.

    ``main_ids`` are trained on every step, ``replay_ids`` are replayed
    beside them, and ``anchor_ids`` are the frozen side of the alignment
    term, whose kernel is ``kp`` (set exactly when there are anchors).
    """

    main_ids: tuple[int, ...]
    replay_ids: tuple[int, ...] = ()
    anchor_ids: tuple[int, ...] = ()
    kp: KernelParams | None = None


def selects(strategy: str, view: PeriodView) -> bool:
    """Whether ``strategy`` selects a buffer at ``view`` (a replay strategy, old-class nodes)."""
    return strategy in REPLAY_STRATEGIES and bool(view.nodes_of("old", TRAIN))


def plan_period(
    graph: TemporalGraph,
    view: PeriodView,
    prev: Backbone | None,
    strategy: str,
    sel_cfg: SelectionConfig,
    train_cfg: TrainConfig,
    *,
    seed: int,
) -> tuple[PeriodPlan, ReplayBuffer | None, float]:
    """Decide a period's training data under ``strategy``: the one code
    that decides what a period selects, which ``tgcl select`` reruns.

    A replay strategy selects its buffer from the period's old-class
    training nodes, scored by ``prev`` (the model frozen at the end of the
    previous period), when there are any; ``ltf`` selects anchors only for
    the alignment term, with ``m_prime=0`` otherwise. Returns the plan,
    that buffer (or None) and the selection wall time in ms. ``seed`` is
    passed to :func:`select` and :func:`baseline_select`, which say which
    streams it keys.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    n = view.period_index
    new_train = view.nodes_of("new", TRAIN)
    if not new_train:
        raise ValueError(f"period {n} has no new-class training nodes")
    main_ids = view.nodes_of("all", TRAIN) if strategy == "joint" else new_train
    if not selects(strategy, view):
        return PeriodPlan(main_ids), None, 0.0

    t0 = perf_counter()
    if strategy == "ltf":
        if not (train_cfg.ablation == "both_plus_ldst" and train_cfg.beta > 0):
            sel_cfg = replace(sel_cfg, m_prime=0)  # no alignment term, so no anchors
        buffer = select(graph, view, prev, sel_cfg, seed=seed, terms=ablation_terms(train_cfg.ablation))
    else:
        kind = "random" if strategy == "er" else "herding"
        buffer = baseline_select(kind, graph, view, prev, sel_cfg.m, seed=seed)
    sel_ms = (perf_counter() - t0) * 1000.0
    plan = PeriodPlan(main_ids, tuple(buffer.sub_ids), tuple(buffer.sim), buffer.kp)
    return plan, buffer, sel_ms


@np.errstate(over="ignore", invalid="ignore")  # divergence raises below instead
def train_period(
    model: Backbone,
    graph: TemporalGraph,
    view: PeriodView,
    plan: PeriodPlan,
    cfg: TrainConfig,
    *,
    seed: int,
) -> TrainResult:
    """Minimize the period objective by seeded mini-batch descent.

    Every step pairs one batch of ``plan.main_ids`` with one cyclically
    upsampled batch of ``plan.replay_ids`` (when there are any), whose loss
    carries the alignment term against ``plan.anchor_ids`` (when there are
    any). Validation AP over all classes seen so far drives early stopping,
    and the returned model carries the best-validation parameters, not the
    last ones. ``seed`` is the run's seed: the batch order of period ``n``
    draws from the stream ``(seed, n)``.

    Divergence raises ``FloatingPointError``: a non-finite loss before a
    step, or non-finite parameters or validation scores after an epoch's
    updates (parameters can stay finite and still overflow the scores),
    each naming the period and epoch, or a non-finite gradient (see
    :meth:`Backbone.apply_gradients`). numpy's overflow and invalid-value
    warnings are silenced here, since these checks report divergence.
    """
    n = view.period_index
    z_main, labels_main = period_inputs(graph, n, plan.main_ids)
    y_main = model.head_rows(labels_main)
    n_main = len(plan.main_ids)
    n_steps = -(-n_main // cfg.batch_size)

    if plan.replay_ids:
        z_sub, labels_sub = period_inputs(graph, n, plan.replay_ids)
        y_sub = model.head_rows(labels_sub)
        n_sub = len(plan.replay_ids)
        take = min(cfg.batch_size, n_sub)
    if plan.anchor_ids:
        z_sim, _ = period_inputs(graph, n, plan.anchor_ids)

    # validation inputs, and the class sets seen so far that have any
    z_val, val_labels = period_inputs(graph, n, view.nodes_of("all", VAL))
    val_sets = [
        cs for cs in (graph.period(i).classes for i in range(1, n + 1))
        if np.isin(val_labels, list(cs)).any()
    ]
    if not val_sets:
        warnings.warn(f"period {n} has no validation nodes; early stopping is inert", stacklevel=2)

    rng = np.random.default_rng((seed, n))
    grads = Grads(model)  # the step's gradient; the replay batch's is added into it
    sub_grads = Grads(model) if plan.replay_ids else None
    result = TrainResult()
    best_ap = -np.inf  # so epoch 0, whose val_ap is >= 0, sets the best

    for epoch in range(cfg.epochs):
        t0 = perf_counter()
        aux = None
        if plan.anchor_ids:  # the anchors are re-embedded once per epoch
            sim_emb = embed_batch(model, z_sim)

            def aux(emb):  # the replay batch's alignment term; keeps its raw value for the log
                nonlocal raw_ldst
                raw_ldst, grad = l_dst_terms(emb, sim_emb, plan.kp)
                return cfg.beta * raw_ldst, cfg.beta * grad

        perm = rng.permutation(n_main)
        z_epoch, y_epoch = z_main[perm], y_main[perm]
        if plan.replay_ids:
            # step k replays rows k*take .. (k+1)*take - 1 of the replay
            # permutation repeated cyclically
            order = rng.permutation(n_sub)[np.arange(n_steps * take) % n_sub]
            z_rep, y_rep = z_sub[order], y_sub[order]

        acc_new = acc_sub = acc_ldst = acc_tot = 0.0
        for k in range(n_steps):
            batch = slice(k * cfg.batch_size, (k + 1) * cfg.batch_size)
            loss_new, _ = loss_and_grads_from_inputs(
                model, z_epoch[batch], y_epoch[batch], out=grads
            )
            step_tot = loss_new
            ce_sub = raw_ldst = 0.0
            if plan.replay_ids:
                rep = slice(k * take, (k + 1) * take)
                loss_sub, _ = loss_and_grads_from_inputs(
                    model, z_rep[rep], y_rep[rep], aux=aux, out=sub_grads
                )
                ce_sub = loss_sub - cfg.beta * raw_ldst
                grads.flat += sub_grads.flat
                step_tot += loss_sub
            if not np.isfinite(step_tot):
                raise FloatingPointError(f"non-finite loss at period {n} epoch {epoch}")
            model.apply_gradients(grads, cfg.lr)
            acc_new += loss_new
            acc_sub += ce_sub
            acc_ldst += raw_ldst
            acc_tot += step_tot

        scores = classify_batch(model, z_val) if val_sets else np.zeros(0)
        if not all(np.isfinite(a).all() for a in (scores, *model.parameters().values())):
            raise FloatingPointError(f"non-finite parameters or validation scores at period {n} epoch {epoch}")
        val_ap = 0.0
        if val_sets:
            predictions = np.asarray(model.classes)[scores.argmax(axis=1)]
            val_ap = float(np.mean(per_set_accuracy(val_labels, predictions, val_sets)))
        wall_ms = (perf_counter() - t0) * 1000.0
        result.log.append(
            {
                "period": n,
                "epoch": epoch,
                "loss_new": acc_new / n_steps,
                "loss_sub": acc_sub / n_steps,
                "l_dst": acc_ldst / n_steps,
                "l_tot": acc_tot / n_steps,
                "val_ap": val_ap,
                "wall_ms": wall_ms,
            }
        )
        if val_ap > best_ap:
            best_ap = val_ap
            best_epoch = epoch
            best_params = model.parameters()
        if epoch - best_epoch >= cfg.patience:
            break

    model.set_parameters(best_params)
    result.best_epoch = best_epoch
    result.epochs_ran = len(result.log)
    return result


# ---------------------------------------------------------------------------
# Full multi-period runs
# ---------------------------------------------------------------------------

@dataclass
class PeriodOutcome:
    """One period of a run: ``metrics``, the row of the run's record (with
    ``af`` unset, which needs the reference run), and what the record
    leaves out: the epoch log, the replay buffer (None when the period
    selects none), the period-end model and whether the period was trained
    and scored by an earlier run sharing the memo (``reused``)."""

    metrics: PeriodMetrics
    epoch_log: list[dict]
    buffer: ReplayBuffer | None
    model_snapshot: Backbone
    reused: bool = False


def _memo_key(history: tuple, n: int, plan: PeriodPlan, cfg: TrainConfig) -> tuple:
    """Period ``n``'s key after ``history``: the previous period's key, or
    ``(seed, hidden_dim)``. ``beta`` counts only with anchors: without them
    the alignment term is not computed."""
    return (
        history, n, plan, cfg.lr, cfg.epochs, cfg.batch_size, cfg.patience,
        cfg.beta if plan.anchor_ids else None,
    )


def run_strategy(
    graph: TemporalGraph,
    strategy: str,
    sel_cfg: SelectionConfig,
    train_cfg: TrainConfig,
    *,
    seed: int,
    hidden_dim: int = 64,
    memo: dict | None = None,
) -> list[PeriodOutcome]:
    """Run one strategy over all periods and score each period's test split.

    Each period is planned once by :func:`plan_period`, whose replay
    buffer is built from the *current* period's old-class data, scored by
    the model snapshot frozen at the end of the previous period, and then
    trained by :func:`train_period`. Selection wall time is recorded
    separately from epoch time, and each outcome keeps its period-end
    snapshot.

    A graph with a :func:`tgcl.graph.period_fault` under ``seed`` raises
    ``ValueError`` with its text before any period is planned or trained.

    ``seed`` is the run's one seed: the split seed of :func:`split_period`,
    the seed of the model's initialization and head growth, and the seed
    passed to :func:`plan_period` and :func:`train_period`, which say which
    streams it keys.

    ``memo`` (a dict, empty at first) lets runs on the same ``graph`` share
    periods: a period whose history (seed, ``hidden_dim``, and the plans
    and step settings of it and every earlier period; see
    :func:`_memo_key`) an earlier run already met is not trained again.
    The model takes that run's best-validation parameters, and the outcome
    copies of its training result and test precisions, marked ``reused``.
    Selection still runs in every run. A reused period copies the other
    run's epoch log, ``wall_ms`` included, and emits none of
    :func:`train_period`'s warnings, so a run with reused periods takes
    less time than its epoch log shows. ``memo`` holds no graph: pass one
    memo only to runs on one graph. Without one, the call keeps its own,
    which never hits, since a run's periods never repeat.
    """
    fault = period_fault(graph, [seed])
    if fault:
        raise ValueError(fault[1])
    memo = {} if memo is None else memo
    model = Backbone(graph.feature_dim, hidden_dim=hidden_dim, seed=seed)
    key: tuple = (seed, hidden_dim)
    prev: Backbone | None = None
    outcomes: list[PeriodOutcome] = []
    for n in range(1, graph.num_periods + 1):
        view = split_period(graph, n, seed)
        model.grow_head(sorted(graph.period(n).classes))
        plan, buffer, sel_ms = plan_period(graph, view, prev, strategy, sel_cfg, train_cfg, seed=seed)
        key = _memo_key(key, n, plan, train_cfg)
        reused = key in memo
        if reused:
            params, result, precisions = copy.deepcopy(memo[key])
            model.set_parameters(params)
        else:
            result = train_period(model, graph, view, plan, train_cfg, seed=seed)
            z_test, test_labels = period_inputs(graph, n, view.nodes_of("all", TEST))
            precisions = precision_per_set(
                model, z_test, test_labels, [graph.period(i).classes for i in range(1, n + 1)]
            )
            memo[key] = copy.deepcopy((model.parameters(), result, precisions))
        prev = snapshot(model)
        metrics = PeriodMetrics(
            n, precisions, ap_metric(precisions), epoch_wall_ms=[e["wall_ms"] for e in result.log],
            selection_ms=sel_ms, epochs_ran=result.epochs_ran, best_epoch=result.best_epoch,
        )
        outcomes.append(PeriodOutcome(metrics, result.log, buffer, prev, reused))
    return outcomes
