"""Evaluation metrics and result records.

AP at period n is the unweighted mean, over the n class sets introduced so
far, of the per-set accuracy of argmax predictions taken over all known
classes. AF at period n is the mean, over the n-1 old class sets, of the
precision gap to a reference run trained on the full data (positive means
forgetting; the sign is never clamped).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backbone import Model, classify_batch


def per_set_accuracy(
    labels: np.ndarray, predictions: np.ndarray, class_sets: Sequence[Sequence[int]]
) -> list[float | None]:
    """Per class set, the fraction of rows with true label in the set that
    are predicted exactly: an integer hit count over an integer total.

    A set with no rows gives None, with a warning.
    """
    labels = np.asarray(labels)
    hits = np.asarray(predictions) == labels
    out: list[float | None] = []
    for cs in class_sets:
        rows = np.zeros(labels.shape, dtype=bool)
        for c in cs:  # np.isin costs more for sets of a few classes
            rows |= labels == c
        total = int(np.count_nonzero(rows))
        if not total:
            warnings.warn(f"no samples for class set {sorted(cs)}; precision undefined", stacklevel=3)
            out.append(None)
        else:
            out.append(int(np.count_nonzero(hits & rows)) / total)
    return out


def precision_per_set(
    model: Model, z: np.ndarray, labels: Sequence[int], class_sets: Sequence[Sequence[int]]
) -> list[float | None]:
    """Per-set accuracy of the rows ``z`` (true class ids ``labels``), with
    one argmax over all known classes for every set."""
    predictions = np.asarray(model.classes)[classify_batch(model, z).argmax(axis=1)]
    return per_set_accuracy(labels, predictions, class_sets)


def ap(precisions: Sequence[float | None]) -> float:
    """Mean per-set precision; undefined sets are excluded with a warning."""
    if not precisions:
        raise ValueError("ap needs at least one per-set precision")
    defined = [p for p in precisions if p is not None]
    if not defined:
        raise ValueError("all per-set precisions are undefined")
    if len(defined) < len(precisions):
        warnings.warn(
            f"{len(precisions) - len(defined)} class set(s) undefined; excluded from AP",
            stacklevel=2,
        )
    return float(np.mean(defined))


def af(
    method_precisions: Sequence[float | None],
    joint_precisions: Sequence[float | None],
) -> float:
    """Mean precision gap to the reference over the old class sets only.

    Inputs are the per-set precisions at period n (length n, in class-set
    order); the newest set is excluded. Sets undefined on either side are
    skipped with a warning. Gaps are float differences of the given
    precisions, with no decimal rounding: ``af([1.0, 0.0], [0.9, 0.8])`` is
    ``0.9 - 1.0 == -0.09999999999999998``.
    """
    n = len(method_precisions)
    if len(joint_precisions) != n:
        raise ValueError("method and reference precision lists differ in length")
    if n < 2:
        raise ValueError("forgetting is defined only from the second period on")
    gaps = []
    for i in range(n - 1):
        pm, pj = method_precisions[i], joint_precisions[i]
        if pm is None or pj is None:
            warnings.warn(f"class set {i + 1} undefined on one side; excluded from AF", stacklevel=2)
            continue
        gaps.append(pj - pm)
    if not gaps:
        raise ValueError("no old class set has defined precisions on both sides")
    return float(np.mean(gaps))


# ---------------------------------------------------------------------------
# Run records and result tables
# ---------------------------------------------------------------------------

@dataclass
class PeriodMetrics:
    period: int
    precisions: list[float | None]
    ap: float
    af: float | None = None
    epoch_wall_ms: list[float] = field(default_factory=list)
    selection_ms: float = 0.0
    epochs_ran: int = 0
    best_epoch: int = 0


@dataclass
class RunRecord:
    """All per-period metrics of one (strategy, variant, seed) run."""

    strategy: str
    variant: str
    seed: int
    config_hash: str
    periods: list[PeriodMetrics] = field(default_factory=list)

    def period_metrics(self, n: int) -> PeriodMetrics:
        for pm in self.periods:
            if pm.period == n:
                return pm
        raise KeyError(f"run has no period {n}")

    @property
    def final(self) -> PeriodMetrics:
        return self.periods[-1]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        periods = [PeriodMetrics(**p) for p in d["periods"]]
        return cls(
            strategy=d["strategy"],
            variant=d["variant"],
            seed=int(d["seed"]),
            config_hash=d["config_hash"],
            periods=periods,
        )


RESULT_COLUMNS = ("strategy", "variant", "seed", "period", "ap", "af", "config_hash")


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_results_csv(records: Sequence[RunRecord], path: str | Path) -> None:
    """Deterministic results table; wall times live in the timing sidecar."""
    rows = []
    for rec in records:
        for pm in rec.periods:
            rows.append((rec.strategy, rec.variant, rec.seed, pm.period, pm.ap, pm.af, rec.config_hash))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RESULT_COLUMNS)
        for strategy, variant, seed, period, ap_val, af_val, h in rows:
            w.writerow([strategy, variant, seed, period, _fmt(ap_val), _fmt(af_val), h])


def summarize(records: Sequence[RunRecord]) -> dict:
    """Per-(strategy, variant) mean and std over seeds at the final period."""
    groups: dict[tuple[str, str], list[RunRecord]] = {}
    for rec in records:
        groups.setdefault((rec.strategy, rec.variant), []).append(rec)
    out: dict[str, dict] = {}
    for (strategy, variant), recs in sorted(groups.items()):
        aps = [r.final.ap for r in recs]
        afs = [r.final.af for r in recs if r.final.af is not None]
        key = strategy if not variant else f"{strategy}|{variant}"
        entry = {
            "n_seeds": len(recs),
            "final_period": recs[0].final.period,
            "ap_mean": float(np.mean(aps)),
            "ap_std": float(np.std(aps)),
        }
        if afs:
            entry["af_mean"] = float(np.mean(afs))
            entry["af_std"] = float(np.std(afs))
        out[key] = entry
    return out


def write_summary_json(records: Sequence[RunRecord], path: str | Path) -> None:
    Path(path).write_text(json.dumps(summarize(records), indent=2, sort_keys=True) + "\n")


def format_summary_table(
    records: Sequence[RunRecord], timings: Mapping[str, float] | None = None
) -> str:
    """Human-readable comparison table (AP up, AF down, Time down)."""
    summary = summarize(records)
    lines = [f"{'method':<28}{'AP^':>16}{'AFv':>16}{'Time(ms)v':>12}"]
    for key, s in summary.items():
        ap_txt = f"{s['ap_mean']:.4f}±{s['ap_std']:.4f}"
        af_txt = f"{s['af_mean']:.4f}±{s['af_std']:.4f}" if "af_mean" in s else "---"
        t = timings.get(key) if timings else None
        t_txt = f"{t:.1f}" if t is not None else "---"
        lines.append(f"{key:<28}{ap_txt:>16}{af_txt:>16}{t_txt:>12}")
    return "\n".join(lines)
