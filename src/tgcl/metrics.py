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
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .backbone import Backbone, classify_batch


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
    model: Backbone, z: np.ndarray, labels: Sequence[int], class_sets: Sequence[Sequence[int]]
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
    """All per-period metrics of one (strategy, variant, seed) run, and its
    start time, wall time and the periods it took from the period memo.
    :meth:`to_dict` is the run's ``record.json``."""

    strategy: str
    variant: str
    seed: int
    config_hash: str
    periods: list[PeriodMetrics] = field(default_factory=list)
    started_at: str | None = None
    total_s: float | None = None
    reused_periods: list[int] = field(default_factory=list)

    @property
    def final(self) -> PeriodMetrics:
        return self.periods[-1]

    @property
    def final_epoch_ms(self) -> float | None:
        """Mean epoch wall time of the final period; None without epochs."""
        ms = self.final.epoch_wall_ms
        return sum(ms) / len(ms) if ms else None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "RunRecord":
        """The record whose :meth:`to_dict` is ``d``; ``ValueError`` when ``d``
        is not an object, lacks a field, holds one of another JSON type than
        its annotation or has no periods."""
        run = _json_fields(cls, d)
        if not run["periods"]:
            raise ValueError("RunRecord: periods is empty")
        run["periods"] = [PeriodMetrics(**_json_fields(PeriodMetrics, pm)) for pm in run["periods"]]
        return cls(**run)


#: The JSON types of the names in field annotations; any other name is an object.
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "None": type(None)}


def _is_json(value, annotation: str) -> bool:
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_is_json(v, annotation[5:-1]) for v in value)
    return isinstance(value, tuple(_JSON_TYPES.get(name, dict) for name in annotation.split(" | ")))


def _json_fields(cls, d) -> dict:
    """The fields of dataclass ``cls`` in ``d``, each checked against its annotation."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__}: not a JSON object")
    for f in fields(cls):
        if f.name not in d or not _is_json(d[f.name], f.type):
            raise ValueError(f"{cls.__name__}: field {f.name} is missing or not of type {f.type}")
    return {f.name: d[f.name] for f in fields(cls)}


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


def _by_method(records: Sequence[RunRecord]) -> dict[str, list[RunRecord]]:
    """Records by method, ``strategy`` or ``strategy|variant``, in
    (strategy, variant) order."""
    groups: dict[str, list[RunRecord]] = {}
    for rec in sorted(records, key=lambda r: (r.strategy, r.variant)):
        key = rec.strategy if not rec.variant else f"{rec.strategy}|{rec.variant}"
        groups.setdefault(key, []).append(rec)
    return groups


def summarize(records: Sequence[RunRecord]) -> dict:
    """Per-method mean and std over seeds at the final period."""
    out: dict[str, dict] = {}
    for key, recs in _by_method(records).items():
        aps = [r.final.ap for r in recs]
        afs = [r.final.af for r in recs if r.final.af is not None]
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


def format_summary_table(records: Sequence[RunRecord]) -> str:
    """Human-readable comparison table (AP up, AF down, Time down); Time is
    the per-method mean of :attr:`RunRecord.final_epoch_ms`. The method
    column is 28 characters wide, or one more than the longest method."""
    groups = _by_method(records)
    width = max([28, *(len(key) + 1 for key in groups)])
    lines = [f"{'method':<{width}}{'AP^':>16}{'AFv':>16}{'Time(ms)v':>12}"]
    for key, s in summarize(records).items():
        ap_txt = f"{s['ap_mean']:.4f}±{s['ap_std']:.4f}"
        af_txt = f"{s['af_mean']:.4f}±{s['af_std']:.4f}" if "af_mean" in s else "---"
        ms = [r.final_epoch_ms for r in groups[key] if r.final_epoch_ms is not None]
        t_txt = f"{sum(ms) / len(ms):.1f}" if ms else "---"
        lines.append(f"{key:<{width}}{ap_txt:>16}{af_txt:>16}{t_txt:>12}")
    return "\n".join(lines)
