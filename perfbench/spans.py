"""Per-layer tracing of tgcl from outside the package.

A :class:`Tracer` wraps the public functions listed in :data:`TRACED` and
records one span per call: name, start, end and the span of the wrapped
call that caused it. Spans are kept in memory and written out once, at the
end. A few functions also record work counts taken from their arguments or
their result, so ratios are measured where the work happens.

Wrappers are installed in every ``tgcl`` module namespace that binds the
function, because ``trainer``, ``selector``, ``metrics`` and ``harness``
bind names with ``from .x import y``. A listed function that no longer
exists is reported as absent (value ``None``) instead of failing.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import weakref
from functools import wraps
from pathlib import Path
from time import perf_counter

#: Traced functions, as ``"<module>.<attribute>"`` under ``tgcl``, mapped to
#: the per-call statistics reported for them. ``s`` is inclusive wall time,
#: ``self_s`` is that time minus the time covered by traced child calls;
#: the other names are work counts (see :meth:`Tracer._counts`).
TRACED: dict[str, tuple[str, ...]] = {
    "graph.generate_synthetic": ("calls", "s"),
    "graph.load_graph": ("calls", "s"),
    "graph.TemporalGraph.from_parts": ("s",),
    "graph.split_period": ("calls", "s"),
    "harness.load_data": ("calls", "s"),
    "backbone.build_contexts": ("calls", "nodes", "s"),
    "backbone.build_inputs": ("s",),
    "backbone.loss_and_grads_from_inputs": ("calls", "s"),
    "backbone.embed_batch": ("s",),
    "backbone.classify_batch": ("s",),
    "trainer.l_dst_terms": ("calls", "s"),
    "trainer.train_period": ("calls", "s", "self_s"),
    "trainer.run_strategy": ("s",),
    "kernels.kernel_matrix": ("calls", "entries", "bytes", "s"),
    "kernels.mmd_sq": ("s",),
    "kernels.median_heuristic_gamma": ("s",),
    "selector.select": ("calls", "s", "self_s"),
    "selector.build_pool": ("nodes", "s"),
    "selector.subset_objective": ("s",),
    "selector.partition": ("s",),
    "selector.baseline_select": ("s",),
    "metrics.precision_per_set": ("calls", "s"),
    "metrics.write_results_csv": ("s",),
}

#: Ratios and totals computed from several spans: name -> (unit, the traced
#: functions it needs).
DERIVED: dict[str, tuple[str, tuple[str, ...]]] = {
    "backbone.inputs_redundancy": ("ratio", ("backbone.build_contexts",)),
    "trainer.epochs": ("count", ("trainer.train_period",)),
    "selector.picks": ("count", ("selector.select",)),
    "selector.kernel_passes_per_part": (
        "ratio",
        ("selector.select", "kernels.kernel_matrix"),
    ),
}

STAT_UNITS = {
    "calls": "count",
    "nodes": "count",
    "entries": "count",
    "bytes": "B",
    "s": "s",
    "self_s": "s",
}


def span_name(key: str) -> str:
    """``graph.TemporalGraph.from_parts`` -> ``graph.from_parts``."""
    module, _, attr = key.partition(".")
    return f"{module}.{attr.rpartition('.')[2]}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = {}
    for key, stats in TRACED.items():
        for stat in stats:
            out[f"{span_name(key)}.{stat}"] = STAT_UNITS[stat]
    for name, (unit, _) in DERIVED.items():
        out[name] = unit
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, end: float, parent: int, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for ch in sorted(children.get(i, ()), key=lambda c: c.start):
            a, b = max(ch.start, sp.start), min(ch.end, sp.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((sp.end - sp.start) - covered)
    return out


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`
    and read :meth:`metrics`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # distinct (graph, node, eval_time) inputs, for the redundancy ratio
        self._graph_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._input_keys: set[tuple[int, int, float]] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("tgcl")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tgcl" or n.startswith("tgcl.")]
        for key in TRACED:
            module_name, _, attr = key.partition(".")
            try:
                module = importlib.import_module(f"tgcl.{module_name}")
            except ImportError:
                self.absent.add(key)
                continue
            owner_name, _, func_name = attr.rpartition(".")
            if owner_name:  # a classmethod such as TemporalGraph.from_parts
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(func_name) if owner is not None else None
                if not isinstance(raw, classmethod):
                    self.absent.add(key)
                    continue
                wrapped = classmethod(self._wrap(span_name(key), raw.__func__))
                self._patch(owner, func_name, wrapped)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.add(key)
                continue
            wrapped = self._wrap(span_name(key), original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn)
        counts_of = self._counts

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx].start, spans[idx].end = start, end
            spans[idx].counts = counts_of(name, signature, args, kwargs, result)
            return result

        return traced

    def _counts(self, name, signature, args, kwargs, result) -> dict | None:
        """Work counts of one call, outside its timed interval."""
        if name == "backbone.build_contexts":
            bound = signature.bind(*args, **kwargs).arguments
            graph, ids, t = bound["graph"], bound["node_ids"], float(bound["eval_time"])
            gid = self._graph_ids.setdefault(graph, len(self._graph_ids))
            self._input_keys.update((gid, int(v), t) for v in ids)
            return {"nodes": len(ids)}
        if name == "kernels.kernel_matrix":
            return {"entries": result.size, "bytes": result.nbytes}
        if name == "selector.build_pool":
            return {"nodes": len(result.ids)}
        if name == "selector.select":
            sizes = result.meta.get("part_sizes", [])
            return {
                "picks": len(result.sub) + len(result.sim),
                "part_sq": sum(s * s for s in sizes),
            }
        if name == "trainer.train_period":
            return {"epochs": result.epochs_ran}
        return None

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float | None]:
        """Per-layer metrics by name; ``None`` marks an absent function."""
        selfs = self_times(self.spans)
        by_name: dict[str, list[int]] = {}
        for i, sp in enumerate(self.spans):
            by_name.setdefault(sp.name, []).append(i)

        def total(name: str, count: str) -> float:
            return sum((self.spans[i].counts or {}).get(count, 0) for i in by_name.get(name, ()))

        out: dict[str, float | None] = {}
        for key, stats in TRACED.items():
            name = span_name(key)
            idx = by_name.get(name, [])
            for stat in stats:
                if key in self.absent:
                    value = None
                elif stat == "calls":
                    value = len(idx)
                elif stat == "s":
                    value = sum(self.spans[i].end - self.spans[i].start for i in idx)
                elif stat == "self_s":
                    value = sum(selfs[i] for i in idx)
                else:
                    value = total(name, stat)
                out[f"{name}.{stat}"] = value

        absent = {span_name(k) for k in self.absent}
        part_sq = total("selector.select", "part_sq")
        inside = sum(
            (sp.counts or {}).get("entries", 0)
            for sp in self.spans
            if sp.name == "kernels.kernel_matrix" and self._under(sp, "selector.select")
        )
        derived = {
            "backbone.inputs_redundancy": (
                total("backbone.build_contexts", "nodes") / len(self._input_keys)
                if self._input_keys
                else 0.0
            ),
            "trainer.epochs": total("trainer.train_period", "epochs"),
            "selector.picks": total("selector.select", "picks"),
            "selector.kernel_passes_per_part": inside / part_sq if part_sq else 0.0,
        }
        for name, (_, needs) in DERIVED.items():
            out[name] = None if absent & {span_name(n) for n in needs} else derived[name]
        return out

    def _under(self, sp: Span, name: str) -> bool:
        while sp.parent >= 0:
            sp = self.spans[sp.parent]
            if sp.name == name:
                return True
        return False

    def write(self, path: str | Path) -> None:
        """Write every span as ``index,name,start,end,parent`` CSV rows."""
        with Path(path).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start", "end", "parent"])
            for i, sp in enumerate(self.spans):
                w.writerow([i, sp.name, repr(sp.start), repr(sp.end), sp.parent])
