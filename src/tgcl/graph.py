"""Event-based temporal graph data model.

A temporal graph is a set of labeled, feature-carrying nodes connected by
time-stamped interaction events, with the timeline divided into contiguous
periods. Every period introduces a fresh, disjoint set of classes, so at
period ``n`` the active population splits into "old" nodes (classes
introduced before ``n``) and "new" nodes (classes introduced at ``n``).

This module provides the immutable data types, the per-period old/new
split with stratified train/val/test assignment, a synthetic generator
with controllable per-class feature drift, and CSV/JSON persistence.

A graph's nodes and events are read-only columnar tables; there is no
per-node or per-event object. The node table (:class:`NodeTable`) holds
int64 ``id``, ``class_id`` and ``birth_period`` and a float64 feature
matrix, one row per node, sorted by id: it is the one home of node ids,
labels and features, and maps ids to rows. The event table
(:class:`EventTable`) holds int64 endpoints ``src`` and ``dst`` and
float64 times ``t``, sorted by time with ties in the order given. Each
graph also builds, once and on first use, a CSR neighbour index
(:class:`NeighborIndex`) from the event columns, which holds only
neighbour entries: per node row, the incident events as (other
endpoint's row, time) entries, sorted by time with ties in event order.
Model inputs, period views and debut periods are all read from it and
the node table. A period's per-node facts are read-only arrays over node
rows: debut periods, :func:`node_splits`' codes and, per
:class:`PeriodView`, its active nodes' ids, old-class mask and codes.

Each validity rule is written once: a check of one period entry, or one
mask over all node or event rows. A graph reports the first row at fault
by part and position; :func:`load_graph` only parses its files and maps
that position to a file and a line or entry. Column types (int64 ids and
labels, an n x d float64 feature matrix) are enforced by the tables, and
the loader checks them while parsing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

TRAIN = "train"
VAL = "val"
TEST = "test"
SPLIT_NAMES = (TRAIN, VAL, TEST)

#: train / val / test fractions used when splitting each period's nodes.
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)

#: The largest feature magnitude a graph may hold, far above any shipped or
#: generated graph's (below 10). One feature of 1e81 in a 96-node graph
#: already drives training to a non-finite loss, a fault that would
#: otherwise surface only as a run error naming no file.
MAX_FEATURE = 1e12


class GraphFormatError(ValueError):
    """A graph file violates the on-disk format (message carries file:line)."""


def _frozen_column(table, kind: str, name: str, dtype) -> None:
    """Set column ``name`` of a frozen ``kind`` table to a read-only copy of
    itself cast to ``dtype``; a cast that is not safe raises ``ValueError``
    (no float ids, no ids beyond int64, no text times)."""
    try:
        col = np.asarray(getattr(table, name))
    except ValueError:  # numpy refuses rows of unequal length
        raise ValueError(f"{kind} column {name} holds rows of different dimensions") from None
    if col.size and not np.can_cast(col.dtype, dtype):
        if dtype is np.int64:  # numpy reads ints beyond int64 as float64, uint64 or object
            for v in np.asarray(getattr(table, name), dtype=object).ravel():
                if isinstance(v, int) and not -(2**63) <= v < 2**63:
                    raise ValueError(f"{kind} column {name} holds {v}, which does not fit in int64")
        raise ValueError(f"{kind} column {name} holds {col.dtype}, not {np.dtype(dtype)}")
    col = col.astype(dtype)  # a copy, so the caller's array stays writable and ours cannot change
    col.setflags(write=False)
    object.__setattr__(table, name, col)


@dataclass(frozen=True, eq=False)
class EventTable:
    """Interaction events as read-only copies of three columns, one row per
    event: endpoints ``src`` and ``dst`` (int64) and time ``t`` (float64)."""

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("t", np.float64)):
            _frozen_column(self, "event", name, dtype)
        shapes = (self.src.shape, self.dst.shape, self.t.shape)
        if set(shapes) != {(self.t.size,)}:
            raise ValueError(f"event columns must be 1-d and of one length, got shapes {shapes}")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Nodes as read-only copies of four columns, one row per node: ``id``,
    ``class_id`` and ``birth_period`` (int64) and ``features`` (float64,
    one n x d matrix). ``birth_period`` is the period whose class set holds
    ``class_id``; a node's presence in a period is set by its events.

    A graph's table is sorted by id (:meth:`TemporalGraph.from_parts` sorts
    it), which :meth:`rows_of` relies on.
    """

    id: np.ndarray
    class_id: np.ndarray
    birth_period: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        for name in ("id", "class_id", "birth_period"):
            _frozen_column(self, "node", name, np.int64)
        _frozen_column(self, "node", "features", np.float64)
        shapes = (self.id.shape, self.class_id.shape, self.birth_period.shape, self.features.shape)
        if self.features.ndim != 2 or set(shapes[:3]) != {self.features.shape[:1]}:
            raise ValueError(
                f"node columns must be 1-d and an n x d feature matrix of n rows, got shapes {shapes}"
            )

    def __len__(self) -> int:
        return len(self.id)

    def rows_of(self, node_ids: Sequence[int]) -> np.ndarray:
        """Row of each id, in order; an unknown id raises ``KeyError``."""
        want = np.asarray(node_ids, dtype=np.int64)
        rows = np.searchsorted(self.id, want)
        known = rows < len(self.id)
        known[known] = self.id[rows[known]] == want[known]
        if not known.all():
            raise KeyError(int(want[np.argmin(known)]))
        return rows


@dataclass(frozen=True)
class PeriodSpec:
    """Time span and class set of one period (1-based ``index``)."""

    index: int
    t_start: float
    t_end: float
    classes: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """Incident events of every node in CSR form (see ``neighbor_index``).

    Row ``r`` is row ``r`` of the graph's node table. Its incident events
    are entries ``indptr[r]:indptr[r + 1]`` of ``nbr`` (the other
    endpoint's row) and ``times`` (the event time), sorted by time with ties
    in event order.
    """

    indptr: np.ndarray
    nbr: np.ndarray
    times: np.ndarray

    def row_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per row, how many of its entries ``mask`` (one flag per entry) sets."""
        seen = np.concatenate([[0], np.cumsum(mask)])
        return seen[self.indptr[1:]] - seen[self.indptr[:-1]]


@dataclass(frozen=True)
class GraphCache:
    """What a graph keeps from first use for its whole life (it is immutable):
    :func:`node_splits`' codes per split seed, :func:`split_period`'s views per
    ``(period, split seed)`` and :func:`tgcl.backbone.node_inputs`' rows per time."""

    splits: dict[int, np.ndarray] = field(default_factory=dict)
    views: dict[tuple[int, int], PeriodView] = field(default_factory=dict)
    inputs: dict[float, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class TemporalGraph:
    """Immutable temporal graph: a node table sorted by id, an event table
    sorted by time (:meth:`from_parts` sorts both), period specs and a cache."""

    nodes: NodeTable
    events: EventTable
    periods: tuple[PeriodSpec, ...]
    cache: GraphCache = field(default_factory=GraphCache, init=False, repr=False)

    def __post_init__(self):
        _validate_graph(self)

    @classmethod
    def from_parts(
        cls,
        nodes: NodeTable | Sequence,
        events: EventTable | Sequence,
        periods: Iterable[PeriodSpec],
    ) -> "TemporalGraph":
        """Build a graph from loose parts; ``nodes`` is a :class:`NodeTable`
        or its ``(id, class_id, birth_period, features)`` columns, and
        ``events`` an :class:`EventTable` or its ``(src, dst, t)`` columns.
        Nodes are sorted by id and events by time (ties keep their order);
        a node or event fault names its row as given."""
        given_nodes = nodes if isinstance(nodes, NodeTable) else NodeTable(*nodes)
        given_events = events if isinstance(events, EventTable) else EventTable(*events)
        node_order = np.argsort(given_nodes.id, kind="stable")
        event_order = np.argsort(given_events.t, kind="stable")
        try:
            return cls(
                NodeTable(*(getattr(given_nodes, f.name)[node_order] for f in fields(NodeTable))),
                EventTable(*(getattr(given_events, f.name)[event_order] for f in fields(EventTable))),
                tuple(periods),
            )
        except _Fault as fault:
            order = {"nodes": node_order, "events": event_order}.get(fault.part)
            if order is not None:
                fault.pos = int(order[fault.pos])
                fault.first = None if fault.first is None else int(order[fault.first])
            raise

    # -- period helpers ----------------------------------------------------

    @property
    def num_periods(self) -> int:
        return len(self.periods)

    @property
    def feature_dim(self) -> int:
        """Length of every node's feature vector."""
        return self.nodes.features.shape[1]

    def labels(self, node_ids: Sequence[int]) -> np.ndarray:
        """Class of each id, in order; an unknown id raises ``KeyError``."""
        return self.nodes.class_id[self.nodes.rows_of(node_ids)]

    def period(self, n: int) -> PeriodSpec:
        if not 1 <= n <= len(self.periods):
            raise ValueError(f"unknown period index {n} (have 1..{len(self.periods)})")
        return self.periods[n - 1]

    # -- cached structure --------------------------------------------------

    @cached_property
    def neighbor_index(self) -> NeighborIndex:
        """CSR index of every node's incident events, built once per graph.

        Each event adds one entry to both endpoints' slices. Events are
        time-sorted, so a stable argsort of the interleaved ``src``/``dst``
        endpoints leaves every slice sorted by time, with ties in event
        order, which makes "most recent" well defined.
        """
        n = len(self.nodes)
        # rows of src0, dst0, src1, dst1, ...: entry j's other end is entry j ^ 1
        ends = np.searchsorted(self.nodes.id, np.column_stack([self.events.src, self.events.dst]).ravel())
        order = np.argsort(ends, kind="stable")
        indptr = np.zeros(n + 1, dtype=int)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        return NeighborIndex(indptr=indptr, nbr=ends[order ^ 1], times=self.events.t[order // 2])

    @cached_property
    def debut_period(self) -> np.ndarray:
        """Per node row, the first period it is active in (has an event), or
        0 for a node with no events; read-only int64. A node's first index
        entry is its earliest event."""
        index = self.neighbor_index
        active = np.diff(index.indptr) > 0
        debut = np.zeros(len(self.nodes), dtype=np.int64)
        first = index.times[index.indptr[:-1][active]]
        debut[active] = np.searchsorted([p.t_start for p in self.periods], first, side="right")  # 1-based
        debut.setflags(write=False)
        return debut


# ---------------------------------------------------------------------------
# Validity rules: a check of one period entry, or a mask over all node or
# event rows. A fault names its part, its position, and the part it was
# checked against, so the loader can name that part's file.
# ---------------------------------------------------------------------------


class _Fault(ValueError):
    """Rule text ``text`` broken at row ``pos`` of ``part`` ("periods",
    "nodes" or "events"), checked against part ``other`` if not None;
    ``first`` is the earlier row that row ``pos`` repeats, if any."""

    def __init__(self, text: str, other: str | None, part: str, pos: int, first: int | None = None):
        super().__init__(f"period {pos + 1}: {text}" if part == "periods" else text)
        self.text, self.other, self.part, self.pos, self.first = text, other, part, pos, first


def _first_fault(part: str, rules: Sequence[tuple], rows: Mapping[str, Sequence], **consts) -> _Fault | None:
    """The first row any rule's mask flags, as the first rule to flag it (in
    the order they apply to a row) describes it: a rule is ``(mask, text,
    other)``, and ``text`` is formatted with the row's entry of each of
    ``rows`` and with ``consts``."""
    bad = np.array([mask for mask, _, _ in rules], dtype=bool)  # rules x rows
    hit = np.flatnonzero(bad.any(axis=0))
    if not hit.size:
        return None
    row = int(hit[0])
    _, text, other = rules[int(bad[:, row].argmax())]
    return _Fault(text.format(**{k: col[row] for k, col in rows.items()}, **consts), other, part, row)


def _period_fault(i: int, p: PeriodSpec, earlier: Sequence[PeriodSpec]) -> str | None:
    """What is wrong with period entry ``i``, given the entries before it."""
    if p.index != i + 1:
        return f"index {p.index} != {i + 1}"
    for name, t in (("t_start", p.t_start), ("t_end", p.t_end)):
        if not math.isfinite(t):
            return f"{name} {t} is not finite"
    if not p.t_start < p.t_end:
        return f"t_end {p.t_end} must exceed t_start {p.t_start}"
    if earlier and p.t_start != earlier[-1].t_end:
        return f"t_start {p.t_start} != previous t_end {earlier[-1].t_end}"
    if not p.classes:
        return "classes is empty"
    wide = [c for c in p.classes if not -(2**63) <= c < 2**63]  # labels become int64 arrays
    if wide:
        return f"classes {wide} do not fit in int64"
    repeated = set(p.classes).intersection(c for q in earlier for c in q.classes)
    if repeated:
        return f"classes {sorted(repeated)} appear in an earlier entry"
    return None


def _node_fault(nodes: NodeTable, periods: Sequence[PeriodSpec]) -> _Fault | None:
    """The first faulty node row, given valid periods. Ids must be strictly
    increasing: a repeat is a duplicate, a decrease a table not sorted."""
    ids, cls, birth = nodes.id, nodes.class_id, nodes.birth_period
    before = np.roll(ids, 1)
    later = np.arange(len(ids)) > 0
    repeat = later & (ids == before)
    known = (birth >= 1) & (birth <= len(periods))
    owner = np.zeros(len(ids), dtype=np.int64)
    for p in periods:
        owner[np.isin(cls, p.classes)] = p.index  # classes are disjoint
    fault = _first_fault("nodes", [
        (repeat, "duplicate node id {id}", None),
        (later & (ids < before), "node ids are not sorted: {id} follows {before}", None),
        (~np.isfinite(nodes.features).all(axis=1), "node {id} has a non-finite feature", None),
        ((abs(nodes.features) > MAX_FEATURE).any(axis=1), "node {id} has a feature of magnitude above {max:g}", None),
        (~known, "period {birth} of node {id} is unknown (have 1..{n})", "periods"),
        (known & (owner != birth), "class {cls} of node {id} not in period {birth} classes", "periods"),
    ], dict(id=ids, before=before, cls=cls, birth=birth), n=len(periods), max=MAX_FEATURE)
    if fault is not None and repeat[fault.pos]:
        fault.first = fault.pos - 1
    return fault


def _event_fault(g: TemporalGraph) -> _Fault | None:
    """The first faulty event row, given valid periods and nodes. The periods
    are contiguous (their own rule says so), so a range check places every
    event in one of them."""
    ids = g.nodes.id
    src, dst, t = g.events.src, g.events.dst, g.events.t
    t_lo, t_hi = g.periods[0].t_start, g.periods[-1].t_end
    unsorted = np.zeros(len(t), dtype=bool)
    unsorted[1:] = t[1:] < t[:-1]
    return _first_fault("events", [
        (src == dst, "self-loop event on node {src} at t={t}", None),
        (~np.isin(src, ids), "event references unknown node {src}", "nodes"),
        (~np.isin(dst, ids), "event references unknown node {dst}", "nodes"),
        (~((t >= t_lo) & (t <= t_hi)), "timestamp {t} outside all periods [{t_lo}, {t_hi}]", "periods"),
        (unsorted, "events are not sorted by time", None),
    ], dict(src=src, dst=dst, t=t), t_lo=t_lo, t_hi=t_hi)


def _validate_graph(g: TemporalGraph) -> None:
    if not g.periods:
        raise ValueError("graph has no periods")
    for i, p in enumerate(g.periods):
        fault = _period_fault(i, p, g.periods[:i])
        if fault:
            raise _Fault(fault, None, "periods", i)
    fault = _node_fault(g.nodes, g.periods) or _event_fault(g)
    if fault:
        raise fault


@dataclass(frozen=True, eq=False)
class PeriodView:
    """One period's active old- and new-class nodes, as read-only arrays
    that line up: ``ids`` in id order, ``old`` flags the old-class ones and
    ``split`` holds each one's :func:`node_splits` code."""

    period_index: int
    ids: np.ndarray
    old: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ids", np.int64), ("old", np.bool_), ("split", np.int8)):
            _frozen_column(self, "view", name, dtype)

    def nodes_of(self, group: str = "all", split: str | None = None) -> tuple[int, ...]:
        """Node ids in ``group`` ('old'|'new'|'all'), optionally one split, in id order."""
        groups = {"old": self.old, "new": ~self.old, "all": np.ones_like(self.old)}
        if group not in groups:
            raise ValueError(f"unknown group {group!r} (want 'old', 'new' or 'all')")
        if split not in (None, *SPLIT_NAMES):
            raise ValueError(f"unknown split {split!r}")
        in_split = True if split is None else self.split == SPLIT_NAMES.index(split)
        return tuple(self.ids[groups[group] & in_split].tolist())


def split_period(graph: TemporalGraph, n: int, split_seed: int = 0) -> PeriodView:
    """Decompose period ``n`` into its old-class and new-class parts.

    Membership is decided by a node's ``birth_period``, the period that
    introduces its class; only nodes incident to at least one event inside
    the period's time span are considered active, with their rows of
    :func:`node_splits`. Views are read-only: the graph's cache keeps one.
    """
    key, views = (n, split_seed), graph.cache.views
    if key in views:
        return views[key]
    spec = graph.period(n)
    index = graph.neighbor_index
    t = index.times  # spans are half-open, except that the last period holds its t_end
    before_end = t <= spec.t_end if n == graph.num_periods else t < spec.t_end
    active = index.row_counts((t >= spec.t_start) & before_end) > 0
    if not active.any():
        raise ValueError(f"period {n} has no events")
    birth = graph.nodes.birth_period  # the period that introduces a node's class
    rows = np.flatnonzero(active & (birth <= n))
    views[key] = PeriodView(n, graph.nodes.id[rows], birth[rows] < n, node_splits(graph, split_seed)[rows])
    return views[key]


def node_splits(graph: TemporalGraph, split_seed: int = 0) -> np.ndarray:
    """Stable train/val/test assignment, stratified by class at 80/10/10: a
    read-only int8 array with, per node row, an index into ``SPLIT_NAMES``,
    or -1 for a node with no events.

    A node is assigned once, within the cohort of nodes of its class that
    debut in the same period, and keeps that assignment in every later
    period it stays active in. This rules out a node being trained on in
    one period and tested in a later one. Cohorts go by debut, then class;
    each draws one permutation of its rows (in id order) from the stream
    ``(split_seed, debut)``, and its first 10% go to val, the next to test.
    """
    splits = graph.cache.splits
    if split_seed in splits:
        return splits[split_seed]
    debut, labels = graph.debut_period, graph.nodes.class_id
    codes = np.int8([SPLIT_NAMES.index(s) for s in (VAL, TEST, TRAIN)])  # in permutation order
    out = np.full(len(debut), -1, dtype=np.int8)
    for d in np.unique(debut[debut > 0]).tolist():
        rng = np.random.default_rng((split_seed, d))
        for c in np.unique(labels[debut == d]).tolist():
            members = np.flatnonzero((debut == d) & (labels == c))
            n_val, n_test = (int(len(members) * f) for f in SPLIT_FRACTIONS[1:])
            sizes = [n_val, n_test, len(members) - n_val - n_test]
            out[members[rng.permutation(len(members))]] = np.repeat(codes, sizes)
    out.setflags(write=False)
    splits[split_seed] = out
    return out


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

#: The most nodes, node feature entries or events a synthetic config may
#: ask for (:class:`SynthConfig`), and the most hidden-layer weights a
#: model may have; a larger one is refused before anything is allocated.
MAX_ENTRIES = 10**8

# The two rules for the numeric fields of configs, periods files and
# checkpoints; a fault raises ValueError("<name> must be <kind>, got <value!r>").


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` if it is an integer (never a boolean) of at least ``low``."""
    if type(value) is not int or low is not None and value < low:
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return value


_RANGES = {"": lambda x: True, ">= 0": lambda x: x >= 0, "> 0": lambda x: x > 0, "in [0, 1]": lambda x: 0 <= x <= 1}


def check_number(name: str, value, bound: str = "") -> float:
    """``value`` if it is a finite JSON number (a float, or an int that a
    float can hold; never a boolean) within ``bound``, a key of ``_RANGES``."""
    number = type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    if not (number and math.isfinite(value) and _RANGES[bound](value)):
        raise ValueError(f"{name} must be {f'a finite number {bound}'.rstrip()}, got {value!r}")
    return value


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the drifting-cluster synthetic generator.

    Every period introduces ``classes_per_period`` classes with fresh
    Gaussian feature centers, and every class alive at a period (old or
    new) receives ``nodes_per_class_per_period`` fresh nodes. Old-class
    centers move by ``drift_step`` along a fixed per-class random direction
    at each new period, so old-class data keeps evolving. A config that
    makes more than :data:`MAX_ENTRIES` nodes, node feature entries or
    events is refused, named by its largest factor.
    """

    num_periods: int = 3
    classes_per_period: int = 3
    nodes_per_class_per_period: int = 200
    feature_dim: int = 8
    class_center_scale: float = 1.5
    drift_step: float = 0.8
    noise_sigma: float = 1.0
    intra_class_edge_prob: float = 0.9
    inter_class_edge_prob: float = 0.1
    events_per_node: int = 5
    seed: int = 0

    def __post_init__(self):
        """Each message starts with the name of the field at fault."""
        for name, low in (
            ("num_periods", 1),
            ("classes_per_period", 1),
            ("nodes_per_class_per_period", 1),
            ("feature_dim", 1),
            ("events_per_node", 0),
            ("seed", 0),
        ):
            check_int(name, getattr(self, name), low)
        for name, bound in (
            ("class_center_scale", ">= 0"),
            ("drift_step", ">= 0"),
            ("noise_sigma", "> 0"),
            ("intra_class_edge_prob", "in [0, 1]"),
            ("inter_class_edge_prob", "in [0, 1]"),
        ):
            check_number(name, getattr(self, name), bound)
        if self.events_per_node > 0 and self.intra_class_edge_prob + self.inter_class_edge_prob == 0:
            raise ValueError(
                "intra_class_edge_prob and inter_class_edge_prob cannot both be 0 when events_per_node > 0"
            )
        # period p adds a cohort to each of its p * classes_per_period classes,
        # and each of its nodes draws events_per_node events
        cohorts = self.num_periods * (self.num_periods + 1) // 2 * self.classes_per_period
        nodes = cohorts * self.nodes_per_class_per_period
        events = nodes * (self.num_periods + 2) // 3 * self.events_per_node
        sizes = ("num_periods", "classes_per_period", "nodes_per_class_per_period")
        for what, size, factors in (
            ("nodes", nodes, sizes),
            ("node feature entries", nodes * self.feature_dim, (*sizes, "feature_dim")),
            ("events", events, (*sizes, "events_per_node")),
        ):
            if size > MAX_ENTRIES:
                name = max(factors, key=lambda f: getattr(self, f))
                raise ValueError(f"{name} {getattr(self, name)} makes {size} {what}, more than {MAX_ENTRIES}")


def generate_synthetic(cfg: SynthConfig) -> TemporalGraph:
    """Generate a drifting-cluster temporal graph, deterministic per seed.

    At period ``p`` each alive class receives a fresh cohort of nodes whose
    features are sampled around the class's (possibly drifted) center.
    Nodes persist: every node created so far draws ``events_per_node``
    events per period against intra/inter-class mixture weights, so a
    class's active population at a later period is a mixture of cohorts
    along its drift trail.

    An event is drawn as three scalar calls on the seed's generator: a
    ``random()`` that picks the intra- or inter-class pool, an
    ``integers(0, pool size)`` that picks the partner and a ``random()``
    for the time (see :func:`_draw_event`). Most events are replayed as
    arrays from the generator's raw outputs instead (:func:`_replay`),
    which compute what those calls return, in the same order, so the graph
    and the generator's final state are those of the scalar calls. Two
    kinds of event run the scalar calls: an event of a class with at most
    one node in either pool, whose pool can be empty or of one node, which
    changes what is drawn, and an event whose partner draw numpy redraws
    (a Lemire rejection, under ``L`` in ``2**32`` draws from a pool of
    ``L`` nodes).
    """
    rng = np.random.default_rng(cfg.seed)
    n_per = cfg.nodes_per_class_per_period
    dim = cfg.feature_dim
    periods = tuple(
        PeriodSpec(
            index=p,
            t_start=float(p - 1),
            t_end=float(p),
            classes=tuple(range((p - 1) * cfg.classes_per_period, p * cfg.classes_per_period)),
        )
        for p in range(1, cfg.num_periods + 1)
    )

    centers: dict[int, np.ndarray] = {}
    drift_dir: dict[int, np.ndarray] = {}
    class_period: dict[int, int] = {}
    classes, births, features = [], [], []  # node columns but the ids, one cohort at a time
    event_columns = ([], [], [])  # src, dst and t, one period at a time

    w_intra = cfg.intra_class_edge_prob
    w_inter = cfg.inter_class_edge_prob
    q_intra = w_intra / (w_intra + w_inter) if (w_intra + w_inter) > 0 else 0.0

    for spec in periods:
        p = spec.index
        for c in spec.classes:
            centers[c] = rng.normal(0.0, cfg.class_center_scale, size=dim)
            v = rng.normal(0.0, 1.0, size=dim)
            drift_dir[c] = v / max(float(np.linalg.norm(v)), 1e-12)
            class_period[c] = p

        for c in sorted(class_period):
            mean = centers[c] + (p - class_period[c]) * cfg.drift_step * drift_dir[c]
            feats = mean + rng.normal(0.0, cfg.noise_sigma, size=(n_per, dim))
            classes.append(np.full(n_per, c))
            births.append(np.full(n_per, class_period[c]))
            features.append(feats)

        # every node created so far stays active: old-class data at a later
        # period mixes fresh drifted cohorts with earlier ones; ids count up
        # from 0 in cohort order
        alive_class = np.concatenate(classes)
        period_columns = _period_events(rng, alive_class, cfg.events_per_node, q_intra, spec)
        for column, part in zip(event_columns, period_columns):
            column.append(part)

    nodes = (np.arange(len(alive_class)), alive_class, np.concatenate(births), np.concatenate(features))
    return TemporalGraph.from_parts(nodes, tuple(map(np.concatenate, event_columns)), periods)


class _Pools:
    """The partner pools of one period's alive nodes, whose ids are their
    rows ``0 .. n - 1`` of ``alive_class``: a class's intra pool is its own
    nodes and its inter pool every other node, both in id order."""

    def __init__(self, alive_class: np.ndarray):
        self.n = len(alive_class)
        self.size = np.bincount(alive_class)  # intra pool size per class
        self.start = np.cumsum(self.size) - self.size
        self.members = np.argsort(alive_class, kind="stable")  # ids by class, in id order
        # per member of class c, c * (n + 1) plus the count of non-members
        # before it, an ascending key: entry j of c's inter pool is j plus
        # the count of c's members whose key is at most c * (n + 1) + j
        member_class = alive_class[self.members]
        rank = np.arange(self.n) - self.start[member_class]
        self.key = member_class * (self.n + 1) + self.members - rank

    def partners(self, u: np.ndarray, c: np.ndarray, intra: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Entry ``idx`` of the intra pool (where ``intra``) or the inter pool
        of class ``c``, or the next intra entry where that entry is ``u``."""
        out = np.empty(len(u), dtype=np.int64)
        out[intra] = self.members[self.start[c[intra]] + idx[intra]]
        inter = ~intra
        at = np.searchsorted(self.key, c[inter] * (self.n + 1) + idx[inter], side="right")
        out[inter] = idx[inter] + at - self.start[c[inter]]
        again = np.flatnonzero(out == u)  # only an intra pool holds u; deterministic re-pick
        nxt = (idx[again] + 1) % self.size[c[again]]
        out[again] = self.members[self.start[c[again]] + nxt]
        return out


#: The most events :func:`_replay` replays from one draw of raw outputs:
#: it bounds the arrays it holds, and the draws a rejection discards.
_REPLAY_BLOCK = 1 << 16


def _period_events(rng, alive_class: np.ndarray, events_per_node: int, q_intra: float, spec: PeriodSpec):
    """The ``src``, ``dst`` and ``t`` columns of one period's events, in
    draw order: ``events_per_node`` draws for each alive node in id order,
    less those that find no partner. An event's draws pick a pool, an entry
    of it and a time. An event of a class with at least two nodes in both
    pools is replayed in blocks (:func:`_replay`); any other, and the first
    event that a block cannot replay, is drawn by the scalar calls
    (:func:`_draw_event`). The partners are looked up from the picks at the
    end, since the lookup draws nothing."""
    pools = _Pools(alive_class)
    src = np.repeat(np.arange(len(alive_class)), events_per_node)
    cls = alive_class[src]
    intra = np.empty(len(src), dtype=bool)
    idx = np.empty(len(src), dtype=np.int64)
    t = np.empty(len(src))
    drawn = np.ones(len(src), dtype=bool)
    regular = ((pools.size >= 2) & (pools.n - pools.size >= 2))[cls]
    scalar = np.append(np.flatnonzero(~regular), len(src))  # ascending, with an end mark
    k = 0
    while k < len(src):
        if regular[k]:
            block = slice(k, min(k + _REPLAY_BLOCK, int(scalar[np.searchsorted(scalar, k)])))
            k += _replay(rng, pools, cls[block], q_intra, spec, intra[block], idx[block], t[block])
            if k == block.stop:
                continue
        event = _draw_event(rng, pools, int(cls[k]), q_intra, spec)
        if event is None:
            drawn[k] = False
        else:
            intra[k], idx[k], t[k] = event
        k += 1
    src, cls, intra, idx = (col[drawn] for col in (src, cls, intra, idx))
    return src, pools.partners(src, cls, intra, idx), t[drawn]


def _event_time(spec: PeriodSpec, unit):
    """``rng.uniform(t_start, t_end)`` as numpy computes it from the unit
    draw ``unit``, kept inside the period."""
    return np.minimum(
        spec.t_start + (spec.t_end - spec.t_start) * unit, math.nextafter(spec.t_end, spec.t_start)
    )


def _draw_event(rng, pools: _Pools, c: int, q_intra: float, spec: PeriodSpec):
    """The next event of a node of class ``c`` by the scalar calls, as its
    picks ``(intra, idx, t)`` (see :meth:`_Pools.partners`); None for an
    event without a partner to draw, which makes only the first call."""
    same = int(pools.size[c])
    others = pools.n - same
    want_intra = rng.random() < q_intra
    intra = same > 1 if want_intra else others == 0  # the wanted pool, or else the other
    size = same if intra else others
    if size < (2 if intra else 1):  # no pool, or an intra pool of the node alone
        return None
    idx = int(rng.integers(0, size))
    return intra, idx, _event_time(spec, rng.random())


def _replay(rng, pools: _Pools, cls, q_intra: float, spec: PeriodSpec, intra, idx, t) -> int:
    """Replay the scalar calls of events of classes ``cls`` (each with at
    least two nodes in both pools) from one draw of the generator's raw
    64-bit outputs, fill their picks ``intra``, ``idx`` and ``t`` and return
    how many it replayed: all, or those before the first whose partner draw
    numpy would redraw. The generator is left as the scalar calls of those
    events leave it, including the buffered half of its last 32-bit draw.

    ``random()`` is ``(x >> 11) * 2**-53`` of an output ``x``. ``integers(0,
    L)``, for ``L`` below ``2**32`` (the node count is), is Lemire's
    ``(u * L) >> 32`` of a 32-bit ``u``: the lower half of a fresh output,
    whose upper half the generator keeps for the next such draw. numpy
    redraws ``u`` when ``(u * L) mod 2**32 < 2**32 mod L``.
    """
    bits = rng.bit_generator
    start = bits.state
    has = start["has_uint32"]  # 1: the first partner draw takes the kept half
    e = len(cls)
    i = np.arange(e)
    fresh = (i + has) % 2 == 0  # partner draw i takes a fresh output
    at = 2 * i + (i + 1 - has) // 2  # the output of event i's first random()
    x = bits.random_raw(2 * e + (e + 1 - has) // 2)
    upper = x[at + 1] >> 32  # the half a fresh draw keeps
    kept = np.roll(upper, 1)
    kept[0] = start["uinteger"]
    u32 = np.where(fresh, x[at + 1] & 0xFFFFFFFF, kept)
    want_intra = (x[at] >> 11) * 2.0**-53 < q_intra  # both pools hold two nodes: the wanted one is used
    size = np.where(want_intra, pools.size[cls], pools.n - pools.size[cls]).astype(np.uint64)
    m = u32 * size
    redraw = (m & 0xFFFFFFFF) < (1 << 32) % size
    j = int(np.argmax(redraw)) if redraw.any() else e
    intra[:j] = want_intra[:j]
    idx[:j] = m[:j] >> 32
    t[:j] = _event_time(spec, (x[at + 1 + fresh][:j] >> 11) * 2.0**-53)
    if j < e:  # rewind to event j, for the scalar calls to make it
        bits.state = start
        bits.random_raw(at[j])
    state = bits.state
    state["has_uint32"] = (has + j) % 2
    state["uinteger"] = int(np.where(fresh, upper, u32)[j - 1]) if j else start["uinteger"]
    bits.state = state
    return j


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

NODE_BASENAME = "nodes.csv"
EVENT_BASENAME = "events.csv"
PERIOD_BASENAME = "periods.json"


def graph_paths(out_dir: str | Path) -> dict[str, Path]:
    """The node, event and period files that :func:`save_graph` writes under ``out_dir``."""
    out = Path(out_dir)
    return {"nodes": out / NODE_BASENAME, "events": out / EVENT_BASENAME, "periods": out / PERIOD_BASENAME}


def save_graph(graph: TemporalGraph, out_dir: str | Path) -> dict[str, Path]:
    """Write ``nodes.csv``, ``events.csv``, ``periods.json`` under ``out_dir``."""
    paths = graph_paths(out_dir)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    node_path, event_path, period_path = paths.values()

    dim = graph.feature_dim
    with node_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "class", "period"] + [f"f{i}" for i in range(dim)])
        nodes = graph.nodes
        rows = zip(nodes.id.tolist(), nodes.class_id.tolist(), nodes.birth_period.tolist(), nodes.features.tolist())
        w.writerows([v, c, p, *map(repr, feature)] for v, c, p, feature in rows)

    with event_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "t"])
        ev = graph.events
        w.writerows(zip(ev.src.tolist(), ev.dst.tolist(), map(repr, ev.t.tolist())))

    with period_path.open("w") as fh:
        json.dump(
            [
                {"index": p.index, "t_start": p.t_start, "t_end": p.t_end, "classes": list(p.classes)}
                for p in graph.periods
            ],
            fh,
            indent=2,
        )
        fh.write("\n")
    return paths


def load_graph(
    node_file: str | Path,
    event_file: str | Path,
    period_file: str | Path | None = None,
) -> TemporalGraph:
    """Load and validate a graph; errors name the offending file and line.
    The loader only parses; the graph's rules place the first fault.

    Files are read as UTF-8. A loaded graph must hold at least one event
    in every period's span: the empty period that :func:`period_fault`
    reports is rejected as ``<periods file>: entry i: ...``. Graphs built in
    memory may have empty periods, and :func:`split_period` raises on them.
    """
    node_path = Path(node_file)
    event_path = Path(event_file)
    period_path = Path(period_file) if period_file else node_path.parent / PERIOD_BASENAME
    sources = {"nodes": node_path, "events": event_path, "periods": period_path}

    periods = _load_periods(period_path)
    try:
        nodes, node_lines = _load_nodes(node_path)
        events, event_lines = _load_events(event_path)
    except OSError as exc:
        raise GraphFormatError(f"{exc.filename}: cannot read: {exc.strerror or exc}") from exc
    try:
        graph = TemporalGraph.from_parts(nodes, events, periods)
    except _Fault as fault:
        lines = {"nodes": node_lines, "events": event_lines}.get(fault.part)
        place = f"{sources[fault.part]}" + (f":{lines[fault.pos]}" if lines else f": entry {fault.pos}")
        first = "" if fault.first is None else f", first at {sources[fault.part].name}:{lines[fault.first]}"
        see = f" (see {sources[fault.other]})" if fault.other else ""
        raise GraphFormatError(f"{place}: {fault.text}{first}{see}") from None
    fault = period_fault(graph)
    if fault:
        raise GraphFormatError(f"{period_path}: entry {fault[0] - 1}: {fault[1]} (see {event_path})")
    return graph


def period_fault(graph: TemporalGraph, seeds: Sequence[int] = ()) -> tuple[int, str] | None:
    """Why no run can train and score ``graph`` under the split ``seeds``,
    as ``(n, text)`` for the period ``n`` at fault, or None: first a period
    whose span (``[t_start, t_end)``, the last one including its ``t_end``)
    holds no event, else, by seed in the order given, the first period with
    no new-class training nodes (nothing to train) or no test nodes
    (nothing to score). The graph caches the views, so the runs reuse them."""
    # periods are contiguous and hold every event: each span ends where the next starts
    bounds = np.searchsorted(graph.events.t, [p.t_start for p in graph.periods] + [math.inf])
    for p, count in zip(graph.periods, np.diff(bounds).tolist()):
        if not count:
            span = f"[{p.t_start}, {p.t_end}{']' if p is graph.periods[-1] else ')'}"
            return p.index, f"no events in period {p.index}'s span {span}"
    for seed in seeds:
        for n in range(1, graph.num_periods + 1):
            view = split_period(graph, n, seed)
            for group, split, what in (("new", TRAIN, "new-class training"), ("all", TEST, "test")):
                if not view.nodes_of(group, split):
                    return n, f"period {n} has no {what} nodes under seed {seed}"
    return None


def _check_classes(name: str, value) -> None:
    if type(value) is not list or not all(type(c) is int for c in value):
        raise ValueError(f"{name} must be a list of integers, got {value!r}")


_PERIOD_FIELDS = {"index": check_int, "t_start": check_number, "t_end": check_number, "classes": _check_classes}


def _read_text(path: Path) -> str:
    """A graph file's text; bytes that are not UTF-8 raise
    :class:`GraphFormatError` naming the file and their line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"{path}:{line}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_periods(path: Path) -> tuple[PeriodSpec, ...]:
    try:
        raw = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphFormatError(f"{path}: cannot parse period sidecar: {exc}") from exc
    if not isinstance(raw, list):
        raise GraphFormatError(f"{path}: period sidecar must be a list")
    if not raw:
        raise GraphFormatError(f"{path}: no period entries")
    specs: list[PeriodSpec] = []
    for i, d in enumerate(raw):
        where = f"{path}: entry {i}"
        for name, check in _PERIOD_FIELDS.items():
            if not isinstance(d, dict) or name not in d:
                raise GraphFormatError(f"{where}: {name} is missing")
            try:
                check(name, d[name])
            except ValueError as exc:
                raise GraphFormatError(f"{where}: {exc}") from None
        specs.append(PeriodSpec(d["index"], float(d["t_start"]), float(d["t_end"]), tuple(d["classes"])))
    return tuple(specs)


def _csv_rows(fh):
    """Yield ``(line, row)`` per non-blank CSV row, ``line`` being the row's
    first physical line (a quoted cell may span several)."""
    reader = csv.reader(fh)
    line = 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def _load_nodes(path: Path) -> tuple[tuple, list[int]]:
    """The ``(id, class_id, birth_period, features)`` columns in file order,
    and the line of each row."""
    rows_out: list[tuple[int, int, int, list[float]]] = []
    lines: list[int] = []
    with io.StringIO(_read_text(path), newline="") as fh:
        rows = _csv_rows(fh)
        line, header = next(rows, (1, None))
        if header is None:
            raise GraphFormatError(f"{path}:1: empty node file")
        if header[:3] != ["id", "class", "period"]:
            raise GraphFormatError(f"{path}:{line}: node header must start with id,class,period")
        dim = len(header) - 3
        for lineno, row in rows:
            if len(row) != 3 + dim:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {3 + dim} columns, got {len(row)}"
                    " (feature dimension mismatch)"
                )
            try:
                labels = (_int64(row[0], "node id"), _int64(row[1], "class"), _int64(row[2], "period"))
                rows_out.append((*labels, [float(x) for x in row[3:]]))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: malformed node row: {exc}") from exc
            lines.append(lineno)
    ids, classes, births, features = tuple(map(list, zip(*rows_out))) or ([], [], [], [])
    return (ids, classes, births, np.array(features, dtype=float).reshape(len(features), dim)), lines


def _int64(cell: str, what: str) -> int:
    """An integer cell, which must fit its int64 column."""
    v = int(cell)
    if not -(2**63) <= v < 2**63:
        raise ValueError(f"{what} {v} does not fit in int64")
    return v


def _load_events(path: Path) -> tuple[tuple[list, ...], list[int]]:
    """The ``(src, dst, t)`` columns in file order, and the line of each row."""
    rows_out: list[tuple[int, int, float]] = []
    lines: list[int] = []
    with io.StringIO(_read_text(path), newline="") as fh:
        rows = _csv_rows(fh)
        line, header = next(rows, (1, None))
        if header is None:
            raise GraphFormatError(f"{path}:1: empty event file (need a src,dst,t header)")
        if header != ["src", "dst", "t"]:
            raise GraphFormatError(f"{path}:{line}: event header must be src,dst,t")
        for lineno, row in rows:
            if len(row) != 3:
                raise GraphFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                rows_out.append((_int64(row[0], "node id"), _int64(row[1], "node id"), float(row[2])))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: malformed event row: {exc}") from exc
            lines.append(lineno)
    return tuple(map(list, zip(*rows_out))) or ([], [], []), lines
