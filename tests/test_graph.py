import csv
import dataclasses
import hashlib
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcl.graph import (
    MAX_ENTRIES,
    SPLIT_NAMES,
    EventTable,
    GraphFormatError,
    NodeTable,
    PeriodSpec,
    SynthConfig,
    TemporalGraph,
    check_int,
    check_number,
    generate_synthetic,
    load_graph,
    node_splits,
    period_fault,
    save_graph,
    split_period,
)
from tgcl.harness import resolve_config

from conftest import (
    NO_TEST_SYNTH,
    make_graph_without_new_class_events,
    make_graph_without_test_nodes_under_seed_1,
    make_two_period_graph,
)
from oracles import (
    Event,
    NodeRecord,
    debut_periods,
    event_columns,
    events_of,
    graphs_equal,
    node_columns,
    nodes_of,
    period_events,
    reference_generate_synthetic,
    reference_graph_fault,
    reference_node_splits,
)


def split_names(view) -> dict[int, str]:
    """A view's split assignment by node id, with the names of its codes."""
    return {v: SPLIT_NAMES[c] for v, c in zip(view.ids.tolist(), view.split.tolist())}


def array_splits(graph, seed: int) -> dict[int, str]:
    """:func:`node_splits` by node id, for the nodes it assigns."""
    codes = node_splits(graph, seed).tolist()
    return {v: SPLIT_NAMES[c] for v, c in zip(graph.nodes.id.tolist(), codes) if c >= 0}


def same_view(a, b) -> bool:
    return a.period_index == b.period_index and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in ("ids", "old", "split")
    )


class TestTypes:
    def test_self_loop_rejected(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,))]
        nodes = [NodeRecord(id=1, class_id=0, birth_period=1, feature=np.zeros(1))]
        with pytest.raises(ValueError):
            TemporalGraph.from_parts(node_columns(nodes), event_columns([Event(1, 1, 0.5)]), periods)

    def test_node_feature_readonly(self, two_period_graph):
        nodes = two_period_graph.nodes
        assert (nodes.id.dtype, nodes.class_id.dtype, nodes.birth_period.dtype) == (np.int64,) * 3
        assert nodes.features.dtype == np.float64 and nodes.features.shape == (4, 2)
        for col in (nodes.id, nodes.class_id, nodes.birth_period, nodes.features):
            with pytest.raises(ValueError):
                col[0] = 5

    def test_class_must_match_birth_period(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
        nodes = [NodeRecord(id=0, class_id=1, birth_period=1, feature=np.zeros(2))]
        with pytest.raises(ValueError, match="not in period"):
            TemporalGraph.from_parts(node_columns(nodes), event_columns([]), periods)

    def test_disjoint_class_sets_enforced(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (0,))]
        with pytest.raises(ValueError, match=r"period 2: classes \[0\] appear in an earlier entry"):
            TemporalGraph.from_parts(node_columns([]), event_columns([]), periods)

    def test_non_contiguous_periods_rejected(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.5, 2.0, (1,))]
        with pytest.raises(ValueError, match=r"period 2: t_start 1\.5 != previous t_end 1\.0"):
            TemporalGraph.from_parts(node_columns([]), event_columns([]), periods)

    def test_event_with_unknown_endpoint_rejected(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,))]
        nodes = [NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(1))]
        with pytest.raises(ValueError, match="unknown node"):
            TemporalGraph.from_parts(node_columns(nodes), event_columns([Event(0, 9, 0.5)]), periods)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        periods = [PeriodSpec(1, 0.0, 1.0, (0, 1))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(2)),
            NodeRecord(id=7, class_id=1, birth_period=1, feature=np.array([1.0, bad])),
        ]
        with pytest.raises(ValueError, match="node 7 has a non-finite feature"):
            TemporalGraph.from_parts(node_columns(nodes), event_columns([]), periods)

    def test_feature_dim_must_agree(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0, 1))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(2)),
            NodeRecord(id=1, class_id=1, birth_period=1, feature=np.zeros(3)),
        ]
        with pytest.raises(ValueError, match="dimension"):
            TemporalGraph.from_parts(node_columns(nodes), event_columns([]), periods)


class TestNodeTable:
    @pytest.mark.parametrize(
        "ids, message",
        [([0, 2, 1, 3], "node ids are not sorted: 1 follows 2"), ([0, 1, 1, 3], "duplicate node id 1")],
    )
    def test_direct_graph_needs_sorted_distinct_ids(self, two_period_graph, ids, message):
        g = two_period_graph
        nodes = NodeTable(ids, g.nodes.class_id, g.nodes.birth_period, g.nodes.features)
        with pytest.raises(ValueError, match=f"^{message}$"):
            TemporalGraph(nodes, g.events, g.periods)

    def test_from_parts_sorts_by_id_and_names_a_repeat_as_given(self, two_period_graph):
        g = two_period_graph
        nodes = nodes_of(g)
        shuffled = [nodes[i] for i in (2, 0, 3, 1)]
        assert graphs_equal(TemporalGraph.from_parts(node_columns(shuffled), g.events, g.periods), g)
        with pytest.raises(ValueError, match="^duplicate node id 0$"):
            TemporalGraph.from_parts(node_columns(nodes + nodes[:1]), g.events, g.periods)

    def test_loader_names_both_lines_of_a_repeated_id(self, tmp_path):
        paths = save_graph(make_two_period_graph(), tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        lines[2] = lines[2].replace("1,", "3,", 1)  # line 3 now holds node 3, as line 5 does
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert str(info.value) == f"{paths['nodes']}:5: duplicate node id 3, first at nodes.csv:3"

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0], [2**70], [1], [[0.0]]), rf"node column class_id holds {2**70}, which does not fit in int64"),
            (([0], [0], [2**64], [[0.0]]), rf"node column birth_period holds {2**64}, which does not fit in int64"),
            (([0.5], [0], [1], [[0.0]]), r"node column id holds float64, not int64"),
            (([0, 1], [0, 0], [1, 1], [[0.0], [0.0, 1.0]]), r"node column features holds rows of different"),
            (([0], [0], [1], [["a"]]), r"node column features holds <U1, not float64"),
            (([0], [0], [1], [0.0]), r"node columns must be 1-d and an n x d feature matrix of n rows"),
            (([0, 1], [0], [1, 1], [[0.0], [1.0]]), r"node columns must be 1-d and an n x d feature matrix"),
        ],
    )
    def test_node_columns_are_checked(self, columns, message):
        with pytest.raises(ValueError, match=message):
            NodeTable(*columns)

    @pytest.mark.parametrize("table", ["node", "event"])
    @pytest.mark.parametrize("ids, wide", [([5, 2**63], 2**63), ([-(2**63) - 1, 0], -(2**63) - 1), ([10**20], 10**20)])
    def test_the_first_id_beyond_int64_is_named(self, table, ids, wide):
        n = len(ids)
        build = {
            "node": lambda: NodeTable(ids, [0] * n, [1] * n, [[0.0]] * n),
            "event": lambda: EventTable([0] * n, ids, [0.5] * n),
        }[table]
        column = "id" if table == "node" else "dst"
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"{table} column {column} holds {wide}, which does not fit in int64"

    def test_a_float_id_is_named_by_its_type(self):
        with pytest.raises(ValueError) as info:
            NodeTable([1.5], [0], [1], [[0.0]])
        assert str(info.value) == "node column id holds float64, not int64"

    @pytest.mark.parametrize("column, what", [(0, "node id"), (1, "class"), (2, "period")])
    def test_loader_names_the_line_of_a_label_beyond_int64(self, tmp_path, column, what):
        paths = save_graph(make_two_period_graph(), tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = str(2**64)
        lines[2] = ",".join(cells)
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        want = f"{paths['nodes']}:3: malformed node row: {what} {2**64} does not fit in int64"
        assert str(info.value) == want


class TestSplitPeriod:
    def test_first_period_has_no_old(self, two_period_graph):
        view = split_period(two_period_graph, 1)
        assert view.nodes_of("old") == ()
        assert view.nodes_of("new") == (0, 1)

    def test_old_class_count_on_synthetic(self):
        cfg = SynthConfig(num_periods=3, classes_per_period=3, nodes_per_class_per_period=10, seed=7)
        graph = generate_synthetic(cfg)
        view = split_period(graph, 3)
        old_classes = set(graph.labels(view.nodes_of("old")).tolist())
        assert len(old_classes) == cfg.classes_per_period * 2
        assert old_classes == set(range(6))

    def test_old_nodes_exactly_active_old_class_nodes(self, small_synth):
        graph = small_synth
        for n in (2, 3):
            view = split_period(graph, n)
            old_classes = {c for p in graph.periods[: n - 1] for c in p.classes}
            active = set()
            for e in period_events(graph, n):
                active.update(e.endpoints())
            expected = sorted(v for v in active if graph.labels([v])[0] in old_classes)
            assert list(view.nodes_of("old")) == expected

    def test_groups_are_disjoint(self, small_synth):
        view = split_period(small_synth, 3)
        assert not set(view.nodes_of("old")) & set(view.nodes_of("new"))

    def test_split_fractions(self):
        cfg = SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=100, seed=3)
        view = split_period(generate_synthetic(cfg), 2)
        splits = split_names(view)
        total = len(splits)
        n_train = sum(1 for s in splits.values() if s == "train")
        n_val = sum(1 for s in splits.values() if s == "val")
        n_test = sum(1 for s in splits.values() if s == "test")
        assert n_train + n_val + n_test == total
        assert abs(n_train / total - 0.8) < 0.05
        assert abs(n_val / total - 0.1) < 0.05
        assert abs(n_test / total - 0.1) < 0.05

    def test_deterministic(self, small_synth):
        a = split_period(small_synth, 2, split_seed=5)
        b = split_period(small_synth, 2, split_seed=5)
        assert same_view(a, b)

    def test_views_and_splits_live_in_the_declared_cache(self, two_period_graph):
        view = split_period(two_period_graph, 2, split_seed=5)
        cache = two_period_graph.cache
        assert cache.views == {(2, 5): view} and list(cache.splits) == [5]
        assert cache.inputs == {}
        assert make_two_period_graph().cache.views == {}  # one cache per graph

    def test_view_built_once_per_period_and_seed(self, two_period_graph):
        view = split_period(two_period_graph, 2, split_seed=5)
        assert split_period(two_period_graph, 2, split_seed=5) is view
        assert split_period(two_period_graph, 2, split_seed=6) is not view
        assert split_period(two_period_graph, 1, split_seed=5) is not view
        other = split_period(make_two_period_graph(), 2, split_seed=5)
        assert other is not view and same_view(other, view)

    def test_split_assignment_stable_across_periods(self, small_synth):
        # a node active in several periods keeps one assignment: no node
        # trained on in an early period can appear in a later test split
        views = [split_names(split_period(small_synth, n, split_seed=3)) for n in (1, 2, 3)]
        for v in views[0]:
            for later in views[1:]:
                if v in later:
                    assert later[v] == views[0][v]

    def test_unknown_period(self, two_period_graph):
        with pytest.raises(ValueError, match="unknown period"):
            split_period(two_period_graph, 9)

    def test_period_without_events(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(1)),
            NodeRecord(id=1, class_id=0, birth_period=1, feature=np.zeros(1)),
        ]
        graph = TemporalGraph.from_parts(node_columns(nodes), event_columns([Event(0, 1, 0.5)]), periods)
        with pytest.raises(ValueError, match="no events"):
            split_period(graph, 2)

    @pytest.mark.parametrize("seed", range(40))
    def test_views_and_debuts_match_an_event_scan(self, seed):
        graph = _boundary_graph(seed)
        debut = graph.debut_period.tolist()
        assert {v: d for v, d in zip(graph.nodes.id.tolist(), debut) if d} == debut_periods(graph)
        assert array_splits(graph, seed) == reference_node_splits(graph, seed)
        for n in range(1, graph.num_periods + 1):
            active = {v for e in period_events(graph, n) for v in e.endpoints()}
            if not active:
                with pytest.raises(ValueError, match="no events"):
                    split_period(graph, n, split_seed=seed)
                continue
            view = split_period(graph, n, split_seed=seed)
            old = {c for p in graph.periods[: n - 1] for c in p.classes}
            new = set(graph.period(n).classes)
            assert view.nodes_of("old") == tuple(sorted(v for v in active if graph.labels([v])[0] in old))
            assert view.nodes_of("new") == tuple(sorted(v for v in active if graph.labels([v])[0] in new))
            assignment = reference_node_splits(graph, seed)
            assert split_names(view) == {v: assignment[v] for v in view.nodes_of()}

    @pytest.mark.parametrize("seed", range(3))
    def test_node_splits_match_the_reference_on_the_main_graph(self, seed):
        graph = generate_synthetic(SynthConfig(**_MAIN_SYNTH))
        assert array_splits(graph, seed) == reference_node_splits(graph, seed)

    def test_views_splits_and_debuts_are_read_only_rows(self, small_synth):
        view = split_period(small_synth, 2)
        assert (view.ids.dtype, view.old.dtype, view.split.dtype) == (np.int64, np.bool_, np.int8)
        codes, debut = node_splits(small_synth), small_synth.debut_period
        assert (codes.dtype, debut.dtype) == (np.int8, np.int64)
        assert codes.shape == debut.shape == small_synth.nodes.id.shape
        for col in (view.ids, view.old, view.split, codes, debut):
            with pytest.raises(ValueError):
                col[0] = 1

    def test_boundary_events_belong_to_the_later_period(self):
        # events at t_start, at the inner boundary and at the last t_end;
        # node 4 is silent and node 3 first becomes active in period 2
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
        nodes = [NodeRecord(v, c, c + 1, np.zeros(1)) for v, c in enumerate([0, 0, 1, 0, 1])]
        events = [Event(0, 1, 0.0), Event(1, 2, 1.0), Event(3, 2, 2.0)]
        graph = TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)
        assert graph.debut_period.tolist() == [1, 1, 2, 2, 0]
        assert split_period(graph, 1).nodes_of("new") == (0, 1)
        view = split_period(graph, 2)
        assert view.nodes_of("old") == (1, 3) and view.nodes_of("new") == (2,)
        assert node_splits(graph)[4] == -1


class TestPeriodFault:
    @pytest.mark.parametrize("seeds", [(), [0], [1, 0]])
    def test_an_empty_period_comes_before_any_scoring_fault(self, seeds):
        # period 1 has no test nodes under any seed; period 2 loses its
        # events, and is reported without a split_period raise
        graph = generate_synthetic(SynthConfig(**NO_TEST_SYNTH))
        first = graph.events.t < graph.period(2).t_start
        events = EventTable(graph.events.src[first], graph.events.dst[first], graph.events.t[first])
        graph = TemporalGraph.from_parts(graph.nodes, events, graph.periods)
        assert period_fault(graph, seeds) == (2, "no events in period 2's span [1.0, 2.0]")

    def test_periods_are_checked_in_order(self):
        graph = generate_synthetic(SynthConfig(**NO_TEST_SYNTH))  # no period has test nodes
        assert period_fault(graph, [0]) == (1, "period 1 has no test nodes under seed 0")

    @pytest.mark.parametrize("seeds, seed", [([3, 1], 3), ([1, 3], 1)])
    def test_seeds_are_checked_in_the_order_given(self, seeds, seed):
        graph = make_graph_without_new_class_events()  # a fault under every seed
        assert period_fault(graph, seeds) == (2, f"period 2 has no new-class training nodes under seed {seed}")

    def test_only_a_seed_at_fault_is_reported(self):
        graph = make_graph_without_test_nodes_under_seed_1()
        assert period_fault(graph, [0, 2]) is None
        assert period_fault(graph, [0, 2, 1]) == (2, "period 2 has no test nodes under seed 1")

    def test_no_seeds_checks_only_for_empty_periods(self):
        assert period_fault(generate_synthetic(SynthConfig(**NO_TEST_SYNTH))) is None
        assert period_fault(make_graph_without_new_class_events(), ()) is None


def _boundary_graph(seed: int) -> TemporalGraph:
    """A random graph whose event times fall on period boundaries as often
    as inside them, with silent nodes and nodes that debut late."""
    rng = np.random.default_rng(seed)
    n_periods = int(rng.integers(1, 5))
    bounds = np.cumsum(np.r_[rng.uniform(-2.0, 2.0), rng.uniform(0.25, 2.0, n_periods)]).tolist()
    periods = [PeriodSpec(i + 1, bounds[i], bounds[i + 1], (2 * i, 2 * i + 1)) for i in range(n_periods)]
    n_nodes = int(rng.integers(2, 30))
    classes = rng.integers(0, 2 * n_periods, n_nodes).tolist()
    nodes = [NodeRecord(v, c, c // 2 + 1, np.zeros(1)) for v, c in enumerate(classes)]
    events = []
    for _ in range(int(rng.integers(0, 60))):
        u, w = rng.choice(n_nodes, 2, replace=False).tolist()
        i = int(rng.integers(0, n_periods))
        on_bound = rng.random() < 0.5
        t = bounds[i + int(rng.integers(0, 2))] if on_bound else float(rng.uniform(bounds[i], bounds[i + 1]))
        # nodes of a class introduced after period i stay silent until then
        if max(classes[u], classes[w]) // 2 <= i:
            events.append(Event(u, w, t))
    return TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)


#: the shipped ``main`` data, its ``scale-select`` variant (4 periods of 200
#: nodes per class) and degenerate configs on a small base
_MAIN_SYNTH = resolve_config({"include": "main"})["data"]["synthetic"]
_SMALL_SYNTH = dict(num_periods=3, classes_per_period=2, nodes_per_class_per_period=6, feature_dim=3, seed=9)
_GENERATOR_CASES = {
    "main": _MAIN_SYNTH,
    "scale-select": {**_MAIN_SYNTH, "num_periods": 4, "nodes_per_class_per_period": 200},
    "one node per class": {**_SMALL_SYNTH, "nodes_per_class_per_period": 1},
    "one class per period": {**_SMALL_SYNTH, "classes_per_period": 1},
    "one node, one class": {**_SMALL_SYNTH, "nodes_per_class_per_period": 1, "classes_per_period": 1},
    "no intra-class edges": {**_SMALL_SYNTH, "intra_class_edge_prob": 0.0},
    "no inter-class edges": {**_SMALL_SYNTH, "inter_class_edge_prob": 0.0},
    "no events": {**_SMALL_SYNTH, "events_per_node": 0},
    # numpy redraws one of its 30,000 bounded partner draws (a Lemire rejection)
    "lemire rejection": dict(
        num_periods=1, classes_per_period=2, nodes_per_class_per_period=3000, feature_dim=1, events_per_node=5, seed=63
    ),
}


class TestGenerateSynthetic:
    @pytest.mark.parametrize("case", sorted(_GENERATOR_CASES))
    def test_matches_reference_generator(self, case):
        # the reference draws times with rng.uniform and sorts its event
        # objects by time; the columns must hold the same rows in that order
        cfg = SynthConfig(**_GENERATOR_CASES[case])
        graph = generate_synthetic(cfg)
        records, events, periods = reference_generate_synthetic(cfg)
        assert graph.periods == periods
        got = nodes_of(graph)
        assert [(r.id, r.class_id, r.birth_period) for r in got] == [
            (r.id, r.class_id, r.birth_period) for r in records
        ]
        assert np.array_equal(graph.nodes.features, np.stack([r.feature for r in records]))
        want = sorted(events, key=lambda e: e.t)
        assert graph.events.src.tolist() == [e.src for e in want]
        assert graph.events.dst.tolist() == [e.dst for e in want]
        assert graph.events.t.tolist() == [e.t for e in want]

    def test_events_are_read_only_typed_columns(self, small_synth):
        ev = small_synth.events
        assert (ev.src.dtype, ev.dst.dtype, ev.t.dtype) == (np.int64, np.int64, np.float64)
        assert len(ev) == len(ev.src) == len(ev.dst) == len(ev.t) > 0
        for col in (ev.src, ev.dst, ev.t):
            with pytest.raises(ValueError):
                col[0] = 0

    def test_deterministic_given_seed(self):
        cfg = SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=15, seed=42)
        assert graphs_equal(generate_synthetic(cfg), generate_synthetic(cfg))

    def test_cohort_and_total_counts(self):
        cfg = SynthConfig(num_periods=3, classes_per_period=3, nodes_per_class_per_period=200, seed=0)
        graph = generate_synthetic(cfg)
        assert len(graph.nodes) == 600 + 1200 + 1800
        assert len(set(graph.nodes.class_id.tolist())) == 9
        # fresh residents per period: every alive class contributes a cohort
        assert np.bincount(graph.debut_period).tolist() == [0, 600, 1200, 1800]
        # nodes persist, so the active population accumulates
        active3 = set()
        for e in period_events(graph, 3):
            active3.update(e.endpoints())
        assert len(active3) == 3600

    def test_zero_drift_keeps_class_centers(self):
        cfg = SynthConfig(
            num_periods=3,
            classes_per_period=1,
            nodes_per_class_per_period=50,
            feature_dim=4,
            drift_step=0.0,
            noise_sigma=0.01,
            seed=5,
        )
        graph = generate_synthetic(cfg)
        feats = graph.nodes.features[graph.nodes.class_id == 0]
        spread = np.linalg.norm(feats - feats.mean(axis=0), axis=1).max()
        assert spread < 0.1  # all cohorts hug one center when drift is off

    def test_positive_drift_moves_old_cohorts(self):
        base = dict(
            num_periods=3,
            classes_per_period=1,
            nodes_per_class_per_period=50,
            feature_dim=4,
            noise_sigma=0.01,
            seed=5,
        )
        graph = generate_synthetic(SynthConfig(drift_step=2.0, **base))
        feats = graph.nodes.features[graph.nodes.class_id == 0]
        spread = np.linalg.norm(feats - feats.mean(axis=0), axis=1).max()
        assert spread > 1.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(num_periods=0)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=0.0)
        with pytest.raises(ValueError):
            SynthConfig(intra_class_edge_prob=1.5)

    def test_zero_edge_probabilities_need_zero_events(self):
        with pytest.raises(ValueError, match=r"^intra_class_edge_prob and inter_class_edge_prob cannot both be 0"):
            SynthConfig(intra_class_edge_prob=0.0, inter_class_edge_prob=0, events_per_node=1)
        graph = generate_synthetic(
            SynthConfig(intra_class_edge_prob=0.0, inter_class_edge_prob=0.0, events_per_node=0)
        )
        assert len(graph.events) == 0


def with_final_state(make, cfg: SynthConfig):
    """``make(cfg)`` and the final state of the one generator it draws from."""
    made = []
    real = np.random.default_rng

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    with mock.patch("numpy.random.default_rng", spy):
        out = make(cfg)
    assert len(made) == 1
    return out, made[0].bit_generator.state


def assert_reference_graph(graph, cfg: SynthConfig) -> dict:
    """Check that ``graph`` holds the nodes, events and periods of the scalar
    reference generator at ``cfg``; returns the reference's final generator state."""
    (records, events, periods), state = with_final_state(reference_generate_synthetic, cfg)
    assert graph.periods == periods
    got = (graph.nodes.id, graph.nodes.class_id, graph.nodes.birth_period)
    assert node_columns(records)[:3] == tuple(col.tolist() for col in got)
    assert np.array_equal(graph.nodes.features, np.stack([r.feature for r in records]))
    want = sorted(events, key=lambda e: e.t)
    assert (graph.events.src.tolist(), graph.events.dst.tolist(), graph.events.t.tolist()) == event_columns(want)
    return state


class TestArrayReplay:
    """The array replay of the event draws gives the scalar reference's
    graph and leaves the generator in the reference's final state, the
    32-bit half it keeps for the next bounded draw included."""

    @pytest.mark.parametrize("case", sorted(_GENERATOR_CASES))
    def test_final_generator_state(self, case):
        cfg = SynthConfig(**_GENERATOR_CASES[case])
        graph, state = with_final_state(generate_synthetic, cfg)
        assert assert_reference_graph(graph, cfg) == state

    @pytest.mark.parametrize("seed, redraws", [(0, 0), (1, 0), (63, 1), (77, 1), (181, 1)])
    def test_a_rejected_partner_draw_is_redrawn(self, seed, redraws):
        # 30,000 bounded draws take an even count of 32-bit halves, and a
        # redraw one more, which leaves a half kept
        cfg = SynthConfig(**{**_GENERATOR_CASES["lemire rejection"], "seed": seed})
        graph, state = with_final_state(generate_synthetic, cfg)
        assert state["has_uint32"] == redraws
        assert assert_reference_graph(graph, cfg) == state

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        num_periods=st.integers(1, 3),
        classes_per_period=st.integers(1, 3),
        nodes_per_class_per_period=st.integers(1, 3),
        events_per_node=st.integers(0, 3),
        probs=st.sampled_from([(0.9, 0.1), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_small_configs(self, probs, **sizes):
        # pools of one or two nodes take the scalar draws, and an odd count
        # of bounded draws carries a kept half into the next period
        cfg = SynthConfig(feature_dim=1, intra_class_edge_prob=probs[0], inter_class_edge_prob=probs[1], **sizes)
        graph, state = with_final_state(generate_synthetic, cfg)
        assert assert_reference_graph(graph, cfg) == state


FLOAT_MAX_INT = int(sys.float_info.max)  # the largest integer a float holds exactly


class TestNumericRules:
    """The two rules that every numeric field of a config, periods file or
    checkpoint goes through."""

    @pytest.mark.parametrize("value, low", [(0, None), (-(10**400), None), (0, 0), (10**400, 1)])
    def test_integer_accepted(self, value, low):
        assert check_int("f", value, low) is value

    @pytest.mark.parametrize(
        "value, low, kind",
        [(True, None, "an integer"), (1.0, None, "an integer"), ("1", 0, "an integer >= 0"), (0, 1, "an integer >= 1")],
    )
    def test_integer_refused(self, value, low, kind):
        with pytest.raises(ValueError, match=f"^f must be {kind}, got {re.escape(repr(value))}$"):
            check_int("f", value, low)

    @pytest.mark.parametrize(
        "value, bound",
        [(-5, ""), (-FLOAT_MAX_INT, ""), (0, ">= 0"), (5e-324, "> 0"), (0.0, "in [0, 1]"), (1, "in [0, 1]")],
    )
    def test_number_accepted(self, value, bound):
        assert check_number("f", value, bound) is value

    @pytest.mark.parametrize(
        "value, bound",
        [
            (True, ""), ("1", ""), (None, ""), (math.nan, ""), (math.inf, ">= 0"), (-math.inf, ""),
            (FLOAT_MAX_INT + 1, ""), (-(10**400), ""), (-5e-324, ">= 0"), (0, "> 0"), (1.5, "in [0, 1]"),
        ],
    )
    def test_number_refused(self, value, bound):
        kind = f"a finite number {bound}".rstrip()
        with pytest.raises(ValueError, match=f"^f must be {re.escape(kind)}, got {re.escape(repr(value))}$"):
            check_number("f", value, bound)

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("class_center_scale", -1.0, "a finite number >= 0"),
            ("drift_step", math.nan, "a finite number >= 0"),
            ("noise_sigma", 0.0, "a finite number > 0"),
            ("noise_sigma", 10**400, "a finite number > 0"),
            ("intra_class_edge_prob", 1.5, "a finite number in [0, 1]"),
        ],
    )
    def test_synthetic_number_fields_have_ranges(self, field, value, kind):
        with pytest.raises(ValueError, match=f"^{field} must be {re.escape(kind)}, got "):
            SynthConfig(**{field: value})


class TestSynthSizes:
    def test_the_limit_itself_is_allowed(self):
        one = dict(num_periods=1, classes_per_period=1, feature_dim=1, events_per_node=1)
        SynthConfig(**one, nodes_per_class_per_period=MAX_ENTRIES)
        with pytest.raises(ValueError, match=r"^nodes_per_class_per_period \d+ makes 100000001 nodes"):
            SynthConfig(**one, nodes_per_class_per_period=MAX_ENTRIES + 1)
        # 2 periods of 3 classes make 9 cohorts, which draw 12 cohorts' events
        two = dict(num_periods=2, classes_per_period=3, nodes_per_class_per_period=1)
        SynthConfig(**two, events_per_node=MAX_ENTRIES // 12)
        with pytest.raises(ValueError, match=rf"^events_per_node \d+ makes {MAX_ENTRIES + 8} events"):
            SynthConfig(**two, events_per_node=MAX_ENTRIES // 12 + 1)


class TestSavedBytes:
    """The files ``save_graph`` writes for the shipped ``main`` data and its
    4-period variant, pinned by the first 16 hex digits of their sha256."""

    @pytest.mark.parametrize(
        "case, digests",
        [
            ("main", ("94f93548b44ae05d", "3db73a07f942a5be", "7cc6386f1354bd25")),
            ("scale-select", ("e402b22a9aea1571", "1a475c19eeaef6c0", "5aeb2c42355de897")),
        ],
    )
    def test_sha256_prefixes(self, tmp_path, case, digests):
        paths = save_graph(generate_synthetic(SynthConfig(**_GENERATOR_CASES[case])), tmp_path)
        kinds = ("nodes", "events", "periods")
        got = tuple(hashlib.sha256(paths[kind].read_bytes()).hexdigest()[:16] for kind in kinds)
        assert got == digests


class TestPersistence:
    def test_round_trip_identity(self, tmp_path, small_synth):
        paths = save_graph(small_synth, tmp_path)
        loaded = load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert graphs_equal(small_synth, loaded)

    def test_period_sidecar_found_next_to_nodes(self, tmp_path, small_synth):
        paths = save_graph(small_synth, tmp_path)
        loaded = load_graph(paths["nodes"], paths["events"])
        assert graphs_equal(small_synth, loaded)

    def test_empty_event_file_rejected(self, tmp_path, two_period_graph):
        # no run can train on a graph without events, so it fails at load
        paths = save_graph(two_period_graph, tmp_path)
        paths["events"].write_text("src,dst,t\n")
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert str(info.value) == (
            f"{paths['periods']}: entry 0: no events in period 1's span [0.0, 1.0) (see {paths['events']})"
        )

    @pytest.mark.parametrize(
        "events, entry, span",
        [([Event(0, 1, 0.5)], 1, "[1.0, 2.0]"), ([Event(2, 3, 1.8), Event(0, 2, 2.0)], 0, "[0.0, 1.0)")],
    )
    def test_period_without_events_rejected(self, tmp_path, two_period_graph, events, entry, span):
        graph = TemporalGraph.from_parts(
            two_period_graph.nodes, event_columns(events), two_period_graph.periods
        )
        paths = save_graph(graph, tmp_path)
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert str(info.value) == (
            f"{paths['periods']}: entry {entry}: no events in period {entry + 1}'s span {span}"
            f" (see {paths['events']})"
        )

    @pytest.mark.parametrize("kind, line", [("nodes", 3), ("events", 2), ("periods", 1)])
    def test_bytes_that_are_not_utf8_are_named(self, tmp_path, two_period_graph, kind, line):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths[kind].read_bytes().split(b"\n")
        lines[line - 1] += b"\xff\xfe"
        paths[kind].write_bytes(b"\n".join(lines))
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert str(info.value).startswith(f"{paths[kind]}:{line}: not valid UTF-8 (invalid start byte at byte ")

    @pytest.mark.parametrize("kind", ["nodes", "events"])
    def test_missing_file_is_named(self, tmp_path, two_period_graph, kind):
        paths = save_graph(two_period_graph, tmp_path)
        paths[kind].unlink()
        with pytest.raises(GraphFormatError) as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert str(info.value) == f"{paths[kind]}: cannot read: No such file or directory"

    def test_dimension_mismatch_names_line(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        lines[2] = lines[2] + ",9.9"  # node on line 3 gains an extra feature
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"nodes\.csv:3"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, two_period_graph, bad):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:-1] + [bad])
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"nodes\.csv:4: node \d+ has a non-finite"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_malformed_row_names_line(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["events"].read_text().splitlines()
        lines[2] = "0,1,not-a-number"
        paths["events"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"events\.csv:3"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_unknown_node_in_event(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        with paths["events"].open("a") as fh:
            fh.write("0,99,1.5\n")
        with pytest.raises(GraphFormatError, match="unknown node"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_timestamp_outside_periods(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        with paths["events"].open("a") as fh:
            fh.write("0,1,7.5\n")
        with pytest.raises(GraphFormatError, match="outside all periods"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_loader_resorts_events(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["events"].read_text().splitlines()
        header, rows = lines[0], lines[1:]
        paths["events"].write_text("\n".join([header] + rows[::-1]) + "\n")
        loaded = load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert graphs_equal(two_period_graph, loaded)

    def test_line_numbers_count_physical_lines(self, tmp_path, two_period_graph):
        # a quoted cell spanning two lines shifts every later row by one line
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = f'"{cells[-1]}\n"'  # float() accepts the trailing newline
        lines[1] = ",".join(cells)
        lines[3] = lines[3].replace(",2,", ",7,", 1)  # now on physical line 5
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"nodes\.csv:5: period 7 of node 2"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_duplicate_node_id(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        lines.append(lines[1])
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match="duplicate node id"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, "99", r"nodes\.csv:3: class 99 of node 1 not in period 1 classes"),
            (2, "7", r"nodes\.csv:3: period 7 of node 1 is unknown \(have 1\.\.2\)"),
        ],
    )
    def test_bad_node_label_names_line(self, tmp_path, two_period_graph, column, value, message):
        paths = save_graph(two_period_graph, tmp_path)
        lines = paths["nodes"].read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        paths["nodes"].write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=message):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    @pytest.mark.parametrize(
        "entry, field, value, message",
        [
            (0, "t_end", "NaN", r"periods\.json: entry 0: t_end must be a finite number, got nan$"),
            (0, "t_start", "-Infinity", r"periods\.json: entry 0: t_start must be a finite number, got -inf$"),
            (1, "t_end", "1.0", r"periods\.json: entry 1: t_end 1\.0 must exceed t_start 1\.0"),
            (1, "t_start", "0.5", r"periods\.json: entry 1: t_start 0\.5 != previous t_end 1\.0"),
            (1, "index", "3", r"periods\.json: entry 1: index 3 != 2"),
            (1, "classes", "[]", r"periods\.json: entry 1: classes is empty"),
            (1, "classes", "[1, 0]", r"periods\.json: entry 1: classes \[0\] appear in an earlier entry"),
            (1, "index", "true", r"periods\.json: entry 1: index must be an integer, got True$"),
            (1, "index", "2.0", r"periods\.json: entry 1: index must be an integer, got 2\.0$"),
            (1, "classes", "[0, 1.7]", r"periods\.json: entry 1: classes must be a list of integers, got \[0, 1\.7\]$"),
            (1, "classes", '"01"', r"periods\.json: entry 1: classes must be a list of integers, got '01'$"),
            (1, "t_end", '"2"', r"periods\.json: entry 1: t_end must be a finite number, got '2'$"),
            (0, "t_start", "false", r"periods\.json: entry 0: t_start must be a finite number, got False$"),
            (0, "t_start", "1" + "0" * 400, r"periods\.json: entry 0: t_start must be a finite number, got 10+$"),
        ],
    )
    def test_bad_period_entry_names_entry(self, tmp_path, two_period_graph, entry, field, value, message):
        paths = save_graph(two_period_graph, tmp_path)
        raw = json.loads(paths["periods"].read_text())
        raw[entry][field] = f"@{field}@"
        paths["periods"].write_text(json.dumps(raw).replace(f'"@{field}@"', value))
        with pytest.raises(GraphFormatError, match=message):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_empty_period_list_names_file(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("id,class,period\n")
        (tmp_path / "events.csv").write_text("src,dst,t\n")
        (tmp_path / "periods.json").write_text("[]\n")
        with pytest.raises(GraphFormatError, match=r"periods\.json: no period entries"):
            load_graph(tmp_path / "nodes.csv", tmp_path / "events.csv")

    def test_non_finite_period_bound_rejected_by_graph(self, two_period_graph):
        periods = (PeriodSpec(1, -np.inf, 1.0, (0,)),) + two_period_graph.periods[1:]
        with pytest.raises(ValueError, match=r"period 1: t_start -inf is not finite"):
            TemporalGraph.from_parts(two_period_graph.nodes, two_period_graph.events, periods)


def _two_period_parts():
    g = make_two_period_graph()
    return nodes_of(g), events_of(g), list(g.periods)


def _with(items, i, **changes):
    """``items`` with element ``i`` replaced by a copy carrying ``changes``."""
    out = list(items)
    out[i] = dataclasses.replace(out[i], **changes)
    return out


def _write_parts(out_dir: Path, nodes, events, periods) -> dict[str, Path]:
    """The files ``save_graph`` would write for these parts, valid or not."""
    paths = {kind: out_dir / name for kind, name in
             (("nodes", "nodes.csv"), ("events", "events.csv"), ("periods", "periods.json"))}
    dim = len(nodes[0].feature)
    with paths["nodes"].open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "class", "period"] + [f"f{i}" for i in range(dim)])
        w.writerows([r.id, r.class_id, r.birth_period] + [repr(float(x)) for x in r.feature] for r in nodes)
    with paths["events"].open("w", newline="") as fh:
        csv.writer(fh).writerows([["src", "dst", "t"]] + [[e.src, e.dst, repr(e.t)] for e in events])
    paths["periods"].write_text(json.dumps([
        {"index": p.index, "t_start": p.t_start, "t_end": p.t_end, "classes": list(p.classes)}
        for p in periods
    ]))
    return paths


def _edit_periods(i, **changes):
    return lambda nodes, events, periods: (nodes, events, _with(periods, i, **changes))


def _edit_nodes(i, **changes):
    return lambda nodes, events, periods: (_with(nodes, i, **changes), events, periods)


def _add_event(event):
    return lambda nodes, events, periods: (nodes, events + [event], periods)


#: one case per rule: a change to the two-period graph's parts, the rule's
#: text, and where the loader must place it (file, plus line or entry)
_RULE_CASES = {
    "index": (_edit_periods(1, index=3), r"index 3 != 2", r"periods\.json: entry 1"),
    # the graph's rule rejects it in memory, the number rule of the loader in a file
    "finite": (
        _edit_periods(1, t_end=math.nan),
        r"(t_end nan is not finite|t_end must be a finite number, got nan)",
        r"periods\.json: entry 1",
    ),
    "span": (
        _edit_periods(1, t_end=1.0),
        r"t_end 1\.0 must exceed t_start 1\.0",
        r"periods\.json: entry 1",
    ),
    "contiguous": (
        _edit_periods(1, t_start=1.5),
        r"t_start 1\.5 != previous t_end 1\.0",
        r"periods\.json: entry 1",
    ),
    "empty classes": (_edit_periods(1, classes=()), r"classes is empty", r"periods\.json: entry 1"),
    "class int64": (
        _edit_periods(1, classes=(1, 10**20)),
        r"classes \[100000000000000000000\] do not fit in int64",
        r"periods\.json: entry 1",
    ),
    "repeated class": (
        _edit_periods(1, classes=(1, 0)),
        r"classes \[0\] appear in an earlier entry",
        r"periods\.json: entry 1",
    ),
    # the id column's type rejects it in memory, the parser in a file
    "node int64": (
        _edit_nodes(3, id=2**63),
        r"(node column id holds 9223372036854775808, which does not fit in int64"
        r"|malformed node row: node id 9223372036854775808 does not fit in int64)",
        r"nodes\.csv:5",
    ),
    "non-finite feature": (
        _edit_nodes(1, feature=np.array([0.0, np.inf])),
        r"node 1 has a non-finite feature",
        r"nodes\.csv:3",
    ),
    "huge feature": (
        _edit_nodes(1, feature=np.array([0.0, -1e36])),
        r"node 1 has a feature of magnitude above 1e\+12",
        r"nodes\.csv:3",
    ),
    "unknown period": (
        _edit_nodes(1, birth_period=3),
        r"period 3 of node 1 is unknown \(have 1\.\.2\)",
        r"nodes\.csv:3",
    ),
    "class not in period": (
        _edit_nodes(1, class_id=1), r"class 1 of node 1 not in period 1 classes", r"nodes\.csv:3"
    ),
    "unknown node": (
        _add_event(Event(0, 9, 1.9)), r"event references unknown node 9", r"events\.csv:6"
    ),
    "outside": (
        _add_event(Event(0, 1, 2.5)),
        r"timestamp 2\.5 outside all periods \[0\.0, 2\.0\]",
        r"events\.csv:6",
    ),
}

#: the rules that check one part against another, and that part's file
_OTHER_FILE = {
    "unknown period": "periods",
    "class not in period": "periods",
    "unknown node": "nodes",
    "outside": "periods",
}


class TestRules:
    """Each rule rejects the same fault whether the graph is built from
    parts or loaded; the loader adds the file and the line or entry, and the
    other file when the rule checks one part against another."""

    @pytest.mark.parametrize("case", sorted(_RULE_CASES))
    def test_from_parts(self, case):
        change, text, place = _RULE_CASES[case]
        nodes, events, periods = change(*_two_period_parts())
        if place.startswith("periods"):
            text = f"period 2: {text}"
        with pytest.raises(ValueError, match=text):
            TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)

    @pytest.mark.parametrize("case", sorted(_RULE_CASES))
    def test_load_graph(self, tmp_path, case):
        change, text, place = _RULE_CASES[case]
        paths = _write_parts(tmp_path, *change(*_two_period_parts()))
        with pytest.raises(GraphFormatError, match=f"{place}: {text}") as info:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        other = _OTHER_FILE.get(case)
        if other:
            assert str(info.value).endswith(f" (see {paths[other]})")
        else:
            assert "(see" not in str(info.value)

    def test_parts_load_when_unchanged(self, tmp_path):
        paths = _write_parts(tmp_path, *_two_period_parts())
        loaded = load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert graphs_equal(loaded, make_two_period_graph())


def _valid_parts(rng):
    """Random valid parts: 1 to 3 periods with random bounds, scattered node
    ids, and event times inside the periods or on their bounds."""
    n_periods = int(rng.integers(1, 4))
    bounds = np.cumsum(np.r_[rng.uniform(-2.0, 2.0), rng.uniform(0.25, 2.0, n_periods)]).tolist()
    periods = [PeriodSpec(i + 1, bounds[i], bounds[i + 1], (2 * i, 2 * i + 1)) for i in range(n_periods)]
    n_nodes = int(rng.integers(2, 25))
    ids = (rng.choice(1000, n_nodes, replace=False) - 500).tolist()
    classes = rng.integers(0, 2 * n_periods, n_nodes).tolist()
    nodes = [NodeRecord(v, c, c // 2 + 1, rng.normal(size=3)) for v, c in zip(ids, classes)]
    events = []
    for _ in range(int(rng.integers(1, 40))):
        u, w = rng.choice(ids, 2, replace=False).tolist()
        on_bound = rng.random() < 0.2
        t = bounds[int(rng.integers(0, n_periods + 1))] if on_bound else float(rng.uniform(bounds[0], bounds[-1]))
        events.append(Event(u, w, t))
    return nodes, events, periods


def _time_sorted(events):
    return [events[k] for k in np.argsort([e.t for e in events], kind="stable")]


def _inject(kind, rng, nodes, events, periods):
    """``nodes`` and ``events`` with one fault of ``kind``."""
    nodes, events = list(nodes), list(events)
    i, j = int(rng.integers(0, len(events))), int(rng.integers(0, len(nodes)))
    e, rec = events[i], nodes[j]
    t_lo, t_hi = periods[0].t_start, periods[-1].t_end
    pick = lambda options: options[int(rng.integers(0, len(options)))]
    if kind == "self-loop":
        events[i] = Event(e.dst, e.dst, e.t)
    elif kind == "unknown endpoint":
        events[i] = Event(e.src, max(r.id for r in nodes) + 1, e.t)
    elif kind == "time outside periods":
        events[i] = Event(e.src, e.dst, pick([t_lo - 0.5, t_hi + 1e-9, math.inf, -math.inf]))
    elif kind == "NaN time":
        events[i] = Event(e.src, e.dst, math.nan)
    elif kind == "unsorted times":  # time-sorted rows with a later row moved first
        u, w = e.endpoints()
        events = _time_sorted(events + [Event(u, w, t_lo), Event(w, u, t_hi)])
        events.insert(0, events.pop())
    elif kind == "non-finite feature":
        feat = rec.feature.copy()
        feat[int(rng.integers(0, feat.size))] = pick([math.nan, math.inf, -math.inf])
        nodes[j] = dataclasses.replace(rec, feature=feat)
    elif kind == "huge feature":
        feat = rec.feature.copy()
        feat[int(rng.integers(0, feat.size))] = pick([1.5e12, -1e36, 1e300])
        nodes[j] = dataclasses.replace(rec, feature=feat)
    elif kind == "feature shape":
        nodes[j] = dataclasses.replace(rec, feature=pick([np.zeros(4), np.zeros(2), np.zeros((1, 3))]))
    elif kind == "unknown birth period":
        nodes[j] = dataclasses.replace(rec, birth_period=pick([0, -1, len(periods) + 1]))
    elif kind == "class not in birth period":
        other = (rec.class_id + 2) % (2 * len(periods)) if len(periods) > 1 else 2
        nodes[j] = dataclasses.replace(rec, class_id=pick([other, -1]))
    elif kind == "id beyond int64":
        nodes[j] = dataclasses.replace(rec, id=pick([2**63, -(2**63) - 1, 10**20]))
    else:
        raise AssertionError(kind)
    return nodes, events


#: each kind of injected fault, and a piece of the message it must raise
_FAULT_KINDS = {
    "self-loop": "self-loop event on node",
    "unknown endpoint": "event references unknown node",
    "time outside periods": "outside all periods",
    "NaN time": "timestamp nan outside all periods",
    "unsorted times": "events are not sorted by time",
    "non-finite feature": "has a non-finite feature",
    "huge feature": "has a feature of magnitude above",
    "feature shape": "node column features holds rows of different dimensions",
    "unknown birth period": "is unknown (have 1..",
    "class not in birth period": "classes",
    "id beyond int64": "node column id holds ",
}

#: the kinds that a node column's type rejects before any rule runs
_COLUMN_KINDS = ("feature shape", "id beyond int64")


def _id_sorted(nodes):
    return sorted(nodes, key=lambda r: r.id)


class TestRulesMatchRowByRow:
    """The array rules raise what the row-by-row oracle says, on random
    graphs with one injected fault each."""

    @pytest.mark.parametrize("seed", range(6))
    def test_valid_graph_passes(self, seed):
        nodes, events, periods = _valid_parts(np.random.default_rng(seed))
        assert reference_graph_fault(_id_sorted(nodes), _time_sorted(events), periods) is None
        graph = TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)
        assert events_of(graph) == _time_sorted(events)
        assert [r.id for r in nodes_of(graph)] == sorted(r.id for r in nodes)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", sorted(_FAULT_KINDS))
    def test_same_message(self, kind, seed):
        rng = np.random.default_rng(seed)
        nodes, events, periods = _valid_parts(rng)
        nodes, events = _inject(kind, rng, nodes, events, periods)
        if kind in _COLUMN_KINDS:
            with pytest.raises(ValueError, match=_FAULT_KINDS[kind]):
                TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)
            return
        nodes = _id_sorted(nodes)  # as from_parts sorts them
        if kind == "unsorted times":  # from_parts would sort them
            want = reference_graph_fault(nodes, events, periods)
            with pytest.raises(ValueError) as info:
                nodes_table, events_table = NodeTable(*node_columns(nodes)), EventTable(*event_columns(events))
                TemporalGraph(nodes_table, events_table, tuple(periods))
        else:
            want = reference_graph_fault(nodes, _time_sorted(events), periods)
            with pytest.raises(ValueError) as info:
                TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)
        assert want is not None and _FAULT_KINDS[kind] in want
        assert str(info.value) == want

    def test_loader_names_the_line_of_a_later_time(self, tmp_path):
        # the faulty row is first in the file but last in time
        paths = save_graph(make_two_period_graph(), tmp_path)
        header, *rows = paths["events"].read_text().splitlines()
        paths["events"].write_text("\n".join([header, "0,9,1.9", *rows]) + "\n")
        with pytest.raises(GraphFormatError, match=r"events\.csv:2: event references unknown node 9 \(see "):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    @pytest.mark.parametrize("wide", [2**63, -(2**63) - 1, 10**20])
    def test_loader_names_the_line_of_an_endpoint_beyond_int64(self, tmp_path, wide):
        paths = save_graph(make_two_period_graph(), tmp_path)
        with paths["events"].open("a") as fh:
            fh.write(f"0,{wide},1.9\n")
        with pytest.raises(GraphFormatError, match=rf"events\.csv:6: malformed event row: node id {wide} does not"):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0, 1], [1, 0], [0.5]), r"must be 1-d and of one length"),
            (([[0, 1]], [[1, 0]], [[0.5, 0.6]]), r"must be 1-d and of one length"),
            (([0.0], [1], [0.5]), r"event column src holds float64, not int64"),
            (([0], [2**63], [0.5]), rf"event column dst holds {2**63}, which does not fit in int64"),
            (([0], [10**20], [0.5]), rf"event column dst holds {10**20}, which does not fit in int64"),
            (([0], [1], ["0.5"]), r"event column t holds <U3, not float64"),
        ],
    )
    def test_event_columns_are_checked(self, columns, message):
        with pytest.raises(ValueError, match=message):
            EventTable(*columns)


def _mutation_graph():
    """A small graph whose files have every kind of cell: ids, labels,
    periods, features, times, bounds and class lists."""
    return generate_synthetic(
        SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=3,
                    feature_dim=2, events_per_node=1, seed=4)
    )


#: replacement cell values: numbers near the valid ones, non-finite and
#: out-of-range numbers, and arbitrary text
_CSV_VALUES = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats(-1.0, 3.0).map(repr),
    st.sampled_from(["", "nan", "inf", "-inf", "1e400", "-0", " 1", "1.5", "0x10", "1_0"]),
    st.text(max_size=6),
)
_JSON_VALUES = st.one_of(
    st.integers(-3, 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 6), max_size=3),
)


class TestLoaderProperty:
    """Mutate one cell of a saved graph: it either loads, or the loader
    raises ``GraphFormatError`` naming the mutated file (and, for a CSV
    file, a line of it, which must be the mutated one)."""

    @staticmethod
    def check(paths, mutated: Path, line: int | None) -> None:
        try:
            load_graph(paths["nodes"], paths["events"], paths["periods"])
        except GraphFormatError as exc:
            msg = str(exc)
            assert mutated.name in msg, msg
            if line is not None:
                # a fault found in another file (say, an event naming a node
                # id that the mutated nodes.csv no longer defines) carries that
                # file's line; a fault placed in the mutated file names its line
                lines = [int(n) for n in re.findall(rf"{re.escape(mutated.name)}:(\d+)", msg)]
                assert not lines or line in lines, msg
                assert re.search(r"\.csv:\d+", msg), msg

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["nodes", "events"]),
        row=st.integers(0, 10**6),
        col=st.integers(0, 10**6),
        value=_CSV_VALUES,
    )
    @example(kind="nodes", row=1, col=0, value="1")  # duplicate id, first seen a line later
    @example(kind="nodes", row=1, col=0, value="99")  # events still name node 0
    def test_csv_cell(self, kind, row, col, value):
        with tempfile.TemporaryDirectory() as tmp:
            paths = save_graph(_mutation_graph(), tmp)
            with paths[kind].open(newline="") as fh:
                rows = list(csv.reader(fh))
            r = row % len(rows)
            rows[r][col % len(rows[r])] = value
            with paths[kind].open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            self.check(paths, paths[kind], r + 1)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        entry=st.integers(0, 1),
        field=st.sampled_from(["index", "t_start", "t_end", "classes", "class"]),
        pick=st.integers(0, 10),
        value=_JSON_VALUES,
    )
    @example(entry=0, field="index", pick=0, value=math.inf)
    # JSON values that int() or float() would turn into the unedited cell
    @example(entry=0, field="index", pick=0, value=True)
    @example(entry=1, field="index", pick=0, value=2.0)
    @example(entry=0, field="class", pick=1, value=1.7)
    @example(entry=0, field="classes", pick=0, value="01")
    @example(entry=1, field="t_end", pick=0, value="2")
    def test_period_cell(self, entry, field, pick, value):
        with tempfile.TemporaryDirectory() as tmp:
            paths = save_graph(_mutation_graph(), tmp)
            raw = json.loads(paths["periods"].read_text())
            if field == "class":  # one element of the class list
                classes = raw[entry]["classes"]
                classes[pick % len(classes)] = value
            else:
                raw[entry][field] = value
            paths["periods"].write_text(json.dumps(raw))
            self.check(paths, paths["periods"], None)
