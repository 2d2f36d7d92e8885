import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tgcl.graph import (
    Event,
    GraphFormatError,
    NodeRecord,
    PeriodSpec,
    SynthConfig,
    TemporalGraph,
    generate_synthetic,
    load_graph,
    save_graph,
    split_period,
)

from conftest import make_two_period_graph
from oracles import graphs_equal


class TestTypes:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Event(1, 1, 0.5)

    def test_node_feature_readonly(self):
        rec = NodeRecord(id=0, class_id=0, birth_period=1, feature=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            rec.feature[0] = 5.0

    def test_class_must_match_birth_period(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
        nodes = [NodeRecord(id=0, class_id=1, birth_period=1, feature=np.zeros(2))]
        with pytest.raises(ValueError, match="not in period"):
            TemporalGraph.from_parts(nodes, [], periods)

    def test_disjoint_class_sets_enforced(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (0,))]
        with pytest.raises(ValueError, match="more than one period"):
            TemporalGraph.from_parts([], [], periods)

    def test_non_contiguous_periods_rejected(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.5, 2.0, (1,))]
        with pytest.raises(ValueError, match="contiguous"):
            TemporalGraph.from_parts([], [], periods)

    def test_event_with_unknown_endpoint_rejected(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,))]
        nodes = [NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(1))]
        with pytest.raises(ValueError, match="unknown node"):
            TemporalGraph.from_parts(nodes, [Event(0, 9, 0.5)], periods)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, bad):
        periods = [PeriodSpec(1, 0.0, 1.0, (0, 1))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(2)),
            NodeRecord(id=7, class_id=1, birth_period=1, feature=np.array([1.0, bad])),
        ]
        with pytest.raises(ValueError, match="node 7: feature has non-finite"):
            TemporalGraph.from_parts(nodes, [], periods)

    def test_feature_dim_must_agree(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0, 1))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(2)),
            NodeRecord(id=1, class_id=1, birth_period=1, feature=np.zeros(3)),
        ]
        with pytest.raises(ValueError, match="dimension"):
            TemporalGraph.from_parts(nodes, [], periods)


class TestSplitPeriod:
    def test_first_period_has_no_old(self, two_period_graph):
        view = split_period(two_period_graph, 1)
        assert view.old_nodes == ()
        assert view.events_old == ()
        assert view.new_nodes == (0, 1)

    def test_endpoint_membership_rule(self, two_period_graph):
        view = split_period(two_period_graph, 2)
        assert len(view.events_old) == 2  # old-old and old-new
        assert len(view.events_new) == 2  # old-new and new-new
        overlap = set(view.events_old) & set(view.events_new)
        assert len(overlap) == 1
        (cross,) = overlap
        assert {cross.src, cross.dst} == {0, 2}

    def test_old_class_count_on_synthetic(self):
        cfg = SynthConfig(num_periods=3, classes_per_period=3, nodes_per_class_per_period=10, seed=7)
        graph = generate_synthetic(cfg)
        view = split_period(graph, 3)
        old_classes = {graph.nodes[v].class_id for v in view.old_nodes}
        assert len(old_classes) == cfg.classes_per_period * 2
        assert old_classes == set(range(6))

    def test_old_nodes_exactly_active_old_class_nodes(self, small_synth):
        graph = small_synth
        for n in (2, 3):
            view = split_period(graph, n)
            old_classes = graph.classes_before(n)
            active = set()
            for e in graph.events_in_period(n):
                active.update(e.endpoints())
            expected = sorted(
                v for v in active if graph.nodes[v].class_id in old_classes
            )
            assert list(view.old_nodes) == expected

    def test_groups_are_disjoint(self, small_synth):
        view = split_period(small_synth, 3)
        assert not set(view.old_nodes) & set(view.new_nodes)

    def test_split_fractions(self):
        cfg = SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=100, seed=3)
        view = split_period(generate_synthetic(cfg), 2)
        total = len(view.splits)
        n_train = sum(1 for s in view.splits.values() if s == "train")
        n_val = sum(1 for s in view.splits.values() if s == "val")
        n_test = sum(1 for s in view.splits.values() if s == "test")
        assert n_train + n_val + n_test == total
        assert abs(n_train / total - 0.8) < 0.05
        assert abs(n_val / total - 0.1) < 0.05
        assert abs(n_test / total - 0.1) < 0.05

    def test_deterministic(self, small_synth):
        a = split_period(small_synth, 2, split_seed=5)
        b = split_period(small_synth, 2, split_seed=5)
        assert a.splits == b.splits and a.old_nodes == b.old_nodes

    def test_view_built_once_per_period_and_seed(self, two_period_graph):
        view = split_period(two_period_graph, 2, split_seed=5)
        assert split_period(two_period_graph, 2, split_seed=5) is view
        assert split_period(two_period_graph, 2, split_seed=6) is not view
        assert split_period(two_period_graph, 1, split_seed=5) is not view
        other = split_period(make_two_period_graph(), 2, split_seed=5)
        assert other is not view and other == view

    def test_split_assignment_stable_across_periods(self, small_synth):
        # a node active in several periods keeps one assignment: no node
        # trained on in an early period can appear in a later test split
        views = [split_period(small_synth, n, split_seed=3) for n in (1, 2, 3)]
        for v in views[0].splits:
            for later in views[1:]:
                if v in later.splits:
                    assert later.splits[v] == views[0].splits[v]

    def test_unknown_period(self, two_period_graph):
        with pytest.raises(ValueError, match="unknown period"):
            split_period(two_period_graph, 9)

    def test_period_without_events(self):
        periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
        nodes = [
            NodeRecord(id=0, class_id=0, birth_period=1, feature=np.zeros(1)),
            NodeRecord(id=1, class_id=0, birth_period=1, feature=np.zeros(1)),
        ]
        graph = TemporalGraph.from_parts(nodes, [Event(0, 1, 0.5)], periods)
        with pytest.raises(ValueError, match="no events"):
            split_period(graph, 2)


class TestGenerateSynthetic:
    def test_deterministic_given_seed(self):
        cfg = SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=15, seed=42)
        assert graphs_equal(generate_synthetic(cfg), generate_synthetic(cfg))

    def test_cohort_and_total_counts(self):
        cfg = SynthConfig(num_periods=3, classes_per_period=3, nodes_per_class_per_period=200, seed=0)
        graph = generate_synthetic(cfg)
        assert len(graph.nodes) == 600 + 1200 + 1800
        assert len({graph.nodes[v].class_id for v in graph.nodes}) == 9
        # fresh residents per period: every alive class contributes a cohort
        debut_counts = {1: 0, 2: 0, 3: 0}
        for v, debut in graph.debut_period.items():
            debut_counts[debut] += 1
        assert debut_counts == {1: 600, 2: 1200, 3: 1800}
        # nodes persist, so the active population accumulates
        active3 = set()
        for e in graph.events_in_period(3):
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
        feats = np.stack([graph.nodes[v].feature for v in graph.nodes if graph.nodes[v].class_id == 0])
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
        feats = np.stack([graph.nodes[v].feature for v in graph.nodes if graph.nodes[v].class_id == 0])
        spread = np.linalg.norm(feats - feats.mean(axis=0), axis=1).max()
        assert spread > 1.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(num_periods=0)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=0.0)
        with pytest.raises(ValueError):
            SynthConfig(intra_class_edge_prob=1.5)


class TestPersistence:
    def test_round_trip_identity(self, tmp_path, small_synth):
        paths = save_graph(small_synth, tmp_path)
        loaded = load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert graphs_equal(small_synth, loaded)

    def test_period_sidecar_found_next_to_nodes(self, tmp_path, small_synth):
        paths = save_graph(small_synth, tmp_path)
        loaded = load_graph(paths["nodes"], paths["events"])
        assert graphs_equal(small_synth, loaded)

    def test_empty_event_file_is_valid(self, tmp_path, two_period_graph):
        paths = save_graph(two_period_graph, tmp_path)
        paths["events"].write_text("src,dst,t\n")
        loaded = load_graph(paths["nodes"], paths["events"], paths["periods"])
        assert len(loaded.events) == 0 and len(loaded.nodes) == 4

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
            (0, "t_end", "NaN", r"periods\.json: entry 0: t_end nan is not finite"),
            (0, "t_start", "-Infinity", r"periods\.json: entry 0: t_start -inf is not finite"),
            (1, "t_end", "1.0", r"periods\.json: entry 1: t_end 1\.0 must exceed t_start 1\.0"),
            (1, "t_start", "0.5", r"periods\.json: entry 1: t_start 0\.5 != previous t_end 1\.0"),
            (1, "index", "3", r"periods\.json: entry 1: index 3 != 2"),
            (1, "classes", "[]", r"periods\.json: entry 1: classes is empty"),
            (1, "classes", "[1, 0]", r"periods\.json: entry 1: classes \[0\] appear in an earlier entry"),
        ],
    )
    def test_bad_period_entry_names_entry(self, tmp_path, two_period_graph, entry, field, value, message):
        paths = save_graph(two_period_graph, tmp_path)
        raw = json.loads(paths["periods"].read_text())
        raw[entry][field] = f"@{field}@"
        paths["periods"].write_text(json.dumps(raw).replace(f'"@{field}@"', value))
        with pytest.raises(GraphFormatError, match=message):
            load_graph(paths["nodes"], paths["events"], paths["periods"])

    def test_non_finite_period_bound_rejected_by_graph(self, two_period_graph):
        periods = (PeriodSpec(1, -np.inf, 1.0, (0,)),) + two_period_graph.periods[1:]
        with pytest.raises(ValueError, match="period 1 has non-finite bounds"):
            TemporalGraph.from_parts(two_period_graph.nodes.values(), two_period_graph.events, periods)


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
