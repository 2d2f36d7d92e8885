import csv

import numpy as np
import pytest

from tgcl.backbone import Backbone, node_inputs, snapshot
from tgcl.graph import SynthConfig, generate_synthetic, split_period
from tgcl.metrics import (
    PeriodMetrics,
    RunRecord,
    af,
    ap,
    format_summary_table,
    per_set_accuracy,
    precision_per_set,
    summarize,
    write_results_csv,
)

from conftest import trained_toy_snapshot
from oracles import reference_precision_per_set, time_per_epoch


class TestPerSetAccuracy:
    def test_perfect_classifier(self):
        labels = [0, 0, 1, 1, 2]
        assert per_set_accuracy(labels, labels, [[0, 1, 2]]) == [1.0]

    def test_constant_predictor(self):
        labels = [0, 0, 1, 1, 2, 2]
        preds = [0] * 6
        assert per_set_accuracy(labels, preds, [[0], [1], [2]]) == [1.0, 0.0, 0.0]

    def test_matches_hand_count(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=50).tolist()
        preds = rng.integers(0, 4, size=50).tolist()
        sets = ([0], [1, 2], [0, 1, 2, 3])
        for cs, got in zip(sets, per_set_accuracy(labels, preds, sets)):
            members = [i for i, y in enumerate(labels) if y in cs]
            expected = sum(preds[i] == labels[i] for i in members) / len(members)
            assert got == expected

    def test_empty_set_warns_none(self):
        with pytest.warns(UserWarning, match="undefined"):
            assert per_set_accuracy([0, 0], [0, 0], [[5], [0]]) == [None, 1.0]


class TestAp:
    def test_single_set(self):
        assert ap([0.7]) == 0.7

    def test_arithmetic(self):
        assert ap([0.5, 0.3]) == pytest.approx(0.4)

    def test_three_period_hand_aggregation(self):
        precisions = [0.9, 0.6, 0.3]
        assert ap(precisions) == pytest.approx((0.9 + 0.6 + 0.3) / 3)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(size=5).tolist()
        perm = [vals[i] for i in rng.permutation(5)]
        assert ap(vals) == pytest.approx(ap(perm))

    def test_undefined_entries_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded"):
            assert ap([0.5, None, 0.7]) == pytest.approx(0.6)

    def test_all_undefined_rejected(self):
        with pytest.raises(ValueError):
            ap([None, None])


class TestAf:
    def test_self_reference_zero(self):
        precisions = [0.4, 0.6, 0.8]
        assert af(precisions, precisions) == 0.0

    def test_two_period_arithmetic(self):
        assert af([0.3, 0.9], [0.5, 0.2]) == pytest.approx(0.2)

    def test_newest_set_excluded(self):
        # only the first n-1 sets matter
        assert af([0.5, 0.5, 0.123], [0.5, 0.5, 0.999]) == 0.0

    def test_negative_when_method_beats_reference(self):
        value = af([0.9, 0.1], [0.6, 0.9])
        assert value == pytest.approx(-0.3)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(2, 6)
            pm = rng.uniform(size=n).tolist()
            pj = rng.uniform(size=n).tolist()
            assert -1.0 <= af(pm, pj) <= 1.0

    def test_requires_second_period(self):
        with pytest.raises(ValueError):
            af([0.5], [0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            af([0.5, 0.5], [0.5])


class TestTimePerEpoch:
    def test_single_epoch(self):
        assert time_per_epoch([{"period": 1, "wall_ms": 12.5}]) == 12.5

    def test_constant_log(self):
        log = [{"period": 2, "wall_ms": 10.0} for _ in range(3)]
        assert time_per_epoch(log) == 10.0

    def test_final_period_only(self):
        log = [
            {"period": 1, "wall_ms": 100.0},
            {"period": 2, "wall_ms": 10.0},
            {"period": 2, "wall_ms": 20.0},
        ]
        assert time_per_epoch(log) == 15.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            time_per_epoch([])


def split_inputs(graph, view, split="test"):
    ids = view.nodes_of("all", split)
    z = node_inputs(graph, ids, graph.period(view.period_index).t_end)
    return z, graph.labels(ids).tolist()


class TestPrecisionPerSet:
    def test_trained_model_on_test_split(self):
        graph = generate_synthetic(
            SynthConfig(num_periods=1, classes_per_period=2, nodes_per_class_per_period=40, seed=6)
        )
        view = split_period(graph, 1)
        snap = trained_toy_snapshot(graph, view, seed=6, steps=80)
        [value] = precision_per_set(snap, *split_inputs(graph, view), [graph.period(1).classes])
        assert value is not None and 0.0 <= value <= 1.0
        assert value > 0.5  # separable clusters should be mostly learned

    def test_empty_split_returns_none(self, two_period_graph):
        view = split_period(two_period_graph, 2)
        snap = trained_toy_snapshot(two_period_graph, view, seed=0, steps=5)
        # 4-node toy: the stratified split has no test nodes at all
        z, labels = split_inputs(two_period_graph, view)
        with pytest.warns(UserWarning):
            assert precision_per_set(snap, z, labels, [(0,)]) == [None]

    def test_equals_list_oracle(self):
        rng = np.random.default_rng(8)
        classes = [7, 2, 11, 4, 9]  # head rows out of class-id order
        model = Backbone(3, hidden_dim=8, seed=8)
        model.grow_head(classes)
        model.b_hid += 0.5
        model.w_head = rng.normal(size=model.w_head.shape)
        sets = [(7, 2), (11,), (4, 9), (5,), (2, 4, 7, 9, 11), ()]
        for trial in range(20):
            n = int(rng.integers(0, 80))
            z = rng.normal(size=(n, 7))
            labels = rng.choice([7, 2, 11, 4], size=n).tolist()  # class 9 never occurs
            with pytest.warns(UserWarning, match="undefined"):
                got = precision_per_set(model, z, labels, sets)
            with pytest.warns(UserWarning, match="undefined"):
                want = [reference_precision_per_set(model, z, labels, cs) for cs in sets]
            assert got == want, trial
            assert all(type(g) is float or g is None for g in got)


def make_record(strategy, seed, aps, afs=None, variant=""):
    afs = afs or [None] * len(aps)
    return RunRecord(
        strategy=strategy,
        variant=variant,
        seed=seed,
        config_hash="cafe01234567",
        periods=[
            PeriodMetrics(period=i + 1, precisions=[a], ap=a, af=f)
            for i, (a, f) in enumerate(zip(aps, afs))
        ],
    )


#: Edits of a stored record that leave it no record
NOT_RECORDS = {
    "not an object": lambda d: [d],
    "no seed": lambda d: {k: v for k, v in d.items() if k != "seed"},
    "seed a string": lambda d: {**d, "seed": "0"},
    "total_s a string": lambda d: {**d, "total_s": "1.0"},
    "periods a string": lambda d: {**d, "periods": "x"},
    "no periods": lambda d: {**d, "periods": []},
    "period a list": lambda d: {**d, "periods": [[]]},
    "reused period a float": lambda d: {**d, "reused_periods": [1.0]},
    "precision a string": lambda d: {**d, "periods": [{**d["periods"][0], "precisions": ["0.5"]}]},
    "period without af": lambda d: {**d, "periods": [{k: v for k, v in d["periods"][0].items() if k != "af"}]},
}


class TestRecordsAndTables:
    def test_results_csv_layout_and_determinism(self, tmp_path):
        records = [
            make_record("ltf", 1, [0.9, 0.8], [None, 0.05]),
            make_record("joint", 1, [0.95, 0.9]),
        ]
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(records, path_a)
        write_results_csv(list(reversed(records)), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        with path_a.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["strategy"] == "joint"
        ltf_p2 = [r for r in rows if r["strategy"] == "ltf" and r["period"] == "2"][0]
        assert float(ltf_p2["ap"]) == 0.8
        assert float(ltf_p2["af"]) == 0.05
        joint_rows = [r for r in rows if r["strategy"] == "joint"]
        assert all(r["af"] == "" for r in joint_rows)

    def test_summarize_groups_and_stats(self):
        records = [
            make_record("ltf", 0, [0.8]),
            make_record("ltf", 1, [0.6]),
            make_record("ltf", 2, [0.7]),
        ]
        s = summarize(records)
        assert s["ltf"]["n_seeds"] == 3
        assert s["ltf"]["ap_mean"] == pytest.approx(0.7)
        assert s["ltf"]["ap_std"] == pytest.approx(np.std([0.8, 0.6, 0.7]))

    def test_round_trip_record_dict(self):
        rec = make_record("er", 3, [0.5, 0.4], [None, 0.1], variant="alpha=2")
        again = RunRecord.from_dict(rec.to_dict())
        assert again == rec

    def test_table_time_is_the_per_method_mean_of_final_epoch_ms(self):
        records = [make_record("er", seed, [0.5, 0.5]) for seed in (0, 1)] + [make_record("joint", 0, [0.9])]
        records[0].periods[0].epoch_wall_ms = [100.0]  # an earlier period does not count
        records[0].final.epoch_wall_ms = [1.0, 3.0]
        records[1].final.epoch_wall_ms = [5.0]
        assert [r.final_epoch_ms for r in records] == [2.0, 5.0, None]
        table = format_summary_table(records).splitlines()
        assert [line.split()[0] for line in table[1:]] == ["er", "joint"]
        assert [line.split()[-1] for line in table[1:]] == ["3.5", "---"]

    @pytest.mark.parametrize("edit", sorted(NOT_RECORDS))
    def test_from_dict_refuses_what_is_not_a_record(self, edit):
        d = make_record("er", 3, [0.5, 0.4], [None, 0.1]).to_dict()
        assert RunRecord.from_dict(d).to_dict() == d
        with pytest.raises(ValueError):
            RunRecord.from_dict(NOT_RECORDS[edit](d))
