import json
import math

import numpy as np
import pytest

from tgcl.backbone import (
    PARAM_NAMES,
    Backbone,
    Grads,
    K_NEIGHBORS,
    build_contexts,
    build_inputs,
    classify_batch,
    classify_embeddings,
    embed_batch,
    from_checkpoint_dict,
    checkpoint_dict,
    input_dim,
    load_checkpoint,
    loss_and_grads_from_inputs,
    node_inputs,
    period_inputs,
    save_checkpoint,
    snapshot,
)
import tgcl.backbone as backbone_module
from tgcl.graph import PeriodSpec, TemporalGraph, split_period
from tgcl.kernels import KernelParams
from tgcl.trainer import l_dst_terms

from conftest import finite_difference_grads, max_rel_error, toy_model
from oracles import (
    Event,
    NodeRecord,
    event_columns,
    events_of,
    node_columns,
    nodes_of,
    reference_inputs,
    reference_loss_and_grads,
)


def manual_forward(model, z):
    """Straight-line recompute of the embedding with explicit loops."""
    h = model.hidden_dim
    a1 = np.zeros(h)
    for i in range(h):
        acc = 0.0
        for j in range(len(z)):
            acc += model.w_agg[i, j] * z[j]
        a1[i] = max(acc, 0.0)
    emb = np.zeros(h)
    for i in range(h):
        acc = model.b_hid[i]
        for j in range(h):
            acc += model.w_hid[i, j] * a1[j]
        emb[i] = max(acc, 0.0)
    return emb


def manual_classify(model, z):
    emb = manual_forward(model, z)
    logits = [sum(model.w_head[c, j] * emb[j] for j in range(model.hidden_dim)) for c in range(model.num_classes)]
    mx = max(logits)
    exps = [math.exp(l - mx) for l in logits]
    total = sum(exps)
    return np.array([e / total for e in exps])


def random_inputs(rng, n=1, feature_dim=3):
    """``n`` model input rows: own and neighbour-mean features, then a
    nonnegative recency column."""
    z = rng.normal(size=(n, input_dim(feature_dim)))
    z[:, -1] = np.abs(z[:, -1])
    return z


def random_graph(rng, n=40, dim=3, silent=5, n_events=150):
    """Two periods, node ids 1, 4, 7, ..., event times on a coarse grid (so
    times tie) and ``silent`` nodes without any event."""
    ids = [1 + 3 * i for i in range(n)]
    nodes = []
    for v in ids:
        birth = int(rng.integers(1, 3))
        cls = 2 * (birth - 1) + int(rng.integers(0, 2))
        nodes.append(NodeRecord(id=v, class_id=cls, birth_period=birth, feature=rng.normal(size=dim)))
    active = ids[silent:]
    events = []
    while len(events) < n_events:
        a, b = rng.choice(len(active), size=2, replace=False)
        events.append(Event(active[a], active[b], float(rng.integers(0, 9)) / 4))
    periods = [PeriodSpec(1, 0.0, 1.0, (0, 1)), PeriodSpec(2, 1.0, 2.0, (2, 3))]
    return TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)


class TestBuildInputs:
    EVAL_TIMES = (-1.0, 0.0, 0.25, 0.5, 1.0, 1.3, 2.0)

    def test_equals_reference_on_random_graphs(self):
        # sparse graphs leave most nodes fewer than k neighbours; dense ones
        # exceed k; every graph has time ties and silent nodes
        for seed in range(20):
            rng = np.random.default_rng(seed)
            graph = random_graph(rng, n=30, n_events=int(rng.choice([0, 20, 60, 300])))
            ids = graph.nodes.id.tolist()
            want = [ids[i] for i in rng.choice(len(ids), size=45, replace=True)]  # repeats, unsorted
            for t in self.EVAL_TIMES:
                got = build_inputs(build_contexts(graph, want, t))
                assert np.array_equal(got, reference_inputs(graph, want, t)), (seed, t)
                assert np.array_equal(node_inputs(graph, want, t), got), (seed, t)

    @pytest.mark.parametrize("k", [1, 3, K_NEIGHBORS + 5])
    def test_equals_reference_for_other_slot_counts(self, k):
        graph = random_graph(np.random.default_rng(k), n_events=200)
        ids = graph.nodes.id.tolist()[::-1]
        for t in (0.5, 2.0):
            got = build_inputs(build_contexts(graph, ids, t, k), k)
            assert np.array_equal(got, reference_inputs(graph, ids, t, k))

    def test_equals_reference_on_synthetic_graph(self, small_synth):
        ids = small_synth.nodes.id.tolist()
        for t in (0.0, 1.0, 1.5, 3.0):
            assert np.array_equal(
                build_inputs(build_contexts(small_synth, ids, t)), reference_inputs(small_synth, ids, t)
            )

    def test_empty_ids(self, small_synth):
        assert build_inputs(build_contexts(small_synth, [], 1.0)).shape == (0, input_dim(4))

    def test_graph_without_events(self):
        graph = random_graph(np.random.default_rng(0), n_events=0)
        ids = graph.nodes.id.tolist()
        ctxs = build_contexts(graph, ids, 2.0)
        assert (ctxs.nbrs == -1).all() and not ctxs.dt.any()
        assert np.array_equal(build_inputs(ctxs), reference_inputs(graph, ids, 2.0))


class TestNeighborIndex:
    def test_entries_ordered_by_time_then_event_order(self):
        graph = random_graph(np.random.default_rng(0), n_events=400)
        index, ids = graph.neighbor_index, graph.nodes.id
        assert index.indptr[0] == 0 and index.indptr[-1] == 2 * len(graph.events)
        assert len(index.indptr) == len(ids) + 1
        for r, v in enumerate(ids.tolist()):
            lo, hi = index.indptr[r], index.indptr[r + 1]
            got = list(zip(index.times[lo:hi].tolist(), ids[index.nbr[lo:hi]].tolist()))
            want = [(e.t, e.dst if e.src == v else e.src) for e in events_of(graph) if v in (e.src, e.dst)]
            assert got == want, v
            assert (np.diff(index.times[lo:hi]) >= 0).all()

    def test_rows_of(self):
        graph = random_graph(np.random.default_rng(1))
        assert graph.nodes.rows_of([7, 1, 7]).tolist() == [2, 0, 2]
        assert graph.nodes.rows_of([]).shape == (0,)
        for bad in ([1, 2], [0], [10**6], [-5]):
            with pytest.raises(KeyError):
                graph.nodes.rows_of(bad)
            with pytest.raises(KeyError):
                graph.labels(bad)
        assert graph.labels([7, 1, 7]).tolist() == [nodes_of(graph)[r].class_id for r in (2, 0, 2)]


class TestNodeInputs:
    EVAL_TIMES = (0.0, 0.5, 1.0, 1.3, 2.0)

    def test_matches_oracle_over_interleaved_partial_fills(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng)
        ids = graph.nodes.id.tolist()
        for _ in range(30):
            t = self.EVAL_TIMES[int(rng.integers(len(self.EVAL_TIMES)))]
            want = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, 25)), replace=True)]
            got = node_inputs(graph, want, t)
            assert got.shape == (len(want), input_dim(3))
            assert np.array_equal(got, reference_inputs(graph, want, t))
        for t in self.EVAL_TIMES:  # every row, in reverse id order
            assert np.array_equal(node_inputs(graph, ids[::-1], t), reference_inputs(graph, ids[::-1], t))

    def test_nodes_without_events_get_own_feature_only(self):
        graph = random_graph(np.random.default_rng(1))
        silent = graph.nodes.id.tolist()[:5]
        z = node_inputs(graph, silent, 2.0)
        assert np.array_equal(z, reference_inputs(graph, silent, 2.0))
        assert np.array_equal(z[:, :3], graph.nodes.features[:5])
        assert not z[:, 3:].any()

    def test_each_row_built_once_per_eval_time(self, monkeypatch):
        graph = random_graph(np.random.default_rng(2))
        ids = graph.nodes.id.tolist()
        calls = []

        def counting(g, node_ids, eval_time, k=K_NEIGHBORS):
            calls.append((list(node_ids), eval_time))
            return build_contexts(g, node_ids, eval_time, k)

        monkeypatch.setattr(backbone_module, "build_contexts", counting)
        node_inputs(graph, ids[:10] + ids[:3], 1.0)
        node_inputs(graph, ids[5:20], 1.0)
        node_inputs(graph, ids[5:20], 2.0)
        node_inputs(graph, ids[:20], 1.0)
        node_inputs(graph, ids[::-1], 2.0)
        assert calls == [(ids, 1.0), (ids, 2.0)]

    def test_graphs_sharing_node_ids_do_not_share_rows(self):
        a = random_graph(np.random.default_rng(3))
        b = random_graph(np.random.default_rng(4))
        assert np.array_equal(a.nodes.id, b.nodes.id)
        ids = a.nodes.id.tolist()
        za = node_inputs(a, ids, 2.0)
        zb = node_inputs(b, ids, 2.0)
        assert np.array_equal(zb, reference_inputs(b, ids, 2.0))
        assert np.array_equal(node_inputs(a, ids, 2.0), za)
        assert not np.array_equal(za, zb)

    def test_empty_ids(self):
        graph = random_graph(np.random.default_rng(5))
        assert node_inputs(graph, [], 1.0).shape == (0, input_dim(3))
        assert node_inputs(graph, (), 1.0).shape == (0, input_dim(3))

    def test_unknown_id_raises(self):
        graph = random_graph(np.random.default_rng(6))
        for bad in (0, 2, 10**6, -5):
            with pytest.raises(KeyError):
                node_inputs(graph, [1, bad], 1.0)
            with pytest.raises(KeyError):
                build_contexts(graph, [1, bad], 1.0)

    def test_returned_rows_are_copies(self):
        graph = random_graph(np.random.default_rng(7))
        ids = graph.nodes.id.tolist()[5:9]
        z = node_inputs(graph, ids, 2.0)
        z[:] = 0.0
        assert np.array_equal(node_inputs(graph, ids, 2.0), reference_inputs(graph, ids, 2.0))

    def test_period_inputs_read_at_period_end_with_class_ids(self, small_synth):
        for n in (1, 2, 3):
            ids = split_period(small_synth, n).nodes_of("all")[::-1]
            z, labels = period_inputs(small_synth, n, ids)
            t_end = small_synth.period(n).t_end
            assert np.array_equal(z, reference_inputs(small_synth, ids, t_end))
            assert labels.tolist() == [int(small_synth.labels([v])[0]) for v in ids]
        assert set(small_synth.cache.inputs) == {1.0, 2.0, 3.0}


class TestContexts:
    def test_most_recent_neighbors_first(self, two_period_graph):
        ctxs = build_contexts(two_period_graph, [0], eval_time=2.0)
        ids = two_period_graph.nodes.id
        # node 0 touches events at t=0.5 (node 1), 1.2 (node 1), 1.5 (node 2)
        assert np.round(ctxs.dt[0, :3], 6).tolist() == [0.5, 0.8, 1.5]
        assert ids[ctxs.nbrs[0, :3]].tolist() == [2, 1, 1]
        assert (ctxs.nbrs[0, 3:] == -1).all() and not ctxs.dt[0, 3:].any()

    def test_neighbor_cap(self, small_synth):
        ids = small_synth.nodes.id[:20].tolist()
        ctxs = build_contexts(small_synth, ids, eval_time=3.0)
        assert ctxs.nbrs.shape == ctxs.dt.shape == (20, K_NEIGHBORS)
        for v, row in zip(ids, ctxs.nbrs):
            incident = sum(v in (e.src, e.dst) for e in events_of(small_synth))
            assert (row >= 0).sum() == min(incident, K_NEIGHBORS)

    def test_future_events_excluded(self, two_period_graph):
        ctxs = build_contexts(two_period_graph, [0], eval_time=1.0)
        assert np.round(ctxs.dt[0, :1], 6).tolist() == [0.5]
        assert (ctxs.nbrs[0, 1:] == -1).all()

    def test_isolated_node_gets_zero_slots(self, two_period_graph):
        ctxs = build_contexts(two_period_graph, [3], eval_time=1.0)  # first event at 1.8
        assert (ctxs.nbrs == -1).all()
        z = build_inputs(ctxs)[0]
        f = two_period_graph.nodes.features[3]
        assert np.array_equal(z[: len(f)], f)
        assert np.all(z[len(f) :] == 0.0)


class TestEmbed:
    def test_zero_weights_zero_embedding(self):
        model = toy_model()
        model.w_agg[:] = 0.0
        model.w_hid[:] = 0.0
        z = random_inputs(np.random.default_rng(0), n=4)
        assert np.all(embed_batch(model, z) == 0.0)

    def test_deterministic(self):
        model = toy_model(seed=1)
        z = random_inputs(np.random.default_rng(1), n=4)
        assert np.array_equal(embed_batch(model, z), embed_batch(model, z))

    def test_matches_manual_recompute(self):
        rng = np.random.default_rng(2)
        model = toy_model(feature_dim=3, hidden_dim=4, seed=2)
        z = random_inputs(rng, n=5)
        emb = embed_batch(model, z)
        for i in range(5):
            assert emb[i] == pytest.approx(manual_forward(model, z[i]), abs=1e-12)
            assert embed_batch(model, z[i]) == pytest.approx(emb[i : i + 1], abs=1e-12)

    def test_dim_mismatch(self):
        model = toy_model(feature_dim=5)
        z = random_inputs(np.random.default_rng(3), feature_dim=3)
        with pytest.raises(ValueError):
            embed_batch(model, z)


class TestClassify:
    def test_single_class_head(self):
        model = toy_model(classes=(7,))
        probs = classify_batch(model, random_inputs(np.random.default_rng(4), n=3))
        assert probs.shape == (3, 1) and (probs == 1.0).all()

    def test_uniform_for_zero_logits(self):
        model = toy_model(classes=(0, 1, 2, 3))
        model.w_head[:] = 0.0
        probs = classify_batch(model, random_inputs(np.random.default_rng(5), n=3))
        assert probs == pytest.approx(np.full((3, 4), 0.25), abs=1e-12)

    def test_matches_manual_recompute(self):
        rng = np.random.default_rng(6)
        model = toy_model(feature_dim=3, hidden_dim=4, seed=6)
        z = random_inputs(rng, n=3)
        probs = classify_batch(model, z)
        for i in range(3):
            assert probs[i] == pytest.approx(manual_classify(model, z[i]), abs=1e-12)

    def test_simplex(self):
        rng = np.random.default_rng(7)
        model = toy_model(seed=7)
        probs = classify_batch(model, random_inputs(rng, n=25))
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9

    def test_empty_head(self):
        model = Backbone(3)
        with pytest.raises(ValueError, match="empty"):
            classify_batch(model, random_inputs(np.random.default_rng(8)))
        with pytest.raises(ValueError, match="empty"):
            classify_embeddings(model, np.zeros((1, model.hidden_dim)))

    def test_from_embeddings_equals_from_inputs(self):
        model = toy_model(seed=9)
        z = random_inputs(np.random.default_rng(9), n=30)
        emb = embed_batch(model, z)
        kept = emb.copy()
        assert np.array_equal(classify_embeddings(model, emb), classify_batch(model, z))
        assert np.array_equal(emb, kept)


class TestLossAndGrads:
    def test_empty_batch(self):
        model = toy_model()
        used = Grads(model)
        used.flat[:] = 1.0
        for out in (None, used):
            loss, grads = loss_and_grads_from_inputs(
                model, np.zeros((0, input_dim(3))), np.zeros(0, int), out=out
            )
            assert loss == 0.0
            assert all(np.all(grads[name] == 0.0) for name in PARAM_NAMES)

    @pytest.mark.parametrize("reuse", [False, True])
    @pytest.mark.parametrize("with_aux", [False, True])
    @pytest.mark.parametrize("n", [1, 7, 128])
    def test_steps_equal_reference_bit_for_bit(self, n, with_aux, reuse):
        # 50 successive descent steps at the trainer's sizes, each compared
        # with the allocate-per-intermediate reference before it is applied
        rng = np.random.default_rng(n)
        model = toy_model(feature_dim=8, hidden_dim=64, classes=range(9), seed=n)
        sim_emb = rng.uniform(0.0, 1.0, size=(12, 64))
        kp = KernelParams(0.3)

        def aux(e):
            val, g = l_dst_terms(e, sim_emb, kp)
            return 0.5 * val, 0.5 * g

        out = Grads(model) if reuse else None
        for step in range(50):
            z = random_inputs(rng, n=n, feature_dim=8)
            y = rng.integers(0, model.num_classes, size=n)
            want_loss, want = reference_loss_and_grads(model, z, y, aux=aux if with_aux else None)
            loss, grads = loss_and_grads_from_inputs(
                model, z, y, aux=aux if with_aux else None, out=out
            )
            assert loss == want_loss, step
            for name in PARAM_NAMES:
                assert np.array_equal(grads[name], want[name]), (step, name)
            assert grads is out if reuse else isinstance(grads, Grads)
            model.apply_gradients(grads, 0.05)

    def test_fresh_buffers_do_not_alias(self):
        model = toy_model(seed=4)
        z = random_inputs(np.random.default_rng(4), n=3)
        y = np.array([0, 1, 2])
        _, a = loss_and_grads_from_inputs(model, z, y)
        _, b = loss_and_grads_from_inputs(model, z, y)
        assert not np.shares_memory(a.flat, b.flat)
        for name in PARAM_NAMES:
            assert a[name] is not b[name]
            assert np.shares_memory(a[name], a.flat)

    def test_buffer_of_other_shapes_rejected(self):
        model = toy_model(classes=(0, 1))
        out = Grads(model)
        model.grow_head([2])
        z = random_inputs(np.random.default_rng(5))
        with pytest.raises(ValueError, match="do not match"):
            loss_and_grads_from_inputs(model, z, np.array([2]), out=out)

    def test_duplicated_batch_same_loss(self):
        rng = np.random.default_rng(9)
        model = toy_model(seed=9)
        z = random_inputs(rng, n=4)
        y = np.arange(4) % 3
        loss_once, _ = loss_and_grads_from_inputs(model, z, y)
        loss_twice, _ = loss_and_grads_from_inputs(model, np.vstack([z, z]), np.concatenate([y, y]))
        assert loss_twice == pytest.approx(loss_once, abs=1e-12)

    def test_label_out_of_range(self):
        model = toy_model(classes=(0, 1))
        z = random_inputs(np.random.default_rng(10))
        for bad in (2, 5, -1):
            with pytest.raises(ValueError):
                loss_and_grads_from_inputs(model, z, np.array([bad]))

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = toy_model(feature_dim=3, hidden_dim=5, seed=seed)
            # evaluate at a generic point: exact-zero bias rows park hidden
            # pre-activations on the rectifier kink, where central
            # differences straddle the subgradient
            model.b_hid = rng.normal(0.0, 0.05, size=model.b_hid.shape)
            z = random_inputs(rng, n=5)
            y = rng.integers(0, 3, size=5)
            _, analytic = loss_and_grads_from_inputs(model, z, y)
            numeric = finite_difference_grads(
                lambda: loss_and_grads_from_inputs(model, z, y)[0], model
            )
            assert max_rel_error(analytic, numeric) < 1e-4, f"seed {seed}"


class TestApplyGradients:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", PARAM_NAMES)
    def test_non_finite_gradient_changes_nothing(self, name, bad):
        model = toy_model(seed=6)
        before = model.parameters()
        grads = Grads(model)
        grads.flat[:] = 1.0
        grads[name].flat[-1] = bad
        with pytest.raises(FloatingPointError, match=f"non-finite gradient for {name}$"):
            model.apply_gradients(grads, 0.1)
        after = model.parameters()
        assert all(np.array_equal(before[k], after[k]) for k in PARAM_NAMES)

    def test_first_bad_tensor_named(self):
        model = toy_model(seed=6)
        grads = Grads(model)
        grads["w_head"][0, 0] = np.nan
        grads["w_hid"][0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="for w_hid$"):
            model.apply_gradients(grads, 0.1)

    def test_shape_mismatch_changes_nothing(self):
        model = toy_model(classes=(0, 1), seed=6)
        grads = Grads(model)
        model.grow_head([2])
        before = model.parameters()
        with pytest.raises(ValueError, match="do not match"):
            model.apply_gradients(grads, 0.1)
        after = model.parameters()
        assert all(np.array_equal(before[k], after[k]) for k in PARAM_NAMES)

    def test_step_updates_in_place(self):
        model = toy_model(seed=6)
        arrays = [getattr(model, name) for name in PARAM_NAMES]
        want = {name: getattr(model, name) - 0.1 * 2.0 for name in PARAM_NAMES}
        grads = Grads(model)
        grads.flat[:] = 2.0
        model.apply_gradients(grads, 0.1)
        for name, arr in zip(PARAM_NAMES, arrays):
            assert getattr(model, name) is arr
            assert np.array_equal(arr, want[name])


class TestGrowHead:
    def test_grow_zero_noop(self):
        model = toy_model()
        before = model.parameters()
        model.grow_head([])
        after = model.parameters()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_grow_appends_rows_keeps_old_bits(self):
        model = toy_model(classes=(0, 1))
        old_rows = model.w_head.copy()
        model.grow_head([2, 3, 4])
        assert model.w_head.shape[0] == 5
        assert np.array_equal(model.w_head[:2], old_rows)
        assert model.classes == [0, 1, 2, 3, 4]

    def test_two_grows_equal_one_combined(self):
        a = Backbone(3, hidden_dim=4, seed=33)
        b = Backbone(3, hidden_dim=4, seed=33)
        a.grow_head([0])
        a.grow_head([1, 2])
        b.grow_head([0, 1, 2])
        assert np.array_equal(a.w_head, b.w_head)

    def test_duplicate_class_rejected(self):
        model = toy_model(classes=(0, 1))
        with pytest.raises(ValueError):
            model.grow_head([1])


class TestHeadRows:
    @pytest.mark.parametrize("frozen", [False, True])
    def test_matches_position_in_classes(self, frozen):
        model = Backbone(3, hidden_dim=4, seed=0)
        model.grow_head([7, 2])
        model.grow_head([11, 0, 5])
        head = snapshot(model) if frozen else model
        ids = [5, 7, 7, 0, 11, 2, 5]
        rows = head.head_rows(ids)
        assert rows.dtype == np.int64
        assert rows.tolist() == [list(model.classes).index(c) for c in ids]
        assert head.head_rows(np.array(ids)).tolist() == rows.tolist()
        assert head.head_rows([]).tolist() == []

    @pytest.mark.parametrize("classes", [(), (0, 1, 3)])
    def test_unknown_class_named(self, classes):
        model = toy_model(classes=classes)
        for head in (model, snapshot(model)):
            with pytest.raises(ValueError, match="^class 2 unknown to this head$"):
                head.head_rows([0, 2, 4] if classes else [2])


class TestSnapshot:
    def test_training_leaves_snapshot_unchanged(self):
        rng = np.random.default_rng(11)
        model = toy_model(seed=11)
        model.b_hid += 0.5  # keep the probe's embedding path live
        probe = random_inputs(rng)
        z = random_inputs(rng, n=6)
        y = rng.integers(0, 3, size=6)
        snap = snapshot(model)
        ref = embed_batch(snap, probe).copy()
        assert np.any(ref != 0.0)
        for _ in range(10):
            _, grads = loss_and_grads_from_inputs(model, z, y)
            model.apply_gradients(grads, 0.1)
        assert np.array_equal(embed_batch(snap, probe), ref)
        assert not np.array_equal(embed_batch(model, probe), ref)

    def test_snapshot_of_snapshot(self):
        model = toy_model(seed=12)
        z = random_inputs(np.random.default_rng(12), n=4)
        s1 = snapshot(model)
        s2 = snapshot(s1)
        assert np.array_equal(embed_batch(s1, z), embed_batch(s2, z))

    def test_snapshot_params_readonly(self):
        snap = snapshot(toy_model())
        with pytest.raises(ValueError):
            snap.w_agg[0, 0] = 1.0

    def test_serialize_round_trip_embeddings(self, tmp_path):
        rng = np.random.default_rng(13)
        snap = snapshot(toy_model(seed=13))
        path = tmp_path / "snap.json"
        save_checkpoint(snap, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, Backbone)
        z = random_inputs(rng, n=100)
        assert np.array_equal(embed_batch(snap, z), embed_batch(loaded, z))

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda d: d.pop("rng_state"), "rng_state: missing"),
            (lambda d: d.update(rng_state=[1]), "rng_state: not a generator state"),
            (lambda d: d.update(kind="frozen"), "kind: must be 'backbone', got 'frozen'$"),
            (lambda d: d.update(hidden_dim=True), "hidden_dim must be an integer >= 1, got True$"),
            (lambda d: d.update(classes=[0, 0]), "classes: must be a list of distinct integers"),
            (lambda d: d.update(classes=[0]), r"params\.w_head: shape \[2, 4\] does not fit"),
            (lambda d: d["params"]["b_hid"]["data"].pop(), r"params\.b_hid: 3 values do not fill shape \[4\]"),
            (lambda d: d["params"]["w_head"].update(data="x"), r"params\.w_head: data is not a list of numbers"),
            (
                lambda d: d["params"]["w_hid"]["data"].__setitem__(0, "1.5"),
                r"params\.w_hid: data\[0\] must be a finite number, got '1\.5'$",
            ),
            (
                lambda d: d["params"]["b_hid"]["data"].__setitem__(0, True),
                r"params\.b_hid: data\[0\] must be a finite number, got True$",
            ),
            (lambda d: d["params"].pop("w_hid"), r"params\.w_hid: missing"),
            (lambda d: d.update(head_init_scale=math.inf), "head_init_scale must be a finite number >= 0, got inf$"),
        ],
    )
    def test_malformed_checkpoint_names_the_field(self, edit, reason):
        model = Backbone(3, hidden_dim=4, seed=21)
        model.grow_head([0, 1])
        d = checkpoint_dict(model)
        assert isinstance(from_checkpoint_dict(d), Backbone)
        edit(d)
        with pytest.raises(ValueError, match=f"^{reason}"):
            from_checkpoint_dict(d)

    def test_backbone_checkpoint_preserves_grow_stream(self, tmp_path):
        a = Backbone(3, hidden_dim=4, seed=21)
        a.grow_head([0, 1])
        path = tmp_path / "model.json"
        save_checkpoint(a, path)
        b = load_checkpoint(path)
        a.grow_head([2])
        b.grow_head([2])
        assert np.array_equal(a.w_head, b.w_head)


class TestSetParameters:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(w_head=np.zeros((3, 4))), r"^shape mismatch for w_head: \(3, 4\) vs \(2, 4\)$"),
            (lambda p: p.pop("w_head"), "^missing tensor w_head$"),
        ],
        ids=["wrong_shape", "missing_tensor"],
    )
    def test_a_bad_tensor_leaves_every_array_unchanged(self, edit, message):
        model = Backbone(3, hidden_dim=4, seed=18)
        model.grow_head([0, 1])
        before = model.parameters()
        params = _nudged(model)
        edit(params)
        with pytest.raises(ValueError, match=message):
            model.set_parameters(params)
        assert all(np.array_equal(getattr(model, name), before[name]) for name in PARAM_NAMES)


def _nudged(model):
    return {name: arr + 1.0 for name, arr in model.parameters().items()}


def _descent_step(model):
    rng = np.random.default_rng(15)
    _, grads = loss_and_grads_from_inputs(model, random_inputs(rng, n=6), rng.integers(0, 3, size=6))
    model.apply_gradients(grads, 0.1)


class TestFrozenCopy:
    @pytest.mark.parametrize(
        "mutate, reason",
        [
            (_descent_step, "read-only"),
            (lambda m: m.set_parameters(_nudged(m)), "read-only"),
            (lambda m: m.grow_head([7]), "^cannot grow the head of a frozen model$"),
        ],
        ids=["apply_gradients", "set_parameters", "grow_head"],
    )
    def test_mutators_raise_and_leave_it_unchanged(self, mutate, reason):
        frozen = snapshot(toy_model(seed=14))
        params, classes, state = frozen.parameters(), frozen.classes, frozen._rng.bit_generator.state
        with pytest.raises(ValueError, match=reason):
            mutate(frozen)
        assert all(np.array_equal(getattr(frozen, name), params[name]) for name in PARAM_NAMES)
        assert frozen.classes == classes == (0, 1, 2)
        assert frozen._rng.bit_generator.state == state
        live = toy_model(seed=14)
        mutate(live)  # the same call on the live model goes through
        assert live.classes != [0, 1, 2] or not np.array_equal(live.w_agg, params["w_agg"])

    def test_a_frozen_copy_is_a_backbone_with_read_only_arrays(self):
        model = toy_model(seed=16)
        frozen = snapshot(model)
        assert type(frozen) is Backbone and frozen.classes == (0, 1, 2)
        assert not any(getattr(frozen, name).flags.writeable for name in PARAM_NAMES)
        assert all(getattr(model, name).flags.writeable for name in PARAM_NAMES)

    def test_a_snapshot_checkpoint_of_the_earlier_format_is_refused(self):
        d = checkpoint_dict(toy_model(seed=17))
        del d["rng_state"], d["head_init_scale"]
        d["kind"] = "snapshot"
        with pytest.raises(ValueError, match="^kind: must be 'backbone', got 'snapshot'$"):
            from_checkpoint_dict(d)

    def test_a_checkpoint_of_a_frozen_copy_reloads_with_equal_embeddings(self, tmp_path):
        rng = np.random.default_rng(18)
        model = toy_model(seed=18)
        model.b_hid += 0.5
        path = tmp_path / "frozen.json"
        save_checkpoint(snapshot(model), path)
        assert json.loads(path.read_text()) == checkpoint_dict(model)
        loaded = load_checkpoint(path)
        z = random_inputs(rng, n=50)
        assert np.array_equal(embed_batch(loaded, z), embed_batch(model, z))
        model.grow_head([5])
        loaded.grow_head([5])  # the copy carried the head-growth stream
        assert np.array_equal(loaded.w_head, model.w_head)


def test_period_training_data_shapes(small_synth):
    view = split_period(small_synth, 2)
    ids = view.nodes_of("all", "train")
    ctxs = build_contexts(small_synth, ids, small_synth.period(2).t_end)
    z = build_inputs(ctxs)
    assert z.shape == (len(ids), 2 * 4 + 1)
    model = Backbone(4, hidden_dim=8, seed=0)
    model.grow_head(sorted(set(small_synth.labels(ids).tolist())))
    probs = classify_batch(model, z)
    assert probs.shape == (len(ids), model.num_classes)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_parameters_finite_after_updates(small_synth):
    view = split_period(small_synth, 1)
    ids = view.nodes_of("all", "train")
    model = Backbone(4, hidden_dim=8, seed=3)
    model.grow_head(sorted(set(small_synth.labels(ids).tolist())))
    ctxs = build_contexts(small_synth, ids, 1.0)
    z = build_inputs(ctxs)
    y = model.head_rows(small_synth.labels(ids))
    for _ in range(50):
        _, grads = loss_and_grads_from_inputs(model, z, y)
        model.apply_gradients(grads, 0.5)
    for name in ("w_agg", "w_hid", "b_hid", "w_head"):
        assert np.isfinite(getattr(model, name)).all()
