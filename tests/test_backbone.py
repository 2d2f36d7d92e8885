import math

import numpy as np
import pytest

from tgcl.backbone import (
    Backbone,
    K_NEIGHBORS,
    NodeContext,
    Snapshot,
    build_context,
    build_contexts,
    build_inputs,
    classify,
    classify_batch,
    embed,
    embed_batch,
    from_checkpoint_dict,
    checkpoint_dict,
    input_vector,
    input_dim,
    load_checkpoint,
    loss_and_grads,
    loss_and_grads_from_inputs,
    node_inputs,
    save_checkpoint,
    snapshot,
)
import tgcl.backbone as backbone_module
from tgcl.graph import Event, NodeRecord, PeriodSpec, SynthConfig, TemporalGraph, generate_synthetic, split_period

from conftest import finite_difference_grads, max_rel_error, toy_model


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


def random_ctx(rng, feature_dim=3, n_neighbors=2):
    from tgcl.backbone import NeighborInfo
    from tgcl.graph import NodeRecord

    rec = NodeRecord(id=0, class_id=0, birth_period=1, feature=rng.normal(size=feature_dim))
    nbrs = tuple(
        NeighborInfo(feature=rng.normal(size=feature_dim), dt=float(rng.uniform(0, 3)))
        for _ in range(n_neighbors)
    )
    return NodeContext(node=rec, neighbors=nbrs)


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
    return TemporalGraph.from_parts(nodes, events, periods)


def oracle_inputs(graph, ids, eval_time):
    return build_inputs(build_contexts(graph, list(ids), eval_time))


class TestNodeInputs:
    EVAL_TIMES = (0.0, 0.5, 1.0, 1.3, 2.0)

    def test_matches_oracle_over_interleaved_partial_fills(self):
        rng = np.random.default_rng(0)
        graph = random_graph(rng)
        ids = sorted(graph.nodes)
        for _ in range(30):
            t = self.EVAL_TIMES[int(rng.integers(len(self.EVAL_TIMES)))]
            want = [ids[i] for i in rng.choice(len(ids), size=int(rng.integers(1, 25)), replace=True)]
            got = node_inputs(graph, want, t)
            assert got.shape == (len(want), input_dim(3))
            assert np.array_equal(got, oracle_inputs(graph, want, t))
        for t in self.EVAL_TIMES:  # every row, in reverse id order
            assert np.array_equal(node_inputs(graph, ids[::-1], t), oracle_inputs(graph, ids[::-1], t))

    def test_nodes_without_events_get_own_feature_only(self):
        graph = random_graph(np.random.default_rng(1))
        silent = sorted(graph.nodes)[:5]
        z = node_inputs(graph, silent, 2.0)
        assert np.array_equal(z, oracle_inputs(graph, silent, 2.0))
        assert np.array_equal(z[:, :3], np.stack([graph.nodes[v].feature for v in silent]))
        assert not z[:, 3:].any()

    def test_each_row_built_once_per_eval_time(self, monkeypatch):
        graph = random_graph(np.random.default_rng(2))
        ids = sorted(graph.nodes)
        built = []

        def counting(g, node_ids, eval_time, k=K_NEIGHBORS):
            built.extend((v, eval_time) for v in node_ids)
            return build_contexts(g, node_ids, eval_time, k)

        monkeypatch.setattr(backbone_module, "build_contexts", counting)
        node_inputs(graph, ids[:10] + ids[:3], 1.0)
        node_inputs(graph, ids[5:20], 1.0)
        node_inputs(graph, ids[5:20], 2.0)
        node_inputs(graph, ids[:20], 1.0)
        assert sorted(built) == sorted({(v, 1.0) for v in ids[:20]} | {(v, 2.0) for v in ids[5:20]})

    def test_graphs_sharing_node_ids_do_not_share_rows(self):
        a = random_graph(np.random.default_rng(3))
        b = random_graph(np.random.default_rng(4))
        assert set(a.nodes) == set(b.nodes)
        ids = sorted(a.nodes)
        za = node_inputs(a, ids, 2.0)
        zb = node_inputs(b, ids, 2.0)
        assert np.array_equal(zb, oracle_inputs(b, ids, 2.0))
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

    def test_returned_rows_are_copies(self):
        graph = random_graph(np.random.default_rng(7))
        ids = sorted(graph.nodes)[5:9]
        z = node_inputs(graph, ids, 2.0)
        z[:] = 0.0
        assert np.array_equal(node_inputs(graph, ids, 2.0), oracle_inputs(graph, ids, 2.0))


class TestContexts:
    def test_most_recent_neighbors_first(self, two_period_graph):
        ctx = build_context(two_period_graph, 0, eval_time=2.0)
        # node 0 touches events at t=0.5, 1.2, 1.5 -> dt 0.5, 0.8, 1.5
        assert [round(n.dt, 6) for n in ctx.neighbors] == [0.5, 0.8, 1.5]

    def test_neighbor_cap(self, small_synth):
        for v in list(small_synth.nodes)[:20]:
            ctx = build_context(small_synth, v, eval_time=3.0)
            assert len(ctx.neighbors) <= K_NEIGHBORS

    def test_future_events_excluded(self, two_period_graph):
        ctx = build_context(two_period_graph, 0, eval_time=1.0)
        assert [round(n.dt, 6) for n in ctx.neighbors] == [0.5]

    def test_isolated_node_gets_zero_slots(self, two_period_graph):
        ctx = build_context(two_period_graph, 3, eval_time=1.0)  # first event at 1.8
        z = input_vector(ctx)
        f = two_period_graph.nodes[3].feature
        assert np.array_equal(z[: len(f)], f)
        assert np.all(z[len(f) :] == 0.0)


class TestEmbed:
    def test_zero_weights_zero_embedding(self):
        model = toy_model()
        model.w_agg[:] = 0.0
        model.w_hid[:] = 0.0
        rng = np.random.default_rng(0)
        ctx = random_ctx(rng)
        assert np.all(embed(model, ctx) == 0.0)

    def test_deterministic(self):
        model = toy_model(seed=1)
        ctx = random_ctx(np.random.default_rng(1))
        assert np.array_equal(embed(model, ctx), embed(model, ctx))

    def test_matches_manual_recompute(self):
        rng = np.random.default_rng(2)
        model = toy_model(feature_dim=3, hidden_dim=4, seed=2)
        for _ in range(5):
            ctx = random_ctx(rng)
            z = input_vector(ctx)
            assert embed(model, ctx) == pytest.approx(manual_forward(model, z), abs=1e-12)

    def test_dim_mismatch(self):
        model = toy_model(feature_dim=5)
        ctx = random_ctx(np.random.default_rng(3), feature_dim=3)
        with pytest.raises(ValueError):
            embed(model, ctx)


class TestClassify:
    def test_single_class_head(self):
        model = toy_model(classes=(7,))
        ctx = random_ctx(np.random.default_rng(4))
        probs = classify(model, ctx)
        assert probs.shape == (1,) and probs[0] == 1.0

    def test_uniform_for_zero_logits(self):
        model = toy_model(classes=(0, 1, 2, 3))
        model.w_head[:] = 0.0
        probs = classify(model, random_ctx(np.random.default_rng(5)))
        assert probs == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_matches_manual_recompute(self):
        rng = np.random.default_rng(6)
        model = toy_model(feature_dim=3, hidden_dim=4, seed=6)
        ctx = random_ctx(rng)
        z = input_vector(ctx)
        assert classify(model, ctx) == pytest.approx(manual_classify(model, z), abs=1e-12)

    def test_simplex(self):
        rng = np.random.default_rng(7)
        model = toy_model(seed=7)
        for _ in range(25):
            probs = classify(model, random_ctx(rng))
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_empty_head(self):
        model = Backbone(3)
        with pytest.raises(ValueError, match="empty"):
            classify(model, random_ctx(np.random.default_rng(8)))


class TestLossAndGrads:
    def test_empty_batch(self):
        model = toy_model()
        loss, grads = loss_and_grads(model, [])
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_duplicated_batch_same_loss(self):
        rng = np.random.default_rng(9)
        model = toy_model(seed=9)
        batch = [(random_ctx(rng), i % 3) for i in range(4)]
        loss_once, _ = loss_and_grads(model, batch)
        loss_twice, _ = loss_and_grads(model, batch + batch)
        assert loss_twice == pytest.approx(loss_once, abs=1e-12)

    def test_label_out_of_range(self):
        model = toy_model(classes=(0, 1))
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            loss_and_grads(model, [(random_ctx(rng), 5)])

    def test_gradients_match_finite_differences(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = toy_model(feature_dim=3, hidden_dim=5, seed=seed)
            # evaluate at a generic point: exact-zero bias rows park hidden
            # pre-activations on the rectifier kink, where central
            # differences straddle the subgradient
            model.b_hid = rng.normal(0.0, 0.05, size=model.b_hid.shape)
            batch = [(random_ctx(rng), int(rng.integers(0, 3))) for _ in range(5)]
            z = build_inputs([c for c, _ in batch])
            y = np.array([model.class_index(l) for _, l in batch])
            _, analytic = loss_and_grads_from_inputs(model, z, y)
            numeric = finite_difference_grads(
                lambda: loss_and_grads_from_inputs(model, z, y)[0], model
            )
            assert max_rel_error(analytic, numeric) < 1e-4, f"seed {seed}"


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


class TestSnapshot:
    def test_training_leaves_snapshot_unchanged(self):
        rng = np.random.default_rng(11)
        model = toy_model(seed=11)
        model.b_hid += 0.5  # keep the probe's embedding path live
        ctx = random_ctx(rng)
        batch = [(random_ctx(rng), int(rng.integers(0, 3))) for _ in range(6)]
        snap = snapshot(model)
        ref = embed(snap, ctx).copy()
        assert np.any(ref != 0.0)
        for _ in range(10):
            _, grads = loss_and_grads(model, batch)
            model.apply_gradients(grads, 0.1)
        assert np.array_equal(embed(snap, ctx), ref)
        assert not np.array_equal(embed(model, ctx), ref)

    def test_snapshot_of_snapshot(self):
        model = toy_model(seed=12)
        ctx = random_ctx(np.random.default_rng(12))
        s1 = snapshot(model)
        s2 = snapshot(s1)
        assert np.array_equal(embed(s1, ctx), embed(s2, ctx))

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
        assert isinstance(loaded, Snapshot)
        for _ in range(100):
            ctx = random_ctx(rng)
            assert np.array_equal(embed(snap, ctx), embed(loaded, ctx))

    def test_backbone_checkpoint_preserves_grow_stream(self, tmp_path):
        a = Backbone(3, hidden_dim=4, seed=21)
        a.grow_head([0, 1])
        path = tmp_path / "model.json"
        save_checkpoint(a, path)
        b = load_checkpoint(path)
        a.grow_head([2])
        b.grow_head([2])
        assert np.array_equal(a.w_head, b.w_head)


def test_period_training_data_shapes(small_synth):
    view = split_period(small_synth, 2)
    ids = view.nodes_of("all", "train")
    ctxs = build_contexts(small_synth, ids, small_synth.period(2).t_end)
    z = build_inputs(ctxs)
    assert z.shape == (len(ids), 2 * 4 + 1)
    model = Backbone(4, hidden_dim=8, seed=0)
    model.grow_head(sorted({small_synth.nodes[v].class_id for v in ids}))
    probs = classify_batch(model, z)
    assert probs.shape == (len(ids), model.num_classes)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_parameters_finite_after_updates(small_synth):
    view = split_period(small_synth, 1)
    ids = view.nodes_of("all", "train")
    model = Backbone(4, hidden_dim=8, seed=3)
    model.grow_head(sorted({small_synth.nodes[v].class_id for v in ids}))
    ctxs = build_contexts(small_synth, ids, 1.0)
    z = build_inputs(ctxs)
    y = np.array([model.class_index(small_synth.nodes[v].class_id) for v in ids])
    for _ in range(50):
        _, grads = loss_and_grads_from_inputs(model, z, y)
        model.apply_gradients(grads, 0.5)
    for name in ("w_agg", "w_hid", "b_hid", "w_head"):
        assert np.isfinite(getattr(model, name)).all()
