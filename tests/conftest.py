import numpy as np
import pytest

from tgcl.backbone import PARAM_NAMES, Backbone, snapshot
from tgcl.graph import SPLIT_NAMES, TEST, TRAIN, PeriodSpec, SynthConfig, TemporalGraph, generate_synthetic, node_splits

from oracles import Event, NodeRecord, event_columns, node_columns


def make_two_period_graph():
    """Hand-built graph: classes {0} in period 1, {1} in period 2.

    Period 2 contains one old-old edge, one old-new edge, one new-new edge.
    """
    nodes = [
        NodeRecord(id=0, class_id=0, birth_period=1, feature=np.array([0.0, 0.0])),
        NodeRecord(id=1, class_id=0, birth_period=1, feature=np.array([0.1, 0.0])),
        NodeRecord(id=2, class_id=1, birth_period=2, feature=np.array([1.0, 1.0])),
        NodeRecord(id=3, class_id=1, birth_period=2, feature=np.array([1.1, 1.0])),
    ]
    events = [
        Event(0, 1, 0.5),  # period 1 activity
        Event(0, 1, 1.2),  # old-old
        Event(0, 2, 1.5),  # old-new
        Event(2, 3, 1.8),  # new-new
    ]
    periods = [
        PeriodSpec(index=1, t_start=0.0, t_end=1.0, classes=(0,)),
        PeriodSpec(index=2, t_start=1.0, t_end=2.0, classes=(1,)),
    ]
    return TemporalGraph.from_parts(node_columns(nodes), event_columns(events), periods)


def make_graph_without_new_class_events():
    """A 2-period graph whose period-2 class has 20 nodes and no events
    (period 2 still holds the period-1 class's events): period 2 has no
    new-class training nodes."""
    ids = list(range(40))
    nodes = (ids, [0] * 20 + [1] * 20, [1] * 20 + [2] * 20, [[i / 40, 1.0, 0.0] for i in ids])
    events = ([i for i in range(20)] * 2, [(i + 1) % 20 for i in range(20)] * 2,
              [0.1 + i / 40 for i in range(20)] + [1.1 + i / 40 for i in range(20)])
    periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
    return TemporalGraph.from_parts(nodes, events, periods)


def make_graph_without_test_nodes_under_seed_1():
    """A 2-period graph that split seed 1 leaves without test nodes and
    seed 0 does not: period 2's class has 5 < 10 nodes, so none is drawn
    for test, and of period 1's 20 nodes, period 2 holds only those that
    seed 0 tests or that both seeds train."""
    old, new = list(range(20)), list(range(20, 25))
    nodes = (old + new, [0] * 20 + [1] * 5, [1] * 20 + [2] * 5, [[v / 25, 1.0, 0.0] for v in old + new])
    periods = [PeriodSpec(1, 0.0, 1.0, (0,)), PeriodSpec(2, 1.0, 2.0, (1,))]
    first = (old, [(v + 1) % 20 for v in old], [0.1 + v / 40 for v in old])
    # period 1's cohort splits do not depend on period 2's events
    seed0, seed1 = (node_splits(TemporalGraph.from_parts(nodes, first, periods), s) for s in (0, 1))
    test, train = SPLIT_NAMES.index(TEST), SPLIT_NAMES.index(TRAIN)
    kept = [v for v in old if seed0[v] == test or seed0[v] == seed1[v] == train]
    second = (kept, [new[j % 5] for j in range(len(kept))], [1.1 + j / 40 for j in range(len(kept))])
    return TemporalGraph.from_parts(nodes, tuple(a + b for a, b in zip(first, second)), periods)


#: generator settings under which every (debut, class) cohort has 4 < 10
#: nodes, so no node is drawn for test
NO_TEST_SYNTH = {"num_periods": 2, "classes_per_period": 2, "nodes_per_class_per_period": 4, "events_per_node": 3}


@pytest.fixture
def two_period_graph():
    return make_two_period_graph()


@pytest.fixture
def small_synth():
    return generate_synthetic(
        SynthConfig(
            num_periods=3,
            classes_per_period=2,
            nodes_per_class_per_period=30,
            feature_dim=4,
            seed=11,
        )
    )


def toy_model(feature_dim=3, hidden_dim=5, classes=(0, 1, 2), seed=0):
    model = Backbone(feature_dim, hidden_dim=hidden_dim, seed=seed)
    model.grow_head(list(classes))
    return model


def finite_difference_grads(loss_fn, model, eps=1e-5):
    """Central finite differences of loss_fn() w.r.t. every model parameter."""
    grads = {}
    for name in ("w_agg", "w_hid", "b_hid", "w_head"):
        arr = getattr(model, name)
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn()
            flat[i] = orig - eps
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def max_rel_error(a, b, floor=1e-6):
    """Max elementwise |a-b| / max(|a|, |b|, floor) over two grad dicts."""
    worst = 0.0
    for name in PARAM_NAMES:
        num = np.abs(a[name] - b[name])
        den = np.maximum(np.maximum(np.abs(a[name]), np.abs(b[name])), floor)
        if num.size:
            worst = max(worst, float((num / den).max()))
    return worst


def trained_toy_snapshot(graph, view, seed=0, steps=40, lr=0.2, hidden_dim=16):
    """Quickly fit a model on a view's training nodes; return its snapshot."""
    from tgcl.backbone import build_contexts, build_inputs, loss_and_grads_from_inputs

    model = Backbone(graph.feature_dim, hidden_dim=hidden_dim, seed=seed)
    classes = sorted(set(graph.labels(view.nodes_of("all")).tolist()))
    model.grow_head(classes)
    ids = view.nodes_of("all", "train")
    eval_t = graph.period(view.period_index).t_end
    z = build_inputs(build_contexts(graph, ids, eval_t))
    y = model.head_rows(graph.labels(ids))
    for _ in range(steps):
        _, grads = loss_and_grads_from_inputs(model, z, y)
        model.apply_gradients(grads, lr)
    return snapshot(model)
