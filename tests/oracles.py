"""Reference implementations the library is checked against.

These are deliberately direct: a single-pair kernel, the per-candidate
greedy witness, the full n x n matrix greedy and exhaustive subset
enumeration, the per-node model-input loop, the per-node frozen loss,
the frozen scoring of a selection pool with one forward for its
embeddings and another for its losses, the bandwidth median of a copy of
the pairwise distances, the training step's loss and gradients with a
new array per intermediate, per-set precision with a per-prediction
class lookup, the alignment loss with model gradients (backpropagated
from the embeddings on their own), a period's events and each node's
debut period by a scan of the events, the synthetic generator with one
object per node and per event and ``rng.uniform`` times, and the graph
rules checked row by row, and the partitioner on node ids. None of them
is used by the pipeline. The module also holds helpers only tests use:
nodes and events as row objects and back, greedy picks of one part by
node id, exact graph equality and the mean epoch time of a log.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from scipy.spatial.distance import pdist

from tgcl.backbone import (
    K_NEIGHBORS,
    PARAM_NAMES,
    AuxTerm,
    Backbone,
    classify_batch,
    embed_batch,
    input_dim,
    node_inputs,
)
from tgcl.graph import MAX_FEATURE, PeriodSpec, SynthConfig, TemporalGraph, _period_fault
from tgcl.kernels import KernelParams, _as_points, kernel_matrix
from tgcl.selector import (
    SCORE_TERMS,
    SelectionConfig,
    SelectionPool,
    _STREAM_PARTITION,
    _col_mean,
    _greedy,
    _kmeans,
    subset_objective,
)
from tgcl.trainer import l_dst_terms


@dataclass(frozen=True, eq=False)
class NodeRecord:
    """One node as a row object: its id, class, class-introduction period
    and feature vector."""

    id: int
    class_id: int
    birth_period: int
    feature: np.ndarray


def node_columns(nodes: Sequence[NodeRecord]) -> tuple[list, list, list, list]:
    """The ``(id, class_id, birth_period, features)`` columns of row objects,
    for ``TemporalGraph.from_parts``."""
    features = [r.feature for r in nodes] if nodes else np.zeros((0, 0))
    return [r.id for r in nodes], [r.class_id for r in nodes], [r.birth_period for r in nodes], features


def nodes_of(graph: TemporalGraph) -> list[NodeRecord]:
    """The rows of ``graph.nodes`` as objects, in table (id) order."""
    t = graph.nodes
    rows = zip(t.id.tolist(), t.class_id.tolist(), t.birth_period.tolist(), t.features)
    return [NodeRecord(*row) for row in rows]


@dataclass(frozen=True)
class Event:
    """One interaction between two nodes at time ``t``, as a row object."""

    src: int
    dst: int
    t: float

    def endpoints(self) -> tuple[int, int]:
        return (self.src, self.dst)


def events_of(graph: TemporalGraph) -> list[Event]:
    """The rows of ``graph.events`` as objects, in table order."""
    ev = graph.events
    return [Event(*row) for row in zip(ev.src.tolist(), ev.dst.tolist(), ev.t.tolist())]


def event_columns(events: Sequence[Event]) -> tuple[list[int], list[int], list[float]]:
    """The ``(src, dst, t)`` columns of row objects, for ``TemporalGraph.from_parts``."""
    return [e.src for e in events], [e.dst for e in events], [e.t for e in events]


def reference_inputs(
    graph: TemporalGraph, node_ids: Sequence[int], eval_time: float, k: int = K_NEIGHBORS
) -> np.ndarray:
    """Model inputs node by node, read straight off ``graph.events``.

    Per node: its own feature, then the sum of its ``k`` most recent
    neighbours' features (events at or before ``eval_time``; among equal
    times the later event is the more recent) and of ``log1p(dt)``, both
    taken newest first and divided by ``k``.
    """
    rows = []
    events = events_of(graph)
    feature = {rec.id: rec.feature for rec in nodes_of(graph)}
    for v in node_ids:
        x = feature[v]
        seen = [
            (e.t, e.dst if e.src == v else e.src)
            for e in events
            if v in (e.src, e.dst) and e.t <= eval_time
        ]
        nbr = np.zeros_like(x)
        dt_acc = 0.0
        for t, u in reversed(seen[max(0, len(seen) - k) :]):
            nbr = nbr + feature[u]
            dt_acc += np.log1p(float(eval_time - t))
        rows.append(np.concatenate([x, nbr / k, [dt_acc / k]]))
    if not rows:
        return np.zeros((0, input_dim(graph.feature_dim)))
    return np.stack(rows)


def j_cls(prev: Backbone, z: np.ndarray, class_id: int) -> float:
    """Cross-entropy of the frozen model's prediction for one input row."""
    probs = classify_batch(prev, np.asarray(z, dtype=float)[None, :])[0]
    if class_id not in prev.classes:
        raise ValueError(f"class {class_id} unknown to the model")
    idx = list(prev.classes).index(class_id)
    return float(-np.log(np.clip(probs[idx], 1e-300, None)))


def reference_pool_scores(graph: TemporalGraph, n: int, node_ids: Sequence[int], prev: Backbone):
    """Embeddings and frozen per-node losses of a selection pool at period
    ``n``, with one forward for the embeddings and a second, inside
    ``classify_batch``, for the class probabilities."""
    z = node_inputs(graph, node_ids, graph.period(n).t_end)
    emb = embed_batch(prev, z)
    probs = classify_batch(prev, z)
    y = np.array([list(prev.classes).index(int(graph.labels([v])[0])) for v in node_ids], dtype=int)
    return emb, -np.log(np.clip(probs[np.arange(len(node_ids)), y], 1e-300, None))


def reference_median_gamma(points: np.ndarray) -> float:
    """The median-heuristic bandwidth of all ``points``, from ``np.median``
    of a copy of their pairwise distances."""
    med = float(np.median(pdist(points)))
    return 1.0 / med if med > 0 else 1.0


def reference_forward(model: Backbone, z: np.ndarray):
    """Pre-activations and activations of both layers, each a new array."""
    a1p = z @ model.w_agg.T
    a1 = np.maximum(a1p, 0.0)
    ep = a1 @ model.w_hid.T + model.b_hid
    emb = np.maximum(ep, 0.0)
    return a1p, a1, ep, emb


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_loss_and_grads(
    model: Backbone,
    z: np.ndarray,
    labels_idx: np.ndarray,
    aux: AuxTerm | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The training step's loss and gradients with a new array per
    intermediate and the mean and clip wrappers, for bitwise comparison."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = z.shape[0]
    if n == 0:
        return 0.0, {name: np.zeros_like(getattr(model, name)) for name in PARAM_NAMES}
    y = np.asarray(labels_idx, dtype=int)
    if y.min() < 0 or y.max() >= model.num_classes:
        raise ValueError("label index out of head range")

    a1p, a1, ep, emb = reference_forward(model, z)
    probs = reference_softmax(emb @ model.w_head.T)
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-300, None))))

    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    g_head = d_logits.T @ emb
    d_emb = d_logits @ model.w_head

    if aux is not None:
        aux_val, aux_d_emb = aux(emb)
        loss += float(aux_val)
        d_emb = d_emb + aux_d_emb

    d_ep = d_emb * (ep > 0.0)
    g_hid = d_ep.T @ a1
    g_bhid = d_ep.sum(axis=0)
    d_a1 = d_ep @ model.w_hid
    d_a1p = d_a1 * (a1p > 0.0)
    g_agg = d_a1p.T @ z
    return loss, {"w_agg": g_agg, "w_hid": g_hid, "b_hid": g_bhid, "w_head": g_head}


def reference_precision_per_set(
    model: Backbone, z: np.ndarray, labels: Sequence[int], class_set: Sequence[int]
) -> float | None:
    """Per-set accuracy of one class set, with the class id of each argmax
    looked up one prediction at a time and the set's members listed one
    by one; None, with a warning, for a set with no rows."""
    preds = [model.classes[i] for i in classify_batch(model, z).argmax(axis=1)]
    cs = set(class_set)
    idx = [i for i, y in enumerate(labels) if y in cs]
    if not idx:
        warnings.warn(f"no samples for class set {sorted(cs)}; precision undefined", stacklevel=2)
        return None
    hits = sum(1 for i in idx if preds[i] == labels[i])
    return hits / len(idx)


def embedding_grads(model: Backbone, z: np.ndarray, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate a gradient w.r.t. the embeddings into parameter space."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    a1p, a1, ep, _ = reference_forward(model, z)
    d_ep = d_emb * (ep > 0.0)
    grads = {
        "w_hid": d_ep.T @ a1,
        "b_hid": d_ep.sum(axis=0),
    }
    d_a1 = d_ep @ model.w_hid
    d_a1p = d_a1 * (a1p > 0.0)
    grads["w_agg"] = d_a1p.T @ z
    grads["w_head"] = np.zeros_like(model.w_head)
    return grads


def l_dst(
    model: Backbone, z_sub: np.ndarray, sim_embeddings: np.ndarray, kp: KernelParams
) -> tuple[float, dict[str, np.ndarray]]:
    """Alignment loss of live input rows against frozen anchor embeddings,
    with its gradients w.r.t. the model parameters."""
    if len(z_sub) == 0:
        raise ValueError("alignment loss requires nonempty subsets on both sides")
    emb = embed_batch(model, z_sub)
    value, d_emb = l_dst_terms(emb, sim_embeddings, kp)
    return value, embedding_grads(model, z_sub, d_emb)


def rbf(x, y, params: KernelParams) -> float:
    """Kernel value for a single pair of vectors; lies in (0, 1]."""
    xv = np.asarray(x, dtype=float).ravel()
    yv = np.asarray(y, dtype=float).ravel()
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValueError("non-finite input")
    d = float(np.linalg.norm(xv - yv))
    return float(np.exp(-params.gamma * d))


def j_mmd(v, sub, old, params: KernelParams) -> float:
    """Greedy witness score of candidate ``v`` against the growing subset.

    ``(2/|sub|) sum_{u in sub} k(v,u) - (2/|old|) sum_{u in old} k(v,u)``;
    the first term is defined as 0 when the subset is still empty, which
    makes the first greedy pick the kernel-herding step.
    """
    old_pts = _as_points(old, "old")
    if old_pts.shape[0] == 0:
        raise ValueError("j_mmd requires a nonempty reference set")
    vv = np.asarray(v, dtype=float).reshape(1, -1)
    term_old = 2.0 * float(kernel_matrix(vv, old_pts, params).mean())
    sub_pts = np.asarray(sub, dtype=float)
    if sub_pts.size == 0:
        term_sub = 0.0
    else:
        term_sub = 2.0 * float(kernel_matrix(vv, _as_points(sub, "sub"), params).mean())
    return term_sub - term_old


def greedy_reference(
    pool: SelectionPool,
    budget: int,
    alpha: float,
    terms: Sequence[str],
    mode: str,
) -> list[int]:
    """Greedy picks (node ids, in order) from the full n x n kernel matrix.

    Same scores and tie-break as ``tgcl.selector._greedy``, but with the
    whole matrix in memory and its diagonal and means read off it.
    """
    n = len(pool.ids)
    if budget == 0:
        return []
    use_err, use_dist = "err" in terms, "dist" in terms

    ids = np.array(pool.ids)
    k = kernel_matrix(pool.emb, pool.emb, pool.kp)
    diag = np.diag(k).copy()
    col_mean = k.mean(axis=0)
    err_score = alpha * pool.jcls if use_err else np.zeros(n)

    sub_sum = np.zeros(n)
    mask = np.zeros(n, dtype=bool)
    selected: list[int] = []
    kaa_mean = float(k.mean())
    s_pair = 0.0
    s_col = 0.0
    s_err = 0.0

    for _ in range(budget):
        s = len(selected)
        if mode == "witness":
            score = err_score.astype(float).copy()
            if use_dist:
                if s:
                    score += 2.0 * sub_sum / s - 2.0 * col_mean
                else:
                    score -= 2.0 * col_mean
        else:
            score = np.zeros(n)
            if use_err:
                score += alpha * (s_err + pool.jcls) / (s + 1)
            if use_dist:
                pair_new = s_pair + 2.0 * sub_sum + diag
                col_new = s_col + col_mean * n
                score += kaa_mean + pair_new / (s + 1) ** 2 - 2.0 * col_new / (n * (s + 1))
        score[mask] = np.inf
        best = score.min()
        tied = np.flatnonzero(score == best)
        pick = int(tied[np.argmin(ids[tied])])

        s_pair += 2.0 * sub_sum[pick] + diag[pick]
        s_col += col_mean[pick] * n
        s_err += float(pool.jcls[pick])
        sub_sum += k[:, pick]
        mask[pick] = True
        selected.append(pick)
    return [int(ids[i]) for i in selected]


def brute_force_select(
    pool: SelectionPool,
    budget: int,
    cfg: SelectionConfig,
    terms: Sequence[str] = SCORE_TERMS,
) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimizer of the subset objective on tiny instances."""
    n = len(pool.ids)
    if n > 16 or budget > 5:
        raise ValueError(f"instance too large to enumerate (n={n}, budget={budget})")
    if budget > n:
        raise ValueError(f"budget {budget} exceeds candidate count {n}")
    best_ids: tuple[int, ...] | None = None
    best_val = np.inf
    for comb in itertools.combinations(range(n), budget):
        val = subset_objective(pool, comb, cfg.alpha, terms).total
        ids = tuple(sorted(pool.ids[i] for i in comb))
        if val < best_val or (val == best_val and (best_ids is None or ids < best_ids)):
            best_val = val
            best_ids = ids
    assert best_ids is not None
    return best_ids, float(best_val)


def reference_partition(
    ids: Sequence[int], emb: np.ndarray, cfg: SelectionConfig, seed: int
) -> list[list[int]]:
    """Parts of the candidates ``ids`` (rows of ``emb`` align with them, in
    any order) as sorted id lists, with every permutation, sort and
    tie-break keyed on node ids."""
    ids = list(ids)
    n = len(ids)
    w = -(-n // cfg.p)
    if w == 1:
        return [sorted(ids)]
    rng = np.random.default_rng((seed, _STREAM_PARTITION))
    if cfg.partitioner == "random":
        perm = rng.permutation(np.array(sorted(ids)))
        parts, pos = [], 0
        for size in [n // w + 1] * (n % w) + [n // w] * (w - n % w):
            parts.append(sorted(int(v) for v in perm[pos : pos + size]))
            pos += size
        return parts

    order = np.argsort(np.array(ids))
    ids_arr = np.array(ids)[order]
    emb = np.asarray(emb, dtype=float)[order]
    if cfg.partitioner == "kmeans":
        labels, centers = _kmeans(emb, w, rng)
    else:
        from scipy.cluster.hierarchy import fcluster, linkage

        labels = fcluster(linkage(emb, method="average"), t=w, criterion="maxclust") - 1
        centers = np.stack([
            emb[labels == j].mean(axis=0) if np.any(labels == j) else emb.mean(axis=0)
            for j in range(w)
        ])
    parts: list[list[int]] = [[] for _ in range(w)]
    spill: list[int] = []
    for j in range(w):
        members = np.flatnonzero(labels == j)
        if len(members) == 0:
            continue
        d = np.linalg.norm(emb[members] - centers[j], axis=1)
        by_distance = members[np.lexsort((ids_arr[members], d))]
        parts[j] = [int(ids_arr[r]) for r in by_distance[: cfg.p]]
        spill.extend(int(r) for r in by_distance[cfg.p :])
    spill.sort(key=lambda r: int(ids_arr[r]))
    for r in spill:
        dists = np.linalg.norm(centers - emb[r], axis=1)
        for j in sorted(range(w), key=lambda j: (dists[j], j)):
            if len(parts[j]) < cfg.p:
                parts[j].append(int(ids_arr[r]))
                break
    return [sorted(part) for part in parts]


def _ids_of(pool: SelectionPool, rows: Sequence[int]) -> list[int]:
    return [int(pool.ids[r]) for r in rows]


def greedy_select_sub(
    pool: SelectionPool,
    budget_w: int,
    cfg: SelectionConfig,
    terms: Sequence[str] = SCORE_TERMS,
) -> list[int]:
    """Greedy rehearsal picks from one part: argmin of the combined score,
    ties broken by smallest node id, in selection order."""
    picks = _greedy(pool, budget_w, cfg.alpha, terms, cfg.scoring_mode, _col_mean(pool))
    return _ids_of(pool, picks.rows)


def greedy_select_sim(pool: SelectionPool, budget_w: int, cfg: SelectionConfig) -> list[int]:
    """Greedy anchor picks: distribution term only (kernel herding)."""
    return _ids_of(pool, _greedy(pool, budget_w, 0.0, ("dist",), cfg.scoring_mode, _col_mean(pool)).rows)


def graphs_equal(a: TemporalGraph, b: TemporalGraph) -> bool:
    """Exact equality of all node and event columns, and period specs."""
    if a.periods != b.periods:
        return False
    columns = [
        (getattr(a.nodes, name), getattr(b.nodes, name)) for name in ("id", "class_id", "birth_period", "features")
    ] + [(getattr(a.events, name), getattr(b.events, name)) for name in ("src", "dst", "t")]
    return all(ca.shape == cb.shape and np.array_equal(ca, cb) for ca, cb in columns)


def period_events(graph: TemporalGraph, n: int) -> list[Event]:
    """Events of period ``n``, scanned from ``graph.events``: those with
    ``t_start <= t < t_end``, plus those at ``t_end`` in the last period."""
    p = graph.periods[n - 1]
    last = n == len(graph.periods)
    return [e for e in events_of(graph) if p.t_start <= e.t < p.t_end or (last and e.t == p.t_end)]


def debut_periods(graph: TemporalGraph) -> dict[int, int]:
    """First period in which each node has an event, from :func:`period_events`."""
    out: dict[int, int] = {}
    for n in range(1, len(graph.periods) + 1):
        for e in period_events(graph, n):
            for v in e.endpoints():
                out.setdefault(v, n)
    return out


def reference_node_splits(graph: TemporalGraph, seed: int) -> dict[int, str]:
    """Per active node id, its split name, assigned node by node: cohorts of
    one debut period (from :func:`debut_periods`) and class, by debut then
    class, each permuting its sorted ids with the debut's stream ``(seed,
    debut)``; the first 10% go to val, the next 10% to test."""
    cohorts: dict[int, dict[int, list[int]]] = {}
    for v, debut in debut_periods(graph).items():
        cohorts.setdefault(debut, {}).setdefault(int(graph.labels([v])[0]), []).append(v)
    out: dict[int, str] = {}
    for debut in sorted(cohorts):
        rng = np.random.default_rng((seed, debut))
        for c in sorted(cohorts[debut]):
            ids = sorted(cohorts[debut][c])
            perm = rng.permutation(len(ids))
            n_val, n_test = int(len(ids) * 0.1), int(len(ids) * 0.1)
            for j, k in enumerate(perm):
                out[ids[k]] = "val" if j < n_val else "test" if j < n_val + n_test else "train"
    return out


def reference_generate_synthetic(
    cfg: SynthConfig,
) -> tuple[list[NodeRecord], list[Event], tuple[PeriodSpec, ...]]:
    """The drifting-cluster generator with one object per event and times
    drawn by ``rng.uniform``: its node records, its events in the order
    they were drawn (not sorted by time) and its periods."""
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
    records: list[NodeRecord] = []
    events: list[Event] = []
    next_id = 0

    w_intra = cfg.intra_class_edge_prob
    w_inter = cfg.inter_class_edge_prob
    q_intra = w_intra / (w_intra + w_inter) if (w_intra + w_inter) > 0 else 0.0

    alive: list[tuple[int, int]] = []
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
            for i in range(n_per):
                records.append(
                    NodeRecord(id=next_id, class_id=c, birth_period=class_period[c], feature=feats[i])
                )
                alive.append((next_id, c))
                next_id += 1

        by_class: dict[int, list[int]] = {}
        for v, c in alive:
            by_class.setdefault(c, []).append(v)
        others = {c: [v for v, cc in alive if cc != c] for c in by_class}
        t_hi = np.nextafter(spec.t_end, spec.t_start)
        for u, c in alive:
            same = by_class[c]
            for _ in range(cfg.events_per_node):
                want_intra = rng.random() < q_intra
                pool = same if want_intra else others[c]
                if want_intra and len(same) <= 1:
                    pool = others[c]
                elif not want_intra and not others[c]:
                    pool = same
                if not pool or (pool is same and len(same) <= 1):
                    continue
                idx = int(rng.integers(0, len(pool)))
                partner = pool[idx]
                if partner == u:
                    partner = pool[(idx + 1) % len(pool)]
                t = min(float(rng.uniform(spec.t_start, spec.t_end)), t_hi)
                events.append(Event(src=u, dst=partner, t=t))
    return records, events, periods


def reference_graph_fault(
    nodes: Sequence[NodeRecord], events: Sequence[Event], periods: Sequence[PeriodSpec]
) -> str | None:
    """The message of the first broken graph rule, checked row by row: the
    period entries, then each node record and then each event in order
    (both as stored, so unsorted rows break the order rules)."""
    if not periods:
        return "graph has no periods"
    for i, p in enumerate(periods):
        fault = _period_fault(i, p, periods[:i])
        if fault:
            return f"period {i + 1}: {fault}"
    for before, rec in zip([None, *nodes], nodes):
        v = rec.id
        if before is not None and v == before.id:
            return f"duplicate node id {v}"
        if before is not None and v < before.id:
            return f"node ids are not sorted: {v} follows {before.id}"
        if not np.isfinite(rec.feature).all():
            return f"node {v} has a non-finite feature"
        if (np.abs(rec.feature) > MAX_FEATURE).any():
            return f"node {v} has a feature of magnitude above {MAX_FEATURE:g}"
        if not 1 <= rec.birth_period <= len(periods):
            return f"period {rec.birth_period} of node {v} is unknown (have 1..{len(periods)})"
        if rec.class_id not in periods[rec.birth_period - 1].classes:
            return f"class {rec.class_id} of node {v} not in period {rec.birth_period} classes"
    ids = {rec.id for rec in nodes}
    t_lo, t_hi = periods[0].t_start, periods[-1].t_end
    prev_t = -math.inf
    for e in events:
        if e.src == e.dst:
            return f"self-loop event on node {e.src} at t={e.t}"
        for v in e.endpoints():
            if v not in ids:
                return f"event references unknown node {v}"
        if not t_lo <= e.t <= t_hi:
            return f"timestamp {e.t} outside all periods [{t_lo}, {t_hi}]"
        if e.t < prev_t:
            return "events are not sorted by time"
        prev_t = e.t
    return None


def time_per_epoch(epoch_log: Sequence[Mapping]) -> float:
    """Mean wall ms per epoch at the final period present in the log."""
    if not epoch_log:
        raise ValueError("empty epoch log")
    last = max(int(e["period"]) for e in epoch_log)
    times = [float(e["wall_ms"]) for e in epoch_log if int(e["period"]) == last]
    return float(np.mean(times))
