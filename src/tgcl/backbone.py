"""Minimal time-aware embedding model with a growable classifier head.

Per node, the model consumes the node's own feature vector, the mean
feature of its most recent temporal neighbors (zero-padded to a fixed slot
count), and one recency scalar (mean of ``log(1 + dt)`` over the slots).
Two rectified linear layers produce the embedding; a per-class weight row
produces each logit. The head grows as new class sets arrive, leaving
existing rows untouched.

:func:`node_inputs` is the one path from a graph to model inputs: it
builds each node's input once per ``(graph, eval_time)``, keeps the rows
on the graph and hands out copies of them, bit-identical to
``build_inputs(build_contexts(...))``.

All gradients are hand-derived closed forms; the test suite checks every
parameter tensor against central finite differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import NodeRecord, TemporalGraph

#: neighbor slots per context; missing slots are zero-feature, dt = 0
K_NEIGHBORS = 10

PARAM_NAMES = ("w_agg", "w_hid", "b_hid", "w_head")

AuxTerm = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class NeighborInfo:
    feature: np.ndarray
    dt: float


@dataclass(frozen=True)
class NodeContext:
    """A node plus its most recent temporal neighbors at evaluation time."""

    node: NodeRecord
    neighbors: tuple[NeighborInfo, ...]


def build_context(
    graph: TemporalGraph, node_id: int, eval_time: float, k: int = K_NEIGHBORS
) -> NodeContext:
    """Context of ``node_id``: up to ``k`` freshest events at or before ``eval_time``."""
    rec = graph.nodes[node_id]
    times, nbrs = graph.adjacency.get(node_id, (np.empty(0), np.empty(0, dtype=int)))
    hi = int(np.searchsorted(times, eval_time, side="right"))
    lo = max(0, hi - k)
    infos = tuple(
        NeighborInfo(feature=graph.nodes[int(nbrs[i])].feature, dt=float(eval_time - times[i]))
        for i in range(hi - 1, lo - 1, -1)
    )
    return NodeContext(node=rec, neighbors=infos)


def build_contexts(
    graph: TemporalGraph, node_ids: Sequence[int], eval_time: float, k: int = K_NEIGHBORS
) -> list[NodeContext]:
    return [build_context(graph, v, eval_time, k) for v in node_ids]


def input_dim(feature_dim: int) -> int:
    return 2 * feature_dim + 1


def input_vector(ctx: NodeContext, k: int = K_NEIGHBORS) -> np.ndarray:
    """Assemble [own feature; mean neighbor feature; mean log(1+dt)]."""
    x = ctx.node.feature
    nbr = np.zeros_like(x)
    dt_acc = 0.0
    for info in ctx.neighbors[:k]:
        nbr = nbr + info.feature
        dt_acc += np.log1p(info.dt)
    return np.concatenate([x, nbr / k, [dt_acc / k]])


def build_inputs(ctxs: Sequence[NodeContext], k: int = K_NEIGHBORS) -> np.ndarray:
    if not ctxs:
        return np.zeros((0, 1))
    return np.stack([input_vector(c, k) for c in ctxs])


def node_inputs(graph: TemporalGraph, node_ids: Sequence[int], eval_time: float) -> np.ndarray:
    """Model inputs of ``node_ids`` at ``eval_time``: one row per id, in order.

    This is the one input path of training, validation, selection and
    scoring. Each node's row is built once per ``(graph, eval_time)`` and
    kept in ``graph.__dict__``: per ``eval_time`` an ``(N, input_dim)``
    matrix with rows in sorted node-id order, plus a mask of the rows built
    so far. A call builds only its missing rows, through
    :func:`build_contexts` and :func:`build_inputs`, and returns copies of
    the requested rows, so every row equals
    ``build_inputs(build_contexts(graph, [v], eval_time))[0]`` bit for bit.
    Empty ``node_ids`` give shape ``(0, input_dim)``; an unknown id raises
    ``KeyError``.
    """
    ids = graph.__dict__.get("_input_ids")
    if ids is None:
        ids = graph.__dict__["_input_ids"] = np.array(sorted(graph.nodes), dtype=int)
    per_time = graph.__dict__.setdefault("_input_cache", {})
    if eval_time not in per_time:
        width = input_dim(graph.feature_dim)
        per_time[eval_time] = (np.zeros((len(ids), width)), np.zeros(len(ids), dtype=bool))
    z, built = per_time[eval_time]

    want = np.asarray(node_ids, dtype=int)
    rows = np.searchsorted(ids, want)
    known = rows < len(ids)
    known[known] = ids[rows[known]] == want[known]
    if not known.all():
        raise KeyError(int(want[np.argmin(known)]))
    missing = np.unique(rows[~built[rows]])
    if len(missing):
        z[missing] = build_inputs(build_contexts(graph, ids[missing].tolist(), eval_time))
        built[missing] = True
    return z[rows]


class Backbone:
    """Trainable embedding + class-incremental classifier.

    The head starts empty and is grown with :meth:`grow_head` as class
    sets arrive; new rows draw from a persistent seeded stream, so two
    successive grows equal one combined grow.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden_dim: int = 64,
        seed: int = 0,
        head_init_scale: float = 0.01,
    ):
        self.feature_dim = int(feature_dim)
        self.hidden_dim = int(hidden_dim)
        self.head_init_scale = float(head_init_scale)
        self._rng = np.random.default_rng(seed)
        d = input_dim(self.feature_dim)
        a = 1.0 / np.sqrt(d)
        b = 1.0 / np.sqrt(self.hidden_dim)
        self.w_agg = self._rng.uniform(-a, a, size=(self.hidden_dim, d))
        self.w_hid = self._rng.uniform(-b, b, size=(self.hidden_dim, self.hidden_dim))
        self.b_hid = np.zeros(self.hidden_dim)
        self.w_head = np.zeros((0, self.hidden_dim))
        self.classes: list[int] = []
        self._class_index: dict[int, int] = {}

    # -- class bookkeeping ---------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, class_id: int) -> int:
        try:
            return self._class_index[class_id]
        except KeyError:
            raise ValueError(f"class {class_id} unknown to this head") from None

    def grow_head(self, new_classes: Iterable[int]) -> None:
        """Append one seeded small-uniform row per class; old rows untouched."""
        new_list = list(new_classes)
        dup = set(new_list) & set(self.classes)
        if dup:
            raise ValueError(f"classes already present: {sorted(dup)}")
        if len(set(new_list)) != len(new_list):
            raise ValueError("duplicate classes in grow request")
        if not new_list:
            return
        s = self.head_init_scale
        rows = self._rng.uniform(-s, s, size=(len(new_list), self.hidden_dim))
        self.w_head = np.vstack([self.w_head, rows])
        self.classes.extend(int(c) for c in new_list)
        self._class_index = {c: i for i, c in enumerate(self.classes)}

    # -- parameter access ------------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in PARAM_NAMES}

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        for name in PARAM_NAMES:
            cur = getattr(self, name)
            new = np.asarray(params[name], dtype=float)
            if new.shape != cur.shape:
                raise ValueError(f"shape mismatch for {name}: {new.shape} vs {cur.shape}")
            setattr(self, name, new.copy())

    def apply_gradients(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name in PARAM_NAMES:
            g = grads[name]
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for {name}")
            setattr(self, name, getattr(self, name) - lr * g)


class Snapshot:
    """Frozen, read-only copy of a model's parameters and class list."""

    def __init__(self, src: "Backbone | Snapshot"):
        for name in PARAM_NAMES:
            arr = np.array(getattr(src, name), copy=True)
            arr.setflags(write=False)
            setattr(self, name, arr)
        self.classes = tuple(src.classes)
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        self.feature_dim = src.feature_dim
        self.hidden_dim = src.hidden_dim

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def class_index(self, class_id: int) -> int:
        try:
            return self._class_index[class_id]
        except KeyError:
            raise ValueError(f"class {class_id} unknown to this head") from None


def snapshot(model: Backbone | Snapshot) -> Snapshot:
    return Snapshot(model)


Model = Backbone | Snapshot


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward(model: Model, z: np.ndarray):
    a1p = z @ model.w_agg.T
    a1 = np.maximum(a1p, 0.0)
    ep = a1 @ model.w_hid.T + model.b_hid
    emb = np.maximum(ep, 0.0)
    return a1p, a1, ep, emb


def embed_batch(model: Model, z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != input_dim(model.feature_dim):
        raise ValueError(
            f"input dim {z.shape[1]} != expected {input_dim(model.feature_dim)}"
        )
    return _forward(model, z)[3]


def embed(model: Model, ctx: NodeContext) -> np.ndarray:
    """Deterministic embedding of one node context (dim = hidden size)."""
    if ctx.node.feature.shape[0] != model.feature_dim:
        raise ValueError(
            f"feature dim {ctx.node.feature.shape[0]} != model dim {model.feature_dim}"
        )
    return embed_batch(model, input_vector(ctx)[None, :])[0]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def classify_batch(model: Model, z: np.ndarray) -> np.ndarray:
    if model.num_classes == 0:
        raise ValueError("classifier head is empty")
    emb = embed_batch(model, z)
    return _softmax(emb @ model.w_head.T)


def classify(model: Model, ctx: NodeContext) -> np.ndarray:
    """Probability vector over the classes known to the model's head."""
    return classify_batch(model, input_vector(ctx)[None, :])[0]


def zero_grads(model: Model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(model, name)) for name in PARAM_NAMES}


def embedding_grads(model: Model, z: np.ndarray, d_emb: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate a gradient w.r.t. the embeddings into parameter space."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    a1p, a1, ep, _ = _forward(model, z)
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


def loss_and_grads_from_inputs(
    model: Model,
    z: np.ndarray,
    labels_idx: np.ndarray,
    aux: AuxTerm | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy (plus optional embedding-space aux term) and grads.

    ``aux``, when given, maps the batch embeddings to an extra scalar loss
    and its gradient w.r.t. those embeddings; the extra gradient flows back
    through the shared layers.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = z.shape[0]
    if n == 0:
        return 0.0, zero_grads(model)
    y = np.asarray(labels_idx, dtype=int)
    if y.min() < 0 or y.max() >= model.num_classes:
        raise ValueError("label index out of head range")

    a1p, a1, ep, emb = _forward(model, z)
    probs = _softmax(emb @ model.w_head.T)
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


def loss_and_grads(
    model: Model,
    batch: Sequence[tuple[NodeContext, int]],
    aux: AuxTerm | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Context-level wrapper over :func:`loss_and_grads_from_inputs`."""
    if not batch:
        return 0.0, zero_grads(model)
    z = build_inputs([ctx for ctx, _ in batch])
    y = np.array([model.class_index(label) for _, label in batch], dtype=int)
    return loss_and_grads_from_inputs(model, z, y, aux=aux)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "tgcl-backbone"
CHECKPOINT_VERSION = 1


def _pack(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _unpack(d: dict) -> np.ndarray:
    return np.array(d["data"], dtype=float).reshape(d["shape"])


def checkpoint_dict(model: Model) -> dict:
    is_live = isinstance(model, Backbone)
    out = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": "backbone" if is_live else "snapshot",
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "classes": list(model.classes),
        "params": {name: _pack(getattr(model, name)) for name in PARAM_NAMES},
    }
    if is_live:
        out["head_init_scale"] = model.head_init_scale
        out["rng_state"] = model._rng.bit_generator.state
    return out


def from_checkpoint_dict(d: dict) -> Model:
    if d.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint")
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')}")
    model = Backbone(
        feature_dim=d["feature_dim"],
        hidden_dim=d["hidden_dim"],
        head_init_scale=d.get("head_init_scale", 0.01),
    )
    model.w_agg = _unpack(d["params"]["w_agg"])
    model.w_hid = _unpack(d["params"]["w_hid"])
    model.b_hid = _unpack(d["params"]["b_hid"])
    model.w_head = _unpack(d["params"]["w_head"])
    model.classes = [int(c) for c in d["classes"]]
    model._class_index = {c: i for i, c in enumerate(model.classes)}
    if d["kind"] == "snapshot":
        return Snapshot(model)
    model._rng.bit_generator.state = d["rng_state"]
    return model


def save_checkpoint(model: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(checkpoint_dict(model)) + "\n")


def load_checkpoint(path: str | Path) -> Model:
    return from_checkpoint_dict(json.loads(Path(path).read_text()))
