"""Minimal time-aware embedding model with a growable classifier head.

Per node, the model consumes the node's own feature vector, the mean
feature of its most recent temporal neighbors (zero-padded to a fixed slot
count), and one recency scalar (mean of ``log(1 + dt)`` over the slots).
Two rectified linear layers produce the embedding; a per-class weight row
produces each logit. The head grows as new class sets arrive, leaving
existing rows untouched.

A frozen model is the :func:`snapshot` of a live one: a :class:`Backbone`
whose four parameter arrays are read-only copies and whose ``classes`` is
a tuple. The frozen copy scores and embeds as the live model did when it
was copied; :meth:`~Backbone.grow_head`, :meth:`~Backbone.set_parameters`
and :meth:`~Backbone.apply_gradients` raise ``ValueError`` on it and
leave it unchanged.

Inputs are built from the graph's CSR neighbour index
(``TemporalGraph.neighbor_index``) and its node table (``graph.nodes``)
in two array stages. :func:`build_contexts` gathers, per node, its row of
the node table and the rows and ages ``dt`` of its ``k`` most recent
neighbours, newest first, with empty slots marked. :func:`build_inputs`
pools them into input rows, reading features from the node table's
feature matrix. :func:`node_inputs` builds every node's row once per
``(graph, eval_time)``, in the graph's cache. :func:`period_inputs` is the
one path from a period's node ids to model inputs and class ids, which a
model's :meth:`~Backbone.head_rows` maps to head rows.

All gradients are hand-derived closed forms; the test suite checks every
parameter tensor against central finite differences.
:func:`loss_and_grads_from_inputs` is the one forward/backward. It writes
the gradients into a :class:`Grads`: one flat float64 vector with a named
view per parameter tensor. Passing ``out=`` reuses a buffer across steps
(the trainer keeps two per period); without it each call allocates a fresh
one, so results never alias. :meth:`Backbone.apply_gradients` checks the
whole gradient before it updates the parameters in place.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import TemporalGraph, check_int, check_number

#: neighbor slots per context; missing slots are zero-feature, dt = 0
K_NEIGHBORS = 10

#: the width of every run's hidden layers
HIDDEN_DIM = 64

PARAM_NAMES = ("w_agg", "w_hid", "b_hid", "w_head")

AuxTerm = Callable[[np.ndarray], tuple[float, np.ndarray]]


class Contexts(NamedTuple):
    """Model-input ingredients of ``n`` nodes at one evaluation time."""

    features: np.ndarray  # (N, d) feature matrix of the graph's node table
    rows: np.ndarray  # (n,) each node's row in ``features``
    nbrs: np.ndarray  # (n, k) neighbour rows, newest first; -1 marks an empty slot
    dt: np.ndarray  # (n, k) eval_time minus event time; 0.0 in empty slots


def build_contexts(
    graph: TemporalGraph, node_ids: Sequence[int], eval_time: float, k: int = K_NEIGHBORS
) -> Contexts:
    """Up to ``k`` freshest incident events at or before ``eval_time``, per node.

    Each node's CSR slice is time-sorted, so a prefix count of
    ``times <= eval_time`` gives its cut-off ``hi``, and slot ``q`` holds
    entry ``hi - 1 - q``: the newest first. An unknown id raises
    ``KeyError``.
    """
    index = graph.neighbor_index
    rows = graph.nodes.rows_of(node_ids)
    lo = index.indptr[rows]
    hi = lo + index.row_counts(index.times <= eval_time)[rows]
    pos = hi[:, None] - 1 - np.arange(k)
    full = pos >= lo[:, None]
    nbrs = np.full(pos.shape, -1)
    nbrs[full] = index.nbr[pos[full]]
    dt = np.zeros(pos.shape)
    dt[full] = eval_time - index.times[pos[full]]
    return Contexts(features=graph.nodes.features, rows=rows, nbrs=nbrs, dt=dt)


def input_dim(feature_dim: int) -> int:
    return 2 * feature_dim + 1


def build_inputs(ctxs: Contexts, k: int = K_NEIGHBORS) -> np.ndarray:
    """Rows ``[own feature; sum of neighbour features / k; sum of log(1+dt) / k]``.

    The slots are added one at a time, newest first, and empty slots add
    exactly 0.0, so each row equals the per-node loop over its neighbours
    bit for bit (a pairwise ``.sum(axis=1)`` would round differently).
    """
    f = ctxs.features
    nbr_sum = np.zeros((len(ctxs.rows), f.shape[1]))
    dt_sum = np.zeros(len(ctxs.rows))
    log_dt = np.log1p(ctxs.dt)
    for q in range(min(k, ctxs.nbrs.shape[1])):
        full = ctxs.nbrs[:, q] >= 0
        nbr_sum = nbr_sum + np.where(full[:, None], f[ctxs.nbrs[:, q]], 0.0)
        dt_sum = dt_sum + log_dt[:, q]
    return np.concatenate([f[ctxs.rows], nbr_sum / k, (dt_sum / k)[:, None]], axis=1)


def node_inputs(graph: TemporalGraph, node_ids: Sequence[int], eval_time: float) -> np.ndarray:
    """Model inputs of ``node_ids`` at ``eval_time``: one row per id, in order.

    The first call per ``(graph, eval_time)`` builds every node's row with
    one ``build_inputs(build_contexts(...))`` call and keeps the matrix in
    ``graph.cache``; each call returns copies of the requested rows. Empty
    ``node_ids`` give shape ``(0, input_dim)``; an unknown id raises
    ``KeyError``.
    """
    rows = graph.cache.inputs
    if eval_time not in rows:
        rows[eval_time] = build_inputs(build_contexts(graph, graph.nodes.id, eval_time))
    return rows[eval_time][graph.nodes.rows_of(node_ids)]


def period_inputs(graph: TemporalGraph, n: int, node_ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Model inputs of ``node_ids`` at the end of period ``n``, where every
    use of the period reads them, and their class ids."""
    return node_inputs(graph, node_ids, graph.period(n).t_end), graph.labels(node_ids)


class Backbone:
    """Trainable embedding + class-incremental classifier.

    The head starts empty and is grown with :meth:`grow_head` as class
    sets arrive; new rows draw from a persistent seeded stream, so two
    successive grows equal one combined grow. ``classes`` lists the class
    of each head row.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden_dim: int = HIDDEN_DIM,
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
        self.classes: list[int] | tuple[int, ...] = []

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def head_rows(self, class_ids: Sequence[int]) -> np.ndarray:
        """Head row of each class id, in order; ``ValueError`` names the first unknown class."""
        ids = np.asarray(class_ids, dtype=np.int64)
        hit = ids[:, None] == np.asarray(self.classes, dtype=np.int64)
        if not hit.any(axis=1).all():
            raise ValueError(f"class {ids[~hit.any(axis=1)][0]} unknown to this head")
        return hit.nonzero()[1]  # one hit per row: a head's classes are distinct

    def grow_head(self, new_classes: Iterable[int]) -> None:
        """Append one seeded small-uniform row per class; old rows untouched."""
        if not self.w_head.flags.writeable:
            raise ValueError("cannot grow the head of a frozen model")
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

    # -- parameter access ------------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in PARAM_NAMES}

    def set_parameters(self, params: Mapping[str, np.ndarray]) -> None:
        """Copy ``params`` into the parameter arrays (read-only in a frozen copy).

        All or nothing: every tensor is checked before the first write, and
        ``ValueError`` names the first one in ``PARAM_NAMES`` order that is
        missing or of another shape.
        """
        new = {}
        for name in PARAM_NAMES:
            if name not in params:
                raise ValueError(f"missing tensor {name}")
            new[name] = np.asarray(params[name], dtype=float)
            shape = getattr(self, name).shape
            if new[name].shape != shape:
                raise ValueError(f"shape mismatch for {name}: {new[name].shape} vs {shape}")
        for name, arr in new.items():
            getattr(self, name)[...] = arr

    def apply_gradients(self, grads: Grads, lr: float) -> None:
        """One descent step, ``param -= lr * grad``, in place per tensor.

        All or nothing: the whole gradient is checked before any parameter
        changes. A buffer built for other shapes raises ``ValueError``, as
        does the first write into a frozen copy's read-only arrays; a
        non-finite entry raises ``FloatingPointError`` naming the first bad
        tensor in ``PARAM_NAMES`` order.
        """
        grads.check_fits(self)
        if not np.isfinite(grads.flat).all():
            bad = next(name for name in PARAM_NAMES if not np.isfinite(grads[name]).all())
            raise FloatingPointError(f"non-finite gradient for {bad}")
        for name in PARAM_NAMES:
            param = getattr(self, name)
            param -= lr * grads[name]


def snapshot(model: Backbone) -> Backbone:
    """A frozen copy of ``model``, which the live model's updates leave unchanged."""
    frozen = copy.copy(model)
    for name in PARAM_NAMES:
        arr = getattr(model, name).copy()
        arr.setflags(write=False)
        setattr(frozen, name, arr)
    frozen.classes = tuple(model.classes)
    frozen._rng = copy.deepcopy(model._rng)
    return frozen


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward(model: Backbone, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and embeddings; each rectifier acts in place, so
    a unit's mask ``act > 0`` equals ``pre-activation > 0``."""
    a1 = z @ model.w_agg.T
    np.maximum(a1, 0.0, out=a1)
    emb = a1 @ model.w_hid.T
    emb += model.b_hid
    np.maximum(emb, 0.0, out=emb)
    return a1, emb


def embed_batch(model: Backbone, z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != input_dim(model.feature_dim):
        raise ValueError(
            f"input dim {z.shape[1]} != expected {input_dim(model.feature_dim)}"
        )
    return _forward(model, z)[1]


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, overwriting and returning ``logits``."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def classify_embeddings(model: Backbone, emb: np.ndarray) -> np.ndarray:
    """Class probabilities of embedding rows ``emb`` (from :func:`embed_batch`),
    so a caller that needs both runs the forward once."""
    if model.num_classes == 0:
        raise ValueError("classifier head is empty")
    return _softmax_inplace(emb @ model.w_head.T)


def classify_batch(model: Backbone, z: np.ndarray) -> np.ndarray:
    return classify_embeddings(model, embed_batch(model, z))


class Grads:
    """Gradients of every parameter tensor in one flat float64 vector.

    ``grads[name]`` is a view of ``flat`` shaped like the parameter
    ``name``, in ``PARAM_NAMES`` order; a new buffer is all zeros.
    """

    def __init__(self, model: Backbone):
        self.shapes = tuple(getattr(model, name).shape for name in PARAM_NAMES)
        self.flat = np.zeros(sum(int(np.prod(shape)) for shape in self.shapes))
        self._views, lo = {}, 0
        for name, shape in zip(PARAM_NAMES, self.shapes):
            hi = lo + int(np.prod(shape))
            self._views[name] = self.flat[lo:hi].reshape(shape)
            lo = hi

    def check_fits(self, model: Backbone) -> None:
        """Raise ``ValueError`` unless ``model``'s parameters have these shapes."""
        shapes = tuple(getattr(model, name).shape for name in PARAM_NAMES)
        if shapes != self.shapes:
            raise ValueError(f"gradient shapes {self.shapes} do not match the model's {shapes}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]


def loss_and_grads_from_inputs(
    model: Backbone,
    z: np.ndarray,
    labels_idx: np.ndarray,
    aux: AuxTerm | None = None,
    out: Grads | None = None,
) -> tuple[float, Grads]:
    """Mean cross-entropy (plus optional embedding-space aux term) and grads.

    ``aux``, when given, maps the batch embeddings to an extra scalar loss
    and its gradient w.r.t. those embeddings; the extra gradient flows back
    through the shared layers.

    The gradients are written into ``out`` and returned in it; ``out`` must
    have been built for a model of the same parameter shapes. Without
    ``out`` a fresh :class:`Grads` is returned. The matrix products keep
    their operand forms; the softmax, the bias add, both rectifier masks
    and the logit gradient work in place on the products' results.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if out is None:
        out = Grads(model)
    else:
        out.check_fits(model)
    n = z.shape[0]
    if n == 0:
        out.flat.fill(0.0)
        return 0.0, out
    y = np.asarray(labels_idx, dtype=int)
    if y.min() < 0 or y.max() >= model.num_classes:
        raise ValueError("label index out of head range")

    a1, emb = _forward(model, z)
    rows = np.arange(n)
    d_logits = _softmax_inplace(emb @ model.w_head.T)
    picked = d_logits[rows, y]
    # np.add.reduce(x) / n is what np.mean computes
    loss = float(-(np.add.reduce(np.log(np.maximum(picked, 1e-300))) / n))

    picked -= 1.0
    d_logits[rows, y] = picked
    d_logits /= n
    np.matmul(d_logits.T, emb, out=out["w_head"])
    d_emb = d_logits @ model.w_head

    if aux is not None:
        aux_val, aux_d_emb = aux(emb)
        loss += float(aux_val)
        d_emb += aux_d_emb

    d_emb *= emb > 0.0
    np.matmul(d_emb.T, a1, out=out["w_hid"])
    np.add.reduce(d_emb, axis=0, out=out["b_hid"])
    d_a1 = d_emb @ model.w_hid
    d_a1 *= a1 > 0.0
    np.matmul(d_a1.T, z, out=out["w_agg"])
    return loss, out


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "tgcl-backbone"
CHECKPOINT_VERSION = 1


def _pack(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}


def _unpack(params: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Checkpoint tensor ``name``, which must have ``shape`` and finite values."""
    packed = params.get(name)
    if not isinstance(packed, dict) or not {"shape", "data"} <= packed.keys():
        raise ValueError(f"params.{name}: missing, or without shape and data")
    if packed["shape"] != list(shape):
        raise ValueError(
            f"params.{name}: shape {packed['shape']} does not fit feature_dim, hidden_dim and classes,"
            f" which want {list(shape)}"
        )
    if not isinstance(packed["data"], list):
        raise ValueError(f"params.{name}: data is not a list of numbers")
    for i, x in enumerate(packed["data"]):
        check_number(f"params.{name}: data[{i}]", x)
    arr = np.array(packed["data"], dtype=float)
    if arr.shape != (math.prod(shape),):
        raise ValueError(f"params.{name}: {arr.size} values do not fill shape {list(shape)}")
    return arr.reshape(shape)


def checkpoint_dict(model: Backbone) -> dict:
    """The model as a JSON object. A frozen copy writes the same fields as
    a live model, so it reloads live, as the model it was copied from."""
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": "backbone",
        "feature_dim": model.feature_dim,
        "hidden_dim": model.hidden_dim,
        "classes": list(model.classes),
        "params": {name: _pack(getattr(model, name)) for name in PARAM_NAMES},
        "head_init_scale": model.head_init_scale,
        "rng_state": model._rng.bit_generator.state,
    }


def from_checkpoint_dict(d: dict) -> Backbone:
    """The model that :func:`checkpoint_dict` wrote ``d`` from.

    Every field must be present, each tensor's shape must fit
    ``feature_dim``, ``hidden_dim`` and ``classes``, and every value must
    be finite; otherwise ``ValueError`` names the first field at fault.
    The kind must be ``"backbone"``: a frozen copy's checkpoint is one too.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a checkpoint is a JSON object, not a {type(d).__name__}")
    if d.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("not a model checkpoint")
    if d.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {d.get('version')}")
    if d.get("kind") != "backbone":
        raise ValueError(f"kind: must be 'backbone', got {d.get('kind')!r}")
    required = ("feature_dim", "hidden_dim", "classes", "params", "head_init_scale", "rng_state")
    missing = [name for name in required if name not in d]
    if missing:
        raise ValueError(f"{missing[0]}: missing")
    for name in ("feature_dim", "hidden_dim"):
        check_int(name, d[name], 1)
    classes, h = d["classes"], d["hidden_dim"]
    if not (isinstance(classes, list) and all(type(c) is int for c in classes) and len(set(classes)) == len(classes)):
        raise ValueError(f"classes: must be a list of distinct integers, got {classes!r}")
    if not isinstance(d["params"], dict):
        raise ValueError("params: must be an object")
    shapes = dict(zip(PARAM_NAMES, [(h, input_dim(d["feature_dim"])), (h, h), (h,), (len(classes), h)]))
    params = {name: _unpack(d["params"], name, shapes[name]) for name in PARAM_NAMES}
    scale = check_number("head_init_scale", d["head_init_scale"], ">= 0")
    model = Backbone(d["feature_dim"], hidden_dim=h, head_init_scale=scale)
    for name, arr in params.items():
        setattr(model, name, arr)
    model.classes = list(classes)
    try:
        model._rng.bit_generator.state = d["rng_state"]
    except (TypeError, ValueError, KeyError) as exc:
        raise ValueError(f"rng_state: not a generator state ({exc})") from None
    return model


def save_checkpoint(model: Backbone, path: str | Path) -> None:
    Path(path).write_text(json.dumps(checkpoint_dict(model)) + "\n")


def load_checkpoint(path: str | Path) -> Backbone:
    return from_checkpoint_dict(json.loads(Path(path).read_text()))
