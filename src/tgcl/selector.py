"""Budgeted replay-subset selection over a period's old-class nodes.

Two subsets are selected greedily from each partition of the old-class
training nodes, scored under the frozen previous-period model:

* the rehearsal subset, minimizing a weighted per-node classification
  loss plus a kernel witness for the marginal squared-MMD effect, and
* the anchor subset, minimizing the witness alone (kernel herding).

Scoring runs in ``witness`` mode (the cheap cached-sum witness) or
``exact-marginal`` mode (the true objective increase, used as the
verification oracle). Random, k-means, and hierarchical partitioners are
provided, along with random and herding baseline selectors. The
``hierarchical`` partitioner loads ``scipy.cluster`` when it runs (on more
than one part), so the package does not pay that import at start-up.

Selection works on rows of the candidate pool. The pool holds the
old-class training nodes in id order, so row order is id order: parts
are ascending arrays of pool rows, picks are rows, and every tie that
breaks to the smallest row breaks to the smallest node id. Node ids
appear only where the :class:`ReplayBuffer` is written.

Each part's kernel is evaluated at most once and never held whole. Both
scoring modes need only the column means of the part's kernel, its
diagonal (exactly 1 for both kernel variants) and one kernel column per
pick. ``select`` computes the column means in one pass over the
``_BLOCK`` x ``_BLOCK`` blocks on and above the diagonal (the kernel is
symmetric bit for bit, so each block serves two column blocks), shares
them between the rehearsal and anchor greedy calls and the per-part MMD
metadata, and fetches a column per pick, so selection memory is
O(n + _BLOCK^2) rather than O(n^2). Every column sum is accumulated in row
order, one row at a time, because that is how numpy sums the full matrix
down axis 0: the means then equal ``k.mean(axis=0)`` bit for bit and the
picks match the full-matrix greedy exactly. Summing each row block on its
own and adding the block sums would round differently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Sequence

import json

import numpy as np

from .backbone import Backbone, classify_embeddings, embed_batch, period_inputs
from .graph import TRAIN, PeriodView, TemporalGraph, check_int, check_number
from .kernels import KernelParams, _distances, _kernel, kernel_matrix, median_heuristic_gamma, mmd_sq

PARTITIONERS = ("random", "kmeans", "hierarchical")
SCORING_MODES = ("witness", "exact-marginal")
SCORE_TERMS = ("err", "dist")
BASELINE_KINDS = ("random", "herding")

_STREAM_PARTITION = 1
_STREAM_BASELINE = 2

# Block width of the per-part kernel pass (a fixed constant, not a knob:
# the picks do not depend on it).
_BLOCK = 256


@dataclass(frozen=True)
class SelectionConfig:
    """Budgets and knobs for subset selection.

    ``m`` is the rehearsal budget, ``m_prime`` the anchor budget, ``p``
    the partition size (must exceed ``m``), ``alpha`` the error weight.
    """

    alpha: float = 1.0
    m: int = 50
    m_prime: int = 50
    p: int = 250
    partitioner: str = "random"
    scoring_mode: str = "witness"

    def __post_init__(self):
        check_number("alpha", self.alpha, ">= 0")
        for name, low in (("m", 1), ("m_prime", 0), ("p", 1)):
            check_int(name, getattr(self, name), low)
        if self.p <= self.m:
            raise ValueError(f"partition size p={self.p} must exceed budget m={self.m}")
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.scoring_mode not in SCORING_MODES:
            raise ValueError(f"unknown scoring mode {self.scoring_mode!r}")


class SubEntry(NamedTuple):
    node_id: int
    label: int
    j_cls: float


@dataclass
class ReplayBuffer:
    """Selected subsets with frozen selection-time scores and metadata.
    ``kp`` is the anchors' kernel (None without anchors); ``meta`` records
    it as ``gamma``."""

    period_built: int
    sub: list[SubEntry]
    sim: list[int]
    meta: dict = field(default_factory=dict)
    kp: KernelParams | None = None

    @property
    def sub_ids(self) -> list[int]:
        return [e.node_id for e in self.sub]

    def to_json_dict(self) -> dict:
        return {
            "period": self.period_built,
            "sub": [{"id": e.node_id, "label": e.label, "j_cls": e.j_cls} for e in self.sub],
            "sim": list(self.sim),
            "config": self.meta,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Scoring inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SelectionPool:
    """Candidates with frozen scoring inputs (embeddings and per-node loss).

    ``kp`` is the kernel of the kernel-based selector; the baselines never
    read it and leave it unset.
    """

    ids: tuple[int, ...]
    emb: np.ndarray
    jcls: np.ndarray
    kp: KernelParams | None = None

    def take(self, rows: np.ndarray) -> "SelectionPool":
        """The candidates at pool ``rows``, in that order."""
        return SelectionPool(
            ids=tuple(self.ids[r] for r in rows), emb=self.emb[rows], jcls=self.jcls[rows], kp=self.kp
        )


def build_pool(
    graph: TemporalGraph,
    view: PeriodView,
    node_ids: Sequence[int],
    prev: Backbone,
) -> SelectionPool:
    """Embed the candidates under ``prev`` and freeze their losses."""
    if not node_ids:
        raise ValueError("empty candidate set")
    z, labels = period_inputs(graph, view.period_index, node_ids)
    emb = embed_batch(prev, z)
    probs = classify_embeddings(prev, emb)
    jc = -np.log(np.clip(probs[np.arange(len(node_ids)), prev.head_rows(labels)], 1e-300, None))
    return SelectionPool(ids=tuple(node_ids), emb=emb, jcls=jc)


class SubsetObjective(NamedTuple):
    total: float
    err: float
    dist: float


def subset_objective(
    pool: SelectionPool,
    rows: Sequence[int],
    alpha: float,
    terms: Sequence[str] = SCORE_TERMS,
) -> SubsetObjective:
    """Budgeted objective of a subset: weighted mean loss + squared MMD
    between the full pool and the subset. Both terms are 0 for an empty
    subset."""
    rows = list(rows)
    err = float(np.mean(pool.jcls[rows])) if rows else 0.0
    dist = mmd_sq(pool.emb, pool.emb[rows], pool.kp) if rows else 0.0
    total = 0.0
    if "err" in terms:
        total += alpha * err
    if "dist" in terms:
        total += dist
    return SubsetObjective(total=total, err=err, dist=dist)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def partition(emb: np.ndarray, cfg: SelectionConfig, *, seed: int) -> list[np.ndarray]:
    """Split candidates into ``ceil(n / p)`` parts of ascending row arrays.

    The rows of ``emb`` are the candidates in id order, and each part
    holds positions into them. ``random`` shuffles then chunks evenly (size
    difference at most 1); ``kmeans`` and ``hierarchical`` cluster the
    rows, keeping natural cluster sizes but spilling members beyond ``p``
    to the nearest cluster with room. Deterministic given ``seed``, which
    keys the stream ``(seed, _STREAM_PARTITION)``.
    """
    n = len(emb)
    if not n:
        raise ValueError("cannot partition an empty candidate set")
    w = -(-n // cfg.p)  # ceil
    if w == 1:
        return [np.arange(n)]
    rng = np.random.default_rng((seed, _STREAM_PARTITION))
    if cfg.partitioner == "random":
        return [np.sort(c) for c in np.array_split(rng.permutation(n), w)]  # the first n % w one longer

    if cfg.partitioner == "kmeans":
        labels, centers = _kmeans(emb, w, rng)
    else:
        from scipy.cluster.hierarchy import fcluster, linkage

        link = linkage(emb, method="average")
        labels = fcluster(link, t=w, criterion="maxclust") - 1
        centers = np.stack([
            emb[labels == j].mean(axis=0) if np.any(labels == j) else emb.mean(axis=0)
            for j in range(w)
        ])
    return _balance_clusters(emb, labels, centers, cap=cfg.p, w=w)


def _kmeans(emb: np.ndarray, w: int, rng: np.random.Generator, iters: int = 100):
    """Plain seeded Lloyd's iterations; ties break to the lowest cluster."""
    init = rng.choice(emb.shape[0], size=w, replace=False)
    centers = emb[init].copy()
    labels = np.full(emb.shape[0], -1, dtype=int)
    for _ in range(iters):
        new_labels = _distances(emb, centers).argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(w):
            members = emb[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return labels, centers


def _balance_clusters(emb, labels, centers, cap, w) -> list[np.ndarray]:
    """Cap clusters at size ``cap``; overflow members spill to the nearest
    cluster with room. Cluster sizes stay natural below the cap, unlike the
    evenly chunked random partitioner. Ties break to the smaller row."""
    parts: list[list[int]] = []
    spill: list[int] = []
    for j in range(w):
        members = np.flatnonzero(labels == j)
        d = np.linalg.norm(emb[members] - centers[j], axis=1)
        order = members[np.argsort(d, kind="stable")].tolist()
        parts.append(order[:cap])
        spill.extend(order[cap:])
    for r in sorted(spill):
        dists = np.linalg.norm(centers - emb[r], axis=1)
        for j in sorted(range(w), key=lambda j: (dists[j], j)):
            if len(parts[j]) < cap:
                parts[j].append(r)
                break
    return [np.sort(np.array(p, dtype=np.intp)) for p in parts]


def _share(total: int, sizes: Sequence[int]) -> list[int]:
    """Even per-part quotas summing to ``total``; earlier parts take the
    remainder, overflow beyond a part's size spills to later parts."""
    w = len(sizes)
    quotas = [total // w] * w
    for i in range(total % w):
        quotas[i] += 1
    overflow = 0
    for i in range(w):
        if quotas[i] > sizes[i]:
            overflow += quotas[i] - sizes[i]
            quotas[i] = sizes[i]
    i = 0
    while overflow > 0 and i < w:
        room = sizes[i] - quotas[i]
        take = min(room, overflow)
        quotas[i] += take
        overflow -= take
        i += 1
    if overflow:
        raise ValueError("budget exceeds the number of available candidates")
    return quotas


# ---------------------------------------------------------------------------
# Greedy selection
# ---------------------------------------------------------------------------

def _check_terms(terms: Sequence[str]) -> tuple[bool, bool]:
    unknown = set(terms) - set(SCORE_TERMS)
    if unknown or not terms:
        raise ValueError(f"terms must be a nonempty subset of {SCORE_TERMS}, got {terms!r}")
    return "err" in terms, "dist" in terms


def _block_edges(n: int) -> list[int]:
    """Bounds of at most ``_BLOCK``-wide blocks over ``range(n)``, as even as
    possible: numpy would sum a one-column block pairwise, not row by row."""
    nb = -(-n // _BLOCK)
    return [i * n // nb for i in range(nb + 1)]


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``acc + rows[0] + rows[1] + ...`` per column, added in that order:
    numpy sums a C-ordered array down axis 0 one row at a time."""
    stacked = np.empty((len(rows) + 1, len(acc)))
    stacked[0] = acc
    stacked[1:] = rows
    return stacked.sum(axis=0)


def _col_mean(pool: SelectionPool) -> np.ndarray:
    """Mean of each kernel column over the part, from one pass over the
    blocks on and above the diagonal of the kernel.

    Each block ``K[I, J]`` adds rows ``I`` to the sums of columns ``J`` and,
    transposed (the kernel is symmetric bit for bit), rows ``J`` to those of
    columns ``I``. Blocks arrive in row order for every column and are added
    row by row, so each sum is the same sequential sum down axis 0 as
    ``k.mean(axis=0)`` of the full matrix, bit for bit.
    """
    if not pool.ids:
        raise ValueError("empty part")
    emb, edges = pool.emb, _block_edges(len(pool.ids))
    sums = [np.zeros(hi - lo) for lo, hi in zip(edges, edges[1:])]
    for i in range(len(sums)):
        for j in range(i, len(sums)):
            k = kernel_matrix(emb[edges[i] : edges[i + 1]], emb[edges[j] : edges[j + 1]], pool.kp)
            sums[j] = _add_rows(sums[j], k)
            if j > i:
                sums[i] = _add_rows(sums[i], k.T)
    return np.concatenate(sums) / len(pool.ids)


def _kernel_col(pool: SelectionPool, row: int) -> np.ndarray:
    """Kernel values between every candidate and the candidate at ``row``.

    Unchecked: every pick follows the :func:`_col_mean` pass over the same
    part, whose checked :func:`kernel_matrix` blocks cover every row, so
    scanning the whole part for non-finite values again on each pick would
    only repeat that check. The pick goes first: cdist adds each pair's
    squared differences in index order whichever operand comes first, so
    the 1 x n call returns the n x 1 column's values, and it is faster.
    """
    return _kernel(pool.emb[row : row + 1], pool.emb, pool.kp)[0]


class _Picks(NamedTuple):
    rows: list[int]  # picked rows of the pool, in selection order
    pair_sum: float  # sum of k over picked x picked, diagonal included


def _greedy(
    pool: SelectionPool,
    budget: int,
    alpha: float,
    terms: Sequence[str],
    mode: str,
    col_mean: np.ndarray | None,
) -> _Picks:
    """Greedy picks from one part without ever holding the n x n kernel.

    Both scoring modes need only the part's kernel column means
    ``col_mean`` (from :func:`_col_mean`, which ``select`` shares between
    its two calls and the part metadata; None only for a zero budget), the
    diagonal (exactly 1: ``cdist(x, x)`` is 0 there for both kernel
    variants) and one kernel column per pick, fetched on demand, so memory
    is O(n). Those means equal the full matrix's ``k.mean(axis=0)`` bit for
    bit, so the picks equal those of the full-matrix greedy. Ties break to
    the smallest node id.
    """
    n = len(pool.ids)
    if budget == 0:
        return _Picks([], 0.0)
    if budget > n:
        raise ValueError(f"budget {budget} exceeds part size {n}")
    use_err, use_dist = _check_terms(terms)

    ids = np.array(pool.ids)
    err_score = alpha * pool.jcls if use_err else np.zeros(n)

    sub_sum = np.zeros(n)  # sum_{u in selected} k(v, u), per candidate v
    mask = np.zeros(n, dtype=bool)
    selected: list[int] = []
    kaa_mean = float(col_mean.mean())
    s_pair = 0.0  # sum over selected x selected of k (incl. diagonal)
    s_col = 0.0  # sum over selected of their column sums
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
        else:  # exact-marginal: objective value of selected + candidate
            score = np.zeros(n)
            if use_err:
                score += alpha * (s_err + pool.jcls) / (s + 1)
            if use_dist:
                pair_new = s_pair + 2.0 * sub_sum + 1.0
                col_new = s_col + col_mean * n
                score += kaa_mean + pair_new / (s + 1) ** 2 - 2.0 * col_new / (n * (s + 1))
        score[mask] = np.inf
        best = score.min()
        tied = np.flatnonzero(score == best)
        pick = int(tied[np.argmin(ids[tied])])

        s_pair += 2.0 * sub_sum[pick] + 1.0
        s_col += col_mean[pick] * n
        s_err += float(pool.jcls[pick])
        sub_sum += _kernel_col(pool, pick)
        mask[pick] = True
        selected.append(pick)
    return _Picks(selected, s_pair)


def _mmd_from_col_mean(col_mean: np.ndarray, picks: _Picks) -> float:
    """MMD^2 between the part and its picks, from the shared column means:
    ``mean(K) + mean(K_sub,sub) - 2 mean(col_mean[sub])``; 0 when empty."""
    s = len(picks.rows)
    if not s:
        return 0.0
    return float(
        col_mean.mean() + picks.pair_sum / s**2 - 2.0 * col_mean[picks.rows].mean()
    )


def _candidate_pool(graph: TemporalGraph, view: PeriodView, prev: Backbone) -> SelectionPool:
    """What every selector draws from: the period's old-class training nodes."""
    old_train = list(view.nodes_of("old", TRAIN))
    if not old_train:
        raise ValueError(f"period {view.period_index} has no old-class training nodes")
    return build_pool(graph, view, old_train, prev)


def _clamp(name: str, budget: int, n: int) -> int:
    """``budget`` capped at the ``n`` candidates, with a warning when capped."""
    if budget > n:
        warnings.warn(f"budget {name}={budget} exceeds {n} candidates; clamping", stacklevel=3)
    return min(budget, n)


def _entries(graph: TemporalGraph, pool: SelectionPool, rows: Sequence[int]) -> list[SubEntry]:
    ids = [pool.ids[r] for r in rows]
    return [SubEntry(*e) for e in zip(ids, graph.labels(ids).tolist(), pool.jcls[rows].tolist())]


def select(
    graph: TemporalGraph,
    view: PeriodView,
    prev: Backbone,
    cfg: SelectionConfig,
    *,
    seed: int,
    terms: Sequence[str] = SCORE_TERMS,
) -> ReplayBuffer:
    """Partition the period's old-class training nodes and select both
    subsets, with per-part quotas summing exactly to the budgets.

    Budgets larger than the candidate count are clamped with a warning;
    ``m_prime=0`` selects no anchors. Per-part selections are independent;
    the result is deterministic given (graph, snapshot, config, seed).
    ``seed`` keys the partition stream ``(seed, _STREAM_PARTITION)`` and
    the sample of the median heuristic, which sets the kernel bandwidth
    (``gamma=1.0`` for a single candidate).
    """
    pool = _candidate_pool(graph, view, prev)
    n = len(pool.ids)
    m, m_prime = _clamp("m", cfg.m, n), _clamp("m_prime", cfg.m_prime, n)
    kp = median_heuristic_gamma(pool.emb, seed=seed) if n >= 2 else KernelParams(gamma=1.0)
    pool = replace(pool, kp=kp)
    parts = partition(pool.emb, cfg, seed=seed)
    sizes = [len(p) for p in parts]
    quotas_sub = _share(m, sizes)
    quotas_sim = _share(m_prime, sizes)

    sub_rows: list[int] = []
    sim_rows: list[int] = []
    part_ms: list[float] = []
    part_objectives: list[dict] = []
    for w, part in enumerate(parts):
        part_pool = pool.take(part)
        t0 = perf_counter()
        # one blocked kernel pass per part, shared by both greedy calls and
        # the metadata below
        col_mean = _col_mean(part_pool) if quotas_sub[w] or quotas_sim[w] else None
        sub = _greedy(part_pool, quotas_sub[w], cfg.alpha, terms, cfg.scoring_mode, col_mean)
        sim = _greedy(part_pool, quotas_sim[w], 0.0, ("dist",), cfg.scoring_mode, col_mean)
        part_ms.append((perf_counter() - t0) * 1000.0)
        sub_rows.extend(part[sub.rows].tolist())
        sim_rows.extend(part[sim.rows].tolist())
        part_objectives.append({
            "err": float(np.mean(part_pool.jcls[sub.rows])) if sub.rows else 0.0,
            "mmd": _mmd_from_col_mean(col_mean, sub),
            "mmd_sim": _mmd_from_col_mean(col_mean, sim),
            "overlap": len(set(sub.rows) & set(sim.rows)),
        })

    meta = {
        "gamma": kp.gamma,
        "alpha": cfg.alpha,
        "m": m,
        "m_prime": m_prime,
        "p": cfg.p,
        "partitioner": cfg.partitioner,
        "scoring_mode": cfg.scoring_mode,
        "terms": list(terms),
        "seed": seed,
        "part_sizes": sizes,
        "part_ms": part_ms,
        "part_objectives": part_objectives,
    }
    sim_ids = [pool.ids[r] for r in sim_rows]
    return ReplayBuffer(view.period_index, _entries(graph, pool, sub_rows), sim_ids, meta, kp if sim_ids else None)


# ---------------------------------------------------------------------------
# Baseline selectors
# ---------------------------------------------------------------------------

def baseline_select(
    kind: str,
    graph: TemporalGraph,
    view: PeriodView,
    prev: Backbone,
    m: int,
    seed: int = 0,
) -> ReplayBuffer:
    """Class-balanced baseline buffers: seeded ``random`` or mean-matching
    ``herding`` (iteratively pick the node keeping the running embedding
    mean closest to the class mean). ``random`` draws from the stream
    ``(seed, period, _STREAM_BASELINE)``."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    pool = _candidate_pool(graph, view, prev)
    m_eff = _clamp("m", m, len(pool.ids))
    labels = graph.labels(pool.ids)
    by_class = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    quotas = _share(m_eff, [len(rows) for rows in by_class])

    rng = np.random.default_rng((seed, view.period_index, _STREAM_BASELINE))
    chosen: list[int] = []
    for rows, quota in zip(by_class, quotas):
        if quota == 0:
            continue
        if kind == "random":
            chosen.extend(rows[np.sort(rng.choice(len(rows), size=quota, replace=False))].tolist())
        else:
            chosen.extend(rows[_herd_class(pool.emb[rows], quota)].tolist())

    meta = {"kind": kind, "m": m_eff, "seed": seed}
    return ReplayBuffer(view.period_index, _entries(graph, pool, chosen), [], meta)


def _herd_class(emb: np.ndarray, quota: int) -> list[int]:
    """Rows of ``emb`` picked by mean-matching herding; ties break to the
    smallest row (``argmin`` returns the first)."""
    mu = emb.mean(axis=0)
    picked: list[int] = []
    running = np.zeros_like(mu)
    mask = np.zeros(len(emb), dtype=bool)
    for step in range(quota):
        cand_means = (running + emb) / (step + 1)
        dists = np.linalg.norm(cand_means - mu, axis=1)
        dists[mask] = np.inf
        pick = int(dists.argmin())
        mask[pick] = True
        running += emb[pick]
        picked.append(pick)
    return picked
