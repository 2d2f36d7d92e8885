"""RBF kernel matrices, the biased squared-MMD estimator, and the kernel
bound check.

The kernel is ``exp(-gamma * ||x - y||)`` on the *unsquared* Euclidean
distance. Set ``squared=True`` on :class:`KernelParams` for the
conventional ``exp(-gamma * ||x - y||^2)`` variant.

This module is the one home of the scipy distance calls: ``_distances``
imports ``cdist`` and ``median_heuristic_gamma`` imports ``pdist`` at first
use, not at import time. Loading ``scipy.spatial`` takes a large share of
the package's start-up time, and commands such as ``tgcl --help``,
``tgcl gen`` and ``tgcl report`` never compute a distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelParams:
    gamma: float
    squared: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be a positive finite real, got {self.gamma}")


def _as_points(x, name: str) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.size and not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite values")
    return pts


def kernel_matrix(x, y, params: KernelParams) -> np.ndarray:
    """Pairwise kernel values between the rows of ``x`` and ``y``."""
    xp = _as_points(x, "x")
    yp = _as_points(y, "y")
    if xp.shape[1] != yp.shape[1]:
        raise ValueError(f"dimension mismatch: {xp.shape[1]} vs {yp.shape[1]}")
    return _kernel(xp, yp, params)


def _kernel(xp: np.ndarray, yp: np.ndarray, params: KernelParams) -> np.ndarray:
    """:func:`kernel_matrix` without its checks, for 2-d float arrays that a
    checked call has already seen."""
    return np.exp(-params.gamma * _distances(xp, yp, params.squared))


def _distances(xp: np.ndarray, yp: np.ndarray, squared: bool) -> np.ndarray:
    """The pairwise distances that the kernel exponentiates."""
    from scipy.spatial.distance import cdist

    return cdist(xp, yp, "sqeuclidean" if squared else "euclidean")


def mmd_sq(a, b, params: KernelParams) -> float:
    """Biased V-statistic estimate of the squared MMD between two samples.

    All three double sums include the diagonal self-terms, so the value is
    nonnegative up to rounding and exactly zero for identical samples.
    """
    ap = _as_points(a, "a")
    bp = _as_points(b, "b")
    if ap.shape[0] == 0 or bp.shape[0] == 0:
        raise ValueError("mmd_sq requires nonempty sample sets")
    kaa = float(kernel_matrix(ap, ap, params).mean())
    kbb = float(kernel_matrix(bp, bp, params).mean())
    kab = float(kernel_matrix(ap, bp, params).mean())
    return kaa + kbb - 2.0 * kab


@dataclass(frozen=True)
class KernelBoundReport:
    """Result of the sufficient-condition check for diminishing returns."""

    max_offdiag: float
    bound: float
    satisfied: bool


def kernel_bound_check(embeddings, params: KernelParams, n_ref: int) -> KernelBoundReport:
    """Check ``max k(v,u) <= 1 / (n^3 - 2n^2 - 2n - 3)`` over distinct pairs.

    The bound is the sufficient condition under which greedy selection on
    the squared-MMD objective enjoys diminishing returns. It is advisory:
    selection proceeds regardless of the outcome, because for realistic
    ``n`` the bound forces a nearly degenerate kernel.
    """
    denom = n_ref**3 - 2 * n_ref**2 - 2 * n_ref - 3
    if denom <= 0:
        raise ValueError(f"n_ref={n_ref} gives nonpositive bound denominator {denom}; need n_ref >= 4")
    bound = 1.0 / denom
    pts = _as_points(embeddings, "embeddings")
    if pts.shape[0] < 2:
        max_offdiag = 0.0
    else:
        k = kernel_matrix(pts, pts, params)
        np.fill_diagonal(k, -np.inf)
        max_offdiag = float(k.max())
    return KernelBoundReport(max_offdiag=max_offdiag, bound=bound, satisfied=max_offdiag <= bound)


def median_heuristic_gamma(
    embeddings,
    seed: int = 0,
    sample_cap: int = 1000,
    squared: bool = False,
) -> KernelParams:
    """Bandwidth rule: gamma = 1 / median pairwise distance.

    At most ``sample_cap`` points are used (seeded subsample), so the rule
    stays cheap on large sets and is deterministic given the seed. Falls
    back to gamma = 1 when all sampled points coincide.
    """
    pts = _as_points(embeddings, "embeddings")
    if pts.shape[0] < 2:
        raise ValueError("median heuristic needs at least two points")
    if pts.shape[0] > sample_cap:
        rng = np.random.default_rng(seed)
        idx = rng.choice(pts.shape[0], size=sample_cap, replace=False)
        pts = pts[np.sort(idx)]
    from scipy.spatial.distance import pdist

    # the distances are ours alone, so the median may partition them in
    # place instead of a copy: the same value, half the peak memory
    med = float(np.median(pdist(pts), overwrite_input=True))
    gamma = 1.0 / med if med > 0 else 1.0
    return KernelParams(gamma=gamma, squared=squared)
