import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgcl.kernels import (
    KernelParams,
    kernel_matrix,
    median_heuristic_gamma,
    mmd_sq,
)

from oracles import j_mmd, rbf, reference_median_gamma

P1 = KernelParams(gamma=1.0)


def mmd_sq_oracle(a, b, gamma):
    """Literal triple-sum evaluation of the biased squared-MMD display."""
    a = [np.asarray(x, float) for x in a]
    b = [np.asarray(x, float) for x in b]

    def k(x, y):
        return math.exp(-gamma * math.sqrt(sum((xi - yi) ** 2 for xi, yi in zip(x, y))))

    saa = sum(k(x, y) for x in a for y in a) / len(a) ** 2
    sbb = sum(k(x, y) for x in b for y in b) / len(b) ** 2
    sab = sum(k(x, y) for x in a for y in b) / (len(a) * len(b))
    return saa + sbb - 2.0 * sab


class TestRbf:
    def test_self_similarity_is_one(self):
        x = np.array([1.5, -2.0, 0.25])
        for gamma in (0.1, 1.0, 10.0):
            assert rbf(x, x, KernelParams(gamma)) == 1.0

    def test_hand_value(self):
        # exp(-1 * |0 - 3|) = e^-3
        assert rbf([0.0], [3.0], P1) == pytest.approx(math.exp(-3.0), abs=1e-15)

    def test_monotone_decrease_in_gamma(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            vals = [rbf(x, y, KernelParams(g)) for g in (0.1, 0.5, 1.0, 2.0, 8.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            rbf([1.0, 2.0], [1.0], P1)

    def test_non_finite_input(self):
        with pytest.raises(ValueError):
            rbf([np.nan], [1.0], P1)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=4),
        st.lists(st.floats(-5, 5), min_size=2, max_size=4),
        st.floats(0.05, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_symmetry(self, xs, ys, gamma):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        p = KernelParams(gamma)
        v = rbf(x, y, p)
        assert 0.0 < v <= 1.0
        assert v == pytest.approx(rbf(y, x, p), abs=1e-15)


class TestMmdSq:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 3))
        assert abs(mmd_sq(a, a, P1)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(5, 2)), rng.normal(size=(7, 2))
        assert mmd_sq(a, b, P1) == pytest.approx(mmd_sq(b, a, P1), abs=1e-15)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
        assert mmd_sq(a, b, P1) == pytest.approx(mmd_sq_oracle(a, b, 1.0), abs=1e-12)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mmd_sq(np.zeros((0, 2)), np.zeros((3, 2)), P1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(rng.integers(1, 8), 3))
        b = rng.normal(size=(rng.integers(1, 8), 3))
        assert mmd_sq(a, b, P1) >= -1e-12


class TestJMmd:
    def test_empty_subset_strictly_negative(self):
        rng = np.random.default_rng(4)
        old = rng.normal(size=(5, 3))
        v = rng.normal(size=3)
        assert j_mmd(v, [], old, P1) < 0.0

    def test_singleton_identity(self):
        v = np.array([0.3, -0.7])
        assert j_mmd(v, [v], [v], P1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        old = rng.normal(size=(6, 2))
        sub = rng.normal(size=(2, 2))
        v = rng.normal(size=2)
        gamma = 0.7
        p = KernelParams(gamma)

        def k(x, y):
            return math.exp(-gamma * math.sqrt(((x - y) ** 2).sum()))

        expected = (2 / len(sub)) * sum(k(v, u) for u in sub) - (2 / len(old)) * sum(
            k(v, u) for u in old
        )
        assert j_mmd(v, sub, old, p) == pytest.approx(expected, abs=1e-12)

    def test_empty_old_rejected(self):
        with pytest.raises(ValueError):
            j_mmd(np.ones(2), np.ones((1, 2)), np.zeros((0, 2)), P1)


class TestMedianHeuristic:
    def test_two_points(self):
        p = median_heuristic_gamma(np.array([[0.0], [2.0]]))
        assert p.gamma == pytest.approx(0.5, abs=1e-15)

    def test_scale_homogeneity(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(20, 3))
        g1 = median_heuristic_gamma(pts).gamma
        g2 = median_heuristic_gamma(4.0 * pts).gamma
        assert g2 == pytest.approx(g1 / 4.0, rel=1e-12)

    def test_matches_exhaustive_median(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(100, 2))
        dists = [
            float(np.linalg.norm(pts[i] - pts[j]))
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ]
        expected = 1.0 / float(np.median(dists))
        assert median_heuristic_gamma(pts).gamma == pytest.approx(expected, rel=1e-12)

    def test_identical_points_fallback(self):
        p = median_heuristic_gamma(np.zeros((5, 2)))
        assert p.gamma == 1.0

    def test_deterministic_subsample(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(1500, 2))
        a = median_heuristic_gamma(pts, seed=3).gamma
        b = median_heuristic_gamma(pts, seed=3).gamma
        assert a == b

    # n points give n(n-1)/2 distances: 1, 3, 6, 10, 15, 780 and 820
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 40, 41])
    @pytest.mark.parametrize("kind", ["normal", "grid", "coincident"])
    def test_equals_median_of_a_copy_bit_for_bit(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "normal":
            pts = rng.normal(size=(n, 3))
        elif kind == "grid":  # few distinct distances, so the middle ones tie
            pts = rng.integers(0, 3, size=(n, 2)).astype(float)
        else:
            pts = np.full((n, 3), 0.7)
        want = reference_median_gamma(pts)
        assert median_heuristic_gamma(pts).gamma == want
        if kind == "coincident":
            assert want == 1.0

    def test_sample_above_the_cap_equals_oracle(self):
        pts = np.random.default_rng(9).integers(0, 4, size=(60, 2)).astype(float)
        sample = np.sort(np.random.default_rng(5).choice(60, size=25, replace=False))
        assert median_heuristic_gamma(pts, seed=5, sample_cap=25).gamma == reference_median_gamma(pts[sample])

    def test_peak_memory_is_below_two_distance_vectors(self):
        # the median partitions the distances in place, not a copy of them
        pts = np.random.default_rng(10).normal(size=(1000, 8))
        vector = 1000 * 999 // 2 * 8  # bytes of the pdist result
        tracemalloc.start()
        try:
            median_heuristic_gamma(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vector <= peak < 2 * vector


def test_kernel_matrix_offdiag_monotone_in_gamma():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(8, 3))
    prev = None
    for gamma in (0.2, 0.5, 1.0, 3.0):
        k = kernel_matrix(pts, pts, KernelParams(gamma))
        off = k[~np.eye(len(pts), dtype=bool)]
        if prev is not None:
            assert (off < prev).all()
        prev = off


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        KernelParams(0.0)
    with pytest.raises(ValueError):
        KernelParams(-1.0)
