import itertools
import json
import math

import numpy as np
import pytest

import tgcl.backbone as backbone_module
import tgcl.selector as selector_module
from tgcl.backbone import Backbone, input_dim, node_inputs, snapshot
from tgcl.graph import SynthConfig, generate_synthetic, split_period
from tgcl.kernels import KernelParams, kernel_matrix, median_heuristic_gamma, mmd_sq
from tgcl.selector import (
    SCORE_TERMS,
    SCORING_MODES,
    _BLOCK,
    SelectionConfig,
    SelectionPool,
    SubEntry,
    _kernel_col,
    _share,
    baseline_select,
    build_pool,
    partition,
    select,
    subset_objective,
)

from conftest import trained_toy_snapshot
from oracles import (
    brute_force_select,
    greedy_reference,
    greedy_select_sim,
    greedy_select_sub,
    j_cls,
    reference_partition,
    reference_pool_scores,
)


def make_pool(rng, n, dim=2, gamma=1.0, jcls=None, ids=None):
    emb = rng.normal(size=(n, dim))
    jc = np.abs(rng.normal(size=n)) + 0.01 if jcls is None else np.asarray(jcls, float)
    ids = tuple(range(n)) if ids is None else tuple(ids)
    return SelectionPool(ids=ids, emb=emb, jcls=jc, kp=KernelParams(gamma))


def flat_model(feature_dim=2, hidden_dim=4, classes=(0, 1, 2)):
    """Model whose embedding is all-ones regardless of input."""
    model = Backbone(feature_dim, hidden_dim=hidden_dim, seed=0)
    model.w_agg[:] = 0.0
    model.w_hid[:] = 0.0
    model.b_hid[:] = 1.0
    model.grow_head(list(classes))
    model.w_head[:] = 0.0
    return model


def zero_input(feature_dim=2):
    """Input row of a node with a zero feature and no neighbours."""
    return np.zeros(input_dim(feature_dim))


class TestJCls:
    def test_perfect_prediction_zero_loss(self):
        model = flat_model()
        model.w_head[0, :] = 25.0  # logit 100 for class 0, 0 elsewhere
        assert j_cls(snapshot(model), zero_input(), 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction_log_c(self):
        model = flat_model(classes=(0, 1, 2))
        assert j_cls(snapshot(model), zero_input(), 1) == pytest.approx(math.log(3), abs=1e-12)

    def test_matches_hand_log_loss(self):
        model = flat_model(classes=(0, 1, 2))
        rng = np.random.default_rng(0)
        model.w_head = rng.normal(size=model.w_head.shape)
        logits = model.w_head.sum(axis=1)  # embedding is all ones
        exps = [math.exp(l - max(logits)) for l in logits]
        expected = -math.log(exps[2] / sum(exps))
        assert j_cls(snapshot(model), zero_input(), 2) == pytest.approx(expected, abs=1e-12)

    def test_unknown_label_rejected(self):
        model = flat_model(classes=(0, 1))
        with pytest.raises(ValueError, match="unknown"):
            j_cls(snapshot(model), zero_input(), 9)


def as_lists(parts):
    """Parts as lists of rows, after checking that each is an ascending
    integer array."""
    for part in parts:
        assert part.dtype.kind == "i" and np.all(np.diff(part) > 0)
    return [part.tolist() for part in parts]


class TestPartition:
    def cfg(self, p, partitioner="random", m=1):
        return SelectionConfig(m=m, m_prime=0, p=p, partitioner=partitioner)

    def test_single_part_when_small(self):
        parts = partition(np.zeros((8, 2)), self.cfg(p=10), seed=0)
        assert as_lists(parts) == [list(range(8))]

    def test_even_chunking_25_by_10(self):
        parts = as_lists(partition(np.zeros((25, 2)), self.cfg(p=10), seed=0))
        assert sorted(len(p) for p in parts) == [8, 8, 9]
        assert sorted(v for part in parts for v in part) == list(range(25))

    def test_random_preserves_class_proportions_at_scale(self):
        # parts of >= 1152 samples keep per-class proportions within 10%
        graph = generate_synthetic(
            SynthConfig(
                num_periods=2,
                classes_per_period=3,
                nodes_per_class_per_period=1000,
                events_per_node=2,
                seed=4,
            )
        )
        view = split_period(graph, 2)
        old_train = list(view.nodes_of("old", "train"))
        assert len(old_train) >= 2304
        cfg = self.cfg(p=(len(old_train) + 1) // 2)
        features = graph.nodes.features[graph.nodes.rows_of(old_train)]
        parts = [[old_train[r] for r in part] for part in as_lists(partition(features, cfg, seed=4))]
        assert all(len(p) >= 1152 for p in parts)
        labels = dict(zip(old_train, graph.labels(old_train).tolist()))
        classes = sorted(set(labels.values()))
        overall = {
            c: sum(labels[v] == c for v in old_train) / len(old_train)
            for c in classes
        }
        for part in parts:
            for c in classes:
                frac = sum(labels[v] == c for v in part) / len(part)
                assert abs(frac - overall[c]) <= 0.10

    @pytest.mark.parametrize("method", ["kmeans", "hierarchical"])
    def test_clustering_partitioners_cap_sizes(self, method):
        rng = np.random.default_rng(5)
        emb = rng.normal(size=(40, 3))
        cfg = self.cfg(p=12, partitioner=method)
        parts = as_lists(partition(emb, cfg, seed=5))
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 40
        assert max(sizes) <= 12  # capped at p, natural sizes below the cap
        assert sorted(v for part in parts for v in part) == list(range(40))
        again = as_lists(partition(emb, cfg, seed=5))
        assert parts == again

    def test_deterministic_given_seed(self):
        emb = np.zeros((30, 2))
        a = as_lists(partition(emb, self.cfg(p=7), seed=9))
        b = as_lists(partition(emb, self.cfg(p=7), seed=9))
        c = as_lists(partition(emb, self.cfg(p=7), seed=10))
        assert a == b
        assert a != c

    @staticmethod
    def candidates(case):
        """Sorted, gapped node ids and their embeddings for ``case``:
        ``spread`` (distinct points), ``spill`` (30 identical points, one
        cluster beyond any cap of 12) or ``few`` (two distinct points, so
        ``fcluster`` finds fewer clusters than parts)."""
        rng = np.random.default_rng(11)
        if case == "spread":
            emb = rng.normal(size=(95, 3))
        elif case == "spill":
            emb = np.vstack([np.zeros((30, 3)), rng.normal(loc=4.0, size=(10, 3))])
        else:
            emb = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), [23, 17], axis=0)
        ids = np.sort(rng.choice(10_000, size=len(emb), replace=False)).tolist()
        order = rng.permutation(len(emb))  # ids in order, embeddings in no cluster order
        return ids, emb[order]

    @pytest.mark.parametrize("case,p", [("spread", 20), ("spill", 12), ("few", 10)])
    @pytest.mark.parametrize("method", ["random", "kmeans", "hierarchical"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_rows_match_reference_partition(self, case, p, method, seed):
        ids, emb = self.candidates(case)
        cfg = self.cfg(p=p, partitioner=method)
        parts = as_lists(partition(emb, cfg, seed=seed))
        assert len(parts) == -(-len(ids) // p) > 1
        assert [[ids[r] for r in part] for part in parts] == reference_partition(ids, emb, cfg, seed)


class TestShare:
    def test_remainder_to_first_parts(self):
        assert _share(10, [9, 8, 8]) == [4, 3, 3]

    def test_exact_total(self):
        for total in range(0, 20):
            quotas = _share(total, [7, 7, 6])
            assert sum(quotas) == total

    def test_overflow_spills_to_later_parts(self):
        assert _share(10, [2, 8, 8]) == [2, 5, 3]

    def test_too_large_budget_raises(self):
        with pytest.raises(ValueError):
            _share(30, [9, 8, 8])


class TestGreedy:
    def cfg(self, **kw):
        base = dict(alpha=1.0, m=3, m_prime=3, p=100)
        base.update(kw)
        return SelectionConfig(**base)

    def test_budget_equals_part_returns_everything(self):
        pool = make_pool(np.random.default_rng(0), 6)
        chosen = greedy_select_sub(pool, 6, self.cfg())
        assert sorted(chosen) == list(pool.ids)

    def test_first_pick_is_herding_centroid(self):
        rng = np.random.default_rng(1)
        pool = make_pool(rng, 10)
        chosen = greedy_select_sub(pool, 1, self.cfg(alpha=0.0))
        # exhaustive scoring of the empty-subset witness
        from tgcl.kernels import kernel_matrix

        k = kernel_matrix(pool.emb, pool.emb, pool.kp)
        scores = -2.0 * k.mean(axis=0)
        assert chosen == [pool.ids[int(scores.argmin())]]

    def test_greedy_beats_most_subsets(self):
        cfg = self.cfg(alpha=1.0)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pool = make_pool(rng, 10)
            chosen = greedy_select_sub(pool, 3, cfg)
            greedy_obj = subset_objective(pool, np.searchsorted(pool.ids, chosen), 1.0).total
            all_objs = [
                subset_objective(pool, comb, 1.0).total
                for comb in itertools.combinations(range(10), 3)
            ]
            beaten = sum(1 for o in all_objs if greedy_obj <= o + 1e-12)
            assert beaten >= 0.9 * len(all_objs), f"seed {seed}: {beaten}/120"

    def test_exact_marginal_mode_minimizes_each_step(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pool = make_pool(rng, 10)
            cfg = self.cfg(scoring_mode="exact-marginal")
            chosen = greedy_select_sub(pool, 4, cfg)
            picked_rows = []
            remaining = set(range(10))
            for v in chosen:
                row = int(np.searchsorted(pool.ids, v))
                best = min(
                    subset_objective(pool, picked_rows + [r], 1.0).total for r in remaining
                )
                mine = subset_objective(pool, picked_rows + [row], 1.0).total
                assert mine <= best + 1e-9
                picked_rows.append(row)
                remaining.discard(row)

    def test_tie_break_smallest_id(self):
        # identical embeddings and losses: every score ties, ids decide
        emb = np.ones((5, 2))
        pool = SelectionPool(
            ids=(50, 10, 40, 20, 30), emb=emb, jcls=np.ones(5), kp=KernelParams(1.0)
        )
        chosen = greedy_select_sub(pool, 3, self.cfg())
        assert chosen == [10, 20, 30]

    def test_diminishing_returns_when_bound_holds(self):
        # 5 far-apart points with a kernel satisfying the sufficient
        # condition max k(v, u) <= 1 / (n^3 - 2n^2 - 2n - 3), which is 1/62
        # for n = 5, and equal per-node losses: objective gains shrink
        emb = np.array([[0.0], [5.0], [10.0], [15.0], [20.0]])
        kp = KernelParams(1.0)
        n = len(emb)
        max_offdiag = kernel_matrix(emb, emb, kp)[~np.eye(n, dtype=bool)].max()
        assert max_offdiag == pytest.approx(math.exp(-5.0), rel=1e-15)  # about 0.0067
        assert n**3 - 2 * n**2 - 2 * n - 3 == 62 and max_offdiag <= 1 / 62
        pool = SelectionPool(ids=tuple(range(5)), emb=emb, jcls=np.ones(5), kp=kp)
        chosen = greedy_select_sub(pool, 5, self.cfg(m=4, p=100))
        objs = [
            subset_objective(pool, np.searchsorted(pool.ids, chosen[: t + 1]), 1.0).total
            for t in range(5)
        ]
        gains = [objs[t] - objs[t + 1] for t in range(4)]
        assert all(g >= -1e-12 for g in gains)
        assert all(gains[t + 1] <= gains[t] + 1e-12 for t in range(3))

    def test_sim_budget_zero(self):
        pool = make_pool(np.random.default_rng(2), 5)
        assert greedy_select_sim(pool, 0, self.cfg()) == []

    def test_sim_identical_pair(self):
        emb = np.array([[1.0, 2.0], [1.0, 2.0]])
        pool = SelectionPool(ids=(0, 1), emb=emb, jcls=np.zeros(2), kp=KernelParams(1.0))
        chosen = greedy_select_sim(pool, 1, self.cfg())
        assert len(chosen) == 1
        assert mmd_sq(emb, emb[np.searchsorted(pool.ids, chosen)], pool.kp) == pytest.approx(0.0, abs=1e-12)

    def test_sim_beats_random_subsets(self):
        rng = np.random.default_rng(3)
        pool = make_pool(rng, 12)
        chosen = greedy_select_sim(pool, 4, self.cfg())
        ours = mmd_sq(pool.emb, pool.emb[np.searchsorted(pool.ids, chosen)], pool.kp)
        wins = 0
        for _ in range(1000):
            rows = rng.choice(12, size=4, replace=False)
            if ours <= mmd_sq(pool.emb, pool.emb[rows], pool.kp) + 1e-12:
                wins += 1
        assert wins >= 950

    def test_empty_part_rejected(self):
        pool = SelectionPool(ids=(), emb=np.zeros((0, 2)), jcls=np.zeros(0), kp=KernelParams(1.0))
        with pytest.raises(ValueError):
            greedy_select_sub(pool, 1, self.cfg())


def pool_with_duplicates(rng, n, dim=3):
    """Random pool in which about a third of the points (and their losses)
    repeat earlier ones, so candidates tie exactly."""
    emb = rng.normal(size=(n, dim))
    jc = np.abs(rng.normal(size=n)) + 0.01
    dup = rng.choice(n, size=n // 3, replace=False)
    src = rng.integers(0, n, size=n // 3)
    emb[dup], jc[dup] = emb[src], jc[src]
    ids = tuple(int(v) for v in rng.permutation(10 * n)[:n])
    gamma = float(rng.uniform(0.3, 2.0))
    return SelectionPool(ids=ids, emb=emb, jcls=jc, kp=KernelParams(gamma))


class TestKernelColumn:
    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_equals_kernel_matrix_column(self, n):
        pool = pool_with_duplicates(np.random.default_rng(n), n)
        pool.emb[-1] = pool.emb[0]  # a duplicate at every size but 1
        for row in range(n):
            want = kernel_matrix(pool.emb, pool.emb[row : row + 1], pool.kp)[:, 0]
            assert np.array_equal(_kernel_col(pool, row), want), row


class TestOnePassGreedy:
    """The blocked one-pass greedy against the full-matrix reference."""

    @pytest.mark.parametrize("mode", SCORING_MODES)
    @pytest.mark.parametrize("terms", [SCORE_TERMS, ("dist",), ("err",)])
    def test_picks_equal_full_matrix_reference(self, mode, terms):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            pool = pool_with_duplicates(rng, n)
            alpha = float(rng.uniform(0.0, 2.0))
            for budget in sorted({1, n // 2, n - 1, n} - {0}):
                cfg = SelectionConfig(alpha=alpha, m=1, p=n + 1, scoring_mode=mode)
                got = greedy_select_sub(pool, budget, cfg, terms)
                assert got == greedy_reference(pool, budget, alpha, terms, mode), (seed, budget)

    @pytest.mark.parametrize("mode", SCORING_MODES)
    def test_picks_equal_reference_across_blocks(self, mode):
        rng = np.random.default_rng(7)
        pool = pool_with_duplicates(rng, 2 * _BLOCK + 37, dim=4)
        cfg = SelectionConfig(alpha=0.3, m=1, p=len(pool.ids) + 1, scoring_mode=mode)
        assert greedy_select_sub(pool, 40, cfg) == greedy_reference(
            pool, 40, 0.3, SCORE_TERMS, mode
        )
        assert greedy_select_sim(pool, 40, cfg) == greedy_reference(
            pool, 40, 0.0, ("dist",), mode
        )

    @pytest.mark.parametrize(
        "n", [1, 2, 3, _BLOCK, _BLOCK + 1, _BLOCK + 5, 2 * _BLOCK + 1, 3 * _BLOCK + 37]
    )
    def test_column_means_bit_identical_to_full_matrix(self, n):
        pool = pool_with_duplicates(np.random.default_rng(n), n, dim=8)
        full = kernel_matrix(pool.emb, pool.emb, pool.kp).mean(axis=0)
        assert np.array_equal(selector_module._col_mean(pool), full)


class TestSelectMemory:
    def test_no_call_holds_a_full_kernel(self, monkeypatch):
        graph = generate_synthetic(
            SynthConfig(
                num_periods=2,
                classes_per_period=3,
                nodes_per_class_per_period=625,
                events_per_node=2,
                seed=4,
            )
        )
        view = split_period(graph, 2)
        n = len(view.nodes_of("old", "train"))
        assert 2500 <= n <= 3500
        model = Backbone(graph.feature_dim, hidden_dim=16, seed=0)
        model.grow_head(sorted(graph.period(1).classes))
        model.grow_head(sorted(graph.period(2).classes))

        sizes: list[int] = []

        def recording_kernel_matrix(x, y, params):
            k = kernel_matrix(x, y, params)
            sizes.append(k.size)
            return k

        monkeypatch.setattr(selector_module, "kernel_matrix", recording_kernel_matrix)
        cfg = SelectionConfig(alpha=0.005, m=30, m_prime=200, p=n + 1)
        buffer = select(graph, view, snapshot(model), cfg, seed=0)
        assert buffer.meta["part_sizes"] == [n]
        assert max(sizes) <= n * _BLOCK
        assert sum(sizes) <= 1.2 * n * n


class TestBruteForce:
    def test_full_budget_returns_all(self):
        rng = np.random.default_rng(4)
        pool = make_pool(rng, 5)
        ids, obj = brute_force_select(pool, 5, SelectionConfig(m=4, p=100))
        assert ids == tuple(pool.ids)
        assert obj == pytest.approx(1.0 * float(pool.jcls.mean()), abs=1e-12)

    def test_optimum_bounds_greedy(self):
        cfg = SelectionConfig(alpha=1.0, m=2, p=100)
        for seed in range(20):
            pool = make_pool(np.random.default_rng(seed), 6)
            _, best = brute_force_select(pool, 2, cfg)
            greedy = greedy_select_sub(pool, 2, cfg)
            greedy_obj = subset_objective(pool, np.searchsorted(pool.ids, greedy), cfg.alpha).total
            assert best <= greedy_obj + 1e-12

    def test_instance_too_large(self):
        pool = make_pool(np.random.default_rng(5), 17)
        with pytest.raises(ValueError, match="too large"):
            brute_force_select(pool, 2, SelectionConfig(m=2, p=100))


def with_median_kernel(pool, seed):
    """The pool with the kernel ``select`` gives it: median-heuristic bandwidth."""
    return SelectionPool(pool.ids, pool.emb, pool.jcls, median_heuristic_gamma(pool.emb, seed=seed))


@pytest.fixture(scope="module")
def sel_setting():
    graph = generate_synthetic(
        SynthConfig(
            num_periods=2,
            classes_per_period=3,
            nodes_per_class_per_period=30,
            feature_dim=4,
            seed=8,
        )
    )
    view = split_period(graph, 2)
    prev = trained_toy_snapshot(graph, split_period(graph, 1), seed=8)
    return graph, view, prev


class TestBuildPool:
    def test_jcls_matches_per_node_oracle(self, sel_setting):
        graph, view, prev = sel_setting
        old_train = list(view.nodes_of("old", "train"))
        pool = build_pool(graph, view, old_train, prev)
        z = node_inputs(graph, old_train, graph.period(2).t_end)
        assert len(pool.jcls) == len(old_train)
        for v, row, jc in zip(old_train, z, pool.jcls):
            assert jc == pytest.approx(j_cls(prev, row, int(graph.labels([v])[0])), rel=1e-12, abs=1e-15)

    def test_one_forward_gives_the_two_forward_scores(self, sel_setting, monkeypatch):
        graph, view, prev = sel_setting
        old_train = list(view.nodes_of("old", "train"))
        emb, jcls = reference_pool_scores(graph, 2, old_train, prev)
        rows: list[int] = []
        forward = backbone_module._forward

        def counting(model, z):
            rows.append(len(z))
            return forward(model, z)

        monkeypatch.setattr(backbone_module, "_forward", counting)
        pool = build_pool(graph, view, old_train, prev)
        assert rows == [len(old_train)]
        assert np.array_equal(pool.emb, emb) and np.array_equal(pool.jcls, jcls)

    def test_bandwidth_computed_only_by_select(self, sel_setting, monkeypatch):
        graph, view, prev = sel_setting
        old_train = list(view.nodes_of("old", "train"))
        assert build_pool(graph, view, old_train, prev).kp is None
        cfg = SelectionConfig(m=6, m_prime=4, p=30)
        buffer = select(graph, view, prev, cfg, seed=3)
        pool = with_median_kernel(build_pool(graph, view, old_train, prev), 3)
        assert buffer.meta["gamma"] == pool.kp.gamma

        def forbidden(*args, **kwargs):
            raise AssertionError("baselines do not use a kernel bandwidth")

        monkeypatch.setattr(selector_module, "median_heuristic_gamma", forbidden)
        for kind in ("random", "herding"):
            assert len(baseline_select(kind, graph, view, prev, 6, seed=0).sub) == 6


class TestSelect:
    def test_single_partition_matches_direct_greedy(self, sel_setting):
        graph, view, prev = sel_setting
        old_train = list(view.nodes_of("old", "train"))
        cfg = SelectionConfig(m=6, m_prime=4, p=len(old_train) + 1)
        buffer = select(graph, view, prev, cfg, seed=1)
        pool = with_median_kernel(build_pool(graph, view, old_train, prev), 1)
        direct = greedy_select_sub(pool, 6, cfg)
        assert buffer.sub_ids == direct
        assert buffer.sim == greedy_select_sim(pool, 4, cfg)

    def test_budget_exactness_and_quota_split(self, sel_setting):
        graph, view, prev = sel_setting
        n_old = len(view.nodes_of("old", "train"))
        cfg = SelectionConfig(m=10, m_prime=7, p=(n_old + 2) // 3)
        buffer = select(graph, view, prev, cfg, seed=2)
        assert len(buffer.sub) == 10
        assert len(buffer.sim) == 7
        assert len(buffer.meta["part_sizes"]) == 3
        assert set(buffer.sub_ids) <= set(view.nodes_of("old", "train"))
        assert set(buffer.sim) <= set(view.nodes_of("old", "train"))

    def test_clamped_with_warning(self, sel_setting):
        graph, view, prev = sel_setting
        n_old = len(view.nodes_of("old", "train"))
        cfg = SelectionConfig(m=n_old + 50, m_prime=0, p=n_old + 100)
        with pytest.warns(UserWarning, match="clamping"):
            buffer = select(graph, view, prev, cfg, seed=3)
        assert len(buffer.sub) == n_old

    def test_deterministic(self, sel_setting):
        graph, view, prev = sel_setting
        cfg = SelectionConfig(m=8, m_prime=5, p=30)
        a = select(graph, view, prev, cfg, seed=4)
        b = select(graph, view, prev, cfg, seed=4)
        da, db = a.to_json_dict(), b.to_json_dict()
        da["config"].pop("part_ms"), db["config"].pop("part_ms")
        assert da == db

    def test_part_objectives_match_oracles(self, sel_setting):
        graph, view, prev = sel_setting
        cfg = SelectionConfig(alpha=0.5, m=8, m_prime=6, p=30)
        buffer = select(graph, view, prev, cfg, seed=7)
        pool = with_median_kernel(build_pool(graph, view, list(view.nodes_of("old", "train")), prev), 7)
        parts = partition(pool.emb, cfg, seed=7)
        objectives = buffer.meta["part_objectives"]
        assert len(objectives) == len(parts) == len(buffer.meta["part_ms"])
        sub, sim = set(buffer.sub_ids), set(buffer.sim)
        for part, obj in zip(parts, objectives):
            part_pool = pool.take(part)
            sub_rows = [r for r, v in enumerate(part_pool.ids) if v in sub]
            sim_rows = [r for r, v in enumerate(part_pool.ids) if v in sim]
            expected = subset_objective(part_pool, sub_rows, cfg.alpha)
            assert obj["err"] == pytest.approx(expected.err, rel=1e-12)
            assert obj["mmd"] == pytest.approx(expected.dist, rel=1e-10, abs=1e-14)
            assert obj["mmd_sim"] == pytest.approx(
                mmd_sq(part_pool.emb, part_pool.emb[sim_rows], pool.kp), rel=1e-10, abs=1e-14
            )
            assert obj["overlap"] == len(sub & sim & set(part_pool.ids))
        assert all(ms > 0 for ms in buffer.meta["part_ms"])

    def test_part_objectives_zero_without_anchors(self, sel_setting):
        graph, view, prev = sel_setting
        buffer = select(graph, view, prev, SelectionConfig(m=4, m_prime=0, p=30), seed=1)
        for obj in buffer.meta["part_objectives"]:
            assert obj["mmd_sim"] == 0.0 and obj["overlap"] == 0

    def test_frozen_jcls_scores_valid(self, sel_setting):
        graph, view, prev = sel_setting
        cfg = SelectionConfig(m=8, m_prime=0, p=30)
        buffer = select(graph, view, prev, cfg, seed=5)
        for entry in buffer.sub:
            assert entry.j_cls >= 0.0
            assert graph.labels([entry.node_id]).tolist() == [entry.label]

    def test_json_round_trip(self, sel_setting, tmp_path):
        graph, view, prev = sel_setting
        cfg = SelectionConfig(m=5, m_prime=3, p=30)
        buffer = select(graph, view, prev, cfg, seed=6)
        path = tmp_path / "buffer.json"
        buffer.save(path)
        saved = json.loads(path.read_text())
        assert saved["period"] == buffer.period_built
        assert [SubEntry(e["id"], e["label"], e["j_cls"]) for e in saved["sub"]] == buffer.sub
        assert saved["sim"] == buffer.sim

    def test_no_old_nodes_rejected(self, sel_setting):
        graph, _, prev = sel_setting
        view1 = split_period(graph, 1)
        with pytest.raises(ValueError, match="no old-class"):
            select(graph, view1, prev, SelectionConfig(m=2, p=10), seed=0)


class TestBaselines:
    def test_everything_selected_when_budget_large(self, sel_setting):
        graph, view, prev = sel_setting
        n_old = len(view.nodes_of("old", "train"))
        with pytest.warns(UserWarning, match="clamping"):
            buffer = baseline_select("random", graph, view, prev, n_old + 10, seed=0)
        assert sorted(buffer.sub_ids) == list(view.nodes_of("old", "train"))

    def test_random_is_class_balanced(self, sel_setting):
        graph, view, prev = sel_setting
        buffer = baseline_select("random", graph, view, prev, 12, seed=1)
        counts: dict[int, int] = {}
        for entry in buffer.sub:
            counts[entry.label] = counts.get(entry.label, 0) + 1
        assert sum(counts.values()) == 12
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_herding_first_pick_is_class_mean_argmin(self, sel_setting):
        graph, view, prev = sel_setting
        buffer = baseline_select("herding", graph, view, prev, 3, seed=2)
        old_train = list(view.nodes_of("old", "train"))
        pool = build_pool(graph, view, old_train, prev)
        by_class: dict[int, list[int]] = {}
        for v in old_train:
            by_class.setdefault(int(graph.labels([v])[0]), []).append(v)
        first_of_class: dict[int, int] = {}
        for entry in buffer.sub:
            first_of_class.setdefault(entry.label, entry.node_id)
        for c, ids in sorted(by_class.items()):
            rows = np.searchsorted(pool.ids, sorted(ids))
            emb = pool.emb[rows]
            mu = emb.mean(axis=0)
            dists = np.linalg.norm(emb - mu, axis=1)
            expected = sorted(ids)[int(dists.argmin())]
            assert first_of_class[c] == expected

    def test_herding_identical_embeddings(self, sel_setting):
        graph, view, _ = sel_setting
        model = flat_model(feature_dim=4, classes=sorted(
            set(graph.nodes.class_id.tolist())
        ))
        buffer = baseline_select("herding", graph, view, snapshot(model), 4, seed=3)
        assert len(buffer.sub) == 4

    def test_unknown_kind(self, sel_setting):
        graph, view, prev = sel_setting
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_select("mystery", graph, view, prev, 4)

    def test_deterministic(self, sel_setting):
        graph, view, prev = sel_setting
        a = baseline_select("random", graph, view, prev, 9, seed=7)
        b = baseline_select("random", graph, view, prev, 9, seed=7)
        assert a.sub == b.sub


class TestConfigValidation:
    def test_p_must_exceed_m(self):
        with pytest.raises(ValueError, match="exceed"):
            SelectionConfig(m=10, p=10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            SelectionConfig(alpha=-0.5)

    def test_bad_enum_values(self):
        with pytest.raises(ValueError):
            SelectionConfig(partitioner="fancy")
        with pytest.raises(ValueError):
            SelectionConfig(scoring_mode="fast")
