import dataclasses
import itertools

import numpy as np
import pytest

from tgcl.backbone import (
    PARAM_NAMES,
    Backbone,
    build_contexts,
    build_inputs,
    embed_batch,
    loss_and_grads_from_inputs,
    snapshot,
)
from tgcl.graph import SynthConfig, generate_synthetic, split_period
from tgcl.kernels import KernelParams, mmd_sq
from tgcl.metrics import precision_per_set
from tgcl.selector import SelectionConfig
from tgcl import trainer
from tgcl.trainer import (
    ABLATIONS,
    STRATEGIES,
    PeriodPlan,
    TrainConfig,
    _memo_key,
    ablation_terms,
    l_dst_terms,
    plan_period,
    run_strategy,
    train_period,
)

from conftest import (
    NO_TEST_SYNTH,
    finite_difference_grads,
    make_graph_without_new_class_events,
    max_rel_error,
    trained_toy_snapshot,
)
from oracles import l_dst


@pytest.fixture(scope="module")
def setting():
    graph = generate_synthetic(
        SynthConfig(
            num_periods=2,
            classes_per_period=2,
            nodes_per_class_per_period=25,
            feature_dim=3,
            seed=2,
        )
    )
    view1 = split_period(graph, 1)
    view2 = split_period(graph, 2)
    prev = trained_toy_snapshot(graph, view1, seed=2, hidden_dim=12)
    return graph, view1, view2, prev


def grown_model(graph, through_period, seed=0, hidden_dim=12):
    model = Backbone(graph.feature_dim, hidden_dim=hidden_dim, seed=seed)
    for i in range(1, through_period + 1):
        model.grow_head(sorted(graph.period(i).classes))
    return model


class TestLdstTerms:
    def test_identical_sets_value(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 3))
        val, _ = l_dst_terms(emb, emb.copy(), KernelParams(2.0))
        # diagonal pairs contribute k=1 each; off-diagonal pairs < 1
        assert val > -2.0
        single = rng.normal(size=(1, 3))
        val_single, _ = l_dst_terms(single, single.copy(), KernelParams(2.0))
        assert val_single == pytest.approx(-2.0, abs=1e-12)

    def test_all_equal_embeddings_value(self):
        emb = np.tile([1.5, -0.5], (3, 1))
        sim = np.tile([1.5, -0.5], (5, 1))
        val, _ = l_dst_terms(emb, sim, KernelParams(1.0))
        assert val == pytest.approx(-2.0, abs=1e-12)

    def test_reconstructs_mmd_sq(self):
        kp = KernelParams(0.8)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sub = rng.normal(size=(4, 3))
            sim = rng.normal(size=(6, 3))
            val, _ = l_dst_terms(sub, sim, kp)
            from tgcl.kernels import kernel_matrix

            self_sub = float(kernel_matrix(sub, sub, kp).mean())
            self_sim = float(kernel_matrix(sim, sim, kp).mean())
            assert self_sub + self_sim + val == pytest.approx(mmd_sq(sub, sim, kp), abs=1e-12)

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            l_dst_terms(np.zeros((0, 2)), np.ones((2, 2)), KernelParams(1.0))
        with pytest.raises(ValueError):
            l_dst_terms(np.ones((2, 2)), np.zeros((0, 2)), KernelParams(1.0))

    def test_embedding_gradient_matches_fd(self):
        kp = KernelParams(0.9)
        rng = np.random.default_rng(3)
        sub = rng.normal(size=(3, 4))
        sim = rng.normal(size=(5, 4))
        _, grad = l_dst_terms(sub, sim, kp)
        eps = 1e-6
        for i in range(sub.shape[0]):
            for j in range(sub.shape[1]):
                orig = sub[i, j]
                sub[i, j] = orig + eps
                hi, _ = l_dst_terms(sub, sim, kp)
                sub[i, j] = orig - eps
                lo, _ = l_dst_terms(sub, sim, kp)
                sub[i, j] = orig
                fd = (hi - lo) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestLdstModelGrads:
    def make_toy(self, seed):
        rng = np.random.default_rng(seed)
        graph = generate_synthetic(
            SynthConfig(
                num_periods=1,
                classes_per_period=2,
                nodes_per_class_per_period=8,
                feature_dim=3,
                seed=seed,
            )
        )
        view = split_period(graph, 1)
        model = grown_model(graph, 1, seed=seed, hidden_dim=6)
        model.b_hid = rng.normal(0.0, 0.05, size=model.b_hid.shape)
        ids = view.nodes_of("all", "train")
        z_sub = build_inputs(build_contexts(graph, ids[:4], 1.0))
        z_sim = build_inputs(build_contexts(graph, ids[4:9], 1.0))
        sim_emb = embed_batch(model, z_sim)
        return model, z_sub, z_sim, sim_emb

    def test_matches_fd_with_sim_frozen(self):
        kp = KernelParams(1.2)
        for seed in range(20):
            model, z_sub, _, sim_emb = self.make_toy(seed)
            _, analytic = l_dst(model, z_sub, sim_emb, kp)
            numeric = finite_difference_grads(
                lambda: l_dst(model, z_sub, sim_emb, kp)[0], model
            )
            assert max_rel_error(analytic, numeric) < 1e-4, f"seed {seed}"

    def test_training_aux_term_adds_l_dst(self):
        # train_period passes the alignment loss to the CE step as ``aux``;
        # its value and gradients must be the oracle's, scaled by beta
        kp, beta = KernelParams(1.2), 0.7
        for seed in range(5):
            model, z_sub, _, sim_emb = self.make_toy(seed)
            y = np.arange(len(z_sub)) % model.num_classes

            def aux(e):
                val, g = l_dst_terms(e, sim_emb, kp)
                return beta * val, beta * g

            total, grads = loss_and_grads_from_inputs(model, z_sub, y, aux=aux)
            ce, ce_grads = loss_and_grads_from_inputs(model, z_sub, y)
            ld, ld_grads = l_dst(model, z_sub, sim_emb, kp)
            assert total == pytest.approx(ce + beta * ld, rel=1e-12)
            for name in PARAM_NAMES:
                want = ce_grads[name] + beta * ld_grads[name]
                assert np.allclose(grads[name], want, rtol=1e-10, atol=1e-12), name

    def test_stop_gradient_differs_from_live_sim(self):
        # when the anchor side is allowed to move with the parameters, the
        # finite-difference gradient picks up extra terms
        kp = KernelParams(1.2)
        model, z_sub, z_sim, _ = self.make_toy(1)

        def live_loss():
            sim_now = embed_batch(model, z_sim)
            sub_now = embed_batch(model, z_sub)
            return l_dst_terms(sub_now, sim_now, kp)[0]

        _, analytic = l_dst(model, z_sub, embed_batch(model, z_sim), kp)
        live_fd = finite_difference_grads(live_loss, model)
        assert max_rel_error(analytic, live_fd) > 1e-3


LTF_SEL = SelectionConfig(m=8, m_prime=6, p=64)


def ltf_plan(setting, cfg, seed=0):
    graph, _, view2, prev = setting
    plan, _, _ = plan_period(graph, view2, prev, "ltf", LTF_SEL, cfg, seed=seed)
    return plan


class TestTrainPeriod:
    def test_zero_beta_matches_both_ablation(self, setting):
        graph, _, view2, prev = setting
        runs = {}
        for name, cfg in {
            "beta0": TrainConfig(ablation="both_plus_ldst", beta=0.0,
                                 lr=0.05, epochs=6, batch_size=16, patience=5),
            "both": TrainConfig(ablation="both", beta=0.7,
                                lr=0.05, epochs=6, batch_size=16, patience=5),
        }.items():
            model = grown_model(graph, 2, seed=5)
            result = train_period(model, graph, view2, ltf_plan(setting, cfg), cfg, seed=5)
            runs[name] = (model.parameters(), result.log)
        pa, la = runs["beta0"]
        pb, lb = runs["both"]
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
        for ea, eb in zip(la, lb):
            assert ea["loss_new"] == eb["loss_new"]
            assert ea["loss_sub"] == eb["loss_sub"]
            assert ea["l_dst"] == eb["l_dst"] == 0.0

    def test_loss_decomposition_identity(self, setting):
        graph, _, view2, prev = setting
        cfg = TrainConfig(beta=0.7, lr=0.05, epochs=5, batch_size=16, patience=5)
        model = grown_model(graph, 2, seed=6)
        result = train_period(model, graph, view2, ltf_plan(setting, cfg), cfg, seed=6)
        for entry in result.log:
            recomposed = entry["loss_new"] + entry["loss_sub"] + cfg.beta * entry["l_dst"]
            assert entry["l_tot"] == pytest.approx(recomposed, abs=1e-10)
        assert any(entry["l_dst"] != 0.0 for entry in result.log)

    def test_early_stopping_and_best_checkpoint(self, setting):
        graph, _, view2, prev = setting
        cfg = TrainConfig(lr=0.2, epochs=60, batch_size=16, patience=4)
        model = grown_model(graph, 2, seed=7)
        plan, _, _ = plan_period(graph, view2, prev, "finetune", LTF_SEL, cfg, seed=7)
        result = train_period(model, graph, view2, plan, cfg, seed=7)
        assert result.epochs_ran <= cfg.epochs
        assert result.epochs_ran - 1 - result.best_epoch <= cfg.patience
        logged_best = max(e["val_ap"] for e in result.log)
        assert result.log[result.best_epoch]["val_ap"] == logged_best
        # returned parameters reproduce the best validation AP, not the last
        val_ids = view2.nodes_of("all", "val")
        z_val = build_inputs(build_contexts(graph, val_ids, graph.period(2).t_end))
        val_labels = graph.labels(val_ids).tolist()
        class_sets = [graph.period(i).classes for i in (1, 2)]
        precisions = precision_per_set(model, z_val, val_labels, class_sets)
        assert np.mean(precisions) == pytest.approx(logged_best)

    def test_empty_new_train_rejected(self, setting):
        graph, _, view2, prev = setting
        empty_view = dataclasses.replace(view2, old=np.ones_like(view2.old))  # every node old-class
        cfg = TrainConfig(epochs=2)
        with pytest.raises(ValueError, match="no new-class training nodes"):
            plan_period(graph, empty_view, prev, "finetune", LTF_SEL, cfg, seed=0)


class TestPlanPeriod:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plan_table(self, setting, strategy, ablation):
        graph, view1, view2, prev = setting
        kinds = {"er": "random", "icarl": "herding"}
        for beta, m_prime, view in itertools.product((0.0, 0.5), (0, 6), (view1, view2)):
            case = f"beta={beta} m_prime={m_prime} period={view.period_index}"
            sel = SelectionConfig(m=8, m_prime=m_prime, p=64)
            cfg = TrainConfig(ablation=ablation, beta=beta)
            plan, buffer, sel_ms = plan_period(
                graph, view, prev if view is view2 else None, strategy, sel, cfg, seed=0
            )
            old, new = view.nodes_of("old", "train"), view.nodes_of("new", "train")
            want_main = tuple(sorted(old + new)) if strategy == "joint" else new
            assert plan.main_ids == want_main, case
            selects = strategy in ("er", "icarl", "ltf") and view is view2
            assert (buffer is not None) == selects == (sel_ms > 0.0), case
            if selects:
                assert plan.replay_ids == tuple(buffer.sub_ids) and plan.replay_ids, case
                if strategy == "ltf":
                    assert buffer.meta["terms"] == list(ablation_terms(ablation)), case
                else:
                    assert buffer.meta["kind"] == kinds[strategy], case
            else:
                assert plan.replay_ids == (), case
            aligns = (
                strategy == "ltf" and ablation == "both_plus_ldst" and beta > 0
                and m_prime > 0 and view is view2
            )
            assert bool(plan.anchor_ids) == aligns, case
            assert (plan.kp is not None) == aligns, case
            if aligns:
                assert plan.anchor_ids == tuple(buffer.sim), case
                assert plan.kp == KernelParams(buffer.meta["gamma"]), case


class TestAblationTerms:
    def test_mapping(self):
        assert ablation_terms("err_only") == ("err",)
        assert ablation_terms("dist_only") == ("dist",)
        assert ablation_terms("both") == ("err", "dist")
        assert ablation_terms("both_plus_ldst") == ("err", "dist")


@pytest.fixture(scope="module")
def drift_graph():
    return generate_synthetic(
        SynthConfig(
            num_periods=3,
            classes_per_period=2,
            nodes_per_class_per_period=40,
            feature_dim=4,
            drift_step=1.0,
            noise_sigma=0.8,
            seed=3,
        )
    )


def quick_train_cfg(**kw):
    base = dict(lr=0.15, epochs=25, batch_size=64, patience=8)
    base.update(kw)
    return TrainConfig(**base)


class TestRunStrategy:
    @pytest.mark.parametrize(
        "make_graph, message",
        [
            (make_graph_without_new_class_events, "period 2 has no new-class training nodes under seed 0"),
            (lambda: generate_synthetic(SynthConfig(**NO_TEST_SYNTH)), "period 1 has no test nodes under seed 0"),
        ],
        ids=["no_new_class_training_nodes", "no_test_nodes"],
    )
    def test_data_that_no_run_can_score_is_refused_before_training(self, train_calls, make_graph, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_strategy(make_graph(), "finetune", SelectionConfig(m=2, p=10), quick_train_cfg(), seed=0)
        assert train_calls == []

    def test_single_period_graph_equalizes_strategies(self):
        graph = generate_synthetic(
            SynthConfig(num_periods=1, classes_per_period=2, nodes_per_class_per_period=20, seed=9)
        )
        sel = SelectionConfig(m=4, m_prime=4, p=30)
        aps = {}
        for strategy in ("joint", "finetune", "er", "ltf"):
            out = run_strategy(graph, strategy, sel, quick_train_cfg(), seed=9)
            aps[strategy] = out[0].metrics.ap
        assert len(set(aps.values())) == 1

    def test_buffer_nodes_are_current_period_old_nodes(self, drift_graph):
        sel = SelectionConfig(m=8, m_prime=6, p=40)
        out = run_strategy(drift_graph, "ltf", sel, quick_train_cfg(epochs=4), seed=3)
        for outcome in out[1:]:
            view = split_period(drift_graph, outcome.metrics.period, split_seed=3)
            assert set(outcome.buffer.sub_ids) <= set(view.nodes_of("old", "train"))
            assert set(outcome.buffer.sim) <= set(view.nodes_of("old", "train"))

    def test_finetune_forgets_vs_joint(self, drift_graph):
        sel = SelectionConfig(m=8, m_prime=6, p=40)
        joint = run_strategy(drift_graph, "joint", sel, quick_train_cfg(), seed=3)
        fine = run_strategy(drift_graph, "finetune", sel, quick_train_cfg(), seed=3)
        n = drift_graph.num_periods
        old_joint = np.mean([p for p in joint[-1].metrics.precisions[: n - 1] if p is not None])
        old_fine = np.mean([p for p in fine[-1].metrics.precisions[: n - 1] if p is not None])
        assert old_fine < old_joint
        assert fine[-1].metrics.ap < joint[-1].metrics.ap

    def test_joint_train_loss_not_worse_on_union(self, drift_graph):
        graph = drift_graph
        sel = SelectionConfig(m=8, m_prime=6, p=40)
        view2 = split_period(graph, 2, split_seed=3)
        union_ids = view2.nodes_of("all", "train")
        z = build_inputs(build_contexts(graph, union_ids, graph.period(2).t_end))

        losses = {}
        for strategy in ("joint", "finetune"):
            out = run_strategy(graph, strategy, sel, quick_train_cfg(), seed=3)
            model = out[1].model_snapshot
            y = model.head_rows(graph.labels(union_ids))
            losses[strategy], _ = loss_and_grads_from_inputs(model, z, y)
        assert losses["joint"] <= losses["finetune"]

    def test_selection_time_excluded_from_epoch_time(self, drift_graph):
        sel = SelectionConfig(m=8, m_prime=6, p=40)
        out = run_strategy(drift_graph, "ltf", sel, quick_train_cfg(epochs=3), seed=3)
        assert out[1].metrics.selection_ms > 0.0
        assert all(e["wall_ms"] > 0.0 for o in out for e in o.epoch_log)
        assert all(o.metrics.epoch_wall_ms == [e["wall_ms"] for e in o.epoch_log] for o in out)

    def test_unknown_strategy(self, drift_graph):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_strategy(drift_graph, "magic", SelectionConfig(m=2, p=10), quick_train_cfg(), seed=0)


def without_wall_ms(epoch_log):
    return [{k: v for k, v in e.items() if k != "wall_ms"} for e in epoch_log]


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.metrics.precisions == w.metrics.precisions and g.metrics.ap == w.metrics.ap
        assert without_wall_ms(g.epoch_log) == without_wall_ms(w.epoch_log)
        assert (g.metrics.epochs_ran, g.metrics.best_epoch) == (w.metrics.epochs_ran, w.metrics.best_epoch)
        assert (g.buffer is None) == (w.buffer is None)
        if g.buffer is not None:
            assert (g.buffer.sub_ids, g.buffer.sim) == (w.buffer.sub_ids, w.buffer.sim)
        for name in ("w_agg", "w_hid", "b_hid", "w_head"):
            assert np.array_equal(getattr(g.model_snapshot, name), getattr(w.model_snapshot, name))


@pytest.fixture
def train_calls(monkeypatch):
    """The number of ``train_period`` calls so far."""
    calls = []
    real = trainer.train_period

    def counting(*args, **kwargs):
        calls.append(args[2].period_index)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_period", counting)
    return calls


class TestPeriodMemo:
    SEL = SelectionConfig(m=8, m_prime=6, p=40)

    def test_without_memo_every_period_is_trained(self, drift_graph, train_calls):
        for strategy in ("finetune", "er"):
            out = run_strategy(drift_graph, strategy, self.SEL, quick_train_cfg(epochs=3), seed=3)
            assert not any(o.reused for o in out)
        assert train_calls == [1, 2, 3, 1, 2, 3]

    def test_shared_period_is_trained_once_with_the_same_outcomes(self, drift_graph, train_calls):
        cfg = quick_train_cfg(epochs=4)
        memo: dict = {}
        shared = {
            s: run_strategy(drift_graph, s, self.SEL, cfg, seed=3, memo=memo)
            for s in ("finetune", "er", "ltf")
        }
        # period 1 has no old classes, so every strategy trains the same model
        assert train_calls == [1, 2, 3, 2, 3, 2, 3]
        assert [[o.reused for o in out] for out in shared.values()] == [
            [False, False, False], [True, False, False], [True, False, False]
        ]
        for strategy, out in shared.items():
            assert_same_outcomes(out, run_strategy(drift_graph, strategy, self.SEL, cfg, seed=3))
        # a reused period is a copy: changing one run's outcome leaves the memo as it was
        shared["er"][0].epoch_log.clear()
        shared["er"][0].metrics.precisions[0] = -1.0
        again = run_strategy(drift_graph, "ltf", self.SEL, cfg, seed=3, memo=memo)
        assert_same_outcomes(again, shared["ltf"])
        assert all(o.reused for o in again)

    def test_other_seed_misses(self, drift_graph, train_calls):
        memo: dict = {}
        for seed in (3, 4):
            run_strategy(drift_graph, "finetune", self.SEL, quick_train_cfg(epochs=2), seed=seed, memo=memo)
        assert train_calls == [1, 2, 3, 1, 2, 3]


class TestMemoKey:
    """A period's key is its run's history: the root ``(seed, hidden_dim)``
    and every period's plan and step settings so far. Changing any one of
    them misses."""

    ROOT = (0, 12)

    @pytest.fixture
    def inputs(self, setting):
        cfg = TrainConfig(beta=0.7, lr=0.05, epochs=5, batch_size=16, patience=5)
        plan = ltf_plan(setting, cfg)
        assert plan.replay_ids and plan.anchor_ids and plan.kp is not None
        return plan, cfg

    @classmethod
    def key(cls, plan, cfg, history=None, n=2):
        return _memo_key(cls.ROOT if history is None else history, n, plan, cfg)

    def test_same_inputs_hit(self, inputs):
        plan, cfg = inputs
        assert self.key(*inputs) == self.key(dataclasses.replace(plan), dataclasses.replace(cfg), history=(0, 12))

    def test_period_and_seed(self, inputs):
        base = self.key(*inputs)
        assert self.key(*inputs, n=1) != base
        assert self.key(*inputs, history=(1, 12)) != base

    def test_seed_and_hidden_dim_miss_in_runs(self, drift_graph, train_calls):
        memo: dict = {}
        for seed, hidden_dim in ((3, 12), (4, 12), (3, 8)):
            out = run_strategy(
                drift_graph, "finetune", TestPeriodMemo.SEL, quick_train_cfg(epochs=2),
                seed=seed, hidden_dim=hidden_dim, memo=memo,
            )
            assert not any(o.reused for o in out)
        assert train_calls == [1, 2, 3] * 3

    @pytest.mark.parametrize("field", ["main_ids", "replay_ids", "anchor_ids", "kp"])
    def test_each_plan_field(self, inputs, field):
        plan, cfg = inputs
        value = getattr(plan, field)
        other = KernelParams(value.gamma * 2) if field == "kp" else value[:-1]
        assert self.key(dataclasses.replace(plan, **{field: other}), cfg) != self.key(*inputs)

    @pytest.mark.parametrize("field, value", [("lr", 0.06), ("epochs", 6), ("batch_size", 17), ("patience", 4)])
    def test_each_step_setting(self, inputs, field, value):
        plan, cfg = inputs
        assert self.key(plan, dataclasses.replace(cfg, **{field: value})) != self.key(*inputs)

    def test_beta_counts_only_with_anchors(self, inputs):
        plan, cfg = inputs
        other = dataclasses.replace(cfg, beta=0.8)
        assert self.key(plan, other) != self.key(plan, cfg)
        no_anchors = PeriodPlan(plan.main_ids, plan.replay_ids)
        assert self.key(no_anchors, other) == self.key(no_anchors, cfg)

    def test_ablation_alone_does_not_count(self, inputs):
        # the ablation acts through the plan (the selection terms), which the key holds
        plan, cfg = inputs
        assert self.key(plan, dataclasses.replace(cfg, ablation="both")) == self.key(*inputs)

    def test_earlier_history_misses(self, inputs):
        # equal period-2 plans and settings, after period-1 plans or settings that differ
        plan, cfg = inputs
        first = PeriodPlan(plan.main_ids)
        base = self.key(plan, cfg, history=self.key(first, cfg, n=1))
        assert self.key(plan, cfg, history=self.key(first, cfg, n=1)) == base
        for other_plan, other_cfg in (
            (PeriodPlan(plan.main_ids[:-1]), cfg),
            (first, dataclasses.replace(cfg, lr=0.06)),
        ):
            assert self.key(plan, cfg, history=self.key(other_plan, other_cfg, n=1)) != base


class TestTrainConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(ablation="all")

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match=r"^beta must be a finite number >= 0, got (nan|inf)$"):
            TrainConfig(beta=beta)
