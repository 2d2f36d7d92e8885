"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The synthetic benchmark is the ``main`` preset: a fixed drifting
temporal graph (data seed pinned in the preset) evaluated over three
run seeds that drive splits, model init, selection, and training.
"""

import importlib.util
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tgcl.backbone import (
    Backbone,
    build_contexts,
    build_inputs,
    embed_batch,
    node_inputs,
    snapshot,
)
from tgcl.graph import SynthConfig, generate_synthetic, split_period
from tgcl.harness import PRESETS, execute, load_config
from tgcl.kernels import KernelParams, mmd_sq
from tgcl.metrics import af as af_metric
from tgcl.metrics import ap as ap_metric
from tgcl.metrics import precision_per_set
from tgcl.selector import (
    SelectionConfig,
    SelectionPool,
    build_pool,
    select,
    subset_objective,
)
from tgcl.trainer import TrainConfig, l_dst_terms, plan_period, train_period

from conftest import finite_difference_grads, max_rel_error
from oracles import brute_force_select, greedy_select_sim, greedy_select_sub, l_dst

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def make_pool(rng, n, dim=2, gamma=1.0):
    emb = rng.normal(size=(n, dim))
    jcls = np.abs(rng.normal(size=n)) + 0.01
    return SelectionPool(ids=tuple(range(n)), emb=emb, jcls=jcls, kp=KernelParams(gamma))


# ---------------------------------------------------------------------------
# Criterion 1: MMD oracle equivalence
# ---------------------------------------------------------------------------

def mmd_triple_sum(a, b, gamma):
    def k(x, y):
        return math.exp(-gamma * math.sqrt(sum((xi - yi) ** 2 for xi, yi in zip(x, y))))

    saa = sum(k(x, y) for x in a for y in a) / len(a) ** 2
    sbb = sum(k(x, y) for x in b for y in b) / len(b) ** 2
    sab = sum(k(x, y) for x in a for y in b) / (len(a) * len(b))
    return saa + sbb - 2.0 * sab


def test_criterion_01_mmd_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        a = rng.normal(size=(int(rng.integers(2, 21)), dim))
        b = rng.normal(size=(int(rng.integers(2, 21)), dim))
        gamma = float(rng.uniform(0.2, 3.0))
        got = mmd_sq(a, b, KernelParams(gamma))
        expected = mmd_triple_sum(a.tolist(), b.tolist(), gamma)
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    report(1, "mmd oracle equivalence", worst <= 1e-12 and elapsed < 1.0,
           f"max |diff|={worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: witness / exact-marginal consistency
# ---------------------------------------------------------------------------

def test_criterion_02_witness_and_exact_marginal():
    t0 = time.perf_counter()
    # exact-marginal mode: every pick minimizes the true objective increase
    exact_cfg = SelectionConfig(alpha=1.0, m=4, p=100, scoring_mode="exact-marginal")
    for seed in range(10):
        pool = make_pool(np.random.default_rng(seed), 12)
        chosen = greedy_select_sub(pool, 4, exact_cfg)
        picked: list[int] = []
        remaining = set(range(12))
        for v in chosen:
            row = int(np.searchsorted(pool.ids, v))
            best = min(subset_objective(pool, picked + [r], 1.0).total for r in remaining)
            mine = subset_objective(pool, picked + [row], 1.0).total
            assert mine <= best + 1e-9, f"seed {seed}: non-minimal pick"
            picked.append(row)
            remaining.discard(row)

    # witness mode: final objective within 1.25x of the exhaustive optimum
    witness_cfg = SelectionConfig(alpha=1.0, m=4, p=100, scoring_mode="witness")
    good = 0
    for seed in range(50):
        pool = make_pool(np.random.default_rng(1000 + seed), 12)
        chosen = greedy_select_sub(pool, 4, witness_cfg)
        greedy_obj = subset_objective(pool, np.searchsorted(pool.ids, chosen), 1.0).total
        _, optimum = brute_force_select(pool, 4, witness_cfg)
        if greedy_obj <= optimum * 1.25 + 1e-12:
            good += 1
    elapsed = time.perf_counter() - t0
    report(2, "witness/marginal consistency", good >= 45 and elapsed < 30.0,
           f"{good}/50 within 1.25x optimum, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: greedy dominates random subsets
# ---------------------------------------------------------------------------

def test_criterion_03_greedy_dominates_random():
    t0 = time.perf_counter()
    cfg = SelectionConfig(alpha=1.0, m=8, p=100)
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        pool = make_pool(rng, 50, dim=3)
        chosen = greedy_select_sub(pool, 8, cfg)
        greedy_obj = subset_objective(pool, np.searchsorted(pool.ids, chosen), 1.0).total
        # independent subset scoring from the raw kernel matrix
        from tgcl.kernels import kernel_matrix

        k = kernel_matrix(pool.emb, pool.emb, pool.kp)
        kaa = k.mean()

        def obj(rows):
            sub = np.asarray(rows)
            dist = kaa + k[np.ix_(sub, sub)].mean() - 2.0 * k[:, sub].mean()
            return float(pool.jcls[sub].mean() + dist)

        rand_objs = [
            obj(rng.choice(50, size=8, replace=False)) for _ in range(1000)
        ]
        if greedy_obj <= float(np.median(rand_objs)) + 1e-12:
            wins += 1
    elapsed = time.perf_counter() - t0
    report(3, "greedy dominates random", wins >= 95 and elapsed < 120.0,
           f"{wins}/100 instances below the random median, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: anchor subset quality
# ---------------------------------------------------------------------------

def test_criterion_04_sim_subset_quality():
    t0 = time.perf_counter()
    cfg = SelectionConfig(alpha=1.0, m=6, p=100)
    ok_instances = 0
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        pool = make_pool(rng, 30, dim=3)
        sim = greedy_select_sim(pool, 6, cfg)
        ours = mmd_sq(pool.emb, pool.emb[np.searchsorted(pool.ids, sim)], pool.kp)
        beaten = 0
        for _ in range(1000):
            rows = rng.choice(30, size=6, replace=False)
            if ours <= mmd_sq(pool.emb, pool.emb[rows], pool.kp) + 1e-12:
                beaten += 1
        if beaten >= 950:
            ok_instances += 1
    elapsed = time.perf_counter() - t0
    report(4, "anchor subset quality", ok_instances == 20 and elapsed < 60.0,
           f"{ok_instances}/20 instances beat >=95% of random subsets, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: gradient correctness
# ---------------------------------------------------------------------------

def _toy_instance(seed):
    rng = np.random.default_rng(seed)
    graph = generate_synthetic(
        SynthConfig(num_periods=1, classes_per_period=2, nodes_per_class_per_period=8,
                    feature_dim=3, seed=seed)
    )
    view = split_period(graph, 1)
    model = Backbone(3, hidden_dim=6, seed=seed)
    model.grow_head(sorted(graph.period(1).classes))
    model.b_hid = rng.normal(0.0, 0.05, size=model.b_hid.shape)  # off the relu kink
    ids = view.nodes_of("all", "train")
    return graph, model, ids


def test_criterion_05_gradient_correctness():
    from tgcl.backbone import loss_and_grads_from_inputs

    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        graph, model, ids = _toy_instance(seed)
        rng = np.random.default_rng(seed)
        z = build_inputs(build_contexts(graph, ids[:5], 1.0))
        y = model.head_rows(graph.labels(ids[:5]))
        _, analytic = loss_and_grads_from_inputs(model, z, y)
        numeric = finite_difference_grads(
            lambda: loss_and_grads_from_inputs(model, z, y)[0], model, eps=1e-5
        )
        worst = max(worst, max_rel_error(analytic, numeric))

        sim_emb = embed_batch(model, build_inputs(build_contexts(graph, ids[5:10], 1.0)))
        kp = KernelParams(1.2)
        _, analytic = l_dst(model, z, sim_emb, kp)
        numeric = finite_difference_grads(
            lambda: l_dst(model, z, sim_emb, kp)[0], model, eps=1e-5
        )
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - t0
    report(5, "gradient correctness", worst < 1e-4 and elapsed < 30.0,
           f"max relative error {worst:.2e} over 20 instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: alignment-loss reconstruction and zero-beta equivalence
# ---------------------------------------------------------------------------

def test_criterion_06_ldst_reconstruction_and_zero_beta():
    from tgcl.kernels import kernel_matrix

    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        kp = KernelParams(float(rng.uniform(0.3, 2.0)))
        sub = rng.normal(size=(4, 3))
        sim = rng.normal(size=(6, 3))
        val, _ = l_dst_terms(sub, sim, kp)
        recon = float(kernel_matrix(sub, sub, kp).mean() + kernel_matrix(sim, sim, kp).mean()) + val
        worst = max(worst, abs(recon - mmd_sq(sub, sim, kp)))
    assert worst <= 1e-12

    graph = generate_synthetic(
        SynthConfig(num_periods=2, classes_per_period=2, nodes_per_class_per_period=25,
                    feature_dim=3, seed=2)
    )
    view1, view2 = split_period(graph, 1), split_period(graph, 2)

    def fresh_model():
        model = Backbone(3, hidden_dim=12, seed=5)
        model.grow_head(sorted(graph.period(1).classes))
        model.grow_head(sorted(graph.period(2).classes))
        return model

    prev_model = fresh_model()
    prev = snapshot(prev_model)
    sel_cfg = SelectionConfig(m=8, m_prime=6, p=60)
    params, logs = {}, {}
    for name, cfg in {
        "beta0": TrainConfig(ablation="both_plus_ldst", beta=0.0,
                             lr=0.05, epochs=6, batch_size=16, patience=5),
        "both": TrainConfig(ablation="both", beta=0.7,
                            lr=0.05, epochs=6, batch_size=16, patience=5),
    }.items():
        plan, _, _ = plan_period(graph, view2, prev, "ltf", sel_cfg, cfg, seed=0)
        model = fresh_model()
        result = train_period(model, graph, view2, plan, cfg, seed=5)
        params[name] = model.parameters()
        logs[name] = [(e["loss_new"], e["loss_sub"], e["val_ap"]) for e in result.log]
    identical = all(
        np.array_equal(params["beta0"][k], params["both"][k]) for k in params["beta0"]
    ) and logs["beta0"] == logs["both"]
    elapsed = time.perf_counter() - t0
    report(6, "l_dst reconstruction + zero-beta", worst <= 1e-12 and identical and elapsed < 10.0,
           f"max reconstruction error {worst:.2e}, trajectories identical={identical}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: metric identities
# ---------------------------------------------------------------------------

def test_criterion_07_metric_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    for n in range(2, 6):
        precisions = rng.uniform(size=n).tolist()
        assert af_metric(precisions, precisions) == 0.0

    # scripted 2-period toy with a constant predictor: exact hand values
    graph = generate_synthetic(
        SynthConfig(num_periods=2, classes_per_period=1, nodes_per_class_per_period=30,
                    feature_dim=3, seed=3)
    )
    view = split_period(graph, 2)
    model = Backbone(3, hidden_dim=4, seed=0)
    model.w_agg[:] = 0.0
    model.w_hid[:] = 0.0
    model.b_hid[:] = 1.0
    model.grow_head([0, 1])
    model.w_head[:] = 0.0
    model.w_head[0, :] = 5.0  # constant class-0 predictor
    test_ids = view.nodes_of("all", "test")
    p1, p2 = precision_per_set(
        model,
        node_inputs(graph, test_ids, graph.period(2).t_end),
        graph.labels(test_ids).tolist(),
        [graph.period(1).classes, graph.period(2).classes],
    )
    assert p1 == 1.0 and p2 == 0.0
    assert ap_metric([p1, p2]) == 0.5
    # Reference precisions are dyadic, so the gap is exact in binary: the
    # only old set gives 0.75 - 1.0 == -0.25 (counting the newest set would
    # give +0.125, a flipped sign +0.25). Decimals such as 0.9 are not exact:
    # 0.9 - 1.0 == -0.09999999999999998, which is not the double -0.1.
    assert af_metric([p1, p2], [0.75, 0.5]) == -0.25
    elapsed = time.perf_counter() - t0
    report(7, "metric identities", elapsed < 1.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criteria 8-11: benchmark runs through the harness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def main_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_main")
    cfg = load_config(None, preset="main")
    t0 = time.perf_counter()
    records = execute(cfg, out)
    return out, cfg, records, time.perf_counter() - t0


def by_run(records):
    return {(r.strategy, r.variant, r.seed): r for r in records}


def test_criterion_08_end_to_end_trend(main_results):
    _, _, records, elapsed = main_results
    runs = by_run(records)
    seeds_ok = 0
    lines = []
    for seed in (0, 1, 2):
        ap = {s: runs[(s, "", seed)].final.ap for s in ("joint", "finetune", "er", "icarl", "ltf")}
        af_ltf = runs[("ltf", "", seed)].final.af
        af_er = runs[("er", "", seed)].final.af
        t_ltf = np.mean(runs[("ltf", "", seed)].final.epoch_wall_ms)
        t_joint = np.mean(runs[("joint", "", seed)].final.epoch_wall_ms)
        ok = (
            ap["joint"] >= ap["ltf"] > ap["er"]
            and ap["ltf"] > ap["icarl"]
            and ap["er"] > ap["finetune"]
            and ap["icarl"] > ap["finetune"]
            and af_ltf < af_er
            and t_ltf < t_joint
        )
        seeds_ok += ok
        lines.append(
            f"seed{seed}: joint={ap['joint']:.3f} ltf={ap['ltf']:.3f} er={ap['er']:.3f} "
            f"icarl={ap['icarl']:.3f} finetune={ap['finetune']:.3f} "
            f"af(ltf)={af_ltf:.3f} af(er)={af_er:.3f} {'ok' if ok else 'violated'}"
        )
    detail = "; ".join(lines) + f"; {elapsed:.0f}s"
    report(8, "end-to-end trend", seeds_ok >= 2 and elapsed < 900.0, detail)


@pytest.fixture(scope="module")
def ablation_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_ablation")
    cfg = load_config(None, preset="ablation")
    records = execute(cfg, out)
    return out, records


def test_criterion_09_ablation_structure(ablation_results):
    runs = by_run(ablation_results[1])
    clause1 = clause2 = 0
    lines = []
    for seed in (0, 1, 2):
        ap = {
            abl: runs[("ltf", f"ablation={abl}", seed)].final.ap
            for abl in ("err_only", "dist_only", "both", "both_plus_ldst")
        }
        c1 = ap["both"] >= max(ap["err_only"], ap["dist_only"])
        c2 = ap["both_plus_ldst"] >= ap["both"]
        clause1 += c1
        clause2 += c2
        lines.append(
            f"seed{seed}: err={ap['err_only']:.3f} dist={ap['dist_only']:.3f} "
            f"both={ap['both']:.3f} +l_dst={ap['both_plus_ldst']:.3f} "
            f"[both>=max:{'y' if c1 else 'n'} +l_dst>=both:{'y' if c2 else 'n'}]"
        )
    ok = clause1 >= 2 and clause2 >= 2
    detail = "; ".join(lines) + f" (clause1 {clause1}/3, clause2 {clause2}/3)"
    # Known red: with a competent frozen scorer at this scale, the lowest-loss
    # exemplars are the near-zero-gradient ones, so any positive error weight
    # drags the combined selection below distribution-only (see
    # docs/DECISIONS.md for the full analysis). The criterion is asserted as
    # specified.
    report(9, "ablation structure", ok, detail)


@pytest.fixture(scope="module")
def partition_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_partition")
    cfg = load_config(None, preset="partition")
    t0 = time.perf_counter()
    records = execute(cfg, out)
    return out, records, time.perf_counter() - t0


def test_criterion_10_partition_study(partition_results):
    _, records, elapsed = partition_results
    runs = by_run(records)
    wins = 0
    lines = []
    for seed in (0, 1, 2):
        ap = {
            part: runs[("ltf", f"partitioner={part},p=1200", seed)].final.ap
            for part in ("random", "kmeans", "hierarchical")
        }
        ok = ap["random"] >= max(ap["kmeans"], ap["hierarchical"])
        wins += ok
        lines.append(
            f"seed{seed}: random={ap['random']:.3f} kmeans={ap['kmeans']:.3f} "
            f"hier={ap['hierarchical']:.3f} {'y' if ok else 'n'}"
        )

    # timing half: mean per-part selection time strictly decreases as W doubles
    cfg = load_config(None, preset="main")
    graph = generate_synthetic(SynthConfig(**cfg["data"]["synthetic"]))
    view1 = split_period(graph, 1, split_seed=0)
    model = Backbone(graph.feature_dim, hidden_dim=64, seed=0)
    model.grow_head(sorted(graph.period(1).classes))
    model.grow_head(sorted(graph.period(2).classes))
    prev = snapshot(model)
    view3 = split_period(graph, 3, split_seed=0)
    n_old = len(view3.nodes_of("old", "train"))
    means = []
    for w in (1, 2, 4):
        p_size = -(-n_old // w)
        reps = []
        for _ in range(3):
            buf = select(
                graph, view3, prev,
                SelectionConfig(alpha=0.005, m=24, m_prime=240, p=p_size), seed=0,
            )
            reps.append(float(np.mean(buf.part_ms)))
        means.append(float(np.mean(reps)))
    timing_ok = means[0] > means[1] > means[2]

    ok = wins >= 2 and timing_ok and elapsed < 600.0
    detail = (
        "; ".join(lines)
        + f"; per-part ms at W=1,2,4: {[round(m, 1) for m in means]}"
        + f" ({'monotone' if timing_ok else 'not monotone'}); {elapsed:.0f}s"
    )
    # Known red on the ordering half: partitioned greedy selection over iid
    # random parts is redundant at desk-scale quotas, while capped clusters
    # stay complementary, so the clustering partitioners do not underperform
    # here (docs/DECISIONS.md has the analysis). The timing half passes.
    report(10, "partition study", ok, detail)


def test_criterion_11_determinism(main_results, tmp_path_factory):
    out_a, cfg, _, _ = main_results
    out_b = tmp_path_factory.mktemp("accept_main_again")
    execute(cfg, out_b)
    same_csv = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    same_summary = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    report(11, "determinism", same_csv and same_summary,
           f"results.csv identical={same_csv}, summary.json identical={same_summary}")


# ---------------------------------------------------------------------------
# Byte identity: the jobs=1 half of ``tools/identity.py --check``
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("_identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def recorded_digests(path: Path) -> dict:
    """The digests recorded in ``path``; skips when they were taken under
    other library versions, whose digests may differ for that reason alone."""
    recorded = json.loads(path.read_text())
    if recorded["versions"] != identity.versions():
        pytest.skip(f"digests recorded under {recorded['versions']}, this run has {identity.versions()}")
    return recorded["digests"]


def identity_diffs(digests: dict, out: Path, preset: str) -> list[str]:
    """Every file of a ``jobs=1`` run of ``preset`` in ``out`` whose digest
    is not the recorded one, as ``identity.py --check`` names it."""
    label = f"{preset}/jobs1"
    want = {name: digest for name, digest in digests.items() if name.startswith(f"{label}/")}
    return identity.compare(want, identity.digest_outputs(out, label, reuse=True))


@pytest.mark.parametrize("preset", list(PRESETS))
def test_outputs_match_the_recorded_digests(request, preset):
    out = request.getfixturevalue(f"{preset}_results")[0]
    diffs = identity_diffs(recorded_digests(ROOT / "IDENTITY.json"), out, preset)
    assert not diffs, "\n".join(diffs)


def test_a_changed_digest_is_named(main_results, tmp_path):
    recorded = json.loads((ROOT / "IDENTITY.json").read_text())
    name = "main/jobs1/runs/ltf__seed0/buffer_p2.json"
    digest = recorded["digests"][name]
    recorded["digests"][name] = ("0" if digest[0] != "0" else "1") + digest[1:]
    changed = tmp_path / "IDENTITY.json"
    changed.write_text(json.dumps(recorded))
    assert identity_diffs(recorded_digests(changed), main_results[0], "main") == [f"{name}: differs"]


def test_run_files_do_not_depend_on_jobs(tmp_path):
    """Every file of a run directory but ``record.json`` holds no wall time,
    so it is the same byte for byte with ``jobs=1`` and ``jobs=2``, and
    ``digest_outputs`` digests it as written."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "data": {"synthetic": {
            "num_periods": 3, "classes_per_period": 2, "nodes_per_class_per_period": 16,
            "feature_dim": 3, "events_per_node": 3, "seed": 0,
        }},
        "strategies": ["ltf", "er"],
        "sel": {"m": 3, "m_prime": 2, "p": 8},
        "train": {"epochs": 2, "batch_size": 32, "patience": 2, "lr": 0.1},
        "seeds": [0],
    }))
    cfg = load_config(path)
    files = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        execute(cfg, out, jobs=jobs)
        files[jobs] = {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.glob("runs/*/*")) if p.name != "record.json"
        }
    assert files[1] == files[2]
    assert {rel.rpartition("/")[2] for rel in files[1]} == {"epochs.jsonl", "buffer_p2.json", "buffer_p3.json"}
    digests = identity.digest_outputs(tmp_path / "jobs1", "tiny", reuse=False)
    assert {f"tiny/{rel}" for rel in files[1]} <= set(digests)
