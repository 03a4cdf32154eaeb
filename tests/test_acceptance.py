"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; thresholds are fixed here and mirror the self-check suites behind
``beliefret verify``.
"""

import time

import numpy as np

from beliefret.config import TrainConfig, apply_overrides
from beliefret.data import CorpusSpec, generate_corpus
from beliefret.losses import LabeledBatch, affiliation_loss, contrastive_loss, total_loss
from beliefret.pipeline import Trainer, run_stage
from beliefret.rng import child
from beliefret.tensor import Tensor, sgd_step
from beliefret.verify import (
    GRADIENT_CHECKS,
    affiliation_oracle_check,
    gradient_checks,
    hard_filter_oracle_check,
    mean_recall_arithmetic_check,
    rank_oracle_check,
    recall_oracle_check,
    unique_label_reduction_check,
)

GRAD_SEEDS = 100


def announce(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_config(**overrides):
    return apply_overrides(TrainConfig(), [f"{k}={v}" for k, v in overrides.items()])


# -- criterion: gradient suite ---------------------------------------------------


def test_gradient_suite():
    started = time.perf_counter()
    results = gradient_checks(seeds=GRAD_SEEDS)
    elapsed = time.perf_counter() - started
    per_fn = {r.name: r for r in results}
    ok = all(r.ok for r in results) and elapsed < 60.0
    detail = "; ".join(
        f"{name} {per_fn[name].detail.split()[3]}" for name, _ in GRADIENT_CHECKS
    ) + f"; runtime {elapsed:.1f}s < 60s"
    announce("gradient-suite", ok, detail)


# -- criterion: rank oracle -------------------------------------------------------


def test_rank_oracle():
    result = rank_oracle_check(cases=1000)
    announce("rank-oracle", result.ok, result.detail)


# -- criterion: hard-filter oracle ---------------------------------------------------


def test_hard_filter_oracle():
    result = hard_filter_oracle_check(cases=1000)
    announce("hard-filter-oracle", result.ok, result.detail)


# -- criterion: affiliation-loss oracle ------------------------------------------------


def test_affiliation_oracle():
    result = affiliation_oracle_check(cases=200, tolerance=1e-8)
    announce("affiliation-oracle", result.ok, result.detail)


# -- criterion: unique-label reduction ---------------------------------------------------


def test_unique_label_reduction():
    result = unique_label_reduction_check(cases=100, tolerance=1e-6)
    announce("unique-label-reduction", result.ok, result.detail)


# -- criterion: metric arithmetic -----------------------------------------------------------


def test_metric_arithmetic():
    mean_result = mean_recall_arithmetic_check()
    oracle_result = recall_oracle_check(cases=500)
    ok = mean_result.ok and oracle_result.ok
    announce("metric-arithmetic", ok, f"{mean_result.detail}; {oracle_result.detail}")


# -- criterion: convergence smoke test ----------------------------------------------------------


def test_convergence_smoke():
    corpus = generate_corpus(
        CorpusSpec(num_classes=8, images_per_class=12, vocab_size=64, seed=100,
                   granularity="fine", noise=0.0)
    )
    cfg = make_config(
        seed="1",
        **{
            "optim.steps": "500",
            "optim.batch_size": "32",
            "optim.learning_rate": "0.02",
            "optim.eval_every_epochs": "10",
        },
    )
    assert cfg.model.embed_dim == 32
    started = time.perf_counter()
    outcome = run_stage(cfg, dataset=corpus)
    elapsed = time.perf_counter() - started
    mr = outcome.best_report.mr
    ok = mr >= 80.0 and elapsed < 300.0
    announce(
        "convergence-smoke",
        ok,
        f"held-out mR {mr:.1f} >= 80 after 500 steps in {elapsed:.0f}s (< 300s)",
    )


# -- criterion: cluster-pull property --------------------------------------------------------------


def mean_intra_class_cosine(v, labels):
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    sims = vn @ vn.T
    same = np.equal.outer(labels, labels) & ~np.eye(len(labels), dtype=bool)
    return float(sims[same].mean())


def test_cluster_pull():
    rng = child(0, "acceptance-pull")
    b, d, c = 16, 8, 4
    labels = np.repeat(np.arange(c), b // c)
    v = Tensor(rng.normal(size=(b, d)), requires_grad=True)
    t = Tensor(rng.normal(size=(b, d)), requires_grad=True)
    before = mean_intra_class_cosine(v.data, labels)
    for _ in range(200):
        loss = total_loss(
            contrastive_loss(v, t),
            affiliation_loss(LabeledBatch(v, t, labels, num_classes=c)),
            lambda_cs=1.0,
        )
        loss.backward()
        sgd_step([("v", v), ("t", t)], lr=0.5)
    after = mean_intra_class_cosine(v.data, labels)
    announce(
        "cluster-pull",
        after > before,
        f"mean intra-class cosine {before:.3f} -> {after:.3f} after 200 steps at lambda_cs=1",
    )


# -- criterion: ablation reachability ----------------------------------------------------------------


def test_ablation_reachability():
    corpus = generate_corpus(
        CorpusSpec(num_classes=5, images_per_class=8, vocab_size=48, seed=55, granularity="fine")
    )
    combos = []
    for spa in (False, True):
        for tpa in (False, True):
            for lam in (0.0, 1.0):
                cfg = make_config(
                    use_spatial_pae=str(spa).lower(),
                    use_temporal_pae=str(tpa).lower(),
                    **{
                        "loss.lambda_cs": str(lam),
                        "optim.steps": "50",
                        "optim.batch_size": "16",
                        "optim.eval_every_epochs": "25",
                    },
                )
                trainer = Trainer(cfg, dataset=corpus)
                active = (trainer.model.spatial is not None, trainer.model.temporal is not None,
                          trainer.cfg.loss.lambda_cs > 0)
                assert active == (spa, tpa, lam > 0)
                outcome = trainer.train()
                assert all(np.isfinite(row["loss"]) for row in outcome.history)
                combos.append(active)
    announce(
        "ablation-reachability",
        len(set(combos)) == 8,
        f"{len(set(combos))} distinct flag configurations trained 50 steps without numeric failure",
    )


# -- criterion: transfer property ------------------------------------------------------------------------


def test_transfer_property(tmp_path):
    # the two stages run as two `beliefret train` runs do: stage two reads
    # stage one's checkpoint file; the scratch arm has stage two's flags
    warm_scores, scratch_scores = [], []
    for seed in (0, 1, 2):
        coarse = generate_corpus(
            CorpusSpec(num_classes=6, images_per_class=20, vocab_size=56,
                       seed=500 + seed, motif_seed=77, granularity="coarse")
        )
        fine = generate_corpus(
            CorpusSpec(num_classes=6, images_per_class=8, vocab_size=56,
                       seed=600 + seed, motif_seed=77, granularity="fine")
        )
        stage1 = make_config(
            stage="stage1-pretrain", seed=str(seed),
            **{"optim.steps": "100", "optim.eval_every_epochs": "50"},
        )
        run_stage(stage1, out_dir=tmp_path / f"stage1-{seed}", dataset=coarse)
        stage2 = make_config(
            stage="stage2-finetune", seed=str(seed), init_from=str(tmp_path / f"stage1-{seed}" / "checkpoint.npz"),
            use_temporal_pae="false",
            **{"optim.steps": "60", "optim.eval_every_epochs": "20"},
        )
        scratch_cfg = make_config(
            seed=str(seed), use_spatial_pae="true", use_temporal_pae="false",
            **{"belief.mode": "soft-sequence", "optim.steps": "60", "optim.eval_every_epochs": "20"},
        )
        warm_scores.append(run_stage(stage2, dataset=fine).best_report.mr)
        scratch_scores.append(run_stage(scratch_cfg, dataset=fine).best_report.mr)
    warm_mean = float(np.mean(warm_scores))
    scratch_mean = float(np.mean(scratch_scores))
    announce(
        "transfer-property",
        warm_mean >= scratch_mean,
        f"stage2-from-stage1 mean mR {warm_mean:.1f} >= from-scratch {scratch_mean:.1f} over 3 seeds",
    )


# -- criterion: determinism ---------------------------------------------------------------------------------


def test_end_to_end_determinism(tmp_path):
    corpus_spec = CorpusSpec(num_classes=5, images_per_class=8, vocab_size=48, seed=9, granularity="fine")
    cfg = make_config(
        **{"optim.steps": "30", "optim.batch_size": "16", "optim.eval_every_epochs": "5"}
    )
    for sub in ("first", "second"):
        run_stage(cfg, out_dir=tmp_path / sub, dataset=generate_corpus(corpus_spec))
    metrics_equal = (tmp_path / "first" / "metrics.json").read_bytes() == (
        tmp_path / "second" / "metrics.json"
    ).read_bytes()
    history_equal = (tmp_path / "first" / "history.csv").read_bytes() == (
        tmp_path / "second" / "history.csv"
    ).read_bytes()
    announce(
        "determinism",
        metrics_equal and history_equal,
        "two identical runs wrote byte-identical metrics.json and history.csv",
    )
