"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Each self-check suite behind ``beliefret verify`` runs here at its own
defaults, the one place that fixes its cases, seeds and tolerances.
"""

import functools
import math
import time

import numpy as np
import pytest

from beliefret.config import LossSettings, TrainConfig, apply_overrides
from beliefret.data import CorpusSpec, generate_corpus
from beliefret.losses import affiliation_loss, contrastive_loss
from beliefret.pipeline import Trainer, run_stage
from beliefret.rng import child
from beliefret.tensor import Tensor, sgd_step
from beliefret.verify import SUITES, run_suite


def announce(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_config(**overrides):
    return apply_overrides(TrainConfig(), [f"{k}={v}" for k, v in overrides.items()])


# -- criterion: each verify suite --------------------------------------------------


# each suite runs once per session; the per-criterion tests below read its rows
suite_rows = functools.cache(run_suite)

# each suite's rows, in the order `beliefret verify` prints them
ROW_NAMES = {
    "gradients": (
        "affine", "ffn", "attention_self", "attention_cross", "attention_masked", "contrastive_loss",
        "affiliation_loss", "pael", "spatial_pae", "temporal_pae", "refine_batch", "attention_key_bias", "runtime",
    ),
    "oracles": (
        "rank_vs_brute_force", "affiliation_vs_loop_oracle", "unique_label_reduction",
        "recall_vs_sort_oracle", "mean_recall_published_row",
    ),
    "invariants": (
        "softmax_simplex", "soft_weight_bounds", "pael_shape_preservation", "loss_nonnegative",
        "belief_rank_scale_invariant",
    ),
}


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suite(suite):
    results = suite_rows(suite)
    for r in results:
        print(f"[{'PASS' if r.ok else 'FAIL'}] {r.suite}/{r.name}: {r.detail}")
    assert tuple(r.name for r in results) == ROW_NAMES[suite]
    assert all(type(r.ok) is bool for r in results), [(r.name, type(r.ok)) for r in results]
    assert all(r.ok for r in results), [r.name for r in results if not r.ok]


def announce_rows(criterion, suite, *names):
    rows = {r.name: r for r in suite_rows(suite)}
    picked = [rows[name] for name in names]
    announce(criterion, all(r.ok for r in picked), "; ".join(f"{r.name} {r.detail}" for r in picked))


# -- criterion: each oracle row --------------------------------------------------------


def test_rank_oracle():
    announce_rows("rank-oracle", "oracles", "rank_vs_brute_force")


def test_affiliation_oracle():
    announce_rows("affiliation-oracle", "oracles", "affiliation_vs_loop_oracle")


def test_unique_label_reduction():
    announce_rows("unique-label-reduction", "oracles", "unique_label_reduction")


def test_metric_arithmetic():
    announce_rows("metric-arithmetic", "oracles", "mean_recall_published_row", "recall_vs_sort_oracle")


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
    tau = LossSettings().tau
    for _ in range(200):
        loss = contrastive_loss(v, t, tau) + affiliation_loss(v, t, labels, c, math.log(1.0 / tau))
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
    for spa in (0, 2):
        for tpa in (0, 3):
            for lam in (0.0, 1.0):
                cfg = make_config(
                    **{
                        "model.spatial_units": str(spa),
                        "model.temporal_units": str(tpa),
                        "loss.lambda_cs": str(lam),
                        "optim.steps": "50",
                        "optim.batch_size": "16",
                        "optim.eval_every_epochs": "25",
                    },
                )
                trainer = Trainer(cfg, dataset=corpus)
                active = (trainer.model.spatial is not None, trainer.model.temporal is not None,
                          trainer.cfg.loss.lambda_cs > 0)
                assert active == (spa > 0, tpa > 0, lam > 0)
                outcome = trainer.train()
                assert all(np.isfinite(row["loss"]) for row in outcome.history)
                combos.append(active)
    announce(
        "ablation-reachability",
        len(set(combos)) == 8,
        f"{len(set(combos))} distinct stack and loss configurations trained 50 steps without numeric failure",
    )


# -- criterion: transfer property ------------------------------------------------------------------------


def test_transfer_property(tmp_path):
    # the two stages run as two `beliefret train` runs do: stage two is a
    # closed-domain run that reads stage one's checkpoint file through
    # init_from; the scratch arm is the same run without it
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
            seed=str(seed), init_from=str(tmp_path / f"stage1-{seed}" / "checkpoint.npz"),
            **{"model.temporal_units": "0", "optim.steps": "60", "optim.eval_every_epochs": "20"},
        )
        scratch_cfg = make_config(
            seed=str(seed), **{"model.temporal_units": "0", "optim.steps": "60", "optim.eval_every_epochs": "20"},
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
