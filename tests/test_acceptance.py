"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 8 is informational only: it reports numbers when the external
pixel dataset is supplied through OSC_ORL_DATA / OSC_ORL_LABELS and never
fails the suite.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from oscluster import KMeansConfig, acc, ari, fit, kmeans, nmi, run_osc, standardize, validate
from oscluster.cli import main as cli_main
from oscluster.subspace_lab import SubspaceModel, error_decay_study, generate
from oscluster.subspace_lab import validate as validate_subspaces

from test_metrics import all_tables, brute_acc, direct_nmi, labels_from_table, pair_count_ari
from test_kmeans import brute_force_objective

REFERENCE_MODEL = dict(
    p=100, k=3, subspace_dims=(3, 3, 3), cluster_sizes=(100, 100, 100),
    noise_sigmas=(0.05, 0.10, 0.15),
)


def report(criterion, summary):
    print(f"\nACCEPTANCE {criterion} PASS: {summary}")


def test_criterion_1_exact_algebra_identities():
    model = SubspaceModel(seed=20260809, **REFERENCE_MODEL)
    trials = 10
    t0 = time.perf_counter()
    verdict = validate_subspaces(model, 9, trials)
    per_trial = (time.perf_counter() - t0) / trials
    assert verdict.orthonormality_err < 1e-8
    assert verdict.residual_orth_err < 1e-8
    assert per_trial < 5.0
    report(1, f"orthonormality_err={verdict.orthonormality_err:.2e}, "
              f"residual_orth_err={verdict.residual_orth_err:.2e}, "
              f"{per_trial * 1e3:.1f} ms/trial (limit 5 s)")


def test_criterion_2_block_structure():
    model = SubspaceModel(seed=20260809, **REFERENCE_MODEL)
    verdict = validate_subspaces(model, 9, 50)
    rels = []
    for obs, pred in zip(verdict.within_diag_obs, verdict.within_diag_pred_union):
        rel = abs(obs - pred) / pred
        assert rel <= 0.15
        rels.append(rel)
    limit = min(verdict.within_diag_obs) / 10.0
    assert verdict.cross_block_max <= limit
    report(2, f"diag rel errs={[f'{r:.1%}' for r in rels]} (limit 15%), "
              f"cross_block_max={verdict.cross_block_max:.2e} <= {limit:.2e}")


def test_criterion_3_error_decay_slope():
    # Symmetric (zero-mean) signals: the off-diagonal magnitude then tracks
    # the realization-noise envelope whose decay the 1/sqrt(N) bound caps.
    model = SubspaceModel(seed=20260809, signal_mean=(0.0, 0.0, 0.0), **REFERENCE_MODEL)
    t0 = time.perf_counter()
    study = error_decay_study(model, (100, 400, 1600), trials=50)
    elapsed = time.perf_counter() - t0
    assert -0.8 <= study.slope <= -0.35
    assert elapsed < 180.0
    vals = [f"{r.within_offdiag_max:.2e}" for r in study.rows]
    report(3, f"slope={study.slope:.3f} in [-0.8, -0.35], values={vals}, "
              f"runtime={elapsed:.1f} s (limit 180 s)")


def test_criterion_4_end_to_end_clustering():
    model = SubspaceModel(seed=424242, **dict(REFERENCE_MODEL,
                                              noise_sigmas=(0.05, 0.05, 0.05)))
    accs, nmis, aris = [], [], []
    for rep in range(20):
        sample = generate(model, rng=np.random.default_rng([model.seed, rep]))
        out = run_osc(sample.to_data_matrix(), 0.85, 3,
                      KMeansConfig(k=3, restarts=10, seed=1000 + rep))
        accs.append(out.metrics.acc)
        nmis.append(out.metrics.nmi)
        aris.append(out.metrics.ari)
    acc_mean, acc_sd = float(np.mean(accs)), float(np.std(accs))
    assert acc_mean >= 0.95
    assert float(np.mean(aris)) >= 0.90
    assert float(np.mean(nmis)) >= 0.90
    assert acc_sd <= 0.05
    report(4, f"ACC={acc_mean:.4f}±{acc_sd:.4f}, ARI={np.mean(aris):.4f}, "
              f"NMI={np.mean(nmis):.4f} over 20 repeats")


def test_criterion_5_metric_oracle_equivalence():
    checked = 0
    for n in range(2, 9):
        for table in all_tables(n):
            t, p = labels_from_table(table)
            assert acc(t, p) == pytest.approx(brute_acc(t, p), abs=1e-12)
            assert ari(t, p) == pytest.approx(pair_count_ari(t, p), abs=1e-12)
            checked += 1
    rng = np.random.default_rng(606)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        t = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        p = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        assert nmi(t, p) == pytest.approx(direct_nmi(t, p), abs=1e-12)
    report(5, f"{checked} contingency tables (all partition pairs, n<=8, <=3 blocks) "
              f"+ 100 random NMI pairs, all within 1e-12")


def test_criterion_6_kmeans_desk_scale_optimality():
    master = np.random.default_rng(20260401)
    worst = 0.0
    for _ in range(50):
        n = int(master.integers(4, 9))
        k = int(master.integers(2, 4))
        m = int(master.integers(1, 3))
        pts = master.normal(size=(n, m)) * master.uniform(0.5, 3.0)
        res = kmeans(pts, KMeansConfig(k=k, restarts=20, seed=int(master.integers(1 << 30))))
        ref = brute_force_objective(pts, k)
        worst = max(worst, abs(res.objective - ref))
        assert abs(res.objective - ref) <= 1e-9
        assert (np.diff(res.objective_trace) <= 1e-12).all()
    report(6, f"50 instances match brute-force partition minima, "
              f"worst gap={worst:.2e} (limit 1e-9), all traces non-increasing")


def test_criterion_7_factor_model_identities():
    rng = np.random.default_rng(777)
    worst_rec = 0.0
    worst_orth = 0.0
    for _ in range(3):
        view = standardize(validate(rng.normal(size=(30, 200))))
        model = fit(view, 1.0)
        assert (np.diff(model.theta_curve) >= -1e-15).all()
        assert abs(model.theta_curve[-1] - 1.0) <= 1e-12
        gram = model.f_basis.T @ model.f_basis
        orth = float(np.abs(gram - np.eye(gram.shape[0])).max())
        assert orth < 1e-6
        rec = float(np.linalg.norm(view.r_samples - model.loadings @ model.loadings.T))
        assert rec <= 1e-8
        worst_rec = max(worst_rec, rec)
        worst_orth = max(worst_orth, orth)
    report(7, f"theta curve monotone with theta(N)=1, F'F-I max={worst_orth:.2e} "
              f"(limit 1e-6), reconstruction err={worst_rec:.2e} (limit 1e-8)")


def test_criterion_8_external_dataset_informational():
    # Non-gating: reproduction of published numbers depends on an external
    # pixel matrix with unspecified preprocessing.
    data_path = os.environ.get("OSC_ORL_DATA")
    labels_path = os.environ.get("OSC_ORL_LABELS")
    if not data_path or not labels_path:
        report(8, "INFORMATIONAL, skipped: set OSC_ORL_DATA/OSC_ORL_LABELS to a "
                  "pixel matrix to record m at theta0=0.80 (expected m=30, "
                  "ACC in [0.80, 0.90])")
        return
    from oscluster import load_labels, load_matrix
    data = validate(load_matrix(data_path), labels=load_labels(labels_path))
    out = run_osc(data, 0.80, int(np.unique(data.labels).size),
                  KMeansConfig(k=2, restarts=10, seed=0))
    report(8, f"INFORMATIONAL: m={out.m} (expected 30), "
              f"ACC={out.metrics.acc:.3f} (expected within [0.80, 0.90])")


def test_criterion_9_cli_determinism(tmp_path):
    model = SubspaceModel(p=40, k=3, subspace_dims=(2, 2, 2),
                          cluster_sizes=(20, 20, 20),
                          noise_sigmas=(0.03, 0.03, 0.03), seed=99)
    sample = generate(model)
    x_path = tmp_path / "X.csv"
    y_path = tmp_path / "y.txt"
    np.savetxt(x_path, sample.y.T, delimiter=",")
    np.savetxt(y_path, sample.labels, fmt="%d")
    args = ["cluster", "--input", str(x_path), "--labels", str(y_path),
            "--k", "3", "--theta", "0.85", "--seed", "31337"]
    assert cli_main(args + ["--out-dir", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "r2")]) == 0
    p1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    p2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    keys = ("metrics", "m", "theta_of_m", "kmeans", "seed", "N", "p")
    b1 = json.dumps({k: p1[k] for k in keys}, sort_keys=True).encode()
    b2 = json.dumps({k: p2[k] for k in keys}, sort_keys=True).encode()
    assert b1 == b2
    report(9, f"rerun with identical config reproduces byte-identical metric "
              f"values ({len(b1)} bytes compared)")
