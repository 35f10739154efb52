"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them live).

The texture corpus experiment is trained once per split in a module-scoped
fixture and shared by the criteria that inspect it.
"""

import math
import time

import numpy as np
import pytest

from synthdetect.bayes import (
    BayesianHead,
    GaussNewtonCurvature,
    VariationalPosterior,
    cg_solve,
    elbo,
    map_objective,
    predictive,
)
from synthdetect.cli import main
from synthdetect.evaluate import (
    average_precision,
    evaluate,
    histogram_csv,
    perturbation_sweep,
)
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import channel_stats, make_split, rgb_normalize
from synthdetect.tensor import Tensor, backward, frozen, sgd_update
from synthdetect.textures import generate_records, write_dataset
from synthdetect.train import TrainConfig, train

from helpers import flat_weights, set_flat_weights, weight_count
from oracles import LinearHead, gauss_newton_dense

SPLITS = (0.2, 0.4, 0.6, 0.8)

TOY_CONFIG = dict(epochs=30, batch_size=32, seed=0,
                  improvement_threshold=0.0, early_stop_gap=0.12)


@pytest.fixture(scope="module")
def toy_runs():
    """Train the one-class model on the texture corpus at every split."""
    records = generate_records(2000, 1000, size=32, seed=123)
    runs = {}
    t0 = time.time()
    for fraction in SPLITS:
        split = make_split(records, fraction, seed=0)
        cfg = TrainConfig(**TOY_CONFIG)
        cnn = FineToCoarseCnn(CnnConfig(32),
                              rng=np.random.default_rng(cfg.seed))
        head = BayesianHead(cnn.feature_dim, hidden=cfg.hidden, alpha=cfg.alpha,
                            beta=cfg.beta, dropout_rate=cfg.dropout_rate,
                            rng=np.random.default_rng(cfg.seed + 1))
        detector, report = train(cnn, head, split, cfg)
        runs[fraction] = (split, detector, evaluate(split, detector), report)
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_1_gradient_correctness():
    """Analytic gradients of the training objective vs central differences on
    the reduced 32x32 network, 1000 random coordinates, >=99% within 1e-4."""
    t0 = time.time()
    records = generate_records(6, 0, size=32, seed=42)
    stats = channel_stats([r.pixels for r in records])
    x = Tensor(np.stack([rgb_normalize(r.pixels, stats) for r in records]))
    targets = np.ones(6)
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(0))
    head = BayesianHead(cnn.feature_dim, hidden=512, alpha=1e-2, beta=100.0,
                        dropout_rate=0.5, rng=np.random.default_rng(1))
    # (name, the dict that holds it), extractor first, then head
    named = [(name, params) for params in (cnn.params, head.params) for name in params]

    def objective(chain=None):
        drop = np.random.default_rng(777)  # identical mask on every call
        z = cnn.forward_features(x, training=True, chain=chain).data
        out = head.forward(z, training=True, rng=drop, chain=chain)
        return map_objective(out, targets, head.params, 1e-2, 100.0)

    def value():
        return objective()[0]

    chain = []
    _, cotangent, prior = objective(chain)
    _, grads = backward(chain, cotangent)
    grads.update({name: grads[name] + g for name, g in prior.items()})

    sizes = np.array([params[name].size for name, params in named])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    coords = np.sort(np.random.default_rng(99).choice(
        offsets[-1], size=1000, replace=False))
    step = 1e-4
    ok = 0
    for c in coords:
        pi = int(np.searchsorted(offsets, c, side="right") - 1)
        local = int(c - offsets[pi])
        name, params = named[pi]
        base = params[name].copy()
        flat = base.reshape(-1)
        orig = flat[local]
        flat[local] = orig + step
        params[name] = frozen(base.copy())
        hi = value()
        flat[local] = orig - step
        params[name] = frozen(base.copy())
        lo = value()
        flat[local] = orig
        params[name] = frozen(base.copy())
        numeric = (hi - lo) / (2 * step)
        analytic = grads[name].reshape(-1)[local]
        denom = max(abs(numeric), abs(analytic))
        if denom < 1e-8:
            ok += abs(numeric - analytic) < 1e-8
        else:
            ok += abs(numeric - analytic) / denom < 1e-4
    elapsed = time.time() - t0
    assert ok >= 990, f"only {ok}/1000 coordinates within tolerance"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: {ok}/1000 gradient coordinates within 1e-4 "
          f"({elapsed:.1f}s)")


def test_criterion_2_laplace_conjugate_oracle():
    """Predictive mean/variance vs closed-form Bayesian linear regression."""
    t0 = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(d, 3 * d + 2))
        alpha = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(0.5, 10.0))
        Z = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        S = np.linalg.inv(alpha * np.eye(d) + beta * Z.T @ Z)
        m = beta * S @ Z.T @ y
        head = LinearHead(d, alpha=alpha, beta=beta)
        set_flat_weights(head, m)
        curv = GaussNewtonCurvature(head, Z)
        z = rng.normal(size=d)
        mean, var = predictive(z, head, curv)
        err = max(abs(mean - m @ z), abs(var - (1.0 / beta + z @ S @ z)))
        worst = max(worst, err)
        assert err < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: 100 conjugate instances, worst abs error "
          f"{worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_hessian_free_solve():
    """CG-based quadratic form vs the dense solve at head dimension ~1000."""
    rng = np.random.default_rng(31)
    head = BayesianHead(40, hidden=24, alpha=0.05, beta=9.0, dropout_rate=0.0,
                        rng=rng)
    assert weight_count(head) <= 1024
    Z = rng.normal(size=(120, 40))
    curv = GaussNewtonCurvature(head, Z)
    dense = 0.05 * np.eye(weight_count(head)) + 9.0 * gauss_newton_dense(head, Z)
    worst = 0.0
    for _ in range(5):
        g = rng.normal(size=weight_count(head))
        q_cg = g @ cg_solve(lambda v: 0.05 * v + 9.0 * curv.matvec(v), g)
        q_dense = g @ np.linalg.solve(dense, g)
        rel = abs(q_cg - q_dense) / abs(q_dense)
        worst = max(worst, rel)
        assert rel < 1e-6
    print(f"\nACCEPTANCE 3 PASS: dim={weight_count(head)}, worst relative "
          f"error {worst:.2e}")


def test_criterion_4_toy_one_class_experiment(toy_runs):
    """Train on smooth textures only; mAP against two anomaly sources."""
    maps = {f: toy_runs[f][2].mean_ap for f in SPLITS}
    assert maps[0.8] >= 0.90, f"mAP at 80% split = {maps[0.8]:.4f}"
    for lo, hi in zip(SPLITS, SPLITS[1:]):
        assert maps[hi] >= maps[lo] - 0.03, \
            f"mAP fell from {maps[lo]:.4f} ({lo}) to {maps[hi]:.4f} ({hi})"
    assert toy_runs["elapsed"] < 900.0, f"took {toy_runs['elapsed']:.0f}s"
    pretty = {f: round(m, 4) for f, m in maps.items()}
    print(f"\nACCEPTANCE 4 PASS: mAP by split {pretty} "
          f"({toy_runs['elapsed']:.0f}s total)")


def _auc_from_histogram(report) -> float:
    """Probability that a random real sample outscores a random anomalous one,
    estimated from the exported binned counts (ties count half)."""
    real = report.histogram_real.astype(float)
    anom = report.histogram_anomalous.astype(float)
    real_above = real.sum() - np.cumsum(real)
    wins = (anom * (real_above + 0.5 * real)).sum()
    return wins / (real.sum() * anom.sum())


def test_criterion_5_posterior_separation(toy_runs):
    split, detector, report, _ = toy_runs[0.8]
    csv = histogram_csv(report)
    assert csv.splitlines()[0] == "bin_lo,bin_hi,count_real,count_anomalous"
    auc = _auc_from_histogram(report)
    assert auc >= 0.9, f"AUC={auc:.4f}"
    fpr = float((report.scores_real <= detector.gamma).mean())
    assert fpr <= 0.10, f"false-positive rate {fpr:.3f}"
    print(f"\nACCEPTANCE 5 PASS: histogram AUC={auc:.4f}, "
          f"real FPR at stored threshold={fpr:.3f}")


def test_criterion_6_perturbation_trends(toy_runs):
    split, detector, base_report, _ = toy_runs[0.8]
    blur = [r.mean_ap for _, r in perturbation_sweep(split, detector, "blur",
                                                     [0, 1, 2, 4])]
    for a, b in zip(blur, blur[1:]):
        assert b <= a + 0.02, f"blur mAP rose: {blur}"
    assert blur[0] - blur[-1] >= 0.15, \
        f"blur at sigma=4 only dropped {blur[0] - blur[-1]:.3f}"
    jpeg = [r.mean_ap for _, r in perturbation_sweep(split, detector, "jpeg",
                                                     [100, 50, 10])]
    assert abs(jpeg[0] - base_report.mean_ap) <= 0.02  # quality 100 ~ identity
    for a, b in zip(jpeg, jpeg[1:]):
        assert b <= a, f"jpeg mAP rose: {jpeg}"
    resize = [r.mean_ap for _, r in perturbation_sweep(split, detector, "resize",
                                                       [0.5, 0.25])]
    base = base_report.mean_ap
    drops = [base - m for m in resize]
    assert drops[1] >= drops[0], f"resize drops not ordered by factor: {drops}"
    print(f"\nACCEPTANCE 6 PASS: blur {[round(m, 4) for m in blur]}, "
          f"jpeg {[round(m, 4) for m in jpeg]}, "
          f"resize {[round(m, 4) for m in resize]} (base {base:.4f})")


def test_criterion_7_metric_correctness():
    def brute_force(scores, labels):
        order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
        n_pos = sum(labels)
        tp = 0
        total = 0.0
        for rank, idx in enumerate(order, start=1):
            if labels[idx]:
                tp += 1
                total += tp / rank / n_pos
        return total

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 21))
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.random(n), 1)
        got = average_precision(scores, labels)
        want = brute_force(list(scores), list(labels))
        assert got == pytest.approx(want, abs=1e-12)
        checked += 1
    n = 10 ** 4
    labels = np.zeros(n, bool)
    labels[: n // 2] = True
    baseline = average_precision(rng.random(n), labels)
    assert baseline == pytest.approx(0.5, abs=0.02)
    print(f"\nACCEPTANCE 7 PASS: 1000 brute-force instances matched; "
          f"random baseline AP={baseline:.4f}")


def test_criterion_8_cli_determinism(tmp_path):
    root = tmp_path / "data"
    write_dataset(root, 48, 16, size=32, seed=3)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 2\nbatch_size = 8\ninput_size = 32\nsplit = 0.5\n"
                   "metric_sample_cap = 24\n")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["train", "--data", str(root), "--out", str(out),
                     "--config", str(cfg), "--seed", "11"])
        assert code == 0
        outs.append(out)
    report_a = (outs[0] / "train_report.csv").read_bytes()
    report_b = (outs[1] / "train_report.csv").read_bytes()
    ckpt_a = (outs[0] / "checkpoint.bin").read_bytes()
    ckpt_b = (outs[1] / "checkpoint.bin").read_bytes()
    assert report_a == report_b
    assert ckpt_a == ckpt_b
    print(f"\nACCEPTANCE 8 PASS: byte-identical report ({len(report_a)} B) "
          f"and checkpoint ({len(ckpt_a)} B) across reruns")


def test_criterion_9_elbo_against_evidence():
    rng = np.random.default_rng(17)
    Z = rng.normal(size=(20, 1))
    y = 0.9 * Z[:, 0] + rng.normal(size=20, scale=0.3)
    alpha, beta = 1.0, 1.0 / 0.09
    n = 20
    cov = np.eye(n) / beta + (Z @ Z.T) / alpha
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    evidence = -0.5 * (n * math.log(2 * math.pi) + logdet
                       + y @ np.linalg.solve(cov, y))

    head = LinearHead(1, alpha=alpha, beta=beta)
    q = VariationalPosterior(head, init_log_std=-2.0)
    opt_rng = np.random.default_rng(18)
    for _ in range(200):
        _, _, grads = elbo(head, q, Z, y, alpha, beta, n_mc=16, rng=opt_rng)
        for params in (head.params, q.log_stds):
            sgd_update(params, grads, -1e-4)  # ascend the bound

    estimate = elbo(head, q, Z, y, alpha, beta, n_mc=10_000,
                    rng=np.random.default_rng(0))[0]
    assert estimate <= evidence + 1e-6, \
        f"ELBO {estimate:.6f} exceeds evidence {evidence:.6f}"
    S = np.linalg.inv(alpha * np.eye(1) + beta * Z.T @ Z)
    m = beta * S @ Z.T @ y
    dist = abs(flat_weights(head)[0] - m[0]) / math.sqrt(S[0, 0])
    assert dist < 2.0, f"q mean {dist:.2f} posterior stds from the exact mean"
    print(f"\nACCEPTANCE 9 PASS: ELBO {estimate:.4f} <= evidence "
          f"{evidence:.4f}; q mean within {dist:.3f} posterior stds")
