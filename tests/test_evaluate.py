import dataclasses

import numpy as np
import pytest

from synthdetect.bayes import BayesianHead, Detector
from synthdetect.evaluate import (
    EvaluationError,
    average_precision,
    classify,
    evaluate,
    histogram_csv,
    perturbation_sweep,
    report_csv,
    select_threshold,
    sweep_csv,
)
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import DatasetSplit, ImageRecord, NormStats


def brute_force_ap(scores, labels):
    """Direct precision/recall walk down the tie-stable ranking."""
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    n_pos = sum(labels)
    tp = 0
    ap = 0.0
    for rank, idx in enumerate(order, start=1):
        if labels[idx]:
            tp += 1
            ap += (tp / rank) * (1.0 / n_pos)
    return ap


# --- select_threshold --------------------------------------------------------


def test_threshold_constant_scores():
    assert select_threshold([3.3] * 10, 5.0) == 3.3


def test_threshold_interpolated_percentile():
    scores = list(range(1, 101))
    assert select_threshold(scores, 5.0) == pytest.approx(5.95)


def test_threshold_bounds_fraction_below():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=400)
    gamma = select_threshold(scores, 5.0)
    below = (scores < gamma).sum()
    assert below <= 0.05 * len(scores) + 1


def test_threshold_permutation_invariant():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=101)
    g1 = select_threshold(scores, 12.5)
    g2 = select_threshold(scores[rng.permutation(101)], 12.5)
    assert g1 == g2


def test_threshold_rejects_bad_input():
    with pytest.raises(EvaluationError):
        select_threshold([], 5.0)
    with pytest.raises(EvaluationError):
        select_threshold([1.0], 60.0)


# --- classify ------------------------------------------------------------------


def test_classify_tie_goes_synthetic():
    assert classify(0.5, 0.5) == "synthetic"
    assert classify(0.5 + 1e-12, 0.5) == "real"


def test_classify_monotone_in_gamma():
    score = 0.7
    verdicts = [classify(score, g) for g in (0.1, 0.5, 0.69, 0.7, 0.9)]
    flipped = False
    for v in verdicts:
        if v == "synthetic":
            flipped = True
        else:
            assert not flipped, "raising gamma turned a synthetic verdict back to real"


# --- average precision -----------------------------------------------------------


def test_ap_perfect_separation():
    scores = [0.1, 0.2, 0.8, 0.9]
    labels = [True, True, False, False]
    assert average_precision(scores, labels) == 1.0


def test_ap_hand_case():
    scores = [0.9, 0.8, 0.85, 0.1]
    labels = [False, False, True, True]
    # ranking by ascending posterior: 0.1(s), 0.8(r), 0.85(s), 0.9(r)
    want = 0.5 * (1.0 / 1.0) + 0.5 * (2.0 / 3.0)
    assert average_precision(scores, labels) == pytest.approx(want)


def test_ap_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(2, 21))
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            continue
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        assert average_precision(scores, labels) == pytest.approx(
            brute_force_ap(list(scores), list(labels)), abs=1e-12)


def test_ap_random_baseline_half():
    rng = np.random.default_rng(3)
    n = 10 ** 4
    labels = np.zeros(n, bool)
    labels[: n // 2] = True
    scores = rng.random(n)
    assert average_precision(scores, labels) == pytest.approx(0.5, abs=0.02)


def test_ap_invariant_under_monotone_transform():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=50)
    labels = rng.random(50) < 0.4
    base = average_precision(scores, labels)
    assert average_precision(np.exp(scores), labels) == pytest.approx(base)
    assert average_precision(3 * scores + 7, labels) == pytest.approx(base)


def test_ap_rejects_single_class():
    with pytest.raises(EvaluationError):
        average_precision([0.1, 0.2], [True, True])


# --- evaluate / sweep -------------------------------------------------------------


def _toy_detector(seed=0):
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(seed))
    head = BayesianHead(cnn.feature_dim, hidden=16, dropout_rate=0.0,
                        rng=np.random.default_rng(seed + 1))
    norm = NormStats(mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25))
    return Detector(cnn=cnn, head=head, norm=norm, gamma=0.0)


def _record(source, seed):
    rng = np.random.default_rng(seed)
    raster = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
    return ImageRecord(f"mem-{source}-{seed}", raster, source)


def _split_with_sources(sources, n=6, duplicate=False):
    test = [_record("real", i) for i in range(n)]
    for k, source in enumerate(sources):
        base = 100 * (1 if duplicate else k + 1)
        test += [_record(source, base + i) for i in range(n)]
    return DatasetSplit(0.5, 0, train=[_record("real", 50)],
                        validation=[_record("real", 60)], test=test)


def test_duplicate_sources_equal_aps():
    det = _toy_detector()
    split = _split_with_sources(["a", "b"], duplicate=True)
    report = evaluate(split, det)
    assert len(report.sources) == 2
    assert report.sources[0].ap == report.sources[1].ap
    assert report.mean_ap == report.sources[0].ap


def test_evaluate_requires_both_classes():
    det = _toy_detector()
    split = DatasetSplit(0.5, 0, train=[_record("real", 0)],
                         validation=[], test=[_record("real", 1)])
    with pytest.raises(EvaluationError):
        evaluate(split, det)


def test_evaluate_histogram_counts():
    det = _toy_detector()
    split = _split_with_sources(["a"], n=8)
    report = evaluate(split, det)
    assert report.histogram_real.sum() == 8
    assert report.histogram_anomalous.sum() == 8
    assert report.histogram_edges.size == 51


def test_evaluate_confusion_counts_at_gamma():
    det = _toy_detector()
    split = _split_with_sources(["a"], n=8)
    base = evaluate(split, det)
    median = np.median(np.concatenate([base.scores_real, base.scores_by_source["a"]]))
    report = evaluate(split, dataclasses.replace(det, gamma=median))
    assert report.gamma == median
    src = report.sources[0]
    assert src.tp + src.fn == 8
    assert src.fp + src.tn == 8
    real_below = (report.scores_real <= report.gamma).sum()
    assert src.fp == real_below


def test_sweep_identity_point_matches_unperturbed():
    det = _toy_detector()
    split = _split_with_sources(["a", "b"], n=6)
    base = evaluate(split, det)
    sweep = perturbation_sweep(split, det, "blur", [0.0])
    assert sweep[0][0] == 0.0
    assert sweep[0][1].mean_ap == base.mean_ap


def test_sweep_rejects_empty_grid():
    det = _toy_detector()
    split = _split_with_sources(["a"])
    with pytest.raises(EvaluationError):
        perturbation_sweep(split, det, "blur", [])


# --- CSV shapes --------------------------------------------------------------------


def test_csv_exports():
    det = _toy_detector()
    split = _split_with_sources(["a", "b"], n=5)
    report = evaluate(split, det)
    rc = report_csv(report)
    lines = rc.splitlines()
    assert lines[0] == "source,split,ap,map,gamma,tp,fp,tn,fn"
    assert len(lines) == 3
    assert "\r" not in rc and rc.endswith("\n")
    hc = histogram_csv(report)
    assert hc.splitlines()[0] == "bin_lo,bin_hi,count_real,count_anomalous"
    assert len(hc.splitlines()) == 51
    sc = sweep_csv("blur", perturbation_sweep(split, det, "blur", [0.0, 1.0]))
    assert sc.splitlines()[0] == "transform,parameter,map"
    assert len(sc.splitlines()) == 3
