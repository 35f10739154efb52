"""Threshold selection, the posterior-threshold classifier, average-precision
scoring per anomaly source, and the perturbation-sweep driver.

The decision rule is one-sided: a sample is called real exactly when its
posterior score exceeds the threshold, so ties go to synthetic. Average
precision treats synthetic as the positive class and ranks by ascending
posterior (descending anomaly score), breaking ties by stable input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bayes import Detector, score_chunk
from .perturb import apply_transform
from .preprocess import DatasetSplit, ImageRecord, anomaly_sources

REAL = "real"
SYNTHETIC = "synthetic"


class EvaluationError(ValueError):
    """Evaluation asked for something the data cannot support."""


def select_threshold(real_val_scores, percentile: float = 5.0) -> float:
    """Lower percentile of real validation scores, linearly interpolated
    between order statistics."""
    scores = np.asarray(real_val_scores, dtype=np.float64)
    if scores.size == 0:
        raise EvaluationError("cannot pick a threshold from an empty score list")
    if not 0.0 < percentile <= 50.0:
        raise EvaluationError(f"percentile must be in (0, 50], got {percentile}")
    return float(np.percentile(scores, percentile, method="linear"))


def is_real(scores, gamma: float) -> np.ndarray:
    """The decision rule, elementwise: real exactly when score > ``gamma``."""
    return np.asarray(scores) > gamma


def classify(score: float, gamma: float) -> str:
    return REAL if is_real(score, gamma) else SYNTHETIC


def average_precision(scores, labels) -> float:
    """AP of the ranking induced by ascending posterior score; ``labels``
    marks synthetic samples (the positive class) truthy."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise EvaluationError("scores and labels must be equal-length vectors")
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise EvaluationError("average precision needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranked = labels[order]
    cum_tp = np.cumsum(ranked)
    ranks = np.arange(1, labels.size + 1)
    precision = cum_tp / ranks
    return float(precision[ranked].sum() / n_pos)


@dataclass
class SourceResult:
    source: str
    ap: float
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    split_fraction: float
    gamma: float
    sources: list[SourceResult]
    histogram_edges: np.ndarray
    histogram_real: np.ndarray
    histogram_anomalous: np.ndarray
    scores_real: np.ndarray = field(repr=False, default=None)
    scores_by_source: dict = field(repr=False, default=None)

    @property
    def mean_ap(self) -> float:
        return float(np.mean([s.ap for s in self.sources]))


def _score_records(detector: Detector, records: list[ImageRecord],
                   transform: Callable[[np.ndarray], np.ndarray] | None) -> np.ndarray:
    scores = np.empty(len(records))
    step = score_chunk(detector.cnn.config.input_size)
    for start in range(0, len(records), step):
        chunk = records[start:start + step]
        pixels = [transform(r.pixels) if transform else r.pixels for r in chunk]
        scores[start:start + len(chunk)] = detector.score_batch(pixels)
    return scores


def evaluate(split: DatasetSplit, detector: Detector,
             transform: Callable[[np.ndarray], np.ndarray] | None = None) -> EvalReport:
    """Score the test part of a split and report one AP per anomaly source
    against the shared real test set, their mean, the confusion counts at the
    detector's stored threshold, and 50-bin score histograms."""
    gamma = detector.gamma
    real_records = [r for r in split.test if r.is_real]
    sources = anomaly_sources(split.test)
    if not real_records or not sources:
        raise EvaluationError("test split needs real samples and at least one anomaly source")
    real_scores = _score_records(detector, real_records, transform)
    tn = int(is_real(real_scores, gamma).sum())
    fp = real_scores.size - tn
    results = []
    by_source: dict[str, np.ndarray] = {}
    for source in sources:
        records = [r for r in split.test if r.source == source]
        scores = _score_records(detector, records, transform)
        by_source[source] = scores
        ap = average_precision(
            np.concatenate([real_scores, scores]),
            np.concatenate([np.zeros(real_scores.size, bool), np.ones(scores.size, bool)]))
        fn = int(is_real(scores, gamma).sum())
        results.append(SourceResult(source=source, ap=ap, tp=scores.size - fn, fp=fp,
                                    tn=tn, fn=fn))
    anom_scores = np.concatenate(list(by_source.values()))
    combined = np.concatenate([real_scores, anom_scores])
    edges = np.histogram_bin_edges(combined, bins=50)
    hist_real, _ = np.histogram(real_scores, bins=edges)
    hist_anom, _ = np.histogram(anom_scores, bins=edges)
    return EvalReport(split_fraction=split.split_fraction, gamma=float(gamma),
                      sources=results, histogram_edges=edges,
                      histogram_real=hist_real, histogram_anomalous=hist_anom,
                      scores_real=real_scores, scores_by_source=by_source)


def perturbation_sweep(split: DatasetSplit, detector: Detector, transform: str,
                       grid) -> list[tuple[float, EvalReport]]:
    """Re-evaluate the test split with the named transform applied to test
    images only, once per grid value."""
    grid = list(grid)
    if not grid:
        raise EvaluationError("sweep grid is empty")
    out = []
    for parameter in grid:
        fn = (lambda img, p=parameter: apply_transform(transform, img, p))
        out.append((float(parameter), evaluate(split, detector, transform=fn)))
    return out


# --- CSV export -----------------------------------------------------------------


def report_csv(report: EvalReport) -> str:
    lines = ["source,split,ap,map,gamma,tp,fp,tn,fn"]
    for s in report.sources:
        lines.append(",".join([
            s.source, repr(report.split_fraction), repr(s.ap),
            repr(report.mean_ap), repr(report.gamma),
            str(s.tp), str(s.fp), str(s.tn), str(s.fn)]))
    return "\n".join(lines) + "\n"


def histogram_csv(report: EvalReport) -> str:
    lines = ["bin_lo,bin_hi,count_real,count_anomalous"]
    for i in range(report.histogram_real.size):
        lines.append(",".join([
            repr(float(report.histogram_edges[i])),
            repr(float(report.histogram_edges[i + 1])),
            str(int(report.histogram_real[i])),
            str(int(report.histogram_anomalous[i]))]))
    return "\n".join(lines) + "\n"


def sweep_csv(transform: str, results: list[tuple[float, EvalReport]]) -> str:
    lines = ["transform,parameter,map"]
    for parameter, report in results:
        lines.append(",".join([transform, repr(parameter), repr(report.mean_ap)]))
    return "\n".join(lines) + "\n"
