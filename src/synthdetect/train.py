"""One-class training: minibatch SGD with exponential learning-rate decay,
best-model checkpointing on validation improvement, and an early-stopping
gap criterion.

Training needs real validation samples at every epoch count, zero included:
the detector it returns always carries the threshold placed at the
configured lower percentile of their scores under the restored weights.

Every real training sample is regressed to the constant target (default 1).
The per-epoch validation metric is a real-retention proxy: the fraction of
real validation samples scoring above a provisional threshold placed at a
lower percentile of the training-pool scores. The early-stop rule compares
that metric against the same retention on a held-back half of the validation
pool (a test proxy that avoids touching the true test set).

A MAP step appends the extractor's and the head's links to one chain, pulls
the objective's cotangent back through it with one ``backward`` and adds the
prior's gradients to the head's. A variational step pulls each sample's head
chain inside ``elbo``, which returns the q gradients whole, and seeds the
extractor's chain with the features' summed cotangent. ``sgd_update`` then
steps ``cnn.params``, ``head.params`` and, in variational mode, ``q.log_stds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bayes import (
    HEAD_RULES,
    INFERENCE_MODES,
    BayesianHead,
    Detector,
    VariationalPosterior,
    elbo,
    map_objective,
    posterior_scores,
)
from .evaluate import is_real, select_threshold
from .model import FineToCoarseCnn
from .preprocess import DatasetSplit, DatasetError, channel_stats, center_crop, preprocess_pixels
from .tensor import Tensor, backward, sgd_update


class TrainingDivergedError(ArithmeticError):
    """An epoch went non-finite; learning rate or data needs attention."""


@dataclass
class TrainConfig:
    lr0: float = 1e-3
    decay: float = 0.1
    epochs: int = 50
    batch_size: int = 512
    improvement_threshold: float = 0.01
    early_stop_gap: float = 0.06
    seed: int = 0
    inference_mode: str = "map"  # map | variational
    alpha: float = 1e-2
    beta: float = 100.0
    dropout_rate: float = 0.5
    hidden: int = 512
    target: float = 1.0
    percentile: float = 5.0
    n_mc: int = 1
    metric_sample_cap: int = 512

    def __post_init__(self):
        for name, (rule, ok) in _CONFIG_RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")


_CONFIG_RULES = {  # every TrainConfig field: (requirement, test)
    "lr0": ("finite and > 0", lambda v: math.isfinite(v) and v > 0),
    "decay": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "epochs": (">= 0", lambda v: v >= 0),
    "batch_size": (">= 2 (batch-norm constraint)", lambda v: v >= 2),
    "improvement_threshold": ("finite", math.isfinite),
    "early_stop_gap": ("finite", math.isfinite),
    "seed": (">= 0", lambda v: v >= 0),
    "inference_mode": (f"one of {INFERENCE_MODES}", lambda v: v in INFERENCE_MODES),
    **HEAD_RULES,
    "target": ("finite", math.isfinite),
    "percentile": ("in (0, 50]", lambda v: 0.0 < v <= 50.0),
    "n_mc": (">= 1", lambda v: v >= 1),
    "metric_sample_cap": (">= 1", lambda v: v >= 1),
}


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """lr0 * decay^(epoch/period): one full decay factor across the epoch
    budget, strictly decreasing epoch to epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    period = max(cfg.epochs, 1)
    return cfg.lr0 * cfg.decay ** (epoch / period)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float
    proxy_metric: float
    gap: float
    snapshot: bool


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = float("-inf")
    stop_reason: str = "completed"

    def to_csv(self) -> str:
        lines = ["epoch,lr,train_loss,val_metric,snapshot_flag"]
        for s in self.epochs:
            lines.append(",".join([
                str(s.epoch), repr(s.lr), repr(s.train_loss),
                repr(s.val_metric), "1" if s.snapshot else "0"]))
        return "\n".join(lines) + "\n"


def _retention(scores: np.ndarray, gamma: float) -> float:
    return float(is_real(scores, gamma).mean())


def snapshot_state(cnn: FineToCoarseCnn, head: BayesianHead) -> dict:
    """What ``train`` restores at its end: the extractor's and the head's
    state. The threshold is not part of it: ``train`` takes that from the
    restored weights. Parameters are held by reference (see
    ``FineToCoarseCnn.state_arrays``); only the buffers are copied."""
    return {"cnn": cnn.state_arrays(), "head": dict(head.params)}


def _sgd_epoch(cnn: FineToCoarseCnn, head: BayesianHead, q: VariationalPosterior | None,
               x_train: np.ndarray, lr: float, cfg: TrainConfig, rng: np.random.Generator
               ) -> list[float]:
    """One epoch of minibatch SGD at ``lr``, and each step's loss. Its return
    frees the last step's chain and gradients before validation scoring."""
    trainable = [cnn.params, head.params] + ([] if q is None else [q.log_stds])
    order = rng.permutation(len(x_train))
    losses = []
    for start in range(0, len(order), cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        if idx.size < 2:
            continue  # batch-norm cannot standardize a single sample
        xb = Tensor.adopt(x_train[idx])  # fancy indexing already copied
        yb = np.full(idx.size, cfg.target)
        # step on the objective in squared-error units (mean per sample,
        # scaled by 1/beta) so the learning rate keeps its meaning no
        # matter how sharp the noise precision is
        scale = 1.0 / (idx.size * cfg.beta)
        chain = []
        z = cnn.forward_features(xb, training=True, chain=chain).data
        if q is None:
            # one chain, extractor and head, and one backward
            out = head.forward(z, training=True, rng=rng, chain=chain)
            value, cotangent, prior = map_objective(
                out, yb, head.params, cfg.alpha, cfg.beta, scale)
            _, grads = backward(chain, cotangent)
            # in place, into the prior's own arrays: a separate sum
            # would keep both alive until the next step
            grads.update({name: np.add(g, grads[name], out=g)
                          for name, g in prior.items()})
        else:
            scale = -scale  # ascend the bound
            value, cotangent, q_gradients = elbo(
                head, q, z, yb, cfg.alpha, cfg.beta, n_mc=cfg.n_mc,
                rng=rng, training=True, dropout_rng=rng, scale=scale)
            _, grads = backward(chain, cotangent)
            grads.update(q_gradients)
        losses.append(value * scale)
        for params in trainable:
            sgd_update(params, grads, lr)
    return losses


def train(cnn: FineToCoarseCnn, head: BayesianHead, split: DatasetSplit,
          cfg: TrainConfig) -> tuple[Detector, TrainReport]:
    """Run the configured number of epochs and return the best-validation
    checkpoint as a ready-to-score Detector plus the per-epoch report."""
    if not split.train:
        raise DatasetError("training split is empty")
    if any(not r.is_real for r in split.train):
        raise DatasetError("training split contains anomalous samples")
    size = cnn.config.input_size
    stats = channel_stats([center_crop(r.pixels, size) for r in split.train])
    x_train = np.stack([preprocess_pixels(r.pixels, size, stats) for r in split.train])
    val_real_records = [r for r in split.validation if r.is_real]
    if not val_real_records:
        raise DatasetError("validation split has no real samples to set the threshold")
    x_val = np.stack([preprocess_pixels(r.pixels, size, stats) for r in val_real_records])
    half = len(x_val) // 2
    x_metric, x_proxy = (x_val[:half], x_val[half:]) if half else (x_val, x_val)

    pick = np.random.default_rng([cfg.seed, 777])
    n_sub = min(cfg.metric_sample_cap, len(x_train))
    sub_idx = np.sort(pick.choice(len(x_train), size=n_sub, replace=False))
    x_sub = x_train[sub_idx]

    rng = np.random.default_rng(cfg.seed)
    q = VariationalPosterior(head) if cfg.inference_mode == "variational" else None

    report = TrainReport()
    best_state = snapshot_state(cnn, head)
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg)
        try:
            losses = _sgd_epoch(cnn, head, q, x_train, lr, cfg, rng)
            # provisional threshold: the configured percentile of training
            # scores, floored at half the target so retention reflects fit
            # progress until scores actually reach the target's neighborhood
            # (an unanchored percentile is maximized by an untrained model)
            gamma_e = max(select_threshold(posterior_scores(cnn, head, x_sub),
                                           cfg.percentile), 0.5 * cfg.target)
            metric = _retention(posterior_scores(cnn, head, x_metric), gamma_e)
            proxy = _retention(posterior_scores(cnn, head, x_proxy), gamma_e)
        except FloatingPointError as err:
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch} (lr={lr:.3e}): {err}") from err
        gap = abs(proxy - metric)
        snap = metric >= report.best_metric + cfg.improvement_threshold
        if snap:
            report.best_metric = metric
            report.best_epoch = epoch
            best_state = snapshot_state(cnn, head)
        report.epochs.append(EpochStats(
            epoch=epoch, lr=lr, train_loss=float(np.mean(losses)) if losses else 0.0,
            val_metric=metric, proxy_metric=proxy, gap=gap, snapshot=snap))
        if gap > cfg.early_stop_gap:
            report.stop_reason = "early_stop"
            break

    cnn.load_state_arrays(best_state["cnn"])
    head.params.update(best_state["head"])
    gamma = select_threshold(posterior_scores(cnn, head, x_val), cfg.percentile)
    detector = Detector(cnn=cnn, head=head, norm=stats, gamma=gamma, mode=cfg.inference_mode)
    return detector, report
