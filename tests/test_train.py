import numpy as np
import pytest

from synthdetect.bayes import BayesianHead
from synthdetect.model import FineToCoarseCnn, reduced_scale_config
from synthdetect.preprocess import DatasetError, make_split
from synthdetect.textures import generate_records
from synthdetect.train import (
    TrainConfig,
    TrainingDivergedError,
    lr_schedule,
    train,
)


def _setup(n_real=60, n_per=20, fraction=0.5, seed=0, **cfg_over):
    records = generate_records(n_real, n_per, size=32, seed=11)
    split = make_split(records, fraction, seed=seed)
    over = dict(epochs=3, batch_size=8, seed=seed, metric_sample_cap=30)
    over.update(cfg_over)
    cfg = TrainConfig(**over)
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(cfg.seed))
    head = BayesianHead(cnn.feature_dim, hidden=32, alpha=cfg.alpha, beta=cfg.beta,
                        dropout_rate=cfg.dropout_rate,
                        rng=np.random.default_rng(cfg.seed + 1))
    return cnn, head, split, cfg


# --- schedule ----------------------------------------------------------------


def test_lr_starts_at_configured_value():
    cfg = TrainConfig(epochs=50)
    assert lr_schedule(0, cfg) == 1e-3


def test_lr_one_full_decay_over_budget():
    cfg = TrainConfig(epochs=50)
    assert lr_schedule(50, cfg) == pytest.approx(1e-4)


def test_lr_monotone_non_increasing():
    cfg = TrainConfig(epochs=50)
    lrs = [lr_schedule(e, cfg) for e in range(51)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(decay=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TrainConfig(inference_mode="mcmc")
    with pytest.raises(ValueError):
        TrainConfig(dropout_rate=1.0)


# --- training loop -------------------------------------------------------------


def test_zero_epochs_returns_initialized_checkpoint():
    cnn, head, split, _ = _setup()
    before = {name: p.data.copy() for name, p in cnn.parameters()}
    cfg = TrainConfig(epochs=0, batch_size=8, seed=0)
    detector, report = train(cnn, head, split, cfg)
    assert report.epochs == []
    assert report.stop_reason == "completed"
    for name, p in cnn.parameters():
        assert np.array_equal(p.data, before[name])
    assert detector.trained


def test_loss_decreases_on_toy_data():
    cnn, head, split, cfg = _setup(epochs=8)
    _, report = train(cnn, head, split, cfg)
    assert report.epochs[-1].train_loss < report.epochs[0].train_loss


def test_training_rejects_anomalous_samples():
    cnn, head, split, cfg = _setup()
    split.train.append(split.test[-1])
    if split.train[-1].is_real:
        pytest.skip("expected an anomalous record at the end of the test split")
    with pytest.raises(DatasetError):
        train(cnn, head, split, cfg)


def test_deterministic_reports():
    outs = []
    for _ in range(2):
        cnn, head, split, cfg = _setup()
        _, report = train(cnn, head, split, cfg)
        outs.append(report.to_csv())
    assert outs[0] == outs[1]


def test_report_csv_columns():
    cnn, head, split, cfg = _setup(epochs=2)
    _, report = train(cnn, head, split, cfg)
    lines = report.to_csv().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_metric,snapshot_flag"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


def test_snapshot_metrics_strictly_improve():
    cnn, head, split, cfg = _setup(epochs=8)
    _, report = train(cnn, head, split, cfg)
    snaps = [e.val_metric for e in report.epochs if e.snapshot]
    assert snaps, "at least one snapshot expected"
    for a, b in zip(snaps, snaps[1:]):
        assert b >= a + cfg.improvement_threshold
    assert report.best_metric == snaps[-1]


def test_early_stop_soundness():
    cnn, head, split, cfg = _setup(epochs=8, early_stop_gap=1e-6)
    _, report = train(cnn, head, split, cfg)
    if report.stop_reason == "early_stop":
        assert report.epochs[-1].gap > cfg.early_stop_gap
        assert len(report.epochs) < cfg.epochs
    else:
        assert all(e.gap <= cfg.early_stop_gap for e in report.epochs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    cnn, head, split, cfg = _setup(lr0=1e6)
    with pytest.raises(TrainingDivergedError):
        train(cnn, head, split, cfg)


def test_loss_decrease_across_seed_panel():
    for seed in range(5):
        cnn, head, split, cfg = _setup(seed=seed, epochs=6, n_real=40, n_per=10)
        _, report = train(cnn, head, split, cfg)
        assert report.epochs[-1].train_loss < report.epochs[0].train_loss, f"seed {seed}"


def test_variational_mode_trains_and_scores():
    cnn, head, split, cfg = _setup(epochs=3, inference_mode="variational", n_mc=1)
    detector, report = train(cnn, head, split, cfg)
    assert detector.mode == "variational"
    assert len(report.epochs) <= 3
    scores = detector.score_batch([split.test[0].pixels, split.test[-1].pixels])
    assert np.isfinite(scores).all()


def test_detector_scores_deterministic_after_training():
    cnn, head, split, cfg = _setup(epochs=2)
    detector, _ = train(cnn, head, split, cfg)
    a = detector.score_batch([r.pixels for r in split.test[:4]])
    b = detector.score_batch([r.pixels for r in split.test[:4]])
    assert np.array_equal(a, b)


def test_posterior_score_api():
    from synthdetect.bayes import Detector, UntrainedModelError

    cnn, head, split, cfg = _setup(epochs=4, n_real=120, n_per=40, fraction=0.6,
                                   improvement_threshold=0.0)
    untrained = Detector(cnn=cnn, head=head)
    with pytest.raises(UntrainedModelError):
        untrained.score_pixels(split.train[0].pixels)
    detector, _ = train(cnn, head, split, cfg)
    first = detector.score_pixels(split.train[0].pixels)
    assert first == detector.score_pixels(split.train[0].pixels)
    train_scores = detector.score_batch([r.pixels for r in split.train])
    assert (train_scores > detector.gamma).mean() > 0.5


def test_threshold_subset_scored_in_one_pass(monkeypatch):
    """At 32 px a 160-image training subset fits one scoring chunk, so each
    epoch's provisional threshold comes from a single inference pass."""
    cnn, head, split, cfg = _setup(epochs=2, n_real=400, n_per=10, fraction=0.5,
                                   batch_size=50, metric_sample_cap=160)
    assert len(split.train) >= 160
    infer_batches = []
    forward = FineToCoarseCnn.forward_features

    def counted(self, x, training):
        if not training:
            infer_batches.append(x.shape[0])
        return forward(self, x, training)

    monkeypatch.setattr(FineToCoarseCnn, "forward_features", counted)
    _, report = train(cnn, head, split, cfg)
    assert infer_batches.count(160) == len(report.epochs) == 2
