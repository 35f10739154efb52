import copy
import dataclasses
import weakref

import numpy as np
import pytest

from synthdetect import tensor as T
from synthdetect import train as train_module
from synthdetect.bayes import BayesianHead, map_objective
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import DatasetError, make_split
from synthdetect.textures import generate_records
from synthdetect.train import (
    _CONFIG_RULES,
    TrainConfig,
    TrainingDivergedError,
    lr_schedule,
    snapshot_state,
    train,
)
from synthdetect.tensor import Tensor, backward, sgd_update


def _setup(n_real=60, n_per=20, fraction=0.5, seed=0, **cfg_over):
    records = generate_records(n_real, n_per, size=32, seed=11)
    split = make_split(records, fraction, seed=seed)
    over = dict(epochs=3, batch_size=8, seed=seed, metric_sample_cap=30)
    over.update(cfg_over)
    cfg = TrainConfig(**over)
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(cfg.seed))
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


@pytest.mark.parametrize("kwargs", [
    {"alpha": float("nan")}, {"alpha": -1.0}, {"beta": float("inf")}, {"seed": -1},
    {"n_mc": 0, "inference_mode": "variational"}, {"hidden": 0}, {"percentile": 90.0},
    {"percentile": 0.0}, {"metric_sample_cap": 0}, {"lr0": float("nan")},
    {"target": float("nan")}, {"improvement_threshold": float("inf")},
    {"early_stop_gap": float("nan")}, {"hidden": True}])
def test_config_rejects_each_bad_value(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def test_every_config_field_is_checked():
    assert set(_CONFIG_RULES) == {f.name for f in dataclasses.fields(TrainConfig)}


# --- training loop -------------------------------------------------------------


def test_zero_epochs_returns_initialized_checkpoint():
    cnn, head, split, _ = _setup()
    before = {name: w.copy() for name, w in cnn.params.items()}
    cfg = TrainConfig(epochs=0, batch_size=8, seed=0)
    detector, report = train(cnn, head, split, cfg)
    assert report.epochs == []
    assert report.stop_reason == "completed"
    for name, w in cnn.params.items():
        assert np.array_equal(w, before[name])
    assert np.isfinite(detector.gamma)


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


def test_snapshot_survives_a_step_and_copies_only_buffers():
    """A snapshot holds the parameter arrays themselves, which an SGD step
    replaces rather than writes into, and copies of the batch-norm buffers,
    which a training-mode forward updates in place."""
    cnn, head, _, cfg = _setup()
    live = {**cnn.params, **head.params}
    state = snapshot_state(cnn, head)
    saved = copy.deepcopy(state)
    x = Tensor(np.random.default_rng(1).random((4, 3, 32, 32)))
    chain = []
    z = cnn.forward_features(x, training=True, chain=chain).data
    out = head.forward(z, chain=chain)
    _, cotangent, prior = map_objective(out, np.ones(4), head.params, cfg.alpha, cfg.beta)
    _, grads = backward(chain, cotangent)
    grads.update({name: grads[name] + g for name, g in prior.items()})
    for params in (cnn.params, head.params):
        sgd_update(params, grads, 1e-3)
    assert not np.array_equal(cnn.buffers["bn.running_mean"], saved["cnn"]["bn.running_mean"])
    for part in ("cnn", "head"):
        for name, arr in state[part].items():
            assert np.array_equal(arr, saved[part][name]), name
    held = {**{name: state["cnn"][name] for name in cnn.params}, **state["head"]}
    assert held.keys() == live.keys()
    assert all(held[name] is arr for name, arr in live.items())
    others = [*live.values(), *cnn.params.values(), *head.params.values(),
              *cnn.buffers.values()]
    for name in cnn.buffers:
        assert not any(np.shares_memory(state["cnn"][name], arr) for arr in others), name


@pytest.mark.parametrize("mode", ["map", "variational"])
def test_validation_scoring_holds_no_training_pull(mode, monkeypatch):
    """Each pull an epoch's SGD steps link, the last step's included, has
    been collected by the time that epoch's validation scoring starts: no
    chain of a step, nor its gradients or features, outlives the step loop."""
    cnn, head, split, cfg = _setup(epochs=2, inference_mode=mode, early_stop_gap=1.0)
    pulls = []
    alive = []
    real_link, real_scores = T.link, train_module.posterior_scores

    def link(chain, names, result):
        if chain is not None:
            pulls.append(weakref.ref(result[1]))
        return real_link(chain, names, result)

    def posterior_scores(*args):
        alive.append(sum(ref() is not None for ref in pulls))
        return real_scores(*args)

    monkeypatch.setattr(T, "link", link)
    monkeypatch.setattr(train_module, "posterior_scores", posterior_scores)
    train(cnn, head, split, cfg)
    assert pulls
    assert alive == [0] * (3 * cfg.epochs + 1)  # three per epoch, then the threshold


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
    cnn, head, split, cfg = _setup(epochs=4, n_real=120, n_per=40, fraction=0.6,
                                   improvement_threshold=0.0)
    detector, _ = train(cnn, head, split, cfg)
    first = detector.score_batch([split.train[0].pixels])[0]
    assert first == detector.score_batch([split.train[0].pixels])[0]
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

    def counted(self, x, training, chain=None):
        if not training:
            infer_batches.append(x.shape[0])
        return forward(self, x, training, chain)

    monkeypatch.setattr(FineToCoarseCnn, "forward_features", counted)
    _, report = train(cnn, head, split, cfg)
    assert infer_batches.count(160) == len(report.epochs) == 2
