"""The benchmark tracer wraps program functions by name; entering and leaving
its recording checks that every function it wraps still exists and is put
back afterwards, and a traced train + eval checks that the spans its
per-layer metrics are computed from are still reached. The benchmark's own
calls into the program that no command makes (``variance32``'s feature
extraction, curvature and predictive) run here too."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from synthdetect import bayes, cli, tensor
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import load_dataset, make_split
from synthdetect.textures import generate_records, write_dataset
from synthdetect.train import TrainConfig, train

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def _load_bench_module(monkeypatch, name):
    """``bench/<name>.py`` as a module, with ``bench/`` on the path for the
    modules it imports from there."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _load_tracer(monkeypatch):
    return _load_bench_module(monkeypatch, "tracer")


def test_tracer_wraps_and_restores_program_functions(monkeypatch):
    module = _load_tracer(monkeypatch)
    before = dict(vars(tensor))
    tracer = module.Tracer()
    with tracer.recorded():
        assert tensor.mean_pool is not before["mean_pool"]
    assert tracer._patches == []
    assert all(vars(tensor)[name] is fn for name, fn in before.items())


def test_traced_train_and_eval_keep_metric_sources(monkeypatch, tmp_path, capsys):
    """``train.validation_infer_s`` sums infer-mode forwards under train,
    ``evaluate.score_chunks`` counts score_batch calls under evaluate, the
    model's stages reach ``tensor.mean_pool``, and a MAP step calls
    ``backward`` once, so ``train.sgd_steps`` and ``tensor.backward_calls``
    both count the SGD steps."""
    module = _load_tracer(monkeypatch)
    data, run = tmp_path / "data", tmp_path / "run"
    write_dataset(data, 24, 8, size=32, seed=2)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 8\ninput_size = 32\nsplit = 0.5\n")
    tracer = module.Tracer()
    with tracer.recorded():
        assert cli.main(["train", "--data", str(data), "--out", str(run),
                         "--config", str(cfg)]) == 0
        assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                         "--data", str(data), "--out", str(tmp_path / "eval"),
                         "--split", "0.5"]) == 0
    capsys.readouterr()
    spans = tracer.spans

    def under(name, ancestor):
        return [s for s in spans
                if s.name == name and module._has_ancestor(spans, s, ancestor)]

    assert under("model.forward_infer", "train.train")
    assert under("bayes.score_batch", "evaluate.evaluate")
    metrics = module.layer_metrics(spans, rounds=1)
    assert metrics["train.validation_infer_s"] > 0
    assert metrics["evaluate.score_chunks"] > 0
    assert metrics["tensor.mean_pool_calls"] > 0
    assert metrics["tensor.mean_pool_s"] > 0
    # one epoch at batch 8 over the training split; a last batch of one is skipped
    n_train = len(make_split(load_dataset(data), 0.5, 0).train)
    steps = sum(min(8, n_train - start) >= 2 for start in range(0, n_train, 8))
    assert steps > 1
    assert metrics["train.sgd_steps"] == steps
    assert metrics["tensor.backward_calls"] == steps


def test_variance_workload_calls_still_run(monkeypatch):
    """``variance32`` extracts features with its own call into the
    extractor, then builds the Gauss-Newton curvature on them and queries
    the predictive: on a tiny trained 32 px detector each query has a finite
    mean and a variance no lower than the noise floor 1/beta."""
    workloads = _load_bench_module(monkeypatch, "workloads")
    records = generate_records(24, 0, size=32, seed=3)
    split = make_split(records, 0.5, seed=0)
    cfg = TrainConfig(epochs=1, batch_size=8, hidden=16, metric_sample_cap=8)
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(0))
    head = bayes.BayesianHead(cnn.feature_dim, hidden=cfg.hidden, alpha=cfg.alpha,
                              beta=cfg.beta, dropout_rate=cfg.dropout_rate,
                              rng=np.random.default_rng(1))
    detector, _ = train(cnn, head, split, cfg)
    feats = workloads.Variance32._features(detector, split.train)
    assert feats.shape == (len(split.train), cnn.feature_dim)
    curvature = bayes.GaussNewtonCurvature(detector.head, feats)
    for row in feats[:3]:
        mean, var = bayes.predictive(row, detector.head, curvature)
        assert math.isfinite(mean)
        assert var >= 1.0 / detector.head.beta
