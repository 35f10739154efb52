"""The benchmark tracer wraps program functions by name; entering and leaving
its recording checks that every function it wraps still exists and is put
back afterwards, and a traced train + eval checks that the spans its
per-layer metrics are computed from are still reached."""

import importlib.util
import sys
from pathlib import Path

from synthdetect import cli, tensor
from synthdetect.preprocess import load_dataset, make_split
from synthdetect.textures import write_dataset

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


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
