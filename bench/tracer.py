"""Spans around calls into synthdetect's public functions, and the per-layer
metrics computed from them.

A span records a name, start, end and the span that caused it (-1 for a
top-level call such as one CLI invocation). Functions
are wrapped at the module or class attribute where their callers look them
up, so the program itself is not modified. Spans stay in memory until the
run ends. Self time is a span's duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.

Per-layer times and counts are per measured round (``s/round``,
``count/round``); per-call figures are medians. Floating-point operation
counts are computed from tensor shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from dataclasses import dataclass, field

from synthdetect import bayes, cli, evaluate, model, preprocess, tensor, train

TENSOR_OPS = ("conv2d_valid", "mean_pool", "sigmoid", "batch_norm", "linear", "dropout")
TRANSFORM_SPANS = {"blur": "perturb.gaussian_blur", "jpeg": "perturb.jpeg_quality",
                   "resize": "perturb.resize_bilinear"}


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index of the causing span, -1 for a top-level call
    attrs: dict = field(default_factory=dict)
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "failed": self.failed,
                **self.attrs}


class Tracer:
    """Collects spans while ``recording`` is true; otherwise ``span`` is free
    of bookkeeping and no function is wrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.recording:
            yield None
            return
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), parent, attrs)
        self.spans.append(span)
        self._open.append(idx)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.duration

    def _wrap(self, owner, attr: str, label) -> None:
        """Replace ``owner.attr`` by a wrapper that opens the span
        ``label(args, kwargs) -> (name, attrs)`` around each call."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, attrs = label(args, kwargs)
            with tracer.span(name, **attrs):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def recorded(self):
        """Wrap the program's functions and record spans for the duration."""
        _install(self)
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def _named(name):
    return lambda args, kwargs: (name, {})


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _decode_label(args, kwargs):
    data = args[0]
    fmt = "png" if data[:8] == b"\x89PNG\r\n\x1a\n" else "ppm" if data[:2] == b"P6" else "other"
    return "preprocess.decode_image", {"format": fmt, "bytes": len(data)}


def _conv_label(args, kwargs):
    x, kernels = args[0].shape, args[1].shape
    stride = _arg(args, kwargs, 3, "stride", 1)
    sh, sw = stride if isinstance(stride, (tuple, list)) else (stride, stride)
    batch = x[0] if len(x) == 4 else 1
    k, c, kh, kw = kernels
    ho = (x[-2] - kh) // sh + 1
    wo = (x[-1] - kw) // sw + 1
    return "tensor.conv2d_valid", {"flop": 2 * batch * k * ho * wo * c * kh * kw}


def _forward_label(args, kwargs):
    x = args[1]
    training = _arg(args, kwargs, 2, "training")
    mode = "train" if training else "infer"
    return f"model.forward_{mode}", {"images": x.shape[0] if x.ndim == 4 else 1}


def _checkpoint_label(name):
    def label(args, kwargs):
        path = args[0]
        return name, {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return label


def _install(tracer: Tracer) -> None:
    wrap = tracer._wrap
    wrap(preprocess, "decode_image", _decode_label)
    wrap(cli, "load_dataset", _named("preprocess.load_dataset"))
    wrap(train, "channel_stats", _named("preprocess.channel_stats"))
    for op in TENSOR_OPS:
        wrap(tensor, op, _conv_label if op == "conv2d_valid" else _named(f"tensor.{op}"))
    wrap(train, "backward", _named("tensor.backward"))
    wrap(bayes, "backward", _named("tensor.backward"))
    wrap(model.FineToCoarseCnn, "forward_features", _forward_label)
    wrap(train, "map_objective", _named("bayes.map_objective"))
    wrap(bayes.Detector, "score_batch",
         lambda args, kwargs: ("bayes.score_batch", {"images": len(args[1])}))
    wrap(bayes, "per_sample_gradients", _named("bayes.per_sample_gradients"))
    wrap(bayes.GaussNewtonCurvature, "__init__",
         lambda args, kwargs: ("bayes.curvature_build", {"rows": len(args[2])}))
    wrap(bayes.GaussNewtonCurvature, "matvec", _named("bayes.gn_matvec"))
    wrap(bayes, "cg_solve", _named("bayes.cg_solve"))
    wrap(cli, "train", _named("train.train"))
    wrap(cli, "load_checkpoint", _checkpoint_label("checkpoint.load"))
    wrap(cli, "save_checkpoint", _checkpoint_label("checkpoint.save"))
    wrap(evaluate, "apply_transform",
         lambda args, kwargs: (TRANSFORM_SPANS.get(args[0], "perturb.other"), {}))
    wrap(cli, "evaluate", _named("evaluate.evaluate"))
    wrap(evaluate, "evaluate", _named("evaluate.evaluate"))
    wrap(evaluate, "average_precision", _named("evaluate.average_precision"))


# --- per-layer metrics -------------------------------------------------------------

# (name, unit, better); BENCHMARK.json lists the same names and units
LAYER_METRICS = [
    ("preprocess.decode_png_ms", "ms", "lower"),
    ("preprocess.decode_ppm_ms", "ms", "lower"),
    ("preprocess.decode_mb_per_s", "MB/s", "higher"),
    ("preprocess.load_dataset_s", "s/round", "lower"),
    ("preprocess.channel_stats_s", "s/round", "lower"),
    ("preprocess.decode_failures", "count/round", "lower"),
    *((f"tensor.{op}{suffix}", unit, "lower") for op in TENSOR_OPS
      for suffix, unit in (("_s", "s/round"), ("_calls", "count/round"))),
    ("tensor.conv2d_valid_gflop_per_s", "GFLOP/s", "higher"),
    ("tensor.backward_s", "s/round", "lower"),
    ("tensor.backward_calls", "count/round", "lower"),
    ("model.forward_train_s", "s/round", "lower"),
    ("model.forward_infer_s", "s/round", "lower"),
    ("model.forward_infer_ms_per_image", "ms", "lower"),
    ("model.forward_images", "count/round", "lower"),
    ("bayes.map_objective_s", "s/round", "lower"),
    ("bayes.score_batch_s", "s/round", "lower"),
    ("bayes.per_sample_gradients_s", "s/round", "lower"),
    ("bayes.curvature_build_s", "s/round", "lower"),
    ("bayes.gn_matvec_ms", "ms", "lower"),
    ("bayes.gn_matvecs", "count/round", "lower"),
    ("bayes.cg_solve_s", "s/round", "lower"),
    ("bayes.cg_iterations_per_solve", "count", "lower"),
    ("bayes.cg_iterations_over_rank", "ratio", "lower"),
    ("bayes.gn_cached", "flag", "higher"),
    ("train.train_s", "s/round", "lower"),
    ("train.sgd_steps", "count/round", "lower"),
    ("train.validation_infer_s", "s/round", "lower"),
    ("checkpoint.load_s", "s/round", "lower"),
    ("checkpoint.save_s", "s/round", "lower"),
    ("checkpoint.mb", "MB", "lower"),
    ("perturb.gaussian_blur_ms", "ms", "lower"),
    ("perturb.jpeg_quality_ms", "ms", "lower"),
    ("perturb.resize_bilinear_ms", "ms", "lower"),
    ("evaluate.evaluate_s", "s/round", "lower"),
    ("evaluate.average_precision_ms", "ms", "lower"),
    ("evaluate.score_chunks", "count/round", "lower"),
    ("textures.generate_s", "s", "lower"),
    ("cli.train_s", "s/round", "lower"),
    ("cli.score_s", "s/round", "lower"),
    ("cli.eval_s", "s/round", "lower"),
    ("cli.perturb_s", "s/round", "lower"),
    ("cli.exit_nonzero", "count/round", "lower"),
    ("trace.overhead_throughput_per_s", "1/s", "higher"),
    ("trace.overhead_call_latency_s", "s", "lower"),
]


def _median_ms(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    idx = span.parent
    while idx >= 0:
        if spans[idx].name == name:
            return True
        idx = spans[idx].parent
    return False


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer values from the spans of ``rounds`` traced rounds; the
    ``textures`` and ``trace`` entries come from the caller."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_round(name, self_time=False):
        return sum(s.self_s if self_time else s.duration for s in named(name)) / rounds

    def count(name):
        return len(named(name)) / rounds

    out: dict[str, float] = {}
    decodes = named("preprocess.decode_image")
    for fmt in ("png", "ppm"):
        out[f"preprocess.decode_{fmt}_ms"] = _median_ms(
            [s for s in decodes if s.attrs["format"] == fmt])
    decode_s = sum(s.duration for s in decodes)
    out["preprocess.decode_mb_per_s"] = (
        sum(s.attrs["bytes"] for s in decodes) / decode_s / 1e6 if decode_s else 0.0)
    out["preprocess.load_dataset_s"] = per_round("preprocess.load_dataset")
    out["preprocess.channel_stats_s"] = per_round("preprocess.channel_stats")
    out["preprocess.decode_failures"] = sum(s.failed for s in decodes) / rounds

    for op in TENSOR_OPS:
        out[f"tensor.{op}_s"] = per_round(f"tensor.{op}", self_time=True)
        out[f"tensor.{op}_calls"] = count(f"tensor.{op}")
    convs = named("tensor.conv2d_valid")
    conv_s = sum(s.self_s for s in convs)
    out["tensor.conv2d_valid_gflop_per_s"] = (
        sum(s.attrs["flop"] for s in convs) / conv_s / 1e9 if conv_s else 0.0)
    out["tensor.backward_s"] = per_round("tensor.backward", self_time=True)
    out["tensor.backward_calls"] = count("tensor.backward")

    infer = named("model.forward_infer")
    infer_images = sum(s.attrs["images"] for s in infer)
    out["model.forward_train_s"] = per_round("model.forward_train")
    out["model.forward_infer_s"] = per_round("model.forward_infer")
    out["model.forward_infer_ms_per_image"] = (
        1e3 * sum(s.duration for s in infer) / infer_images if infer_images else 0.0)
    out["model.forward_images"] = (
        infer_images + sum(s.attrs["images"] for s in named("model.forward_train"))) / rounds

    out["bayes.map_objective_s"] = per_round("bayes.map_objective")
    out["bayes.score_batch_s"] = per_round("bayes.score_batch")
    out["bayes.per_sample_gradients_s"] = per_round("bayes.per_sample_gradients")
    out["bayes.curvature_build_s"] = per_round("bayes.curvature_build")
    matvecs = named("bayes.gn_matvec")
    out["bayes.gn_matvec_ms"] = _median_ms(matvecs)
    out["bayes.gn_matvecs"] = count("bayes.gn_matvec")
    out["bayes.cg_solve_s"] = per_round("bayes.cg_solve")
    solves = named("bayes.cg_solve")
    in_cg = sum(_has_ancestor(spans, s, "bayes.cg_solve") for s in matvecs)
    per_solve = in_cg / len(solves) if solves else 0.0
    builds = named("bayes.curvature_build")
    rank = max((s.attrs["rows"] for s in builds), default=0) + 1
    out["bayes.cg_iterations_per_solve"] = per_solve
    out["bayes.cg_iterations_over_rank"] = per_solve / rank
    regathered = any(_has_ancestor(spans, s, "bayes.gn_matvec")
                     for s in named("bayes.per_sample_gradients"))
    out["bayes.gn_cached"] = 1.0 if builds and not regathered else 0.0

    out["train.train_s"] = per_round("train.train")
    out["train.sgd_steps"] = sum(
        _has_ancestor(spans, s, "train.train") for s in named("tensor.backward")) / rounds
    # infer-mode forward inside train: each epoch scores a training subset for
    # the provisional threshold and the two validation halves, and the end
    # scores the validation set for the final threshold
    out["train.validation_infer_s"] = sum(
        s.duration for s in infer if _has_ancestor(spans, s, "train.train")) / rounds

    out["checkpoint.load_s"] = per_round("checkpoint.load")
    out["checkpoint.save_s"] = per_round("checkpoint.save")
    files = named("checkpoint.load") + named("checkpoint.save")
    out["checkpoint.mb"] = max((s.attrs["bytes"] for s in files), default=0) / 1e6

    for name in TRANSFORM_SPANS.values():
        out[f"{name}_ms"] = _median_ms(named(name))

    out["evaluate.evaluate_s"] = per_round("evaluate.evaluate")
    out["evaluate.average_precision_ms"] = _median_ms(named("evaluate.average_precision"))
    out["evaluate.score_chunks"] = sum(
        _has_ancestor(spans, s, "evaluate.evaluate")
        for s in named("bayes.score_batch")) / rounds

    for command in ("train", "score", "eval", "perturb"):
        out[f"cli.{command}_s"] = per_round(f"cli.{command}")
    out["cli.exit_nonzero"] = sum(
        s.attrs.get("exit", 0) != 0 for s in spans if s.name.startswith("cli.")) / rounds
    return out
