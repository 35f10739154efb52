"""Command-line front end: train, score, eval, perturb.

Configuration comes from a flat ``key = value`` text file plus flags; flags
win. All outputs are CSV with header rows, comma separators, '.' decimals and
LF line endings, written atomically next to the checkpoint.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .bayes import BayesianHead, NumericalError, UntrainedModelError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .evaluate import (
    EvaluationError,
    classify,
    evaluate,
    histogram_csv,
    perturbation_sweep,
    report_csv,
    sweep_csv,
)
from .model import FineToCoarseCnn, full_scale_config, reduced_scale_config
from .perturb import TRANSFORM_NAMES, PerturbError
from .preprocess import (
    DatasetError,
    DecodeError,
    image_paths,
    load_dataset,
    load_image,
    make_split,
)
from .train import TrainConfig, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise UsageError(f"{path} is not UTF-8 text: {err}") from err
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


_EXTRA_CONFIG_KEYS = {"split": float, "input_size": int}


def _build_config(args) -> tuple[TrainConfig, dict]:
    """Merge defaults <- config file <- flags into a TrainConfig plus the
    non-training keys (split fraction, model scale)."""
    field_types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    raw = _parse_config_file(args.config) if args.config else {}
    kwargs = {}
    extras = {"split": 0.8, "input_size": 224}
    for key, value in raw.items():
        if key in _EXTRA_CONFIG_KEYS:
            caster, target = _EXTRA_CONFIG_KEYS[key], extras
        elif key in field_types:
            kind = field_types[key]
            caster = {"int": int, "float": float, "str": str}[
                kind if isinstance(kind, str) else kind.__name__]
            target = kwargs
        else:
            raise UsageError(f"unknown config key {key!r}")
        try:
            target[key] = caster(value)
        except ValueError as err:
            raise UsageError(f"config key {key}: {err}") from err
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.split is not None:
        extras["split"] = args.split
    if not 0.0 < extras["split"] < 1.0:
        raise UsageError(f"split must be in (0, 1), got {extras['split']}")
    try:
        return TrainConfig(**kwargs), extras
    except ValueError as err:
        raise UsageError(str(err)) from err


def _write_text(path: Path, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(content)
    os.replace(tmp, path)


def _cnn_config(input_size: int):
    if input_size == 224:
        return full_scale_config()
    if input_size == 32:
        return reduced_scale_config()
    raise UsageError(f"input_size must be 224 or 32, got {input_size}")


def cmd_train(args) -> int:
    cfg, extras = _build_config(args)
    cnn_config = _cnn_config(extras["input_size"])
    records = load_dataset(args.data)
    split = make_split(records, extras["split"], cfg.seed)
    cnn = FineToCoarseCnn(cnn_config, rng=np.random.default_rng(cfg.seed))
    head = BayesianHead(cnn.feature_dim, hidden=cfg.hidden, alpha=cfg.alpha,
                        beta=cfg.beta, dropout_rate=cfg.dropout_rate,
                        rng=np.random.default_rng(cfg.seed + 1))
    detector, report = train(cnn, head, split, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.bin", detector)
    _write_text(out / "train_report.csv", report.to_csv())
    print(f"best validation metric {report.best_metric!r} at epoch {report.best_epoch}"
          f" ({report.stop_reason}); checkpoint written to {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_score(args) -> int:
    detector = load_checkpoint(args.checkpoint)
    if detector.gamma is None:
        raise DatasetError("checkpoint carries no threshold; re-train first")
    target = Path(args.images)
    paths = image_paths(target) if target.is_dir() else [str(target)]
    if not paths:
        raise DatasetError(f"no images found at {args.images}")
    lines = ["path,score,verdict"]
    failures = 0
    for path in paths:
        try:
            score = detector.score_pixels(load_image(path))
        except (DecodeError, ValueError) as err:
            failures += 1
            lines.append(f"{path},error,{type(err).__name__}")
            continue
        lines.append(f"{path},{score!r},{classify(score, detector.gamma)}")
    content = "\n".join(lines) + "\n"
    if args.out:
        _write_text(Path(args.out), content)
    else:
        sys.stdout.write(content)
    if failures == len(paths):
        raise DatasetError("every input failed to decode")
    return EXIT_OK


def cmd_eval(args) -> int:
    detector = load_checkpoint(args.checkpoint)
    records = load_dataset(args.data)
    split = make_split(records, args.split, args.seed)
    report = evaluate(split, detector)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "eval_report.csv", report_csv(report))
    _write_text(out / "histogram.csv", histogram_csv(report))
    print(f"mAP {report.mean_ap!r} at gamma {report.gamma!r} "
          f"({len(report.sources)} anomaly sources)")
    return EXIT_OK


def cmd_perturb(args) -> int:
    if args.transform not in TRANSFORM_NAMES:
        raise UsageError(f"unknown transform {args.transform!r}; "
                         f"valid names: {', '.join(TRANSFORM_NAMES)}")
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise UsageError(f"grid must be comma-separated numbers: {err}") from err
    detector = load_checkpoint(args.checkpoint)
    records = load_dataset(args.data)
    split = make_split(records, args.split, args.seed)
    results = perturbation_sweep(split, detector, args.transform, grid)
    content = sweep_csv(args.transform, results)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_text(out, content)
    else:
        sys.stdout.write(content)
    return EXIT_OK


def _make_parser() -> _Parser:
    parser = _Parser(prog="synthdetect",
                     description="One-class synthetic-image detector")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on the real/ images of a dataset root")
    p_train.add_argument("--data", required=True, help="dataset root with real/ subdirectory")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--seed", type=int, help="overrides config seed")
    p_train.add_argument("--split", type=float, help="training fraction of the real pool")
    p_train.set_defaults(fn=cmd_train)

    p_score = sub.add_parser("score", help="score an image or directory of images")
    p_score.add_argument("--checkpoint", required=True)
    p_score.add_argument("--out", help="CSV destination (default stdout)")
    p_score.add_argument("images", help="image file or directory")
    p_score.set_defaults(fn=cmd_score)

    p_eval = sub.add_parser("eval", help="evaluate AP/mAP on a dataset root")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--split", type=float, default=0.8)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(fn=cmd_eval)

    p_pert = sub.add_parser("perturb", help="mAP sweep under a post-processing transform")
    p_pert.add_argument("--checkpoint", required=True)
    p_pert.add_argument("--data", required=True)
    p_pert.add_argument("--transform", required=True)
    p_pert.add_argument("--grid", required=True, help="comma-separated parameters")
    p_pert.add_argument("--out", help="CSV destination (default stdout)")
    p_pert.add_argument("--split", type=float, default=0.8)
    p_pert.add_argument("--seed", type=int, default=0)
    p_pert.set_defaults(fn=cmd_perturb)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, DecodeError, CheckpointError, EvaluationError,
            PerturbError, UntrainedModelError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NumericalError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
