"""Command-line front end: train, score, eval, perturb.

Configuration comes from a flat ``key = value`` text file plus flags; flags
win. ``input_size`` (224 or 32) is the one geometry setting: it selects
``CnnConfig(input_size)``. All outputs are CSV with header rows, comma
separators, '.' decimals and LF line endings, written atomically next to the
checkpoint.

Exit codes: 0 success, 1 usage error, 2 data error (a bad input, or a path
the operating system refuses to read or write), 3 numerical failure. Each
failure is one stderr line: a command runs under ``np.errstate(all="ignore")``.

``main`` first pins glibc's malloc thresholds for the whole process: the mmap
threshold to ``MMAP_THRESHOLD`` and then, only if glibc took that, the trim
threshold to ``TRIM_THRESHOLD``. Left dynamic, each free of an mmapped chunk
sets the mmap threshold to that chunk's size and the trim threshold to twice
that, so an op that frees more than twice its largest buffer hands the heap
top back to the kernel and the next op faults it in again. That cost about
11.5k minor faults per warm 32 px ``perturb`` call and 2.7k per 224 px
``score`` round; pinned, both take under 30. 128 MiB keeps the 63 MB
full-scale ``fc1`` weights that each ``score`` reads on the heap too. The
two are set as a pair because setting either alone fixes the other at
glibc's 128 KiB default. Where the C library has no ``mallopt`` the pin does
nothing; importing ``synthdetect`` never pins anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .bayes import BayesianHead, NumericalError
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
from .model import CnnConfig, FineToCoarseCnn
from .perturb import PerturbError, check_parameter
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

# mallopt parameter numbers from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 << 20
TRIM_THRESHOLD = 4 * MMAP_THRESHOLD


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds (see the module docstring); a
    no-op where the C library has no ``mallopt``. ``ctypes`` is imported
    here so that importing this module loads nothing the library does not
    use."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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


def _check_split_seed(split: float, seed: int) -> None:
    """The rule every command applies to its split fraction and seed, before
    it reads any data."""
    if not 0.0 < split < 1.0:
        raise UsageError(f"split must be in (0, 1), got {split}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")


def _build_config(args) -> tuple[TrainConfig, CnnConfig, float]:
    """Merge defaults <- config file <- flags into a TrainConfig, the
    extractor geometry its ``input_size`` selects, and the split fraction.
    Each key's value is read by the type of its default."""
    casters = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    casters.update(split=float, input_size=int)
    values = {"split": 0.8, "input_size": 224}
    for key, value in (_parse_config_file(args.config) if args.config else {}).items():
        if key not in casters:
            raise UsageError(f"unknown config key {key!r}")
        try:
            values[key] = casters[key](value)
        except ValueError as err:
            raise UsageError(f"config key {key}: {err}") from err
    if args.seed is not None:
        values["seed"] = args.seed
    if args.split is not None:
        values["split"] = args.split
    split, input_size = values.pop("split"), values.pop("input_size")
    try:
        cfg = TrainConfig(**values)
        cnn_config = CnnConfig(input_size)
    except ValueError as err:
        raise UsageError(str(err)) from err
    _check_split_seed(split, cfg.seed)
    return cfg, cnn_config, split


def _write_text(path: Path, content: str) -> None:
    """Write ``content`` to ``path`` atomically, creating missing parent
    directories; a destination that cannot be written is a data error and
    leaves no temporary file behind."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except OSError as err:
        if tmp is not None:
            os.unlink(tmp)
        raise DatasetError(f"cannot write {path}: {err.strerror or err}") from err


def cmd_train(args) -> int:
    cfg, cnn_config, split_fraction = _build_config(args)
    # an --out that cannot be a directory fails here, not after training
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = load_dataset(args.data)
    split = make_split(records, split_fraction, cfg.seed)
    cnn = FineToCoarseCnn(cnn_config, rng=np.random.default_rng(cfg.seed))
    head = BayesianHead(cnn.feature_dim, hidden=cfg.hidden, alpha=cfg.alpha,
                        beta=cfg.beta, dropout_rate=cfg.dropout_rate,
                        rng=np.random.default_rng(cfg.seed + 1))
    detector, report = train(cnn, head, split, cfg)
    save_checkpoint(out / "checkpoint.bin", detector)
    _write_text(out / "train_report.csv", report.to_csv())
    print(f"best validation metric {report.best_metric!r} at epoch {report.best_epoch}"
          f" ({report.stop_reason}); checkpoint written to {out / 'checkpoint.bin'}")
    return EXIT_OK


def cmd_score(args) -> int:
    detector = load_checkpoint(args.checkpoint)
    target = Path(args.images)
    paths = image_paths(target) if target.is_dir() else [str(target)]
    if not paths:
        raise DatasetError(f"no images found at {args.images}")
    lines = ["path,score,verdict"]
    undecoded = non_finite = 0
    for path in paths:
        try:
            score = float(detector.score_batch([load_image(path)])[0])
        except (DecodeError, ValueError, FloatingPointError) as err:
            if isinstance(err, FloatingPointError):
                non_finite += 1
            else:
                undecoded += 1
            lines.append(f"{path},error,{type(err).__name__}")
            continue
        lines.append(f"{path},{score!r},{classify(score, detector.gamma)}")
    content = "\n".join(lines) + "\n"
    if args.out:
        _write_text(Path(args.out), content)
    else:
        sys.stdout.write(content)
    if non_finite and undecoded + non_finite == len(paths):
        raise FloatingPointError(f"no input was scored: {non_finite} of {len(paths)} "
                                 "scores are not finite")
    if undecoded == len(paths):
        raise DatasetError("every input failed to decode")
    return EXIT_OK


def _checkpoint_and_split(args):
    """Check ``--split`` and ``--seed``, then load the checkpoint and the split."""
    _check_split_seed(args.split, args.seed)
    detector = load_checkpoint(args.checkpoint)
    return detector, make_split(load_dataset(args.data), args.split, args.seed)


def cmd_eval(args) -> int:
    detector, split = _checkpoint_and_split(args)
    report = evaluate(split, detector)
    out = Path(args.out)
    _write_text(out / "eval_report.csv", report_csv(report))
    _write_text(out / "histogram.csv", histogram_csv(report))
    print(f"mAP {report.mean_ap!r} at gamma {report.gamma!r} "
          f"({len(report.sources)} anomaly sources)")
    return EXIT_OK


def cmd_perturb(args) -> int:
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip() != ""]
    except ValueError as err:
        raise UsageError(f"grid must be comma-separated numbers: {err}") from err
    if not grid:
        raise UsageError(f"grid holds no values, got {args.grid!r}")
    if not np.isfinite(grid).all():
        raise UsageError(f"grid values must be finite, got {args.grid!r}")
    try:
        for parameter in grid:
            check_parameter(args.transform, parameter)
    except PerturbError as err:
        raise UsageError(str(err)) from err
    detector, split = _checkpoint_and_split(args)
    results = perturbation_sweep(split, detector, args.transform, grid)
    content = sweep_csv(args.transform, results)
    if args.out:
        _write_text(Path(args.out), content)
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
    _pin_malloc_thresholds()
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):
            return args.fn(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, DecodeError, CheckpointError, EvaluationError,
            PerturbError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergedError, NumericalError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
