"""The four benchmark workloads: set-up, warm-up, one measured round, and the
output checks that every round runs.

Each workload is a closed loop with one client: CLI invocations (or, for
``variance32``, ``synthdetect.bayes`` calls) run back to back in one process.
The program only sees files that set-up generated from the workload seed.

Run as a script, this module is the set-up process: for each line read from
standard input it performs one set-up and answers with its timings as one
line of JSON. ``run.py`` keeps it running beside the measured process, so
set-up memory never counts towards that process's peak RSS, and asks for
the repeat set-ups between measured rounds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from synthdetect import bayes, checkpoint, cli, preprocess, textures
from synthdetect.tensor import Tensor

from pngenc import encode_png, mixed_filters


@dataclass(frozen=True)
class Sizes:
    corpus_real: int  # 32 px real textures; 80% train, the rest validation/test
    corpus_per_source: int  # 32 px images per anomaly source (noise, mosaic)
    epochs: int
    evals_per_round: int
    score_files: int  # 256 px PNGs scored as one directory
    score_single_calls: int
    checkpoint224_real: int  # 256 px PNGs the 224 px checkpoint is made from
    curvature_rows: int  # N training feature rows behind the Gauss-Newton operator
    fits_per_round: int
    queries: int  # M predictive-variance queries per round
    setup_repeats: int  # set-ups per run, at least
    setup_min_s: float  # short set-ups repeat until about this much time is measured


FULL = Sizes(corpus_real=200, corpus_per_source=100, epochs=4, evals_per_round=5,
             score_files=8, score_single_calls=3, checkpoint224_real=4,
             curvature_rows=64, fits_per_round=8, queries=12, setup_repeats=3,
             setup_min_s=5.0)
TINY = Sizes(corpus_real=24, corpus_per_source=12, epochs=1, evals_per_round=1,
             score_files=2, score_single_calls=1, checkpoint224_real=4,
             curvature_rows=8, fits_per_round=1, queries=1, setup_repeats=2,
             setup_min_s=0.0)
SIZES = {"full": FULL, "tiny": TINY}

SPLIT = 0.8
# The checkpoint behind sweep32 and variance32 is trained from a fixed seed
# (initialisation and split); only its corpus follows the workload seed. The
# initialisation sets the curvature spectrum and so the CG iterations per
# query: over ten corpus seeds their interquartile range was 16% of the
# median when the training seed followed the workload seed, 2% with it fixed.
MODEL_SEED = 0
PNG_SIDE = 256
# early_stop_gap = 1 disables early stopping: the gap is a difference of two
# retention fractions and never exceeds 1, so every configured epoch runs
CONFIG32 = ("input_size = 32\nbatch_size = 32\nepochs = {epochs}\n"
            "early_stop_gap = 1.0\nlr0 = 0.01\n")
CONFIG224 = "input_size = 224\nbatch_size = 2\nepochs = 0\n"
PERTURB_GRIDS = (("blur", (0.0, 0.5, 1.0, 2.0)),
                 ("jpeg", (90.0, 70.0, 50.0, 30.0)),
                 ("resize", (1.0, 0.75, 0.5, 0.25)))


class OpFailed(Exception):
    """A CLI call exited non-zero, raised, or produced output that failed a check."""


class RoundFailed(Exception):
    """An operation of the round failed; the round yields no measurement."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


def _quiet_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# --- set-up (runs in a child interpreter) ---------------------------------------------


def _setup_corpus32(directory: Path, seed: int, sizes: Sizes, with_model: bool) -> float:
    t0 = time.perf_counter()
    textures.write_dataset(directory / "corpus", sizes.corpus_real,
                           sizes.corpus_per_source, size=32, seed=seed)
    textures_s = time.perf_counter() - t0
    (directory / "train32.cfg").write_text(CONFIG32.format(epochs=sizes.epochs))
    if with_model:
        # later epochs rarely beat the first on the validation metric, so the
        # snapshot a longer run keeps is almost always this epoch's model
        (directory / "model.cfg").write_text(CONFIG32.format(epochs=1))
        code, _, err = _quiet_cli(["train", "--data", directory / "corpus",
                                   "--out", directory / "model", "--config",
                                   directory / "model.cfg", "--seed", MODEL_SEED])
        if code != 0:
            raise RuntimeError(f"set-up training failed ({code}): {err.strip()}")
    return textures_s


def _write_png(path: Path, pixels: np.ndarray, rng: np.random.Generator) -> None:
    """Encode [3, H, W] pixels on the 8-bit grid; the file must decode back
    to exactly these pixels through the package's own decoder."""
    rgb = np.round(pixels * 255.0).astype(np.uint8).transpose(1, 2, 0)
    data = encode_png(np.ascontiguousarray(rgb), mixed_filters(rng, rgb.shape[0]))
    if not np.array_equal(preprocess.decode_image(data), pixels):
        raise RuntimeError(f"PNG round trip changed the pixels of {path.name}")
    path.write_bytes(data)


def _setup_score224(directory: Path, seed: int, sizes: Sizes) -> float:
    per_source = math.ceil(sizes.score_files / 3)
    t0 = time.perf_counter()
    records = textures.generate_records(sizes.checkpoint224_real + per_source, per_source,
                                        size=PNG_SIDE, seed=seed)
    textures_s = time.perf_counter() - t0
    rng = np.random.default_rng([seed, PNG_SIDE])
    real = [r for r in records if r.is_real]
    train_dir = directory / "train224" / "real"
    train_dir.mkdir(parents=True)
    for k, record in enumerate(real[:sizes.checkpoint224_real]):
        _write_png(train_dir / f"real_{k:03d}.png", record.pixels, rng)
    by_source: dict[str, list] = {}
    for record in real[sizes.checkpoint224_real:] + [r for r in records if not r.is_real]:
        by_source.setdefault(record.source, []).append(record)
    mixed = [r for group in zip(*by_source.values()) for r in group][:sizes.score_files]
    image_dir = directory / "images"
    image_dir.mkdir()
    for k, record in enumerate(mixed):
        _write_png(image_dir / f"{k:03d}_{record.source}.png", record.pixels, rng)
    (directory / "train224.cfg").write_text(CONFIG224)
    code, _, err = _quiet_cli(["train", "--data", directory / "train224", "--out",
                               directory / "model", "--config", directory / "train224.cfg",
                               "--seed", seed])
    if code != 0:
        raise RuntimeError(f"set-up of the 224 px checkpoint failed ({code}): {err.strip()}")
    return textures_s


def setup(name: str, directory: Path, seed: int, sizes: Sizes) -> dict:
    """Generate the workload's input files under ``directory``."""
    directory.mkdir(parents=True)
    t0 = time.perf_counter()
    if name == "score224":
        textures_s = _setup_score224(directory, seed, sizes)
    else:
        textures_s = _setup_corpus32(directory, seed, sizes, with_model=name != "train32")
    return {"setup_s": time.perf_counter() - t0, "textures_s": textures_s}


# --- measured workloads ----------------------------------------------------------------


class Workload:
    """Shared plumbing: operation accounting, in-process CLI calls, rounds."""

    def __init__(self, directory: Path, seed: int, sizes: Sizes, tracer):
        self.dir = directory
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args):
        """One attempted operation; a failure is counted and ends the round."""
        self.attempted += 1
        try:
            return fn(*args)
        except (OpFailed, bayes.NumericalError) as err:
            message = str(err)
        except Exception:  # a defect in the program: report it and keep measuring
            message = traceback.format_exc()
        self.failed += 1
        print(f"FAILED {type(self).__name__}: {message}", file=sys.stderr)
        raise RoundFailed(message)

    def cli_call(self, *argv) -> tuple[float, str]:
        """Run one CLI command in-process; returns (wall seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        argv = [str(a) for a in argv]
        with self.tracer.span(f"cli.{argv[0]}") as span, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
            if span is not None:
                span.attrs["exit"] = code
        _check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return wall, out.getvalue()

    def measure_round(self) -> dict | None:
        """{'items', 'items_s', 'calls'} for one round, or None if it failed."""
        try:
            return self.run_round()
        except RoundFailed:
            return None

    def warm(self) -> None:
        self.measure_round()

    def run_round(self) -> dict:
        raise NotImplementedError

    def named(self, throughput: float, call_latency: float) -> list[tuple[str, float, str]]:
        """The workload's metrics under their user-facing names."""
        raise NotImplementedError


def _split(corpus: Path, seed: int) -> preprocess.DatasetSplit:
    """The split the CLI makes of ``corpus`` with ``seed``; untimed."""
    return preprocess.make_split(preprocess.load_dataset(corpus), SPLIT, seed)


class _EvalMixin:
    """``eval`` on the 32 px corpus, checked against its own report file."""

    map_value: float | None = None
    split_seed: int  # the seed the checkpoint was trained with

    def _eval(self) -> float:
        out = self.dir / "eval"
        wall, stdout = self.cli_call("eval", "--checkpoint", self.checkpoint, "--data",
                                     self.dir / "corpus", "--out", out,
                                     "--seed", self.split_seed)
        match = re.match(r"mAP (\S+) at gamma", stdout)
        _check(match is not None, f"eval printed no mAP: {stdout!r}")
        printed = float(match.group(1))
        with open(out / "eval_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        _check(len(rows) == 2, f"eval_report.csv has {len(rows)} source rows, expected 2")
        _check(all(float(r["map"]) == printed for r in rows),
               f"eval_report.csv mAP differs from the printed {printed!r}")
        _check(0.0 <= printed <= 1.0, f"mAP {printed!r} outside [0, 1]")
        _check(self.map_value is None or printed == self.map_value,
               f"mAP changed between identical calls: {self.map_value!r} -> {printed!r}")
        self.map_value = printed
        return wall


class Train32(_EvalMixin, Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoint = self.dir / "run" / "checkpoint.bin"
        self.split_seed = self.seed
        self.train_images = len(_split(self.dir / "corpus", self.seed).train)

    def _train(self) -> float:
        wall, _ = self.cli_call("train", "--data", self.dir / "corpus", "--out",
                                self.dir / "run", "--config", self.dir / "train32.cfg",
                                "--seed", self.seed)
        with open(self.dir / "run" / "train_report.csv", newline="") as fh:
            losses = [float(row["train_loss"]) for row in csv.DictReader(fh)]
        _check(len(losses) == self.sizes.epochs,
               f"train ran {len(losses)} epochs, configured {self.sizes.epochs}")
        # mAP after a few epochs swings with the seed, the loss does not: a
        # change that breaks learning shows as a loss that stops falling
        _check(len(losses) < 2 or losses[-1] < losses[0],
               f"training did not lower the loss: {losses}")
        return wall

    def run_round(self) -> dict:
        train_s = self.op(self._train)
        calls = [self.op(self._eval) for _ in range(self.sizes.evals_per_round)]
        return {"items": self.train_images * self.sizes.epochs, "items_s": train_s,
                "calls": calls}

    def named(self, throughput, call_latency):
        return [("train_images_per_s", throughput, "images/s"),
                ("train_map", self.map_value or 0.0, "mAP"),
                ("eval_s", call_latency, "s")]


class Score224(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoint = self.dir / "model" / "checkpoint.bin"
        self.images = sorted((self.dir / "images").glob("*.png"))
        self.singles = self.images[:self.sizes.score_single_calls]
        self.scores: dict[str, float] | None = None

    def _score(self, target: Path, out: Path) -> tuple[float, dict[str, float]]:
        wall, _ = self.cli_call("score", "--checkpoint", self.checkpoint, "--out", out, target)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        scores = {}
        for row in rows:
            _check(row["score"] != "error", f"score failed on {row['path']}: {row['verdict']}")
            value = float(row["score"])
            _check(math.isfinite(value), f"non-finite score for {row['path']}")
            _check(row["verdict"] in ("real", "synthetic"), f"bad verdict {row['verdict']!r}")
            scores[Path(row["path"]).name] = value
        return wall, scores

    def _score_dir(self) -> float:
        wall, scores = self._score(self.dir / "images", self.dir / "scores.csv")
        _check(sorted(scores) == [p.name for p in self.images],
               f"score CSV has {len(scores)} rows for {len(self.images)} files")
        _check(self.scores is None or scores == self.scores,
               "directory scores changed between identical calls")
        self.scores = scores
        return wall

    def _score_one(self, path: Path) -> float:
        wall, scores = self._score(path, self.dir / "one.csv")
        _check(scores == {path.name: self.scores[path.name]},
               f"single-file score of {path.name} differs from its directory score")
        return wall

    def run_round(self) -> dict:
        dir_s = self.op(self._score_dir)
        calls = [self.op(self._score_one, p) for p in self.singles]
        return {"items": len(self.images), "items_s": dir_s, "calls": calls}

    def warm(self) -> None:
        try:
            self.op(self._score_dir)
        except RoundFailed:
            pass

    def named(self, throughput, call_latency):
        return [("score_images_per_s", throughput, "images/s"),
                ("score_one_s", call_latency, "s")]


class Sweep32(_EvalMixin, Workload):
    def __init__(self, *args):
        super().__init__(*args)
        self.checkpoint = self.dir / "model" / "checkpoint.bin"
        self.split_seed = MODEL_SEED
        self.test_images = len(_split(self.dir / "corpus", MODEL_SEED).test)
        self.sweeps: dict[str, list[float]] = {}

    def _perturb(self, transform: str, grid: tuple[float, ...]) -> float:
        out = self.dir / f"perturb_{transform}.csv"
        wall, _ = self.cli_call("perturb", "--checkpoint", self.checkpoint, "--data",
                                self.dir / "corpus", "--transform", transform, "--grid",
                                ",".join(map(repr, grid)), "--out", out,
                                "--seed", self.split_seed)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        _check([(r["transform"], float(r["parameter"])) for r in rows]
               == [(transform, g) for g in grid],
               f"{transform} CSV rows do not match the grid {grid}")
        maps = [float(r["map"]) for r in rows]
        _check(all(0.0 <= m <= 1.0 for m in maps), f"{transform} mAP outside [0, 1]: {maps}")
        if transform == "blur":  # sigma 0 is the identity, so it must reproduce eval
            _check(maps[0] == self.map_value,
                   f"blur at sigma 0 gave mAP {maps[0]!r}, eval gave {self.map_value!r}")
        _check(self.sweeps.setdefault(transform, maps) == maps,
               f"{transform} sweep changed between identical calls")
        return wall

    def run_round(self) -> dict:
        calls = [self.op(self._eval) for _ in range(self.sizes.evals_per_round)]
        perturb_s = sum(self.op(self._perturb, t, grid) for t, grid in PERTURB_GRIDS)
        points = sum(len(grid) for _, grid in PERTURB_GRIDS)
        return {"items": self.test_images * points, "items_s": perturb_s, "calls": calls}

    def named(self, throughput, call_latency):
        return [("perturb_images_per_s", throughput, "images/s"),
                ("eval_images_per_s", self.test_images / call_latency if call_latency else 0.0,
                 "images/s")]


class Variance32(Workload):
    def __init__(self, *args):
        super().__init__(*args)
        detector = checkpoint.load_checkpoint(self.dir / "model" / "checkpoint.bin")
        split = _split(self.dir / "corpus", MODEL_SEED)
        n, m = self.sizes.curvature_rows, self.sizes.queries
        if len(split.train) < n:
            raise ValueError(f"{len(split.train)} training images, need {n}")
        picks = np.linspace(0, len(split.test) - 1, m).round().astype(int)
        self.head = detector.head
        self.train_features = self._features(detector, split.train[:n])
        self.query_features = self._features(detector, [split.test[i] for i in picks])
        self.results: dict[int, tuple[float, float]] = {}
        self.curvature = None

    @staticmethod
    def _features(detector, records) -> np.ndarray:
        batch = np.stack([detector.preprocess(r.pixels) for r in records])
        return detector.cnn.forward_features(Tensor(batch), training=False).data

    def _fit(self) -> float:
        t0 = time.perf_counter()
        self.curvature = bayes.GaussNewtonCurvature(self.head, self.train_features)
        return time.perf_counter() - t0

    def _query(self, k: int) -> float:
        t0 = time.perf_counter()
        mean, var = bayes.predictive(self.query_features[k], self.head, self.curvature)
        wall = time.perf_counter() - t0
        floor = 1.0 / self.head.beta
        _check(math.isfinite(mean) and math.isfinite(var), f"non-finite predictive {mean}, {var}")
        _check(var >= floor, f"variance {var!r} below the 1/beta floor {floor!r}")
        _check(self.results.setdefault(k, (mean, var)) == (mean, var),
               f"query {k} changed between identical calls")
        return wall

    def run_round(self) -> dict:
        calls = [self.op(self._fit) for _ in range(self.sizes.fits_per_round)]
        query_s = sum(self.op(self._query, k) for k in range(len(self.query_features)))
        return {"items": len(self.query_features), "items_s": query_s, "calls": calls}

    def warm(self) -> None:
        try:
            self.op(self._fit)
            self.op(self._query, 0)
        except RoundFailed:
            pass

    def named(self, throughput, call_latency):
        return [("variance_queries_per_s", throughput, "queries/s"),
                ("curvature_fit_s", call_latency, "s")]


WORKLOADS = {"train32": Train32, "score224": Score224, "sweep32": Sweep32,
             "variance32": Variance32}


def _setup_main(argv: list[str]) -> None:
    name, directory, seed, size = argv
    root, protocol = Path(directory), sys.stdout
    sys.stdout = sys.stderr  # the protocol stream carries nothing but timings
    target = root / "inputs"  # the first set-up writes the measured inputs
    for _ in sys.stdin:
        timing = setup(name, target, int(seed), SIZES[size])
        if target.name == "spare":
            shutil.rmtree(target)
        target = root / "spare"  # repeats only measure, then clean up
        protocol.write(json.dumps(timing) + "\n")
        protocol.flush()


if __name__ == "__main__":
    _setup_main(sys.argv[1:])
