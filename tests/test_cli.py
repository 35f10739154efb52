import ctypes
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import synthdetect
from synthdetect import cli
from synthdetect import tensor as T
from synthdetect.cli import main
from synthdetect.checkpoint import load_checkpoint, save_checkpoint
from synthdetect.preprocess import image_paths, load_image
from synthdetect.tensor import Tensor
from synthdetect.textures import write_dataset
from synthdetect.train import TrainConfig

from helpers import poison_checkpoint_tensor, rewrite_checkpoint_header
from imageio import png_bomb, png_file, png_oversized, write_png, write_ppm


@pytest.fixture(scope="module")
def toy_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("toydata")
    write_dataset(root, 48, 16, size=32, seed=3)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(
        "# toy-scale protocol\n"
        "epochs = 2\n"
        "batch_size = 8\n"
        "input_size = 32\n"
        "split = 0.5\n"
        "metric_sample_cap = 24\n")
    return path


@pytest.fixture(scope="module")
def trained_dir(toy_root, config_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(toy_root), "--out", str(out),
                 "--config", str(config_file), "--seed", "5"])
    assert code == 0
    return out


def test_train_outputs(trained_dir):
    ckpt = trained_dir / "checkpoint.bin"
    report = trained_dir / "train_report.csv"
    assert ckpt.exists() and report.exists()
    lines = report.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_metric,snapshot_flag"
    assert 2 <= len(lines) <= 51
    assert np.isfinite(load_checkpoint(ckpt).gamma)


def test_train_missing_real_dir(tmp_path, config_file):
    (tmp_path / "anomalous-x").mkdir()
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                 "--config", str(config_file)])
    assert code == 2


def test_train_without_validation_reals_exits_data_error(tmp_path, capsys):
    """Three reals at split 0.9 all train, so no real is left to set the
    threshold: even with no epochs to run, ``train`` writes no checkpoint."""
    write_dataset(tmp_path / "data", 3, 0, size=32, seed=4)
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("epochs = 0\nbatch_size = 2\ninput_size = 32\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(tmp_path / "data"), "--out", str(out),
                 "--config", str(cfg), "--split", "0.9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: validation split") and err.count("\n") == 1
    assert not (out / "checkpoint.bin").exists()


def test_train_determinism(toy_root, config_file, tmp_path):
    for mode in ("map", "variational"):
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(config_file.read_text() + f"inference_mode = {mode}\n")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / mode / name
            assert main(["train", "--data", str(toy_root), "--out", str(out),
                         "--config", str(cfg), "--seed", "7"]) == 0
            outs.append(out)
        assert (outs[0] / "train_report.csv").read_bytes() == \
            (outs[1] / "train_report.csv").read_bytes()
        assert (outs[0] / "checkpoint.bin").read_bytes() == \
            (outs[1] / "checkpoint.bin").read_bytes()


def test_unknown_config_key(toy_root, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    code = main(["train", "--data", str(toy_root), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    assert code == 1


def test_score_directory(trained_dir, toy_root, tmp_path):
    out = tmp_path / "scores.csv"
    code = main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--out", str(out), str(toy_root / "real")])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "path,score,verdict"
    assert len(lines) == 49
    assert all(line.rsplit(",", 1)[1] in ("real", "synthetic") for line in lines[1:])


def test_score_same_file_twice_identical(trained_dir, toy_root, capsys):
    target = sorted((toy_root / "real").iterdir())[0]
    ckpt = str(trained_dir / "checkpoint.bin")
    assert main(["score", "--checkpoint", ckpt, str(target)]) == 0
    first = capsys.readouterr().out
    assert main(["score", "--checkpoint", ckpt, str(target)]) == 0
    assert capsys.readouterr().out == first


def test_score_bad_image_gets_error_row(trained_dir, tmp_path, capsys):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    rng = np.random.default_rng(0)
    (imgdir / "good.ppm").write_bytes(
        write_ppm(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)))
    (imgdir / "bad.ppm").write_bytes(b"P6 not really")
    assert main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 str(imgdir)]) == 0
    out = capsys.readouterr().out
    assert ",error," in out


def _malformed_pngs() -> dict[str, bytes]:
    good = bytearray(write_png(np.zeros((32, 32, 3), dtype=np.uint8)))
    good[-1] ^= 0x01  # the IEND CRC
    return {"short_ihdr.png": png_file(b"\x00" * 12, zlib.compress(b"\x00" * 4)),
            "bomb.png": png_bomb(50_000_000),
            "bad_crc.png": bytes(good),
            "oversized.png": png_oversized(1 << 20)}


def test_score_malformed_pngs_get_error_rows(trained_dir, tmp_path, capsys):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    (imgdir / "good.ppm").write_bytes(write_ppm(np.zeros((32, 32, 3), dtype=np.uint8)))
    for name, data in _malformed_pngs().items():
        (imgdir / name).write_bytes(data)
    assert main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 str(imgdir)]) == 0
    rows = dict(line.split(",", 1) for line in capsys.readouterr().out.splitlines()[1:])
    assert {Path(p).name: r for p, r in rows.items() if r.startswith("error")} == {
        "bad_crc.png": "error,CorruptFileError", "bomb.png": "error,CorruptFileError",
        "short_ihdr.png": "error,CorruptFileError",
        "oversized.png": "error,UnsupportedFormatError"}


def test_eval_malformed_png_exits_data_error(trained_dir, toy_root, tmp_path, capsys):
    root = tmp_path / "data"
    shutil.copytree(toy_root, root)
    (root / "real" / "short_ihdr.png").write_bytes(_malformed_pngs()["short_ihdr.png"])
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(root), "--out", str(tmp_path / "e"), "--split", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: PNG IHDR") and err.count("\n") == 1


def test_eval_oversized_png_exits_data_error(trained_dir, toy_root, tmp_path, capsys):
    root = tmp_path / "data"
    shutil.copytree(toy_root, root)
    (root / "real" / "oversized.png").write_bytes(png_oversized(1 << 20))
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(root), "--out", str(tmp_path / "e"), "--split", "0.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: PNG dimensions 60000x60000 exceed")
    assert err.count("\n") == 1


def test_score_all_bad_exits_data_error(trained_dir, tmp_path, capsys):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    (imgdir / "bad.ppm").write_bytes(b"P6 junk")
    assert main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 str(imgdir)]) == 2
    capsys.readouterr()


def test_eval_outputs(trained_dir, toy_root, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(toy_root), "--out", str(out),
                 "--split", "0.5", "--seed", "5"])
    assert code == 0
    capsys.readouterr()
    report = (out / "eval_report.csv").read_text().splitlines()
    assert report[0] == "source,split,ap,map,gamma,tp,fp,tn,fn"
    assert {line.split(",")[0] for line in report[1:]} == {"mosaic", "noise"}
    hist = (out / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count_real,count_anomalous"


def test_eval_without_anomaly_dirs(trained_dir, tmp_path):
    root = tmp_path / "onlyreal"
    (root / "real").mkdir(parents=True)
    rng = np.random.default_rng(1)
    for i in range(8):
        (root / "real" / f"r{i}.ppm").write_bytes(
            write_ppm(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)))
    code = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(root), "--out", str(tmp_path / "e")])
    assert code == 2


def test_perturb_sweeps(trained_dir, toy_root, tmp_path, capsys):
    ckpt = str(trained_dir / "checkpoint.bin")
    out = tmp_path / "sweep.csv"
    code = main(["perturb", "--checkpoint", ckpt, "--data", str(toy_root),
                 "--transform", "jpeg", "--grid", "100,50,10",
                 "--split", "0.5", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "transform,parameter,map"
    assert len(lines) == 4
    assert [line.split(",")[1] for line in lines[1:]] == ["100.0", "50.0", "10.0"]


def test_perturb_blur_zero_matches_eval(trained_dir, toy_root, tmp_path, capsys):
    ckpt = str(trained_dir / "checkpoint.bin")
    out_dir = tmp_path / "ev"
    assert main(["eval", "--checkpoint", ckpt, "--data", str(toy_root),
                 "--out", str(out_dir), "--split", "0.5", "--seed", "5"]) == 0
    capsys.readouterr()
    eval_map = (out_dir / "eval_report.csv").read_text().splitlines()[1].split(",")[3]
    assert main(["perturb", "--checkpoint", ckpt, "--data", str(toy_root),
                 "--transform", "blur", "--grid", "0",
                 "--split", "0.5", "--seed", "5"]) == 0
    sweep_map = capsys.readouterr().out.splitlines()[1].split(",")[2]
    assert sweep_map == eval_map


def test_perturb_unknown_transform(trained_dir, toy_root, capsys):
    code = main(["perturb", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(toy_root), "--transform", "swirl", "--grid", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "blur" in err and "jpeg" in err and "resize" in err


@pytest.mark.parametrize("transform", ["blur", "jpeg", "resize"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_perturb_non_finite_grid_is_usage_error(trained_dir, toy_root, tmp_path, capsys,
                                                transform, value):
    code = main(["perturb", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(toy_root), "--transform", transform, "--grid", f"1,{value}",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid values must be finite") and err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("transform,grid", [
    ("blur", ""), ("jpeg", ","), ("jpeg", "90,50,0"), ("jpeg", "101"), ("jpeg", "90.5"),
    ("blur", "0,-1"), ("resize", "1,0"), ("resize", "1.5"),
], ids=["empty", "only_separators", "jpeg_zero", "jpeg_101", "jpeg_fraction",
        "blur_negative", "resize_zero", "resize_above_one"])
def test_perturb_grid_out_of_range_is_usage_error_before_any_read(tmp_path, capsys,
                                                                  transform, grid):
    """The whole grid is checked before anything is read: neither the
    checkpoint nor the dataset root exists."""
    code = main(["perturb", "--checkpoint", str(tmp_path / "missing.bin"),
                 "--data", str(tmp_path / "missing"), "--transform", transform,
                 f"--grid={grid}", "--out", str(tmp_path / "sweep.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid") or err.startswith(f"error: {transform} parameter")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_score_out_creates_missing_directory(trained_dir, toy_root, tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "scores.csv"
    target = sorted((toy_root / "real").iterdir())[0]
    assert main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--out", str(out), str(target)]) == 0
    assert capsys.readouterr().err == ""
    assert [p.name for p in out.parent.iterdir()] == ["scores.csv"]
    assert out.read_text().splitlines()[1].startswith(f"{target},")


@pytest.mark.parametrize("out", ["afile/scores.csv", "adir"])
def test_score_unwritable_out_exits_data_error(trained_dir, toy_root, tmp_path, capsys, out):
    (tmp_path / "afile").write_text("x")
    (tmp_path / "adir").mkdir()
    target = sorted((toy_root / "real").iterdir())[0]
    code = main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--out", str(tmp_path / out), str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot write") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]


@pytest.mark.parametrize("command,flag,target", [
    ("train", "--config", "adir"), ("train", "--out", "afile"),
    ("score", "--checkpoint", "adir"), ("eval", "--checkpoint", "adir"),
    ("perturb", "--checkpoint", "adir"),
], ids=["train_config_dir", "train_out_file", "score_checkpoint_dir",
        "eval_checkpoint_dir", "perturb_checkpoint_dir"])
def test_unusable_path_exits_data_error(trained_dir, toy_root, config_file, tmp_path,
                                        capsys, monkeypatch, command, flag, target):
    """A directory where a file is read, or a file where a directory is made,
    exits 2 with the operating system's one-line reason, before any training."""

    def never_trains(*args):
        raise AssertionError("train ran although a path was unusable")

    monkeypatch.setattr(cli, "train", never_trains)
    (tmp_path / "afile").write_text("x")
    (tmp_path / "adir").mkdir()
    ckpt = str(trained_dir / "checkpoint.bin")
    args = {"train": ["--data", str(toy_root), "--out", str(tmp_path / "run"),
                      "--config", str(config_file)],
            "score": ["--checkpoint", ckpt, str(sorted((toy_root / "real").iterdir())[0])],
            "eval": ["--checkpoint", ckpt, "--data", str(toy_root),
                     "--out", str(tmp_path / "eval")],
            "perturb": ["--checkpoint", ckpt, "--data", str(toy_root),
                        "--transform", "blur", "--grid", "0"]}[command]
    args[args.index(flag) + 1] = str(tmp_path / target)
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno") and err.count("\n") == 1


def _header(edit):
    """A corruption that passes the checkpoint header through ``edit``."""
    return lambda src, dst: rewrite_checkpoint_header(src, dst, edit)


@pytest.mark.parametrize("corrupt", [
    _header(lambda h: h.pop("mode")),
    _header(lambda h: h["head"].update(hidden=2 * h["head"]["hidden"])),
    _header(lambda h: h["norm"].update(std=[0, 1, 1])),
    _header(lambda h: h["norm"].update(mean=[0.5])),
    _header(lambda h: h.update(gamma="abc")),
    _header(lambda h: h["head"].update(dropout_rate=2.0)),
    _header(lambda h: h["cnn"].update(bn_eps="abc")),
    _header(lambda h: h["cnn"].update(bn_eps=None)),
    _header(lambda h: h["cnn"].update(bn_eps=-1)),
    _header(lambda h: h["cnn"].update(input_size=32.0)),
    _header(lambda h: h["cnn"].update(bn_eps=0.3, bn_momentum=0.9)),
    _header(lambda h: h["head"].update(beta=float("inf"))),
    _header(lambda h: h.update(gamma=10**400)),
    _header(lambda h: h.update(mode=5)),
    _header(lambda h: h.update(trained="no")),
    _header(lambda h: h.update(trained=False)),
    _header(lambda h: h.update(norm=None)),
    lambda src, dst: poison_checkpoint_tensor(src, dst, "cnn.bn.running_var", -1.0),
], ids=["header_without_mode", "hidden_disagrees_with_tensors", "norm_std_zero",
        "norm_mean_short", "gamma_not_number", "dropout_out_of_range", "bn_eps_text",
        "bn_eps_null", "bn_eps_negative", "input_size_float", "geometry_not_a_preset",
        "beta_infinite", "gamma_past_float_range",
        "mode_not_a_mode", "trained_not_bool", "trained_false", "norm_null",
        "bn_running_var_negative"])
def test_score_malformed_checkpoint_exits_data_error(trained_dir, toy_root, tmp_path,
                                                     capsys, corrupt):
    bad = tmp_path / "bad.bin"
    corrupt(trained_dir / "checkpoint.bin", bad)
    target = sorted((toy_root / "real").iterdir())[0]
    assert main(["score", "--checkpoint", str(bad), str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint") and err.count("\n") == 1


def test_score_nan_payload_exits_data_error(trained_dir, toy_root, tmp_path, capsys):
    data = (trained_dir / "checkpoint.bin").read_bytes()
    bad = tmp_path / "nan.bin"
    bad.write_bytes(data[:-8] + np.array([np.nan], "<f8").tobytes())
    target = sorted((toy_root / "real").iterdir())[0]
    assert main(["score", "--checkpoint", str(bad), str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint") and err.count("\n") == 1


def test_score_nan_head_weight_names_tensor(trained_dir, toy_root, tmp_path, capsys):
    bad = tmp_path / "nan.bin"
    poison_checkpoint_tensor(trained_dir / "checkpoint.bin", bad, "head.fc1.weights")
    target = sorted((toy_root / "real").iterdir())[0]
    assert main(["score", "--checkpoint", str(bad), str(target)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: checkpoint tensor head.fc1.weights holds non-finite values\n"


def _python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports this package, so
    that its stderr is what a user sees: warnings included, which pytest
    would capture here."""
    package_root = Path(synthdetect.__file__).parent.parent
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))})


def _overflowing_head(src, dst) -> None:
    """A checkpoint of finite values whose every score is +inf: the first
    hidden unit is about 1e308, and so is its output weight."""
    poison_checkpoint_tensor(src, dst, "head.fc1.bias", 1e308)
    poison_checkpoint_tensor(dst, dst, "head.fc2.weights", 1e308)


@pytest.mark.parametrize("command", ["score", "eval"])
def test_non_finite_scores_exit_numerical_failure(trained_dir, toy_root, tmp_path, command):
    """Finite weights whose scores overflow: exit 3, with one line and no
    numpy warning on stderr."""
    bad = tmp_path / "inf.bin"
    _overflowing_head(trained_dir / "checkpoint.bin", bad)
    args = {"score": [str(toy_root / "real")],
            "eval": ["--data", str(toy_root), "--out", str(tmp_path / "eval"),
                     "--split", "0.5"]}[command]
    proc = _python("-m", "synthdetect", command, "--checkpoint", str(bad), *args)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1


def test_score_keeps_rows_when_some_scores_overflow(trained_dir, toy_root, tmp_path, capsys):
    """A head whose score is c * (c * z_f) for the one feature f whose |z_f|,
    never 0, spreads most over the real files, with c * c = MAX / sqrt(max |z_f| *
    min |z_f|): the file of largest |z_f| overflows and that of the smallest
    does not. The overflowing files get an ``error,FloatingPointError`` row,
    the others the row they get when scored alone, and the run exits 0.
    (The trained head's own scores lie within 2% of each other, so no scale
    of it overflows some files and not others.)"""
    detector = load_checkpoint(trained_dir / "checkpoint.bin")
    paths = image_paths(toy_root / "real")
    batch = Tensor(np.stack([detector.preprocess(load_image(p)) for p in paths]))
    z = np.abs(detector.cnn.forward_features(batch, training=False).data)
    lo, hi = z.min(axis=0), z.max(axis=0)
    f = int(np.argmax(np.divide(hi, lo, out=np.zeros_like(hi), where=lo > 0)))
    c = np.sqrt(np.finfo(np.float64).max) / (z[:, f].max() * z[:, f].min()) ** 0.25
    head = detector.head
    w1 = np.zeros(head.params["fc1.weights"].shape)
    w1[0, f] = c
    w2 = np.zeros(head.params["fc2.weights"].shape)
    w2[0, 0] = c
    head.params.update({"fc1.weights": w1, "fc1.bias": np.zeros(head.hidden),
                        "fc2.weights": w2, "fc2.bias": np.zeros(1)})
    save_checkpoint(tmp_path / "big.bin", detector)
    args = ["score", "--checkpoint", str(tmp_path / "big.bin")]
    assert main([*args, str(toy_root / "real")]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == paths
    failed = [row.endswith(",error,FloatingPointError") for row in rows]
    assert failed[int(z[:, f].argmax())] and not failed[int(z[:, f].argmin())]
    for path, row, bad in zip(paths, rows, failed):
        if not bad:
            assert main([*args, path]) == 0
            assert capsys.readouterr().out.splitlines()[1:] == [row]


@pytest.mark.parametrize("mode", ["map", "variational"])
def test_train_divergence_exits_numerical_failure_naming_epoch(toy_root, config_file,
                                                               tmp_path, mode):
    """At lr0 = 1e6 the first steps diverge, wherever in the epoch that shows:
    one line that names the epoch and its learning rate, and no checkpoint."""
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(config_file.read_text() + f"lr0 = 1e6\ninference_mode = {mode}\n")
    out = tmp_path / "run"
    proc = _python("-m", "synthdetect", "train", "--data", str(toy_root), "--out", str(out),
                   "--config", str(cfg))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: training diverged at "
                                  "epoch 0 (lr=1.000e+06): ")
    assert proc.stderr.count("\n") == 1
    assert not (out / "checkpoint.bin").exists()


def test_overflowing_conv_scores_finite(trained_dir, toy_root, tmp_path, capsys):
    """Kernels scaled by 1e308 overflow some stage-1 conv outputs to +-inf,
    but the sigmoid takes them to 0 or 1, so every score is finite and
    ``score`` succeeds: a non-finite value is reported where it reaches a
    score, not inside the network."""
    detector = load_checkpoint(trained_dir / "checkpoint.bin")
    params = detector.cnn.params
    params["conv1.kernels"] = kernels = params["conv1.kernels"] * 1e308
    save_checkpoint(tmp_path / "big.bin", detector)
    paths = image_paths(toy_root / "real")
    batch = np.stack([detector.preprocess(load_image(p)) for p in paths], axis=-1)
    cfg = detector.cnn.config
    with np.errstate(over="ignore"):
        conv, _ = T.conv2d_valid(T.mean_pool(batch, cfg.pool_kernel)[0], kernels,
                                 params["conv1.bias"], cfg.pool_stride)
    assert np.isinf(conv).any()
    assert main(["score", "--checkpoint", str(tmp_path / "big.bin"),
                 str(toy_root / "real")]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(paths) and all(np.isfinite(float(row[1])) for row in rows)


def test_numpy_error_state_left_as_found():
    """Importing the package sets no numpy error state, and ``main`` restores
    the one it found once its command ends."""
    proc = _python("-c", "import numpy as np; found = np.geterr(); "
                   "import synthdetect.cli as c; imported = np.geterr(); "
                   "c.main(['frobnicate']); print(found == imported == np.geterr())")
    assert proc.stdout == "True\n", proc.stderr


@pytest.mark.parametrize("lines", [
    "alpha = nan", "alpha = -1", "beta = inf", "seed = -1",
    "n_mc = 0\ninference_mode = variational", "hidden = 0", "percentile = 90",
    "metric_sample_cap = 0", "lr0 = nan", "target = nan", "early_stop_gap = nan",
    "improvement_threshold = inf", "split = abc", "split = nan", "split = 1",
    "input_size = 32.0", "input_size = 33",
], ids=["alpha_nan", "alpha_negative", "beta_infinite", "seed_negative",
        "n_mc_zero_variational", "hidden_zero", "percentile_90", "metric_sample_cap_zero",
        "lr0_nan", "target_nan", "early_stop_gap_nan", "improvement_threshold_infinite",
        "split_not_number", "split_nan", "split_one", "input_size_not_int",
        "input_size_unsupported"])
def test_bad_config_value_exits_usage_error(toy_root, tmp_path, capsys, lines):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"epochs = 0\ninput_size = 32\n{lines}\n")
    code = main(["train", "--data", str(toy_root), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_config_file_not_utf8_exits_usage_error(toy_root, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"epochs = 0\nalpha = \xff\n")
    code = main(["train", "--data", str(toy_root), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_config_defaults_have_their_annotated_types():
    """A config key's value is read by the type of its ``TrainConfig``
    default, so each default must be of its field's annotated type."""
    for f in dataclasses.fields(TrainConfig):
        assert type(f.default).__name__ == f.type, f.name


def test_usage_error_exit_code():
    assert main(["train"]) == 1
    assert main(["frobnicate"]) == 1


# --- glibc malloc thresholds ----------------------------------------------------


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# Runs ``main(argv)`` three times and prints the minor faults of the third call.
_THIRD_CALL_FAULTS = """
import resource, sys
from synthdetect.cli import main
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_perturb_does_not_refault_freed_heap(tmp_path):
    """With glibc's thresholds left dynamic, a warm ``perturb`` call on this
    corpus takes about 11.5k minor faults, re-faulting heap that the previous
    op handed back to the kernel; with the thresholds ``main`` pins, none.
    The calls run in a fresh interpreter: what this process freed before
    could have raised the dynamic thresholds and hidden the churn."""
    data = write_dataset(tmp_path / "data", 200, 100, size=32, seed=11)
    cfg = tmp_path / "train.cfg"
    cfg.write_text("input_size = 32\nbatch_size = 32\nepochs = 1\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                 "--config", str(cfg), "--seed", "0"]) == 0
    proc = _python("-c", _THIRD_CALL_FAULTS, "perturb", "--checkpoint",
                   str(tmp_path / "run" / "checkpoint.bin"), "--data", str(data),
                   "--transform", "blur", "--grid", "0,0.5,1,2",
                   "--out", str(tmp_path / "blur.csv"))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000


@pytest.mark.parametrize("accepted", [1, 0])
def test_trim_threshold_pinned_only_after_mmap_threshold(monkeypatch, accepted):
    """Either threshold set alone fixes the other at glibc's 128 KiB default,
    so the trim threshold follows only an accepted mmap threshold."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return accepted

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    cli._pin_malloc_thresholds()
    assert calls == [(-3, cli.MMAP_THRESHOLD)] + accepted * [(-1, cli.TRIM_THRESHOLD)]
    assert cli.TRIM_THRESHOLD >= 2 * cli.MMAP_THRESHOLD


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("lookup", [_no_c_library, lambda name: types.SimpleNamespace()],
                         ids=["oserror", "no_mallopt"])
def test_main_runs_without_mallopt(trained_dir, toy_root, monkeypatch, capsys, lookup):
    monkeypatch.setattr(ctypes, "CDLL", lookup)
    target = sorted((toy_root / "real").iterdir())[0]
    assert main(["score", "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 str(target)]) == 0
    assert capsys.readouterr().out.startswith("path,score,verdict\n")


# --- fuzzed configs and checkpoint headers -------------------------------------

# Config values as text: small integers, so that no example asks for a large
# head; any float; edge spellings; and text without decimal digits, since int()
# reads the digits of every script and could find a large size there too.
_CONFIG_VALUES = st.one_of(
    st.integers(-3, 64).map(str),
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "1_0", "0x10", "32", "224", "map",
                     "variational", "True"]),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
)
_CONFIG_KEYS = sorted({f.name for f in dataclasses.fields(TrainConfig)} - {"epochs"}
                      | {"split", "input_size"})


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    write_dataset(root, 6, 1, size=32, seed=4)
    return root


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One directory that each fuzzed example writes over."""
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(lines=[])  # 224 px by default: the 32 px images are too small
@given(lines=st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES), max_size=5))
def test_fuzzed_config_exits_cleanly(tiny_root, fuzz_dir, capsys, lines):
    """Any ``key = value`` lines over the config keys, with ``epochs = 0`` so
    that nothing trains, end in exit 0, 1 or 2 with at most one error line."""
    cfg = fuzz_dir / "train.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in lines) + "epochs = 0\n",
                   encoding="utf-8")
    code = main(["train", "--data", str(tiny_root), "--out", str(fuzz_dir / "run"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") == (code != 0)


_SPLIT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "1", "0.5", "1e-300"]),
)
_SEEDS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**80))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(command="eval", split="0.5", seed=-1)
@example(command="perturb", split="1.5", seed=0)
@given(command=st.sampled_from(["eval", "perturb"]), split=_SPLIT_TEXT, seed=_SEEDS)
def test_fuzzed_split_and_seed_exit_cleanly(trained_dir, tiny_root, fuzz_dir, capsys,
                                            command, split, seed):
    """Any ``--split`` float text and ``--seed`` integer end in exit 0, 1 or 2
    with at most one error line; a split outside (0, 1) or a negative seed is
    a usage error, as in ``train``."""
    sweep = ["--transform", "blur", "--grid", "0,1"] if command == "perturb" else []
    code = main([command, "--checkpoint", str(trained_dir / "checkpoint.bin"),
                 "--data", str(tiny_root), "--out", str(fuzz_dir / command),
                 f"--split={split}", f"--seed={seed}", *sweep])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    assert err.count("\n") == (code != 0)
    if not 0.0 < float(split) < 1.0 or seed < 0:
        assert code == 1, err


def _set(header, path, value):
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _scalar_paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _scalar_paths(child, path + (key,))
    else:
        yield path


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -10**400, 2**64, 5e-324, 1e308, -1e308]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_checkpoint_header_exits_cleanly(trained_dir, toy_root, fuzz_dir, capsys,
                                                 data):
    """One header scalar, anywhere in the header, replaced by any JSON value:
    ``score`` exits 0 or 2, never 3 and never with a traceback."""
    source = trained_dir / "checkpoint.bin"
    raw = source.read_bytes()
    header = json.loads(raw[20:20 + int.from_bytes(raw[12:20], "little")])
    path = data.draw(st.sampled_from(list(_scalar_paths(header))), label="path")
    value = data.draw(_JSON_VALUES, label="value")
    bad = fuzz_dir / "bad.bin"
    rewrite_checkpoint_header(source, bad, lambda h: _set(h, path, value))
    target = sorted((toy_root / "real").iterdir())[0]
    code = main(["score", "--checkpoint", str(bad), str(target)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert err.count("\n") == (code != 0)
