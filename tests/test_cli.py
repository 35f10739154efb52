import dataclasses
import json
import shutil
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from synthdetect.cli import main
from synthdetect.checkpoint import load_checkpoint
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
    detector = load_checkpoint(ckpt)
    assert detector.trained and detector.gamma is not None


def test_train_missing_real_dir(tmp_path, config_file):
    (tmp_path / "anomalous-x").mkdir()
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
                 "--config", str(config_file)])
    assert code == 2


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


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("mode"),
    lambda h: h["head"].update(hidden=2 * h["head"]["hidden"]),
    lambda h: h["norm"].update(std=[0, 1, 1]),
    lambda h: h["norm"].update(mean=[0.5]),
    lambda h: h.update(gamma="abc"),
    lambda h: h["head"].update(dropout_rate=2.0),
    lambda h: h["cnn"].update(bn_eps="abc"),
    lambda h: h["cnn"].update(bn_eps=None),
    lambda h: h["cnn"].update(bn_eps=-1),
    lambda h: h["cnn"].update(input_size=32.0),
    lambda h: h.update(gamma=10**400),
    lambda h: h.update(mode=5),
    lambda h: h.update(trained="no"),
], ids=["header_without_mode", "hidden_disagrees_with_tensors", "norm_std_zero",
        "norm_mean_short", "gamma_not_number", "dropout_out_of_range", "bn_eps_text",
        "bn_eps_null", "bn_eps_negative", "input_size_float", "gamma_past_float_range",
        "mode_not_a_mode", "trained_not_bool"])
def test_score_malformed_checkpoint_exits_data_error(trained_dir, toy_root, tmp_path,
                                                     capsys, edit):
    bad = tmp_path / "bad.bin"
    rewrite_checkpoint_header(trained_dir / "checkpoint.bin", bad, edit)
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


def test_usage_error_exit_code():
    assert main(["train"]) == 1
    assert main(["frobnicate"]) == 1


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
