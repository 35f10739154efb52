import tracemalloc

import numpy as np
import pytest

from synthdetect.bayes import BayesianHead, Detector
from synthdetect.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from synthdetect.model import FineToCoarseCnn, reduced_scale_config
from synthdetect.preprocess import NormStats

from helpers import poison_checkpoint_tensor, rewrite_checkpoint_header


def _detector(seed=7):
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(seed))
    head = BayesianHead(cnn.feature_dim, hidden=24, alpha=0.5, beta=12.0,
                        dropout_rate=0.25, rng=np.random.default_rng(seed + 1))
    cnn.bn_mean[:] = np.random.default_rng(seed + 2).normal(size=cnn.bn_mean.size)
    cnn.bn_var[:] = 1.0 + np.random.default_rng(seed + 3).random(cnn.bn_var.size)
    norm = NormStats(mean=(0.4, 0.5, 0.6), std=(0.2, 0.21, 0.22))
    return Detector(cnn=cnn, head=head, norm=norm, gamma=0.8125,
                    mode="variational", trained=True)


def test_round_trip_scores_bitwise(tmp_path):
    det = _detector()
    path = tmp_path / "model.bin"
    save_checkpoint(path, det)
    loaded = load_checkpoint(path)
    assert loaded.gamma == det.gamma
    assert loaded.mode == "variational"
    assert loaded.trained
    assert loaded.norm == det.norm
    assert loaded.head.alpha == det.head.alpha
    assert loaded.head.beta == det.head.beta
    assert loaded.head.dropout_rate == det.head.dropout_rate
    pixels = [np.random.default_rng(i).random((3, 32, 32)) for i in range(4)]
    assert np.array_equal(det.score_batch(pixels), loaded.score_batch(pixels))


def test_save_is_deterministic(tmp_path):
    det = _detector()
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, det)
    save_checkpoint(b, det)
    assert a.read_bytes() == b.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_rejects_truncated_payload(tmp_path):
    det = _detector()
    path = tmp_path / "model.bin"
    save_checkpoint(path, det)
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[: len(data) - 1000])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.bin")


@pytest.mark.parametrize("cut", [3, 12, 19])
def test_rejects_file_cut_inside_prefix(tmp_path, cut):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:cut])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "cut.bin")


@pytest.mark.parametrize("hlen", [10 ** 6, 2 ** 64 - 1])
def test_rejects_header_length_past_end_of_file(tmp_path, hlen):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    data = bytearray(path.read_bytes())
    data[12:20] = hlen.to_bytes(8, "little")
    (tmp_path / "long.bin").write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(tmp_path / "long.bin")


def test_rejects_future_version(tmp_path):
    det = _detector()
    path = tmp_path / "model.bin"
    save_checkpoint(path, det)
    data = bytearray(path.read_bytes())
    data[8] = 99
    (tmp_path / "future.bin").write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "future.bin")


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("tensors"),
    lambda h: h["cnn"].pop("kernel"),
    lambda h: h["norm"].pop("std"),
    lambda h: h["cnn"].update(pool_stride=0),
    lambda h: h["cnn"].update(filters=[16, 8, 32]),
    lambda h: h["head"].update(d_in=7),
    lambda h: h["head"].update(hidden="24"),
    lambda h: h["tensors"].pop(),
    lambda h: h["tensors"][0].update(shape=[1, 2]),
    lambda h: h["tensors"][0].update(offset=-8),
    lambda h: h["norm"].update(std=[0, 1, 1]),
    lambda h: h["norm"].update(mean=[0.5]),
    lambda h: h.update(gamma="abc"),
    lambda h: h.update(gamma=float("nan")),
    lambda h: h["head"].update(dropout_rate=2.0),
    lambda h: h["head"].update(alpha=float("nan")),
    lambda h: h["tensors"][-1].update(offset=0),
    lambda h: h["tensors"][0].update(offset=0.0),
    lambda h: h["tensors"][0].update(name=5),
    lambda h: h["norm"].update(std=[5e-324, 0.2, 0.2]),
    lambda h: h["norm"].update(mean=[1e308, 0.5, 0.5]),
    lambda h: h["cnn"].update(filters=[16, 24.0, 32]),
    lambda h: h["cnn"].update(bn_momentum=2),
    lambda h: h["cnn"].update(bn_eps=float("inf")),
], ids=["no_tensors", "no_kernel", "no_norm_std", "zero_stride", "filters_decrease",
        "d_in_mismatch", "hidden_not_int", "missing_tensor", "wrong_shape",
        "negative_offset", "norm_std_zero", "norm_mean_short", "gamma_not_number",
        "gamma_nan", "dropout_out_of_range", "alpha_nan", "offsets_overlap",
        "offset_not_int", "name_not_string", "norm_std_below_floor",
        "norm_mean_out_of_range", "filter_not_int", "bn_momentum_out_of_range",
        "bn_eps_infinite"])
def test_rejects_malformed_header(tmp_path, edit):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    rewrite_checkpoint_header(path, tmp_path / "bad.bin", edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "bad.bin")


def test_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    data = path.read_bytes()
    (tmp_path / "nan.bin").write_bytes(data[:-8] + np.array([np.nan], "<f8").tobytes())
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(tmp_path / "nan.bin")


@pytest.mark.parametrize("name", ["cnn.conv1.kernels", "cnn.bn.running_var",
                                  "head.fc1.weights", "head.fc2.bias"])
def test_non_finite_payload_names_its_tensor(tmp_path, name):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    poison_checkpoint_tensor(path, tmp_path / "nan.bin", name)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(tmp_path / "nan.bin")
    assert str(err.value) == f"checkpoint tensor {name} holds non-finite values"


def test_head_tensors_are_finite_checked_once(tmp_path, monkeypatch):
    """The head adopts the arrays read from the file; the one finite check
    each gets is the head's own, not a second one in the loader."""
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    checked = []
    isfinite = np.isfinite

    def recording(arr, *args, **kwargs):
        checked.append(arr)
        return isfinite(arr, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording)
    head = load_checkpoint(path).head
    for _, p in head.parameters():
        assert sum(np.shares_memory(arr, p.data) for arr in checked) == 1


def test_load_peak_allocation_bounded_by_file_size(tmp_path):
    """Each tensor is read from the file straight into the array the model
    keeps, with no zero-filled placeholder and no copy of the file's bytes,
    so a wide head peaks near 1.1x the file (the finite check's mask on top
    of the tensors), not 3x."""
    cnn = FineToCoarseCnn(reduced_scale_config(), rng=np.random.default_rng(3))
    head = BayesianHead(cnn.feature_dim, hidden=4096, rng=np.random.default_rng(4))
    path = tmp_path / "wide.bin"
    save_checkpoint(path, Detector(cnn=cnn, head=head))
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.head.w1.data, head.w1.data)
    assert peak < 1.3 * path.stat().st_size


def test_no_temp_litter(tmp_path):
    det = _detector()
    save_checkpoint(tmp_path / "model.bin", det)
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
