import json
import math
import tracemalloc

import numpy as np
import pytest

from synthdetect.bayes import BayesianHead, Detector
from synthdetect.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from synthdetect.model import CnnConfig, FineToCoarseCnn
from synthdetect.preprocess import NormStats

from helpers import poison_checkpoint_tensor, rewrite_checkpoint_header
from oracles import save_checkpoint_v1


_NORM = NormStats(mean=(0.4, 0.5, 0.6), std=(0.2, 0.21, 0.22))


def _detector(seed=7, mode="variational", norm=_NORM, gamma=0.8125):
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(seed))
    head = BayesianHead(cnn.feature_dim, hidden=24, alpha=0.5, beta=12.0,
                        dropout_rate=0.25, rng=np.random.default_rng(seed + 1))
    mean, var = cnn.buffers["bn.running_mean"], cnn.buffers["bn.running_var"]
    mean[:] = np.random.default_rng(seed + 2).normal(size=mean.size)
    var[:] = 1.0 + np.random.default_rng(seed + 3).random(var.size)
    return Detector(cnn=cnn, head=head, norm=norm, gamma=gamma, mode=mode)


def test_round_trip_scores_bitwise(tmp_path):
    det = _detector()
    path = tmp_path / "model.bin"
    save_checkpoint(path, det)
    loaded = load_checkpoint(path)
    assert loaded.gamma == det.gamma
    assert loaded.mode == "variational"
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


def test_rejects_deeply_nested_header(tmp_path):
    raw = b"[" * 100_000 + b"]" * 100_000
    path = tmp_path / "nested.bin"
    path.write_bytes(b"SYDETCK\x00" + (1).to_bytes(4, "little")
                     + len(raw).to_bytes(8, "little") + raw)
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


def test_rejects_future_version(tmp_path):
    det = _detector()
    path = tmp_path / "model.bin"
    save_checkpoint(path, det)
    data = bytearray(path.read_bytes())
    data[8] = 99
    (tmp_path / "future.bin").write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "future.bin")


# the reason a rejection gives where a bare KeyError or TypeError would not
# name the key it is about
_NAMED_REASONS = {
    "no_norm_std": r"norm must hold 3 means and 3 stds, got \{'mean': \[",
    "norm_null": r"norm must hold 3 means and 3 stds, got None",
    "norm_not_object": r"norm must hold 3 means and 3 stds, got \[0.5, 0.5, 0.5\]",
}


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
    lambda h: h["head"].update(alpha=float("inf")),
    lambda h: h["head"].update(beta=float("inf")),
    lambda h: h["tensors"][-1].update(offset=0),
    lambda h: h["tensors"][0].update(offset=0.0),
    lambda h: h["tensors"][0].update(name=5),
    lambda h: h["norm"].update(std=[5e-324, 0.2, 0.2]),
    lambda h: h["norm"].update(mean=[1e308, 0.5, 0.5]),
    lambda h: h["cnn"].update(filters=[16, 24.0, 32]),
    lambda h: h["cnn"].update(bn_momentum=2),
    lambda h: h["cnn"].update(bn_eps=float("inf")),
    lambda h: h.update(extra=1),
    lambda h: h["cnn"].update(extra=1),
    lambda h: h["head"].update(extra=1),
    lambda h: h["norm"].update(extra=1),
    lambda h: h.update(trained=False),
    lambda h: h.update(norm=None),
    lambda h: h.update(gamma=None),
    lambda h: h.update(norm=[0.5, 0.5, 0.5]),
], ids=["no_tensors", "no_kernel", "no_norm_std", "zero_stride", "filters_decrease",
        "d_in_mismatch", "hidden_not_int", "missing_tensor", "wrong_shape",
        "negative_offset", "norm_std_zero", "norm_mean_short", "gamma_not_number",
        "gamma_nan", "dropout_out_of_range", "alpha_nan", "alpha_infinite",
        "beta_infinite", "offsets_overlap",
        "offset_not_int", "name_not_string", "norm_std_below_floor",
        "norm_mean_out_of_range", "filter_not_int", "bn_momentum_out_of_range",
        "bn_eps_infinite", "extra_key", "extra_cnn_key", "extra_head_key",
        "extra_norm_key", "trained_false", "norm_null", "gamma_null", "norm_not_object"])
def test_rejects_malformed_header(tmp_path, edit, request):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    rewrite_checkpoint_header(path, tmp_path / "bad.bin", edit)
    with pytest.raises(CheckpointError, match=_NAMED_REASONS.get(request.node.callspec.id)):
        load_checkpoint(tmp_path / "bad.bin")


@pytest.mark.parametrize("geometry", [
    {"filters": (4, 6, 8), "bn_eps": 0.3, "bn_momentum": 0.9},
    {"input_size": 224}, {"pool_stride": 1}, {"in_channels": 1},
], ids=["filters_and_batch_norm", "full_size_reduced_windows", "pool_stride_one",
        "one_channel"])
def test_rejects_consistent_non_preset_geometry(tmp_path, geometry):
    """A file whose header, directory and payload agree, written from an
    extractor whose geometry neither ``CnnConfig(224)`` nor ``CnnConfig(32)``
    is, so that no ``train`` run could have written it."""
    cfg = CnnConfig(32)
    for name, value in geometry.items():
        object.__setattr__(cfg, name, value)
    cnn = FineToCoarseCnn(cfg, rng=np.random.default_rng(5))
    head = BayesianHead(cnn.feature_dim, hidden=8, rng=np.random.default_rng(6))
    path = tmp_path / "model.bin"
    save_checkpoint_v1(path, Detector(cnn=cnn, head=head, norm=_NORM, gamma=0.5, mode="map"))
    with pytest.raises(CheckpointError, match="differs in cnn"):
        load_checkpoint(path)


def test_rejects_permuted_packed_directory(tmp_path):
    """The first two tensors swapped, in the directory and in the payload,
    with the offsets repacked: a self-consistent file in an order that no
    writer produces."""
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    data = path.read_bytes()
    hlen = int.from_bytes(data[12:20], "little")
    payload = data[20 + hlen:]
    header = json.loads(data[20:20 + hlen])
    entries = header["tensors"]
    blobs = [payload[e["offset"]:e["offset"] + 8 * math.prod(e["shape"])] for e in entries]
    order = [1, 0, *range(2, len(entries))]
    offset = 0
    for i in order:
        entries[i]["offset"] = offset
        offset += len(blobs[i])
    header["tensors"] = [entries[i] for i in order]
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    (tmp_path / "permuted.bin").write_bytes(data[:12] + len(raw).to_bytes(8, "little") + raw
                                           + b"".join(blobs[i] for i in order))
    with pytest.raises(CheckpointError, match="tensors"):
        load_checkpoint(tmp_path / "permuted.bin")


def test_rejects_trailing_payload_byte(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    (tmp_path / "long.bin").write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(tmp_path / "long.bin")


@pytest.mark.parametrize("detector", [_detector(), _detector(seed=9, mode="map", gamma=-0.25)],
                         ids=["variational", "map"])
def test_first_release_checkpoint_loads(tmp_path, detector):
    """A file from the first format-1 writer, whose directory came from the
    detector's arrays, is byte for byte what ``save_checkpoint`` writes,
    and loads to the same scores."""
    save_checkpoint_v1(tmp_path / "v1.bin", detector)
    save_checkpoint(tmp_path / "model.bin", detector)
    assert (tmp_path / "v1.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()
    loaded = load_checkpoint(tmp_path / "v1.bin")
    assert (loaded.norm, loaded.gamma, loaded.mode) == \
        (detector.norm, detector.gamma, detector.mode)
    pixels = [np.random.default_rng(i).random((3, 32, 32)) for i in range(4)]
    assert np.array_equal(detector.score_batch(pixels), loaded.score_batch(pixels))


def test_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    data = path.read_bytes()
    (tmp_path / "nan.bin").write_bytes(data[:-8] + np.array([np.nan], "<f8").tobytes())
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(tmp_path / "nan.bin")


@pytest.mark.parametrize("name", [
    *(f"cnn.conv{i}.{kind}" for i in (1, 2, 3) for kind in ("kernels", "bias")),
    "cnn.bn.scale", "cnn.bn.shift", "cnn.bn.running_mean", "cnn.bn.running_var",
    "head.fc1.weights", "head.fc1.bias", "head.fc2.weights", "head.fc2.bias"])
def test_non_finite_payload_names_its_tensor(tmp_path, name):
    """Each of the 14 tensors a checkpoint holds is checked as it is read."""
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    poison_checkpoint_tensor(path, tmp_path / "nan.bin", name)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(tmp_path / "nan.bin")
    assert str(err.value) == f"checkpoint tensor {name} holds non-finite values"


def test_rejects_negative_running_variance(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    poison_checkpoint_tensor(path, tmp_path / "neg.bin", "cnn.bn.running_var", -1.0)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(tmp_path / "neg.bin")
    assert str(err.value) == ("checkpoint cnn is malformed: "
                              "buffer bn.running_var holds negative values")


def test_head_tensors_are_finite_checked_once(tmp_path, monkeypatch):
    """The head adopts the arrays read from the file; the one finite check
    each gets is the loader's, as it reads them, not a second one in the
    head."""
    path = tmp_path / "model.bin"
    save_checkpoint(path, _detector())
    checked = []
    isfinite = np.isfinite

    def recording(arr, *args, **kwargs):
        checked.append(arr)
        return isfinite(arr, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", recording)
    head = load_checkpoint(path).head
    for w in head.params.values():
        assert sum(np.shares_memory(arr, w) for arr in checked) == 1


def _save_wide(path) -> BayesianHead:
    """Save a checkpoint whose file is nearly all of a hidden = 4096 head."""
    cnn = FineToCoarseCnn(CnnConfig(32), rng=np.random.default_rng(3))
    head = BayesianHead(cnn.feature_dim, hidden=4096, rng=np.random.default_rng(4))
    save_checkpoint(path, Detector(cnn=cnn, head=head, norm=_NORM, gamma=0.5))
    return head


def test_load_peak_allocation_bounded_by_file_size(tmp_path):
    """Each tensor is read from the file straight into the array the model
    keeps, with no zero-filled placeholder and no copy of the file's bytes,
    so a wide head peaks near 1.1x the file (the finite check's mask on top
    of the tensors), not 3x."""
    path = tmp_path / "wide.bin"
    head = _save_wide(path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.head.params["fc1.weights"], head.params["fc1.weights"])
    assert peak < 1.3 * path.stat().st_size


@pytest.mark.parametrize("edit", [
    lambda h: h["head"].update(alpha=float("nan")),
    lambda h: h["head"].update(dropout_rate=2),
    lambda h: h["norm"].update(std=[0, 1, 1]),
    lambda h: h.update(norm=None),
], ids=["alpha_nan", "dropout_rate_2", "norm_std_zero", "norm_null"])
def test_bad_header_value_rejected_before_payload_read(tmp_path, edit):
    """Every header value is checked before any tensor is read, so a bad one
    costs a small fraction of the file, however wide the head."""
    path = tmp_path / "wide.bin"
    _save_wide(path)
    rewrite_checkpoint_header(path, tmp_path / "bad.bin", edit)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "bad.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * path.stat().st_size


def test_no_temp_litter(tmp_path):
    det = _detector()
    save_checkpoint(tmp_path / "model.bin", det)
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
