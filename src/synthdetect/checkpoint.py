"""Self-describing binary checkpoint container.

Layout: 8-byte magic, uint32 format version, uint64 header length, a JSON
header (model geometry, head hyperparameters, normalization stats, threshold,
tensor directory), then the raw float64 little-endian tensors, back to back
in directory order. Writes
go through a temp file + rename so an interrupted run never leaves a
truncated file that later loads.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import NoReturn

import numpy as np

from .bayes import INFERENCE_MODES, BayesianHead, Detector
from .model import CnnConfig, FineToCoarseCnn, is_finite_real, is_int
from .preprocess import NormStats

MAGIC = b"SYDETCK\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """File is not a readable checkpoint of a supported version."""


_HEADER_KEYS = {"cnn", "head", "norm", "gamma", "mode", "trained", "tensors"}
_CNN_KEYS = {f.name for f in dataclasses.fields(CnnConfig)}
_HEAD_KEYS = {"d_in", "hidden", "alpha", "beta", "dropout_rate"}
_HEAD_TENSORS = ("fc1.weights", "fc1.bias", "fc2.weights", "fc2.bias")  # parameters() order


def _tensor_entries(detector: Detector) -> list[tuple[str, np.ndarray]]:
    entries = [(f"cnn.{name}", p.data) for name, p in detector.cnn.parameters()]
    entries += [(f"cnn.{name}", buf) for name, buf in detector.cnn.buffers()]
    entries += [(f"head.{name}", p.data) for name, p in detector.head.parameters()]
    return entries


def save_checkpoint(path: str | os.PathLike, detector: Detector) -> None:
    entries = _tensor_entries(detector)
    directory = []
    offset = 0
    blobs = []
    for name, arr in entries:
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "cnn": dataclasses.asdict(detector.cnn.config),
        "head": {k: getattr(detector.head, k) for k in _HEAD_KEYS},
        "norm": None if detector.norm is None else dataclasses.asdict(detector.norm),
        "gamma": detector.gamma,
        "mode": detector.mode,
        "trained": detector.trained,
        "tensors": directory,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require_keys(section, keys: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise CheckpointError(f"checkpoint {where} is not an object")
    missing = sorted(keys - section.keys())
    if missing:
        raise CheckpointError(f"checkpoint {where} lacks {', '.join(missing)}")


def _expected_shapes(cfg: CnnConfig, d_in: int, hidden: int) -> dict[str, tuple]:
    """Name -> shape of every tensor ``save_checkpoint`` writes for this
    geometry, derived without allocating any of them."""
    shapes = {}
    c_in = cfg.in_channels
    for i, k_out in enumerate(cfg.filters, start=1):
        shapes[f"cnn.conv{i}.kernels"] = (k_out, c_in, cfg.kernel, cfg.kernel)
        shapes[f"cnn.conv{i}.bias"] = (k_out,)
        c_in = k_out
    for name in ("bn.scale", "bn.shift", "bn.running_mean", "bn.running_var"):
        shapes[f"cnn.{name}"] = (c_in,)
    shapes.update({"head.fc1.weights": (hidden, d_in), "head.fc1.bias": (hidden,),
                   "head.fc2.weights": (1, hidden), "head.fc2.bias": (1,)})
    return shapes


def _validated_header(header) -> tuple[CnnConfig, list[tuple[str, tuple, int]]]:
    """Check the header's keys, geometry and tensor directory against each
    other before anything is built, so no header that cannot load gets past
    here. Returns the extractor config and the (name, shape, offset) of each
    stored tensor, with the shape the geometry gives."""
    _require_keys(header, _HEADER_KEYS, "header")
    _require_keys(header["cnn"], _CNN_KEYS, "cnn section")
    _require_keys(header["head"], _HEAD_KEYS, "head section")
    if header["norm"] is not None:
        _require_keys(header["norm"], {"mean", "std"}, "norm section")
    head = header["head"]
    try:
        cfg = CnnConfig(**{**header["cnn"], "filters": tuple(header["cnn"]["filters"])})
        feature_dim = cfg.feature_dim
        directory = [(e["name"], tuple(e["shape"]), e["offset"]) for e in header["tensors"]]
    except (TypeError, ValueError, KeyError) as err:
        raise CheckpointError(f"checkpoint header is malformed: {err!r}") from err
    if not all(isinstance(name, str) for name, _, _ in directory):
        raise CheckpointError("checkpoint tensor names must be strings")
    if head["d_in"] != feature_dim:
        raise CheckpointError(
            f"checkpoint head d_in {head['d_in']} != cnn feature_dim {feature_dim}")
    expected = _expected_shapes(cfg, head["d_in"], head["hidden"])
    if any(not isinstance(d, int) or d < 1 for shape in expected.values() for d in shape):
        raise CheckpointError(f"checkpoint geometry has a non-positive size: {expected}")
    stored = {name: shape for name, shape, _ in directory}
    if sorted(stored) != sorted(expected) or len(directory) != len(expected):
        raise CheckpointError(
            f"checkpoint tensors {sorted(stored)} != expected {sorted(expected)}")
    for name, shape in expected.items():
        if stored[name] != shape:
            raise CheckpointError(
                f"checkpoint tensor {name} has shape {stored[name]}, "
                f"header geometry gives {shape}")
    offsets = [offset for _, _, offset in directory]
    sizes = [8 * math.prod(expected[name]) for name, _, _ in directory]
    packed = list(itertools.accumulate(sizes[:-1], initial=0))
    if not all(map(is_int, offsets)) or offsets != packed:
        raise CheckpointError("checkpoint tensors must lie back to back in directory order")
    gamma = header["gamma"]
    if gamma is not None and not is_finite_real(gamma):
        raise CheckpointError(f"checkpoint gamma must be null or a finite number, got {gamma!r}")
    if header["mode"] not in INFERENCE_MODES:
        raise CheckpointError(f"checkpoint mode must be one of {INFERENCE_MODES}, "
                              f"got {header['mode']!r}")
    if not isinstance(header["trained"], bool):
        raise CheckpointError(f"checkpoint trained flag must be true or false, "
                              f"got {header['trained']!r}")
    return cfg, [(name, expected[name], offset) for name, _, offset in directory]


def _raise_non_finite(tensors: dict[str, np.ndarray]) -> NoReturn:
    """Name the first non-finite tensor. Only runs once the model has refused
    one, so a checkpoint that loads has each tensor checked exactly once."""
    bad = next(name for name, arr in tensors.items() if not np.isfinite(arr).all())
    raise CheckpointError(f"checkpoint tensor {bad} holds non-finite values")


def load_checkpoint(path: str | os.PathLike) -> Detector:
    """Read the header, check it whole, then read each tensor from the file
    straight into its own array, which the model takes over without a copy.
    The model's own finite checks cover the payload."""
    with open(path, "rb") as fh:
        prefix = fh.read(20)
        if prefix[:8] != MAGIC or len(prefix) < 20:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        version, = struct.unpack("<I", prefix[8:12])
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        hlen, = struct.unpack("<Q", prefix[12:20])
        payload_size = os.fstat(fh.fileno()).st_size - 20 - hlen
        if payload_size < 0:
            raise CheckpointError(f"checkpoint header of {hlen} bytes runs past the file's end")
        try:
            header = json.loads(fh.read(hlen))
        except ValueError as err:
            raise CheckpointError(f"corrupt checkpoint header: {err}") from err
        cfg, directory = _validated_header(header)
        if any(start + 8 * math.prod(shape) > payload_size
               for _, shape, start in directory):
            raise CheckpointError("checkpoint payload truncated")
        tensors = {}
        for name, shape, start in directory:
            arr = np.empty(shape, dtype="<f8")
            fh.seek(20 + hlen + start)
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise CheckpointError("checkpoint payload truncated")
            tensors[name] = arr
    try:
        head = BayesianHead(**{k: header["head"][k] for k in _HEAD_KEYS},
                            weights=[tensors[f"head.{name}"] for name in _HEAD_TENSORS])
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"checkpoint head is malformed: {err}") from err
    except FloatingPointError:
        _raise_non_finite(tensors)
    norm = None
    if header["norm"] is not None:
        try:
            norm = NormStats(mean=tuple(header["norm"]["mean"]),
                             std=tuple(header["norm"]["std"]))
        except (TypeError, ValueError) as err:
            raise CheckpointError(f"checkpoint norm is malformed: {err}") from err
    cnn = FineToCoarseCnn(cfg)
    try:
        cnn.load_state_arrays({name[len("cnn."):]: arr for name, arr in tensors.items()
                               if name.startswith("cnn.")})
    except FloatingPointError:
        _raise_non_finite(tensors)
    return Detector(cnn=cnn, head=head, norm=norm, gamma=header["gamma"],
                    mode=header["mode"], trained=header["trained"])
