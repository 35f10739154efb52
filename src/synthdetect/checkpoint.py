"""Self-describing binary checkpoint container.

Layout: 8-byte magic, uint32 format version, uint64 header length, a JSON
header (model geometry, head hyperparameters, normalization stats, threshold,
inference mode, the constant ``"trained": true``, tensor directory), then the
raw float64 little-endian tensors, back to back in directory order. Writes go
through a temp file + rename so an interrupted run never leaves a truncated
file that later loads.

The schema is stated once, by ``_header``: it builds the whole header, the
tensor directory included, from the detector's configuration values, and
``save_checkpoint`` writes what it returns. ``load_checkpoint`` parses and
range-checks each value a file declares, rebuilds the header from those
values, and accepts the file only if the two are equal as sorted, compact
JSON and the payload is exactly as long as the directory's tensors. So a
header has no unknown key, lists the tensors in the one order the writer
uses, and spells each value as the writer does (0 is not 0.0, true is not
1). All of this is checked before any payload byte is read. Each tensor is
then checked finite as it is read, and the first that is not is named.

A checkpoint holds what ``train`` makes, so its header always has a norm
object, a finite ``gamma`` and ``"trained": true``. A null norm or threshold,
or any other value of the flag, is rejected like any other header ``train``
cannot write.

Of the geometry the loader reads only ``cnn.input_size``. It builds that
preset's extractor (at most ~30k floats), which names and sizes the ``cnn.*``
tensors and then receives them, so any geometry ``train`` cannot write fails
the comparison.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .bayes import HEAD_RULES, INFERENCE_MODES, BayesianHead, Detector, check_head_hparams
from .model import CnnConfig, FineToCoarseCnn, is_finite_real
from .preprocess import NormStats

MAGIC = b"SYDETCK\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """File is not a readable checkpoint of a supported version."""


def _tensor_shapes(cnn: FineToCoarseCnn, hidden: int) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each stored tensor in file order: the parameters and
    buffers of ``cnn``, then the head's parameters from the head's own shape
    list, so that nothing sized by ``hidden`` is allocated."""
    shapes = [(f"cnn.{name}", a.shape) for name, a in {**cnn.params, **cnn.buffers}.items()]
    return shapes + [(f"head.{name}", shape) for name, shape
                     in BayesianHead.parameter_shapes(cnn.feature_dim, hidden)]


def _header(cnn: FineToCoarseCnn, head_hparams: dict, norm: NormStats, gamma: float,
            mode: str) -> dict:
    """The whole header for these values, the tensor directory included."""
    directory = []
    offset = 0
    for name, shape in _tensor_shapes(cnn, head_hparams["hidden"]):
        directory.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return {
        "cnn": dataclasses.asdict(cnn.config),
        "head": {"d_in": cnn.feature_dim, **head_hparams},
        "norm": dataclasses.asdict(norm),
        "gamma": gamma,
        "mode": mode,
        "trained": True,  # in every format-1 file: earlier readers score only if true
        "tensors": directory,
    }


def _canonical(value) -> bytes:
    """Sorted, compact JSON: the header bytes ``save_checkpoint`` writes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path: str | os.PathLike, detector: Detector) -> None:
    head = detector.head
    header = _header(detector.cnn, {k: getattr(head, k) for k in HEAD_RULES},
                     detector.norm, detector.gamma, detector.mode)
    arrays = {f"cnn.{name}": arr for name, arr in detector.cnn.state_arrays().items()}
    arrays.update((f"head.{name}", w) for name, w in head.params.items())
    header_bytes = _canonical(header)
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(header_bytes)))
            fh.write(header_bytes)
            for entry in header["tensors"]:
                fh.write(np.ascontiguousarray(arrays[entry["name"]], dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _declared_values(header) -> tuple[FineToCoarseCnn, dict, NormStats]:
    """Parse and range-check each value ``header`` declares, then require
    that it is, as canonical JSON, the header ``_header`` builds from those
    values. Of the geometry only ``input_size`` is read: the rest must be what
    that preset derives. Returns the preset's (zero) extractor, the head
    hyperparameters besides d_in, and the norm stats."""
    try:
        hparams = {k: header["head"][k] for k in HEAD_RULES}
        check_head_hparams(**hparams)
        norm = header["norm"]
        try:
            norm = NormStats(mean=tuple(norm["mean"]), std=tuple(norm["std"]))
        except (TypeError, KeyError) as err:
            raise ValueError(f"norm must hold 3 means and 3 stds, got {norm!r}") from err
        gamma, mode = header["gamma"], header["mode"]
        if not is_finite_real(gamma):
            raise ValueError(f"gamma must be a finite number, got {gamma!r}")
        if mode not in INFERENCE_MODES:
            raise ValueError(f"mode must be one of {INFERENCE_MODES}, got {mode!r}")
        cnn = FineToCoarseCnn(CnnConfig(header["cnn"]["input_size"]))
        rebuilt = _header(cnn, hparams, norm, gamma, mode)
        same = _canonical(header) == _canonical(rebuilt)
    except (TypeError, ValueError, KeyError, RecursionError) as err:
        raise CheckpointError(f"checkpoint header is malformed: {err!r}") from err
    if not same:
        differ = [key for key in sorted(header.keys() | rebuilt.keys())
                  if key not in header or key not in rebuilt
                  or _canonical(header[key]) != _canonical(rebuilt[key])]
        raise CheckpointError(f"checkpoint header is not the one its values give "
                              f"(differs in {', '.join(differ)})")
    return cnn, hparams, norm


def load_checkpoint(path: str | os.PathLike) -> Detector:
    """Read the header and check it whole (see the module docstring), then
    read the tensors one after another, each straight into its own array,
    which is checked finite as it is read and which the model takes over
    without a copy."""
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
        except (ValueError, RecursionError) as err:
            raise CheckpointError(f"corrupt checkpoint header: {err}") from err
        cnn, hparams, norm = _declared_values(header)
        declared = sum(8 * math.prod(entry["shape"]) for entry in header["tensors"])
        if payload_size != declared:
            raise CheckpointError(f"checkpoint payload holds {payload_size} bytes, "
                                  f"its header declares {declared}")
        tensors = {}
        for entry in header["tensors"]:
            arr = np.empty(entry["shape"], dtype="<f8")
            if fh.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise CheckpointError("checkpoint payload truncated")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"checkpoint tensor {entry['name']} holds non-finite values")
            tensors[entry["name"]] = arr
    try:
        head = BayesianHead(cnn.feature_dim, **hparams,
                            weights={name[len("head."):]: arr for name, arr in tensors.items()
                                     if name.startswith("head.")})
        cnn.load_state_arrays({name[len("cnn."):]: arr for name, arr in tensors.items()
                               if name.startswith("cnn.")})
    except ValueError as err:
        raise CheckpointError(f"checkpoint cnn is malformed: {err}") from err
    return Detector(cnn=cnn, head=head, norm=norm, gamma=header["gamma"], mode=header["mode"])
