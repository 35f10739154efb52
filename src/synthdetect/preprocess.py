"""Image decoding, the input pipeline (center crop, RGB normalization), and
deterministic dataset splitting.

Supported raster formats are 8-bit RGB PNG and binary PPM (P6). Decoded
pixels are float64 in [0, 1], channel-first [3, H, W].

A dataset root is a directory with a ``real/`` subdirectory and zero or more
``anomalous-<name>/`` subdirectories; every regular file with a supported
extension inside them is a sample. Labels are used only for evaluation:
training splits contain real samples exclusively.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REAL_LABEL = "real"
SUPPORTED_EXTENSIONS = (".png", ".ppm")

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_BPP = 3  # bytes per 8-bit RGB pixel
# Largest width * height either decoder accepts, checked before any pixel
# buffer is allocated or any image data inflated: 4096 x 4096.
MAX_IMAGE_PIXELS = 1 << 24
# Floor of a normalization std, so a normalized [0, 1] pixel stays within 1e6.
MIN_CHANNEL_STD = 1e-6


class DecodeError(ValueError):
    """Base class for image decoding failures."""


class UnsupportedFormatError(DecodeError):
    """Content is not one of the supported raster formats."""


class TruncatedFileError(DecodeError):
    """Content ended before the declared pixel data was complete."""


class CorruptFileError(DecodeError):
    """Content contradicts itself: a failed checksum, a malformed header, or
    more pixel data than the header declares."""


class ChannelError(DecodeError):
    """Image does not carry exactly three color channels."""


class DatasetError(ValueError):
    """Dataset directory layout or split request is invalid, or an image is
    too small for the model's input."""


@dataclass
class ImageRecord:
    """A decoded sample. ``source`` is ``"real"`` or the anomaly-source name."""

    path: str
    pixels: np.ndarray  # [3, H, W] in [0, 1]
    source: str

    @property
    def is_real(self) -> bool:
        return self.source == REAL_LABEL


@dataclass
class DatasetSplit:
    split_fraction: float
    seed: int
    train: list[ImageRecord] = field(default_factory=list)
    validation: list[ImageRecord] = field(default_factory=list)
    test: list[ImageRecord] = field(default_factory=list)

    def __post_init__(self):
        bad = [r.path for r in self.train if not r.is_real]
        if bad:
            raise DatasetError(f"anomalous samples in training split: {bad[:3]}")


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean and standard deviation of the training pool."""

    mean: tuple[float, float, float]
    std: tuple[float, float, float]

    def __post_init__(self):
        if len(self.mean) != 3 or len(self.std) != 3 \
                or not np.isfinite([*self.mean, *self.std]).all():
            raise ValueError(f"need 3 finite means and stds, got {self.mean}, {self.std}")
        if any(not 0.0 <= m <= 1.0 for m in self.mean):
            raise ValueError(f"channel means of [0, 1] pixels lie in [0, 1], got {self.mean}")
        if any(s < MIN_CHANNEL_STD for s in self.std):
            raise ValueError(f"channel std must be >= {MIN_CHANNEL_STD}, got {self.std}")


# --- decoding ---------------------------------------------------------------


def decode_image(data: bytes) -> np.ndarray:
    """Decode raw file content into a [3, H, W] tensor with values in [0, 1]."""
    if data[:8] == _PNG_SIGNATURE:
        return _decode_png(data)
    if data[:2] == b"P6":
        return _decode_ppm(data)
    raise UnsupportedFormatError("not a PNG or binary PPM file")


def load_image(path: str | os.PathLike) -> np.ndarray:
    return decode_image(Path(path).read_bytes())


def _decode_ppm(data: bytes) -> np.ndarray:
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise TruncatedFileError("PPM header ended early")
        try:
            fields.append(int(token))
        except ValueError as err:
            raise UnsupportedFormatError(f"bad PPM header token {token!r}") from err
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedFormatError(f"only 8-bit PPM supported, maxval={maxval}")
    if width <= 0 or height <= 0:
        raise UnsupportedFormatError("non-positive PPM dimensions")
    if width * height > MAX_IMAGE_PIXELS:
        raise UnsupportedFormatError(
            f"PPM dimensions {width}x{height} exceed {MAX_IMAGE_PIXELS} pixels")
    pos += 1  # single whitespace after maxval
    raster = data[pos:pos + 3 * width * height]
    if len(raster) < 3 * width * height:
        raise TruncatedFileError("PPM pixel data incomplete")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return img.transpose(2, 0, 1).astype(np.float64) / 255.0


def _decode_png(data: bytes) -> np.ndarray:
    pos = 8
    header = None
    idat = bytearray()
    while pos + 8 <= len(data):
        length, ctype = struct.unpack(">I4s", data[pos:pos + 8])
        pos += 8
        chunk = data[pos:pos + length]
        crc = data[pos + length:pos + length + 4]
        if len(chunk) < length or len(crc) < 4:
            raise TruncatedFileError("PNG chunk data incomplete")
        if zlib.crc32(chunk, zlib.crc32(ctype)) != int.from_bytes(crc, "big"):
            raise CorruptFileError(f"PNG {ctype!r} chunk fails its CRC check")
        pos += length + 4
        if ctype == b"IHDR":
            if length != 13:
                raise CorruptFileError(f"PNG IHDR chunk is {length} bytes, not 13")
            header = struct.unpack(">IIBBBBB", chunk)
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    else:
        raise TruncatedFileError("PNG ended without IEND")
    if header is None:
        raise TruncatedFileError("PNG has no IHDR chunk")
    width, height, depth, color, comp, filt, interlace = header
    if color in (0, 4, 6):
        raise ChannelError(f"PNG color type {color} is not 3-channel RGB")
    if color != 2 or depth != 8:
        raise UnsupportedFormatError(f"only 8-bit RGB PNG supported (depth={depth}, color={color})")
    if comp != 0 or filt != 0 or interlace != 0:
        raise UnsupportedFormatError("compressed/interlaced variants beyond baseline PNG unsupported")
    if width == 0 or height == 0:
        raise UnsupportedFormatError("zero PNG dimensions")
    if width * height > MAX_IMAGE_PIXELS:
        raise UnsupportedFormatError(
            f"PNG dimensions {width}x{height} exceed {MAX_IMAGE_PIXELS} pixels")
    size = height * (3 * width + 1)
    # inflate no further than the declared scanlines: a small file can hold
    # a stream that expands a thousandfold
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, size)
        excess = inflater.decompress(inflater.unconsumed_tail, 1)
    except zlib.error as err:
        raise TruncatedFileError(f"PNG deflate stream corrupt: {err}") from err
    if excess:
        raise CorruptFileError("PNG image data is longer than its declared size")
    if len(raw) < size or not inflater.eof:
        raise TruncatedFileError("PNG scanline data incomplete")
    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, 3 * width + 1)
    rgb = _unfilter(scanlines).reshape(height, width, 3)
    return rgb.transpose(2, 0, 1).astype(np.float64) / 255.0


def _unfilter(scanlines: np.ndarray) -> np.ndarray:
    """Undo the PNG filter of each [filter byte, 3W filtered bytes] row of
    ``scanlines`` into a [H, 3W] uint8 image. None, Sub and Up are whole-row
    uint8 operations that wrap as PNG arithmetic does; Average and Paeth
    predict each byte from the byte just decoded to its left, so they run
    one channel at a time over Python ints."""
    height, stride = scanlines.shape[0], scanlines.shape[1] - 1
    img = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y, ftype in enumerate(scanlines[:, 0].tolist()):
        line, row = scanlines[y, 1:], img[y]
        if ftype == 0:
            row[:] = line
        elif ftype == 1:
            np.cumsum(line.reshape(-1, _BPP), axis=0, dtype=np.uint8,
                      out=row.reshape(-1, _BPP))
        elif ftype == 2:
            np.add(line, prev, out=row)
        elif ftype in _LEFT_PREDICTORS:
            predict = _LEFT_PREDICTORS[ftype]
            decoded = bytearray(stride)
            for k in range(_BPP):
                decoded[k::_BPP] = predict(line[k::_BPP].tobytes(), prev[k::_BPP].tobytes())
            row[:] = np.frombuffer(decoded, dtype=np.uint8)
        else:
            raise UnsupportedFormatError(f"unknown PNG filter type {ftype}")
        prev = row
    return img


def _average_channel(filtered: bytes, up: bytes) -> list[int]:
    """One channel of an Average-filtered row: left and up are the decoded
    neighbours, the left one 0 at the row's first pixel."""
    out = []
    left = 0
    for x, b in zip(filtered, up):
        left = (x + ((left + b) >> 1)) & 0xFF
        out.append(left)
    return out


def _paeth_channel(filtered: bytes, up: bytes) -> list[int]:
    """One channel of a Paeth-filtered row: of left (a), up (b) and up-left
    (c), the predictor is the one nearest a + b - c, ties going a, b, c."""
    out = []
    a = c = 0
    for x, b in zip(filtered, up):
        pa = b - c  # |p - a|, p = a + b - c
        pb = a - c  # |p - b|
        pc = pa + pb  # |p - c|
        if pa < 0:
            pa = -pa
        if pb < 0:
            pb = -pb
        if pc < 0:
            pc = -pc
        if pa <= pb and pa <= pc:
            a = (x + a) & 0xFF
        elif pb <= pc:
            a = (x + b) & 0xFF
        else:
            a = (x + c) & 0xFF
        out.append(a)
        c = b
    return out


_LEFT_PREDICTORS = {3: _average_channel, 4: _paeth_channel}


# --- pipeline ---------------------------------------------------------------


def center_crop(img: np.ndarray, size: int) -> np.ndarray:
    """Centered size x size window; offsets round down for odd margins."""
    _, h, w = img.shape
    if h < size or w < size:
        raise DatasetError(f"image {h}x{w} smaller than crop size {size}")
    top = (h - size) // 2
    left = (w - size) // 2
    return img[:, top:top + size, left:left + size]


def rgb_normalize(img: np.ndarray, stats: NormStats) -> np.ndarray:
    mean = np.asarray(stats.mean).reshape(3, 1, 1)
    std = np.asarray(stats.std).reshape(3, 1, 1)
    return (img - mean) / std


def channel_stats(images: list[np.ndarray]) -> NormStats:
    """Two-pass per-channel mean/std over a pool of [3, H, W] images.

    The std is floored at ``MIN_CHANNEL_STD`` so a degenerate constant channel
    cannot poison normalization.
    """
    if not images:
        raise ValueError("cannot compute statistics of an empty pool")
    counts = sum(img.shape[1] * img.shape[2] for img in images)
    total = np.zeros(3)
    for img in images:
        total += img.sum(axis=(1, 2))
    mean = total / counts
    sq = np.zeros(3)
    for img in images:
        sq += ((img - mean.reshape(3, 1, 1)) ** 2).sum(axis=(1, 2))
    std = np.sqrt(sq / counts)
    std = np.maximum(std, MIN_CHANNEL_STD)
    return NormStats(mean=tuple(mean), std=tuple(std))


def preprocess_pixels(pixels: np.ndarray, size: int, stats: NormStats) -> np.ndarray:
    return rgb_normalize(center_crop(pixels, size), stats)


# --- dataset loading and splitting ------------------------------------------


def _sorted_entries(folder: Path) -> list[os.DirEntry]:
    """The entries of ``folder`` in name order, the order of its sorted
    ``Path`` children."""
    with os.scandir(folder) as it:
        return sorted(it, key=lambda entry: entry.name)


def _resolves_to(test) -> bool:
    """A ``DirEntry.is_file`` or ``is_dir`` answer, symlinks followed; a link
    that cannot be resolved, a loop included, is neither, as for ``Path``."""
    try:
        return test()
    except OSError:
        return False


def image_paths(folder: Path) -> list[str]:
    """Files (symlinks followed) in ``folder`` whose ``Path.suffix``, in any
    case, is a supported extension, as ``str(folder / name)`` in name order.
    The listing of both ``load_dataset`` and ``score``."""
    bare = str(folder) == "."  # entry.path would read ./name there
    paths = []
    for entry in _sorted_entries(folder):
        dot = entry.name.rfind(".")
        if dot > 0 and entry.name[dot:].lower() in SUPPORTED_EXTENSIONS \
                and _resolves_to(entry.is_file):
            paths.append(entry.name if bare else entry.path)
    return paths


def load_dataset(root: str | os.PathLike) -> list[ImageRecord]:
    """Read every supported image under root/real and root/anomalous-*."""
    root = Path(root)
    real_dir = root / "real"
    if not real_dir.is_dir():
        raise DatasetError(f"dataset root {root} has no real/ directory")
    records = [ImageRecord(path, load_image(path), REAL_LABEL)
               for path in image_paths(real_dir)]
    for folder in _sorted_entries(root):
        if not folder.name.startswith("anomalous-") or not _resolves_to(folder.is_dir):
            continue
        source = folder.name[len("anomalous-"):]
        records.extend(ImageRecord(path, load_image(path), source)
                       for path in image_paths(root / folder.name))
    if not records:
        raise DatasetError(f"no supported images found under {root}")
    return records


def anomaly_sources(records: list[ImageRecord]) -> list[str]:
    return sorted({r.source for r in records if not r.is_real})


def make_split(pool: list[ImageRecord], fraction: float, seed: int) -> DatasetSplit:
    """Deterministic split: ``fraction`` of the real pool trains, the rest
    halves into validation and test; anomalous samples are injected into
    validation and test only, up to the real count of each part per source."""
    if not pool:
        raise DatasetError("cannot split an empty pool")
    if not 0.0 < fraction < 1.0:
        raise DatasetError(f"split fraction must be in (0, 1), got {fraction}")
    real = [r for r in pool if r.is_real]
    if not real:
        raise DatasetError("pool has no real samples")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(real))
    n_train = int(round(fraction * len(real)))
    n_train = min(max(n_train, 1), len(real) - 2) if len(real) > 3 else n_train
    rest = len(real) - n_train
    n_val = rest // 2
    train = [real[i] for i in order[:n_train]]
    validation = [real[i] for i in order[n_train:n_train + n_val]]
    test = [real[i] for i in order[n_train + n_val:]]
    n_test = len(test)
    for k, source in enumerate(anomaly_sources(pool)):
        group = [r for r in pool if r.source == source]
        sub = np.random.default_rng([seed, 1000003 + k])
        gorder = sub.permutation(len(group))
        half = len(group) // 2
        val_pool = [group[i] for i in gorder[:half]]
        test_pool = [group[i] for i in gorder[half:]]
        validation.extend(val_pool[:n_val])
        test.extend(test_pool[:n_test])
    return DatasetSplit(split_fraction=fraction, seed=seed,
                        train=train, validation=validation, test=test)
