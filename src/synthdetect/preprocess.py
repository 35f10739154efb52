"""Image decoding, the input pipeline (center crop, RGB normalization), and
deterministic dataset splitting.

Supported raster formats are 8-bit RGB PNG and binary PPM (P6). One parser,
``decode_raster``, turns a file's bytes into a channel-first uint8 [3, H, W]
raster, and dataset records hold that raster. ``decode_image`` and a
record's ``pixels`` are its float view, float64 in [0, 1] (``to_unit``), made
only where an image is trained on or scored.

A dataset root is a directory with a ``real/`` subdirectory and zero or more
``anomalous-<name>/`` subdirectories; every regular file with a supported
extension inside them is a sample. Labels are used only for evaluation:
training splits contain real samples exclusively.
"""

from __future__ import annotations

import functools
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
_SPAN = 511  # a - c and b - c of two bytes lie in -255..255
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
    raster: np.ndarray  # uint8 [3, H, W]
    source: str

    def __post_init__(self):
        raster = self.raster
        if not (isinstance(raster, np.ndarray) and raster.dtype == np.uint8
                and raster.ndim == 3 and raster.shape[0] == 3):
            raise ValueError(f"record {self.path!r} needs a uint8 [3, H, W] raster")

    @property
    def pixels(self) -> np.ndarray:
        """The float64 [3, H, W] image in [0, 1], converted at each access."""
        return to_unit(self.raster)

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


def to_unit(raster: np.ndarray) -> np.ndarray:
    """The float64 image of a uint8 raster, each value over 255, in the
    raster's memory order."""
    return raster.astype(np.float64) / 255.0


def decode_raster(data: bytes) -> np.ndarray:
    """Decode raw file content into a uint8 [3, H, W] raster."""
    if data[:8] == _PNG_SIGNATURE:
        return _decode_png(data)
    if data[:2] == b"P6":
        return _decode_ppm(data)
    raise UnsupportedFormatError("not a PNG or binary PPM file")


def decode_image(data: bytes) -> np.ndarray:
    """Decode raw file content into a float64 [3, H, W] image in [0, 1]."""
    return to_unit(decode_raster(data))


def read_file(path: str | os.PathLike) -> bytes:
    """The whole content of a file, read unbuffered: one ``readall``, sized
    by ``fstat``, with no buffered reader or ``Path`` in between."""
    with open(path, "rb", buffering=0) as fh:
        return fh.readall()


def load_image(path: str | os.PathLike) -> np.ndarray:
    return decode_image(read_file(path))


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
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).transpose(2, 0, 1)


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
    del idat  # the compressed copy need not live beside the unfilter
    if excess:
        raise CorruptFileError("PNG image data is longer than its declared size")
    if len(raw) < size or not inflater.eof:
        raise TruncatedFileError("PNG scanline data incomplete")
    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(height, 3 * width + 1)
    img = np.zeros((height + 1, width, _BPP), dtype=np.uint8)  # row 0: the zeros above
    band = max(width, 64)  # rows per wavefront, see _unfilter
    for top in range(0, height, band):
        _unfilter(scanlines[top:top + band], img[top:top + band + 1])
    return img[1:].transpose(2, 0, 1)


def _unfilter(scanlines: np.ndarray, img: np.ndarray) -> None:
    """Undo the PNG filter of each [filter byte, 3W filtered bytes] row of
    ``scanlines`` into ``img[1:]``, [h, W, 3] uint8, below the decoded row
    ``img[0]``, as one diagonal wavefront: pixel (y, x) is decoded at step
    x + lag[y], where lag[y] is 0 on the first row and on a None or Sub row,
    and lag[y - 1] + 1 on an Up, Average or Paeth row, so its left (a), up
    (b) and up-left (c) neighbours come from the two steps before, and
    ``lanes[s]``, step s - 2 of every row below ``img[0]``, makes them
    contiguous slices. A None row is decoded as the Sub row of its byte
    differences; every row adds to a the ``_predictor_table`` entry of
    (kind, a - c, b - c), mod 256. Lanes before a row's first step stay 0,
    as every predictor of a = b = c = 0 is 0. With h <= max(W, 64) the lag
    is under h: lanes of at most about twice the rows' bytes (25 KB if
    W < 64), and under W + h steps, however tall the image."""
    height, width, filters = scanlines.shape[0], img.shape[1], scanlines[:, 0]
    if filters.max() > 4:
        raise UnsupportedFormatError(f"unknown PNG filter type {filters[filters > 4][0]}")
    rows = np.arange(height)
    lags = (rows - np.maximum.accumulate(np.where(filters <= 1, rows, 0))).tolist()
    lanes = np.zeros((width + max(lags) + 2, height + 1, _BPP), dtype=np.uint8)
    lanes[1:width + 1, 0] = img[0]
    pixels = scanlines[:, 1:].reshape(height, width, _BPP)
    for y, lag in enumerate(lags):
        lanes[lag + 2:lag + 2 + width, y + 1] = pixels[y]
    lanes[3:width + 2, 1:][:, filters == 0] -= pixels[filters == 0, :-1].transpose(1, 0, 2)
    kinds = np.maximum(filters, 1).astype(np.int32) - 1
    base = np.repeat(kinds * _SPAN ** 2 + 255 * (_SPAN + 1), _BPP).reshape(height, _BPP)
    index, v = np.empty((2, height, _BPP), dtype=np.int32)
    for s in range(2, len(lanes)):
        a, b, c = lanes[s - 1, 1:], lanes[s - 1, :-1], lanes[s - 2, :-1]
        np.subtract(a, c, out=index, dtype=np.int32)
        np.subtract(b, c, out=v, dtype=np.int32)
        index *= _SPAN
        index += v
        index += base
        lane = lanes[s, 1:]
        lane += a
        lane += _predictor_table().take(index)  # of the flat table
    for y, lag in enumerate(lags):
        img[y + 1] = lanes[lag + 2:lag + 2 + width, y + 1]


@functools.cache
def _predictor_table() -> np.ndarray:
    """The read-only uint8 [4, 511, 511] table of each predictor minus a,
    mod 256, at (kind, a - c + 255, b - c + 255): Sub 0, Up b - a, Average
    (a + b) >> 1 - a and Paeth 0, b - a or c - a, whichever of a, b, c is
    nearest a + b - c, ties going a, b, c. 1.04 MB, built once per process."""
    v = np.arange(-255, 256, dtype=np.int16)  # b - c
    table = np.empty((4, _SPAN, _SPAN), dtype=np.uint8)
    for lo in range(0, _SPAN, 64):  # 64 values of a - c at a time: small temporaries
        u = v[lo:lo + 64, None]  # a - c
        up = v - u  # b - a; (a + b) >> 1 - a is (b - a) >> 1
        pa, pb, pc = np.abs(v), np.abs(u), np.abs(u + v)  # |p - a|, |p - b|, |p - c|
        paeth = np.where((pa <= pb) & (pa <= pc), 0, np.where(pb <= pc, up, -u))
        table[:, lo:lo + 64] = np.stack([np.zeros_like(up), up, up >> 1, paeth])  # wraps
    table.flags.writeable = False
    return table


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
    """Read and decode every supported image under root/real and
    root/anomalous-*, each into a uint8 record."""
    root = Path(root)
    real_dir = root / "real"
    if not real_dir.is_dir():
        raise DatasetError(f"dataset root {root} has no real/ directory")
    records = [ImageRecord(path, decode_raster(read_file(path)), REAL_LABEL)
               for path in image_paths(real_dir)]
    for folder in _sorted_entries(root):
        if not folder.name.startswith("anomalous-") or not _resolves_to(folder.is_dir):
            continue
        source = folder.name[len("anomalous-"):]
        records.extend(ImageRecord(path, decode_raster(read_file(path)), source)
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
