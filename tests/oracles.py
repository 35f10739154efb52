"""Slow reference implementations that the package's fast paths are checked
against. Nothing under ``src/`` imports this module."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from synthdetect.perturb import CHROMA_TABLE, LUMA_TABLE, _DCT, scaled_quant_table
from synthdetect.preprocess import (
    REAL_LABEL,
    SUPPORTED_EXTENSIONS,
    ImageRecord,
    UnsupportedFormatError,
    load_image,
)


def load_dataset(root) -> list[ImageRecord]:
    """The dataset listing on ``pathlib``: sorted ``iterdir``, ``suffix`` and
    ``is_file`` / ``is_dir``."""
    root = Path(root)
    records = []
    for path in sorted((root / "real").iterdir()):
        if path.suffix.lower() in SUPPORTED_EXTENSIONS and path.is_file():
            records.append(ImageRecord(str(path), load_image(path), REAL_LABEL))
    for folder in sorted(root.iterdir()):
        if not folder.is_dir() or not folder.name.startswith("anomalous-"):
            continue
        source = folder.name[len("anomalous-"):]
        for path in sorted(folder.iterdir()):
            if path.suffix.lower() in SUPPORTED_EXTENSIONS and path.is_file():
                records.append(ImageRecord(str(path), load_image(path), source))
    return records


def _unfilter_scanline(ftype: int, line: np.ndarray, prev: np.ndarray) -> np.ndarray:
    bpp = 3
    out = line.astype(np.int32)
    if ftype == 0:
        pass
    elif ftype == 1:
        for i in range(bpp, out.size):
            out[i] = (out[i] + out[i - bpp]) & 0xFF
    elif ftype == 2:
        out = (out + prev) & 0xFF
    elif ftype == 3:
        for i in range(out.size):
            left = out[i - bpp] if i >= bpp else 0
            out[i] = (out[i] + ((left + int(prev[i])) >> 1)) & 0xFF
    elif ftype == 4:
        for i in range(out.size):
            a = out[i - bpp] if i >= bpp else 0
            b = int(prev[i])
            c = int(prev[i - bpp]) if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            if pa <= pb and pa <= pc:
                pred = a
            elif pb <= pc:
                pred = b
            else:
                pred = c
            out[i] = (out[i] + pred) & 0xFF
    else:
        raise UnsupportedFormatError(f"unknown PNG filter type {ftype}")
    return out.astype(np.uint8)


# --- perturb: the per-tap, per-plane and fancy-index transforms ----------------


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian filter as a loop over taps on a reflect-padded copy
    of each axis; radius ceil(3*sigma) truncated to extent - 1, kernel
    renormalized."""
    if sigma == 0:
        return img.copy()
    _, h, w = img.shape
    out = img
    for axis, extent in ((1, h), (2, w)):
        radius = min(math.ceil(3.0 * sigma), extent - 1)
        offsets = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
        kernel /= kernel.sum()
        pad = [(0, 0), (0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        padded = np.pad(out, pad, mode="reflect")
        acc = np.zeros_like(img)
        for k, weight in zip(range(2 * radius + 1), kernel):
            sl = [slice(None)] * 3
            sl[axis] = slice(k, k + extent)
            acc += weight * padded[tuple(sl)]
        out = acc
    return out


def _dct_round_trip(channel: np.ndarray, table: np.ndarray) -> np.ndarray:
    h, w = channel.shape
    blocks = channel.reshape(h // 8, 8, w // 8, 8)
    coeffs = np.einsum("ui,hiwj,vj->hwuv", _DCT, blocks, _DCT)
    coeffs = np.round(coeffs / table) * table
    back = np.einsum("ui,hwuv,vj->hiwj", _DCT, coeffs, _DCT)
    return back.reshape(h, w)


def jpeg_quality(img: np.ndarray, quality: int) -> np.ndarray:
    """The JPEG round trip one plane at a time, each block DCT an ``einsum``."""
    table_luma = scaled_quant_table(LUMA_TABLE, quality)
    table_chroma = scaled_quant_table(CHROMA_TABLE, quality)
    _, h, w = img.shape
    r, g, b = img[0] * 255.0, img[1] * 255.0, img[2] * 255.0
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    planes = []
    for plane, table in ((y, table_luma), (cb, table_chroma), (cr, table_chroma)):
        padded = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
        coded = _dct_round_trip(padded - 128.0, table) + 128.0
        planes.append(coded[:h, :w])
    y, cb, cr = planes
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    out = np.stack([r, g, b]) / 255.0
    return np.clip(out, 0.0, 1.0)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Pixel-center bilinear resampling by gathering the four neighbours."""
    _, h, w = img.shape

    def _coords(n_out, n_in):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    ylo, yhi, yfrac = _coords(out_h, h)
    xlo, xhi, xfrac = _coords(out_w, w)
    top = img[:, ylo][:, :, xlo] * (1 - xfrac) + img[:, ylo][:, :, xhi] * xfrac
    bottom = img[:, yhi][:, :, xlo] * (1 - xfrac) + img[:, yhi][:, :, xhi] * xfrac
    return top * (1 - yfrac)[None, :, None] + bottom * yfrac[None, :, None]


# --- tensor: sigmoid with a masked copy -----------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+e) for x >= 0 and e/(1+e) below, e = exp(-|x|), picked by a
    masked ``copyto``."""
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    r = np.add(e, 1.0, out=np.empty_like(x))
    np.reciprocal(r, out=r)
    np.multiply(e, r, out=e)
    np.copyto(e, r, where=x >= 0)
    return e
