"""Test-time post-processing transforms for the robustness study: Gaussian
blur, JPEG-style compression, and bilinear resizing.

All three map [0,1] images to [0,1] images of the original shape, so the
standard crop/normalize pipeline applies unchanged afterwards. JPEG is
simulated in-process as the DCT-quantization round trip (entropy coding is
lossless and cannot affect pixels); resizing re-upsamples to the original
grid by default since the model has a fixed input size.

Each transform is small dense linear algebra. The block DCT is D X D^T on a
stack of 8x8 blocks of all three planes. Blur and resize are separable, so a
[C, H, W] image maps to A_h X A_w^T, with A_h and A_w 1-D operators built
once per (extent, parameter) and cached read-only. An operator is banded,
and is stored as dense blocks of ``_TILE_ROWS`` rows that span only the
input samples those rows read, so its memory and work grow linearly in the
extent.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np


class PerturbError(ValueError):
    """Transform parameters outside their valid range."""


# --- separable 1-D operators ---------------------------------------------------

_TILE_ROWS = 64  # output rows per dense block of a banded operator
_OPERATOR_CACHE = 64  # entries kept by each operator and table cache


class _Banded(NamedTuple):
    """An [n_out, n_in] linear map as dense row blocks: ``(start, lo, block)``
    maps input samples lo..lo+block.shape[1] to output samples
    start..start+block.shape[0]; the map is zero outside its blocks."""

    n_out: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]


def _banded(cols: np.ndarray, weights: np.ndarray) -> _Banded:
    """The map whose output row i sums weights[i, k] * x[cols[i, k]] over k
    (repeated columns add up). The blocks are read-only, since the operator
    caches share them between callers."""
    blocks = []
    for start in range(0, cols.shape[0], _TILE_ROWS):
        c = cols[start:start + _TILE_ROWS]
        lo = int(c.min())
        block = np.zeros((c.shape[0], int(c.max()) + 1 - lo))
        np.add.at(block, (np.arange(c.shape[0])[:, None], c - lo),
                  weights[start:start + _TILE_ROWS])
        block.setflags(write=False)
        blocks.append((start, lo, block))
    return _Banded(cols.shape[0], tuple(blocks))


def _along_rows(op: _Banded, x: np.ndarray) -> np.ndarray:
    """Apply ``op`` to axis -2 of x: [..., n_in, m] -> [..., n_out, m]."""
    out = np.empty(x.shape[:-2] + (op.n_out, x.shape[-1]))
    for start, lo, block in op.blocks:
        np.matmul(block, x[..., lo:lo + block.shape[1], :],
                  out=out[..., start:start + block.shape[0], :])
    return out


def _along_columns(op: _Banded, x: np.ndarray) -> np.ndarray:
    """Apply ``op`` to the last axis of x: [..., n_in] -> [..., n_out], as
    2-D products on x viewed as [rows, n_in]."""
    x2 = x.reshape(-1, x.shape[-1])
    out = np.empty((x2.shape[0], op.n_out))
    for start, lo, block in op.blocks:
        np.matmul(x2[:, lo:lo + block.shape[1]], block.T,
                  out=out[:, start:start + block.shape[0]])
    return out.reshape(x.shape[:-1] + (op.n_out,))


def _separable(img: np.ndarray, op_h: _Banded, op_w: _Banded) -> np.ndarray:
    """op_h X op_w^T for each channel X of a [C, H, W] image."""
    return _along_rows(op_h, _along_columns(op_w, img))


# --- Gaussian blur -----------------------------------------------------------


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _blur_operator(extent: int, sigma: float) -> _Banded:
    """1-D Gaussian filter over ``extent`` samples, numpy 'reflect' padding
    folded in: the radius is at most extent - 1, so one reflection about
    each end reaches every tap."""
    radius = min(math.ceil(3.0 * sigma), extent - 1)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    cols = np.abs(np.arange(extent)[:, None] + offsets)
    cols = np.where(cols > extent - 1, 2 * (extent - 1) - cols, cols)
    return _banded(cols, np.broadcast_to(kernel, cols.shape))


def gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian filter with reflect padding; sigma = 0 is identity.

    The kernel radius is ceil(3*sigma), truncated to the image extent, and the
    truncated kernel is renormalized so constants pass through exactly.
    """
    check_parameter("blur", sigma)
    if sigma == 0:
        return img.copy()
    _, h, w = img.shape
    sigma = float(sigma)
    return _separable(img, _blur_operator(h, sigma), _blur_operator(w, sigma))


# --- JPEG round trip ----------------------------------------------------------

# Baseline luminance / chrominance quantization tables.
LUMA_TABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.float64)

CHROMA_TABLE = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.float64)


def _dct_matrix() -> np.ndarray:
    c = np.zeros((8, 8))
    for u in range(8):
        scale = math.sqrt(1.0 / 8.0) if u == 0 else math.sqrt(2.0 / 8.0)
        for x in range(8):
            c[u, x] = scale * math.cos((2 * x + 1) * u * math.pi / 16.0)
    return c


_DCT = _dct_matrix()


def scaled_quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg quality scaling: 5000/q below 50, else 200-2q; entries in [1,255]."""
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    table = np.floor((base * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _quant_tables(quality: int) -> np.ndarray:
    """Read-only [3, 1, 1, 8, 8] stack of the Y, Cb and Cr tables."""
    chroma = scaled_quant_table(CHROMA_TABLE, quality)
    tables = np.stack([scaled_quant_table(LUMA_TABLE, quality), chroma, chroma])
    tables.setflags(write=False)
    return tables[:, None, None]


# JFIF colour transform; Cb and Cr carry a +128 offset that the level shift
# before the DCT takes off again, so only Y is shifted by -128 here.
_RGB_TO_YCC = np.array([[0.299, 0.587, 0.114],
                        [-0.168736, -0.331264, 0.5],
                        [0.5, -0.418688, -0.081312]])
_YCC_TO_RGB = np.array([[1.0, 0.0, 1.402],
                        [1.0, -0.344136, -0.714136],
                        [1.0, 1.772, 0.0]])


def jpeg_quality(img: np.ndarray, quality: int) -> np.ndarray:
    """RGB -> YCbCr -> blockwise DCT quantization -> RGB, clamped to [0,1].

    The three level-shifted planes go through the DCT as one
    [3, H/8, W/8, 8, 8] stack of edge-padded blocks, quantized by the
    [3, 1, 1, 8, 8] table stack."""
    check_parameter("jpeg", quality)
    tables = _quant_tables(int(quality))
    _, h, w = img.shape
    ycc = (_RGB_TO_YCC @ (img.reshape(3, h * w) * 255.0)).reshape(3, h, w)
    ycc[0] -= 128.0
    if h % 8 or w % 8:  # np.pad costs more than the DCT at 32 px, even padding nothing
        ycc = np.pad(ycc, ((0, 0), (0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    _, ph, pw = ycc.shape
    blocks = ycc.reshape(3, ph // 8, 8, pw // 8, 8).swapaxes(2, 3)
    coeffs = _DCT @ blocks @ _DCT.T
    coeffs = np.round(coeffs / tables) * tables
    back = (_DCT.T @ coeffs @ _DCT).swapaxes(2, 3).reshape(3, ph, pw)[:, :h, :w]
    rgb = (_YCC_TO_RGB @ back.reshape(3, h * w)).reshape(3, h, w)
    rgb += 128.0
    rgb /= 255.0
    return np.clip(rgb, 0.0, 1.0, out=rgb)


# --- bilinear resize -----------------------------------------------------------


@functools.lru_cache(maxsize=_OPERATOR_CACHE)
def _resize_operator(n_out: int, n_in: int) -> _Banded:
    """Pixel-center (align-corners-false) linear interpolation from n_in to
    n_out samples, edge-clamped: row j holds (1 - frac, frac) at (lo, hi)."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    return _banded(np.stack([lo, hi], axis=1), np.stack([1 - frac, frac], axis=1))


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample [C,H,W] to [C,out_h,out_w], pixel-center (align-corners-false)
    convention, edge-clamped."""
    _, h, w = img.shape
    return _separable(img, _resize_operator(out_h, h), _resize_operator(out_w, w))


def resize_bilinear(img: np.ndarray, factor: float) -> np.ndarray:
    """Downsample by ``factor``, then upsample back to the original grid so
    the fixed-size crop still applies."""
    check_parameter("resize", factor)
    _, h, w = img.shape
    out_h = int(round(h * factor))
    out_w = int(round(w * factor))
    if out_h < 8 or out_w < 8:
        raise PerturbError(f"resized image {out_h}x{out_w} is below the 8px minimum")
    return bilinear_resize(bilinear_resize(img, out_h, out_w), h, w)


# --- registry for the sweep driver ----------------------------------------------

_TRANSFORMS = {  # name: (function, its parameter's requirement, test)
    "blur": (gaussian_blur, "finite and >= 0", lambda p: math.isfinite(p) and p >= 0),
    "jpeg": (jpeg_quality, "an integer in 1..100",
             lambda p: 1 <= p <= 100 and float(p).is_integer()),
    "resize": (resize_bilinear, "in (0, 1]", lambda p: 0.0 < p <= 1.0),
}


def check_parameter(name: str, parameter: float) -> None:
    """The one rule on transform ``name`` and its parameter; resize's 8 px
    minimum depends on the image, so it is not part of it."""
    if name not in _TRANSFORMS:
        raise PerturbError(f"unknown transform {name!r}; valid: {', '.join(_TRANSFORMS)}")
    _, rule, ok = _TRANSFORMS[name]
    if not ok(parameter):
        raise PerturbError(f"{name} parameter must be {rule}, got {parameter!r}")


def apply_transform(name: str, img: np.ndarray, parameter: float) -> np.ndarray:
    check_parameter(name, parameter)
    return _TRANSFORMS[name][0](img, parameter)
