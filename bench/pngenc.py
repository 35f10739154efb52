"""Baseline 8-bit RGB PNG encoder with per-scanline filter choice.

All five scanline filters (None, Sub, Up, Average, Paeth) are computed for
the whole image at once: each predictor only reads original pixels to the
left, above and above-left, so no row depends on another row's filtering.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_TYPES = 5
BYTES_PER_PIXEL = 3


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload)))


def _filtered_rows(rgb: np.ndarray) -> np.ndarray:
    """[FILTER_TYPES, H, 3W] uint8: every row under every filter type."""
    h, w, _ = rgb.shape
    x = rgb.reshape(h, w * BYTES_PER_PIXEL).astype(np.int16)
    bpp = BYTES_PER_PIXEL
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    up_left = np.zeros_like(x)
    up_left[1:, bpp:] = x[:-1, :-bpp]
    p = left + up - up_left
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - up_left)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, up_left))
    predictors = (0, left, up, (left + up) >> 1, paeth)
    return np.stack([(x - pred) & 0xFF for pred in predictors]).astype(np.uint8)


def encode_png(rgb: np.ndarray, filters: np.ndarray) -> bytes:
    """Encode ``rgb`` ([H, W, 3] uint8) with filter type ``filters[y]`` on row y."""
    if rgb.dtype != np.uint8 or rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected [H, W, 3] uint8, got {rgb.dtype} {rgb.shape}")
    h, w, _ = rgb.shape
    filters = np.asarray(filters, dtype=np.uint8)
    if filters.shape != (h,) or filters.max(initial=0) >= FILTER_TYPES:
        raise ValueError(f"need {h} filter types in 0..{FILTER_TYPES - 1}")
    rows = _filtered_rows(rgb)[filters, np.arange(h)]
    raw = np.concatenate([filters[:, None], rows], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(raw, 6)) + _chunk(b"IEND", b""))


def mixed_filters(rng: np.random.Generator, height: int) -> np.ndarray:
    """A shuffled per-row filter mix with every type equally often (all five
    appear once the image has at least five rows), as adaptive encoders vary
    the filter from row to row."""
    return rng.permutation(np.resize(np.arange(FILTER_TYPES, dtype=np.uint8), height))
