"""Slow reference implementations that the package's fast paths are checked
against. Nothing under ``src/`` imports this module."""

from __future__ import annotations

import numpy as np

from synthdetect.preprocess import UnsupportedFormatError


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
