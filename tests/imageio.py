"""Minimal image writers used by tests to fabricate known inputs."""

from __future__ import annotations

import struct
import zlib

import numpy as np


def write_ppm(pixels_u8: np.ndarray) -> bytes:
    """pixels_u8: [H, W, 3] uint8."""
    h, w, _ = pixels_u8.shape
    return b"P6\n%d %d\n255\n" % (w, h) + pixels_u8.tobytes()


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload)))


def write_png(pixels_u8: np.ndarray, filters: list[int] | None = None) -> bytes:
    """Encode [H, W, 3] uint8 as baseline RGB PNG.

    ``filters`` selects the per-scanline filter type (default all 0); rows are
    pre-filtered accordingly so the file is valid for any choice in 0..4.
    """
    h, w, _ = pixels_u8.shape
    if filters is None:
        filters = [0] * h
    raw = bytearray()
    prev = np.zeros(3 * w, dtype=np.int32)
    for y, ftype in zip(range(h), filters):
        line = pixels_u8[y].reshape(-1).astype(np.int32)
        filtered = _apply_filter(ftype, line, prev)
        raw.append(ftype)
        raw.extend(filtered.astype(np.uint8).tobytes())
        prev = line
    return png_file(struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0), zlib.compress(bytes(raw)))


def png_file(ihdr: bytes, idat: bytes) -> bytes:
    """A PNG file of one IHDR, one IDAT and the IEND chunk, with valid CRCs,
    from the raw IHDR content and the compressed image data."""
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def _apply_filter(ftype: int, line: np.ndarray, prev: np.ndarray) -> np.ndarray:
    bpp = 3
    out = line.copy()
    if ftype == 0:
        pass
    elif ftype == 1:
        for i in range(line.size - 1, bpp - 1, -1):
            out[i] = (line[i] - line[i - bpp]) & 0xFF
    elif ftype == 2:
        out = (line - prev) & 0xFF
    elif ftype == 3:
        for i in range(line.size):
            left = int(line[i - bpp]) if i >= bpp else 0
            out[i] = (line[i] - ((left + int(prev[i])) >> 1)) & 0xFF
    elif ftype == 4:
        for i in range(line.size):
            a = int(line[i - bpp]) if i >= bpp else 0
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
            out[i] = (line[i] - pred) & 0xFF
    else:
        raise ValueError(ftype)
    return out


def png_bomb(inflated: int) -> bytes:
    """A 1x1 RGB PNG whose image data inflates to ``inflated`` zero bytes,
    compressed a megabyte at a time."""
    deflate = zlib.compressobj(9)
    block = bytes(1 << 20)
    idat = b"".join(deflate.compress(block[:min(len(block), inflated - done)])
                    for done in range(0, inflated, len(block))) + deflate.flush()
    return png_file(struct.pack(">IIBBBBB", 1, 1, 8, 2, 0, 0, 0), idat)


def png_oversized(inflated: int) -> bytes:
    """A PNG declaring 60000 x 60000 pixels (about 10.8 GB of scanlines)
    whose image data inflates to only ``inflated`` zero bytes."""
    ihdr = struct.pack(">IIBBBBB", 60000, 60000, 8, 2, 0, 0, 0)
    return png_file(ihdr, zlib.compress(bytes(inflated), 9))
