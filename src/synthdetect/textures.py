"""Procedural texture corpus for end-to-end exercise of the harness.

Three generator families mirror a multi-source detection setup: smooth
low-frequency color fields stand in for the in-distribution ("real") class,
while per-pixel noise and piecewise-flat mosaics provide two distinct
out-of-distribution sources. Values are quantized to the 8-bit grid, and
records hold them as uint8 rasters, so in-memory corpora behave exactly like
ones round-tripped through image files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .perturb import bilinear_resize
from .preprocess import ImageRecord

SOURCES = ("noise", "mosaic")

FINE_AMPLITUDE = 0.10
MID_AMPLITUDE = 0.05


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


_pattern_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def acquisition_patterns(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed micro-patterns shared by every in-distribution image, standing in
    for the capture-pipeline regularities of genuine photographs: a pixel-level
    +-1 field and a smoother 4-pixel-scale field. Both are fixed constants
    (not per-image randomness), so the class carries a consistent fine-detail
    signature that post-processing wipes out."""
    if size not in _pattern_cache:
        rng = np.random.default_rng(864201)
        fine = rng.choice([-1.0, 1.0], size=(3, size, size))
        coarse = rng.choice([-1.0, 1.0], size=(3, max(size // 4, 2), max(size // 4, 2)))
        mid = bilinear_resize(coarse, size, size)
        _pattern_cache[size] = (fine, mid)
    return _pattern_cache[size]


def _smooth_base(rng: np.random.Generator, size: int) -> np.ndarray:
    """Low-frequency random color field in [0.2, 0.8]: headroom for
    the micro-patterns and the noise overlay without clipping."""
    grid = rng.integers(3, 6)
    shared = bilinear_resize(rng.uniform(0, 1, (1, grid, grid)), size, size)[0]
    chans = bilinear_resize(rng.uniform(0, 1, (3, grid, grid)), size, size)
    img = 0.55 * shared[None, :, :] + 0.45 * chans
    lo, hi = img.min(), img.max()
    if hi - lo > 1e-9:
        img = 0.2 + 0.6 * (img - lo) / (hi - lo)
    return img


def smooth_texture(rng: np.random.Generator, size: int = 32) -> np.ndarray:
    """In-distribution sample: low-frequency random color field plus the fixed
    acquisition micro-patterns."""
    fine, mid = acquisition_patterns(size)
    img = _smooth_base(rng, size) + FINE_AMPLITUDE * fine + MID_AMPLITUDE * mid
    return _quantize(img)


def noise_texture(rng: np.random.Generator, size: int = 32) -> np.ndarray:
    """High-frequency anomaly: heavy independent per-pixel noise over the same
    kind of smooth tint the in-distribution class uses (matched low-frequency
    statistics, no shared micro-pattern)."""
    base = _smooth_base(rng, size)
    return _quantize(base + rng.uniform(-0.15, 0.15, (3, size, size)))


def mosaic_texture(rng: np.random.Generator, size: int = 32,
                   splits: int = 3) -> np.ndarray:
    """Piecewise-flat mosaic: recursive random rectangle splits, each cell
    filled with a constant random color."""
    img = np.empty((3, size, size))
    rects = [(0, size, 0, size)]
    for _ in range(splits):
        nxt = []
        for y0, y1, x0, x1 in rects:
            if y1 - y0 >= 8 and (y1 - y0 >= x1 - x0 or x1 - x0 < 8):
                cut = int(rng.integers(y0 + 4, y1 - 3))
                nxt += [(y0, cut, x0, x1), (cut, y1, x0, x1)]
            elif x1 - x0 >= 8:
                cut = int(rng.integers(x0 + 4, x1 - 3))
                nxt += [(y0, y1, x0, cut), (y0, y1, cut, x1)]
            else:
                nxt.append((y0, y1, x0, x1))
        rects = nxt
    for y0, y1, x0, x1 in rects:
        img[:, y0:y1, x0:x1] = rng.uniform(0.2, 0.8, size=3)[:, None, None]
    return _quantize(img)


_GENERATORS = {
    "real": smooth_texture,
    "noise": noise_texture,
    "mosaic": mosaic_texture,
}


def generate_records(n_real: int, n_per_source: int, size: int = 32,
                     seed: int = 0) -> list[ImageRecord]:
    """In-memory corpus with the same labeling scheme as a dataset directory."""
    records = []
    for kind, count in (("real", n_real),
                        *((s, n_per_source) for s in SOURCES)):
        rng = np.random.default_rng([seed, sum(map(ord, kind))])
        gen = _GENERATORS[kind]
        for i in range(count):
            raster = np.round(gen(rng, size) * 255.0).astype(np.uint8)
            records.append(ImageRecord(f"toy://{kind}/{i}", raster, kind))
    return records


def write_dataset(root: str | Path, n_real: int, n_per_source: int,
                  size: int = 32, seed: int = 0) -> Path:
    """Materialize the corpus as PPM files in the standard directory layout."""
    root = Path(root)
    for record in generate_records(n_real, n_per_source, size, seed):
        kind, idx = record.path.split("//")[1].split("/")
        folder = root / ("real" if kind == "real" else f"anomalous-{kind}")
        folder.mkdir(parents=True, exist_ok=True)
        _, h, w = record.raster.shape
        data = b"P6\n%d %d\n255\n" % (w, h) + record.raster.transpose(1, 2, 0).tobytes()
        (folder / f"{kind}_{idx.zfill(5)}.ppm").write_bytes(data)
    return root
