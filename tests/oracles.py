"""Slow reference implementations that the package's fast paths are checked
against (the extractor's conv and pool among them, in the [B,C,H,W] layout),
the reference head and densities of the Bayesian oracles, and the first
checkpoint writer.
Nothing under ``src/`` imports this module (``test_oracles_guard.py``)."""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from synthdetect import tensor as T
from synthdetect.bayes import LOG_2PI, per_sample_gradients
from synthdetect.perturb import CHROMA_TABLE, LUMA_TABLE, _DCT, scaled_quant_table
from synthdetect.preprocess import (
    REAL_LABEL,
    SUPPORTED_EXTENSIONS,
    ImageRecord,
    UnsupportedFormatError,
    decode_raster,
)
from synthdetect.tensor import frozen


def image_paths(folder) -> list[Path]:
    """The image listing of a folder on ``pathlib``: sorted ``iterdir``,
    ``suffix`` and ``is_file``."""
    return sorted(path for path in Path(folder).iterdir()
                  if path.suffix.lower() in SUPPORTED_EXTENSIONS and path.is_file())


def load_dataset(root) -> list[ImageRecord]:
    """The dataset listing on ``pathlib``, ``is_dir`` for the source folders,
    each file read with ``Path.read_bytes``."""
    root = Path(root)
    records = [ImageRecord(str(path), decode_raster(path.read_bytes()), REAL_LABEL)
               for path in image_paths(root / "real")]
    for folder in sorted(root.iterdir()):
        if not folder.is_dir() or not folder.name.startswith("anomalous-"):
            continue
        source = folder.name[len("anomalous-"):]
        records += [ImageRecord(str(path), decode_raster(path.read_bytes()), source)
                    for path in image_paths(folder)]
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


# --- tensor: the [B,C,H,W] conv and windowed mean pool ------------------------


def conv2d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1,
                 input_grad: bool = True):
    """Valid cross-correlation of a [B,C,H,W] batch with [K,C,kh,kw] kernels
    to [B,K,Ho,Wo], as an im2col product over a sliding-window view, with
    its pull (input cotangent, ``None`` without ``input_grad``, then the
    kernels' and the bias's)."""
    kd, bd, x4 = kernels, bias, x
    K, C, kh, kw = kd.shape
    B, _, H, W = x4.shape
    win = np.lib.stride_tricks.sliding_window_view(x4, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # [B,C,Ho,Wo,kh,kw]
    Ho, Wo = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
        C * kh * kw, B * Ho * Wo)
    kflat = kd.reshape(K, C * kh * kw)
    out = (kflat @ cols + bd[:, None]).reshape(K, B, Ho, Wo).transpose(1, 0, 2, 3)

    def pull(gout: np.ndarray):
        g2 = np.ascontiguousarray(gout.transpose(1, 0, 2, 3)).reshape(K, B * Ho * Wo)
        gk = (g2 @ cols.T).reshape(K, C, kh, kw)
        gb = g2.sum(axis=1)
        if not input_grad:
            return None, gk, gb
        gcols = (kflat.T @ g2).reshape(C, kh, kw, B, Ho, Wo)
        gx = np.zeros((C, B, H, W))
        for i, j in np.ndindex(kh, kw):
            gx[:, :, i:i + stride * (Ho - 1) + 1:stride,
               j:j + stride * (Wo - 1) + 1:stride] += gcols[:, i, j]
        return gx.transpose(1, 0, 2, 3), gk, gb

    return np.ascontiguousarray(out), pull


def mean_pool(x: np.ndarray, kernel: int, stride: int):
    """Square-window mean over the last two axes of a [B,C,H,W] batch at
    ``stride``, as ``mean`` over a strided sliding-window view, with its pull:
    each window's cotangent spread evenly over the window, tap by tap."""
    x4 = x
    win = np.lib.stride_tricks.sliding_window_view(x4, (kernel, kernel), axis=(-2, -1))
    out = win[..., ::stride, ::stride, :, :].mean(axis=(-2, -1))
    Ho, Wo = out.shape[-2:]

    def pull(gout: np.ndarray):
        gx = np.zeros(x4.shape)
        share = gout / (kernel * kernel)
        for i, j in np.ndindex(kernel, kernel):
            gx[..., i:i + stride * (Ho - 1) + 1:stride,
               j:j + stride * (Wo - 1) + 1:stride] += share
        return (gx,)

    return out, pull


# --- bayes: the conjugate-regression head, the densities, the dense curvature ---


class LinearHead:
    """Single linear map f(z) = w . z, no bias: with it the Gauss-Newton
    predictive is exact Bayesian linear regression, the reference point for
    the curvature machinery."""

    def __init__(self, d_in: int, alpha: float = 1.0, beta: float = 1.0):
        if alpha <= 0 or beta <= 0:
            raise ValueError(f"precisions must be positive, got alpha={alpha}, beta={beta}")
        self.d_in = d_in
        self.alpha = alpha
        self.beta = beta
        self.dropout_rate = 0.0
        self.params = {"w": frozen(np.zeros((1, d_in)))}
        self._zero_bias = frozen(np.zeros(1))  # constant, carries no gradient

    def forward(self, z, training: bool = False, rng: np.random.Generator | None = None,
                chain=None) -> np.ndarray:
        return self.forward_with(z, self.params, training, rng, chain)

    def forward_with(self, z, weights, training: bool = False,
                     rng: np.random.Generator | None = None, chain=None) -> np.ndarray:
        out, pull = T.linear(np.asarray(z, dtype=np.float64), weights["w"], self._zero_bias)
        # the constant bias's cotangent is dropped
        T.link(chain, ("w",), (out, lambda g: pull(g)[:2]))
        return T.link(chain, (), T.reshape(out, (out.shape[0],)))

    def jacobian_products(self, z: np.ndarray, weights):
        """(J v, J^T u) for the outputs at the rows ``z``: J is ``z`` itself,
        whatever the weights."""
        return (lambda v: z @ v), (lambda u: z.T @ u)

    def gradient_coordinates(self, z: np.ndarray) -> np.ndarray:
        """The gradient at z is z itself: A = I."""
        return z

    def gradient_gram(self, weights) -> np.ndarray:
        return np.eye(self.d_in)


def log_prior(w: np.ndarray, alpha: float) -> float:
    """log N(w | 0, alpha^-1 I)."""
    if alpha <= 0:
        raise ValueError(f"prior precision must be positive, got {alpha}")
    w = np.asarray(w, dtype=np.float64)
    return 0.5 * w.size * (math.log(alpha) - LOG_2PI) - 0.5 * alpha * float(w @ w)


def log_likelihood(targets: np.ndarray, outputs: np.ndarray, beta: float) -> float:
    """Sum over samples of log N(y_n | f_n, beta^-1)."""
    if beta <= 0:
        raise ValueError(f"noise precision must be positive, got {beta}")
    targets = np.asarray(targets, dtype=np.float64)
    outputs = np.asarray(outputs, dtype=np.float64)
    if targets.shape != outputs.shape:
        raise ValueError(f"targets {targets.shape} and outputs {outputs.shape} differ")
    resid = targets - outputs
    n = targets.size
    return 0.5 * n * (math.log(beta) - LOG_2PI) - 0.5 * beta * float(resid @ resid)


def gauss_newton_dense(head, features: np.ndarray) -> np.ndarray:
    """H = G^T G from the per-sample gradients G that ``backward`` gives at
    the head's current weights: the dense reference for
    ``GaussNewtonCurvature``."""
    G = per_sample_gradients(head, features)
    return G.T @ G


# --- checkpoint: the format-1 writer as first released ---------------------------


def save_checkpoint_v1(path, detector) -> None:
    """Write ``detector`` as the format-1 writer of the first release did:
    the tensor directory comes from the detector's own arrays, in
    parameters-then-buffers-then-head order, not from its config. Files this
    writes must keep loading."""
    cnn, head = detector.cnn, detector.head
    arrays = [(f"cnn.{name}", arr) for name, arr in {**cnn.params, **cnn.buffers}.items()]
    arrays += [(f"head.{name}", w) for name, w in head.params.items()]
    directory, blobs, offset = [], [], 0
    for name, arr in arrays:
        blobs.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blobs[-1])
    header = {
        "cnn": dataclasses.asdict(detector.cnn.config),
        "head": {k: getattr(detector.head, k)
                 for k in ("d_in", "hidden", "alpha", "beta", "dropout_rate")},
        "norm": dataclasses.asdict(detector.norm),
        "gamma": detector.gamma,
        "mode": detector.mode,
        "trained": True,
        "tensors": directory,
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(b"SYDETCK\x00" + struct.pack("<IQ", 1, len(raw)) + raw
                           + b"".join(blobs))
