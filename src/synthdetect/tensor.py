"""Dense float64 tensors and the network's layers, each with its pull-back.

The layers (conv, mean pool, sigmoid, batch norm, linear, dropout, reshape)
are what training and inference run, and nothing else. They are batch only:
``conv2d_valid``, ``mean_pool`` and ``batch_norm`` take [B,C,H,W] and
``linear`` takes [B,d]; an unbatched input raises ``ShapeError``.

Each op returns its output and its ``pull``, which maps a cotangent of the
output to the cotangents of its tensor arguments in order: the input first
(``None`` where the caller asked for none), then the parameters. A forward
that will be differentiated appends ``(parameter names, pull)`` links to a
chain (``link``), and ``backward`` walks that chain in reverse (a
vector-Jacobian product). The network is one fixed chain, written out by
``model`` and ``bayes``; the training objectives there return the cotangents
of the head outputs they read in closed form, so no loss is ever pulled.

Tensors are immutable values: no operation touches an operand's buffer.
Parameter updates go through :meth:`Tensor.assign`, which requires exclusive
access (single-threaded training steps).

Finiteness is checked where a value enters, by ``Tensor(data)`` and ``assign``.
``adopt`` and the ops check nothing: an overflow in the network shows where it
reaches the objective or a score (``bayes``), unless a sigmoid absorbs it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "backward",
    "batch_norm",
    "conv2d_valid",
    "dropout",
    "linear",
    "link",
    "mean_pool",
    "reshape",
    "sigmoid",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr``, which must hold only finite values."""
    if not np.isfinite(arr).all():
        raise FloatingPointError("tensor contains non-finite values")
    return arr


def _owned(arr) -> np.ndarray:
    """``arr`` itself as a read-only float64 buffer; copied only when it is
    not already a C-contiguous float64 array."""
    arr = np.asarray(arr, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


class Tensor:
    """Immutable dense n-dimensional array of float64 scalars."""

    __slots__ = ("data",)

    def __init__(self, data):
        # copy: caller keeps its buffer
        self.data: np.ndarray = _owned(_finite(np.array(data, dtype=np.float64)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Tensor":
        """Wrap ``arr`` itself, without the copy or the finite check
        ``Tensor(arr)`` makes; the caller (an op, or a caller that made a
        private buffer) hands it over and must not write to it again."""
        t = cls.__new__(cls)
        t.data = _owned(arr)
        return t

    def assign(self, arr) -> None:
        """Replace the value (parameter update; exclusive access), taking
        ``arr`` over as :meth:`adopt` does: the caller must not write to it
        again, and a non-finite ``arr`` raises FloatingPointError."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != {self.data.shape}")
        self.data = _owned(_finite(arr))


Pull = Callable[[np.ndarray], tuple]
Chain = list[tuple[Sequence[str], Pull]]


def link(chain: Chain | None, names: Sequence[str], result: tuple[Tensor, Pull]) -> Tensor:
    """The output of an op's ``result``; with a ``chain``, its pull is
    appended to it, its parameter cotangents named by ``names``. Without one
    the pull is dropped here, and the arrays it holds with it."""
    out, pull = result
    if chain is not None:
        chain.append((names, pull))
    return out


def backward(chain: Chain, cotangent: np.ndarray
             ) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Pull ``cotangent``, of the chain's last output, back through the
    chain's links in reverse. Returns the cotangent of its first input
    (``None`` if the first op builds none) and each parameter's gradient,
    keyed by the names its link gave."""
    grads: dict[str, np.ndarray] = {}
    g = cotangent
    for names, pull in reversed(chain):
        g, *param_grads = pull(g)
        grads.update(zip(names, param_grads))
    return g, grads


def reshape(a: Tensor, shape) -> tuple[Tensor, Pull]:
    shape = tuple(int(s) for s in shape)
    old = a.data.shape
    return Tensor.adopt(a.data.reshape(shape)), lambda g: (g.reshape(old),)


def sigmoid(a: Tensor) -> tuple[Tensor, Pull]:
    """Elementwise 1/(1+exp(-x)), computed without overflow on either tail:
    with e = exp(-|x|) in (0, 1], it is 1/(1+e) for x >= 0 and e/(1+e) below.
    Both are r * exp(min(x, 0)) with r = 1/(1+e): the factor is e below 0 and
    exactly 1 from 0 up, so no masked select is needed."""
    x = a.data
    # in place on two buffers (explicit ``out`` keeps 0-d results arrays)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    r = np.add(e, 1.0, out=np.empty_like(x))
    np.reciprocal(r, out=r)
    np.exp(np.minimum(x, 0.0, out=e), out=e)
    np.multiply(e, r, out=e)
    res = Tensor.adopt(e)
    od = res.data
    return res, lambda g: (g * od * (1.0 - od),)


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> tuple[Tensor, Pull]:
    """Affine map x W^T + b of a batch [B, d_in] to [B, d_out]."""
    xd, wd, bd = x.data, weights.data, bias.data
    if wd.ndim != 2 or bd.ndim != 1 or wd.shape[0] != bd.shape[0]:
        raise ShapeError(f"weights {wd.shape} / bias {bd.shape} are not a [d_out,d_in]/[d_out] pair")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"input {xd.shape} is not a [B, {wd.shape[1]}] batch")

    def pull(gout: np.ndarray):
        return gout @ wd, gout.T @ xd, gout.sum(axis=0)

    return Tensor.adopt(xd @ wd.T + bd), pull


def conv_output_size(extent: int, kernel: int, stride: int) -> int:
    return (extent - kernel) // stride + 1


def _windows(x4: np.ndarray, kh: int, kw: int, s: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(x4, (kh, kw), axis=(2, 3))
    return win[:, :, ::s, ::s]


def conv2d_valid(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1,
                 input_grad: bool = True) -> tuple[Tensor, Pull]:
    """Valid cross-correlation of a [B,C,H,W] batch with [K,C,kh,kw] kernels,
    at the same stride along both axes.

    Lowered to an im2col matrix product so both passes run on BLAS. The pull
    builds the input gradient only with ``input_grad``; for an input batch
    it would be discarded.
    """
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    kd, bd = kernels.data, bias.data
    if kd.ndim != 4:
        raise ShapeError(f"kernels must be [K,C,kh,kw], got {kd.shape}")
    K, C, kh, kw = kd.shape
    if bd.shape != (K,):
        raise ShapeError(f"bias must be [K]={K}, got {bd.shape}")
    x4 = x.data
    if x4.ndim != 4 or x4.shape[1] != C:
        raise ShapeError(f"input {x.shape} is not a [B,{C},H,W] batch")
    B, _, H, W = x4.shape
    if kh > H or kw > W:
        raise ShapeError(f"kernel {kh}x{kw} exceeds input {H}x{W}")
    win = _windows(x4, kh, kw, stride)  # [B,C,Hp,Wp,kh,kw]
    Hp, Wp = win.shape[2], win.shape[3]
    # channel-major columns: the gather copies whole output rows, and the
    # product comes out in [K, B, Hp*Wp] blocks that transpose cheaply
    cols = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(
        C * kh * kw, B * Hp * Wp)
    kflat = kd.reshape(K, C * kh * kw)
    out2 = kflat @ cols
    out2 += bd[:, None]
    out = Tensor.adopt(out2.reshape(K, B, Hp, Wp).transpose(1, 0, 2, 3))

    def pull(gout: np.ndarray):
        g2 = np.ascontiguousarray(gout.transpose(1, 0, 2, 3)).reshape(K, B * Hp * Wp)
        gk = (g2 @ cols.T).reshape(K, C, kh, kw)
        gb = g2.sum(axis=1)
        if not input_grad:
            return None, gk, gb
        gcols = (kflat.T @ g2).reshape(C, kh, kw, B, Hp, Wp)
        gx = np.zeros((C, B, H, W))
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + stride * (Hp - 1) + 1:stride,
                   j:j + stride * (Wp - 1) + 1:stride] += gcols[:, i, j]
        return gx.transpose(1, 0, 2, 3), gk, gb

    return out, pull


def _taps(a: np.ndarray, k: int, s: int, n: int, axis: int):
    """The k strided views a[i : i + s*(n-1) + 1 : s] along ``axis``, i < k."""
    lead = (slice(None),) * axis
    return [a[lead + (slice(i, i + s * (n - 1) + 1, s),)] for i in range(k)]


def _tap_sum(a: np.ndarray, k: int, s: int, n: int, axis: int) -> np.ndarray:
    """Sum of the k views of :func:`_taps`, in a new buffer."""
    views = _taps(a, k, s, n, axis)
    out = views[0] + views[1] if k > 1 else views[0].copy()
    for view in views[2:]:
        out += view
    return out


def _tap_spread(g: np.ndarray, k: int, s: int, extent: int, axis: int) -> np.ndarray:
    """Adjoint of :func:`_tap_sum`: add ``g`` into each of the k views."""
    shape = list(g.shape)
    shape[axis] = extent
    out = np.zeros(shape)
    for view in _taps(out, k, s, g.shape[axis], axis):
        view += g
    return out


def mean_pool(x: Tensor, kernel: int, stride: int) -> tuple[Tensor, Pull]:
    """Window-averaging downsample over the spatial dims of a [B,C,H,W] batch,
    with a square ``kernel`` x ``kernel`` window and the same stride along
    both axes.

    Separable: ``kernel`` strided row-slice adds, then ``kernel`` column-slice
    adds, then one scale; the pull is the same adds transposed.
    """
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    if kernel < 1:
        raise ShapeError("pool window must be >= 1")
    x4 = x.data
    if x4.ndim != 4:
        raise ShapeError(f"input must be a [B,C,H,W] batch, got {x.shape}")
    H, W = x4.shape[2:]
    if kernel > min(H, W):
        raise ShapeError(f"pool window {kernel}x{kernel} exceeds input {H}x{W}")
    Hp = conv_output_size(H, kernel, stride)
    Wp = conv_output_size(W, kernel, stride)
    inv = 1.0 / (kernel * kernel)
    out4 = _tap_sum(_tap_sum(x4, kernel, stride, Hp, 2), kernel, stride, Wp, 3)
    out4 *= inv

    def pull(gout: np.ndarray):
        return (_tap_spread(_tap_spread(gout * inv, kernel, stride, W, 3),
                            kernel, stride, H, 2),)

    return Tensor.adopt(out4), pull


def batch_norm(x: Tensor, scale: Tensor, shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5
               ) -> tuple[Tensor, Pull]:
    """Per-channel normalization of a [B,C,H,W] batch.

    Train mode normalizes by batch statistics and folds them into the running
    buffers in place; infer mode reads the running buffers. ``scale`` and
    ``shift`` are the learnable per-channel affine parameters.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batch_norm expects a [B,C,H,W] batch, got {xd.shape}")
    C = xd.shape[1]
    if scale.shape != (C,) or shift.shape != (C,):
        raise ShapeError(f"scale/shift must be [C]={C}")
    axes = (0, 2, 3)
    cshape = (1, C, 1, 1)
    if training:
        if xd.shape[0] < 2:
            raise ShapeError("batch_norm in train mode needs a batch of at least 2")
        mean = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean.reshape(cshape)) * inv_std.reshape(cshape)
    out = Tensor.adopt(xhat * scale.data.reshape(cshape) + shift.data.reshape(cshape))

    def pull(gout: np.ndarray):
        gscale = (gout * xhat).sum(axis=axes)
        gshift = gout.sum(axis=axes)
        gxhat = gout * scale.data.reshape(cshape)
        if training:
            m1 = gxhat.mean(axis=axes).reshape(cshape)
            m2 = (gxhat * xhat).mean(axis=axes).reshape(cshape)
            gx = inv_std.reshape(cshape) * (gxhat - m1 - xhat * m2)
        else:
            gx = gxhat * inv_std.reshape(cshape)
        return gx, gscale, gshift

    return out, pull


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> tuple[Tensor, Pull]:
    """Inverted dropout: train mode zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); infer mode is the identity, and so is its pull."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, lambda g: (g,)
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit generator")
    keep = rng.random(x.shape) >= rate
    factor = keep / (1.0 - rate)
    return Tensor.adopt(x.data * factor), lambda g: (g * factor,)
