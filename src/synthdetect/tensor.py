"""Dense float64 tensors with tape-based reverse-mode differentiation.

The tape records the network's layers (conv, mean pool, sigmoid, batch norm,
linear, dropout), what training and inference run, and nothing else. It is
batch only: ``conv2d_valid``, ``mean_pool`` and ``batch_norm`` take
[B,C,H,W] and ``linear`` takes [B,d]; an unbatched input raises
``ShapeError``.

``backward`` takes cotangent seeds, one per recorded output, and pulls them
back to every parameter on the tape (a vector-Jacobian product). The
training objectives live in ``bayes``: each returns the cotangents of the
head outputs it read, in closed form, and the gradients of the weights it
regularizes, so no loss is ever recorded.

Tensors are immutable values: no operation touches an operand's buffer.
Parameter updates go through :meth:`Tensor.assign`, which requires exclusive
access (single-threaded training steps). Tapes are kept on a thread-local
stack, so independent tapes may run concurrently on disjoint data.

Finiteness is checked where a value enters, by ``Tensor(data)`` and ``assign``.
``adopt`` and the ops check nothing: an overflow in the network shows where it
reaches the objective or a score (``bayes``), unless a sigmoid absorbs it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GradTape",
    "GradientError",
    "ShapeError",
    "Tensor",
    "backward",
    "batch_norm",
    "conv2d_valid",
    "dropout",
    "linear",
    "mean_pool",
    "reshape",
    "sigmoid",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GradientError(ValueError):
    """Backward pass asked to differentiate something it cannot."""


_uids = itertools.count(1)
_local = threading.local()


def _tape_stack() -> list["GradTape"]:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = []
        _local.tapes = stack
    return stack


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

    __slots__ = ("data", "requires_grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        # copy: caller keeps its buffer
        self.data: np.ndarray = _owned(_finite(np.array(data, dtype=np.float64)))
        self.requires_grad = requires_grad
        self.uid = next(_uids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def adopt(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap ``arr`` itself, without the copy or the finite check
        ``Tensor(arr)`` makes; the caller (an op, or a caller that made a
        private buffer) hands it over and must not write to it again."""
        t = cls.__new__(cls)
        t.data = _owned(arr)
        t.requires_grad = requires_grad
        t.uid = next(_uids)
        return t

    def assign(self, arr) -> None:
        """Replace the value (parameter update; exclusive access), taking
        ``arr`` over as :meth:`adopt` does: the caller must not write to it
        again, and a non-finite ``arr`` raises FloatingPointError."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ShapeError(f"assign shape {arr.shape} != {self.data.shape}")
        self.data = _owned(_finite(arr))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out_uid", "in_uids", "pull")

    def __init__(self, out_uid: int, in_uids: tuple[int, ...],
                 pull: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]):
        self.out_uid = out_uid
        self.in_uids = in_uids
        self.pull = pull


class GradTape:
    """Ordered record of primitive operations.

    The backward pass visits nodes in exact reverse of recording order, so a
    tensor's consumers are always processed before its producer and gradient
    accumulation needs no topological sort.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._params: dict[int, Tensor] = {}
        self._produced: set[int] = set()

    def __enter__(self) -> "GradTape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _tape_stack().pop()
        assert popped is self
        return False


def _tracked(t: Tensor) -> bool:
    """Whether a gradient w.r.t. ``t`` can reach a parameter of the current
    tape: ``t`` is a parameter or was produced on that tape."""
    stack = _tape_stack()
    return bool(stack) and (t.requires_grad or t.uid in stack[-1]._produced)


def _record(out: Tensor, inputs: Sequence[Tensor],
            pull: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]) -> None:
    stack = _tape_stack()
    if not stack:
        return
    tape = stack[-1]
    for t in inputs:
        if t.requires_grad:
            tape._params.setdefault(t.uid, t)
    tape._produced.add(out.uid)
    tape._nodes.append(_Node(out.uid, tuple(t.uid for t in inputs), pull))


def backward(seeds: Sequence[tuple[Tensor, np.ndarray]],
             tape: GradTape) -> dict[int, np.ndarray]:
    """Pull the cotangent seeds back through the tape: each seed is a
    distinct tensor recorded on ``tape`` and a cotangent of its shape, and the
    result is the sum over seeds of each seed's vector-Jacobian product.

    Returns a map from parameter uid to a gradient array of the parameter's
    shape. Parameters with no path to a seed get exact zeros.
    """
    grads: dict[int, np.ndarray] = {}
    for out, cotangent in seeds:
        if out.uid not in tape._produced or out.uid in grads:
            raise GradientError("each seed must be a distinct tensor recorded on the tape")
        if np.shape(cotangent) != out.shape:
            raise GradientError(f"cotangent shape {np.shape(cotangent)} != "
                                f"output shape {out.shape}")
        grads[out.uid] = np.asarray(cotangent, dtype=np.float64)
    for node in reversed(tape._nodes):
        gout = grads.pop(node.out_uid, None)
        if gout is None:
            continue
        for uid, g in zip(node.in_uids, node.pull(gout)):
            if g is None:
                continue
            held = grads.get(uid)
            grads[uid] = g if held is None else held + g
    return {
        uid: grads.get(uid, np.zeros_like(p.data))
        for uid, p in tape._params.items()
    }


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = Tensor.adopt(a.data.reshape(shape))
    old = a.data.shape
    _record(out, [a], lambda g: (g.reshape(old),))
    return out


def sigmoid(a: Tensor) -> Tensor:
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
    _record(res, [a], lambda g: (g * od * (1.0 - od),))
    return res


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Affine map x W^T + b of a batch [B, d_in] to [B, d_out]."""
    xd, wd, bd = x.data, weights.data, bias.data
    if wd.ndim != 2 or bd.ndim != 1 or wd.shape[0] != bd.shape[0]:
        raise ShapeError(f"weights {wd.shape} / bias {bd.shape} are not a [d_out,d_in]/[d_out] pair")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"input {xd.shape} is not a [B, {wd.shape[1]}] batch")
    out = Tensor.adopt(xd @ wd.T + bd)

    def pull(gout: np.ndarray):
        return gout @ wd, gout.T @ xd, gout.sum(axis=0)

    _record(out, [x, weights, bias], pull)
    return out


def conv_output_size(extent: int, kernel: int, stride: int) -> int:
    return (extent - kernel) // stride + 1


def _windows(x4: np.ndarray, kh: int, kw: int, s: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(x4, (kh, kw), axis=(2, 3))
    return win[:, :, ::s, ::s]


def conv2d_valid(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """Valid cross-correlation of a [B,C,H,W] batch with [K,C,kh,kw] kernels,
    at the same stride along both axes.

    Lowered to an im2col matrix product so both passes run on BLAS. Backward
    builds the input gradient only when the input is tracked by the current
    tape; for an input batch it would be discarded.
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
    need_gx = _tracked(x)

    def pull(gout: np.ndarray):
        g2 = np.ascontiguousarray(gout.transpose(1, 0, 2, 3)).reshape(K, B * Hp * Wp)
        gk = (g2 @ cols.T).reshape(K, C, kh, kw)
        gb = g2.sum(axis=1)
        if not need_gx:
            return None, gk, gb
        gcols = (kflat.T @ g2).reshape(C, kh, kw, B, Hp, Wp)
        gx = np.zeros((C, B, H, W))
        for i in range(kh):
            for j in range(kw):
                gx[:, :, i:i + stride * (Hp - 1) + 1:stride,
                   j:j + stride * (Wp - 1) + 1:stride] += gcols[:, i, j]
        return gx.transpose(1, 0, 2, 3), gk, gb

    _record(out, [x, kernels, bias], pull)
    return out


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


def mean_pool(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Window-averaging downsample over the spatial dims of a [B,C,H,W] batch,
    with a square ``kernel`` x ``kernel`` window and the same stride along
    both axes.

    Separable: ``kernel`` strided row-slice adds, then ``kernel`` column-slice
    adds, then one scale; the backward is the same adds transposed. A node is
    recorded only when the input is tracked by the current tape.
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
    out = Tensor.adopt(out4)
    if not _tracked(x):
        return out

    def pull(gout: np.ndarray):
        return (_tap_spread(_tap_spread(gout * inv, kernel, stride, W, 3),
                            kernel, stride, H, 2),)

    _record(out, [x], pull)
    return out


def batch_norm(x: Tensor, scale: Tensor, shift: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
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

    _record(out, [x, scale, shift], pull)
    return out


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train mode zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); infer mode is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit generator")
    keep = rng.random(x.shape) >= rate
    factor = keep / (1.0 - rate)
    out = Tensor.adopt(x.data * factor)
    _record(out, [x], lambda g: (g * factor,))
    return out
