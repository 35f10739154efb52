"""Dense float64 tensors and the network's layers, each with its pull-back.

The layers (conv, mean pool, sigmoid, batch norm, linear, dropout,
transpose, reshape) are what training and inference run, and nothing else.
They are batch only; an unbatched input raises ``ShapeError``.
``conv2d_valid`` and ``mean_pool`` take [C,H,W,B] maps, the batch innermost:
at 32 px the extractor's maps are 2 to 31 px wide, so with the batch inner
every im2col gather, pool add and gradient scatter moves whole batch rows
instead of rows of a few pixels. ``batch_norm`` takes [B,C,H,W] and
``linear`` [B,d]. The extractor (``model``) transposes twice: its [B,3,S,S]
input enters as a strided view that stage 1's conv copies into its phase
planes, and its last map leaves through a ``transpose`` link before the
batch norm.

Each op returns its output and its ``pull``, which maps a cotangent of the
output to the cotangents of its tensor arguments in order: the input first
(``None`` where the caller asked for none), then the parameters. A forward
that will be differentiated appends ``(parameter names, pull)`` links to a
chain (``link``), and ``backward`` walks that chain in reverse (a
vector-Jacobian product). The network is one fixed chain, written out by
``model`` and ``bayes``; the training objectives there return the cotangents
of the head outputs they read in closed form, so no loss is ever pulled.

The ops take and return float64 arrays; their outputs are read-only, so no
op writes into an array that a pull holds. Parameters are read-only arrays in
one name-keyed dict per model, which ``sgd_update`` steps (single-threaded).
``Tensor`` is only the extractor's input and output.

Finiteness is checked where a value enters, by ``Tensor(data)`` and
``sgd_update``. ``adopt`` and the ops check nothing: an overflow in the
network shows where it reaches the objective or a score (``bayes``), unless a
sigmoid absorbs it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


def _locked(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, a strided view included, made read-only."""
    arr.setflags(write=False)
    return arr


def frozen(arr) -> np.ndarray:
    """``arr`` as a read-only C-contiguous float64 array, copied only if it is
    not one; the caller must not write to it again."""
    return _locked(np.asarray(arr, dtype=np.float64, order="C"))


def sgd_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
               lr: float) -> None:
    """Replace each parameter w in ``params`` by w - lr * g, frozen. A
    gradient g of another shape (ShapeError) or a non-finite result
    (FloatingPointError, naming it) leaves ``params`` unchanged."""
    updated = {}
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(f"gradient of {name} has shape {g.shape}, not {w.shape}")
        new = w - lr * g
        if not np.isfinite(new).all():
            raise FloatingPointError(f"update of {name} holds non-finite values")
        updated[name] = frozen(new)
    params.update(updated)


class Tensor:
    """Immutable float64 array: the extractor's checked input, and its output."""

    __slots__ = ("data",)

    def __init__(self, data):
        data = np.array(data, dtype=np.float64)  # copy: caller keeps its buffer
        if not np.isfinite(data).all():
            raise FloatingPointError("tensor contains non-finite values")
        self.data: np.ndarray = frozen(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Tensor":
        """Wrap ``arr`` itself, a strided view included, without the copy and
        finite check of ``Tensor(arr)``; the caller must not write to it again."""
        t = cls.__new__(cls)
        t.data = _locked(np.asarray(arr, dtype=np.float64))
        return t


Pull = Callable[[np.ndarray], tuple]
Chain = list[tuple[Sequence[str], Pull]]


def link(chain: Chain | None, names: Sequence[str],
         result: tuple[np.ndarray, Pull]) -> np.ndarray:
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


def reshape(a: np.ndarray, shape) -> tuple[np.ndarray, Pull]:
    shape = tuple(int(s) for s in shape)
    old = a.shape
    return _locked(a.reshape(shape)), lambda g: (g.reshape(old),)


def transpose(a: np.ndarray, axes) -> tuple[np.ndarray, Pull]:
    """``a`` with its axes permuted by ``axes``, in a new C-contiguous buffer."""
    axes = tuple(int(i) for i in axes)
    inverse = tuple(axes.index(i) for i in range(len(axes)))
    return (_locked(np.ascontiguousarray(a.transpose(axes))),
            lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def sigmoid(x: np.ndarray) -> tuple[np.ndarray, Pull]:
    """Elementwise 1/(1+exp(-x)), computed without overflow on either tail:
    with e = exp(-|x|) in (0, 1], it is 1/(1+e) for x >= 0 and e/(1+e) below.
    Both are r * exp(min(x, 0)) with r = 1/(1+e): the factor is e below 0 and
    exactly 1 from 0 up, so no masked select is needed."""
    # in place on two buffers (explicit ``out`` keeps 0-d results arrays)
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    r = np.add(e, 1.0, out=np.empty_like(x))
    np.reciprocal(r, out=r)
    np.exp(np.minimum(x, 0.0, out=e), out=e)
    np.multiply(e, r, out=e)
    od = _locked(e)
    return od, lambda g: (g * od * (1.0 - od),)


def linear(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, Pull]:
    """Affine map x W^T + b of a batch [B, d_in] to [B, d_out]."""
    if weights.ndim != 2 or bias.ndim != 1 or weights.shape[0] != bias.shape[0]:
        raise ShapeError(f"weights {weights.shape} / bias {bias.shape} "
                         f"are not a [d_out,d_in]/[d_out] pair")
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ShapeError(f"input {x.shape} is not a [B, {weights.shape[1]}] batch")

    def pull(gout: np.ndarray):
        return gout @ weights, gout.T @ x, gout.sum(axis=0)

    return _locked(x @ weights.T + bias), pull


def conv_output_size(extent: int, kernel: int, stride: int) -> int:
    return (extent - kernel) // stride + 1


def _phase_taps(s: int, kh: int, kw: int):
    """The taps (i, j) of a kh x kw window at stride s, grouped by their
    phase (i % s, j % s); each tap as (i, j, i // s, j // s)."""
    phases: dict[tuple[int, int], list] = {}
    for i, j in np.ndindex(kh, kw):
        phases.setdefault((i % s, j % s), []).append((i, j, i // s, j // s))
    return phases.items()


def conv2d_valid(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1,
                 input_grad: bool = True) -> tuple[np.ndarray, Pull]:
    """Valid cross-correlation of a [C,H,W,B] map with [K,C,kh,kw] kernels,
    at the same stride along both axes, to a [K,Ho,Wo,B] map.

    Lowered to an im2col matrix product so both passes run on BLAS, and the
    [K, Ho*Wo*B] product is the output map itself. The [C*kh*kw, Ho*Wo*B]
    column matrix is gathered from the stride x stride phase planes
    x[:, r::s, q::s]: each plane is copied once into a C-contiguous buffer,
    whatever the strides of ``x``, and every tap is then a stride-1 slice of
    one plane, whose rows run Wo*B long. The pull adds the column gradients
    back plane by plane the same way. It builds the input gradient only with
    ``input_grad``; for an input batch it would be discarded.
    """
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be [K,C,kh,kw], got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    if bias.shape != (K,):
        raise ShapeError(f"bias must be [K]={K}, got {bias.shape}")
    if x.ndim != 4 or x.shape[0] != C:
        raise ShapeError(f"input {x.shape} is not a [{C},H,W,B] map")
    _, H, W, B = x.shape
    if kh > H or kw > W:
        raise ShapeError(f"kernel {kh}x{kw} exceeds input {H}x{W}")
    Ho = conv_output_size(H, kh, stride)
    Wo = conv_output_size(W, kw, stride)
    phases = _phase_taps(stride, kh, kw)
    cols = np.empty((C, kh, kw, Ho, Wo, B))
    for (r, q), taps in phases:
        plane = np.ascontiguousarray(x[:, r::stride, q::stride])
        for i, j, a, b in taps:
            cols[:, i, j] = plane[:, a:a + Ho, b:b + Wo]
        del plane  # before the next plane is allocated
    cols = cols.reshape(C * kh * kw, Ho * Wo * B)
    kflat = kernels.reshape(K, C * kh * kw)
    out2 = kflat @ cols
    out2 += bias[:, None]

    def pull(gout: np.ndarray):
        g2 = gout.reshape(K, Ho * Wo * B)
        gk = (g2 @ cols.T).reshape(K, C, kh, kw)
        gb = g2.sum(axis=1)
        if not input_grad:
            return None, gk, gb
        gcols = (kflat.T @ g2).reshape(C, kh, kw, Ho, Wo, B)
        gx = np.zeros((C, H, W, B))
        for (r, q), taps in phases:
            plane = np.zeros(gx[:, r::stride, q::stride].shape)
            for i, j, a, b in taps:
                plane[:, a:a + Ho, b:b + Wo] += gcols[:, i, j]
            gx[:, r::stride, q::stride] = plane
            del plane
        return gx, gk, gb

    return _locked(out2.reshape(K, Ho, Wo, B)), pull


def _taps(a: np.ndarray, k: int, n: int, axis: int):
    """The k views a[i : i + n] along ``axis``, i < k."""
    lead = (slice(None),) * axis
    return [a[lead + (slice(i, i + n),)] for i in range(k)]


def _tap_sum(a: np.ndarray, k: int, n: int, axis: int) -> np.ndarray:
    """Sum of the k views of :func:`_taps`, in a new buffer laid out in the
    memory order of ``a``."""
    views = _taps(a, k, n, axis)
    out = views[0] + views[1] if k > 1 else views[0].copy(order="K")
    for view in views[2:]:
        out += view
    return out


def _tap_spread(g: np.ndarray, k: int, extent: int, axis: int) -> np.ndarray:
    """Adjoint of :func:`_tap_sum`: add ``g`` into each of the k views."""
    shape = list(g.shape)
    shape[axis] = extent
    out = np.zeros(shape)
    for view in _taps(out, k, g.shape[axis], axis):
        view += g
    return out


def mean_pool(x: np.ndarray, kernel: int) -> tuple[np.ndarray, Pull]:
    """Stride-1 window mean over a square ``kernel`` x ``kernel`` window of
    the H and W axes of a [C,H,W,B] map.

    Separable: ``kernel`` row-slice adds, then ``kernel`` column-slice adds,
    then one scale; each add runs over whole W*B or Wp*B rows, and the pull
    is the same adds transposed. ``x`` may be any strided view of such a map,
    and the output keeps its memory order.
    """
    if kernel < 1:
        raise ShapeError("pool window must be >= 1")
    if x.ndim != 4:
        raise ShapeError(f"input must be a [C,H,W,B] map, got {x.shape}")
    H, W = x.shape[1:3]
    if kernel > min(H, W):
        raise ShapeError(f"pool window {kernel}x{kernel} exceeds input {H}x{W}")
    Hp, Wp = H - kernel + 1, W - kernel + 1
    inv = 1.0 / (kernel * kernel)
    out4 = _tap_sum(_tap_sum(x, kernel, Hp, 1), kernel, Wp, 2)
    out4 *= inv

    def pull(gout: np.ndarray):
        return (_tap_spread(_tap_spread(gout * inv, kernel, W, 2), kernel, H, 1),)

    return _locked(out4), pull


def batch_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5
               ) -> tuple[np.ndarray, Pull]:
    """Per-channel normalization of a [B,C,H,W] batch.

    Train mode normalizes by batch statistics and folds them into the running
    buffers in place; infer mode reads the running buffers. ``scale`` and
    ``shift`` are the learnable per-channel affine parameters.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects a [B,C,H,W] batch, got {x.shape}")
    C = x.shape[1]
    if scale.shape != (C,) or shift.shape != (C,):
        raise ShapeError(f"scale/shift must be [C]={C}")
    axes = (0, 2, 3)
    cshape = (1, C, 1, 1)
    if training:
        if x.shape[0] < 2:
            raise ShapeError("batch_norm in train mode needs a batch of at least 2")
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean.reshape(cshape)) * inv_std.reshape(cshape)
    out = _locked(xhat * scale.reshape(cshape) + shift.reshape(cshape))

    def pull(gout: np.ndarray):
        gscale = (gout * xhat).sum(axis=axes)
        gshift = gout.sum(axis=axes)
        gxhat = gout * scale.reshape(cshape)
        if training:
            m1 = gxhat.mean(axis=axes).reshape(cshape)
            m2 = (gxhat * xhat).mean(axis=axes).reshape(cshape)
            gx = inv_std.reshape(cshape) * (gxhat - m1 - xhat * m2)
        else:
            gx = gxhat * inv_std.reshape(cshape)
        return gx, gscale, gshift

    return out, pull


def dropout(x: np.ndarray, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> tuple[np.ndarray, Pull]:
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
    return _locked(x * factor), lambda g: (g * factor,)
