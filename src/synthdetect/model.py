"""The fine-to-coarse convolutional feature extractor.

Three conv / mean-pool / sigmoid stages with strictly increasing filter
counts (16, 24, 32), followed by batch normalization over the final channel
map and flattening. Pooling sits between the convolution and the sigmoid, so
weak high-frequency responses average toward zero before they are squashed.
Correlation commutes with the window mean, so each stage pools its input
first, with a stride-1 window mean, and then runs its own kernel at the pool
stride: sigmoid(conv_s(mean_pool(h, p), k)). That is the same map as
conv, mean-pool at stride s, sigmoid, at 1/s^2 of the conv output positions.
Valid (no-padding) windows take a 224 input through 224 -> 221 -> 109 ->
106 -> 51 -> 48 -> 22 (pool, then conv, per stage), i.e. 22*22*32 = 15488
features, the sizes of conv 220 -> pool 109 -> 105 -> 51 -> 47 -> 22.

The geometry has one setting, ``CnnConfig(input_size)``, with two values:
224 (full scale, 5x5 kernels and 4x4 pools, as above) and 32 (reduced
scale, 3x3 kernels and 2x2 pools: 32 -> 31 -> 15 -> 14 -> 6 -> 5 -> 2, i.e.
128 features). Every other field follows from it.

The stages hold [C,H,W,B] maps, batch innermost (see ``tensor``), and the
layout changes twice. On the way in, the [B,3,S,S] batch is handed to stage
1's pool as a transposed view, which the pool's adds keep in the batch's
memory order and stage 1's conv copies into its C-contiguous phase planes,
so the transposition costs no copy of its own. On the way out, one
``transpose`` link turns the last map into [B,C,H,W] before the batch norm,
so the norm, the (C,H,W) flatten order of the features and the head see what
they saw with a batch-major extractor.

The extractor's backward is its forward's chain of links (``tensor.link``),
walked in reverse by ``tensor.backward``: per stage the pool (from stage 2
on), the conv, named ``conv<i>.kernels`` and ``conv<i>.bias``, and the
sigmoid; then the transpose, the batch norm (``bn.scale``, ``bn.shift``) and
the flatten. Those names key the extractor's ``params`` dict and, with a
``cnn.`` prefix, its checkpoint tensors.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, frozen


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """An int or float, not a bool, whose value a float holds finitely (so no
    conversion of a huge int overflows)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


# input_size -> (kernel, pool_kernel): the two geometries of the one extractor
_PRESETS = {224: (5, 4), 32: (3, 2)}


@dataclass(frozen=True)
class CnnConfig:
    """The extractor's geometry: every field follows from ``input_size``. At
    32 px the kernels and pools shrink, since 5x5/4x4 would exhaust the map."""

    input_size: int
    in_channels: int = field(init=False, default=3)
    filters: tuple[int, ...] = field(init=False, default=(16, 24, 32))
    kernel: int = field(init=False)
    pool_kernel: int = field(init=False)
    pool_stride: int = field(init=False, default=2)
    bn_eps: float = field(init=False, default=1e-5)
    bn_momentum: float = field(init=False, default=0.1)

    def __post_init__(self):
        if not (is_int(self.input_size) and self.input_size in _PRESETS):
            raise ValueError(f"input_size must be 224 or 32, got {self.input_size!r}")
        kernel, pool_kernel = _PRESETS[self.input_size]
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "pool_kernel", pool_kernel)

    def stage_sizes(self) -> list[tuple[int, int]]:
        """(post-conv, post-pool) spatial extent per stage."""
        sizes = []
        s = self.input_size
        for _ in self.filters:
            c = T.conv_output_size(s, self.kernel, 1)
            p = T.conv_output_size(c, self.pool_kernel, self.pool_stride)
            sizes.append((c, p))
            s = p
        return sizes

    @property
    def feature_dim(self) -> int:
        return self.filters[-1] * self.stage_sizes()[-1][1] ** 2


class FineToCoarseCnn:
    """Feature extractor producing the flat latent vector consumed by the
    Bayesian head: ``params`` holds its parameters, ``buffers`` the batch-norm
    statistics, which a training-mode forward updates in place."""

    def __init__(self, config: CnnConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.feature_dim = config.feature_dim
        self.params: dict[str, np.ndarray] = {}
        c_in = config.in_channels
        for i, k_out in enumerate(config.filters, start=1):
            self.params[f"conv{i}.kernels"] = frozen(
                np.zeros((k_out, c_in, config.kernel, config.kernel)))
            self.params[f"conv{i}.bias"] = frozen(np.zeros(k_out))
            c_in = k_out
        c_last = config.filters[-1]
        self.params["bn.scale"] = frozen(np.ones(c_last))
        self.params["bn.shift"] = frozen(np.zeros(c_last))
        self.buffers = {"bn.running_mean": np.zeros(c_last), "bn.running_var": np.ones(c_last)}
        if rng is not None:
            self.xavier_init(rng)

    def xavier_init(self, rng: np.random.Generator) -> None:
        """Kernels uniform in +-sqrt(6/(fan_in+fan_out)); the biases and the
        batch norm keep the values ``__init__`` gave them."""
        for i in range(1, len(self.config.filters) + 1):
            name = f"conv{i}.kernels"
            k_out, c_in, kh, kw = self.params[name].shape
            fan_in = c_in * kh * kw
            fan_out = k_out * kh * kw
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.params[name] = frozen(rng.uniform(-bound, bound, size=(k_out, c_in, kh, kw)))

    def forward_features(self, x: Tensor, training: bool,
                         chain: T.Chain | None = None) -> Tensor:
        """[B,3,S,S] -> [B, feature_dim] latent vectors. With a ``chain``, the
        links of the forward are appended to it, named by their keys in
        ``params``, for ``tensor.backward``."""
        cfg = self.config
        if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.input_size \
                or x.shape[3] != cfg.input_size:
            raise ShapeError(
                f"expected [B,{cfg.in_channels},{cfg.input_size},{cfg.input_size}], got {x.shape}")
        h = T.link(chain, (), T.transpose(self.stage_activations(x.data, chain)[-1], (3, 0, 1, 2)))
        h = T.link(chain, ("bn.scale", "bn.shift"), T.batch_norm(
            h, self.params["bn.scale"], self.params["bn.shift"],
            self.buffers["bn.running_mean"], self.buffers["bn.running_var"],
            training=training, momentum=cfg.bn_momentum, eps=cfg.bn_eps))
        return Tensor.adopt(T.link(chain, (), T.reshape(h, (h.shape[0], self.feature_dim))))

    def stage_activations(self, x: np.ndarray, chain: T.Chain | None = None
                          ) -> list[np.ndarray]:
        """Per-stage post-sigmoid [C,H,W,B] maps of a [B,3,S,S] batch:
        sigmoid(conv_s(mean_pool(h, p))) per stage, which equals
        sigmoid(mean_pool(conv(h), p, s)). Stage 1 pools a transposed view of
        the input batch (see the module docstring); that pool is never pulled
        and its conv builds no input gradient."""
        cfg = self.config
        outs = []
        h = x.transpose(1, 2, 3, 0)
        for i in range(1, len(cfg.filters) + 1):
            names = (f"conv{i}.kernels", f"conv{i}.bias")
            pooled = T.link(chain if i > 1 else None, (), T.mean_pool(h, cfg.pool_kernel))
            h = T.link(chain, names, T.conv2d_valid(
                pooled, self.params[names[0]], self.params[names[1]],
                stride=cfg.pool_stride, input_grad=i > 1))
            h = T.link(chain, (), T.sigmoid(h))
            outs.append(h)
        return outs

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameters by reference (an update replaces a parameter's read-only
        array) and copies of the buffers, which batch norm updates in place."""
        return {**self.params, **{name: b.copy() for name, b in self.buffers.items()}}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers from ``state``: a checkpoint's, which
        the loader checked finite and shaped as it read them, or a snapshot
        ``train`` took. Raises ValueError on a negative running variance."""
        if (state["bn.running_var"] < 0).any():
            raise ValueError("buffer bn.running_var holds negative values")
        self.params.update((name, frozen(state[name])) for name in self.params)
        for name, buf in self.buffers.items():
            buf[:] = state[name]
