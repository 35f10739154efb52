"""The fine-to-coarse convolutional feature extractor.

Three conv / mean-pool / sigmoid stages with strictly increasing filter
counts (16, 24, 32), followed by batch normalization over the final channel
map and flattening. Pooling sits between the convolution and the sigmoid, so
weak high-frequency responses average toward zero before they are squashed.
Valid (no-padding) convolutions with floor-division pooling take a 224 input
through 220 -> 109 -> 105 -> 51 -> 47 -> 22, i.e. 22*22*32 = 15488 features.

Because a stage is linear up to its sigmoid, each conv + mean-pool pair runs
as one strided convolution whose kernel is the pool window folded into the
learned kernel (:func:`tensor.fold_mean_pool`): 224 -> 109 -> 51 -> 22
directly. The parameters stay the 5x5 (3x3 at reduced scale) kernels;
``tensor.mean_pool`` is kept only as the tests' reference for the fold.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """An int or float, not a bool, whose value a float holds finitely (so no
    conversion of a huge int overflows)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class CnnConfig:
    input_size: int = 224
    in_channels: int = 3
    filters: tuple[int, ...] = (16, 24, 32)
    kernel: int = 5
    pool_kernel: int = 4
    pool_stride: int = 2
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        sizes = (self.input_size, self.in_channels, self.kernel, self.pool_kernel,
                 self.pool_stride, *self.filters)
        if not self.filters or any(not is_int(s) or s < 1 for s in sizes):
            raise ValueError(f"sizes and filter counts must be integers >= 1, got {self}")
        if any(a >= b for a, b in zip(self.filters, self.filters[1:])):
            raise ValueError(f"filter counts must strictly increase, got {self.filters}")
        if not (is_finite_real(self.bn_eps) and self.bn_eps > 0):
            raise ValueError(f"bn_eps must be finite and > 0, got {self.bn_eps!r}")
        if not (is_finite_real(self.bn_momentum) and 0 <= self.bn_momentum <= 1):
            raise ValueError(f"bn_momentum must be in [0, 1], got {self.bn_momentum!r}")

    def stage_sizes(self) -> list[tuple[int, int]]:
        """(post-conv, post-pool) spatial extent per stage; raises if any
        stage shrinks the map below the next kernel."""
        sizes = []
        s = self.input_size
        for _ in self.filters:
            if self.kernel > s:
                raise ShapeError(f"kernel {self.kernel} exceeds feature map {s}")
            c = T.conv_output_size(s, self.kernel, 1)
            if self.pool_kernel > c:
                raise ShapeError(f"pool window {self.pool_kernel} exceeds feature map {c}")
            p = T.conv_output_size(c, self.pool_kernel, self.pool_stride)
            sizes.append((c, p))
            s = p
        return sizes

    @property
    def feature_dim(self) -> int:
        return self.filters[-1] * self.stage_sizes()[-1][1] ** 2


def full_scale_config() -> CnnConfig:
    return CnnConfig()


def reduced_scale_config() -> CnnConfig:
    """Same topology at 32x32 for oracle tests and fast experiments: the
    5x5/4x4 windows would exhaust a 32-pixel map, so kernels shrink to 3 and
    pools to 2x2 while filter counts and layer order stay identical."""
    return CnnConfig(input_size=32, kernel=3, pool_kernel=2, pool_stride=2)


class FineToCoarseCnn:
    """Feature extractor producing the flat latent vector consumed by the
    Bayesian head. Inference on frozen parameters is read-only; training
    steps mutate parameters and need exclusive access."""

    def __init__(self, config: CnnConfig, rng: np.random.Generator | None = None):
        self.config = config
        sizes = config.stage_sizes()  # validates geometry up front
        self.kernels: list[Tensor] = []
        self.biases: list[Tensor] = []
        c_in = config.in_channels
        for k_out in config.filters:
            self.kernels.append(Tensor(
                np.zeros((k_out, c_in, config.kernel, config.kernel)), requires_grad=True))
            self.biases.append(Tensor(np.zeros(k_out), requires_grad=True))
            c_in = k_out
        c_last = config.filters[-1]
        self.bn_scale = Tensor(np.ones(c_last), requires_grad=True)
        self.bn_shift = Tensor(np.zeros(c_last), requires_grad=True)
        self.bn_mean = np.zeros(c_last)
        self.bn_var = np.ones(c_last)
        self.feature_dim = config.feature_dim
        self._final_side = sizes[-1][1]
        if rng is not None:
            self.xavier_init(rng)

    def xavier_init(self, rng: np.random.Generator) -> None:
        """Kernels uniform in +-sqrt(6/(fan_in+fan_out)), biases zero."""
        for kern, bias in zip(self.kernels, self.biases):
            k_out, c_in, kh, kw = kern.shape
            fan_in = c_in * kh * kw
            fan_out = k_out * kh * kw
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            kern.assign(rng.uniform(-bound, bound, size=kern.shape))
            bias.assign(np.zeros(bias.shape))
        self.bn_scale.assign(np.ones(self.bn_scale.shape))
        self.bn_shift.assign(np.zeros(self.bn_shift.shape))
        self.bn_mean[:] = 0.0
        self.bn_var[:] = 1.0

    def parameters(self) -> list[tuple[str, Tensor]]:
        named = []
        for i, (k, b) in enumerate(zip(self.kernels, self.biases), start=1):
            named.append((f"conv{i}.kernels", k))
            named.append((f"conv{i}.bias", b))
        named.append(("bn.scale", self.bn_scale))
        named.append(("bn.shift", self.bn_shift))
        return named

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [("bn.running_mean", self.bn_mean), ("bn.running_var", self.bn_var)]

    def forward_features(self, x: Tensor, training: bool) -> Tensor:
        """[B,3,S,S] (or a single [3,S,S]) -> [B, feature_dim] latent vectors."""
        cfg = self.config
        single = x.ndim == 3
        if single:
            x = T.reshape(x, (1,) + x.shape)
        if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.input_size \
                or x.shape[3] != cfg.input_size:
            raise ShapeError(
                f"expected [B,{cfg.in_channels},{cfg.input_size},{cfg.input_size}], got {x.shape}")
        h = self.stage_activations(x)[-1]
        h = T.batch_norm(h, self.bn_scale, self.bn_shift, self.bn_mean, self.bn_var,
                         training=training, momentum=cfg.bn_momentum, eps=cfg.bn_eps)
        return T.reshape(h, (h.shape[0], self.feature_dim))

    def stage_activations(self, x: Tensor) -> list[Tensor]:
        """Per-stage post-sigmoid maps of a [B,3,S,S] batch:
        sigmoid(mean_pool(conv(h))) per stage, each run as one strided conv
        with the pool folded into its kernel."""
        cfg = self.config
        outs = []
        h = x
        for kern, bias in zip(self.kernels, self.biases):
            folded = T.fold_mean_pool(kern, cfg.pool_kernel)
            h = T.sigmoid(T.conv2d_valid(h, folded, bias, stride=cfg.pool_stride))
            outs.append(h)
        return outs

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {name: p.data.copy() for name, p in self.parameters()}
        out.update({name: b.copy() for name, b in self.buffers()})
        return out

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.parameters():
            p.assign(state[name])
        for name, buf in self.buffers():
            if not np.isfinite(state[name]).all():
                raise FloatingPointError(f"buffer {name} holds non-finite values")
            buf[:] = state[name]
