"""The Bayesian decision head and its inference machinery.

The head is a two-layer MLP (feature_dim -> 512 with dropout -> 1) whose
weights carry an isotropic Gaussian prior with precision ``alpha``; outputs
are modeled as Gaussian around the network value with noise precision
``beta``. Point training minimizes the negative unnormalized log posterior
(``map_objective``); the predictive distribution around that point comes from
a Gauss-Newton curvature approximation, giving the input-dependent variance

    var(z) = 1/beta + g^T (alpha*I + beta*H)^{-1} g,   g = d f(z,w) / d w.

A mean-field variational alternative (``elbo``) trains per-weight means and
log-stds by reparameterized sampling; scores are then taken at the q means.

The Gauss-Newton curvature is H = J^T J, with J the [N, W] Jacobian of the
inference-mode outputs over N training features. At inference dropout is the
identity, so f = w2 . (W1 z + b1) + b2 is linear in each layer's weights and
g_n = [w2 (x) z_n, w2, W1 z_n + b1, 1] = A z~_n, with z~ = [z, 1] and one
fixed [W, d+1] matrix A. Then H = A M A^T with M = sum_n z~_n z~_n^T, and for
any square root R of K = A^T A (R^T R = K) the push-through identity gives

    var(z) = 1/beta + z~^T R^T (alpha*I + beta * R M R^T)^-1 R z~
           = 1/beta + ||B z~||^2

exactly, in d+1 dimensions: 129 at 32 px against W = 66,561 weights. The
[d+1, d+1] factor B is built once per curvature, on its first query
(``GaussNewtonCurvature.factor``), so a query (``predictive``) costs one
small matrix-vector product. That is the only variance path.

``cg_solve``, ``per_sample_gradients`` and ``GaussNewtonCurvature.matvec``
serve only the tests and the benchmark tracer, which binds them by name.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .preprocess import NormStats, preprocess_pixels
from .tensor import GradTape, ShapeError, Tensor, backward

LOG_2PI = math.log(2.0 * math.pi)
INFERENCE_MODES = ("map", "variational")


class NumericalError(ArithmeticError):
    """An iterative solve or optimization lost its footing."""


class UntrainedModelError(RuntimeError):
    """Scoring requested from a model that never went through training."""


# --- heads -------------------------------------------------------------------


class BayesianHead:
    """Two fully connected layers with dropout between them (no activation:
    the conv stack already squashed features through sigmoids)."""

    def __init__(self, d_in: int, hidden: int = 512, alpha: float = 1e-2,
                 beta: float = 100.0, dropout_rate: float = 0.5,
                 rng: np.random.Generator | None = None,
                 weights: Sequence[np.ndarray] | None = None):
        """``weights``, in ``parameters()`` order, become the head's tensors
        without a copy; without them (and without ``rng``) they are zero."""
        if not (alpha > 0 and beta > 0):  # also rejects NaN
            raise ValueError(f"precisions must be positive, got alpha={alpha}, beta={beta}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        self.d_in = d_in
        self.hidden = hidden
        self.alpha = alpha
        self.beta = beta
        self.dropout_rate = dropout_rate
        shapes = [(hidden, d_in), (hidden,), (1, hidden), (1,)]
        if weights is None:
            weights = [np.zeros(shape) for shape in shapes]
        elif [np.shape(w) for w in weights] != shapes:
            raise ShapeError(f"head weight shapes {[np.shape(w) for w in weights]} "
                             f"!= {shapes}")
        self.w1, self.b1, self.w2, self.b2 = (Tensor.adopt(w, requires_grad=True)
                                              for w in weights)
        if rng is not None:
            self.xavier_init(rng)

    def xavier_init(self, rng: np.random.Generator) -> None:
        for w in (self.w1, self.w2):
            d_out, d_in = w.shape
            bound = np.sqrt(6.0 / (d_in + d_out))
            w.assign(rng.uniform(-bound, bound, size=w.shape))
        self.b1.assign(np.zeros(self.hidden))
        self.b2.assign(np.zeros(1))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("fc1.weights", self.w1), ("fc1.bias", self.b1),
                ("fc2.weights", self.w2), ("fc2.bias", self.b2)]

    @property
    def weight_count(self) -> int:
        return sum(p.size for _, p in self.parameters())

    def forward(self, z, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        return self.forward_with(z, [p for _, p in self.parameters()], training, rng)

    def forward_with(self, z, weights, training: bool = False,
                     rng: np.random.Generator | None = None) -> Tensor:
        w1, b1, w2, b2 = weights
        zt = z if isinstance(z, Tensor) else Tensor(z)
        h = T.linear(zt, w1, b1)
        h = T.dropout(h, self.dropout_rate, training, rng)
        out = T.linear(h, w2, b2)
        return T.reshape(out, (out.shape[0],)) if out.ndim == 2 else out

    def jacobian_products(self, z: np.ndarray, weights: Sequence[np.ndarray]):
        """(J v, J^T u) for the Jacobian J of the inference-mode outputs at
        the [N, d_in] rows ``z`` w.r.t. the given weight arrays
        (``parameters()`` order), flat in that order. Row n of J is
        [w2 (x) z_n, w2, h_n, 1], h = z W1^T + b1."""
        w1, b1, w2, _ = weights
        w2 = w2[0]
        hid = z @ w1.T
        hid += b1
        split = np.cumsum([w1.size, self.hidden, self.hidden])

        def jvp(v: np.ndarray) -> np.ndarray:
            v1, vb1, vw2, vb2 = np.split(v, split)
            return z @ (v1.reshape(self.hidden, self.d_in).T @ w2) + vb1 @ w2 \
                + hid @ vw2 + vb2[0]

        def vjp(u: np.ndarray) -> np.ndarray:
            total = u.sum()
            return np.concatenate([np.outer(w2, z.T @ u).reshape(-1), total * w2,
                                   hid.T @ u, [total]])

        return jvp, vjp

    def gradient_coordinates(self, z: np.ndarray) -> np.ndarray:
        """z~ = [z_n, 1] per row of ``z``: the inference-mode weight gradient
        at z_n is A z~ for one [W, d_in + 1] matrix A of the weights."""
        return np.hstack([z, np.ones((z.shape[0], 1))])

    def gradient_gram(self, weights: Sequence[np.ndarray]) -> np.ndarray:
        """K = A^T A at the given weight arrays (``parameters()`` order). The
        blocks of g = A z~ are w2 (x) z, w2, [W1 b1] z~ and 1, so
        K = |w2|^2 I + [W1 b1]^T [W1 b1] + e e^T, e the last unit vector."""
        w1, b1, w2, _ = weights
        wb = np.hstack([w1, b1[:, None]])
        K = wb.T @ wb
        K[np.diag_indices_from(K)] += float(w2[0] @ w2[0])
        K[-1, -1] += 1.0
        return K


# --- objective -----------------------------------------------------------------


def map_objective(outputs: Tensor, targets: np.ndarray,
                  prior_params: list[Tensor], alpha: float, beta: float) -> Tensor:
    """Negative unnormalized log posterior: -log p(targets | w) - log p(w).

    ``outputs`` must be recorded on an active tape; gradients then reach both
    the feature extractor (through the likelihood) and the prior-covered head
    weights.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError(f"precisions must be positive, got alpha={alpha}, beta={beta}")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != outputs.shape:
        raise T.ShapeError(f"targets {targets.shape} / outputs {outputs.shape} mismatch")
    resid = outputs - targets
    sse = T.sum_all(resid * resid)
    w_dim = sum(p.size for p in prior_params)
    sq_norm = None
    for p in prior_params:
        term = T.sum_all(p * p)
        sq_norm = term if sq_norm is None else sq_norm + term
    n = targets.size
    const = (-0.5 * n * (math.log(beta) - LOG_2PI)
             - 0.5 * w_dim * (math.log(alpha) - LOG_2PI))
    obj = 0.5 * beta * sse + const
    if sq_norm is not None:
        obj = obj + 0.5 * alpha * sq_norm
    return obj


# --- Gauss-Newton curvature and solves -----------------------------------------


def per_sample_gradients(head, features: np.ndarray) -> np.ndarray:
    """Rows g_n = grad_w f(z_n, w) for each feature row, as [N, W], at the
    head's current weights with dropout off, one autodiff tape per row."""
    params = [p for _, p in head.parameters()]
    rows = []
    for z in np.asarray(features, dtype=np.float64):
        with GradTape() as tape:
            loss = T.sum_all(head.forward(z[None, :], training=False))
        grads = backward(loss, tape)
        rows.append(np.concatenate([grads[p.uid].reshape(-1) for p in params]))
    return np.stack(rows)


class GaussNewtonCurvature:
    """H = J^T J = sum_n g_n g_n^T over a batch of feature rows, for the head
    as it is at build: the weight arrays and precisions are kept (tensors
    never change in place) and the predictive factor is built on first use."""

    def __init__(self, head, features: np.ndarray):
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"need a non-empty [N, d] feature batch, got {features.shape}")
        if features.shape[1] != head.d_in:
            raise ValueError(f"feature rows have width {features.shape[1]}, "
                             f"the head expects {head.d_in}")
        if not np.isfinite(features).all():
            raise ValueError("feature batch holds non-finite values")
        self.head = head
        self.features = features
        self.alpha, self.beta = head.alpha, head.beta
        self._weights = [p.data for _, p in head.parameters()]
        self._factor = None

    def factor(self) -> np.ndarray:
        """B, [d+1, d+1], with B^T B = R^T (alpha*I + beta * R M R^T)^-1 R.
        Both square roots come from ``eigh`` with eigenvalues clipped at 0:
        R = diag(sqrt s) U^T from K = U diag(s) U^T, which is singular for a
        zero head, and B = diag((alpha + beta*lam)^-1/2) V^T R from
        R M R^T = V diag(lam) V^T. A Cholesky factor of the sum would fail
        where alpha is below the rounding of beta * R M R^T."""
        if self._factor is None:
            head = self.head
            s, U = np.linalg.eigh(head.gradient_gram(self._weights))
            R = np.sqrt(np.clip(s, 0.0, None))[:, None] * U.T
            rz = R @ head.gradient_coordinates(self.features).T
            lam, V = np.linalg.eigh(rz @ rz.T)
            scale = 1.0 / np.sqrt(self.alpha + self.beta * np.clip(lam, 0.0, None))
            self._factor = scale[:, None] * (V.T @ R)
        return self._factor

    @functools.cached_property
    def weights(self) -> list[Tensor]:
        """The head's weights as at build, as tensors for ``forward_with``."""
        return [Tensor.adopt(w) for w in self._weights]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v at the weights as at build, from the head's closed-form
        Jacobian products."""
        jvp, vjp = self.head.jacobian_products(self.features, self._weights)
        return vjp(jvp(v))


def cg_solve(matvec, b: np.ndarray, rtol: float = 1e-12,
             max_iter: int | None = None) -> np.ndarray:
    """Conjugate gradients for SPD systems; raises if the residual never
    reaches 1e-6 of ||b|| within the iteration budget."""
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    if max_iter is None:
        max_iter = max(10 * n, 100)
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rtr = float(r @ r)
    bnorm = math.sqrt(float(b @ b))
    if bnorm == 0.0:
        return x
    tol = rtol * bnorm
    for _ in range(max_iter):
        if math.sqrt(rtr) <= tol:
            break
        Ap = matvec(p)
        denom = float(p @ Ap)
        if denom <= 0.0:
            raise NumericalError("conjugate gradients met a non-positive curvature direction")
        step = rtr / denom
        x += step * p
        r -= step * Ap
        rtr_new = float(r @ r)
        p = r + (rtr_new / rtr) * p
        rtr = rtr_new
    if math.sqrt(rtr) > 1e-6 * bnorm:
        raise NumericalError(f"conjugate gradients stalled at residual {math.sqrt(rtr):.3e}")
    return x


def predictive(z_row: np.ndarray, head,
               curvature: GaussNewtonCurvature) -> tuple[float, float]:
    """Gaussian predictive (mean, variance) at one feature vector.

    Both describe ``head`` as it was when ``curvature`` was built: the mean is
    the inference-mode output at the curvature's kept weights, and the
    variance adds the weight-uncertainty quadratic form, ||B z~||^2 with B the
    curvature's factor, to the noise floor 1/beta, so it can never fall below
    1/beta. A curvature built for another head is rejected.
    """
    if head is not curvature.head:
        raise ValueError("curvature was built for a different head")
    z = np.asarray(z_row, dtype=np.float64)[None, :]
    mean = float(head.forward_with(z, curvature.weights, training=False).data[0])
    b = curvature.factor() @ head.gradient_coordinates(z)[0]
    return mean, 1.0 / curvature.beta + float(b @ b)


# --- variational path ----------------------------------------------------------


class VariationalPosterior:
    """Mean-field Gaussian over the head weights: one (mean, log_std) pair per
    weight, stored per parameter tensor. The means are the head's own
    parameter tensors, so ``head.forward`` scores at the q means. Standard
    deviations are exp(log_std), hence strictly positive after any update."""

    def __init__(self, head, init_log_std: float = -4.0):
        self.head = head
        self.means: list[Tensor] = [p for _, p in head.parameters()]
        self.log_stds: list[Tensor] = [
            Tensor(np.full(m.shape, init_log_std), requires_grad=True) for m in self.means]

    def parameters(self) -> list[Tensor]:
        return [*self.means, *self.log_stds]

    def sample_weights(self, rng: np.random.Generator) -> list[Tensor]:
        drawn = []
        for m, ls in zip(self.means, self.log_stds):
            eps = rng.standard_normal(m.shape)
            drawn.append(m + T.exp(ls) * eps)
        return drawn


def kl_to_prior(q: VariationalPosterior, alpha: float) -> Tensor:
    """Closed-form KL( q || N(0, alpha^-1 I) ), summed over all weights."""
    if alpha <= 0:
        raise ValueError(f"prior precision must be positive, got {alpha}")
    total = None
    count = 0
    for m, ls in zip(q.means, q.log_stds):
        count += m.size
        sigma2 = T.exp(ls * 2.0)
        term = T.sum_all(sigma2 * (0.5 * alpha)) + T.sum_all(m * m * (0.5 * alpha)) \
            - T.sum_all(ls)
        total = term if total is None else total + term
    return total + (-0.5 * math.log(alpha) - 0.5) * count


def elbo(head, q: VariationalPosterior, features, targets: np.ndarray,
         alpha: float, beta: float, n_mc: int, rng: np.random.Generator,
         training: bool = False, dropout_rng: np.random.Generator | None = None) -> Tensor:
    """Monte-Carlo evidence lower bound E_q[log p(D|w)] - KL(q || prior).

    Sampling is reparameterized, so gradients reach the q means and log-stds
    (and, when ``features`` is a recorded tensor, the extractor beneath it).
    """
    if n_mc < 1:
        raise ValueError("need at least one Monte-Carlo sample")
    targets = np.asarray(targets, dtype=np.float64)
    n = targets.size
    loglik = None
    for _ in range(n_mc):
        weights = q.sample_weights(rng)
        out = head.forward_with(features, weights, training=training, rng=dropout_rng)
        resid = out - targets
        term = T.sum_all(resid * resid) * (-0.5 * beta) \
            + 0.5 * n * (math.log(beta) - LOG_2PI)
        loglik = term if loglik is None else loglik + term
    return loglik * (1.0 / n_mc) - kl_to_prior(q, alpha)


# --- scoring -------------------------------------------------------------------

# 256 images at 32 px; 5 at 224 px, where the stage-2 im2col is then ~0.1 GB
SCORE_CHUNK_PIXELS = 256 * 32 * 32


def score_chunk(side: int) -> int:
    """Images per forward pass at ``side`` x ``side`` pixels, so the size of
    a scoring pass is set by the geometry and not by the number of inputs."""
    return max(1, SCORE_CHUNK_PIXELS // (side * side))


def posterior_scores(cnn: "FineToCoarseCnn", head, batch: np.ndarray) -> np.ndarray:
    """Posterior scores (inference-mode predictive means at the current head
    weights, i.e. the q means under variational training) of a preprocessed
    [N,3,S,S] batch, run ``score_chunk(S)`` images at a time."""
    chunk = score_chunk(batch.shape[-1])
    out = np.empty(batch.shape[0])
    for start in range(0, batch.shape[0], chunk):
        z = cnn.forward_features(Tensor(batch[start:start + chunk]), training=False)
        out[start:start + z.shape[0]] = head.forward(z, training=False).data
    return out


@dataclass
class Detector:
    """Everything needed to score raw pixels: extractor, head, normalization
    statistics, the stored decision threshold, and the training mode used."""

    cnn: "FineToCoarseCnn"
    head: BayesianHead
    norm: NormStats | None = None
    gamma: float | None = None
    mode: str = "map"
    trained: bool = False

    def preprocess(self, pixels: np.ndarray) -> np.ndarray:
        if self.norm is None:
            raise UntrainedModelError("no normalization statistics; train first")
        return preprocess_pixels(pixels, self.cnn.config.input_size, self.norm)

    def score_batch(self, pixel_list) -> np.ndarray:
        """Posterior scores for a sized sequence of raw images."""
        if not self.trained:
            raise UntrainedModelError("cannot score with an untrained model")
        batch = np.stack([self.preprocess(p) for p in pixel_list])
        return posterior_scores(self.cnn, self.head, batch)

    def score_pixels(self, pixels: np.ndarray) -> float:
        return float(self.score_batch([pixels])[0])
