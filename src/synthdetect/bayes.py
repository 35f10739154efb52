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

Both objectives have closed-form gradients, returned as arrays keyed by
parameter name, so only the network is pulled back. ``map_objective``
returns the cotangent beta * (f - y) of the head outputs, which seeds the
step's one ``backward``, and the prior's gradient alpha * w of each head
weight. ``elbo`` pulls each sample's head chain from -beta * (f - y) / n_mc
itself and returns the features' cotangent and the q gradients:
alpha * m + sum(g) for the means and alpha * sigma^2 - 1 + sum(g * eps * sigma)
for the log-stds, g being a sampled weight's gradient.

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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .model import is_finite_real, is_int
from .preprocess import NormStats, preprocess_pixels
from .tensor import ShapeError, Tensor, backward

LOG_2PI = math.log(2.0 * math.pi)
INFERENCE_MODES = ("map", "variational")


class NumericalError(ArithmeticError):
    """An iterative solve or optimization lost its footing."""


# --- heads -------------------------------------------------------------------


HEAD_RULES = {  # every head hyperparameter: (requirement, test)
    "hidden": ("an integer >= 1", lambda v: is_int(v) and v >= 1),
    "alpha": ("finite and > 0", lambda v: is_finite_real(v) and v > 0),
    "beta": ("finite and > 0", lambda v: is_finite_real(v) and v > 0),
    "dropout_rate": ("in [0, 1)", lambda v: is_finite_real(v) and 0.0 <= v < 1.0),
}


def check_head_hparams(**hparams) -> None:
    """The head's rules for the given values, which a training config, a
    checkpoint header's values (before any weight is read) and the
    objectives' precisions also pass."""
    for name, value in hparams.items():
        rule, ok = HEAD_RULES[name]
        if not ok(value):
            raise ValueError(f"{name} must be {rule}, got {value!r}")


_PARAMETER_NAMES = ("fc1.weights", "fc1.bias", "fc2.weights", "fc2.bias")


class BayesianHead:
    """Two fully connected layers with dropout between them (no activation:
    the conv stack already squashed features through sigmoids)."""

    def __init__(self, d_in: int, hidden: int = 512, alpha: float = 1e-2,
                 beta: float = 100.0, dropout_rate: float = 0.5,
                 rng: np.random.Generator | None = None,
                 weights: Sequence[np.ndarray] | None = None):
        """``weights``, in ``parameters()`` order, become the head's tensors
        without a copy; without them (and without ``rng``) they are zero."""
        check_head_hparams(hidden=hidden, alpha=alpha, beta=beta, dropout_rate=dropout_rate)
        self.d_in = d_in
        self.hidden = hidden
        self.alpha = alpha
        self.beta = beta
        self.dropout_rate = dropout_rate
        shapes = [shape for _, shape in self.parameter_shapes(d_in, hidden)]
        if weights is None:
            weights = [np.zeros(shape) for shape in shapes]
        elif [np.shape(w) for w in weights] != shapes:
            raise ShapeError(f"head weight shapes {[np.shape(w) for w in weights]} "
                             f"!= {shapes}")
        self.w1, self.b1, self.w2, self.b2 = (Tensor.adopt(w) for w in weights)
        if rng is not None:
            self.xavier_init(rng)

    def xavier_init(self, rng: np.random.Generator) -> None:
        for w in (self.w1, self.w2):
            d_out, d_in = w.shape
            bound = np.sqrt(6.0 / (d_in + d_out))
            w.assign(rng.uniform(-bound, bound, size=w.shape))
        self.b1.assign(np.zeros(self.hidden))
        self.b2.assign(np.zeros(1))

    @staticmethod
    def parameter_shapes(d_in: int, hidden: int) -> list[tuple[str, tuple[int, ...]]]:
        """Name and shape of each parameter, in ``parameters()`` order."""
        return list(zip(_PARAMETER_NAMES, [(hidden, d_in), (hidden,), (1, hidden), (1,)]))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return list(zip(_PARAMETER_NAMES, (self.w1, self.b1, self.w2, self.b2)))

    def forward(self, z, training: bool = False, rng: np.random.Generator | None = None,
                chain: T.Chain | None = None) -> Tensor:
        return self.forward_with(z, [p.data for _, p in self.parameters()], training, rng,
                                 chain)

    def forward_with(self, z, weights: Sequence[np.ndarray], training: bool = False,
                     rng: np.random.Generator | None = None,
                     chain: T.Chain | None = None) -> Tensor:
        """[B] outputs of the [B, d_in] rows ``z`` at the weight arrays
        ``weights`` (``parameters()`` order). With a ``chain``, the links of
        the forward are appended to it, named as ``parameters()`` names them."""
        w1, b1, w2, b2 = (Tensor.adopt(w) for w in weights)
        zt = z if isinstance(z, Tensor) else Tensor(z)
        h = T.link(chain, _PARAMETER_NAMES[:2], T.linear(zt, w1, b1))
        h = T.link(chain, (), T.dropout(h, self.dropout_rate, training, rng))
        out = T.link(chain, _PARAMETER_NAMES[2:], T.linear(h, w2, b2))
        return T.link(chain, (), T.reshape(out, (out.shape[0],)))

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


def _finite(value) -> float:
    """``value`` as a float; an objective that overflowed raises as a
    non-finite tensor does."""
    if not math.isfinite(value):
        raise FloatingPointError(f"objective is non-finite ({value})")
    return float(value)


def map_objective(outputs: Tensor, targets: np.ndarray,
                  weights: Sequence[tuple[str, Tensor]], alpha: float, beta: float,
                  scale: float = 1.0) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Negative unnormalized log posterior -log p(targets | w) - log p(w) of
    the head's [B] ``outputs``, under a Gaussian prior on the named
    ``weights``.

    Returns the value, the outputs' cotangent beta * (f - y) to seed
    ``backward``, and the prior's gradient alpha * w of each weight as it is
    now, keyed by name, to add to ``backward``'s. Cotangents and gradients
    are those of ``scale`` times the value.
    """
    check_head_hparams(alpha=alpha, beta=beta)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != outputs.shape:
        raise ShapeError(f"targets {targets.shape} / outputs {outputs.shape} mismatch")
    resid = outputs.data - targets
    sq_norm = 0.0
    for _, w in weights:
        sq_norm += np.sum(w.data * w.data)
    const = (-0.5 * targets.size * (math.log(beta) - LOG_2PI)
             - 0.5 * sum(w.data.size for _, w in weights) * (math.log(alpha) - LOG_2PI))
    value = _finite(0.5 * beta * np.sum(resid * resid) + const + 0.5 * alpha * sq_norm)
    g_prior = scale * alpha
    return value, (scale * beta) * resid, {name: g_prior * w.data for name, w in weights}


# --- Gauss-Newton curvature and solves -----------------------------------------


def per_sample_gradients(head, features: np.ndarray) -> np.ndarray:
    """Rows g_n = grad_w f(z_n, w) for each feature row, as [N, W], at the
    head's current weights with dropout off, one ``backward`` per row."""
    names = [name for name, _ in head.parameters()]
    rows = []
    for z in np.asarray(features, dtype=np.float64):
        chain = []
        head.forward(z[None, :], training=False, chain=chain)
        _, grads = backward(chain, np.ones(1))
        rows.append(np.concatenate([grads[name].reshape(-1) for name in names]))
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
        self.weights = [p.data for _, p in head.parameters()]
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
            s, U = np.linalg.eigh(head.gradient_gram(self.weights))
            R = np.sqrt(np.clip(s, 0.0, None))[:, None] * U.T
            rz = R @ head.gradient_coordinates(self.features).T
            lam, V = np.linalg.eigh(rz @ rz.T)
            scale = 1.0 / np.sqrt(self.alpha + self.beta * np.clip(lam, 0.0, None))
            self._factor = scale[:, None] * (V.T @ R)
        return self._factor

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v at the weights as at build, from the head's closed-form
        Jacobian products."""
        jvp, vjp = self.head.jacobian_products(self.features, self.weights)
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
        self.names = [name for name, _ in head.parameters()]
        self.std_names = [f"{name}.log_std" for name in self.names]
        self.means: list[Tensor] = [p for _, p in head.parameters()]
        self.log_stds: list[Tensor] = [Tensor(np.full(m.shape, init_log_std))
                                       for m in self.means]

    def parameters(self) -> list[tuple[str, Tensor]]:
        """The means under the head's names, then the log-stds under those
        names with ``.log_std`` appended."""
        return [*zip(self.names, self.means), *zip(self.std_names, self.log_stds)]


def kl_to_prior(q: VariationalPosterior, alpha: float, scale: float = 1.0
                ) -> tuple[float, dict[str, np.ndarray]]:
    """Closed-form KL( q || N(0, alpha^-1 I) ), summed over all weights, and
    the gradients of ``scale`` times it, keyed by ``q.parameters()`` names:
    alpha * m for each mean and alpha * sigma^2 - 1 for each log-std."""
    check_head_hparams(alpha=alpha)
    total, count = 0.0, 0
    grads = {}
    half, g = 0.5 * alpha, scale * alpha
    for name, std_name, mean, log_std in zip(q.names, q.std_names, q.means, q.log_stds):
        m, ls = mean.data, log_std.data
        count += m.size
        sigma2 = np.exp(ls * 2.0)
        total += np.sum(sigma2 * half) + np.sum(m * m * half) - np.sum(ls)
        grads[name], grads[std_name] = g * m, g * sigma2 - scale
    return _finite(total + (-0.5 * math.log(alpha) - 0.5) * count), grads


def elbo(head, q: VariationalPosterior, features, targets: np.ndarray,
         alpha: float, beta: float, n_mc: int, rng: np.random.Generator,
         training: bool = False, dropout_rng: np.random.Generator | None = None,
         scale: float = 1.0) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Monte-Carlo evidence lower bound E_q[log p(D|w)] - KL(q || prior).

    Each sample w = m + sigma * eps (eps from ``rng``, then the sample's
    dropout mask from ``dropout_rng``) runs the head on its own chain, which
    ``backward`` pulls from the cotangent -beta * (f - y) / n_mc. The
    gradients start from the KL's, and each sample's are added as soon as
    its chain is pulled. Returns the bound, the cotangent of ``features``
    (the samples' sum) to seed the extractor's ``backward``, and the
    gradients of the q means (the KL term plus the sum of the sampled
    weights' gradients g) and log-stds (the KL term plus the sum of
    g * eps * sigma), keyed by ``q.parameters()`` names. Cotangents and
    gradients are those of ``scale`` times the bound.
    """
    check_head_hparams(alpha=alpha, beta=beta)
    if n_mc < 1:
        raise ValueError("need at least one Monte-Carlo sample")
    targets = np.asarray(targets, dtype=np.float64)
    kl, grads = kl_to_prior(q, alpha, -scale)
    means = [m.data for m in q.means]
    sigmas = [np.exp(ls.data) for ls in q.log_stds]
    g_out = (scale * (1.0 / n_mc)) * -beta
    loglik = 0.0
    g_features = None
    for _ in range(n_mc):
        eps = [rng.standard_normal(m.shape) for m in means]
        chain = []
        out = head.forward_with(features, [m + sigma * e for m, sigma, e in
                                           zip(means, sigmas, eps)],
                                training=training, rng=dropout_rng, chain=chain)
        if targets.shape != out.shape:
            raise ShapeError(f"targets {targets.shape} / outputs {out.shape} mismatch")
        resid = out.data - targets
        loglik += np.sum(resid * resid) * (-0.5 * beta) \
            + 0.5 * targets.size * (math.log(beta) - LOG_2PI)
        g_z, g_w = backward(chain, g_out * resid)
        g_features = g_z if g_features is None else g_features + g_z
        for name, std_name, sigma, e in zip(q.names, q.std_names, sigmas, eps):
            grads[name] += g_w[name]
            grads[std_name] += g_w[name] * e * sigma
    return _finite(loglik * (1.0 / n_mc) - kl), g_features, grads


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
    [N,3,S,S] batch, run ``score_chunk(S)`` images at a time. The one finite
    check of the pass: a non-finite score raises ``FloatingPointError``."""
    chunk = score_chunk(batch.shape[-1])
    out = np.empty(batch.shape[0])
    for start in range(0, batch.shape[0], chunk):
        z = cnn.forward_features(Tensor(batch[start:start + chunk]), training=False)
        out[start:start + z.shape[0]] = head.forward(z, training=False).data
    if not np.isfinite(out).all():
        raise FloatingPointError("posterior scores hold non-finite values")
    return out


@dataclass
class Detector:
    """What ``train`` makes, and all that scoring raw pixels needs: the
    extractor, the head, the normalization statistics of the training images,
    the decision threshold taken from real validation scores, and the
    training mode used. A detector always has all of them."""

    cnn: "FineToCoarseCnn"
    head: BayesianHead
    norm: NormStats
    gamma: float
    mode: str = "map"

    def preprocess(self, pixels: np.ndarray) -> np.ndarray:
        return preprocess_pixels(pixels, self.cnn.config.input_size, self.norm)

    def score_batch(self, pixel_list) -> np.ndarray:
        """Posterior scores for a sized sequence of raw images."""
        batch = np.stack([self.preprocess(p) for p in pixel_list])
        return posterior_scores(self.cnn, self.head, batch)
